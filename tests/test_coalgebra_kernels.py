"""The coalgebra kernels against the comultiplication dict loops they replaced.

Every `*_by_dict_loop` function below is one of those loops, kept as the
reference: Delta is read from the `comul` dict one term at a time.
Hypothesis compares subspaces, structure constants, verdicts and
witnesses on Taft algebras over F_p, k[Z_m] and its dual, H4 over Q and
the flagship 81-dimensional Hopf algebra over F_7, with random subspaces
(subcoalgebras and not) and single-constant mutations of Delta.
"""
import itertools
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfsplit.coalgebra as coal
from dict_reference import sparse_eq
from hopfsplit.algebra import IdealData, VerificationFailed, ideal_generated_by, quotient_algebra
from hopfsplit.builtin import build_ha, dual_group_algebra, group_algebra, sweedler_h4, taft
from hopfsplit.category import CatObject, YDObject, yd_from_hopf_bimodule
from hopfsplit.coalgebra import (
    CoalgebraObject,
    FiltrationData,
    _coproduct_kernel,
    _square_coordinates,
    _subcoalgebra_defect,
    coradical_filtration,
    in_tensor_square,
    is_subcoalgebra,
    restrict_coalgebra,
    wedge,
)
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import BialgebraObject, is_coalgebra_map
from hopfsplit.linalg import Matrix, SparseMap, Subspace
from hopfsplit.pipeline import CertificationFailed, quotient_bialgebra
from hopfsplit.smash import _split_premises
from hopfsplit.tensors import v_basis, v_eq, v_tensor, v_zero
from smash_reference import actions_from_sigma, coactions_from_pi

HOPFS = {
    "taft2_f5": lambda: taft(2, GF(5).primitive_root_of_unity(2), GF(5)),
    "taft3_f7": lambda: taft(3, GF(7).primitive_root_of_unity(3), GF(7)),
    "taft4_f13": lambda: taft(4, GF(13).primitive_root_of_unity(4), GF(13)),
    "kz4_q": lambda: group_algebra(4, QQ),
    "kz5_f7": lambda: group_algebra(5, GF(7)),
    "dual_kz3_q": lambda: dual_group_algebra(3, QQ),
    "dual_kz6_f5": lambda: dual_group_algebra(6, GF(5)),
    "h4_q": lambda: sweedler_h4(QQ),
    "flagship_f7": lambda: build_ha(3, GF(7), 2, 1),
}


@cache
def hopf(name):
    return HOPFS[name]()


# ---------------------------------------------------------------------------
# references: the replaced loops


def comul_vec(c, vec) -> dict:
    """Delta applied to a dense vector, as {(i, j): c}."""
    f = c.field
    out: dict = {}
    for k, a in enumerate(vec):
        if f.is_zero(a):
            continue
        for ij, w in c.comul.get(k, {}).items():
            s = f.add(out.get(ij, f.zero()), f.mul(a, w))
            if f.is_zero(s):
                out.pop(ij, None)
            else:
                out[ij] = s
    return out


def coproduct_kernel_by_dict_loop(c, p: Matrix, q: Matrix) -> Subspace:
    """The entries loop of wedge, wedge2 and coradical_filtration."""
    f = c.field
    pr, qr = p.to_rows(), q.to_rows()
    entries: dict = {}
    for k, col in c.comul.items():
        for (i, j), w in col.items():
            for a in range(p.rows):
                va = pr[a][i]
                if f.is_zero(va):
                    continue
                for b in range(q.rows):
                    vb = qr[b][j]
                    if f.is_zero(vb):
                        continue
                    key = (a * q.rows + b, k)
                    entries[key] = f.add(entries.get(key, f.zero()), f.mul(w, f.mul(va, vb)))
    return Subspace.from_matrix_rows(Matrix.from_entries(f, p.rows * q.rows, c.dim, entries).kernel())


def defect_by_dict_loop(c, d: Subspace):
    """The first basis row t of D with Delta(d_t) outside D (x) D, or None."""
    f = c.field
    pi = d.complement_projection()
    if pi.rows == 0:
        return None
    pr = pi.to_rows()
    for t in range(d.dim):
        left: dict = {}
        right: dict = {}
        for (i, j), w in comul_vec(c, d.basis.row_list(t)).items():
            for q in range(pi.rows):
                v = pr[q][i]
                if not f.is_zero(v):
                    left[(q, j)] = f.add(left.get((q, j), f.zero()), f.mul(v, w))
                v = pr[q][j]
                if not f.is_zero(v):
                    right[(i, q)] = f.add(right.get((i, q), f.zero()), f.mul(v, w))
        if any(not f.is_zero(v) for v in left.values()) or any(not f.is_zero(v) for v in right.values()):
            return t
    return None


def wedge_by_dict_loop(d, c):
    if defect_by_dict_loop(c, d) is not None:
        raise ValueError("wedge requires a subcoalgebra")
    pi = d.complement_projection()
    if pi.rows == 0:
        return Subspace.full(c.field, c.dim)
    ker = coproduct_kernel_by_dict_loop(c, pi, pi)
    if not ker.contains(d):
        outside = next(t for t in range(d.dim) if not ker.contains_vector(d.basis.row_list(t)))
        raise VerificationFailed("wedge_contains_input", outside)
    bad = defect_by_dict_loop(c, ker)
    if bad is not None:
        raise VerificationFailed("wedge_subcoalgebra", bad)
    return ker


def filtration_by_dict_loop(c, c0):
    pi0 = c0.complement_projection()
    steps = [c0]
    cur = c0
    while cur.dim < c.dim:
        nxt = coproduct_kernel_by_dict_loop(c, pi0, cur.complement_projection())
        if nxt.dim <= cur.dim:
            return FiltrationData(steps, exhausts=False)
        bad = defect_by_dict_loop(c, nxt)
        if bad is not None:
            raise VerificationFailed("filtration_step_subcoalgebra", bad)
        steps.append(nxt)
        cur = nxt
    return FiltrationData(steps, exhausts=True)


def readoff_by_dict_loop(c, d: Subspace):
    """Pivot read-off of Delta(d_t) in D (x) D and the rebuild check:
    ("ok", comul dict) or ("readoff", first t whose rebuild differs)."""
    f = c.field
    m, piv, bt = d.dim, d.pivots, d.basis.transpose()
    comul: dict = {}
    for t in range(m):
        delta = comul_vec(c, d.basis.row_list(t))
        col = {}
        for s in range(m):
            for u in range(m):
                v = delta.get((piv[s], piv[u]))
                if v is not None and not f.is_zero(v):
                    col[(s, u)] = v
        if col:
            comul[t] = col
    for t in range(m):
        rebuilt: dict = {}
        for (s, u), w in comul.get(t, {}).items():
            for i2, a in enumerate(bt.col_list(s)):
                if f.is_zero(a):
                    continue
                for j2, b in enumerate(bt.col_list(u)):
                    if f.is_zero(b):
                        continue
                    val = f.add(rebuilt.get((i2, j2), f.zero()), f.mul(w, f.mul(a, b)))
                    if f.is_zero(val):
                        rebuilt.pop((i2, j2), None)
                    else:
                        rebuilt[(i2, j2)] = val
        if not sparse_eq(f, rebuilt, comul_vec(c, d.basis.row_list(t))):
            return "readoff", t
    return "ok", comul


def tensor_coords_by_dict_loop(f, r_space: Subspace, vec: dict):
    """Coordinates of an element of R (x) R (inside A (x) A) in the RREF
    basis of R, or None if it escapes R (x) R."""
    dr, piv = r_space.dim, r_space.pivots
    coords: dict = {}
    for s in range(dr):
        for t in range(dr):
            c = vec.get((piv[s], piv[t]))
            if c is not None and not f.is_zero(c):
                coords[(s, t)] = c
    rebuilt: dict = {}
    for (s, t), c in coords.items():
        for x, a_ in enumerate(r_space.basis.row_list(s)):
            if f.is_zero(a_):
                continue
            for y, b_ in enumerate(r_space.basis.row_list(t)):
                if f.is_zero(b_):
                    continue
                v = f.add(rebuilt.get((x, y), f.zero()), f.mul(c, f.mul(a_, b_)))
                if f.is_zero(v):
                    rebuilt.pop((x, y), None)
                else:
                    rebuilt[(x, y)] = v
    return coords if sparse_eq(f, rebuilt, vec) else None


def in_tensor_square_by_dict_loop(c, sub: Subspace, vec: dict) -> bool:
    """Both one-sided quotients of vec vanish (nothing to test when sub is C)."""
    f = c.field
    pi = sub.complement_projection()
    for side in (0, 1):
        acc: dict = {}
        for (i, j), w in vec.items():
            for q in range(pi.rows):
                v = pi[q, i if side == 0 else j]
                if f.is_zero(v):
                    continue
                key = (q, j) if side == 0 else (i, q)
                s = f.add(acc.get(key, f.zero()), f.mul(v, w))
                if f.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        if acc:
            return False
    return True


def quotient_bialgebra_by_dict_loop(a, ideal: Subspace):
    f = a.field
    q_alg, proj = quotient_algebra(a.as_algebra(), IdealData(a.as_algebra(), ideal))
    n, dq = a.dim, q_alg.dim
    incl = Matrix.from_entries(f, n, dq, {(fr, t): f.one() for t, fr in enumerate(ideal.free_columns())})
    for t in range(ideal.dim):
        if not f.is_zero(a.counit_of(ideal.basis.row_list(t))):
            raise CertificationFailed("counit does not vanish on the candidate")

    def projected(vec):
        col: dict = {}
        for (i, j), c in comul_vec(a.as_coalgebra(), vec).items():
            for s, x in enumerate(proj.col_list(i)):
                if f.is_zero(x):
                    continue
                for u, y in enumerate(proj.col_list(j)):
                    if f.is_zero(y):
                        continue
                    v = f.add(col.get((s, u), f.zero()), f.mul(c, f.mul(x, y)))
                    if f.is_zero(v):
                        col.pop((s, u), None)
                    else:
                        col[(s, u)] = v
        return col

    comul = {t: col for t in range(dq) if (col := projected(incl.col_list(t)))}
    counit = [a.counit_of(incl.col_list(t)) for t in range(dq)]
    q = BialgebraObject(f, dq, q_alg.mul, q_alg.unit, comul, counit, q_alg.labels)
    q.validate().require("quotient bialgebra")
    if any(projected(ideal.basis.row_list(t)) for t in range(ideal.dim)):
        raise CertificationFailed("candidate is not a coideal")
    return q, proj, incl


def is_coalgebra_map_by_dict_loop(src, tgt, f: Matrix) -> bool:
    fld = f.field
    for k in range(src.dim):
        e = fld.zero()
        for a, b in zip(tgt.counit, f.col_list(k)):
            e = fld.add(e, fld.mul(a, b))
        if e != src.counit[k]:
            return False
    for k in range(src.dim):
        lhs: dict = {}
        for (x, y), c in src.comul.get(k, {}).items():
            for a, va in enumerate(f.col_list(x)):
                if fld.is_zero(va):
                    continue
                for b, vb in enumerate(f.col_list(y)):
                    if fld.is_zero(vb):
                        continue
                    s = fld.add(lhs.get((a, b), fld.zero()), fld.mul(c, fld.mul(va, vb)))
                    if fld.is_zero(s):
                        lhs.pop((a, b), None)
                    else:
                        lhs[(a, b)] = s
        rhs: dict = {}
        for m, c in enumerate(f.col_list(k)):
            if fld.is_zero(c):
                continue
            for (a, b), w in tgt.comul.get(m, {}).items():
                s = fld.add(rhs.get((a, b), fld.zero()), fld.mul(c, w))
                if fld.is_zero(s):
                    rhs.pop((a, b), None)
                else:
                    rhs[(a, b)] = s
        if not sparse_eq(fld, lhs, rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# draws


def _scalar(data, f):
    return f.from_int(data.draw(st.integers(1, 6 if f.kind == "Q" else f.p - 1)))


def _vector(data, f, n):
    v = v_zero(f, n)
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        v[i] = f.add(v[i], _scalar(data, f))
    return v


def mutated(h, k, i, j, delta):
    """The coalgebra of h with delta added to the coefficient of
    e_i (x) e_j in Delta(e_k)."""
    f = h.field
    comul = {key: dict(col) for key, col in h.comul.items()}
    col = comul.setdefault(k, {})
    c = f.add(col.get((i, j), f.zero()), delta)
    if f.is_zero(c):
        col.pop((i, j), None)
    else:
        col[(i, j)] = c
    return CoalgebraObject(f, h.dim, comul, h.counit, h.labels)


def draw_coalgebra(data, names=None):
    """A coalgebra of HOPFS with, half of the time, one constant of Delta
    changed; returns (hopf, coalgebra)."""
    h = hopf(data.draw(st.sampled_from(names or sorted(HOPFS))))
    if not data.draw(st.booleans()):
        return h, h.as_coalgebra()
    idx = st.integers(0, h.dim - 1)
    return h, mutated(h, data.draw(idx), data.draw(idx), data.draw(idx), _scalar(data, h.field))


def generated_subcoalgebra(c, vecs) -> Subspace:
    """The span of the coefficients (e_a^* (x) id (x) e_j^*) Delta^2(x): the
    subcoalgebra generated by the vectors when C is coassociative."""
    f, n = c.field, c.dim
    pieces: dict = {}
    for x in vecs:
        for (i, j), w in comul_vec(c, x).items():
            for (a, b), w2 in c.comul.get(i, {}).items():
                v = pieces.setdefault((a, j), v_zero(f, n))
                v[b] = f.add(v[b], f.mul(w, w2))
    return Subspace.from_vectors(f, n, [v for v in pieces.values() if any(not f.is_zero(x) for x in v)])


def draw_subspace(data, c, h) -> Subspace:
    """A subcoalgebra (generated by vectors, or spanned by grouplikes of h)
    or a random span, the whole space or zero."""
    f, n = c.field, c.dim
    kind = data.draw(st.sampled_from(["generated", "generated", "grouplike", "basis", "random", "full", "zero"]))
    if kind == "full":
        return Subspace.full(f, n)
    if kind == "zero":
        return Subspace.zero(f, n)
    if kind in ("basis", "grouplike"):
        pool = [k for k in range(n) if kind == "basis" or h.comul.get(k) == {(k, k): f.one()}] or list(range(n))
        idx = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
        return Subspace.from_vectors(f, n, [v_basis(f, n, i) for i in idx])
    vecs = [_vector(data, f, n) for _ in range(data.draw(st.integers(1, 2)))]
    return Subspace.from_vectors(f, n, vecs) if kind == "random" else generated_subcoalgebra(c, vecs)


def outcome(fn, *args):
    """("ok", value) or (exception type, check, witness) / message."""
    try:
        return "ok", fn(*args)
    except VerificationFailed as e:
        return "VerificationFailed", e.check, e.witness
    except Exception as e:
        return type(e).__name__, str(e)


def square(f, n, vec: dict) -> Matrix:
    return Matrix.from_entries(f, n, n, vec)


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coproduct_kernel_and_defect_match_dict_loops(data):
    h, c = draw_coalgebra(data)
    d, e = draw_subspace(data, c, h), draw_subspace(data, c, h)
    assert _subcoalgebra_defect(c, d) == defect_by_dict_loop(c, d)
    assert is_subcoalgebra(c, e) == (defect_by_dict_loop(c, e) is None)
    pd, pe = d.complement_projection(), e.complement_projection()
    if pd.rows and pe.rows:
        assert _coproduct_kernel(c, pd, pe) == coproduct_kernel_by_dict_loop(c, pd, pe)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wedge_and_filtration_match_dict_loops(data):
    """Equal subspaces, and the same VerificationFailed witness t where a
    mutated Delta makes a wedge or a filtration step fail to be a
    subcoalgebra.  `coradical_filtration` validates C first, so the
    filtration kernel `_filtration` is compared with the loop, and the
    public function either refuses an invalid C or returns the kernel's
    chain."""
    h, c = draw_coalgebra(data, [name for name in HOPFS if name != "flagship_f7"])
    d = draw_subspace(data, c, h)
    got, want = outcome(wedge, d, c), outcome(wedge_by_dict_loop, d, c)
    assert got == want
    got, want = outcome(coal._filtration, c, d), outcome(filtration_by_dict_loop, c, d)
    if got[0] == "ok":
        assert (got[1].steps, got[1].exhausts) == (want[1].steps, want[1].exhausts)
    else:
        assert got == want
    bad = c.validate().failures()
    public = outcome(coradical_filtration, c, d)
    if bad:
        assert public == ("CertificationFailed", "coalgebra %s: %s" % bad[0])
    elif got[0] == "ok":
        assert (public[1].steps, public[1].exhausts) == (got[1].steps, got[1].exhausts)
    else:
        assert public == got


# (hopf, (k, i, j, delta) added to Delta(e_k) at e_i (x) e_j, D spanned by
# these basis vectors, check, witness t) for wedges and filtration steps that
# are not subcoalgebras of the mutated coalgebra
WITNESS_CASES = [
    ("h4_q", (0, 1, 1, 2), [0, 2], "filtration_step_subcoalgebra", 0),
    ("taft3_f7", (1, 6, 5, 3), [0, 3, 6], "wedge_subcoalgebra", 1),
    ("taft3_f7", (6, 8, 4, 4), [0, 3, 4, 5, 7, 8], "filtration_step_subcoalgebra", 3),
    ("taft4_f13", (9, 8, 2, 3), [0, 4, 8, 12], "wedge_subcoalgebra", 5),
    ("taft4_f13", (13, 15, 4, 1), [0, 4, 8, 12], "wedge_subcoalgebra", 7),
    ("taft4_f13", (13, 15, 4, 1), [0, 4, 8, 12], "filtration_step_subcoalgebra", 7),
    ("taft4_f13", (2, 2, 7, 2), [0, 4, 8, 12], "filtration_step_subcoalgebra", 13),
]


@pytest.mark.parametrize("name, change, span, check, t", WITNESS_CASES)
def test_subcoalgebra_failures_name_the_dict_loop_witness(name, change, span, check, t):
    h = hopf(name)
    f, n = h.field, h.dim
    k, i, j, delta = change
    c = mutated(h, k, i, j, f.from_int(delta))
    d = Subspace.from_vectors(f, n, [v_basis(f, n, s) for s in span])
    fn, ref, args = ((wedge, wedge_by_dict_loop, (d, c)) if check == "wedge_subcoalgebra"
                     else (coal._filtration, filtration_by_dict_loop, (c, d)))
    assert outcome(fn, *args) == outcome(ref, *args) == ("VerificationFailed", check, t)
    # a step that is not a subcoalgebra needs a non-coassociative Delta,
    # which the public filtration refuses before building a step
    (name, wit), = c.validate().failures()
    assert name == "coassociativity"
    assert outcome(coradical_filtration, c, d) == ("CertificationFailed", f"coalgebra coassociativity: {wit}")


def test_flagship_coradical_filtration_matches_dict_loop():
    c = hopf("flagship_f7").as_coalgebra()
    f = c.field
    c0 = Subspace.from_vectors(f, 81, [v_basis(f, 81, 9 * i) for i in range(9)])
    got, want = coradical_filtration(c, c0), filtration_by_dict_loop(c, c0)
    assert (got.steps, got.exhausts) == (want.steps, want.exhausts)
    assert wedge(c0, c) == wedge_by_dict_loop(c0, c)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restrict_readoff_matches_dict_loop(data):
    """With the subcoalgebra test bypassed, the read-off raises
    VerificationFailed("subcoalgebra_readoff", t) at the reference's first
    failing t, and otherwise gives the reference's structure constants."""
    h, c = draw_coalgebra(data)
    d = draw_subspace(data, c, h)
    want = readoff_by_dict_loop(c, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coal, "is_subcoalgebra", lambda c, d: True)
        got = outcome(restrict_coalgebra, c, d)
    if want[0] == "readoff":
        assert got == ("VerificationFailed", "subcoalgebra_readoff", want[1])
    elif got[0] == "ok":
        sub, incl = got[1]
        assert sub.comul == want[1] and incl == d.basis.transpose()
    else:
        assert got[0] == "ValueError"
        assert not CoalgebraObject(c.field, d.dim, want[1], [c.counit_of(d.basis.row_list(t)) for t in range(d.dim)]).validate().ok


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_tensor_coordinates_match_dict_loop(data):
    """Elements of D (x) D and elements outside it, one at a time and all
    at once."""
    h, c = draw_coalgebra(data)
    f, n = c.field, c.dim
    d = draw_subspace(data, c, h)
    vecs = []
    for _ in range(data.draw(st.integers(1, 3))):
        if d.dim and data.draw(st.booleans()):  # a combination of d_s (x) d_u
            vec = v_zero(f, n * n)
            for s, u in data.draw(st.lists(st.tuples(st.integers(0, d.dim - 1), st.integers(0, d.dim - 1)),
                                           min_size=1, max_size=3)):
                w = _scalar(data, f)
                vec = [f.add(x, f.mul(w, y)) for x, y in zip(vec, v_tensor(f, d.basis.row_list(s), d.basis.row_list(u)))]
        else:
            vec = _vector(data, f, n * n)
        vecs.append(vec)
    x = Matrix.from_rows(f, vecs).transpose()
    want = [tensor_coords_by_dict_loop(f, d, {divmod(r, n): v for r, v in enumerate(vec) if not f.is_zero(v)})
            for vec in vecs]

    def as_dicts(coords):
        return [{divmod(r, d.dim): v for r, v in enumerate(coords.col_list(t)) if not f.is_zero(v)}
                for t in range(coords.cols)]

    for t, w in enumerate(want):
        got = _square_coordinates(d, Matrix.column(f, vecs[t]))
        assert (got is None) == (w is None)
        if got is not None:
            assert as_dicts(got) == [w]
    got = _square_coordinates(d, x)
    assert (got is None) == any(w is None for w in want)
    if got is not None:
        assert as_dicts(got) == want


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_tensor_square_matches_dict_loop(data):
    h, c = draw_coalgebra(data, [name for name in HOPFS if name != "flagship_f7"])
    f, n = c.field, c.dim
    d = draw_subspace(data, c, h)
    kind = data.draw(st.sampled_from(["delta", "D (x) D", "D (x) C", "C (x) D"]))
    if kind == "delta" or not d.dim:
        vec = comul_vec(c, _vector(data, f, n))
    else:  # u (x) v with the named legs in D
        u, v = (d.basis.row_list(data.draw(st.integers(0, d.dim - 1))) if leg == "D" else _vector(data, f, n)
                for leg in (kind[0], kind[-1]))
        vec = {(i, j): f.mul(a, b) for i, a in enumerate(u) for j, b in enumerate(v) if not f.is_zero(f.mul(a, b))}
    assert in_tensor_square(c, d, square(f, n, vec)) == in_tensor_square_by_dict_loop(c, d, vec)


def test_in_tensor_square_of_the_whole_coalgebra():
    """Every element of C (x) C lies in C (x) C; only 0 lies in 0 (x) 0."""
    h = taft(3, GF(7).primitive_root_of_unity(3), GF(7))
    c, f, n = h.as_coalgebra(), h.field, h.dim
    full, zero = Subspace.full(f, n), Subspace.zero(f, n)
    assert is_subcoalgebra(c, full)
    for k in range(n):
        delta = square(f, n, comul_vec(c, v_basis(f, n, k)))
        assert in_tensor_square(c, full, delta)
        assert not in_tensor_square(c, zero, delta)
    assert in_tensor_square(c, zero, Matrix.zeros(f, n, n))


def _ideal_generator(data, a, f, n):
    """x - eps(x) 1 for a sparse random x: its ideal lies in ker eps."""
    x = _vector(data, f, n)
    e = a.counit_of(x)
    return [f.sub(xi, f.mul(e, u)) for xi, u in zip(x, a.unit)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_bialgebra_matches_dict_loop(data):
    """Ideals in ker eps that are coideals or not, over bialgebras whose
    Delta may carry one changed constant: the same quotient or the same
    failure."""
    h, c = draw_coalgebra(data, [name for name in HOPFS if name != "flagship_f7"])
    f, n = h.field, h.dim
    a = BialgebraObject(f, n, h.mul, h.unit, c.comul, c.counit, h.labels)
    gens = [_ideal_generator(data, a, f, n) for _ in range(data.draw(st.integers(1, 2)))]
    ideal = ideal_generated_by(a.as_algebra(), Matrix.from_rows(f, gens).transpose()).subspace
    got, want = outcome(quotient_bialgebra, a, ideal), outcome(quotient_bialgebra_by_dict_loop, a, ideal)
    if want[0] == "ok":
        (q1, p1, i1), (q2, p2, i2) = got[1], want[1]
        assert (q1.mul, q1.unit, q1.comul, q1.counit, p1, i1) == (q2.mul, q2.unit, q2.comul, q2.counit, p2, i2)
    else:
        assert got == want


def test_flagship_quotients_match_dict_loop():
    """The flagship's radical-side rejections: a candidate that is not
    nilpotent but is a biideal, and the augmentation ideal of k[Z_3]."""
    h = hopf("flagship_f7")
    f = h.field
    for gens in ([v_basis(f, 81, 27)], [v_basis(f, 81, 9)]):
        x = [f.sub(a, b) for a, b in zip(gens[0], h.unit)]
        ideal = ideal_generated_by(h.as_algebra(), Matrix.column(f, x)).subspace
        got, want = outcome(quotient_bialgebra, h, ideal), outcome(quotient_bialgebra_by_dict_loop, h, ideal)
        assert got[0] == want[0]
        if want[0] == "ok":
            assert got[1][0].comul == want[1][0].comul
        else:
            assert got == want


def _maps(data, h, f, n):
    """Coalgebra maps of h (identity, group automorphisms, the projection of
    a Taft algebra onto its grouplikes) and maps that are not (zero, the
    antipode, random matrices), each with one entry changed half of the
    time."""
    maps = [Matrix.identity(f, n), Matrix.zeros(f, n, n), h.antipode]
    if h.labels[0] == "g^0" and all(label.startswith("g^") and "x" not in label for label in h.labels):
        k = data.draw(st.sampled_from([k for k in range(1, n) if all((k * i) % n for i in range(1, n))]))
        maps.append(Matrix.from_entries(f, n, n, {((k * i) % n, i): f.one() for i in range(n)}))
    if "x" in h.labels[-1]:  # Taft: g^i x^j -> delta_{j0} g^i x^0
        m = int(round(n**0.5))
        maps.append(Matrix.from_entries(f, n, n, {(i * m, i * m): f.one() for i in range(m)}))
    maps.append(Matrix.from_rows(f, [_vector(data, f, n) for _ in range(n)]))
    g = data.draw(st.sampled_from(maps))
    if data.draw(st.booleans()):
        g = g + Matrix.from_entries(f, n, n, {(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))):
                                              _scalar(data, f)})
    return g


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_coalgebra_map_matches_dict_loop(data):
    h, c = draw_coalgebra(data)
    f, n = h.field, h.dim
    g = _maps(data, h, f, n)
    src, tgt = (c, h.as_coalgebra()) if data.draw(st.booleans()) else (h.as_coalgebra(), c)
    assert is_coalgebra_map(src, tgt, g) == is_coalgebra_map_by_dict_loop(src, tgt, g)


# ---------------------------------------------------------------------------
# the split predicates and the diagram, against the loops of the same kind


def split_premises_by_dict_loop(a, h, pi, sigma, side):
    """The colinearity / linearity loops of the split premises (the map
    checks before them are shared and not repeated here)."""
    f = a.field
    n, dh = a.dim, h.dim
    if side == "primal":
        coact_l, coact_r = coactions_from_pi(a, pi, dh)
        for hh in range(dh):
            sh = sigma.col_list(hh)
            rhs = v_zero(f, n * dh)
            for (h1, h2), c in h.comul.get(hh, {}).items():
                for x, w in enumerate(sigma.col_list(h1)):
                    rhs[x * dh + h2] = f.add(rhs[x * dh + h2], f.mul(c, w))
            if not v_eq(f, coact_r.apply(sh), rhs):
                return "sigma is not right colinear"
            rhs = v_zero(f, dh * n)
            for (h1, h2), c in h.comul.get(hh, {}).items():
                for x, w in enumerate(sigma.col_list(h2)):
                    rhs[h1 * n + x] = f.add(rhs[h1 * n + x], f.mul(c, w))
            if not v_eq(f, coact_l.apply(sh), rhs):
                return "sigma is not left colinear"
        return None
    act_l, act_r = actions_from_sigma(a, sigma, dh)
    for hh in range(dh):
        for i in range(n):
            lhs = pi.apply(act_l.apply(v_tensor(f, v_basis(f, dh, hh), v_basis(f, n, i))))
            if not v_eq(f, lhs, h.product(v_basis(f, dh, hh), pi.apply(v_basis(f, n, i)))):
                return "pi is not left H-linear"
            lhs = pi.apply(act_r.apply(v_tensor(f, v_basis(f, n, i), v_basis(f, dh, hh))))
            if not v_eq(f, lhs, h.product(pi.apply(v_basis(f, n, i)), v_basis(f, dh, hh))):
                return "pi is not right H-linear"
    return None


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_split_predicates_name_the_loops_first_failure(side):
    """Single-entry changes of sigma or pi of the H4 split that keep
    pi sigma = id: with the shared map checks passed, the failure raised is
    the one the per-basis loop meets first."""
    import hopfsplit.smash as smash_mod

    f = QQ
    h4, h2 = sweedler_h4(f), group_algebra(2, f)
    pi = Matrix.from_rows(f, [[1, 0, 0, 0], [0, 0, 1, 0]])
    sigma = Matrix.from_rows(f, [[1, 0], [0, 0], [0, 1], [0, 0]])
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smash_mod, "is_algebra_map", lambda *args: True)
        mp.setattr(smash_mod, "is_coalgebra_map", lambda *args: True)
        for r, col, delta, which in itertools.product(range(4), range(2), (1, -1, 2), ("sigma", "pi")):
            bump = {(r, col): f.from_int(delta)}
            s2 = sigma + Matrix.from_entries(f, 4, 2, bump) if which == "sigma" else sigma
            p2 = pi + Matrix.from_entries(f, 2, 4, {(col, r): f.from_int(delta)}) if which == "pi" else pi
            if p2 @ s2 != Matrix.identity(f, 2):
                continue
            want = split_premises_by_dict_loop(h4, h2, p2, s2, side)
            got = outcome(_split_premises, h4, h2, p2, s2, side)
            if got[0] == "ok":  # A with the induced (co)actions, computed once, for the diagram
                v = got[1]
                assert tuple(m.matrix() for m in (v.coact_l, v.coact_r, v.act_l, v.act_r)) == (
                    *coactions_from_pi(h4, p2, 2), *actions_from_sigma(h4, s2, 2))
                got = ("ok", None)
            assert got == (("ok", None) if want is None else ("ExtractionError", want))
            seen.add(want)
    assert len(seen) > 1


def yd_by_dict_loop(v: CatObject):
    """The adjoint action and restricted left coaction loops of the diagram,
    then its YD validation."""
    from hopfsplit.category import coinvariants

    h, f = v.hopf, v.field
    r_space = coinvariants(v.coact_r, h)
    act_l, act_r, coact_l = v.act_l.matrix(), v.act_r.matrix(), v.coact_l.matrix()
    dr, dh, piv = r_space.dim, h.dim, r_space.pivots
    act: dict = {}
    for hh in range(dh):
        for t in range(dr):
            out = v_zero(f, v.dim)
            for (h1, h2), c in h.comul.get(hh, {}).items():
                sh2 = h.antipode.apply(v_basis(f, dh, h2))
                tmp = act_l.apply(v_tensor(f, v_basis(f, dh, h1), r_space.basis.row_list(t)))
                for idx2, w2 in enumerate(sh2):
                    if not f.is_zero(w2):
                        tmp2 = act_r.apply(v_tensor(f, tmp, v_basis(f, dh, idx2)))
                        out = [f.add(o, f.mul(f.mul(c, w2), z)) for o, z in zip(out, tmp2)]
            if not r_space.contains_vector(out):
                raise VerificationFailed("adjoint_action_preserves_coinvariants", (hh, t))
            for s in range(dr):
                act[(s, hh * dr + t)] = out[piv[s]]
    co: dict = {}
    for t in range(dr):
        rho = coact_l.apply(r_space.basis.row_list(t))
        for hh in range(dh):
            comp = rho[hh * v.dim:(hh + 1) * v.dim]
            if not r_space.contains_vector(comp):
                raise VerificationFailed("coaction_preserves_coinvariants", (t, hh))
            for s in range(dr):
                co[(hh * dr + s, t)] = comp[piv[s]]
    yd = YDObject(h, dr, Matrix.from_entries(f, dr, dh * dr, act), Matrix.from_entries(f, dh * dr, dr, co))
    yd.validate().require("diagram of a Hopf bimodule")
    return yd


def _split_bimodule(name):
    """The Hopf bimodule A of a split pi : A -> H, sigma : H -> A: H4 over
    k[Z_2] over Q, T_3 over k[Z_3] over F_7, or k[Z_6] over k[Z_2] over F_7
    (sigma(h) = g^3, so R = k[Z_3] and dim R != dim H)."""
    if name == "h4_q":
        f = QQ
        a, h = sweedler_h4(f), group_algebra(2, f)
        pi = Matrix.from_rows(f, [[1, 0, 0, 0], [0, 0, 1, 0]])
        sigma = Matrix.from_rows(f, [[1, 0], [0, 0], [0, 1], [0, 0]])
    elif name == "taft3_f7":
        f = GF(7)
        a, h = hopf("taft3_f7"), group_algebra(3, f)
        pi = Matrix.from_entries(f, 3, 9, {(i, 3 * i): f.one() for i in range(3)})
        sigma = pi.transpose()
    else:
        f = GF(7)
        a, h = group_algebra(6, f), group_algebra(2, f)
        pi = Matrix.from_entries(f, 2, 6, {(i % 2, i): f.one() for i in range(6)})
        sigma = Matrix.from_entries(f, 6, 2, {(0, 0): f.one(), (3, 1): f.one()})
    return CatObject(a.field, a.dim, h, *coactions_from_pi(a, pi, h.dim), *actions_from_sigma(a, sigma, h.dim))


def _bump(v: CatObject, name: str, entries: dict):
    """Add entries {(row, col): value} to the matrix of v's structure name."""
    sm = getattr(v, name)
    m = sm.matrix() + Matrix.from_entries(v.field, sm.out_size, sm.in_size, entries)
    setattr(v, name, SparseMap.from_matrix(m, sm.in_dims, sm.out_dims))


@pytest.mark.parametrize("split, name, entry, check, witness", [
    ("taft3_f7", "act_l", (1, 18, 3), "adjoint_action_preserves_coinvariants", (2, 0)),
    ("taft3_f7", "act_r", (6, 22, 4), "adjoint_action_preserves_coinvariants", (2, 1)),
    ("taft3_f7", "coact_l", (8, 2, 1), "coaction_preserves_coinvariants", (2, 0)),
    ("taft3_f7", "coact_l", (15, 0, 3), "coaction_preserves_coinvariants", (0, 1)),
    ("kz6_f7", "act_l", (0, 10, 2), "adjoint_action_preserves_coinvariants", (1, 2)),
    ("kz6_f7", "coact_l", (7, 4, 2), "coaction_preserves_coinvariants", (2, 1)),
])
def test_diagram_failures_name_the_dict_loop_witness(split, name, entry, check, witness):
    v = _split_bimodule(split)
    r, col, delta = entry
    _bump(v, name, {(r, col): v.field.from_int(delta)})
    assert outcome(yd_from_hopf_bimodule, v) == outcome(yd_by_dict_loop, v) == ("VerificationFailed", check, witness)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_diagram_matches_dict_loop(data):
    """The diagrams of the split Hopf bimodules, with one entry of an action
    or the left coaction changed half of the time: equal (co)actions or the
    same witness."""
    v = _split_bimodule(data.draw(st.sampled_from(["h4_q", "taft3_f7", "kz6_f7"])))
    corrupt = data.draw(st.booleans())
    if corrupt:
        name = data.draw(st.sampled_from(["act_l", "act_r", "coact_l"]))
        sm = getattr(v, name)
        bump = {(data.draw(st.integers(0, sm.out_size - 1)), data.draw(st.integers(0, sm.in_size - 1))):
                _scalar(data, v.field)}
        _bump(v, name, bump)
    want = outcome(yd_by_dict_loop, v)
    got = outcome(yd_from_hopf_bimodule, v)
    if got[0] == "ok" or not corrupt:
        assert got[0] == want[0] == "ok" and (got[1][0].act, got[1][0].coact) == (want[1].act, want[1].coact)
    else:
        assert got == want
