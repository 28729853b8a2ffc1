"""The consumers of summed COO rows against dense references.

`pairwise_products` hands its products over as a matrix of summed rows
(`linalg.SparseMap`); containment in a subspace, the multiplicativity
defect and the ideal powers read them without a dense array.  Each is
checked here against the dense computation or the dict loop it replaced,
over Q, F_7 (float64 BLAS products), F_(2^31 - 1) (the blocked int64
`_matmul` path) and F_(2^61 - 1) (python integers).  The products
themselves are pinned in test_algebra_products.py.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_reference import product_sparse
from hopfsplit.algebra import (
    AlgebraObject,
    NotNilpotentWithin,
    defect_matrix,
    ideal_generated_by,
    ideal_power_nilpotency,
    multiplicativity_defect,
    pairwise_products,
)
from hopfsplit.fields import GF, QQ
from hopfsplit.linalg import Matrix, SparseMap, Subspace

FIELDS = [QQ, GF(7), GF(2**31 - 1), GF(2**61 - 1)]


def scalars(f):
    if f.kind == "Q":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    p = f.p
    return st.one_of(st.integers(0, 3), st.integers(p - 3, p - 1)).map(f.from_int)


def draw_rows(data, f, rows, n):
    """rows x n, each row zero, one or two nonzeros, or dense."""
    out = []
    for _ in range(rows):
        kind = data.draw(st.sampled_from(["zero", "sparse", "dense"]))
        row = [f.zero()] * n
        if kind == "sparse":
            for c in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                row[c] = data.draw(scalars(f))
        elif kind == "dense":
            row = [data.draw(scalars(f)) for _ in range(n)]
        out.append(row)
    return Matrix(f, rows, n, out)


def _dense_products(a, left, right):
    """Products of rows by the dict table, stacked in (left, right) order."""
    f, n = a.field, a.dim
    out = []
    for u in left.to_rows():
        for v in right.to_rows():
            p = product_sparse(a, {i: x for i, x in enumerate(u) if x}, {j: y for j, y in enumerate(v) if y})
            out.append([p.get(k, f.zero()) for k in range(n)])
    return Matrix(f, len(out), n, out)


# -- containment --------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_coo_containment_matches_the_dense_product(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 7))
    sub = Subspace.from_matrix_rows(draw_rows(data, f, data.draw(st.integers(0, n)), n))
    # rows inside (combinations of the basis), outside, or a mix
    rows = []
    for _ in range(data.draw(st.integers(0, 5))):
        if sub.dim and data.draw(st.booleans()):
            c = draw_rows(data, f, 1, sub.dim)
            rows.append((c @ sub.basis).row_list(0))
        else:
            rows.append(draw_rows(data, f, 1, n).row_list(0))
    m = Matrix(f, len(rows), n, rows)
    want = sub.dense_coordinates(m)
    inside = all(sub.basis.vstack(Matrix.row(f, r)).rank() == sub.dim for r in rows)
    assert (want is not None) == inside
    got = sub.coordinates(SparseMap.from_rows(m))
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want
    # a row of the wrong width is a caller's error, never "not inside"
    for width in (n - 1, n + 1):
        with pytest.raises(ValueError):
            sub.coordinates(SparseMap.from_rows(Matrix.zeros(f, 1, width)))


@pytest.mark.parametrize("field", FIELDS)
def test_coo_containment_sees_an_entry_off_the_pivots(field):
    # span{e0 + e2} holds e0 + e2 but not e0 + 2 e2: the two rows agree at
    # the pivot, so only the off-pivot entry tells them apart
    one, two = field.one(), field.from_int(2)
    sub = Subspace.from_vectors(field, 3, [[one, field.zero(), one]])
    for row, inside in (([one, field.zero(), one], True), ([one, field.zero(), two], False)):
        got = sub.coordinates(SparseMap.from_rows(Matrix.row(field, row)))
        assert (got is not None) == inside


# -- the multiplicativity defect ----------------------------------------------


def defect_by_pair_loop(src, tgt, f):
    """f(e_i e_j) - f(e_i) f(e_j) per pair (i, j), by the dict table."""
    fld, n = src.field, src.dim
    cols = [dict((r, x) for r, x in enumerate(f.col_list(k)) if x) for k in range(n)]
    out = {}
    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, c in src.mul.get((i, j), {}).items():
                for r, x in cols[k].items():
                    lhs[r] = fld.add(lhs.get(r, fld.zero()), fld.mul(c, x))
            rhs = product_sparse(tgt, cols[i], cols[j])
            out[(i, j)] = [fld.sub(lhs.get(r, fld.zero()), rhs.get(r, fld.zero())) for r in range(tgt.dim)]
    return out


def truncated_polynomials(f, m):
    """k[x] / (x^m) on 1, x, .., x^(m-1)."""
    return AlgebraObject(f, m, {(i, j): {i + j: f.one()} for i in range(m) for j in range(m) if i + j < m},
                         [f.one()] + [f.zero()] * (m - 1))


def upper_triangular(f, m):
    """Upper triangular m x m matrices on the units E_rc, r <= c."""
    units = [(r, c) for r in range(m) for c in range(r, m)]
    at = {u: t for t, u in enumerate(units)}
    mul = {(at[(r, c)], at[(c, d)]): {at[(r, d)]: f.one()} for r, c in units for d in range(c, m)}
    return AlgebraObject(f, len(units), mul, [f.one() if r == c else f.zero() for r, c in units])


def draw_algebra(data, f):
    """An associative algebra, validated half of the time, or one with a
    random structure constant changed."""
    kind = data.draw(st.sampled_from(["poly", "upper", "mutated"]))
    m = data.draw(st.integers(1, 4))
    a = truncated_polynomials(f, m) if kind != "upper" else upper_triangular(f, min(m, 3))
    if kind == "mutated":
        i, j, k = (data.draw(st.integers(0, a.dim - 1)) for _ in range(3))
        mul = {key: dict(col) for key, col in a.mul.items()}
        mul.setdefault((i, j), {})[k] = f.add(mul.get((i, j), {}).get(k, f.zero()), f.one())
        a = AlgebraObject(f, a.dim, mul, a.unit)
    if data.draw(st.booleans()):
        a.validate(a.generating_basis_indices())
    return a


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_defect_witness_and_matrix_match_the_pair_loop(data):
    f = data.draw(st.sampled_from(FIELDS))
    src, tgt = draw_algebra(data, f), draw_algebra(data, f)
    kind = data.draw(st.sampled_from(["identity", "random"]))
    if kind == "identity" and src.dim == tgt.dim:
        m = Matrix.identity(f, src.dim)
        if data.draw(st.booleans()):  # one entry changed: may break f(1) = 1 too
            r, c = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
            m = m + Matrix.from_entries(f, m.rows, m.cols, {(r, c): data.draw(scalars(f))})
    else:
        m = draw_rows(data, f, tgt.dim, src.dim)
    ref = defect_by_pair_loop(src, tgt, m)
    want = next((ij for ij, d in ref.items() if any(not f.is_zero(x) for x in d)), None)
    assert multiplicativity_defect(src, tgt, m) == want
    dm = defect_matrix(src, tgt, m)
    assert (dm.rows, dm.cols) == (tgt.dim, src.dim**2)
    for (i, j), d in ref.items():
        assert dm.col_list(i * src.dim + j) == d


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_defect_off_the_generators_span_is_found(field, m):
    # k[x] / (x^m) is generated by x, and f(x^i) = c [i = 0] into k passes
    # every generator row (f(x x^j) = 0 = f(x) f(x^j)); f(1) = c != 1, so
    # the only defect, f(1 1) = c != c^2 = f(1) f(1), lies off the rows of
    # the generators and the full scan must find it
    a = truncated_polynomials(field, m)
    assert a.validate(a.generating_basis_indices()).ok and a.verified_generators() == [1]
    k = truncated_polynomials(field, 1)
    k.validate()
    c = field.from_int(3)
    f = Matrix.row(field, [c] + [field.zero()] * (m - 1))
    assert multiplicativity_defect(a, k, f) == (0, 0)
    dm = defect_matrix(a, k, f)
    assert dm.col_list(0) == [field.sub(c, field.mul(c, c))]
    assert not any(dm.col_list(t)[0] for t in range(1, m * m))


# -- ideal powers -------------------------------------------------------------


def powers_by_dense_rref(a, ideal: Subspace, max_n: int = 64):
    """I, I^2, ... as the dense RREF of all products of a basis of I with one
    of the previous power, by the dict table; the index as
    `ideal_power_nilpotency` reports it, or None when the chain stalls
    above zero."""
    powers = [ideal]
    while len(powers) < max_n:
        prev = powers[-1]
        if prev.dim == 0:
            return powers, 2 if len(powers) == 1 else len(powers)
        nxt = Subspace.from_matrix_rows(_dense_products(a, ideal.basis, prev.basis))
        powers.append(nxt)
        if nxt.dim == 0:
            return powers, len(powers)
        if nxt.dim == prev.dim:
            return powers, None
    return powers, None


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_ideal_powers_match_the_dense_rref_of_all_products(data):
    f = data.draw(st.sampled_from(FIELDS))
    kind = data.draw(st.sampled_from(["poly", "upper"]))
    m = data.draw(st.integers(1, 5))
    a = truncated_polynomials(f, m) if kind == "poly" else upper_triangular(f, min(m, 4))
    gens = draw_rows(data, f, data.draw(st.integers(1, 2)), a.dim)
    ideal = ideal_generated_by(a, gens.transpose())
    # the ideal itself against the dense RREF of e_i g, e_i g e_j and g
    eye = Matrix.identity(f, a.dim)
    left = _dense_products(a, eye, gens)
    assert ideal.subspace == Subspace.from_matrix_rows(
        _dense_products(a, left, eye).vstack(left).vstack(gens))
    want, index = powers_by_dense_rref(a, ideal.subspace)
    if index is None:
        with pytest.raises(NotNilpotentWithin):
            ideal_power_nilpotency(a, ideal)
        return
    powers, got = ideal_power_nilpotency(a, ideal)
    assert got == index and powers == want
    # each power holds the products of the ideal with the one before
    for prev, nxt in zip(powers, powers[1:]):
        assert nxt.coordinates(pairwise_products(a, ideal.subspace.basis, prev.basis)) is not None


def test_the_ideal_test_forms_no_coordinates(monkeypatch):
    # is_ideal needs a verdict only: the containment join, never the dense
    # (products x dim I) coordinates, which at dim 625 would take 1.8 GB
    from hopfsplit.algebra import is_ideal
    from hopfsplit.builtin import sweedler_h4

    a = sweedler_h4(QQ).as_algebra()
    monkeypatch.setattr(Subspace, "coordinates", lambda *args: pytest.fail("coordinates formed"))
    assert is_ideal(a, Subspace.from_vectors(QQ, 4, [[0, 1, 0, 0], [0, 0, 0, 1]]))
    assert not is_ideal(a, Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]]))


# -- Numerators from the product to the elimination ----------------------------


def test_q_products_reach_elimination_and_containment_as_numerators(monkeypatch):
    # over Q the products hand their values over as `Numerators`, and the
    # modular elimination and the containment join read them as they are:
    # no `Numerators.of` call sees the products' field values again
    from hopfsplit import linalg
    from hopfsplit.builtin import sweedler_h4

    a = sweedler_h4(QQ).as_algebra()
    j = Subspace.from_vectors(QQ, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    eye = Matrix.identity(QQ, 4)
    rows = pairwise_products(a, eye, j.basis).vstack(pairwise_products(a, j.basis, eye))
    values = rows.coo()[2].tolist()
    assert values
    seen = []
    of = linalg.Numerators.of.__func__

    def spy(cls, field, vals):
        seen.append(np.asarray(vals).tolist())
        return of(cls, field, vals)

    monkeypatch.setattr(linalg.Numerators, "of", classmethod(spy))
    span = Subspace.from_matrix_rows(rows)
    coords = j.coordinates(rows)
    monkeypatch.undo()
    assert values not in seen
    assert span == Subspace.from_matrix_rows(rows.dense()) == j
    assert coords == j.dense_coordinates(rows.dense())
