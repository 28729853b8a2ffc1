"""The structure constants as arrays against the dict tables they replaced.

Random sparse tables, with zero values, duplicate triples and shuffled
order, go through the file reader; the arrays, the `.mul` / `.comul` views
and the written triples must equal what the dict path made of the same
entries.  Every check ported off the dicts must give the verdict and the
witness string of its old loop, kept below, on mutants of the builtin Hopf
objects read the same way."""
import functools
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dict_reference import product_sparse
from hopfsplit.algebra import (AlgebraObject, BimoduleObject, VerificationFailed, separability_idempotent,
                               verify_separability_idempotent)
from hopfsplit.builtin import dual_group_algebra, group_algebra, sweedler_h4, taft
from hopfsplit.coalgebra import CoalgebraObject, dualize
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import _convolution_system, check_ad_coinvariance, check_ad_invariance, find_integral
from hopfsplit.linalg import Matrix
from hopfsplit.serialize import FileFormatError, _entries, object_from_json, object_to_json
from hopfsplit.tensors import v_basis, v_eq, v_tensor, v_zero

# -- the dict path and the old loops ----------------------------------------


def dict_mul(f, entries) -> dict:
    """{(i, j): {k: c}} from parsed (i, j, k, c) entries; duplicates add up."""
    mul: dict = {}
    for i, j, k, c in entries:
        col = mul.setdefault((i, j), {})
        col[k] = f.add(col[k], c) if k in col else c
    return mul


def dict_comul(f, entries) -> dict:
    """{k: {(i, j): c}} from parsed (i, j, k, c) entries; duplicates add up."""
    comul: dict = {}
    for i, j, k, c in entries:
        col = comul.setdefault(k, {})
        col[(i, j)] = f.add(col[(i, j)], c) if (i, j) in col else c
    return comul


def dict_triples(f, entries) -> list:
    """The written triples of (i, j, k, c) entries, sorted."""
    return sorted(([i, j, k, f.fmt(c)] for i, j, k, c in entries), key=lambda t: t[:3])


def dict_product(a, u: list, v: list) -> list:
    """u v from the dict table of a."""
    f = a.field
    out = v_zero(f, a.dim)
    for k, c in product_sparse(a, dict(enumerate(u)), dict(enumerate(v))).items():
        out[k] = c
    return out


def loop_coalgebra_validate(f, n, comul: dict, counit: list) -> list:
    """Shape, coassociativity and the counit laws, basis element by basis
    element: the checks list of the old `CoalgebraObject.validate`."""
    checks = []
    ok = len(counit) == n and all(0 <= k < n and all(0 <= i < n and 0 <= j < n for i, j in col)
                                  for k, col in comul.items())
    checks.append(("shape", ok, None if ok else "comultiplication indices out of range"))
    if not ok:
        return checks
    for k in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for (i, j), c in comul.get(k, {}).items():
            for (x, y), w in comul.get(i, {}).items():
                lhs[(x, y, j)] = f.add(lhs.get((x, y, j), f.zero()), f.mul(c, w))
            for (x, y), w in comul.get(j, {}).items():
                rhs[(i, x, y)] = f.add(rhs.get((i, x, y), f.zero()), f.mul(c, w))
        if any(lhs.get(key, f.zero()) != rhs.get(key, f.zero()) for key in set(lhs) | set(rhs)):
            return checks + [("coassociativity", False, f"basis element {k}")]
    checks.append(("coassociativity", True, None))
    for k in range(n):
        left = v_zero(f, n)
        right = v_zero(f, n)
        for (i, j), c in comul.get(k, {}).items():
            left[j] = f.add(left[j], f.mul(counit[i], c))
            right[i] = f.add(right[i], f.mul(counit[j], c))
        e = v_basis(f, n, k)
        if not v_eq(f, left, e) or not v_eq(f, right, e):
            return checks + [("counit", False, f"basis element {k}")]
    return checks + [("counit", True, None)]


def loop_delta_on_generators(f, n, mul: dict, comul: dict, gens):
    """Delta(e_i e_j) against Delta(e_i) Delta(e_j) in A (x) A, pair by pair."""
    for i in gens:
        for j in range(n):
            lhs: dict = {}
            for k, w in mul.get((i, j), {}).items():
                for key, z in comul.get(k, {}).items():
                    lhs[key] = f.add(lhs.get(key, f.zero()), f.mul(w, z))
            rhs: dict = {}
            for (a, b), cg in comul.get(i, {}).items():
                for (c, d), cj in comul.get(j, {}).items():
                    for x, u in mul.get((a, c), {}).items():
                        for y, v in mul.get((b, d), {}).items():
                            rhs[(x, y)] = f.add(rhs.get((x, y), f.zero()), f.mul(f.mul(cg, cj), f.mul(u, v)))
            if any(lhs.get(key, f.zero()) != rhs.get(key, f.zero()) for key in set(lhs) | set(rhs)):
                return False, f"Delta(e{i} e{j}) != Delta(e{i})Delta(e{j})"
    return True, None


def loop_eps_multiplicative(f, n, mul: dict, counit: list):
    """The first failing pair of the table in its order, then the first
    failing absent pair."""
    for (i, j), col in mul.items():
        lhs = f.zero()
        for k, c in col.items():
            lhs = f.add(lhs, f.mul(c, counit[k]))
        if lhs != f.mul(counit[i], counit[j]):
            return False, f"eps(e{i} e{j})"
    for i in range(n):
        for j in range(n):
            if (i, j) not in mul and not f.is_zero(f.mul(counit[i], counit[j])):
                return False, f"eps(e{i} e{j}) = 0 but eps(e{i})eps(e{j}) != 0"
    return True, None


def loop_delta_unital(f, comul: dict, unit: list) -> bool:
    supp = [(k, x) for k, x in enumerate(unit) if not f.is_zero(x)]
    d1: dict = {}
    for k, x in supp:
        for ij, w in comul.get(k, {}).items():
            d1[ij] = f.add(d1.get(ij, f.zero()), f.mul(x, w))
    oneone = {(i, j): f.mul(x, y) for i, x in supp for j, y in supp}
    return all(d1.get(key, f.zero()) == oneone.get(key, f.zero()) for key in set(d1) | set(oneone))


def loop_convolution_system(f, n, mul: dict, comul: dict) -> Matrix:
    """m(S (x) id)Delta = u eps in the unknowns S[x, i], column x n + i."""
    entries: dict = {}
    for k in range(n):
        for out in range(n):
            for (i, j), c in comul.get(k, {}).items():
                for x in range(n):
                    v = mul.get((x, j), {}).get(out)
                    if v is not None:
                        key = (k * n + out, x * n + i)
                        entries[key] = f.add(entries.get(key, f.zero()), f.mul(c, v))
    return Matrix.from_entries(f, n * n, n * n, entries)


def loop_verify_separability(f, n, mul: dict, unit: list, e: list):
    """(check, witness) of the first failure, or None."""
    m_of_e = v_zero(f, n)
    for t, c in enumerate(e):
        for k, v in mul.get(divmod(t, n), {}).items():
            m_of_e[k] = f.add(m_of_e[k], f.mul(c, v))
    bad = next((k for k in range(n) if m_of_e[k] != unit[k]), None)
    if bad is not None:
        return "separability_multiplication", bad
    for t in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for ij, c in enumerate(e):
            i, j = divmod(ij, n)
            for k, v in mul.get((t, i), {}).items():
                lhs[(k, j)] = f.add(lhs.get((k, j), f.zero()), f.mul(c, v))
            for k, v in mul.get((j, t), {}).items():
                rhs[(i, k)] = f.add(rhs.get((i, k), f.zero()), f.mul(c, v))
        if any(lhs.get(key, f.zero()) != rhs.get(key, f.zero()) for key in set(lhs) | set(rhs)):
            return "separability_casimir", t
    return None


def loop_bimodule_validate(m: BimoduleObject) -> list:
    """The old per-pair loop of `BimoduleObject.validate`, as a checks list."""
    a, f = m.algebra, m.algebra.field
    n = a.dim

    def left(x, y):
        return m.act_l.apply(v_tensor(f, x, y))

    def right(x, y):
        return m.act_r.apply(v_tensor(f, x, y))

    for i in range(n):
        ei = v_basis(f, n, i)
        for j in range(n):
            ej = v_basis(f, n, j)
            prod = dict_product(a, ei, ej)
            for t in range(m.dim):
                mt = v_basis(f, m.dim, t)
                if not v_eq(f, left(prod, mt), left(ei, left(ej, mt))):
                    return [("left_action", False, f"(e{i}e{j})m{t}")]
                if not v_eq(f, right(mt, prod), right(right(mt, ei), ej)):
                    return [("right_action", False, f"m{t}(e{i}e{j})")]
                if not v_eq(f, left(ei, right(mt, ej)), right(left(ei, mt), ej)):
                    return [("bimodule_compat", False, f"e{i}(m{t}e{j})")]
    for t in range(m.dim):
        mt = v_basis(f, m.dim, t)
        if not v_eq(f, left(a.unit, mt), mt) or not v_eq(f, right(mt, a.unit), mt):
            return [("unit_action", False, f"1*m{t}")]
    return [(name, True, None) for name in ("left_action", "right_action", "bimodule_compat", "unit_action")]


# -- random tables through the file reader ----------------------------------

FIELDS = {"F5": GF(5), "Q": QQ}
COEFFS = ["0", "1", "-1", "2", "3", "4", "1/2", "-2/3"]


@st.composite
def table_docs(draw):
    """A file carrying random mul and comul triples (duplicates and zeros
    included) on a small basis, with the field it is over."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    triples = st.lists(st.tuples(idx, idx, idx, st.sampled_from(COEFFS)).map(list), max_size=3 * n * n)
    mul, comul = draw(triples), draw(triples)
    # repeat some triples so that duplicates add up
    mul += draw(st.lists(st.sampled_from(mul), max_size=4)) if mul else []
    comul += draw(st.lists(st.sampled_from(comul), max_size=4)) if comul else []
    vec = st.lists(st.sampled_from(COEFFS), min_size=n, max_size=n)
    doc = {"field": {"kind": "Q"} if kind == "Q" else {"kind": "Fp", "p": 5}, "dim": n,
           "mul": mul, "unit": draw(vec), "comul": comul, "counit": draw(vec)}
    return FIELDS[kind], doc


def _old(f, doc):
    """What the dict path read: mul and comul as the old constructors kept them."""
    n = doc["dim"]
    mul = dict_mul(f, _entries(f, doc["mul"], (n, n, n), "mul"))
    comul = dict_comul(f, _entries(f, doc["comul"], (n, n, n), "comul"))
    return {key: dict(col) for key, col in mul.items() if col}, {k: dict(col) for k, col in comul.items() if col}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_docs())
def test_arrays_views_and_triples_match_the_dict_path(case):
    f, doc = case
    b = object_from_json(doc)
    mul, comul = _old(f, doc)
    assert b.mul == mul and b.comul == comul
    # the tables keep the first appearance of each triple, so the views
    # iterate in the dict path's order
    assert list(b.mul) == list(mul) and list(b.comul) == list(comul)
    out = object_to_json(b)
    assert out["mul"] == dict_triples(f, ((i, j, k, c) for (i, j), col in mul.items() for k, c in col.items()))
    assert out["comul"] == dict_triples(f, ((i, j, k, c) for k, col in comul.items() for (i, j), c in col.items()))
    # the dict constructors store the same entries and views
    n = doc["dim"]
    a, c = AlgebraObject(f, n, mul, b.unit), CoalgebraObject(f, n, comul, b.counit)
    assert a.mul == mul and c.comul == comul
    for x, y in ((a, b.as_algebra()), (c, b.as_coalgebra())):
        assert sorted(zip(*(t.tolist() for t in x.table))) == sorted(zip(*(t.tolist() for t in y.table)))
    assert sorted(zip(*(t.tolist() for t in a.constants()))) == sorted(
        zip(*(t.tolist() for t in b.as_algebra().constants())))
    # an index out of range: the reader refuses the file, the dict
    # constructors keep the entry and fail the shape check
    with pytest.raises(FileFormatError, match="out of range"):
        object_from_json({**doc, "mul": doc["mul"] + [[0, n, 0, "1"]]})
    wide = {**mul, (0, n): {0: f.one()}}
    a = AlgebraObject(f, n, wide, b.unit)
    assert a.mul == wide and a.validate().checks == [("shape", False, "structure constants out of range")]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_docs())
def test_checks_on_random_tables_match_the_loops(case):
    f, doc = case
    b = object_from_json(doc)
    n = b.dim
    mul, comul = _old(f, doc)
    got = [(name, ok, wit) for name, ok, wit in b.as_coalgebra().validate().checks]
    assert got == loop_coalgebra_validate(f, n, comul, b.counit)
    assert b._check_eps_multiplicative() == loop_eps_multiplicative(f, n, mul, b.counit)
    assert b._delta_unital() == loop_delta_unital(f, comul, b.unit)
    assert b._check_delta_on_generators(range(n)) == loop_delta_on_generators(f, n, mul, comul, range(n))
    assert _convolution_system(b) == loop_convolution_system(f, n, mul, comul)


def test_out_of_range_indices_fail_shape_on_both_paths():
    f = GF(5)
    mul = {(0, 3): {1: 1}, (1, 1): {1: 0}}
    a = AlgebraObject(f, 2, mul, [1, 0])
    assert a.mul == mul
    assert a.validate().checks == [("shape", False, "structure constants out of range")]
    comul = {0: {(0, 0): 1}, 2: {(1, 1): 1}}
    c = CoalgebraObject(f, 2, comul, [1, 1])
    assert c.comul == comul
    assert c.validate().checks == loop_coalgebra_validate(f, 2, comul, [1, 1])


# -- mutants of the builtin Hopf objects --------------------------------------

HOPF = {
    "h4_q": lambda: sweedler_h4(QQ),
    "taft3_f7": lambda: taft(3, 2, GF(7)),
    "kZ3_f5": lambda: group_algebra(3, GF(5)),
    "kZ4_dual_f3": lambda: dual_group_algebra(4, GF(3)),
}


@st.composite
def mutant_docs(draw):
    """A builtin Hopf object's file with its triples shuffled, some split
    into duplicates that add up to the same value, zero triples added, and
    up to two coefficients changed, in mul, comul, unit or counit."""
    name = draw(st.sampled_from(sorted(HOPF)))
    h = _hopf(name)
    f = h.field
    doc = object_to_json(h)
    del doc["antipode"]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = h.dim
    for key in ("mul", "comul"):
        triples = doc[key]
        for t in rng.sample(range(len(triples)), min(2, len(triples))):  # split c into (c - 1) + 1
            i, j, k, c = triples[t]
            triples[t] = [i, j, k, f.fmt(f.sub(f.parse(c), f.one()))]
            triples.append([i, j, k, "1"])
        triples += [[rng.randrange(n), rng.randrange(n), rng.randrange(n), "0"] for _ in range(rng.randrange(3))]
        rng.shuffle(triples)
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["mul", "comul", "unit", "counit"]))
        c = draw(st.sampled_from(["1", "2", "-1", "0"]))
        if where in ("unit", "counit"):
            doc[where][rng.randrange(n)] = c
        elif rng.random() < 0.5 and doc[where]:
            doc[where][rng.randrange(len(doc[where]))][3] = c
        else:
            doc[where].append([rng.randrange(n), rng.randrange(n), rng.randrange(n), c])
    return f, doc


@functools.cache
def _hopf(name):
    return HOPF[name]()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutant_docs(), st.randoms(use_true_random=False))
def test_checks_on_mutants_match_the_loops(case, rnd):
    f, doc = case
    b = object_from_json(doc)
    n = b.dim
    mul, comul = _old(f, doc)
    got = [(name, ok, wit) for name, ok, wit in b.as_coalgebra().validate().checks]
    assert got == loop_coalgebra_validate(f, n, comul, b.counit)
    assert b._check_eps_multiplicative() == loop_eps_multiplicative(f, n, mul, b.counit)
    assert b._delta_unital() == loop_delta_unital(f, comul, b.unit)
    gens = rnd.sample(range(n), rnd.randrange(1, n + 1))
    assert b._check_delta_on_generators(gens) == loop_delta_on_generators(f, n, mul, comul, gens)
    assert _convolution_system(b) == loop_convolution_system(f, n, mul, comul)


# -- separability re-verification ---------------------------------------------


def _outcome(fn):
    try:
        fn()
    except VerificationFailed as e:
        return e.check, e.witness
    return None


@pytest.mark.parametrize("name, make", [
    ("kZ3_q", lambda: group_algebra(3, QQ)),
    ("kZ4_f5", lambda: group_algebra(4, GF(5))),
    ("dual_kZ3_f7", lambda: dual_group_algebra(3, GF(7))),
])
def test_separability_reverification_matches_the_loop(name, make):
    a = make().as_algebra()
    f, n = a.field, a.dim
    e = separability_idempotent(a)
    rng = random.Random(n)
    cases = [list(e)]
    for _ in range(40):
        x = list(e)
        for _ in range(rng.randrange(1, 3)):
            t = rng.randrange(n * n)
            x[t] = f.add(x[t], f.from_int(rng.randrange(1, 4)))
        cases.append(x)
        # keep m(e) = 1 but break the Casimir property: move weight between
        # two coordinates with the same product
        y = list(e)
        i, j = rng.randrange(n), rng.randrange(n)
        y[i * n + j] = f.add(y[i * n + j], f.one())
        y[j * n + i] = f.sub(y[j * n + i], f.one())
        cases.append(y)
    seen = set()
    for x in cases:
        got = _outcome(lambda: verify_separability_idempotent(a, x))
        assert got == loop_verify_separability(f, n, a.mul, a.unit, x)
        seen.add(None if got is None else got[0])
    assert seen == {None, "separability_multiplication", "separability_casimir"}


# -- bimodules and the ad-(co)invariance of integrals ------------------------


def test_bimodule_validation_matches_the_loop():
    rng = random.Random(5)
    for h in (sweedler_h4(QQ), group_algebra(3, GF(5)), taft(3, 2, GF(7))):
        a = h.as_algebra()
        f = a.field
        reg = BimoduleObject.regular(a)
        assert reg.validate().checks == loop_bimodule_validate(reg)
        for _ in range(6):
            act_l, act_r = reg.act_l._d.copy(), reg.act_r._d.copy()
            target = act_l if rng.random() < 0.5 else act_r
            target[rng.randrange(target.shape[0]), rng.randrange(target.shape[1])] += f.from_int(rng.randrange(1, 3))
            m = BimoduleObject(a, a.dim, Matrix(f, a.dim, a.dim ** 2, f.reduce(act_l), _raw=True),
                               Matrix(f, a.dim, a.dim ** 2, f.reduce(act_r), _raw=True))
            assert m.validate().checks == loop_bimodule_validate(m)


def loop_ad_invariance(h, lam) -> bool:
    f, n, lv = h.field, h.dim, lam.vector
    for x in range(n):
        for y in range(n):
            lhs1 = lhs2 = f.zero()
            for (i, j), c in h.comul.get(x, {}).items():
                term = dict_product(h, dict_product(h, v_basis(f, n, i), v_basis(f, n, y)), h.antipode.col_list(j))
                lhs1 = f.add(lhs1, f.mul(c, sum((f.mul(p, q) for p, q in zip(lv, term)), f.zero())))
                term2 = dict_product(h, dict_product(h, h.antipode.col_list(i), v_basis(f, n, y)), v_basis(f, n, j))
                lhs2 = f.add(lhs2, f.mul(c, sum((f.mul(p, q) for p, q in zip(lv, term2)), f.zero())))
            rhs = f.mul(h.counit[x], lv[y])
            if lhs1 != rhs or lhs2 != rhs:
                return False
    return True


def loop_ad_coinvariance(h, t) -> bool:
    f, n, tv = h.field, h.dim, t.vector
    lhs: dict = {}
    for k, c in enumerate(tv):
        for (i, j), w in h.comul.get(k, {}).items():
            for (a, b), w2 in h.comul.get(i, {}).items():
                for out, v in enumerate(dict_product(h, v_basis(f, n, a), h.antipode.col_list(j))):
                    lhs[(out, b)] = f.add(lhs.get((out, b), f.zero()), f.mul(f.mul(c, f.mul(w, w2)), v))
    rhs = {(i, j): f.mul(u, x) for i, u in enumerate(h.unit) for j, x in enumerate(tv)}
    return all(lhs.get(key, f.zero()) == rhs.get(key, f.zero()) for key in set(lhs) | set(rhs))


@pytest.mark.parametrize("make", [lambda: group_algebra(3, QQ), lambda: dual_group_algebra(4, QQ),
                                  lambda: group_algebra(4, GF(5))])
def test_ad_checks_match_the_loops(make):
    h = make()
    f = h.field
    lam = find_integral(h, "in_dual", "two_sided")
    t = find_integral(h, "in_H", "two_sided")
    rng = random.Random(h.dim)
    for k in range(8):
        lv, tv = list(lam.vector), list(t.vector)
        if k:  # move weight off the integral, keeping the normalization
            i = rng.randrange(1, h.dim)
            lv[i] = f.add(lv[i], f.one())
            tv[i] = f.add(tv[i], f.one())
            tv[0] = f.sub(tv[0], f.one()) if f.is_one(h.counit[i]) else tv[0]
        lam_k = types.SimpleNamespace(normalized=True, vector=lv)
        assert check_ad_invariance(h, lam_k) == loop_ad_invariance(h, lam_k)
        if f.is_one(h.counit_of(tv)):
            t_k = types.SimpleNamespace(vector=tv)
            assert check_ad_coinvariance(h, t_k) == loop_ad_coinvariance(h, t_k)


def test_dualize_shares_the_arrays():
    h = taft(3, 2, GF(7))
    d = dualize(h)
    assert all(x is y for x, y in zip(d.as_algebra().table, h.as_coalgebra().table))
    assert all(x is y for x, y in zip(d.as_coalgebra().table, h.as_algebra().table))
    assert dualize(d).mul == h.mul and dualize(d).comul == h.comul


@pytest.mark.parametrize("name", sorted(HOPF))
def test_blocked_joins_match_the_loops(name, monkeypatch):
    """With blocks of one term, every generator (Delta multiplicativity) and
    every input leg (coassociativity) is its own join."""
    import hopfsplit.coalgebra
    import hopfsplit.hopf

    monkeypatch.setattr(hopfsplit.hopf, "_DELTA_BLOCK", 1)
    monkeypatch.setattr(hopfsplit.coalgebra, "_JOIN_BLOCK", 1)
    h = _hopf(name)
    f, n = h.field, h.dim
    rng = random.Random(n)
    doc = object_to_json(h)
    del doc["antipode"]
    for t in range(12):
        mutant = {**doc, "mul": [list(x) for x in doc["mul"]], "comul": [list(x) for x in doc["comul"]]}
        if t:
            key = "mul" if t % 2 else "comul"
            mutant[key].append([rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.choice(["1", "2", "-1"])])
        b = object_from_json(mutant)
        mul, comul = _old(f, mutant)
        gens = rng.sample(range(n), rng.randrange(1, n + 1))
        assert b._check_delta_on_generators(gens) == loop_delta_on_generators(f, n, mul, comul, gens)
        got = [(check, ok, wit) for check, ok, wit in b.as_coalgebra().validate().checks]
        assert got == loop_coalgebra_validate(f, n, comul, b.counit)
