"""Structure-constant algebras: validation, ideals, radical, separability."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_reference import pair_product, product_sparse, sparse_add, sparse_eq
from hopfsplit.algebra import (
    AlgebraObject,
    BimoduleObject,
    CertificationFailed,
    IdealData,
    NotNilpotentWithin,
    NotSeparable,
    SmallCharUnsupported,
    defect_map,
    ideal_generated_by,
    ideal_power_nilpotency,
    is_ideal,
    multiplicativity_defect,
    pairwise_products,
    quotient_algebra,
    radical,
    separability_idempotent,
    trace_form,
    verify_separability_idempotent,
)
from hopfsplit.builtin import group_algebra, sweedler_h4, taft
from hopfsplit.category import CatObject
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import BialgebraObject, is_algebra_map
from hopfsplit.linalg import Matrix, SparseMap, Subspace
from hopfsplit.tensors import pipelines_equal, v_basis


def one_dim_field_algebra(f):
    return AlgebraObject(f, 1, {(0, 0): {0: f.one()}}, [f.one()], ("1",))


def dual_numbers(f):
    one = f.one()
    mul = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    return AlgebraObject(f, 2, mul, [one, f.zero()], ("1", "x"))


def truncated_cubic(f):
    one = f.one()
    mul = {
        (0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
        (0, 2): {2: one}, (2, 0): {2: one}, (1, 1): {2: one},
    }
    return AlgebraObject(f, 3, mul, [one, f.zero(), f.zero()], ("1", "x", "x2"))


def test_one_dimensional_algebra_passes():
    assert one_dim_field_algebra(QQ).validate().ok


def test_dual_numbers_pass():
    # the 8 associativity triples hold by hand: x*x = 0 absorbs everything
    assert dual_numbers(QQ).validate().ok


def test_missing_unit_detected():
    f = QQ
    a = AlgebraObject(f, 2, {(0, 0): {1: f.one()}}, [f.one(), f.zero()])
    rep = a.validate()
    assert not rep.ok
    assert any("unit" in name for name, _ in rep.failures())


def test_non_associative_detected():
    f = QQ
    # e0 e0 = e1, e1 e0 = e0 with unit nominally e0 breaks associativity
    mul = {(0, 0): {1: f.one()}, (1, 0): {0: f.one()}}
    a = AlgebraObject(f, 2, mul, [f.one(), f.zero()])
    rep = a.validate()
    assert not rep.ok


def test_ideal_generated_by_zero():
    a = dual_numbers(QQ)
    ideal = ideal_generated_by(a, Matrix.zeros(QQ, 2, 1))
    assert ideal.dim == 0


def test_ideal_generated_by_x():
    a = dual_numbers(QQ)
    # f picks x: 1*x*1 = x and x*x = 0, so the ideal is span(x)
    ideal = ideal_generated_by(a, Matrix.column(QQ, [Fraction(0), Fraction(1)]))
    assert ideal.dim == 1
    assert ideal.subspace.contains_vector([Fraction(0), Fraction(1)])


def test_ideal_generated_in_group_algebra():
    a = group_algebra(2, QQ).as_algebra()
    # f picks g - 1: enumerate products shows the ideal is span(g - 1)
    ideal = ideal_generated_by(a, Matrix.column(QQ, [Fraction(-1), Fraction(1)]))
    assert ideal.dim == 1
    assert ideal.subspace.contains_vector([Fraction(-1), Fraction(1)])


def test_ideal_minimality():
    # <f> is the smallest ideal containing the image of f
    a = truncated_cubic(QQ)
    fmat = Matrix.column(QQ, [Fraction(0), Fraction(0), Fraction(1)])  # picks x^2
    ideal = ideal_generated_by(a, fmat)
    assert ideal.dim == 1
    bigger = Subspace.from_vectors(QQ, 3, [v_basis(QQ, 3, 1), v_basis(QQ, 3, 2)])
    assert is_ideal(a, bigger)
    assert bigger.contains(ideal.subspace)


def test_nilpotency_zero_ideal():
    a = dual_numbers(QQ)
    powers, idx = ideal_power_nilpotency(a, IdealData(a, Subspace.zero(QQ, 2)))
    assert idx == 2  # I = 0 means I^2 = 0; least n >= 2


def test_nilpotency_cubic():
    a = truncated_cubic(QQ)
    ideal = IdealData(a, Subspace.from_vectors(QQ, 3, [v_basis(QQ, 3, 1), v_basis(QQ, 3, 2)]))
    powers, idx = ideal_power_nilpotency(a, ideal)
    assert idx == 3
    assert [p.dim for p in powers] == [2, 1, 0]


def test_not_nilpotent():
    a = group_algebra(2, QQ).as_algebra()
    ideal = IdealData(a, Subspace.from_vectors(QQ, 2, [[Fraction(-1), Fraction(1)]]))
    with pytest.raises(NotNilpotentWithin):
        ideal_power_nilpotency(a, ideal)


def test_radical_semisimple_group_algebra():
    a = group_algebra(3, QQ).as_algebra()
    assert radical(a).dim == 0


def test_radical_dual_numbers():
    a = dual_numbers(QQ)
    rad = radical(a)
    assert rad.dim == 1
    assert rad.subspace.contains_vector([Fraction(0), Fraction(1)])


def test_radical_small_char_needs_candidate():
    a = dual_numbers(GF(2))
    with pytest.raises(SmallCharUnsupported):
        radical(a)
    cand = IdealData(a, Subspace.from_vectors(GF(2), 2, [[0, 1]]))
    assert radical(a, cand).dim == 1


def test_radical_certification_rejects_non_radical():
    a = truncated_cubic(GF(2))
    # span(x^2) is a nilpotent ideal but the quotient is not separable
    cand = IdealData(a, Subspace.from_vectors(GF(2), 3, [[0, 0, 1]]))
    with pytest.raises(CertificationFailed):
        radical(a, cand)


def test_separability_idempotent_unit_algebra():
    e = separability_idempotent(one_dim_field_algebra(QQ))
    assert e == [Fraction(1)]


def test_separability_idempotent_group_algebra():
    a = group_algebra(2, QQ).as_algebra()
    e = separability_idempotent(a)
    # 1/2 (1 (x) 1 + g (x) g), verified again by direct contraction
    assert e == [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)]
    verify_separability_idempotent(a, e)


def test_separability_maschke_obstruction():
    a = group_algebra(2, GF(2)).as_algebra()
    with pytest.raises(NotSeparable):
        separability_idempotent(a)


def test_quotient_by_zero():
    a = dual_numbers(QQ)
    q, proj = quotient_algebra(a, IdealData(a, Subspace.zero(QQ, 2)))
    assert q.dim == 2
    assert proj == Matrix.identity(QQ, 2)


def test_quotient_dual_numbers():
    a = dual_numbers(QQ)
    q, proj = quotient_algebra(a, IdealData(a, Subspace.from_vectors(QQ, 2, [[Fraction(0), Fraction(1)]])))
    assert q.dim == 1
    assert q.validate().ok


def test_regular_bimodule():
    a = group_algebra(3, GF(5)).as_algebra()
    m = BimoduleObject.regular(a)
    assert m.validate().ok


def test_ideal_generated_is_minimal_randomized():
    # <f> is the smallest ideal containing Im f: any ideal containing Im f
    # contains <f>, and multiplicative maps killing f kill <f>
    import random

    rng = random.Random(31)
    a = truncated_cubic(QQ)
    for _ in range(10):
        vec = [QQ.from_int(rng.randrange(-2, 3)) for _ in range(3)]
        vec[0] = QQ.zero()  # keep it inside the augmentation part
        fmat = Matrix.column(QQ, vec)
        ideal = ideal_generated_by(a, fmat)
        assert ideal.subspace.contains_vector(vec)
        assert is_ideal(a, ideal.subspace)
        # quotient map is multiplicative and kills f, hence kills the ideal
        from hopfsplit.algebra import quotient_algebra

        q, proj = quotient_algebra(a, ideal)
        img = proj.apply(vec)
        assert all(QQ.is_zero(x) for x in img)
        for t in range(ideal.dim):
            img = proj.apply(ideal.subspace.basis.row_list(t))
            assert all(QQ.is_zero(x) for x in img)


def test_not_separable_keeps_no_constraint_system_alive():
    # the exception is raised outside any handler: no chained exception, and
    # no frame it keeps (its traceback) holds a matrix or array
    with pytest.raises(NotSeparable) as info:
        separability_idempotent(dual_numbers(QQ))
    exc = info.value
    assert exc.__context__ is None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_globals.get("__name__", "").startswith("hopfsplit"):
            assert not any(isinstance(v, (Matrix, np.ndarray)) for v in tb.tb_frame.f_locals.values())
        tb = tb.tb_next


def test_trace_radical_quotient_is_separable():
    # char 0: the trace-form radical has a separable quotient
    for name_alg in (dual_numbers(QQ), truncated_cubic(QQ)):
        rad = radical(name_alg)
        q, _ = quotient_algebra(name_alg, rad)
        separability_idempotent(q)  # raises if not separable


def test_separability_idempotent_in_comodule_context():
    # K[Z2] as a comodule algebra over itself: the Casimir element must
    # additionally be coinvariant for the diagonal coactions
    from hopfsplit.builtin import group_algebra

    h = group_algebra(2, QQ)

    comul = h.as_coalgebra().comul_matrix()
    e = separability_idempotent(h.as_algebra(), CatObject(QQ, 2, h, coact_l=comul, coact_r=comul))
    assert e == [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)]


# -- associativity: the join against the dict-loop reference ---------------

def associativity_by_dict_loop(a):
    """Reference: (e_i e_j) e_k against e_i (e_j e_k) for every basis
    triple by sparse dict arithmetic over any exact field."""
    n = a.dim
    f = a.field
    table = {(i, j): pair_product(a, i, j) for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            uv = table[(i, j)]
            for k in range(n):
                lhs: dict = {}
                for m, c in uv.items():
                    lhs = sparse_add(f, lhs, table[(m, k)], c)
                rhs: dict = {}
                for m, c in table[(j, k)].items():
                    rhs = sparse_add(f, rhs, table[(i, m)], c)
                if not sparse_eq(f, lhs, rhs):
                    return False, f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})"
    return True, None


def tensor_algebra(a, b):
    """A (x) B on the basis e_i (x) e_k at index i * dim B + k."""
    f, m = a.field, b.dim
    mul = {}
    for (i1, j1), c1 in a.mul.items():
        for (i2, j2), c2 in b.mul.items():
            mul[(i1 * m + i2, j1 * m + j2)] = {
                k1 * m + k2: f.mul(x, y) for k1, x in c1.items() for k2, y in c2.items()
            }
    return AlgebraObject(f, a.dim * m, mul, [f.mul(x, y) for x in a.unit for y in b.unit])


def _factor(spec, f):
    kind, n = spec
    if kind == "group":
        return group_algebra(n, f).as_algebra()
    return taft(n, f.primitive_root_of_unity(n), f).as_algebra()


def _algebra_specs():
    """(field, factors, dim) for group algebras k[Z_m], Taft algebras T_n
    and products of two of them, up to dim 36, over small primes, Q, and
    primes on both sides of the int64 bound 2**31."""
    out = []
    for f in (GF(5), GF(7), GF(13), QQ, GF(65537), GF(2**31 - 1), GF(2**61 - 1)):
        single = [("group", m) for m in range(1, 7)]
        single += [("taft", n) for n in (2, 3, 4) if f.primitive_root_of_unity(n) is not None]
        dims = {s: s[1] if s[0] == "group" else s[1] ** 2 for s in single}
        out += [(f, (s,), dims[s]) for s in single]
        out += [(f, (s, t), dims[s] * dims[t]) for s in single for t in single if 1 < dims[s] * dims[t] <= 36]
    return out


SPECS = _algebra_specs()


def mutated(a, i, j, k, delta):
    """a with delta added to the coefficient of e_k in e_i e_j."""
    f = a.field
    mul = {key: dict(col) for key, col in a.mul.items()}
    col = mul.setdefault((i, j), {})
    c = f.add(col.get(k, f.zero()), delta)
    if f.is_zero(c):
        col.pop(k, None)
    else:
        col[k] = c
    return AlgebraObject(f, a.dim, mul, a.unit)


def draw_spec_algebra(data, specs):
    """A product of SPECS factors, with one structure constant changed half
    of the time; returns (algebra, mutated)."""
    f, factors, dim = data.draw(st.sampled_from(specs))
    a = _factor(factors[0], f)
    for spec in factors[1:]:
        a = tensor_algebra(a, _factor(spec, f))
    assert a.dim == dim
    mutate = data.draw(st.booleans())
    if mutate:
        idx = st.integers(0, dim - 1)
        delta = f.from_int(data.draw(st.integers(1, 6 if f.kind == "Q" else f.p - 1)))
        a = mutated(a, data.draw(idx), data.draw(idx), data.draw(idx), delta)
    return a, mutate


@pytest.mark.parametrize("lo, hi", [(1, 12), (13, 36)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_associativity_join_matches_dict_loop(lo, hi, data):
    import hopfsplit.algebra as alg_mod

    a, mutate = draw_spec_algebra(data, [s for s in SPECS if lo <= s[2] <= hi])
    if not mutate:
        assert a.validate().ok
    # one left index per join, a few, or all of them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg_mod, "_JOIN_BLOCK", data.draw(st.sampled_from([1, 50, 2**16])))
        assert a._check_associativity() == associativity_by_dict_loop(a)


def unit_by_dict_loop(a):
    """Reference: 1 e_j and e_j 1 against e_j for each j in turn."""
    f = a.field
    for j in range(a.dim):
        if not sparse_eq(f, product_sparse(a, dict(enumerate(a.unit)), {j: f.one()}), {j: f.one()}):
            return False, f"1*e{j} != e{j}"
        if not sparse_eq(f, product_sparse(a, {j: f.one()}, dict(enumerate(a.unit))), {j: f.one()}):
            return False, f"e{j}*1 != e{j}"
    return True, None


def generating_set_by_full_closure(a, cap=24):
    """Reference: the greedy generating set with the span closed under all
    products of its basis after each new generator."""
    f, n = a.field, a.dim
    span = Subspace.from_vectors(f, n, [a.unit])
    gens = []
    for i in range(n):
        if span.contains_vector(v_basis(f, n, i)):
            continue
        gens.append(i)
        if len(gens) > cap:
            return None
        span = span + Subspace.from_vectors(f, n, [v_basis(f, n, i)])
        while True:
            grown = span + Subspace.from_matrix_rows(pairwise_products(a, span.basis, span.basis))
            if grown.dim == span.dim:
                break
            span = grown
    return gens


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_generating_set_needs_the_new_generator_times_the_span(field):
    # k<x, y> / (words of length 3) on 1, x, y, xx, xy, yx, yy: after x,
    # the span is {1, x, xx}; y generates only with y x, a product of the
    # new generator with the old span
    words = ["", "x", "y", "xx", "xy", "yx", "yy"]
    idx = {w: t for t, w in enumerate(words)}
    mul = {(idx[u], idx[w]): {idx[u + w]: field.one()} for u in words for w in words if len(u + w) <= 2}
    a = AlgebraObject(field, 7, mul, [field.one()] + [field.zero()] * 6)
    assert a.validate().ok
    assert a.generating_basis_indices() == generating_set_by_full_closure(a) == [1, 2]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_check_matches_dict_loop(data):
    a, _ = draw_spec_algebra(data, SPECS)
    if data.draw(st.booleans()):
        f = a.field
        unit = list(a.unit)
        unit[data.draw(st.integers(0, a.dim - 1))] = f.from_int(data.draw(st.integers(0, 3)))
        a = AlgebraObject(f, a.dim, a.mul, unit)
    assert a._check_unit() == unit_by_dict_loop(a)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_on_generators_matches_full_join(data):
    # the left nucleus is a subalgebra: with a unit and every generator in
    # it, the algebra is associative, so a non-associative algebra with a
    # unit fails at a generator's left index; the report, witness
    # included, is the full join's either way
    a, mutate = draw_spec_algebra(data, [s for s in SPECS if s[0] in (QQ, GF(7), GF(2**31 - 1))])
    gens = a.generating_basis_indices()
    if not mutate:  # the left-Krylov closure of an associative algebra is the subalgebra
        assert gens == generating_set_by_full_closure(a)
    full = a.validate()
    assert a.validate(gens).checks == full.checks
    if gens is not None and a._check_unit()[0] and not a._check_associativity()[0]:
        assert not a._check_associativity(gens)[0]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_generator_join_rejects_defect_at_non_generator(field):
    # k[Z_5] is generated by g = e1; the only changed constant is
    # e3 e4 = e2 + e0, at left index 3, yet e1 is no longer in the left
    # nucleus: (e1 e2) e4 = e3 e4 != e2 = e1 (e2 e4)
    a = mutated(group_algebra(5, field).as_algebra(), 3, 4, 0, field.one())
    gens = a.generating_basis_indices()
    assert gens == [1]
    want = (False, "(e1*e2)*e4 != e1*(e2*e4)")
    assert a._check_associativity(gens) == a._check_associativity() == want
    assert a.validate(gens).checks == a.validate().checks
    assert dict(a.validate(gens).failures()) == {"associativity": want[1]}


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_validate_with_broken_unit_runs_the_full_join(field):
    # the unit vector is 0, so the nucleus argument does not apply: the
    # join on the left index 0 passes, but validate must still find the
    # failure at the last left index
    n = 20
    a = AlgebraObject(field, n, {(n - 1, 0): {0: field.one()}}, [field.zero()] * n)
    assert a._check_associativity([0]) == (True, None)
    rep = a.validate([0])
    assert rep.checks == a.validate().checks
    assert dict(rep.failures()) == {"associativity": f"(e{n - 1}*e{n - 1})*e0 != e{n - 1}*(e{n - 1}*e0)",
                                     "unit": "1*e0 != e0"}


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_associativity_failure_only_at_last_left_index(field):
    # e_{n-1} e_0 = e_0 and all other products zero: the only failing
    # triple is (e_{n-1} e_{n-1}) e_0 = 0 != e_{n-1} (e_{n-1} e_0) = e_0
    n = 20
    a = AlgebraObject(field, n, {(n - 1, 0): {0: field.one()}}, [field.zero()] * n)
    want = (False, f"(e{n - 1}*e{n - 1})*e0 != e{n - 1}*(e{n - 1}*e0)")
    assert a._check_associativity() == associativity_by_dict_loop(a) == want


def test_flagship_single_constant_mutations_fail_associativity(ha_f7):
    import random

    a = ha_f7.as_algebra()
    f = a.field
    rng = random.Random(7)
    n = a.dim
    picks = rng.sample(sorted((i, j, k) for (i, j), col in a.mul.items() for k in col), 5)
    picks += [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(5)]
    assert len(set(picks)) == 10
    for i, j, k in picks:
        b = mutated(a, i, j, k, f.one())
        rep = b.validate()
        assert "associativity" in dict(rep.failures()), (i, j, k)
        # through the bialgebra, on the generating set when the unit holds
        bi = BialgebraObject(f, n, b.mul, b.unit, ha_f7.comul, ha_f7.counit)
        want = [("algebra:" + name, ok, wit) for name, ok, wit in rep.checks]
        assert [c for c in bi.validate().checks if c[0].startswith("algebra:")] == want, (i, j, k)


# -- multiplicativity: the blocked kernel against the per-pair loop ---------

def _defect_reference(src, tgt, f):
    """f(e_i e_j) - f(e_i) f(e_j) for every pair, by field ops on lists."""
    fld = src.field
    cols = [f.col_list(k) for k in range(src.dim)]
    out = {}
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = [fld.zero()] * tgt.dim
            for k, c in pair_product(src, i, j).items():
                lhs = [fld.add(x, fld.mul(c, y)) for x, y in zip(lhs, cols[k])]
            rhs = tgt.product(cols[i], cols[j])
            out[(i, j)] = [fld.sub(x, y) for x, y in zip(lhs, rhs)]
    return out


def _algebra_map_case(kind, field, n, k):
    """(src, tgt, f) for an algebra map of the given kind."""
    one = field.one()
    if kind == "group_aut":  # e_i -> e_(k i) on k[Z_n], k a unit mod n
        a = group_algebra(n, field).as_algebra()
        unit = next(u for u in range(k, k + n) if np.gcd(u, n) == 1) % n
        return a, a, Matrix.from_entries(field, n, n, {(unit * i % n, i): one for i in range(n)})
    lam = field.primitive_root_of_unity(n)
    t = taft(n, lam, field).as_algebra()
    if kind == "taft_scale":  # g -> g, x -> c x: g^i x^j -> c^j g^i x^j
        c = field.from_int(k % 5 + 1)
        return t, t, Matrix.from_entries(field, n * n, n * n, {(r, r): field.pow(c, r % n) for r in range(n * n)})
    if kind == "taft_quotient":  # T_n -> T_n / (x) = k[Z_n]
        rad = Subspace.from_vectors(field, n * n, [v_basis(field, n * n, r) for r in range(n * n) if r % n])
        q, proj = quotient_algebra(t, rad)
        return t, q, proj
    # group_into_product: k[Z_m] -> k[Z_m] (x) T_n, g -> g (x) 1
    m = k % 4 + 2
    a = group_algebra(m, field).as_algebra()
    return a, tensor_algebra(a, t), Matrix.from_entries(field, m * n * n, m, {(i * n * n, i): one for i in range(m)})


@pytest.mark.parametrize("field, taft_orders",
                         [(GF(7), (2, 3)), (GF(65537), (2, 4)), (GF(2**31 - 1), (2, 3)), (QQ, (2,))])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_multiplicativity_defect_matches_pair_loop(field, taft_orders, data):
    kind = data.draw(st.sampled_from(["group_aut", "taft_scale", "taft_quotient", "group_into_product"]))
    n = data.draw(st.integers(2, 6)) if kind == "group_aut" else data.draw(st.sampled_from(taft_orders))
    src, tgt, f = _algebra_map_case(kind, field, n, data.draw(st.integers(1, 6)))
    # the products run through `_matmul`: float64 BLAS over GF(7) and
    # GF(65537), blocked int64 over GF(2^31 - 1), the nonzero join over Q
    if field.kind == "Fp":
        assert f._d.dtype == np.int64
        assert (tgt.dim * (field.p - 1) ** 2 < 2**53) == (field.p < 2**31 - 1)
    else:
        assert f._d.dtype == object
    mutate = data.draw(st.booleans())
    if mutate:
        r, c = data.draw(st.integers(0, f.rows - 1)), data.draw(st.integers(0, f.cols - 1))
        delta = Matrix.from_entries(field, f.rows, f.cols, {(r, c): field.from_int(data.draw(st.integers(1, 6)))})
        f = f + delta
    ref = _defect_reference(src, tgt, f)
    first = next((ij for ij, d in ref.items() if any(not field.is_zero(x) for x in d)), None)
    if not mutate:
        assert first is None
    assert multiplicativity_defect(src, tgt, f) == first
    d = defect_map(src, tgt, f).matrix()
    assert all(d.col_list(i * src.dim + j) == ref[(i, j)] for i, j in ref)


def test_multiplicativity_defect_blocks_cover_every_left_index(monkeypatch):
    # the only nonzero product is e_(n-1) e_0 = e_0 and the target has none,
    # so the identity fails at the last left index only; with one input pair
    # per engine batch, with 7 and with the default batches it must still be
    # found
    import hopfsplit.tensors as tensors_mod

    n = 20
    for block in (1, 7, 2**13):
        monkeypatch.setattr(tensors_mod, "_BLOCK", block)
        for field in (QQ, GF(7), GF(65537)):
            src = AlgebraObject(field, n, {(n - 1, 0): {0: field.one()}}, [field.zero()] * n)
            tgt = AlgebraObject(field, n, {}, [field.zero()] * n)
            f = Matrix.identity(field, n)
            assert multiplicativity_defect(src, tgt, f) == (n - 1, 0)
            assert multiplicativity_defect(src, src, f) is None


def test_separability_idempotent_typed_failures():
    from hopfsplit.algebra import VerificationFailed

    a = group_algebra(2, QQ).as_algebra()
    e = separability_idempotent(a)  # 1/2 (1 (x) 1 + g (x) g)
    # + 1 (x) g: m(e) = 1 + g, first wrong at coordinate 1
    with pytest.raises(VerificationFailed) as exc:
        verify_separability_idempotent(a, [e[0], e[1] + 1, e[2], e[3]])
    assert (exc.value.check, exc.value.witness) == ("separability_multiplication", 1)
    # + 1 (x) g - g (x) 1 keeps m(e) = 1; g e != e g
    with pytest.raises(VerificationFailed) as exc:
        verify_separability_idempotent(a, [e[0], e[1] + 1, e[2] - 1, e[3]])
    assert (exc.value.check, exc.value.witness) == ("separability_casimir", 1)


# -- trace form and separability system: one product, one COO build --------


def upper_triangular(f, k):
    """UT(k) on the matrix units E_ab, a <= b."""
    basis = [(a, b) for a in range(k) for b in range(a, k)]
    idx = {e: t for t, e in enumerate(basis)}
    mul = {(idx[x], idx[y]): {idx[(x[0], y[1])]: f.one()} for x in basis for y in basis if x[1] == y[0]}
    return AlgebraObject(f, len(basis), mul, [f.one() if a == b else f.zero() for a, b in basis])


def trace_form_by_products(a):
    """Tr(L_i L_j) from the n^2 products of left multiplication matrices."""
    f, n = a.field, a.dim
    lmats = [Matrix.from_entries(f, n, n, {(k, j): c for j in range(n) for k, c in a.mul.get((i, j), {}).items()})
             for i in range(n)]
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = lmats[i] @ lmats[j]
            tr = f.zero()
            for t in range(n):
                tr = f.add(tr, prod[t, t])
            row.append(tr)
        gram.append(row)
    return gram


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1), GF(2**61 - 1)])
def test_trace_form_matches_product_loop(field):
    algebras = [dual_numbers(field), truncated_cubic(field), upper_triangular(field, 3),
                group_algebra(3, field).as_algebra(), sweedler_h4(field).as_algebra()]
    if field == GF(7):
        algebras.append(taft(3, field.primitive_root_of_unity(3), field).as_algebra())
    for a in algebras:
        assert trace_form(a).to_rows() == trace_form_by_products(a)


def separability_system_by_dict_loop(a, ctx):
    """The separability system as rows over the coordinates (x, y) of e:
    m(e) = 1, the nonempty Casimir rows (t, x, y), then the nonzero
    coinvariance rows, left side first, each from a loop over the basis."""
    f, n = a.field, a.dim
    rows, rhs = [], []
    for k in range(n):
        row = {}
        for (i, j), col in a.mul.items():
            c = col.get(k)
            if c is not None:
                row[i * n + j] = f.add(row.get(i * n + j, f.zero()), c)
        rows.append(row)
        rhs.append(a.unit[k])
    for t in range(n):
        for x in range(n):
            for y in range(n):
                row = {}
                for c in range(n):
                    v = a.mul.get((t, c), {}).get(x)
                    if v is not None:
                        row[c * n + y] = f.add(row.get(c * n + y, f.zero()), v)
                for d in range(n):
                    v = a.mul.get((d, t), {}).get(y)
                    if v is not None:
                        row[x * n + d] = f.sub(row.get(x * n + d, f.zero()), v)
                if row:
                    rows.append(row)
                    rhs.append(f.zero())
    dense = [[row.get(c, f.zero()) for c in range(n * n)] for row in rows]
    if ctx is not None:
        h = ctx.hopf
        dh = h.dim
        hm = h.as_algebra()
        for cm, left in ((ctx.coact_l.matrix(), True), (ctx.coact_r.matrix(), False)):
            # rho(e_x (x) e_y) - e_x (x) e_y (x) 1 on (h, x', y') left, (x', y', h) right
            out = [[f.zero()] * (n * n) for _ in range(dh * n * n)]

            def at(h_, x_, y_):
                return (h_ * n + x_) * n + y_ if left else (x_ * n + y_) * dh + h_

            for x in range(n):
                for y in range(n):
                    col = x * n + y
                    for r1, c1, v1 in cm.entries():
                        if c1 != x:
                            continue
                        h1, x0 = divmod(r1, n) if left else divmod(r1, dh)[::-1]
                        for r2, c2, v2 in cm.entries():
                            if c2 != y:
                                continue
                            h2, y0 = divmod(r2, n) if left else divmod(r2, dh)[::-1]
                            for hk, w in enumerate(hm.product(v_basis(f, dh, h1), v_basis(f, dh, h2))):
                                r = at(hk, x0, y0)
                                out[r][col] = f.add(out[r][col], f.mul(f.mul(v1, v2), w))
                    for hk in range(dh):
                        r = at(hk, x, y)
                        out[r][col] = f.sub(out[r][col], h.unit[hk])
            for row in out:
                if any(not f.is_zero(v) for v in row):
                    dense.append(row)
                    rhs.append(f.zero())
    return dense, rhs


def _nonzero_rows(rows, rhs):
    return [(r, b) for r, b in zip(rows, rhs) if any(v != 0 for v in r) or b != 0]


def _bicomodule_ctx(h):
    comul = h.as_coalgebra().comul_matrix()
    return CatObject(h.field, h.dim, h, coact_l=comul, coact_r=comul)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_separability_system_matches_dict_loop(field):
    from hopfsplit.algebra import _separability_system

    cases = [(group_algebra(m, field).as_algebra(), None) for m in (1, 2, 3, 5)]
    cases += [(upper_triangular(field, k), None) for k in (1, 2, 3)]
    h4 = sweedler_h4(field)
    z3 = group_algebra(3, field)
    cases += [(h4.as_algebra(), None), (h4.as_algebra(), _bicomodule_ctx(h4)), (z3.as_algebra(), _bicomodule_ctx(z3))]
    for a, ctx in cases:
        solver = _separability_system(a, ctx)
        # duplicate entries add up in the matrix of rows
        got = _nonzero_rows(solver._rows().dense().to_rows(), solver.rhs)
        want = _nonzero_rows(*separability_system_by_dict_loop(a, ctx))
        assert got == want


# -- ideals and algebra maps on a verified generating set -------------------

def is_ideal_by_rref(a, s):
    """Reference: every basis element times I and I times every basis
    element, each side's products reduced to a subspace of I."""
    if s.dim == 0:
        return True
    basis = Matrix.identity(a.field, a.dim)
    lp = pairwise_products(a, basis, s.basis)
    rp = pairwise_products(a, s.basis, basis)
    return s.contains(Subspace.from_matrix_rows(lp)) and s.contains(Subspace.from_matrix_rows(rp))


def first_defect(src, tgt, f):
    """Reference: the first pair of `_defect_reference` with a nonzero defect."""
    return next((ij for ij, d in _defect_reference(src, tgt, f).items() if any(not src.field.is_zero(x) for x in d)),
                None)


def _factor_counit(spec, f):
    kind, n = spec
    return [f.one()] * n if kind == "group" else [f.one() if r % n == 0 else f.zero() for r in range(n * n)]


def draw_gated_algebra(data, specs):
    """A fresh copy of a SPECS algebra, with one structure constant changed
    half of the time, and its counit (a character of the unmutated
    algebra).  Half of the time it is validated on its generating set;
    otherwise a generating set is cached without validating, which the gate
    must refuse.  Returns (algebra, counit, verified)."""
    f, factors, dim = data.draw(st.sampled_from(specs))
    a, eps = _factor(factors[0], f), _factor_counit(factors[0], f)
    for spec in factors[1:]:
        a = tensor_algebra(a, _factor(spec, f))
        eps = [f.mul(x, y) for x in eps for y in _factor_counit(spec, f)]
    a = AlgebraObject(f, a.dim, a.mul, a.unit)
    if data.draw(st.booleans()):
        idx = st.integers(0, dim - 1)
        delta = f.from_int(data.draw(st.integers(1, 6 if f.kind == "Q" else f.p - 1)))
        a = mutated(a, data.draw(idx), data.draw(idx), data.draw(idx), delta)
    gens = a.generating_basis_indices() if a._check_unit()[0] else None
    verified = data.draw(st.booleans()) and a.validate(gens).ok and gens is not None
    assert (a.verified_generators() is not None) == verified
    return a, eps, verified


def draw_subspace(data, a):
    """A two-sided, left or right ideal generated by random vectors, their
    span, a span of basis vectors, 0 or A."""
    f, n = a.field, a.dim
    kind = data.draw(st.sampled_from(["ideal", "left", "right", "span", "basis", "zero", "full"]))
    if kind == "zero":
        return Subspace.zero(f, n)
    if kind == "full":
        return Subspace.full(f, n)
    if kind == "basis":
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        return Subspace.from_vectors(f, n, [v_basis(f, n, i) for i in idx])
    vecs = Matrix.from_rows(f, [[f.from_int(data.draw(st.integers(-2, 2))) for _ in range(n)]
                                for _ in range(data.draw(st.integers(1, 2)))])
    eye = Matrix.identity(f, n)
    rows = {"ideal": lambda: ideal_generated_by(a, vecs.transpose()).subspace.basis,
            "left": lambda: pairwise_products(a, eye, vecs).dense(),
            "right": lambda: pairwise_products(a, vecs, eye).dense(),
            "span": lambda: vecs}[kind]()
    return Subspace.from_matrix_rows(rows.vstack(vecs))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_is_ideal_on_generators_matches_full_check(data):
    # a verified algebra answers on its generators, anything else on the
    # whole basis; the verdict is the full check's either way
    a, _, _ = draw_gated_algebra(data, [s for s in SPECS if s[2] <= 36])
    s = draw_subspace(data, a)
    assert is_ideal(a, s) == is_ideal_by_rref(a, s)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiplicativity_on_generators_matches_full_scan(data):
    import hopfsplit.algebra as alg_mod
    import hopfsplit.tensors as tensors_mod

    src, eps, verified = draw_gated_algebra(data, [s for s in SPECS if s[2] <= 16])
    fld, n = src.field, src.dim
    kind = data.draw(st.sampled_from(["identity", "counit", "quotient"]))
    if kind == "quotient" and src._check_associativity()[0] and src._check_unit()[0]:
        ideal = ideal_generated_by(src, Matrix.column(fld, [fld.from_int(data.draw(st.integers(-2, 2)))
                                                           for _ in range(n)]))
        tgt, f = quotient_algebra(src, ideal)
    elif kind == "counit":
        tgt, f = one_dim_field_algebra(fld), Matrix.row(fld, eps)
        tgt.validate()
    else:
        tgt, f = src, Matrix.identity(fld, n)
    if f.rows and data.draw(st.booleans()):  # may break f(1) = 1 as well
        r, c = data.draw(st.integers(0, f.rows - 1)), data.draw(st.integers(0, f.cols - 1))
        f = f + Matrix.from_entries(fld, f.rows, f.cols, {(r, c): fld.from_int(data.draw(st.integers(1, 6)))})
    want = first_defect(src, tgt, f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors_mod, "_BLOCK", data.draw(st.sampled_from([1, 7, 2**13])))
        assert multiplicativity_defect(src, tgt, f) == want
    # f as the map a caller has built: the same verdict, f(1) read off the map
    fm = SparseMap.from_matrix(f, (n,), (tgt.dim,))
    assert fm.apply(src.unit) == f.apply(src.unit)
    assert multiplicativity_defect(src, tgt, fm) == want
    assert is_algebra_map(src, tgt, fm) == is_algebra_map(src, tgt, f)
    gens = alg_mod._map_generators(src, tgt, fm)
    if not verified:
        assert gens is None
    if gens is not None:  # the restricted verdict alone is the full one
        assert (pipelines_equal(*alg_mod._defect_pipelines(src, tgt, fm, gens)) is None) == (want is None)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_unverified_algebras_take_the_full_path(field, monkeypatch):
    # k[Z_5] with e3 e4 = e2 + e0 is generated by e1 but not associative.
    # x = sum e_i spans a line that e1 fixes on both sides, yet e3 x = x + e0;
    # the augmentation eps agrees with e1 products but eps(e3 e4) = 2.  The
    # generator rows cannot see either defect, so a gate that let the
    # cached generators through would answer wrongly.
    import hopfsplit.algebra as alg_mod

    one, n = field.one(), 5
    a = mutated(group_algebra(n, field).as_algebra(), 3, 4, 0, one)
    line = Subspace.from_vectors(field, n, [[one] * n])
    k = one_dim_field_algebra(field)
    k.validate()
    eps = Matrix.row(field, [one] * n)
    assert a.generating_basis_indices() == [1]
    seen = []
    real = alg_mod._defect_pipelines
    monkeypatch.setattr(alg_mod, "_defect_pipelines", lambda *args: seen.append(args[3:]) or real(*args))
    for validate in (False, True):
        if validate:
            assert not a.validate([1]).ok
        assert a.verified_generators() is None
        assert is_ideal(a, line) is is_ideal_by_rref(a, line) is False
        seen.clear()
        assert multiplicativity_defect(a, k, eps) == first_defect(a, k, eps) == (3, 4)
        assert seen == [()]
    # the generator rows alone pass: the gate is what keeps the verdicts right
    assert pipelines_equal(*real(a, k, SparseMap.from_matrix(eps, (n,), (1,)), [1])) is None
    # an associative k[Z_5] takes the generator rows once validated, not before
    b = AlgebraObject(field, n, group_algebra(n, field).as_algebra().mul, [one] + [field.zero()] * (n - 1))
    b.generating_basis_indices()
    for validate, rows in ((False, ()), (True, ([1],))):
        if validate:
            assert b.validate([1]).ok
        seen.clear()
        assert multiplicativity_defect(b, k, eps) is None
        assert seen[:1] == [rows]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_multiplicativity_on_generators_needs_f_of_one(field):
    # k[x]/(x^3) is generated by x; f(1) = 2, f(x) = f(x^2) = 0 into k
    # passes every generator row, yet f(1 * 1) = 2 != 4 = f(1) f(1)
    a = truncated_cubic(field)
    assert a.validate(a.generating_basis_indices()).ok and a.verified_generators() == [1]
    k = one_dim_field_algebra(field)
    k.validate()
    f = Matrix.row(field, [field.from_int(2), field.zero(), field.zero()])
    assert multiplicativity_defect(a, k, f) == first_defect(a, k, f) == (0, 0)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_is_ideal_on_generators_checks_both_sides(field):
    # in UT(2), span{E11} is a left ideal (E_ab E11 = 0 unless b = 1) but
    # E11 E12 = E12 leaves it on the right
    a = upper_triangular(field, 2)
    assert a.validate(a.generating_basis_indices()).ok and a.verified_generators() is not None
    left = Subspace.from_vectors(field, 3, [v_basis(field, 3, 0)])
    assert is_ideal(a, left) is is_ideal_by_rref(a, left) is False
    assert is_ideal(a, Subspace.from_vectors(field, 3, [v_basis(field, 3, 1)])) is True


def test_quotient_by_the_whole_algebra_is_zero():
    a = group_algebra(3, GF(5)).as_algebra()
    q, proj = quotient_algebra(a, Subspace.full(GF(5), 3))
    assert (q.dim, proj.rows, proj.cols) == (0, 0, 3)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_multiplicativity_on_generators_needs_a_verified_target(field):
    # the identity k[Z_3] -> k[Z_3] with e2 e2 = e1 + e0 in the target: the
    # target keeps its unit and the products by the generator e1, but it is
    # not associative, so only the full scan finds the defect at (2, 2)
    src = group_algebra(3, field).as_algebra()
    assert src.verified_generators() == [1]
    tgt = mutated(src, 2, 2, 0, field.one())
    assert not tgt.validate().ok
    f = Matrix.identity(field, 3)
    assert multiplicativity_defect(src, tgt, f) == first_defect(src, tgt, f) == (2, 2)
