"""The generating-set search: the walk on the index graph of a monomial
table (`algebra._index_closure`) against the exact RREF closure
(`AlgebraObject._rref_closure`), which stays the reference."""
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_reference import constants_of
from hopfsplit.algebra import AlgebraObject
from hopfsplit.builtin import group_algebra, sweedler_h4, taft
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import BialgebraObject
from hopfsplit.linalg import Matrix

CAPS = [0, 1, 2, 3, 24]
PRIMES = [2, 3, 5, 7, 11, 13, 29, 101, 421]


def monomial_by_dict(a) -> bool:
    """Every product a nonzero multiple of one basis vector or zero, and the
    unit a nonzero multiple of one basis vector, read off the dict form."""
    f = a.field
    terms = [sum(1 for c in col.values() if not f.is_zero(f.reduce(c))) for col in a.mul.values()]
    return max(terms, default=0) <= 1 and sum(1 for x in a.unit if not f.is_zero(f.reduce(x))) == 1


def assert_closures_agree(a, caps=CAPS):
    """The search takes the index walk iff the table is monomial, and for
    every cap gives the RREF closure's set, cached set and report included."""
    assert (a._index_graph() is not None) == monomial_by_dict(a)
    for cap in caps:
        ref = a._rref_closure(cap)
        assert a._generating_set(cap) == ref
        assert a.generating_basis_indices(cap) == ref
        assert a.validate(ref).checks == a.validate(a.generating_basis_indices(cap)).checks


def nonzero(f):
    if f.kind == "Q":
        return st.builds(Fraction, st.integers(1, 5).flatmap(lambda x: st.sampled_from([x, -x])), st.integers(1, 3))
    return st.integers(1, f.p - 1)


def relabeled(a, perm):
    """a on the basis e_perm[i] (the unit moves off index 0)."""
    perm = np.asarray(perm)
    i, j, k, v = a.table
    unit = [a.field.zero()] * a.dim
    for t, x in enumerate(a.unit):
        unit[perm[t]] = x
    return AlgebraObject.from_constants(a.field, a.dim, (perm[i], perm[j], perm[k], v), unit)


def taft_over(n, p):
    f = GF(p)
    return taft(n, f.primitive_root_of_unity(n), f)


def cyclic_product(f, m, k):
    """k[Z_m x Z_k] on e_(i k + j) = (i, j)."""
    mul = {(a * k + b, c * k + d): {((a + c) % m) * k + (b + d) % k: f.one()}
           for a in range(m) for b in range(k) for c in range(m) for d in range(k)}
    return AlgebraObject(f, m * k, mul, [f.one()] + [f.zero()] * (m * k - 1))


def truncated_polynomials(f, k):
    """k[x]/(x^k): x^i x^j = 0 once i + j >= k."""
    mul = {(i, j): {i + j: f.one()} for i in range(k) for j in range(k) if i + j < k}
    return AlgebraObject(f, k, mul, [f.one()] + [f.zero()] * (k - 1))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_taft_index_closure_matches_rref(data):
    n = data.draw(st.integers(2, 5))
    p = data.draw(st.sampled_from([p for p in PRIMES if p % n == 1]))
    h = taft_over(n, p)
    a = h.as_algebra()
    assert a._index_graph() is not None
    assert_closures_agree(AlgebraObject.from_constants(a.field, a.dim, a.table, a.unit))
    assert_closures_agree(relabeled(a, data.draw(st.permutations(range(a.dim)))))
    # the bialgebra report, witness included, is the one the RREF closure gives
    if data.draw(st.booleans()):  # one constant scaled: still monomial, often not a bialgebra
        i, j, k, v = (x.copy() for x in a.table)
        t = data.draw(st.integers(0, v.size - 1))
        v[t] = v[t] * data.draw(st.integers(2, p - 1)) % p
        a = AlgebraObject.from_constants(a.field, a.dim, (i, j, k, v), a.unit)
    fresh = lambda: BialgebraObject.from_parts(AlgebraObject.from_constants(a.field, a.dim, a.table, a.unit),
                                               h.as_coalgebra())
    with mock.patch.object(AlgebraObject, "_index_graph", return_value=None):
        want = fresh().validate().checks
    assert fresh().validate().checks == want


@settings(max_examples=40, deadline=None)
@given(f=st.sampled_from([QQ, GF(2), GF(5), GF(7)]), m=st.integers(1, 6), k=st.integers(1, 4), data=st.data())
def test_cyclic_group_algebras_match_rref(f, m, k, data):
    assert_closures_agree(group_algebra(m, f).as_algebra())
    a = cyclic_product(f, m, k)
    assert_closures_agree(a)
    assert_closures_agree(relabeled(a, data.draw(st.permutations(range(a.dim)))))


@settings(max_examples=30, deadline=None)
@given(f=st.sampled_from([QQ, GF(3), GF(7)]), k=st.integers(1, 9), data=st.data())
def test_truncated_polynomials_with_zero_products_match_rref(f, k, data):
    a = truncated_polynomials(f, k)
    assert_closures_agree(a)
    assert a.generating_basis_indices() == ([] if k == 1 else [1])
    assert_closures_agree(relabeled(a, data.draw(st.permutations(range(k)))))


@st.composite
def monomial_tables(draw):
    """A random table with nonzero scalars, each product one basis vector or
    zero; some get a second term on one product (nonzero, or a stored zero)
    or a unit of zero or two terms."""
    f = draw(st.sampled_from([QQ, GF(2), GF(7), GF(101)]))
    n = draw(st.integers(1, 7))
    mul = {}
    for a in range(n):
        for b in range(n):
            k = draw(st.integers(-1, n - 1))
            if k >= 0:
                mul[(a, b)] = {k: draw(nonzero(f))}
    if mul and draw(st.integers(0, 3)) == 0:
        col = mul[draw(st.sampled_from(sorted(mul)))]
        col.setdefault(draw(st.integers(0, n - 1)), draw(st.sampled_from([f.zero(), f.one()])))
    unit = [f.zero()] * n
    unit[draw(st.integers(0, n - 1))] = draw(nonzero(f))
    if draw(st.integers(0, 5)) == 0:
        unit[draw(st.integers(0, n - 1))] = draw(st.sampled_from([f.zero(), f.one()]))
    return AlgebraObject(f, n, mul, unit)


@settings(max_examples=150, deadline=None)
@given(a=monomial_tables())
def test_random_monomial_tables_match_rref(a):
    assert_closures_agree(a)


def basis_changed(a, lower):
    """a on the basis f_t = e_t + sum_(s < t) lower[t][s] e_s: with Q the
    matrix whose columns are the f_t, the product matrix Q^-1 M (Q (x) Q)
    and the unit Q^-1 u."""
    f, n = a.field, a.dim
    q = Matrix.from_rows(f, [[lower[t][s] if s < t else int(s == t) for s in range(n)] for t in range(n)]).transpose()
    m = q.inverse() @ a.mul_matrix() @ q._new(n * n, n * n, np.kron(q._d, q._d) % f.p)
    unit = (q.inverse() @ Matrix.column(f, a.unit)).col_list(0)
    return AlgebraObject.from_constants(f, n, constants_of(m, n), unit)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([7, 13, 31]), data=st.data())
def test_basis_changed_taft_matches_rref(p, data):
    a = taft_over(3, p).as_algebra()
    lower = [[data.draw(st.integers(0, p - 1)) for _ in range(t)] for t in range(9)]
    b = basis_changed(a, lower)
    assert b.validate().ok
    assert_closures_agree(b, caps=[0, 24])


@pytest.mark.parametrize("p", [7, 13])
def test_taft_on_a_non_monomial_basis_takes_the_rref_path(p):
    # f_1 = 1 + g: f_1 f_1 = g^2 + 2 g + 1 = f_2 + 2 f_1 - f_0
    lower = [[0] * t for t in range(9)]
    lower[1][0] = 1
    b = basis_changed(taft_over(3, p).as_algebra(), lower)
    assert b.validate().ok
    assert b._index_graph() is None and not monomial_by_dict(b)
    assert_closures_agree(b)
    assert b.generating_basis_indices() == [1, 3]


def test_known_generating_sets(ha_f7):
    # T_3..T_7 over F_421 (421 = 1 mod 420), Q[Z_2] and H4 take the index
    # walk; the flagship's table is not monomial and keeps the RREF closure
    for n in range(3, 8):
        a = taft_over(n, 421).as_algebra()
        assert a._index_graph() is not None
        assert a.generating_basis_indices() == [1, n]
    for h, gens in ((group_algebra(2, QQ), [1]), (sweedler_h4(QQ), [1, 2])):
        assert h.as_algebra()._index_graph() is not None
        assert h.as_algebra().generating_basis_indices() == gens
    a = ha_f7.as_algebra()
    assert a._index_graph() is None
    assert a.generating_basis_indices() == [1, 3]
