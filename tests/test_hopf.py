"""Bialgebra/Hopf validation, antipodes, integrals and ad-(co)invariance."""
from fractions import Fraction

import pytest

from hopfsplit.builtin import dual_group_algebra, group_algebra, sweedler_h4, taft
from hopfsplit.coalgebra import dualize
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import (
    BialgebraObject,
    NoAntipode,
    check_ad_coinvariance,
    check_ad_invariance,
    find_integral,
    integral_space_dimension,
    is_algebra_map,
    is_coalgebra_map,
    upgrade_to_hopf,
)
from hopfsplit.linalg import Matrix


def test_unit_bialgebra_antipode_is_identity():
    b = group_algebra(1, QQ)
    s = upgrade_to_hopf(BialgebraObject(QQ, 1, b.mul, b.unit, b.comul, b.counit))
    assert s.antipode == Matrix.identity(QQ, 1)


def test_group_algebra_antipode_solved():
    h = group_algebra(2, QQ)
    b = BialgebraObject(QQ, 2, h.mul, h.unit, h.comul, h.counit)
    up = upgrade_to_hopf(b)  # solves the convolution system: g^-1 = g
    assert up.antipode == h.antipode


def test_antipode_hint_verified_and_bad_hint_rejected():
    h = sweedler_h4(QQ)
    b = BialgebraObject(QQ, 4, h.mul, h.unit, h.comul, h.counit)
    up = upgrade_to_hopf(b, antipode_hint=h.antipode)
    assert up.antipode == h.antipode
    with pytest.raises(NoAntipode):
        upgrade_to_hopf(b, antipode_hint=Matrix.identity(QQ, 4))


def test_solve_limit_guard():
    h = group_algebra(5, QQ)
    b = BialgebraObject(QQ, 5, h.mul, h.unit, h.comul, h.counit)
    with pytest.raises(NoAntipode):
        upgrade_to_hopf(b, solve_limit=3)


def test_antipode_involution_on_commutative_and_cocommutative():
    for h in (group_algebra(5, QQ), dual_group_algebra(4, QQ), group_algebra(3, GF(7))):
        s2 = h.antipode @ h.antipode
        assert s2 == Matrix.identity(h.field, h.dim)


def test_taft_is_hopf_and_self_dual_dimension():
    f = GF(7)
    lam = f.primitive_root_of_unity(3)
    h = taft(3, lam, f)
    assert h.dim == 9
    assert h.validate().ok
    d = dualize(h)
    assert d.validate().ok  # dual bialgebra validity (self-duality not asserted)


def test_integral_group_algebra():
    h = group_algebra(4, QQ)
    t = find_integral(h, "in_H", "two_sided")
    assert t.normalized
    # (1/4) sum g^i
    assert t.vector == [Fraction(1, 4)] * 4


def test_integral_space_is_one_dimensional():
    for h in (group_algebra(3, QQ), sweedler_h4(QQ), group_algebra(2, GF(2))):
        assert integral_space_dimension(h, "in_H", "left") == 1
        assert integral_space_dimension(h, "in_dual", "left") == 1


def test_integral_maschke_failure_recorded():
    h = group_algebra(2, GF(2))
    t = find_integral(h, "in_H", "two_sided")
    assert not t.normalized
    # t = 1 + g has eps(t) = 0
    assert t.vector == [1, 1]


def test_ad_invariance_group_algebras():
    for n in range(1, 7):
        h = group_algebra(n, QQ)
        lam = find_integral(h, "in_dual", "two_sided")
        assert lam.normalized
        assert check_ad_invariance(h, lam)


def test_ad_coinvariance_group_algebras():
    for n in range(1, 7):
        h = group_algebra(n, QQ)
        t = find_integral(h, "in_H", "two_sided")
        assert t.normalized
        assert check_ad_coinvariance(h, t)


def test_sweedler_integral_not_ad_invariant_issue():
    # H4 is neither commutative nor cocommutative but IS unimodular with
    # lambda satisfying the two-sided normalization over Q
    h = sweedler_h4(QQ)
    lam = find_integral(h, "in_dual", "two_sided")
    t = find_integral(h, "in_H", "two_sided")
    # H4 over Q is semisimple? No: radical nonzero, so t cannot normalize
    assert not t.normalized
    assert not lam.normalized


def test_maschke_consistency_sweep():
    # normalization in H succeeds iff the algebra is separable
    from hopfsplit.algebra import NotSeparable, separability_idempotent

    for n in range(1, 7):
        for f in (QQ, GF(2), GF(3), GF(5), GF(7)):
            h = group_algebra(n, f)
            t = find_integral(h, "in_H", "two_sided")
            try:
                separability_idempotent(h.as_algebra())
                sep = True
            except NotSeparable:
                sep = False
            assert sep == t.normalized
            if f.kind == "Fp":
                assert sep == (n % f.p != 0)


def test_is_algebra_map_checks():
    h = group_algebra(3, QQ)
    assert is_algebra_map(h.as_algebra(), h.as_algebra(), Matrix.identity(QQ, 3))
    assert is_coalgebra_map(h.as_coalgebra(), h.as_coalgebra(), h.antipode)
    flip = Matrix.from_entries(QQ, 3, 3, {(0, 0): QQ.one(), (1, 2): QQ.one(), (2, 1): QQ.one()})
    assert is_algebra_map(h.as_algebra(), h.as_algebra(), flip)  # inversion on Z3


def test_validate_computes_one_generating_set(monkeypatch):
    # one closure serves both the associativity join and the Delta check;
    # a broken counit or unit computes none
    from hopfsplit.algebra import AlgebraObject

    calls = []
    closure = AlgebraObject._generating_set
    monkeypatch.setattr(AlgebraObject, "_generating_set", lambda a, cap: calls.append((a.dim, cap)) or closure(a, cap))
    f = GF(7)
    h = taft(3, f.primitive_root_of_unity(3), f)
    assert h.validate().ok
    assert calls == [(9, 24)]
    assert h.validate().ok  # cached on the algebra
    assert calls == [(9, 24)]
    bad_counit = BialgebraObject(f, 9, h.mul, h.unit, h.comul, [f.zero()] * 9)
    bad_unit = BialgebraObject(f, 9, h.mul, [f.zero()] * 9, h.comul, h.counit)
    assert "coalgebra:counit" in dict(bad_counit.validate().failures())
    assert "algebra:unit" in dict(bad_unit.validate().failures())
    assert calls == [(9, 24)]
