"""One certified nilpotent tower per split.

The chain J, J^2, ..., 0 is computed once, at certification, and recorded
on the candidate's IdealData; the tower reads it, builds no quotient for
its top level A/0 and validates none of its levels, and the sub-bialgebra
of the coradical side is not validated again.  Checked against the
re-validating tower of `tests/tower_reference.py`, with spies on the
checks that are now implied, and on the preconditions that must still
be computed."""
import collections

import pytest

import hopfsplit.algebra as algebra
import hopfsplit.hochschild as hochschild
import hopfsplit.pipeline as pipeline
from hopfsplit.algebra import (
    AlgebraObject,
    IdealData,
    ideal_power_nilpotency,
    quotient_algebra,
    radical,
)
from hopfsplit.builtin import group_algebra, sweedler_h4, taft
from hopfsplit.category import CatObject, CategoryContext
from hopfsplit.coalgebra import dualize
from hopfsplit.fields import GF, QQ
from hopfsplit.hochschild import AlgebraInContext, lift_through_tower
from hopfsplit.hopf import BialgebraObject
from hopfsplit.linalg import Matrix, Subspace
from hopfsplit.pipeline import (
    CertificationFailed,
    certify_split_input,
    reconstruct_and_verify,
    split_coradical,
    split_radical,
)
from hopfsplit.serialize import dumps, object_from_json, object_to_json, quadruple_to_json, report_to_json
from hopfsplit.tensors import v_basis

from tower_reference import revalidating_lift_through_tower, revalidating_quotient_in_context

TAFT_PRIMES = {3: 7, 4: 13, 5: 11, 6: 7}


def _taft(n):
    f = GF(TAFT_PRIMES[n])
    lam = next(x for x in range(2, f.p) if f.pow(x, n) == 1 and all(f.pow(x, d) != 1 for d in range(1, n)))
    return taft(n, lam, f)


def _span(f, dim, idxs):
    return Subspace.from_vectors(f, dim, [v_basis(f, dim, i) for i in idxs])


def _taft_candidate(n, side):
    """J = (x), spanned by g^i x^j with j > 0, or C_0 = span{g^i}."""
    f = GF(TAFT_PRIMES[n])
    keep = (lambda j: j > 0) if side == "radical" else (lambda j: j == 0)
    return _span(f, n * n, [i * n + j for i in range(n) for j in range(n) if keep(j)])


def _h4_candidate(side):
    return _span(QQ, 4, (1, 3) if side == "radical" else (0, 2))


def _split(a, side, cand):
    cert = certify_split_input(a, side, cand)
    res = split_radical(cert) if side == "radical" else split_coradical(cert)
    return reconstruct_and_verify(a, res)


def _same_report(got, want):
    assert got.sigma == want.sigma
    assert dumps(report_to_json(got)) == dumps(report_to_json(want))
    assert dumps(quadruple_to_json(got.quadruple)) == dumps(quadruple_to_json(want.quadruple))


CASES = ([(f"taft{n}-{side}", lambda n=n: _taft(n), lambda n=n, side=side: _taft_candidate(n, side), side)
          for n in (3, 4, 5) for side in ("radical", "coradical")]
         + [(f"h4-{side}", lambda: sweedler_h4(QQ), lambda side=side: _h4_candidate(side), side)
            for side in ("radical", "coradical")])


@pytest.mark.parametrize("name,build,candidate,side", CASES, ids=[c[0] for c in CASES])
def test_split_matches_the_revalidating_tower(name, build, candidate, side, monkeypatch):
    got = _split(build(), side, candidate())
    monkeypatch.setattr(pipeline, "lift_through_tower", revalidating_lift_through_tower)
    _same_report(got, _split(build(), side, candidate()))


def test_flagship_split_matches_the_revalidating_tower(ha_f7, ha_report, monkeypatch):
    f = GF(7)
    monkeypatch.setattr(pipeline, "lift_through_tower", revalidating_lift_through_tower)
    _same_report(ha_report, _split(ha_f7, "coradical", _span(f, 81, [9 * i for i in range(9)])))


class Spies:
    """Counts the checks of one split: power chains, ideal tests (with
    their subspaces), quotients (with their ideals' dims), the tower levels
    and sub-bialgebras built, and the algebras validated."""

    def __init__(self, monkeypatch):
        self.calls = collections.Counter()
        self.ideal_tests, self.quotient_dims, self.validated, self.built = [], [], [], []
        chain, test, quotient = algebra.ideal_power_nilpotency, algebra.is_ideal, algebra.quotient_algebra
        level, sub, validate = hochschild.quotient_in_context, pipeline.sub_bialgebra, AlgebraObject.validate

        def spy_chain(*args, **kw):
            self.calls["chain"] += 1
            return chain(*args, **kw)

        def spy_test(a, s):
            self.ideal_tests.append(s)
            return test(a, s)

        def spy_quotient(a, ideal):
            self.quotient_dims.append(ideal.dim)
            return quotient(a, ideal)

        def spy_level(actx, ideal):
            step = level(actx, ideal)
            self.built.append(step.actx.algebra)
            return step

        def spy_sub(a, d):
            b, incl = sub(a, d)
            self.built.append(b.as_algebra())
            return b, incl

        def spy_validate(alg, *args, **kw):
            self.validated.append(alg)
            return validate(alg, *args, **kw)

        for mod in (algebra, hochschild, pipeline):
            if hasattr(mod, "ideal_power_nilpotency"):
                monkeypatch.setattr(mod, "ideal_power_nilpotency", spy_chain)
        monkeypatch.setattr(algebra, "is_ideal", spy_test)
        monkeypatch.setattr(algebra, "quotient_algebra", spy_quotient)
        monkeypatch.setattr(hochschild, "quotient_in_context", spy_level)
        monkeypatch.setattr(pipeline, "sub_bialgebra", spy_sub)
        monkeypatch.setattr(AlgebraObject, "validate", spy_validate)


SPLITS = [(n, side) for n in (3, 4, 5) for side in ("radical", "coradical")]


@pytest.mark.parametrize("n,side", SPLITS)
def test_one_chain_one_ideal_test_and_no_level_validated_per_split(n, side, monkeypatch):
    a = _taft(n)
    cand = _taft_candidate(n, side)
    spies = Spies(monkeypatch)
    _split(a, side, cand)
    assert spies.calls["chain"] == 1
    # the ideal tested is the candidate J: on the radical side, or the
    # annihilator of C_0 in the dual on the coradical side
    assert len(spies.ideal_tests) == 1 and spies.ideal_tests[0].dim == n * (n - 1)
    # A/J once (the certificate's, which the tower's first level reuses),
    # then A/J^2, ..., A/J^(n-1): no A/0 at the top of the tower
    assert spies.quotient_dims == [n * (n - r) for r in range(1, n)]
    assert len(spies.built) == n - 1 + (side == "coradical")
    assert not {id(x) for x in spies.built} & {id(x) for x in spies.validated}


def test_the_radical_command_tests_its_candidate_once(monkeypatch):
    a = _taft(4).as_algebra()
    spies = Spies(monkeypatch)
    assert radical(a, IdealData(a, _taft_candidate(4, "radical"))).dim == 12
    assert spies.calls["chain"] == 1 and len(spies.ideal_tests) == 1
    assert spies.validated == []


def test_a_non_ideal_candidate_is_named():
    a = _taft(3)
    j_minus = _span(a.field, 9, [1, 2, 4, 5, 7])  # J without g^2 x^2
    with pytest.raises(CertificationFailed) as e:
        certify_split_input(a, "radical", j_minus)
    assert e.value.check == "candidate is not a two-sided ideal"
    alg = a.as_algebra()
    with pytest.raises(algebra.CertificationFailed) as e:
        radical(alg, IdealData(alg, j_minus))
    assert e.value.check == "candidate is not a two-sided ideal"


def test_the_square_of_the_radical_fails_delta_multiplicative():
    a = _taft(3)
    j2 = _span(a.field, 9, [2, 5, 8])  # (x^2): an ideal, not a coideal
    with pytest.raises(ValueError, match="delta_multiplicative"):
        certify_split_input(a, "radical", j2)


def _non_associative():
    """e0 = 1, e1 e1 = e2, e2 e1 = e1: (e1 e1) e1 = e1 but e1 (e1 e1) = 0."""
    f = QQ
    mul = {(0, i): {i: f.one()} for i in range(3)}
    mul.update({(i, 0): {i: f.one()} for i in range(1, 3)})
    mul[(1, 1)] = {2: f.one()}
    mul[(2, 1)] = {1: f.one()}
    return AlgebraObject(f, 3, mul, [f.one(), f.zero(), f.zero()])


def test_a_non_ideal_still_raises_on_direct_calls():
    a = _taft(3).as_algebra()
    fresh = AlgebraObject.from_constants(a.field, a.dim, a.table, a.unit)  # never validated
    j_minus = _span(a.field, 9, [1, 2, 4, 5, 7])
    for alg in (a, fresh):
        for ideal in (j_minus, IdealData(alg, j_minus)):
            with pytest.raises(ValueError, match="not an ideal"):
                quotient_algebra(alg, ideal)
        with pytest.raises(ValueError, match="not an ideal"):
            ideal_power_nilpotency(alg, IdealData(alg, j_minus))
    # a verdict recorded for another algebra object is not read
    other = IdealData(fresh, j_minus)
    other._ideal = True
    with pytest.raises(ValueError, match="not an ideal"):
        quotient_algebra(a, other)


def test_the_quotient_of_an_unverified_algebra_is_validated():
    bad = _non_associative()
    assert not bad._verified
    with pytest.raises(ValueError, match="quotient algebra failed"):
        quotient_algebra(bad, Subspace.zero(QQ, 3))
    a = _taft(3).as_algebra()
    j = _taft_candidate(3, "radical")
    q, _ = quotient_algebra(a, IdealData(a, j))
    assert q._verified  # implied: A is verified
    fresh = AlgebraObject.from_constants(a.field, a.dim, a.table, a.unit)
    q, _ = quotient_algebra(fresh, IdealData(fresh, j))
    assert q._verified and not fresh._verified  # validated: it passes


def test_powers_are_recorded_as_ideals_only_of_a_verified_algebra():
    a = _taft(4).as_algebra()
    j = IdealData(a, _taft_candidate(4, "radical"))
    powers, index = ideal_power_nilpotency(a, j)
    assert [p.subspace for p in j.powers] == powers and j.nil_index == index == 4
    assert j.powers[0].subspace is j.subspace and all(p._ideal for p in j.powers)
    fresh = AlgebraObject.from_constants(a.field, a.dim, a.table, a.unit)
    k = IdealData(fresh, j.subspace)
    ideal_power_nilpotency(fresh, k)
    assert k.powers[0]._ideal and not any(p._ideal for p in k.powers[1:])


def _vect(alg):
    return AlgebraInContext(CategoryContext("vect"), alg, CatObject(alg.field, alg.dim))


def test_a_tower_that_does_not_end_at_zero_is_refused_before_any_level(monkeypatch):
    a = _taft(3).as_algebra()
    j = IdealData(a, _taft_candidate(3, "radical"))
    ideal_power_nilpotency(a, j)
    j.powers = j.powers[:-1]  # J, J^2: no 0 at the end
    spies = Spies(monkeypatch)
    with pytest.raises(ValueError, match="ideal is not nilpotent"):
        lift_through_tower(_vect(a), j, _vect(a), Matrix.identity(a.field, 3))
    assert spies.quotient_dims == [] and spies.built == []


def test_the_tower_refuses_an_ideal_of_another_algebra():
    a = _taft(3).as_algebra()
    fresh = AlgebraObject.from_constants(a.field, a.dim, a.table, a.unit)
    with pytest.raises(ValueError, match="another algebra"):
        lift_through_tower(_vect(a), IdealData(fresh, _taft_candidate(3, "radical")), _vect(a),
                           Matrix.identity(a.field, 3))


def test_the_sub_bialgebra_of_an_unverified_bialgebra_is_validated(monkeypatch):
    a = _taft(3)
    fresh = object_from_json(object_to_json(a))
    assert not fresh._verified
    spies = Spies(monkeypatch)
    b, _ = pipeline.sub_bialgebra(fresh, _taft_candidate(3, "coradical"))
    assert b._verified and b.as_algebra() in spies.validated
    b, _ = pipeline.sub_bialgebra(a, _taft_candidate(3, "coradical"))
    assert b._verified and b.as_algebra()._verified and b.as_coalgebra()._verified
    assert b.as_algebra() not in spies.validated


def test_the_quotient_bialgebra_records_its_verified_algebra(monkeypatch):
    """A/J's algebra is verified when `quotient_algebra` makes it, so the
    quotient bialgebra's validation records algebra:shape, associativity
    and unit as passed, with the names and in the order a run of
    `AlgebraObject.validate` gives, without running it: a Taft n = 6
    radical split validates the extracted R and the bosonization only, one
    algebra fewer."""
    a, cand = _taft(6), _taft_candidate(6, "radical")
    q, _, _ = pipeline.quotient_bialgebra(a, cand)
    alg = q.as_algebra()
    assert alg._verified
    unverified = AlgebraObject.from_constants(alg.field, alg.dim, alg.table, alg.unit, alg.labels)
    want = BialgebraObject.from_parts(unverified, q.as_coalgebra()).validate().checks
    assert want[:3] == [(f"algebra:{name}", True, None) for name in ("shape", "associativity", "unit")]
    assert q.validate().checks == want
    spies = Spies(monkeypatch)
    _split(a, "radical", cand)
    assert [x.dim for x in spies.validated] == [6, 36]


def test_the_dual_of_a_verified_bialgebra_has_verified_parts():
    a = _taft(3)
    d = dualize(a)
    assert d._verified and d.as_algebra()._verified and d.as_coalgebra()._verified
    d = dualize(object_from_json(object_to_json(a)))
    assert not (d._verified or d.as_algebra()._verified or d.as_coalgebra()._verified)


def _levels(monkeypatch, a, side, cand):
    """(actx, ideal, step) of every tower level `quotient_in_context` built
    in the split of a at the candidate, bicomodule level."""
    levels, real = [], hochschild.quotient_in_context

    def spy(actx, ideal):
        step = real(actx, ideal)
        levels.append((actx, ideal, step))
        return step

    monkeypatch.setattr(hochschild, "quotient_in_context", spy)
    cert = certify_split_input(a, side, cand)
    split_radical(cert) if side == "radical" else split_coradical(cert)
    return levels


DESCENTS = [(f"taft{n}", lambda n=n: _taft(n), lambda n=n: _taft_candidate(n, "radical"), "radical")
            for n in (4, 5, 6)]


@pytest.mark.parametrize("name,build,candidate,side", DESCENTS, ids=[c[0] for c in DESCENTS])
def test_levels_descend_as_the_dense_product(name, build, candidate, side, monkeypatch):
    """Each level's coactions, descended by stage pipelines, are the dense
    (proj (x) id_H) co [ideal^T | incl]."""
    _assert_dense_descent(_levels(monkeypatch, build(), side, candidate()))


def test_flagship_levels_descend_as_the_dense_product(ha_f7, monkeypatch):
    _assert_dense_descent(_levels(monkeypatch, ha_f7, "coradical", _span(GF(7), 81, [9 * i for i in range(9)])))


def _assert_dense_descent(levels):
    assert levels
    for actx, ideal, step in levels:
        want = revalidating_quotient_in_context(actx, ideal.subspace).actx.obj
        got = step.actx.obj
        assert want.coact_l is not None and want.coact_r is not None
        for side in ("coact_l", "coact_r"):
            assert getattr(got, side).matrix() == getattr(want, side).matrix()


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_non_subcomodule_ideal_is_refused(side):
    """span{1 - g} is an ideal of Q[Z_2] but not a subcomodule of either
    side for the regular coactions: Delta(1 - g) = 1 (x) 1 - g (x) g."""
    h = group_algebra(2, QQ)
    reg = CatObject.regular(h)
    obj = CatObject(QQ, 2, h, coact_l=reg.coact_l if side == "left" else None,
                    coact_r=reg.coact_r if side == "right" else None)
    actx = AlgebraInContext(CategoryContext("comod_r" if side == "right" else "bicomod", h), h.as_algebra(), obj)
    ideal = Subspace.from_vectors(QQ, 2, [[QQ.one(), QQ.neg(QQ.one())]])
    with pytest.raises(ValueError, match=f"ideal is not a {side} subcomodule"):
        hochschild.quotient_in_context(actx, ideal)
