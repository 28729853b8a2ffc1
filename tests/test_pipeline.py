"""Splitting pipelines at desk scale (the flagship run lives in acceptance)."""
from fractions import Fraction

import pytest

from hopfsplit.builtin import group_algebra
from hopfsplit.coalgebra import dualize
from hopfsplit.fields import QQ
from hopfsplit.hopf import check_antipode, is_coalgebra_map
from hopfsplit.linalg import Matrix, Subspace
from hopfsplit.pipeline import (
    CertificationFailed,
    certify_split_input,
    corad_filtration_smash_check,
    hopf_upgrade,
    hopf_upgrade_via_dual,
    reconstruct_and_verify,
    run_coradical_pipeline,
    run_radical_pipeline,
    split_coradical,
    split_radical,
)
from hopfsplit.tensors import v_basis


def h4_radical_candidate(f):
    return Subspace.from_vectors(f, 4, [v_basis(f, 4, 1), v_basis(f, 4, 3)])


def h4_coradical_candidate(f):
    return Subspace.from_vectors(f, 4, [v_basis(f, 4, 0), v_basis(f, 4, 2)])


def test_trivial_split_semisimple(h4_qq):
    h = group_algebra(3, QQ)
    cert = certify_split_input(h, "radical", Subspace.zero(QQ, 3))
    res = split_radical(cert, "bicomodule")
    rep = reconstruct_and_verify(h, res)
    assert rep.quadruple.yd.dim == 1
    assert rep.iso.rows == 3


def test_certify_rejects_non_ideal(h4_qq):
    bad = Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 2)])  # span(g): not an ideal
    with pytest.raises(CertificationFailed):
        certify_split_input(h4_qq, "radical", bad)


def test_certify_rejects_non_nilpotent():
    h = group_algebra(2, QQ)
    cand = Subspace.from_vectors(QQ, 2, [[Fraction(-1), Fraction(1)]])
    with pytest.raises(CertificationFailed):
        certify_split_input(h, "radical", cand)


def test_h4_radical_split_bicomodule(h4_qq):
    rep = run_radical_pipeline(h4_qq, h4_radical_candidate(QQ), "bicomodule")
    assert rep.quadruple.omega_is_trivial()
    # sigma sends g to the grouplike g
    assert rep.sigma.col_list(1) == [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
    # Radford direction: trivial omega <-> sigma is a coalgebra map
    assert is_coalgebra_map(rep.hopf.as_coalgebra(), h4_qq.as_coalgebra(), rep.sigma)


def test_h4_radical_split_comodule_level(h4_qq):
    rep = run_radical_pipeline(h4_qq, h4_radical_candidate(QQ), "comodule")
    assert rep.quadruple.omega_is_trivial()


def test_h4_coradical_split(h4_qq):
    rep = run_coradical_pipeline(h4_qq, h4_coradical_candidate(QQ), "bicomodule")
    assert rep.quadruple.xi_is_trivial()
    filt = corad_filtration_smash_check(h4_qq, rep)
    assert filt.ok, filt.failures()


def test_duality_consistency_h4(h4_qq):
    """Coradical pipeline on H4 = transposed radical pipeline on H4*."""
    rep_c = run_coradical_pipeline(h4_qq, h4_coradical_candidate(QQ), "bicomodule")
    dual = dualize(h4_qq)
    jprime = Subspace.from_matrix_rows(rep_c.certified.incl.transpose().kernel())
    rep_r = run_radical_pipeline(dual, jprime, "bicomodule")
    assert rep_c.pi == rep_r.sigma.transpose()
    assert rep_c.sigma == rep_r.pi.transpose()


def test_hopf_upgrade_h4_recovers_antipode(h4_qq):
    from hopfsplit.hopf import BialgebraObject

    b = BialgebraObject(QQ, 4, h4_qq.mul, h4_qq.unit, h4_qq.comul, h4_qq.counit)
    up = hopf_upgrade(b, h4_radical_candidate(QQ))
    assert up.antipode == h4_qq.antipode
    ok, _ = check_antipode(b, up.antipode)
    assert ok


def test_hopf_upgrade_zero_ideal():
    h = group_algebra(3, QQ)
    from hopfsplit.hopf import BialgebraObject

    b = BialgebraObject(QQ, 3, h.mul, h.unit, h.comul, h.counit)
    up = hopf_upgrade(b, Subspace.zero(QQ, 3))
    assert up.antipode == h.antipode


def test_hopf_upgrade_matches_direct_solve(h4_qq):
    # Lemma-style lift agrees with the direct convolution solve at small dims
    from hopfsplit.hopf import BialgebraObject, upgrade_to_hopf

    b = BialgebraObject(QQ, 4, h4_qq.mul, h4_qq.unit, h4_qq.comul, h4_qq.counit)
    direct = upgrade_to_hopf(b)
    lifted = hopf_upgrade(b, h4_radical_candidate(QQ))
    assert direct.antipode == lifted.antipode


def test_hopf_upgrade_via_dual(h4_qq):
    from hopfsplit.hopf import BialgebraObject

    b = BialgebraObject(QQ, 4, h4_qq.mul, h4_qq.unit, h4_qq.comul, h4_qq.counit)
    incl = Matrix.from_entries(QQ, 4, 2, {(0, 0): QQ.one(), (2, 1): QQ.one()})
    up = hopf_upgrade_via_dual(b, incl)
    assert up.antipode == h4_qq.antipode


def test_report_checks_are_all_true(h4_qq):
    rep = run_radical_pipeline(h4_qq, h4_radical_candidate(QQ))
    assert rep.checks.ok
    assert {"iso_bijective", "iso_algebra_map", "iso_coalgebra_map"} <= {n for n, _, _ in rep.checks.checks}


def test_radford_nontrivial_direction_on_dual_flagship(ha_f7, ha_report):
    """sigma is a coalgebra map iff the extracted cocycle is trivial: the
    dual-side split of the flagship has nontrivial omega and a section that
    is NOT a coalgebra map."""
    from hopfsplit.coalgebra import dualize
    from hopfsplit.smash import extract_quadruple_primal

    a_dual = dualize(ha_f7)
    h_dual = dualize(ha_report.hopf)
    sigma_d = ha_report.pi.transpose()
    q = extract_quadruple_primal(a_dual, h_dual, ha_report.sigma.transpose(), sigma_d)
    assert not q.omega_is_trivial()
    assert not is_coalgebra_map(h_dual.as_coalgebra(), a_dual.as_coalgebra(), sigma_d)


@pytest.mark.parametrize("side", ["radical", "coradical"])
def test_split_validates_the_input_bialgebra_once(h4_qq, side, monkeypatch):
    # H4 is validated when it is built, so neither it nor its dual (on the
    # coradical side) is validated again; a fresh object on the same
    # constants is validated once, and only for the bialgebra axioms (its
    # antipode is no hypothesis of the split)
    from hopfsplit.hopf import BialgebraObject, HopfObject

    seen = []
    for cls in (BialgebraObject, HopfObject):
        real = cls.validate
        monkeypatch.setattr(cls, "validate", lambda b, *a, real=real, cls=cls: seen.append((cls, b.dim)) or real(b, *a))
    cand = h4_radical_candidate(QQ) if side == "radical" else h4_coradical_candidate(QQ)
    split = split_radical if side == "radical" else split_coradical
    split(certify_split_input(h4_qq, side, cand), "bicomodule")
    assert (BialgebraObject, 4) not in seen and (HopfObject, 4) not in seen
    fresh = HopfObject.from_parts(h4_qq.as_algebra(), h4_qq.as_coalgebra(), h4_qq.antipode)
    seen.clear()
    split(certify_split_input(fresh, side, cand), "bicomodule")
    assert [s for s in seen if s[1] == 4] == [(BialgebraObject, 4)]


@pytest.mark.parametrize("side", ["radical", "coradical"])
def test_reconstruction_validates_its_quadruple_once(h4_qq, side, monkeypatch):
    from hopfsplit import smash

    calls = []
    for cls in (smash.YDQuadruple, smash.DualYDQuadruple):
        real = cls.validate
        monkeypatch.setattr(cls, "validate", lambda q, real=real: calls.append(type(q)) or real(q))
    report = run_radical_pipeline(h4_qq, h4_radical_candidate(QQ)) if side == "radical" else \
        run_coradical_pipeline(h4_qq, h4_coradical_candidate(QQ))
    assert report.checks.ok and len(calls) == 1


@pytest.mark.parametrize("side", ["radical", "coradical"])
def test_unknown_split_level_is_refused_before_any_work(h4_qq, side, monkeypatch):
    # a level other than the two is a caller's error, named with the allowed
    # values, and raised before an integral is sought or a dual is built
    import hopfsplit.pipeline as pipeline_mod

    candidate = h4_radical_candidate(QQ) if side == "radical" else h4_coradical_candidate(QQ)
    cert = certify_split_input(h4_qq, side, candidate)
    split = split_radical if side == "radical" else split_coradical

    def no_work(*args):
        raise AssertionError("the split started")

    for name in ("find_integral", "dualize", "lift_through_tower"):
        monkeypatch.setattr(pipeline_mod, name, no_work)
    for level in ("algebra", "Bicomodule", ""):
        with pytest.raises(ValueError, match=f"unknown split level {level!r}: expected 'comodule' or 'bicomodule'"):
            split(cert, level)
