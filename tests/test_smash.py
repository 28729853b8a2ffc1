"""Smash products, quadruples, bosonization, extraction."""
import sys
from math import prod

import numpy as np
import pytest

from dict_reference import constants_of
from hopfsplit import algebra, pipeline, smash
from hopfsplit.algebra import AlgebraObject
from hopfsplit.builtin import group_algebra, sweedler_h4, taft
from hopfsplit.category import YDObject
from hopfsplit.coalgebra import CoalgebraObject
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import is_algebra_map, is_coalgebra_map
from hopfsplit.linalg import Matrix, Subspace
from hopfsplit.tensors import v_basis
from hopfsplit.smash import (
    YDQuadruple,
    bosonize,
    dual_bosonize,
    extract_quadruple_dual,
    extract_quadruple_primal,
    smash_coproduct_coalgebra,
    smash_product_algebra,
    validate_bosonization,
)


def h4_split_data():
    f = QQ
    h4 = sweedler_h4(f)
    h2 = group_algebra(2, f)
    pi = Matrix.from_rows(f, [[1, 0, 0, 0], [0, 0, 1, 0]])
    sigma = Matrix.from_rows(f, [[1, 0], [0, 0], [0, 1], [0, 0]])
    return h4, h2, pi, sigma


def sign_line_yd(h2):
    """R = Q[y]/(y^2) with g.y = -y and rho(y) = g (x) y."""
    f = h2.field
    act = Matrix.from_entries(f, 2, 4, {
        (0, 0): f.one(), (1, 1): f.one(),          # action of 1
        (0, 2): f.one(), (1, 3): f.neg(f.one()),   # action of g
    })
    coact = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (3, 1): f.one()})
    yd = YDObject(h2, 2, act, coact)
    assert yd.validate().ok
    return yd


def sign_line_algebra(f):
    return AlgebraObject(f, 2, {(0, 0): {0: f.one()}, (0, 1): {1: f.one()}, (1, 0): {1: f.one()}},
                         [f.one(), f.zero()], ("1", "y"))


def h4_quadruple():
    f = QQ
    h2 = group_algebra(2, f)
    yd = sign_line_yd(h2)
    r_alg = sign_line_algebra(f)
    eps = [f.one(), f.zero()]
    delta = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (1, 1): f.one(), (2, 1): f.one()})
    omega = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (0, 1): f.one()})
    return YDQuadruple(h2, r_alg, yd, eps, delta, omega)


def test_smash_product_with_trivial_h_is_r():
    h1 = group_algebra(1, QQ)
    f = QQ
    r_alg = sign_line_algebra(f)
    act = Matrix.from_entries(f, 2, 2, {(0, 0): f.one(), (1, 1): f.one()})
    coact = Matrix.from_entries(f, 2, 2, {(0, 0): f.one(), (1, 1): f.one()})
    yd = YDObject(h1, 2, act, coact)
    out = smash_product_algebra(r_alg, yd, h1)
    assert out.dim == 2
    assert out.mul == r_alg.mul


def test_smash_product_is_h4():
    f = QQ
    h4, h2, pi, sigma = h4_split_data()
    yd = sign_line_yd(h2)
    out = smash_product_algebra(sign_line_algebra(f), yd, h2)
    # basis order r#h: (1#1, 1#g, y#1, y#g) vs H4 (1, x, g, gx):
    # match via phi(r#h) = r sigma(h): 1#1 -> 1, 1#g -> g, y#1 -> x, y#g -> xg = -gx
    phi = Matrix.from_entries(f, 4, 4, {
        (0, 0): f.one(), (2, 1): f.one(), (1, 2): f.one(), (3, 3): f.neg(f.one()),
    })
    assert is_algebra_map(out, h4.as_algebra(), phi)


def test_smash_coproduct_trivial_c_gives_h():
    f = QQ
    h2 = group_algebra(2, f)
    c = CoalgebraObject(f, 1, {0: {(0, 0): f.one()}}, [f.one()])
    coact = Matrix.from_entries(f, 2, 1, {(0, 0): f.one()})
    act = Matrix.from_entries(f, 1, 2, {(0, 0): f.one(), (0, 1): f.one()})
    out = smash_coproduct_coalgebra(c, YDObject(h2, 1, act, coact), h2)
    assert out.dim == 2
    assert out.comul == h2.comul


def test_quadruple_validates_and_bosonizes_to_h4():
    q = h4_quadruple()
    rep = q.validate()
    assert rep.ok, rep.failures()
    assert q.omega_is_trivial()
    bos = bosonize(q)
    h4 = sweedler_h4(QQ)
    f = QQ
    phi = Matrix.from_entries(f, 4, 4, {
        (0, 0): f.one(), (2, 1): f.one(), (1, 2): f.one(), (3, 3): f.neg(f.one()),
    })
    assert is_algebra_map(bos.bialgebra.as_algebra(), h4.as_algebra(), phi)
    assert is_coalgebra_map(bos.bialgebra.as_coalgebra(), h4.as_coalgebra(), phi)


def test_trivial_quadruple():
    f = QQ
    h1 = group_algebra(1, f)
    r = AlgebraObject(f, 1, {(0, 0): {0: f.one()}}, [f.one()])
    act = Matrix.from_entries(f, 1, 1, {(0, 0): f.one()})
    coact = Matrix.from_entries(f, 1, 1, {(0, 0): f.one()})
    yd = YDObject(h1, 1, act, coact)
    delta = Matrix.from_entries(f, 1, 1, {(0, 0): f.one()})
    omega = Matrix.from_entries(f, 1, 1, {(0, 0): f.one()})
    q = YDQuadruple(h1, r, yd, [f.one()], delta, omega)
    assert q.validate().ok
    bos = bosonize(q)
    assert bos.bialgebra.dim == 1


def test_extract_trivial_from_h_itself():
    h = group_algebra(3, QQ)
    ident = Matrix.identity(QQ, 3)
    q = extract_quadruple_primal(h, h, ident, ident)
    assert q.yd.dim == 1
    assert q.omega_is_trivial()


BIALGEBRA_CHECKS = ["algebra:shape", "algebra:associativity", "algebra:unit", "coalgebra:shape",
                    "coalgebra:coassociativity", "coalgebra:counit", "delta_unital", "eps_unital",
                    "eps_multiplicative", "delta_multiplicative"]
INDUCED_CHECKS = ["pi_sigma_id", "induced_right_coaction", "induced_left_coaction", "induced_right_action",
                  "induced_left_action"]
PRIMAL_CHECKS = ["bialgebra:" + c for c in BIALGEBRA_CHECKS] + [
    "pi_coalgebra_map", "sigma_algebra_map", "pi_algebra_map"] + INDUCED_CHECKS
DUAL_CHECKS = ["bialgebra:" + c for c in BIALGEBRA_CHECKS] + [
    "pi_coalgebra_map", "sigma_algebra_map", "sigma_coalgebra_map", "pi_bilinear"] + INDUCED_CHECKS


def test_extract_and_rebosonize_primal():
    h4, h2, pi, sigma = h4_split_data()
    q = extract_quadruple_primal(h4, h2, pi, sigma)
    assert q.omega_is_trivial()
    bos = bosonize(q)
    assert validate_bosonization(bos).checks == [(name, True, None) for name in PRIMAL_CHECKS]


def test_extract_bosonize_roundtrip_identity():
    # extract(bosonize(q)) returns the same quadruple data on the nose
    q = h4_quadruple()
    bos = bosonize(q)
    q2 = extract_quadruple_primal(bos.bialgebra, q.hopf, bos.pi, bos.sigma)
    assert q2.delta == q.delta
    assert q2.omega == q.omega
    assert q2.eps == q.eps
    assert q2.r_alg.mul == q.r_alg.mul


def test_extract_dual_h4():
    h4, h2, pi, sigma = h4_split_data()
    q = extract_quadruple_dual(h4, h2, pi, sigma)
    assert q.xi_is_trivial()
    bos = dual_bosonize(q)
    assert validate_bosonization(bos).checks == [(name, True, None) for name in DUAL_CHECKS]


def test_extraction_rejects_bad_premises():
    from hopfsplit.smash import ExtractionError

    h4, h2, pi, sigma = h4_split_data()
    bad_sigma = Matrix.from_rows(QQ, [[1, 0], [1, 0], [0, 1], [0, 0]])
    with pytest.raises(ExtractionError):
        extract_quadruple_primal(h4, h2, pi, bad_sigma)


def test_mutated_quadruple_fails_named_axiom():
    q = h4_quadruple()
    f = QQ
    # eps(y) = 1 breaks the YD-morphism property of eps
    bad = YDQuadruple(q.hopf, q.r_alg, q.yd, [f.one(), f.one()], q.delta, q.omega)
    rep = bad.validate()
    assert not rep.ok
    failed = {n for n, _ in rep.failures()}
    assert failed & {"yd0_action", "yd0_coaction"}


def test_forced_bosonization_of_mutation_fails_somewhere():
    q = h4_quadruple()
    f = QQ
    bad_delta = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (1, 1): f.one()})
    bad = YDQuadruple(q.hopf, q.r_alg, q.yd, q.eps, bad_delta, q.omega)
    assert not bad.validate().ok
    try:
        bos = bosonize(bad, force=True)
        rep = validate_bosonization(bos)
        assert not rep.ok
    except (ValueError, AssertionError):
        pass  # construction itself may explode, which also counts as failure


def test_flagship_bosonization_report_lists_every_check(ha_report):
    rep = validate_bosonization(ha_report.bosonization)
    assert rep.checks == [(name, True, None) for name in DUAL_CHECKS]


def test_dense_route_runs_the_h4_axioms_and_not_the_flagship_product(monkeypatch, ha_report):
    # H4's axiom equalities are tiny and run as dense arrays; the product
    # of the flagship's 81-dim dual bosonization has 81^2 inputs, one
    # block, but far more counted work than the dense route takes
    from hopfsplit import tensors

    ran, products = [], []
    run, constants = tensors._run_dense, smash.pipeline_constants
    monkeypatch.setattr(tensors, "_run_dense", lambda pipe: ran.append(pipe) or run(pipe))
    monkeypatch.setattr(smash, "pipeline_constants", lambda pipe, n: products.append(pipe) or constants(pipe, n))
    assert h4_quadruple().validate().ok
    assert ran
    del ran[:]
    q = ha_report.quadruple
    dual_bosonize(q, force=True)
    (mul_t,) = [p for p in products if p.in_dims == (q.yd.dim, q.hopf.dim) * 2]
    assert prod(mul_t.in_dims) <= tensors._BLOCK and mul_t not in ran


def _bumped_delta_quadruple():
    """The H4 quadruple with y (x) y added to Delta_R(1)."""
    q = h4_quadruple()
    f = QQ
    delta = q.delta + Matrix.from_entries(f, 4, 2, {(3, 0): f.one()})
    return YDQuadruple(q.hopf, q.r_alg, q.yd, q.eps, delta, q.omega)


def test_forced_bosonization_names_failing_delta_pair():
    # Delta_R(1) gains y (x) y, so Delta(1 # 1) is not 1 (x) 1 and the first
    # non-multiplicative basis pair is (e0, e0) = (1 # 1, 1 # 1)
    failures = dict(validate_bosonization(bosonize(_bumped_delta_quadruple(), force=True)).failures())
    assert failures["bialgebra:delta_multiplicative"] == "Delta(e0 e0) != Delta(e0)Delta(e0)"


def test_delta_witness_does_not_depend_on_the_generating_set():
    """The same invalid bialgebra names the same Delta pair whether its
    check runs on every row (no generating set within a cap of 0) or on the
    cached generating set {e1, e2}, whose rows fail first at (e1, e0)."""
    bi = bosonize(_bumped_delta_quadruple(), force=True).bialgebra
    full = dict(bi.validate(generator_cap=0).failures())
    assert bi.as_algebra().generating_basis_indices() == [1, 2]
    restricted = dict(bi.validate().failures())
    assert full["delta_multiplicative"] == restricted["delta_multiplicative"] == "Delta(e0 e0) != Delta(e0)Delta(e0)"


def test_quadruple_rejects_non_yd_algebra():
    # perturb the multiplication of R so it is no longer H-colinear
    q = h4_quadruple()
    f = QQ
    bad_mul = {k: dict(v) for k, v in q.r_alg.mul.items()}
    bad_mul[(1, 1)] = {1: f.one()}  # y*y = y lands in degree g instead of g*g = 1
    bad_alg = AlgebraObject(f, 2, bad_mul, q.r_alg.unit)
    q2 = YDQuadruple(q.hopf, bad_alg, q.yd, q.eps, q.delta, q.omega)
    rep = q2.validate()
    assert not rep.ok
    failed = {n for n, _ in rep.failures()}
    assert "R_mul_yd_colinear" in failed or "R_mul_yd_linear" in failed


def test_criterion_09_round_kernel_budget(monkeypatch):
    """One criterion-09 round on a fresh H4 quadruple whose delta has a
    bumped entry (validate, forced bosonize, validate_bosonization) makes a
    fixed number of calls to the kernels every stage and check runs
    through: `SparseMap.apply_at` (a map stage), `linalg._sum_terms`
    (every summation; `_summed` is its (col, key) form), `linalg._join`
    and `tensors._run_dense` (a whole pipeline as dense arrays).  Every
    pipeline of the round is tiny, so none of them takes a COO map stage."""
    import sys

    from hopfsplit import linalg, tensors

    f = QQ
    h2 = group_algebra(2, f)
    act = Matrix.from_entries(f, 2, 4, {(0, 0): f.one(), (1, 1): f.one(), (0, 2): f.one(), (1, 3): f.neg(f.one())})
    yd = YDObject(h2, 2, act, Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (3, 1): f.one()}))
    delta = Matrix.from_entries(f, 4, 2, {(0, 0): f.from_int(2), (1, 1): f.one(), (2, 1): f.one()})
    omega = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (0, 1): f.one()})
    q = YDQuadruple(h2, sign_line_algebra(f), yd, [f.one(), f.zero()], delta, omega)
    calls = dict.fromkeys(("apply_at", "_sum_terms", "_join", "_run_dense"), 0)

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("_sum_terms", "_join"):
        fn = getattr(linalg, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hopfsplit") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, spy(name, fn))
    monkeypatch.setattr(tensors.SparseMap, "apply_at", spy("apply_at", tensors.SparseMap.apply_at))
    monkeypatch.setattr(tensors, "_run_dense", spy("_run_dense", tensors._run_dense))
    assert not q.validate().ok
    assert not validate_bosonization(bosonize(q, force=True)).ok
    assert calls == {"apply_at": 0, "_sum_terms": 17, "_join": 12, "_run_dense": 65}


def test_tables_read_from_the_coo_match_the_dense_read_out(monkeypatch):
    """Every table built from a pipeline's COO, in the smash product, the
    smash coproduct, both bosonizations and the quotient bialgebra's Delta,
    equals array by array and in order `constants_of` of the pipeline's
    matrix.  The quadruples are those extracted from the radical and
    coradical splits of H4 over Q and of Taft T_3 over F_7."""
    seen = []

    def spy(pipe, n):
        got = algebra.pipeline_constants(pipe, n)
        seen.append((sys._getframe(1).f_code.co_name, got, constants_of(pipe.matrix(), n)))
        return got

    for mod in (smash, pipeline):
        monkeypatch.setattr(mod, "pipeline_constants", spy)
    f7 = GF(7)
    cases = [(sweedler_h4(QQ), QQ, 4, (1, 3), (0, 2)),
             (taft(3, 2, f7), f7, 9, [t for t in range(9) if t % 3], (0, 3, 6))]
    for a, f, n, rad, corad in cases:
        for run, idx in ((pipeline.run_radical_pipeline, rad), (pipeline.run_coradical_pipeline, corad)):
            run(a, Subspace.from_vectors(f, n, [v_basis(f, n, i) for i in idx]))
    assert {name for name, _, _ in seen} == {"smash_product_algebra", "bosonize", "smash_coproduct_coalgebra",
                                             "dual_bosonize", "quotient_bialgebra"}
    for _, got, want in seen:
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want, strict=True))
