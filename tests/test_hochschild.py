"""Cohomology, extensions, section correction and tower lifting."""
import random
from fractions import Fraction

import pytest

from hopfsplit.algebra import AlgebraObject, IdealData
from hopfsplit.builtin import group_algebra
from hopfsplit.category import CatObject, CategoryContext
from hopfsplit.fields import GF, QQ
from hopfsplit.hochschild import (
    AlgebraInContext,
    BimoduleInContext,
    Obstructed,
    cocycle_class_of_extension,
    cohomology,
    correct_section,
    differential,
    equivalent_extensions,
    extension_from_cocycle,
    find_ctx_section,
    lift_through_tower,
    quotient_in_context,
    unitalize_section,
)
from hopfsplit.linalg import Matrix, Subspace
from hopfsplit.tensors import v_basis


def vect_actx(alg):
    return AlgebraInContext(CategoryContext("vect"), alg, CatObject(alg.field, alg.dim))


def dual_numbers(f):
    one = f.one()
    mul = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    return AlgebraObject(f, 2, mul, [one, f.zero()], ("1", "x"))


def trivial_bimodule(actx, eps):
    f = actx.field
    n = actx.dim
    ent_l = {(0, i): eps[i] for i in range(n) if not f.is_zero(eps[i])}
    ent_r = {(0, i): eps[i] for i in range(n) if not f.is_zero(eps[i])}
    return BimoduleInContext(
        actx, CatObject(f, 1),
        Matrix.from_entries(f, 1, n, ent_l), Matrix.from_entries(f, 1, n, ent_r),
    )


SEED_ALGEBRAS = ["z1", "z2", "z3", "dual", "cubic", "prod2"]


def seed_algebra(name, f):
    one = f.one()
    if name == "z1":
        return AlgebraObject(f, 1, {(0, 0): {0: one}}, [one])
    if name == "z2":
        return group_algebra(2, f).as_algebra()
    if name == "z3":
        return group_algebra(3, f).as_algebra()
    if name == "dual":
        return dual_numbers(f)
    if name == "cubic":
        mul = {
            (0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
            (0, 2): {2: one}, (2, 0): {2: one}, (1, 1): {2: one},
        }
        return AlgebraObject(f, 3, mul, [one, f.zero(), f.zero()])
    if name == "prod2":
        mul = {(0, 0): {0: one}, (1, 1): {1: one}}
        return AlgebraObject(f, 2, mul, [one, one])
    raise ValueError(name)


def random_basis_change(alg, rng):
    """Conjugate the structure constants by a random invertible matrix."""
    f = alg.field
    n = alg.dim
    while True:
        rows = [[f.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        p = Matrix.from_rows(f, rows)
        try:
            pinv = p.inverse()
            break
        except Exception:
            continue
    mul = {}
    for i in range(n):
        for j in range(n):
            u = p.col_list(i)
            v = p.col_list(j)
            prod = pinv.apply(alg.product(u, v))
            col = {k: c for k, c in enumerate(prod) if not f.is_zero(c)}
            if col:
                mul[(i, j)] = col
    unit = pinv.apply(alg.unit)
    out = AlgebraObject(f, n, mul, unit)
    out.validate().require("random basis change")
    return out


def test_differentials_compose_to_zero_randomized():
    rng = random.Random(2024)
    for trial in range(20):
        name = SEED_ALGEBRAS[trial % len(SEED_ALGEBRAS)]
        f = QQ if trial % 2 == 0 else GF(5)
        alg = random_basis_change(seed_algebra(name, f), rng)
        actx = vect_actx(alg)
        mctx = BimoduleInContext.regular(actx)
        n, dm = alg.dim, mctx.dim
        # b1 b0 = 0 and b2 b1 = 0 on full bases of cochains
        for t in range(dm):
            f0 = Matrix.from_entries(f, dm, 1, {(t, 0): f.one()})
            assert differential(actx, mctx, 1, differential(actx, mctx, 0, f0)).is_zero()
        for t in range(dm):
            for x in range(n):
                f1 = Matrix.from_entries(f, dm, n, {(t, x): f.one()})
                assert differential(actx, mctx, 2, differential(actx, mctx, 1, f1)).is_zero()


def test_dual_numbers_cohomology_dims():
    alg = dual_numbers(QQ)
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    assert cohomology(actx, mctx, 0).dimension == 2
    assert cohomology(actx, mctx, 1).dimension == 1
    assert cohomology(actx, mctx, 2).dimension == 1


def test_degree_zero_is_center():
    alg = group_algebra(3, QQ).as_algebra()
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    assert cohomology(actx, mctx, 0).dimension == 3  # commutative: center = A


def test_separable_algebra_has_vanishing_h1_h2():
    for f in (QQ, GF(5)):
        alg = group_algebra(2, f).as_algebra()
        actx = vect_actx(alg)
        mctx = BimoduleInContext.regular(actx)
        assert cohomology(actx, mctx, 1).dimension == 0
        assert cohomology(actx, mctx, 2).dimension == 0


def test_field_algebra_trivial_higher_cohomology():
    alg = seed_algebra("z1", QQ)
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    assert cohomology(actx, mctx, 1).dimension == 0
    assert cohomology(actx, mctx, 2).dimension == 0


def test_b1_hand_expansion_oracle():
    # A = Q[x]/(x^2), M = A, f = x-dual derivation seed: f(1) = 0, f(x) = 1
    alg = dual_numbers(QQ)
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    fmat = Matrix.from_entries(QQ, 2, 2, {(0, 1): QQ.one()})
    b1f = differential(actx, mctx, 1, fmat)
    # hand expansion on the 4 basis pairs: b1(f)(a,b) = a f(b) - f(ab) + f(a) b
    expect = {}
    basis = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for i in range(2):
        for j in range(2):
            a, b = basis[i], basis[j]
            fa = fmat.apply(a)
            fb = fmat.apply(b)
            ab = alg.product(a, b)
            val = [x - y + z for x, y, z in zip(alg.product(a, fb), fmat.apply(ab), alg.product(fa, b))]
            for t, c in enumerate(val):
                if c:
                    expect[(t, i * 2 + j)] = c
    assert b1f == Matrix.from_entries(QQ, 2, 4, expect)


def test_extension_roundtrip_and_split_class():
    f = GF(2)
    alg = group_algebra(2, f).as_algebra()
    actx = vect_actx(alg)
    h = group_algebra(2, f)
    mctx = trivial_bimodule(actx, h.counit)
    h2 = cohomology(actx, mctx, 2)
    assert h2.dimension == 1
    for rep in h2.cocycle_reps:
        ext = extension_from_cocycle(actx, mctx, rep)
        omega, coords = cocycle_class_of_extension(ext)
        assert coords == [1]
    ext0 = extension_from_cocycle(actx, mctx, Matrix.zeros(f, 1, 4))
    _, coords0 = cocycle_class_of_extension(ext0)
    assert coords0 == [0]


def test_class_independent_of_section():
    f = GF(2)
    alg = group_algebra(2, f).as_algebra()
    actx = vect_actx(alg)
    mctx = trivial_bimodule(actx, group_algebra(2, f).counit)
    rep = cohomology(actx, mctx, 2).cocycle_reps[0]
    ext = extension_from_cocycle(actx, mctx, rep)
    s1 = find_ctx_section(ext)
    _, c1 = cocycle_class_of_extension(ext, s1)
    # a second section: add a kernel-valued perturbation tau
    tau = Matrix.from_entries(f, 1, 2, {(0, 1): f.one()})
    s2 = s1 + ext.incl @ tau
    _, c2 = cocycle_class_of_extension(ext, s2)
    assert c1 == c2


def test_correct_section_trivial_and_obstructed():
    f = GF(2)
    alg = group_algebra(2, f).as_algebra()
    actx = vect_actx(alg)
    mctx = trivial_bimodule(actx, group_algebra(2, f).counit)
    ext0 = extension_from_cocycle(actx, mctx, Matrix.zeros(f, 1, 4))
    sigma = unitalize_section(ext0, find_ctx_section(ext0))
    corrected = correct_section(ext0, sigma)
    assert (ext0.pi @ corrected) == Matrix.identity(f, 2)
    rep = cohomology(actx, mctx, 2).cocycle_reps[0]
    ext1 = extension_from_cocycle(actx, mctx, rep)
    sigma1 = unitalize_section(ext1, find_ctx_section(ext1))
    with pytest.raises(Obstructed) as exc:
        correct_section(ext1, sigma1)
    assert exc.value.coords == [1]


def test_equivalence_decision():
    f = GF(2)
    alg = group_algebra(2, f).as_algebra()
    actx = vect_actx(alg)
    mctx = trivial_bimodule(actx, group_algebra(2, f).counit)
    rep = cohomology(actx, mctx, 2).cocycle_reps[0]
    e0 = extension_from_cocycle(actx, mctx, Matrix.zeros(f, 1, 4))
    e1 = extension_from_cocycle(actx, mctx, rep)
    assert equivalent_extensions(e0, e1).status == "inequivalent"
    assert equivalent_extensions(e1, e1).status == "equivalent"
    # cohomologous cocycles give equivalent extensions (X pro 1.5.12)
    tau = Matrix.from_entries(f, 1, 2, {(0, 1): f.one()})
    rep2 = rep + differential(actx, mctx, 1, tau)
    e2 = extension_from_cocycle(actx, mctx, rep2)
    assert equivalent_extensions(e1, e2).status == "equivalent"


def test_upper_triangular_tower_lift():
    f = QQ
    basis = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    idx = {b: i for i, b in enumerate(basis)}
    mul = {}
    for a in basis:
        for b in basis:
            if a[1] == b[0]:
                mul[(idx[a], idx[b])] = {idx[(a[0], b[1])]: f.one()}
    unit = [f.one()] * 3 + [f.zero()] * 3
    alg = AlgebraObject(f, 6, mul, unit)
    actx = vect_actx(alg)
    j = IdealData(alg, Subspace.from_vectors(f, 6, [v_basis(f, 6, i) for i in (3, 4, 5)]))
    q1 = quotient_in_context(actx, j.subspace)
    b_actx = AlgebraInContext(actx.ctx, q1.actx.algebra, q1.actx.obj)
    lift = lift_through_tower(actx, j, b_actx, Matrix.identity(f, 3))
    # the section is the diagonal embedding, verified multiplicative on all 9 pairs
    for i in range(3):
        for jj in range(3):
            lhs = lift.apply(q1.actx.algebra.product(v_basis(f, 3, i), v_basis(f, 3, jj)))
            rhs = alg.product(lift.col_list(i), lift.col_list(jj))
            assert lhs == rhs
    assert lift == Matrix.from_entries(f, 6, 3, {(i, i): f.one() for i in range(3)})


def test_lift_with_zero_ideal_is_f():
    alg = group_algebra(2, QQ).as_algebra()
    actx = vect_actx(alg)
    j = IdealData(alg, Subspace.zero(QQ, 2))
    lift = lift_through_tower(actx, j, actx, Matrix.identity(QQ, 2))
    assert lift == Matrix.identity(QQ, 2)


def test_normalized_cocycle_kills_unit_slots():
    f = GF(2)
    alg = group_algebra(2, f).as_algebra()
    actx = vect_actx(alg)
    mctx = trivial_bimodule(actx, group_algebra(2, f).counit)
    for rep in cohomology(actx, mctx, 2).cocycle_reps:
        for x in range(2):
            assert all(f.is_zero(c) for c in rep.col_list(0 * 2 + x))
            assert all(f.is_zero(c) for c in rep.col_list(x * 2 + 0))


def test_field_algebra_vanishes_for_any_bimodule():
    # over the base field every bimodule is trivial and H^n = 0 for n >= 1
    alg = seed_algebra("z1", QQ)
    actx = vect_actx(alg)
    for dm in (1, 2, 3):
        ent = {(t, t): QQ.one() for t in range(dm)}
        mctx = BimoduleInContext(actx, CatObject(QQ, dm),
                                 Matrix.from_entries(QQ, dm, dm, ent),
                                 Matrix.from_entries(QQ, dm, dm, ent))
        assert cohomology(actx, mctx, 1).dimension == 0
        assert cohomology(actx, mctx, 2).dimension == 0


def test_degree_zero_cochains_are_coinvariants_in_comodule_context():
    from hopfsplit.builtin import group_algebra
    from hopfsplit.hochschild import cochain_space

    h = group_algebra(2, QQ)
    ctx = CategoryContext("comod_r", h)
    # A = H as a comodule algebra over itself
    from hopfsplit.category import CatObject as CO

    obj = CO(QQ, 2, h, coact_r=h.as_coalgebra().comul_matrix())
    actx = AlgebraInContext(ctx, h.as_algebra(), obj)
    mctx = BimoduleInContext.regular(actx)
    c0 = cochain_space(actx, mctx, 0)
    # M(1, H) = coinvariants of the regular coaction = K 1
    assert c0.dim == 1
    assert c0.basis[0].col_list(0) == [QQ.one(), QQ.zero()]


def _ut3_tower_step(f):
    """UT(3) with J its strictly upper triangular part: the first tower step
    A/J^2 -> A/J, with the unitalized ctx-lift of the identity of A/J."""
    from hopfsplit.algebra import ideal_power_nilpotency
    from hopfsplit.hochschild import _solve_ctx_lift, unitalize_section_generic

    basis = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    idx = {b: i for i, b in enumerate(basis)}
    mul = {(idx[a], idx[b]): {idx[(a[0], b[1])]: f.one()} for a in basis for b in basis if a[1] == b[0]}
    alg = AlgebraObject(f, 6, mul, [f.one()] * 3 + [f.zero()] * 3)
    actx = vect_actx(alg)
    j = IdealData(alg, Subspace.from_vectors(f, 6, [v_basis(f, 6, i) for i in (3, 4, 5)]))
    powers, _ = ideal_power_nilpotency(alg, j)
    cur, nxt = (quotient_in_context(actx, p) for p in powers[:2])
    b_actx = AlgebraInContext(actx.ctx, cur.actx.algebra, cur.actx.obj)
    p_r = cur.proj_from_full @ nxt.incl_to_full
    kr = Subspace(p_r.cols, p_r.kernel())
    s0 = _solve_ctx_lift(actx.ctx, b_actx, nxt.actx, cur, nxt, p_r, kr, Matrix.identity(f, 3), 0)
    return b_actx, nxt.actx, p_r, kr, unitalize_section_generic(b_actx, nxt.actx.algebra, p_r, s0)


@pytest.mark.parametrize("f", [QQ, GF(7)])
def test_corrupted_tower_step_raises_verification_failed(f, monkeypatch):
    from hopfsplit.algebra import VerificationFailed, multiplicativity_defect
    from hopfsplit.category import MapSolver
    from hopfsplit.hochschild import _tower_correct

    b_actx, q_actx, p_r, kr, sigma = _ut3_tower_step(f)
    corrected = _tower_correct(b_actx, q_actx, p_r, kr, sigma)
    assert multiplicativity_defect(b_actx.algebra, q_actx.algebra, corrected) is None
    # sigma no longer lifts an algebra map: its curvature leaves the kernel
    bad = sigma + Matrix.from_entries(f, sigma.rows, sigma.cols, {(0, 1): f.one()})
    with pytest.raises(VerificationFailed) as exc:
        _tower_correct(b_actx, q_actx, p_r, kr, bad)
    assert exc.value.check == "tower_curvature_in_kernel"
    assert exc.value.witness == (0, 1)
    assert isinstance(exc.value, AssertionError)
    # a solver answer off by a kernel term that keeps sigma(1): the
    # corrected section is unital but not multiplicative
    solve = MapSolver.solve_map

    def off_by_one(self):
        tau = solve(self)
        return tau + Matrix.from_entries(f, tau.rows, tau.cols, {(0, 0): f.one(), (0, 2): f.neg(f.one())})

    monkeypatch.setattr(MapSolver, "solve_map", off_by_one)
    with pytest.raises(VerificationFailed) as exc:
        _tower_correct(b_actx, q_actx, p_r, kr, sigma)
    assert exc.value.check == "tower_correction_multiplicative"
    wrong = corrected + Matrix.from_entries(f, 5, 3, {(3, 0): f.one(), (3, 2): f.neg(f.one())})
    assert exc.value.witness == multiplicativity_defect(b_actx.algebra, q_actx.algebra, wrong)


def _dense(o):
    """o's dim and structures, these as Matrices (None where o has none)."""
    from types import SimpleNamespace

    return SimpleNamespace(dim=o.dim, **{name: None if getattr(o, name) is None else getattr(o, name).matrix()
                                         for name in ("coact_l", "coact_r", "act_l", "act_r")})


def _ctx_morphism_loop(ctx, x, y, f_mat):
    """Pointwise reference: each structure checked on basis vectors."""
    from hopfsplit.tensors import v_tensor

    fld = x.field
    dh = ctx.hopf.dim
    x, y = _dense(x), _dense(y)
    cols = [f_mat.col_list(v) for v in range(x.dim)]
    for v in range(x.dim):
        ev = v_basis(fld, x.dim, v)
        if ctx.wants_right_coaction:
            rhs = [fld.zero()] * (y.dim * dh)
            for idx, c in enumerate(x.coact_r.apply(ev)):
                for yv, w in enumerate(cols[idx // dh]):
                    rhs[yv * dh + idx % dh] = fld.add(rhs[yv * dh + idx % dh], fld.mul(c, w))
            if y.coact_r.apply(cols[v]) != rhs:
                return False
        if ctx.wants_left_coaction:
            rhs = [fld.zero()] * (dh * y.dim)
            for idx, c in enumerate(x.coact_l.apply(ev)):
                for yv, w in enumerate(cols[idx % x.dim]):
                    k = (idx // x.dim) * y.dim + yv
                    rhs[k] = fld.add(rhs[k], fld.mul(c, w))
            if y.coact_l.apply(cols[v]) != rhs:
                return False
        for hh in range(dh):
            eh = v_basis(fld, dh, hh)
            if ctx.wants_right_action and (f_mat.apply(x.act_r.apply(v_tensor(fld, ev, eh)))
                                           != y.act_r.apply(v_tensor(fld, cols[v], eh))):
                return False
            if ctx.wants_left_action and (f_mat.apply(x.act_l.apply(v_tensor(fld, eh, ev)))
                                          != y.act_l.apply(v_tensor(fld, eh, cols[v]))):
                return False
    return True


@pytest.mark.parametrize("f", [QQ, GF(7)])
def test_ctx_morphism_check_matches_pointwise_loop(f):
    """The one morphism check against the pointwise loop, on maps from H,
    from H (x) H (the multiplication) and from H (x) K^2 (an action on the
    trivial object), each with single-entry changes: a tensor source is
    checked on its diagonal structures as pipelines, the loop on the dense
    `tensor_catobject`."""
    from hopfsplit.builtin import taft
    from hopfsplit.category import morphism_defects, tensor_catobject

    rng = random.Random(11)

    def variants(m):
        out = [m, Matrix.zeros(f, m.rows, m.cols), m.scale(f.from_int(3))]
        for _ in range(6):
            r, c = rng.randrange(m.rows), rng.randrange(m.cols)
            out.append(m + Matrix.from_entries(f, m.rows, m.cols, {(r, c): f.from_int(rng.randrange(1, 5))}))
        return out

    hopfs = [group_algebra(3, f), taft(2, f.from_int(-1), f)]
    for h in hopfs:
        x = CatObject.regular(h)
        t = CatObject.trivial(f, h, 2)
        n = h.dim
        counit_action = Matrix.from_entries(f, 2, n * 2, {(v, a * 2 + v): h.counit[a] for a in range(n)
                                                          for v in range(2) if not f.is_zero(h.counit[a])})
        for src, y, m0 in [(x, x, Matrix.identity(f, n)), ((x, x), x, h.as_algebra().mul_matrix()),
                           ((x, t), t, counit_action)]:
            dense = src if isinstance(src, CatObject) else tensor_catobject(*src)
            maps = variants(m0)
            seen = set()
            for kind in ("comod_r", "bicomod", "mod_r", "bimod"):
                ctx = CategoryContext(kind, h)
                for m in maps:
                    want = _ctx_morphism_loop(ctx, dense, y, m)
                    assert (not morphism_defects(ctx, src, y, m)) == want
                    seen.add(want)
            assert seen == {True, False}


def test_direct_sum_object_acts_on_each_summand_pointwise():
    """The object of an extension E = X (+) Y: each basis vector of a
    summand has that summand's (co)actions, moved to its place in E, for
    the regular T_2 and a tensor product, every structure on both sides."""
    from hopfsplit.builtin import taft
    from hopfsplit.category import tensor_catobject
    from hopfsplit.hochschild import _direct_sum_object
    from hopfsplit.tensors import v_tensor

    for f in (QQ, GF(7)):
        h = taft(2, f.from_int(-1), f)
        dh = h.dim
        x = CatObject.regular(h)
        y = tensor_catobject(CatObject.trivial(f, h, 2), x)
        n = x.dim + y.dim
        e = _dense(_direct_sum_object(CategoryContext("bimod", h), x, y))
        for part, off in ((_dense(x), 0), (_dense(y), x.dim)):

            def into(vec, left):  # a vector of H (x) part (left) or part (x) H as one of E's
                out = [f.zero()] * (n * dh)
                for k, c in enumerate(vec):
                    hh, w = divmod(k, part.dim) if left else divmod(k, dh)[::-1]
                    out[hh * n + off + w if left else (off + w) * dh + hh] = c
                return out

            def placed(vec):  # a vector of part as one of E's
                return [f.zero()] * off + vec + [f.zero()] * (n - off - part.dim)

            for v in range(part.dim):
                ev, pv = v_basis(f, n, off + v), v_basis(f, part.dim, v)
                assert e.coact_r.apply(ev) == into(part.coact_r.apply(pv), False)
                assert e.coact_l.apply(ev) == into(part.coact_l.apply(pv), True)
                for hh in range(dh):
                    eh = v_basis(f, dh, hh)
                    assert e.act_r.apply(v_tensor(f, ev, eh)) == placed(part.act_r.apply(v_tensor(f, pv, eh)))
                    assert e.act_l.apply(v_tensor(f, eh, ev)) == placed(part.act_l.apply(v_tensor(f, eh, pv)))


def test_escaping_coboundary_raises_verification_failed(monkeypatch):
    # b^1 corrupted by one entry: b^1(f)(1, 1) gains f(1), so the image of
    # the first basis cochain is no 2-cocycle
    import numpy as np

    from hopfsplit.algebra import VerificationFailed
    from hopfsplit.tensors import SparseMap

    alg = dual_numbers(QQ)
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    good = mctx.operator(1)
    src, dst, val = good.coo()
    bad = SparseMap(QQ, good.in_dims, good.out_dims, np.append(src, 0), np.append(dst, 0),
                    np.append(val, QQ.one()))
    operator = BimoduleInContext.operator
    monkeypatch.setattr(mctx, "operator", lambda n: bad if n == 1 else operator(mctx, n))
    with pytest.raises(VerificationFailed) as exc:
        cohomology(actx, mctx, 2)
    assert exc.value.check == "coboundaries_in_cocycles"
    assert exc.value.witness == (0,)


def test_class_of_non_cocycle_with_vanishing_h2_raises():
    # H^2(Q[Z_2], Q[Z_2]) = 0, so omega(1, 1) = 1, which is no coboundary,
    # is no cocycle either; its residue modulo the coboundaries is first
    # nonzero at (m, a, b) = (1, 0, 1)
    from hopfsplit.algebra import VerificationFailed
    from hopfsplit.hochschild import class_coordinates

    alg = group_algebra(2, QQ).as_algebra()
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    omega = Matrix.from_entries(QQ, 2, 4, {(0, 0): QQ.one()})
    assert not differential(actx, mctx, 2, omega).is_zero()
    with pytest.raises(VerificationFailed) as exc:
        class_coordinates(actx, mctx, omega)
    assert exc.value.check == "class_is_coboundary"
    assert exc.value.witness == (1, 0, 1)
