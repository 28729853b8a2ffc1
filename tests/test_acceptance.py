"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance (everything exact) and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
import random
import time
from fractions import Fraction

from hopfsplit.algebra import AlgebraObject, IdealData, NotSeparable, separability_idempotent, verify_separability_idempotent
from hopfsplit.builtin import group_algebra
from hopfsplit.category import CatObject, CategoryContext, YDObject, hopf_bimodule_from_yd, integral_retraction
from hopfsplit.coalgebra import coradical_filtration, dualize
from hopfsplit.fields import GF, QQ
from hopfsplit.hochschild import (
    AlgebraInContext,
    BimoduleInContext,
    cohomology,
    differential,
    equivalent_extensions,
    extension_from_cocycle,
    cocycle_class_of_extension,
    lift_through_tower,
    quotient_in_context,
)
from hopfsplit.hopf import check_ad_coinvariance, check_ad_invariance, find_integral, is_coalgebra_map
from hopfsplit.linalg import Matrix, Subspace
from hopfsplit.pipeline import (
    corad_filtration_smash_check,
    hopf_upgrade_via_dual,
    run_radical_pipeline,
)
from hopfsplit.smash import YDQuadruple, bosonize, extract_quadruple_primal, validate_bosonization
from hopfsplit.tensors import v_basis, v_tensor, v_zero


def _crit(num, name, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s / budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


# -- shared small constructions ---------------------------------------------


def vect_actx(alg):
    return AlgebraInContext(CategoryContext("vect"), alg, CatObject(alg.field, alg.dim))


def dual_numbers(f):
    one = f.one()
    mul = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    return AlgebraObject(f, 2, mul, [one, f.zero()], ("1", "x"))


def seed_algebra(name, f):
    one = f.one()
    if name == "z2":
        return group_algebra(2, f).as_algebra()
    if name == "z4":
        return group_algebra(4, f).as_algebra()
    if name == "dual":
        return dual_numbers(f)
    if name == "cubic":
        mul = {
            (0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
            (0, 2): {2: one}, (2, 0): {2: one}, (1, 1): {2: one},
        }
        return AlgebraObject(f, 3, mul, [one, f.zero(), f.zero()])
    if name == "mat2":
        # 2x2 matrix units E11, E12, E21, E22
        basis = [(1, 1), (1, 2), (2, 1), (2, 2)]
        idx = {b: i for i, b in enumerate(basis)}
        mul = {}
        for a in basis:
            for b in basis:
                if a[1] == b[0]:
                    mul[(idx[a], idx[b])] = {idx[(a[0], b[1])]: one}
        return AlgebraObject(f, 4, mul, [one, f.zero(), f.zero(), one])
    raise ValueError(name)


def random_basis_change(alg, rng):
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
            prod = pinv.apply(alg.product(p.col_list(i), p.col_list(j)))
            col = {k: c for k, c in enumerate(prod) if not f.is_zero(c)}
            if col:
                mul[(i, j)] = col
    out = AlgebraObject(f, n, mul, pinv.apply(alg.unit))
    out.validate().require("random basis change")
    return out


def trivial_bimodule(actx, eps):
    f = actx.field
    n = actx.dim
    ent = {(0, i): eps[i] for i in range(n) if not f.is_zero(eps[i])}
    return BimoduleInContext(actx, CatObject(f, 1),
                             Matrix.from_entries(f, 1, n, ent), Matrix.from_entries(f, 1, n, ent))


def h4_quadruple():
    f = QQ
    h2 = group_algebra(2, f)
    act = Matrix.from_entries(f, 2, 4, {(0, 0): f.one(), (1, 1): f.one(),
                                        (0, 2): f.one(), (1, 3): f.neg(f.one())})
    coact = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (3, 1): f.one()})
    yd = YDObject(h2, 2, act, coact)
    r_alg = AlgebraObject(f, 2, {(0, 0): {0: f.one()}, (0, 1): {1: f.one()}, (1, 0): {1: f.one()}},
                          [f.one(), f.zero()])
    eps = [f.one(), f.zero()]
    delta = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (1, 1): f.one(), (2, 1): f.one()})
    omega = Matrix.from_entries(f, 4, 2, {(0, 0): f.one(), (0, 1): f.one()})
    return YDQuadruple(h2, r_alg, yd, eps, delta, omega)


# -- criteria ----------------------------------------------------------------


def test_criterion_01_complex_property():
    t0 = time.time()
    rng = random.Random(20240915)
    names = ["z2", "z4", "dual", "cubic", "mat2"]
    ok = True
    for trial in range(20):
        f = QQ if trial % 2 == 0 else GF(5)
        alg = random_basis_change(seed_algebra(names[trial % len(names)], f), rng)
        actx = vect_actx(alg)
        mctx = BimoduleInContext.regular(actx)
        n, dm = alg.dim, mctx.dim
        for t in range(dm):
            f0 = Matrix.from_entries(f, dm, 1, {(t, 0): f.one()})
            if not differential(actx, mctx, 1, differential(actx, mctx, 0, f0)).is_zero():
                ok = False
        for t in range(dm):
            for x in range(n):
                f1 = Matrix.from_entries(f, dm, n, {(t, x): f.one()})
                if not differential(actx, mctx, 2, differential(actx, mctx, 1, f1)).is_zero():
                    ok = False
    _crit(1, "b1.b0 = 0 and b2.b1 = 0 on 20 randomized algebras", ok, time.time() - t0, 10)


def _oracle_dual_number_dims():
    """Independent brute-force rank oracle (standalone Gaussian elimination).

    Structure constants of Q[x]/(x^2) are written out by hand; the three
    differentials are assembled with explicit loops and row-reduced with a
    local routine that shares no code with the package.
    """
    def rank(rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        cnt = 0
        cols = len(rows[0]) if rows else 0
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    fct = rows[i][c]
                    rows[i] = [x - fct * y for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    # basis 1, x: products (i,j) -> vector
    def mul(i, j):
        if i == 0:
            return [1 if j == 0 else 0, 1 if j == 1 else 0]
        if j == 0:
            return [0, 1]
        return [0, 0]  # x * x = 0

    basis = (0, 1)
    # b0 : M -> Hom(A, M): b0(m)(a) = a m - m a (commutative: zero map)
    b0 = []
    for a in basis:
        for out in basis:
            row = []
            for m in basis:
                am = mul(a, m)
                ma = mul(m, a)
                row.append(am[out] - ma[out])
            b0.append(row)
    # b1 : Hom(A, M) -> Hom(A^2, M): b1(f)(a,b) = a f(b) - f(ab) + f(a) b
    b1 = []
    for a in basis:
        for b in basis:
            for out in basis:
                row = []
                for m in basis:  # f = E_{m, src}
                    for src in basis:
                        val = 0
                        fb = [1 if (src == b and t == m) else 0 for t in basis]
                        val += mul(a, 0)[out] * fb[0] + mul(a, 1)[out] * fb[1]
                        ab = mul(a, b)
                        val -= ab[src] * (1 if out == m else 0)
                        fa = [1 if (src == a and t == m) else 0 for t in basis]
                        val += mul(0, b)[out] * fa[0] + mul(1, b)[out] * fa[1]
                        row.append(val)
                b1.append(row)
    # b2(f)(a,b,c) = a f(b,c) - f(ab,c) + f(a,bc) - f(a,b) c
    b2 = []
    for a in basis:
        for b in basis:
            for c in basis:
                for out in basis:
                    row = []
                    for m in basis:
                        for s1 in basis:
                            for s2 in basis:
                                val = 0
                                if (s1, s2) == (b, c):
                                    val += mul(a, m)[out]
                                ab = mul(a, b)
                                if s2 == c:
                                    val -= ab[s1] * (1 if out == m else 0)
                                bc = mul(b, c)
                                if s1 == a:
                                    val += bc[s2] * (1 if out == m else 0)
                                if (s1, s2) == (a, b):
                                    val -= mul(m, c)[out]
                                row.append(val)
                    b2.append(row)
    r0, r1, r2 = rank(b0), rank(b1), rank(b2)
    h0 = 2 - r0
    h1 = (4 - r1) - r0
    h2 = (8 - r2) - r1
    return h0, h1, h2


def test_criterion_02_dual_numbers():
    t0 = time.time()
    oracle = _oracle_dual_number_dims()
    assert oracle == (2, 1, 1)  # frozen before the main build
    alg = dual_numbers(QQ)
    actx = vect_actx(alg)
    mctx = BimoduleInContext.regular(actx)
    dims = tuple(cohomology(actx, mctx, n).dimension for n in (0, 1, 2))
    _crit(2, "Q[x]/(x^2) cohomology (2, 1, 1) vs brute-force oracle",
          dims == oracle, time.time() - t0, 1)


def test_criterion_03_maschke_sweep():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        alg = group_algebra(n, QQ).as_algebra()
        e = separability_idempotent(alg)
        verify_separability_idempotent(alg, e)
    for p in (2, 3, 5):
        for n in range(1, 7):
            alg = group_algebra(n, GF(p)).as_algebra()
            try:
                e = separability_idempotent(alg)
                verify_separability_idempotent(alg, e)
                sep = True
            except NotSeparable:
                sep = False
            if sep != (n % p != 0):
                ok = False
    _crit(3, "K[Z_n] separability sweep (Q and F_p)", ok, time.time() - t0, 5)


def test_criterion_04_extension_classification():
    t0 = time.time()
    f = GF(2)
    alg = group_algebra(2, f).as_algebra()
    actx = vect_actx(alg)
    mctx = trivial_bimodule(actx, group_algebra(2, f).counit)
    h2 = cohomology(actx, mctx, 2)
    ok = h2.dimension >= 1
    exts = []
    for rep in h2.cocycle_reps:
        ext = extension_from_cocycle(actx, mctx, rep)
        _, coords = cocycle_class_of_extension(ext)
        expected = [f.one() if r is rep else f.zero() for r in h2.cocycle_reps]
        if coords != expected:
            ok = False
        exts.append(ext)
    ext0 = extension_from_cocycle(actx, mctx, Matrix.zeros(f, 1, 4))
    _, coords0 = cocycle_class_of_extension(ext0)
    if any(not f.is_zero(c) for c in coords0):
        ok = False
    for ext in exts:
        if equivalent_extensions(ext0, ext).status != "inequivalent":
            ok = False
        if equivalent_extensions(ext, ext).status != "equivalent":
            ok = False
    _crit(4, "extension classification over F_2[Z_2]", ok, time.time() - t0, 5)


def test_criterion_05_wedderburn_malcev():
    t0 = time.time()
    f = QQ
    basis = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    idx = {b: i for i, b in enumerate(basis)}
    mul = {}
    for a in basis:
        for b in basis:
            if a[1] == b[0]:
                mul[(idx[a], idx[b])] = {idx[(a[0], b[1])]: f.one()}
    alg = AlgebraObject(f, 6, mul, [f.one()] * 3 + [f.zero()] * 3)
    actx = vect_actx(alg)
    j = IdealData(alg, Subspace.from_vectors(f, 6, [v_basis(f, 6, i) for i in (3, 4, 5)]))
    q1 = quotient_in_context(actx, j.subspace)
    b_actx = AlgebraInContext(actx.ctx, q1.actx.algebra, q1.actx.obj)
    lift = lift_through_tower(actx, j, b_actx, Matrix.identity(f, 3))
    ok = True
    for i in range(3):
        for jj in range(3):
            lhs = lift.apply(q1.actx.algebra.product(v_basis(f, 3, i), v_basis(f, 3, jj)))
            rhs = alg.product(lift.col_list(i), lift.col_list(jj))
            if lhs != rhs:
                ok = False
    _crit(5, "Wedderburn-Malcev section for UT(3)", ok, time.time() - t0, 1)


def test_criterion_06_radford_roundtrip(h4_qq):
    t0 = time.time()
    rep = run_radical_pipeline(
        h4_qq, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 1), v_basis(QQ, 4, 3)]), "bicomodule"
    )
    ok = rep.quadruple.omega_is_trivial()
    ok = ok and rep.checks.ok
    ok = ok and is_coalgebra_map(rep.hopf.as_coalgebra(), h4_qq.as_coalgebra(), rep.sigma)
    _crit(6, "H4 radical-side split, trivial omega, Radford biproduct", ok, time.time() - t0, 5)


def test_criterion_07_flagship(ha_f7, ha_report):
    t0 = time.time()
    f = GF(7)
    rep = ha_report
    ok = rep.checks.ok
    # all eleven dual axioms pass (re-run the validator to count them)
    vrep = rep.quadruple.validate()
    ok = ok and vrep.ok
    named = {n for n, _, _ in vrep.checks}
    ok = ok and {"yd2_mul_linear", "yd3_xi_adjoint_linear", "yd4_mul_braided_comultiplicative",
                 "yd5_xi_cocycle", "yd6_twisted_colinearity", "yd7_xi_associativity",
                 "yd8_compatibility", "yd9_unit_r", "yd10_xi_unit_r"} <= named
    # xi(x2 (x) x1) = a (c^2 - 1), embedded back into A through sigma
    col = rep.quadruple.xi.col_list(1 * 9 + 3)  # R basis: t <-> x1^(t//3) x2^(t%3)
    val = rep.sigma.apply(col)
    expect = v_zero(f, 81)
    expect[18] = 1  # c^2
    expect[0] = f.neg(f.one())
    ok = ok and val == expect
    ok = ok and not rep.quadruple.xi_is_trivial()
    # antipode recovered through the dual without a hint
    up = hopf_upgrade_via_dual(rep.bialgebra, rep.certified.incl)
    ok = ok and up.antipode == ha_f7.antipode
    elapsed = time.time() - t0
    # the heavy work happened in the session fixture; budget covers the whole
    # pipeline, measured separately below
    _crit(7, "flagship p^4 example: split, 11 axioms, xi value, antipode", ok, elapsed, 300)


def test_criterion_08_flagship_filtration(ha_f7, ha_report):
    t0 = time.time()
    filt_rep = corad_filtration_smash_check(ha_f7, ha_report)
    ok = filt_rep.ok
    names = {n for n, _, _ in filt_rep.checks}
    ok = ok and any(n.startswith("dim_C") for n in names)
    ok = ok and "c1_identity" in names
    # dims strictly increase from 9 to 81
    filt = coradical_filtration(ha_f7.as_coalgebra(), ha_report.certified.candidate)
    dims = [s.dim for s in filt.steps]
    ok = ok and dims[0] == 9 and dims[-1] == 81 and all(a < b for a, b in zip(dims, dims[1:]))
    _crit(8, "coradical filtration theorem on the flagship", ok, time.time() - t0, 300)


def test_criterion_09_quadruple_iff_bialgebra(ha_f7, ha_report):
    t0 = time.time()
    # H4 quadruple bosonizes to a validated bialgebra (bosonize runs the
    # full validator internally and raises on any failed check)
    q = h4_quadruple()
    bos = bosonize(q)
    ok = validate_bosonization(bos).ok
    # the dual-side primal quadruple of the flagship bosonizes too
    a_dual = dualize(ha_f7)
    h_dual = dualize(ha_report.hopf)
    q_dual_side = extract_quadruple_primal(a_dual, h_dual,
                                           ha_report.sigma.transpose(), ha_report.pi.transpose())
    bos2 = bosonize(q_dual_side)  # raises unless every check passes
    ok = ok and bos2.bialgebra.dim == 81
    ok = ok and not q_dual_side.omega_is_trivial()
    # 11 single-axiom mutations each force a failing bosonization
    f = QQ
    fam_names = {
        0: {"yd0_action", "yd0_coaction"}, 1: {"yd1_multiplicative"},
        2: {"yd2_delta_colinear"}, 3: {"yd3_omega_colinear"},
        4: {"yd4_delta_braided_multiplicative", "yd4_delta_unital"},
        5: {"yd5_omega_cocycle", "yd5_omega_unital"}, 6: {"yd6_twisted_linearity"},
        7: {"yd7_omega_coassoc"}, 8: {"yd8_compatibility"},
        9: {"yd9_delta_counit_l", "yd9_delta_counit_r"},
        10: {"yd10_omega_counit_l", "yd10_omega_counit_r"},
    }
    cands = []
    for mat_name in ("delta", "omega"):
        for i in range(4):
            for j in range(2):
                for val in (1, 2, -1):
                    cands.append((mat_name, i, j, val))
    for j in range(2):
        for val in (1, 2, -1):
            cands.append(("eps", 0, j, val))
    found = {}
    for cand in cands:
        name, i, j, val = cand
        d, o, e = q.delta, q.omega, list(q.eps)
        bump = Matrix.from_entries(f, 4, 2, {(i, j): f.from_int(val)})
        if name == "delta":
            d = q.delta + bump
        elif name == "omega":
            o = q.omega + bump
        else:
            e[j] = f.add(e[j], f.from_int(val))
        mq = YDQuadruple(q.hopf, q.r_alg, q.yd, e, d, o)
        vrep = mq.validate()
        if vrep.ok:
            continue
        bad = {n for n, _ in vrep.failures()}
        for k, names in fam_names.items():
            if k not in found and bad & names:
                found[k] = mq
    ok = ok and len(found) == 11
    for k, mq in sorted(found.items()):
        try:
            bb = bosonize(mq, force=True)
            if validate_bosonization(bb).ok:
                ok = False
        except (ValueError, AssertionError):
            pass  # construction exploded: the claimed structure cannot exist
    _crit(9, "quadruple axioms <=> bialgebra (with 11 mutations)", ok, time.time() - t0, 30)


def test_criterion_10_integral_machinery():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        h = group_algebra(n, QQ)
        lam = find_integral(h, "in_dual", "two_sided")
        t = find_integral(h, "in_H", "two_sided")
        ok = ok and lam.normalized and t.normalized
        ok = ok and check_ad_invariance(h, lam)
        ok = ok and check_ad_coinvariance(h, t)
    # mu_M retraction on 10 random Hopf bimodules over Q[Z2]
    h = group_algebra(2, QQ)
    lam = find_integral(h, "in_dual", "two_sided")
    rng = random.Random(42)
    f = QQ
    made = 0
    while made < 10:
        dims = [rng.randrange(0, 3) for _ in range(2)]
        if sum(dims) == 0:
            continue
        total = sum(dims)
        act_e, coact_e = {}, {}
        pos = 0
        for g in range(2):
            for _ in range(dims[g]):
                sign = f.one() if rng.random() < 0.5 else f.neg(f.one())
                coact_e[(g * total + pos, pos)] = f.one()
                for k in range(2):
                    act_e[(pos, k * total + pos)] = f.pow(sign, k)
                pos += 1
        yd = YDObject(h, total, Matrix.from_entries(f, total, 2 * total, act_e),
                      Matrix.from_entries(f, 2 * total, total, coact_e))
        if not yd.validate().ok:
            continue
        m = hopf_bimodule_from_yd(yd)
        mu = integral_retraction(h, lam, m)  # retraction identity verified inside
        ok = ok and _mu_is_morphism(h, m, mu)
        made += 1
    _crit(10, "integrals, ad-(co)invariance and the mu_M retraction", ok, time.time() - t0, 10)


def _mu_is_morphism(h, m, mu) -> bool:
    """mu : H (x) M (x) H -> M is a bicomodule and bimodule morphism for the
    canonical structures on H (x) M (x) H (outer coactions, diagonal actions
    through the coactions of A = H)."""
    f = h.field
    dh, dm = h.dim, m.dim
    coact_l, coact_r, act_l = m.coact_l.matrix(), m.coact_r.matrix(), m.act_l.matrix()
    for hh in range(dh):
        for mm in range(dm):
            for kk in range(dh):
                src = v_zero(f, dh * dm * dh)
                src[(hh * dm + mm) * dh + kk] = f.one()
                out = mu.apply(src)
                # left coaction: Delta_H on the first factor
                lhs = coact_l.apply(out)
                rhs = v_zero(f, dh * dm)
                for (h1, h2), c in h.comul.get(hh, {}).items():
                    src2 = v_zero(f, dh * dm * dh)
                    src2[(h2 * dm + mm) * dh + kk] = f.one()
                    img = mu.apply(src2)
                    for t, w in enumerate(img):
                        if not f.is_zero(w):
                            rhs[h1 * dm + t] = f.add(rhs[h1 * dm + t], f.mul(c, w))
                if lhs != rhs:
                    return False
                # right coaction: Delta_H on the last factor
                lhs = coact_r.apply(out)
                rhs = v_zero(f, dm * dh)
                for (k1, k2), c in h.comul.get(kk, {}).items():
                    src2 = v_zero(f, dh * dm * dh)
                    src2[(hh * dm + mm) * dh + k1] = f.one()
                    img = mu.apply(src2)
                    for t, w in enumerate(img):
                        if not f.is_zero(w):
                            rhs[t * dh + k2] = f.add(rhs[t * dh + k2], f.mul(c, w))
                if lhs != rhs:
                    return False
                # left action of a in A = H: a (h (x) m (x) k) =
                #   a_(-1) h (x) a_(0) m (x) a_(1) k  with coactions Delta^2
                for av in range(dh):
                    lhs = act_l.apply(v_tensor(f, v_basis(f, dh, av), out))
                    rhs = v_zero(f, dm)
                    for (a1, a2), c in h.comul.get(av, {}).items():
                        for (a2a, a2b), c2 in h.comul.get(a2, {}).items():
                            for hp, c3 in h.mul.get((a1, hh), {}).items():
                                for kp, c4 in h.mul.get((a2b, kk), {}).items():
                                    mid = act_l.apply(v_tensor(f, v_basis(f, dh, a2a), v_basis(f, dm, mm)))
                                    for t, w in enumerate(mid):
                                        if f.is_zero(w):
                                            continue
                                        src3 = v_zero(f, dh * dm * dh)
                                        src3[(hp * dm + t) * dh + kp] = f.one()
                                        img = mu.apply(src3)
                                        coef = f.mul(f.mul(c, c2), f.mul(c3, f.mul(c4, w)))
                                        for u, z in enumerate(img):
                                            if not f.is_zero(z):
                                                rhs[u] = f.add(rhs[u], f.mul(coef, z))
                    if lhs != rhs:
                        return False
    return True


def test_criterion_11_duality_consistency(h4_qq):
    t0 = time.time()
    from hopfsplit.pipeline import run_coradical_pipeline

    rep_c = run_coradical_pipeline(
        h4_qq, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 0), v_basis(QQ, 4, 2)]), "bicomodule"
    )
    dual = dualize(h4_qq)
    jprime = Subspace.from_matrix_rows(rep_c.certified.incl.transpose().kernel())
    rep_r = run_radical_pipeline(dual, jprime, "bicomodule")
    ok = rep_c.pi == rep_r.sigma.transpose()
    ok = ok and rep_c.sigma == rep_r.pi.transpose()
    ok = ok and dualize(rep_c.hopf).mul == rep_r.hopf.mul
    _crit(11, "coradical pipeline = dualized radical pipeline on H4", ok, time.time() - t0, 5)


def test_flagship_total_runtime_budget(ha_f7, ha_report):
    """The 5-minute budget covers build + certify + split + reconstruct;
    re-measure a fresh end-to-end run."""
    from hopfsplit.builtin import build_ha
    from hopfsplit.pipeline import certify_split_input, reconstruct_and_verify, split_coradical

    t0 = time.time()
    f = GF(7)
    ha = build_ha(3, f, 2, 1)
    d = Subspace.from_vectors(f, 81, [v_basis(f, 81, i * 9) for i in range(9)])
    cert = certify_split_input(ha, "coradical", d)
    res = split_coradical(cert, "bicomodule")
    rep = reconstruct_and_verify(ha, res)
    elapsed = time.time() - t0
    print(f"\n[flagship] fresh end-to-end run: {elapsed:.1f}s (budget 300s)")
    assert rep.checks.ok
    assert elapsed < 300
