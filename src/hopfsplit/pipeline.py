"""End-to-end splitting pipelines.

Radical side: certify a nilpotent biideal with semisimple Hopf quotient,
lift the quotient identity to a (bi)colinear algebra section through the
nilpotent tower, extract the quadruple, bosonize and verify the
reconstruction isomorphism.

Coradical side: the same machinery run on the finite-dimensional dual
(the sub-Hopf coradical dualizes to the radical of the dual), with the
section transposed back to a bilinear coalgebra retraction.

Every matrix in a SplitReport re-verifies its defining property; solver
output is never trusted.
"""
from __future__ import annotations

from .algebra import (
    IdealData,
    NotSeparable,
    ValidationReport,
    ideal_power_nilpotency,
    is_ideal,
    pairwise_products,
    separability_idempotent,
)
from .category import CatObject, CategoryContext
from .coalgebra import (
    coradical,
    coradical_filtration,
    dualize,
    grouplike_simple_pieces,
    is_subcoalgebra,
    in_tensor_square,
    restrict_coalgebra,
    wedge2,
)
from .hochschild import AlgebraInContext, lift_through_tower
from .hopf import (
    BialgebraObject,
    HopfObject,
    check_ad_coinvariance,
    check_antipode,
    find_integral,
    is_algebra_map,
    is_coalgebra_map,
    upgrade_to_hopf,
)
from .linalg import Matrix, Subspace
from .smash import (
    coactions_from_pi,
    dual_bosonize,
    bosonize,
    extract_quadruple_dual,
    extract_quadruple_primal,
)
from .tensors import sparse_add, v_basis, v_eq, v_zero


class CertificationFailed(Exception):
    def __init__(self, check):
        super().__init__(f"split input certification failed: {check}")
        self.check = check


class CertifiedInput:
    """Certified data for one side of the splitting pipeline."""

    def __init__(self, side: str, bialgebra: BialgebraObject, candidate: Subspace,
                 hopf: HopfObject, proj: Matrix | None, incl: Matrix | None,
                 checks: ValidationReport, nil_index: int | None = None):
        self.side = side
        self.bialgebra = bialgebra
        self.candidate = candidate
        self.hopf = hopf  # the semisimple Hopf quotient (radical) / sub-Hopf (coradical)
        self.proj = proj  # A -> H (radical side)
        self.incl = incl  # H -> A (coradical side: inclusion matrix)
        self.checks = checks
        self.nil_index = nil_index


def quotient_bialgebra(a: BialgebraObject, ideal: Subspace):
    """Quotient bialgebra A / I for a biideal I; returns (Q, proj, incl)."""
    from .algebra import quotient_algebra

    f = a.field
    q_alg, proj = quotient_algebra(a.as_algebra(), IdealData(a.as_algebra(), ideal))
    n, dq = a.dim, q_alg.dim
    free = ideal.free_columns()
    incl = Matrix.from_entries(f, n, dq, {(fr, t): f.one() for t, fr in enumerate(free)})
    # counit must kill the ideal
    for t in range(ideal.dim):
        if not f.is_zero(a.counit_of(ideal.basis.row_list(t))):
            raise CertificationFailed("counit does not vanish on the candidate")
    # comultiplication descends iff the candidate is a coideal
    comul: dict = {}
    for t in range(dq):
        img = a.comul_vec(incl.col_list(t))
        col: dict = {}
        for (i, j), c in img.items():
            pi_ = proj.col_list(i)
            pj = proj.col_list(j)
            for s, x in enumerate(pi_):
                if f.is_zero(x):
                    continue
                for u, y in enumerate(pj):
                    if f.is_zero(y):
                        continue
                    key = (s, u)
                    v = f.add(col.get(key, f.zero()), f.mul(c, f.mul(x, y)))
                    if f.is_zero(v):
                        col.pop(key, None)
                    else:
                        col[key] = v
        if col:
            comul[t] = col
    counit = [a.counit_of(incl.col_list(t)) for t in range(dq)]
    q = BialgebraObject(f, dq, q_alg.mul, q_alg.unit, comul, counit, q_alg.labels)
    q.validate().require("quotient bialgebra")
    # well-definedness: (proj (x) proj) Delta must kill the ideal
    for t in range(ideal.dim):
        img = a.comul_vec(ideal.basis.row_list(t))
        acc: dict = {}
        for (i, j), c in img.items():
            pi_ = proj.col_list(i)
            pj = proj.col_list(j)
            for s, x in enumerate(pi_):
                if f.is_zero(x):
                    continue
                for u, y in enumerate(pj):
                    if f.is_zero(y):
                        continue
                    key = (s, u)
                    v = f.add(acc.get(key, f.zero()), f.mul(c, f.mul(x, y)))
                    if f.is_zero(v):
                        acc.pop(key, None)
                    else:
                        acc[key] = v
        if acc:
            raise CertificationFailed("candidate is not a coideal")
    return q, proj, incl


def sub_bialgebra(a: BialgebraObject, d: Subspace):
    """Bialgebra structure on a sub-bialgebra in its RREF basis.

    Returns (B, incl) with incl (dim x d.dim)."""
    f = a.field
    if not is_subcoalgebra(a.as_coalgebra(), d):
        raise CertificationFailed("candidate is not a subcoalgebra")
    if not d.contains_vector(a.unit):
        raise CertificationFailed("candidate does not contain the unit")
    sub_co, incl = restrict_coalgebra(a.as_coalgebra(), d)
    dd = d.dim
    piv = d.pivots
    mul: dict = {}
    for s in range(dd):
        sv = d.basis.row_list(s)
        for t in range(dd):
            prod = a.product(sv, d.basis.row_list(t))
            if not d.contains_vector(prod):
                raise CertificationFailed("candidate is not closed under multiplication")
            col = {u: prod[piv[u]] for u in range(dd) if not f.is_zero(prod[piv[u]])}
            if col:
                mul[(s, t)] = col
    unit = [a.unit[piv[u]] for u in range(dd)]
    b = BialgebraObject(f, dd, mul, unit, sub_co.comul, sub_co.counit,
                        tuple(f"h{t}" for t in range(dd)))
    b.validate().require("sub-bialgebra")
    return b, incl


def certify_split_input(a: BialgebraObject, side: str, candidate: Subspace,
                        max_nil: int = 64) -> CertifiedInput:
    """Certify the hypotheses of the chosen splitting side.

    radical:   candidate is a nilpotent biideal and A/candidate is a
               separable (semisimple) Hopf quotient -- hence candidate = J.
    coradical: candidate is a sub-bialgebra with antipode, separable as an
               algebra, and certified to be the coradical by the wedge
               tower; integral normalizations record the Maschke verdicts.
    """
    rep = ValidationReport()
    f = a.field
    if side == "radical":
        alg = a.as_algebra()
        if not is_ideal(alg, candidate):
            raise CertificationFailed("candidate is not a two-sided ideal")
        rep.record("ideal", True)
        from .algebra import NotNilpotentWithin

        try:
            powers, nil_index = ideal_power_nilpotency(alg, IdealData(alg, candidate), max_nil)
        except NotNilpotentWithin:
            raise CertificationFailed("candidate is not nilpotent")
        rep.record("nilpotent", True)
        q, proj, incl = quotient_bialgebra(a, candidate)
        rep.record("coideal_and_quotient_bialgebra", True)
        h = upgrade_to_hopf(q)
        rep.record("quotient_has_antipode", True)
        try:
            separability_idempotent(h.as_algebra())
        except NotSeparable:
            raise CertificationFailed("quotient is not separable (not semisimple)")
        rep.record("quotient_separable", True)
        return CertifiedInput(side, a, candidate, h, proj, incl, rep, nil_index)
    if side == "coradical":
        b, incl = sub_bialgebra(a, candidate)
        rep.record("sub_bialgebra", True)
        h = upgrade_to_hopf(b)
        rep.record("sub_bialgebra_has_antipode", True)
        coradical(a.as_coalgebra(), certified_candidate=candidate)
        rep.record("certified_coradical", True)
        try:
            separability_idempotent(h.as_algebra())
            rep.record("coradical_semisimple", True)
        except NotSeparable:
            raise CertificationFailed("coradical sub-bialgebra is not semisimple")
        lam = find_integral(h, "in_dual", "two_sided")
        rep.record("cosemisimple_normalization", lam.normalized,
                   None if lam.normalized else "dual integral does not normalize")
        return CertifiedInput(side, a, candidate, h, None, incl, rep)
    raise ValueError(f"unknown side {side!r}")


class SplitResult:
    def __init__(self, certified: CertifiedInput, level: str, pi: Matrix, sigma: Matrix,
                 hopf: HopfObject, checks: ValidationReport):
        self.certified = certified
        self.level = level
        self.pi = pi
        self.sigma = sigma
        self.hopf = hopf
        self.checks = checks


def _algebra_in_comodule_ctx(a: BialgebraObject, h: HopfObject, proj: Matrix,
                             level: str) -> AlgebraInContext:
    ctx = CategoryContext("comod_r" if level == "comodule" else "bicomod", h)
    coact_l, coact_r = coactions_from_pi(a, proj, h.dim)
    obj = CatObject(a.field, a.dim, h,
                    coact_l=coact_l if level == "bicomodule" else None,
                    coact_r=coact_r)
    return AlgebraInContext(ctx, a.as_algebra(), obj)


def split_radical(certified: CertifiedInput, level: str = "bicomodule") -> SplitResult:
    """Colinear algebra section of the canonical projection A -> A/J."""
    rep = ValidationReport()
    a = certified.bialgebra
    h = certified.hopf
    f = a.field
    if level == "bicomodule":
        t = find_integral(h, "in_H", "left")
        if not t.normalized:
            raise CertificationFailed("no normalized integral in the quotient")
        if not check_ad_coinvariance(h, t):
            raise CertificationFailed("quotient integral is not ad-coinvariant")
        rep.record("ad_coinvariant_integral", True)
    actx = _algebra_in_comodule_ctx(a, h, certified.proj, level)
    # B = H with its regular coactions
    reg = CatObject.regular(h)
    b_obj = CatObject(f, h.dim, h,
                      coact_l=reg.coact_l if level == "bicomodule" else None,
                      coact_r=reg.coact_r)
    b_actx = AlgebraInContext(actx.ctx, h.as_algebra(), b_obj)
    j_ideal = IdealData(a.as_algebra(), certified.candidate)
    f_map = Matrix.identity(f, h.dim)  # A/J and H share the complement basis
    sigma = lift_through_tower(actx, j_ideal, b_actx, f_map)
    pi = certified.proj
    # re-verify everything claimed
    rep.record("pi_sigma_id", (pi @ sigma) == Matrix.identity(f, h.dim), "pi sigma != id")
    rep.record("sigma_algebra_map", is_algebra_map(h.as_algebra(), a.as_algebra(), sigma),
               "sigma is not an algebra map")
    coact_l, coact_r = coactions_from_pi(a, pi, h.dim)
    ok_r = _sigma_right_colinear(a, h, sigma, coact_r)
    rep.record("sigma_right_colinear", ok_r, "sigma not right colinear")
    if level == "bicomodule":
        ok_l = _sigma_left_colinear(a, h, sigma, coact_l)
        rep.record("sigma_left_colinear", ok_l, "sigma not left colinear")
    rep.require("radical-side split")
    return SplitResult(certified, level, pi, sigma, h, rep)


def _sigma_right_colinear(a, h, sigma, coact_r) -> bool:
    f = a.field
    n, dh = a.dim, h.dim
    for hh in range(dh):
        lhs = coact_r.apply(sigma.col_list(hh))
        rhs = v_zero(f, n * dh)
        for (h1, h2), c in h.comul.get(hh, {}).items():
            for x, w in enumerate(sigma.col_list(h1)):
                if not f.is_zero(w):
                    rhs[x * dh + h2] = f.add(rhs[x * dh + h2], f.mul(c, w))
        if not v_eq(f, lhs, rhs):
            return False
    return True


def _sigma_left_colinear(a, h, sigma, coact_l) -> bool:
    f = a.field
    n, dh = a.dim, h.dim
    for hh in range(dh):
        lhs = coact_l.apply(sigma.col_list(hh))
        rhs = v_zero(f, dh * n)
        for (h1, h2), c in h.comul.get(hh, {}).items():
            for x, w in enumerate(sigma.col_list(h2)):
                if not f.is_zero(w):
                    rhs[h1 * n + x] = f.add(rhs[h1 * n + x], f.mul(c, w))
        if not v_eq(f, lhs, rhs):
            return False
    return True


def split_coradical(certified: CertifiedInput, level: str = "bicomodule") -> SplitResult:
    """Bilinear coalgebra retraction of the coradical inclusion, obtained by
    dualizing to the radical side over the dual Hopf algebra."""
    a = certified.bialgebra
    f = a.field
    dual_a = dualize(a)
    # radical of the dual = annihilator of the coradical
    jprime = Subspace.from_matrix_rows(certified.incl.transpose().kernel())
    cert_dual = certify_split_input(dual_a, "radical", jprime)
    res_dual = split_radical(cert_dual, level)
    rep = ValidationReport()
    for name, ok, wit in res_dual.checks.checks:
        rep.record("dual:" + name, ok, wit)
    # transpose back: pi_C = sigma'^T : A -> H'^*, sigma_C = pi'^T
    h_cor = dualize(res_dual.hopf)
    pi_c = res_dual.sigma.transpose()
    sigma_c = res_dual.pi.transpose()
    rep.record("pi_sigma_id", (pi_c @ sigma_c) == Matrix.identity(f, h_cor.dim), "pi sigma != id")
    rep.record("sigma_bialgebra_map",
               is_algebra_map(h_cor.as_algebra(), a.as_algebra(), sigma_c)
               and is_coalgebra_map(h_cor.as_coalgebra(), a.as_coalgebra(), sigma_c),
               "sigma is not a bialgebra map")
    rep.record("pi_coalgebra_map", is_coalgebra_map(a.as_coalgebra(), h_cor.as_coalgebra(), pi_c),
               "pi is not a coalgebra map")
    ok = _pi_bilinear(a, h_cor, pi_c, sigma_c, both="bicomodule" == level)
    rep.record("pi_bilinear" if level == "bicomodule" else "pi_right_linear", ok,
               "pi is not H-(bi)linear")
    # the image of sigma_C is the certified coradical
    img = Subspace.from_matrix_rows(sigma_c.transpose())
    rep.record("sigma_image_is_coradical", img == certified.candidate,
               "section image differs from the coradical")
    rep.require("coradical-side split")
    return SplitResult(certified, level, pi_c, sigma_c, h_cor, rep)


def _pi_bilinear(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix, both: bool) -> bool:
    f = a.field
    n, dh = a.dim, h.dim
    for hh in range(dh):
        sh = sigma.col_list(hh)
        for i in range(n):
            lhs = pi.apply(a.product(v_basis(f, n, i), sh))
            rhs = h.product(pi.apply(v_basis(f, n, i)), v_basis(f, dh, hh))
            if not v_eq(f, lhs, rhs):
                return False
            if both:
                lhs = pi.apply(a.product(sh, v_basis(f, n, i)))
                rhs = h.product(v_basis(f, dh, hh), pi.apply(v_basis(f, n, i)))
                if not v_eq(f, lhs, rhs):
                    return False
    return True


class SplitReport:
    """Full record of a splitting run: side, level, structure maps, the
    extracted quadruple, the bosonization, the reconstruction isomorphism
    and a ledger of every verified identity."""

    def __init__(self, side, level, bialgebra, hopf, pi, sigma, quadruple, bosonization,
                 iso, checks: ValidationReport, certified: CertifiedInput):
        self.side = side
        self.level = level
        self.bialgebra = bialgebra
        self.hopf = hopf
        self.pi = pi
        self.sigma = sigma
        self.quadruple = quadruple
        self.bosonization = bosonization
        self.iso = iso  # phi : R # H -> A
        self.checks = checks
        self.certified = certified


def reconstruct_and_verify(a: BialgebraObject, split_res: SplitResult) -> SplitReport:
    """Extract the quadruple, bosonize, and verify phi : R # H -> A is a
    bialgebra isomorphism (bijective + algebra map + coalgebra map)."""
    f = a.field
    h = split_res.hopf
    rep = ValidationReport()
    for name, ok, wit in split_res.checks.checks:
        rep.record("split:" + name, ok, wit)
    if split_res.certified.side == "radical":
        quad = extract_quadruple_primal(a, h, split_res.pi, split_res.sigma)
        bos = bosonize(quad)
    else:
        quad = extract_quadruple_dual(a, h, split_res.pi, split_res.sigma)
        bos = dual_bosonize(quad)
    rep.record("quadruple_axioms", True)
    rep.record("bosonization_valid", True)
    # phi(r # h) = r sigma(h)
    dr, dh = bos.r_dim, h.dim
    from .smash import _diagram_yd

    yd, incl, _v = _diagram_yd(a, h, split_res.pi, split_res.sigma)
    cols = {}
    for t in range(dr):
        rv = incl.col_list(t)
        for hh in range(dh):
            img = a.product(rv, split_res.sigma.col_list(hh))
            for x, c in enumerate(img):
                if not f.is_zero(c):
                    cols[(x, t * dh + hh)] = c
    phi = Matrix.from_entries(f, a.dim, dr * dh, cols)
    phi.inverse()  # bijectivity (raises if singular)
    rep.record("iso_bijective", True)
    rep.record("iso_algebra_map", is_algebra_map(bos.bialgebra.as_algebra(), a.as_algebra(), phi),
               "phi is not an algebra map")
    rep.record("iso_coalgebra_map", is_coalgebra_map(bos.bialgebra.as_coalgebra(), a.as_coalgebra(), phi),
               "phi is not a coalgebra map")
    rep.require("reconstruction")
    return SplitReport(split_res.certified.side, split_res.level, a, h, split_res.pi,
                       split_res.sigma, quad, bos, phi, rep, split_res.certified)


def hopf_upgrade(a: BialgebraObject, biideal: Subspace) -> HopfObject:
    """Antipode of A from the antipode of A / I, I a nilpotent biideal, by
    convolution-inverting through the nil ideal Hom(A, I)."""
    f = a.field
    q, proj, incl = quotient_bialgebra(a, biideal)
    hq = upgrade_to_hopf(q)
    n = a.dim
    s0 = incl @ hq.antipode @ proj
    u = _convolve(a, Matrix.identity(f, n), s0)
    # n_mat = u - u eps maps into the ideal; geometric series inverts u
    ueps = _u_eps(a)
    n_mat = u - ueps
    inv = ueps
    term = n_mat
    sign = -1
    guard = 0
    while not term.is_zero():
        inv = inv + (term.scale(f.from_int(sign)))
        term = _convolve(a, term, n_mat)
        sign = -sign
        guard += 1
        if guard > n + 2:
            raise ValueError("convolution series does not terminate (ideal not nilpotent?)")
    s = _convolve(a, s0, inv)
    ok, wit = check_antipode(a, s)
    if not ok:
        raise ValueError(f"lifted antipode fails verification: {wit}")
    return HopfObject(f, n, a.mul, a.unit, a.comul, a.counit, s, a.labels)


def hopf_upgrade_via_dual(a: BialgebraObject, coradical_incl: Matrix) -> HopfObject:
    """Antipode of A through its dual: the coradical annihilator is a
    nilpotent biideal of A*, Lemma-style lifting applies there, and the
    transpose is the antipode of A."""
    dual_a = dualize(a)
    jprime = Subspace.from_matrix_rows(coradical_incl.transpose().kernel())
    h_dual = hopf_upgrade(dual_a, jprime)
    s = h_dual.antipode.transpose()
    ok, wit = check_antipode(a, s)
    if not ok:
        raise ValueError(f"dual-lifted antipode fails verification: {wit}")
    return HopfObject(a.field, a.dim, a.mul, a.unit, a.comul, a.counit, s, a.labels)


def _convolve(a: BialgebraObject, fm: Matrix, gm: Matrix) -> Matrix:
    """(f * g)(x) = f(x1) g(x2) for endomorphism matrices: the products
    f(e_i) g(e_j), one column per pair (i, j), times the matrix of Delta."""
    prods = pairwise_products(a.as_algebra(), fm.transpose(), gm.transpose()).transpose()
    return prods @ a.as_coalgebra().comul_matrix()


def _u_eps(a: BialgebraObject) -> Matrix:
    fld = a.field
    n = a.dim
    cols = {}
    for k in range(n):
        e = a.counit[k]
        if fld.is_zero(e):
            continue
        for t, u in enumerate(a.unit):
            if not fld.is_zero(u):
                cols[(t, k)] = fld.mul(e, u)
    return Matrix.from_entries(fld, n, n, cols)


def corad_filtration_smash_check(a: BialgebraObject, report: SplitReport) -> ValidationReport:
    """Filtration/smash compatibility on a coradical-side report:
    dim C_n = dim R_n * dim H, the degree-n comultiplication membership for
    the R_n basis, and the degree-one subspace identity."""
    rep = ValidationReport()
    f = a.field
    h = report.hopf
    sigma = report.sigma
    if report.side != "coradical":
        raise ValueError("filtration check needs a coradical-side report")
    c0 = report.certified.candidate
    filt = coradical_filtration(a.as_coalgebra(), c0)
    rep.record("filtration_exhausts", filt.exhausts, "filtration does not exhaust")
    # R inside A: image of the reconstruction iso restricted to R # 1
    dr, dh = report.bosonization.r_dim, h.dim
    r_space = _span_from_iso_r(a, report, dr, dh)
    lengths = []
    for nstep, cn in enumerate(filt.steps):
        rn = r_space.intersect(cn)
        lengths.append((cn.dim, rn.dim))
        rep.record(f"dim_C{nstep}_eq_dimR{nstep}_times_dimH", cn.dim == rn.dim * h.dim,
                   f"dim C_{nstep} = {cn.dim} != {rn.dim} * {h.dim}")
        if nstep == 0:
            continue
        prev = filt.steps[nstep - 1]
        coact_l, _ = coactions_from_pi(a, report.pi, dh)
        ok = True
        for t in range(rn.dim):
            r = rn.basis.row_list(t)
            delta = a.comul_vec(r)
            # subtract sigma(r_(-1)) (x) r_(0) and r (x) 1
            rho = coact_l.apply(r)
            for idx, c in enumerate(rho):
                if f.is_zero(c):
                    continue
                hh, x = idx // a.dim, idx % a.dim
                sh = sigma.col_list(hh)
                for y, w in enumerate(sh):
                    if not f.is_zero(w):
                        delta = sparse_add(f, delta, {(y, x): f.neg(f.mul(c, w))})
            for x, c in enumerate(r):
                if f.is_zero(c):
                    continue
                for y, u in enumerate(a.unit):
                    if not f.is_zero(u):
                        delta = sparse_add(f, delta, {(x, y): f.neg(f.mul(c, u))})
            if not in_tensor_square(a.as_coalgebra(), prev, delta):
                ok = False
        rep.record(f"degree_{nstep}_membership", ok, f"R_{nstep} membership fails")
    # degree-one identity: C_1 = C_0 + sum (C(tau) wedge K 1) H
    pieces = grouplike_simple_pieces(a.as_coalgebra(), c0)
    if pieces is None:
        rep.record("c1_identity", False, "coradical has no grouplike basis (unsupported)")
        return rep
    one_span = Subspace.from_vectors(f, a.dim, [a.unit])
    total = c0
    for piece in pieces:
        w = wedge2(piece, one_span, a.as_coalgebra())
        # multiply by H: span of w_basis * sigma(h)
        prods = []
        for t in range(w.dim):
            wv = w.basis.row_list(t)
            for hh in range(h.dim):
                prods.append(a.product(wv, sigma.col_list(hh)))
        total = total + Subspace.from_vectors(f, a.dim, prods)
    if len(filt.steps) > 1:
        rep.record("c1_identity", total == filt.steps[1], "degree-one subspace identity fails")
    else:
        rep.record("c1_identity", total == filt.steps[0], "degree-one identity (cosemisimple case)")
    return rep


def _span_from_iso_r(a: BialgebraObject, report: SplitReport, dr: int, dh: int) -> Subspace:
    """The diagram R embedded in A: phi(R # 1_H)."""
    f = a.field
    vecs = []
    for t in range(dr):
        acc = v_zero(f, a.dim)
        for hh, u in enumerate(report.hopf.unit):
            if f.is_zero(u):
                continue
            col = report.iso.col_list(t * dh + hh)
            acc = [f.add(x, f.mul(u, y)) for x, y in zip(acc, col)]
        vecs.append(acc)
    return Subspace.from_vectors(f, a.dim, vecs)


def run_radical_pipeline(a: BialgebraObject, candidate: Subspace, level: str = "bicomodule") -> SplitReport:
    cert = certify_split_input(a, "radical", candidate)
    res = split_radical(cert, level)
    return reconstruct_and_verify(a, res)


def run_coradical_pipeline(a: BialgebraObject, candidate: Subspace, level: str = "bicomodule") -> SplitReport:
    cert = certify_split_input(a, "coradical", candidate)
    res = split_coradical(cert, level)
    return reconstruct_and_verify(a, res)
