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
    AlgebraObject,
    IdealData,
    NotSeparable,
    ValidationReport,
    constants_of,
    ideal_power_nilpotency,
    is_ideal,
    pairwise_products,
    separability_idempotent,
)
from .category import CatObject, CategoryContext
from .coalgebra import (
    CoalgebraObject,
    _outer,
    _tensors,
    coradical,
    coradical_filtration,
    dualize,
    grouplike_simple_pieces,
    in_tensor_square,
    is_subcoalgebra,
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
    _pi_linear_defect,
    _sigma_colinear_defect,
    actions_from_sigma,
    bosonize,
    coactions_from_pi,
    dual_bosonize,
    extract_quadruple_dual,
    extract_quadruple_primal,
)
from .tensors import SparseMap, StagePipeline


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
    # (proj (x) proj) Delta: the quotient's Delta on the complement basis,
    # and zero on the ideal exactly when the candidate is a coideal
    pm = SparseMap.from_matrix(proj, (n,), (dq,))
    delta = StagePipeline(f, (n,)).map_at(a.as_coalgebra().comul_map(), 0).map_at(pm, 0).map_at(pm, 1).matrix()
    counit = [a.counit_of(incl.col_list(t)) for t in range(dq)]
    q = BialgebraObject.from_parts(q_alg, CoalgebraObject.from_constants(f, dq, constants_of(delta @ incl, dq), counit,
                                                                         q_alg.labels))
    q.validate().require("quotient bialgebra")
    if not (delta @ ideal.basis.transpose()).is_zero():
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
    prods = d.coordinates(pairwise_products(a.as_algebra(), d.basis, d.basis))
    if prods is None:
        raise CertificationFailed("candidate is not closed under multiplication")
    unit = [a.unit[p] for p in d.pivots]
    labels = tuple(f"h{t}" for t in range(dd))
    b = BialgebraObject.from_parts(AlgebraObject.from_constants(f, dd, constants_of(prods, dd), unit, labels),
                                   CoalgebraObject.from_constants(f, dd, sub_co.table, sub_co.counit, labels))
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
    rep.record("sigma_right_colinear", _sigma_colinear_defect(h, sigma, coact_r, "r") is None,
               "sigma not right colinear")
    if level == "bicomodule":
        rep.record("sigma_left_colinear", _sigma_colinear_defect(h, sigma, coact_l, "l") is None,
                   "sigma not left colinear")
    rep.require("radical-side split")
    return SplitResult(certified, level, pi, sigma, h, rep)


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
    act_l, act_r = actions_from_sigma(a, sigma_c, h_cor.dim)
    ok = _pi_linear_defect(h_cor, pi_c, act_r, "r") is None and (
        level != "bicomodule" or _pi_linear_defect(h_cor, pi_c, act_l, "l") is None)
    rep.record("pi_bilinear" if level == "bicomodule" else "pi_right_linear", ok,
               "pi is not H-(bi)linear")
    # the image of sigma_C is the certified coradical
    img = Subspace.from_matrix_rows(sigma_c.transpose())
    rep.record("sigma_image_is_coradical", img == certified.candidate,
               "section image differs from the coradical")
    rep.require("coradical-side split")
    return SplitResult(certified, level, pi_c, sigma_c, h_cor, rep)


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
    from .smash import _diagram_yd

    yd, incl, _v = _diagram_yd(a, h, split_res.pi, split_res.sigma)
    phi = pairwise_products(a.as_algebra(), incl.transpose(), split_res.sigma.transpose()).transpose()
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
    return HopfObject.from_parts(a.as_algebra(), a.as_coalgebra(), s)


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
    return HopfObject.from_parts(a.as_algebra(), a.as_coalgebra(), s)


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
    coact_l, _ = coactions_from_pi(a, report.pi, dh)
    n, dm = a.dim, a.as_coalgebra().comul_matrix()
    for nstep, cn in enumerate(filt.steps):
        rn = r_space.intersect(cn)
        rep.record(f"dim_C{nstep}_eq_dimR{nstep}_times_dimH", cn.dim == rn.dim * h.dim,
                   f"dim C_{nstep} = {cn.dim} != {rn.dim} * {h.dim}")
        if nstep == 0:
            continue
        prev = filt.steps[nstep - 1]
        # Delta(r) - sigma(r_(-1)) (x) r_(0) - r (x) 1 in C_(n-1) (x) C_(n-1)
        rt = rn.basis.transpose()
        rho = coact_l @ rt  # column t: rho(r_t), row h n + x
        ok = all(in_tensor_square(a.as_coalgebra(), prev,
                                  delta - sigma @ rho._new(dh, n, rho._d[:, t].reshape(dh, n))
                                  - _outer(f, rn.basis.row_list(t), a.unit))
                 for t, delta in enumerate(_tensors(dm @ rt)))
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
        total = total + Subspace.from_matrix_rows(pairwise_products(a.as_algebra(), w.basis, sigma.transpose()))
    if len(filt.steps) > 1:
        rep.record("c1_identity", total == filt.steps[1], "degree-one subspace identity fails")
    else:
        rep.record("c1_identity", total == filt.steps[0], "degree-one identity (cosemisimple case)")
    return rep


def _span_from_iso_r(a: BialgebraObject, report: SplitReport, dr: int, dh: int) -> Subspace:
    """The diagram R embedded in A: phi(R # 1_H)."""
    one_r = StagePipeline(a.field, (dr,)).insert(1, report.hopf.unit, dh).matrix()  # r -> r # 1_H
    return Subspace.from_matrix_rows((report.iso @ one_r).transpose())


def run_radical_pipeline(a: BialgebraObject, candidate: Subspace, level: str = "bicomodule") -> SplitReport:
    cert = certify_split_input(a, "radical", candidate)
    res = split_radical(cert, level)
    return reconstruct_and_verify(a, res)


def run_coradical_pipeline(a: BialgebraObject, candidate: Subspace, level: str = "bicomodule") -> SplitReport:
    cert = certify_split_input(a, "coradical", candidate)
    res = split_coradical(cert, level)
    return reconstruct_and_verify(a, res)
