"""The nilpotent tower as the package built it before the power chain was
recorded, kept as a reference for the tests: the chain J, J^2, ..., 0 is
computed afresh, every level, A/0 included, is a `quotient_algebra` that
tests the ideal and validates the quotient, and every level's coactions
are descended."""
import numpy as np

from hopfsplit.algebra import (
    AlgebraObject,
    IdealData,
    VerificationFailed,
    ideal_power_nilpotency,
    is_ideal,
    multiplicativity_defect,
    pairwise_products,
)
from hopfsplit.category import CatObject
from hopfsplit.hochschild import (
    AlgebraInContext,
    QuotientStep,
    _solve_ctx_lift,
    _tower_correct,
    unitalize_section_generic,
)
from hopfsplit.linalg import Matrix, SparseMap, Subspace, _matmul


def revalidating_quotient_algebra(a: AlgebraObject, s: Subspace):
    """A / I on the complement basis of I's RREF; the ideal is tested, Q
    validated and the projection checked multiplicative on every call."""
    if not is_ideal(a, s):
        raise ValueError("not an ideal")
    f, n = a.field, a.dim
    free = s.free_columns()
    qdim = len(free)
    proj = s.complement_projection()
    eye = Matrix.identity(f, n)
    basis = eye._new(qdim, n, eye._d[free])
    consts = pairwise_products(a, basis, basis).matmul(SparseMap.from_matrix(proj, (n,), (qdim,)))
    q = AlgebraObject.from_constants(f, qdim, (*np.divmod(consts.src, qdim), consts.dst, consts.values.fractions()),
                                     proj.apply(a.unit), tuple(a.labels[fr] for fr in free))
    q.validate().require("quotient algebra")
    bad = multiplicativity_defect(a, q, proj)
    if bad is not None:
        raise VerificationFailed("projection_algebra_map", bad)
    return q, proj


def _along_factor(p: Matrix, m: Matrix, dh: int, side: str) -> Matrix:
    """(p (x) id_H) m when side is "r" (rows of m indexed (x, h)), and
    (id_H (x) p) m when side is "l" (rows (h, x)), without forming the
    tensor product of the maps."""
    n, w = p.cols, m.cols
    d = m._d.reshape(n, dh * w) if side == "r" else m._d.reshape(dh, n, w).transpose(1, 0, 2).reshape(n, dh * w)
    out = _matmul(p.field, p._d, d).reshape(p.rows, dh, w)  # (q, h, column)
    if side == "l":
        out = out.transpose(1, 0, 2)
    return Matrix(p.field, p.rows * dh, w, out.reshape(-1, w), _raw=True)


def revalidating_quotient_in_context(actx: AlgebraInContext, s: Subspace) -> QuotientStep:
    """`revalidating_quotient_algebra` with its coactions descended."""
    fld = actx.field
    q, proj = revalidating_quotient_algebra(actx.algebra, s)
    n, dq = actx.dim, q.dim
    free = s.free_columns()
    incl = Matrix.from_entries(fld, n, dq, {(fr, t): fld.one() for t, fr in enumerate(free)})
    ctx = actx.ctx
    if ctx.kind == "vect":
        obj = CatObject(fld, dq)
    else:
        dh = ctx.hopf.dim
        cols = s.basis.transpose().hstack(incl)

        def descend(co, side):
            if co is None:
                return None
            img = _along_factor(proj, co @ cols, dh, side)._d
            if img[:, : s.dim].any():
                raise ValueError("ideal is not a subcomodule")
            return Matrix(fld, dq * dh, dq, img[:, s.dim :].copy(), _raw=True)

        obj = CatObject(fld, dq, ctx.hopf, coact_l=descend(actx.obj.coact_l, "l"),
                        coact_r=descend(actx.obj.coact_r, "r"))
    return QuotientStep(AlgebraInContext(ctx, q, obj), proj, incl, free)


def revalidating_lift_through_tower(actx: AlgebraInContext, j_ideal: IdealData,
                                    b_actx: AlgebraInContext, f_map: Matrix) -> Matrix:
    """`hochschild.lift_through_tower` on a chain computed afresh, with
    every level built by `revalidating_quotient_in_context`."""
    powers, _ = ideal_power_nilpotency(actx.algebra, IdealData(actx.algebra, j_ideal.subspace))
    steps = [revalidating_quotient_in_context(actx, p) for p in powers]
    f_cur = f_map
    for r in range(len(steps) - 1):
        cur, nxt = steps[r], steps[r + 1]
        p_r = cur.proj_from_full @ nxt.incl_to_full
        kr = Subspace(p_r.cols, p_r.kernel())
        sigma0 = _solve_ctx_lift(actx.ctx, b_actx, nxt.actx, cur, nxt, p_r, kr, f_cur, r)
        sigma0u = unitalize_section_generic(b_actx, nxt.actx.algebra, p_r, sigma0)
        f_cur = _tower_correct(b_actx, nxt.actx, p_r, kr, sigma0u)
    if not (steps[0].proj_from_full @ steps[-1].incl_to_full @ f_cur - f_map).is_zero():
        raise VerificationFailed("tower_lift_projects_to_target")
    return f_cur
