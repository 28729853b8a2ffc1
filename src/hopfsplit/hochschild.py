"""Relative Hochschild cohomology via the standard complex in a monoidal
context, square-zero extensions, cocycle classes, section correction and
lifting through nilpotent towers.

Degrees 0..2 only; the degree-3 space exists solely as the codomain of b^2.
Cochains are context morphisms A^(x)n -> M; the differential is the one
formula (Loday, Cyclic Homology, 1.1)

    b^n(f)(a_1 .. a_{n+1}) = a_1 f(a_2 .. a_{n+1})
                             + sum_p (-1)^p f(a_1 .. a_p a_{p+1} .. a_{n+1})
                             + (-1)^(n+1) f(a_1 .. a_n) a_{n+1}

b^n is a fixed sparse operator D_n on the row-major vec(f), built once per
degree and cached on the bimodule (`BimoduleInContext.operator`): the
lambda term from the left action's entries, n inner terms from the
structure constants and the rho term from the right action's entries,
each broadcast over the slots it leaves untouched, coinciding entries
summed once.  `differential` is D_n vec(f).  `cohomology` is three
products: the coefficient matrix D_n B^T for the cochain basis B (as
rows), the cocycles ker(D_n B^T) B and the coboundaries, the rows of
(D_(n-1) B_(n-1)^T)^T.  Section correction hands D_1's entries to
`MapSolver`, whose unknowns are the same vec coordinates.  The
coefficient matrix is the one a per-cochain evaluation builds, so
kernels, representatives and reports come out the same byte for byte.

Lifting through a nilpotent tower runs on whole matrices: each quotient
descends its coactions by one product, (proj (x) id_H) co [ideal^T | incl],
and each square-zero step reads its curvature (`defect_matrix`), kernel
products and restricted coactions in kernel coordinates
(`Subspace.coordinates`).  Every step is re-verified; a failure raises
`VerificationFailed` naming the check and its first failing index.
"""
from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraObject,
    IdealData,
    ValidationReport,
    VerificationFailed,
    defect_matrix,
    ideal_power_nilpotency,
    multiplicativity_defect,
    pairwise_products,
    record_bimodule_axioms,
)
from .category import (
    CatObject,
    CategoryContext,
    HomSpace,
    MapSolver,
    _post_block,
    _pre_block,
    colinearity_blocks,
    hom_space,
    tensor_catobject,
    unit_object,
)
from .linalg import InconsistentSystem, Matrix, Subspace, _along_factor, _join, _matmul, _summed
from .tensors import SparseMap, _total, v_basis, v_eq, v_tensor, v_zero


class AlgebraInContext:
    """Algebra whose multiplication and unit are ctx-morphisms."""

    def __init__(self, ctx: CategoryContext, algebra: AlgebraObject, obj: CatObject):
        if obj.dim != algebra.dim:
            raise ValueError("object/algebra dimension mismatch")
        self.ctx = ctx
        self.algebra = algebra
        self.obj = obj

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        for name, ok, wit in self.algebra.validate().checks:
            rep.record("algebra:" + name, ok, wit)
        for name, ok, wit in self.obj.validate(self.ctx).checks:
            rep.record("object:" + name, ok, wit)
        if not rep.ok:
            return rep
        # multiplication and unit must be ctx-morphisms
        if self.ctx.kind != "vect":
            f = self.field
            sq = tensor_catobject(self.obj, self.obj)
            mulm = self.algebra.mul_matrix()
            ok = _is_ctx_morphism(self.ctx, sq, self.obj, mulm)
            rep.record("mul_is_ctx_morphism", ok, "multiplication not a ctx morphism")
            unitm = Matrix.column(f, self.algebra.unit)
            one = unit_object(self.ctx, f)
            rep.record("unit_is_ctx_morphism", _is_ctx_morphism(self.ctx, one, self.obj, unitm),
                       "unit not a ctx morphism")
        return rep


class BimoduleInContext:
    """(A,A)-bimodule object in ctx: actions are ctx-morphisms."""

    def __init__(self, actx: AlgebraInContext, obj: CatObject, act_l: Matrix, act_r: Matrix):
        self.actx = actx
        self.obj = obj
        self.act_l = act_l  # A (x) M -> M
        self.act_r = act_r  # M (x) A -> M
        self._operators: dict[int, SparseMap] = {}

    @property
    def field(self):
        return self.actx.field

    @property
    def dim(self):
        return self.obj.dim

    @classmethod
    def regular(cls, actx: AlgebraInContext) -> "BimoduleInContext":
        m = actx.algebra.mul_matrix()
        return cls(actx, actx.obj, m, m)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        for name, ok, wit in self.obj.validate(self.actx.ctx).checks:
            rep.record("object:" + name, ok, wit)
        if not record_bimodule_axioms(rep, self.actx.algebra, self.dim, self.act_l, self.act_r, {
                "left": ("left_module", "(e{0}e{1})m{2}"), "right": ("right_module", "m{2}(e{0}e{1})"),
                "middle": ("middle_compat", "e{0}m{2}e{1}"), "unit": ("unit_module", "m{0}")}):
            return rep
        if self.actx.ctx.kind != "vect":
            am = tensor_catobject(self.actx.obj, self.obj)
            rep.record("act_l_ctx", _is_ctx_morphism(self.actx.ctx, am, self.obj, self.act_l),
                       "left action not a ctx morphism")
            ma = tensor_catobject(self.obj, self.actx.obj)
            rep.record("act_r_ctx", _is_ctx_morphism(self.actx.ctx, ma, self.obj, self.act_r),
                       "right action not a ctx morphism")
        return rep

    def operator(self, n: int) -> SparseMap:
        """The Hochschild differential b^n on vec coordinates, built once per
        degree (`_hochschild_operator`)."""
        if n not in self._operators:
            self._operators[n] = _hochschild_operator(self, n)
        return self._operators[n]

    def left(self, avec, m):
        return self.act_l.apply(v_tensor(self.field, avec, m))

    def right(self, m, avec):
        return self.act_r.apply(v_tensor(self.field, m, avec))


def _is_ctx_morphism(ctx: CategoryContext, x: CatObject, y: CatObject, f_mat: Matrix) -> bool:
    """Direct check that f : X -> Y commutes with the ctx structures, one
    product per structure: rho_Y f = (f (x) id_H) rho_X for coactions and
    f mu_X = mu_Y (f (x) id_H) for actions (mirrored on the left)."""
    if ctx.kind == "vect":
        return True
    dh = ctx.hopf.dim
    ft = f_mat.transpose()
    pairs = []
    if ctx.wants_right_coaction:
        pairs.append((y.coact_r @ f_mat, _along_factor(f_mat, x.coact_r, dh, "r")))
    if ctx.wants_left_coaction:
        pairs.append((y.coact_l @ f_mat, _along_factor(f_mat, x.coact_l, dh, "l")))
    # mu_Y (f (x) id_H) = ((f^T (x) id_H) mu_Y^T)^T
    if ctx.wants_right_action:
        pairs.append((f_mat @ x.act_r, _along_factor(ft, y.act_r.transpose(), dh, "r").transpose()))
    if ctx.wants_left_action:
        pairs.append((f_mat @ x.act_l, _along_factor(ft, y.act_l.transpose(), dh, "l").transpose()))
    return all(lhs == rhs for lhs, rhs in pairs)


# ---------------------------------------------------------------------------
# cochains and differentials


def tensor_power_object(actx: AlgebraInContext, n: int) -> CatObject:
    if n == 0:
        return unit_object(actx.ctx, actx.field)
    obj = actx.obj
    for _ in range(n - 1):
        obj = tensor_catobject(obj, actx.obj)
    return obj


def cochain_space(actx: AlgebraInContext, mctx: BimoduleInContext, n: int) -> HomSpace:
    """Context-morphism space M(A^(x)n, M); degree 0 is M(1, M)."""
    if n not in (0, 1, 2, 3):
        raise ValueError("cochain spaces materialised only for degrees 0..3")
    return hom_space(actx.ctx, tensor_power_object(actx, n), mctx.obj)


def _hochschild_operator(mctx: BimoduleInContext, n: int) -> SparseMap:
    """b^n as a SparseMap from vec(f), f : A^(x)n -> M, to vec(b^n f).

    Keys are the row-major vec coordinates: (m, a_1 .. a_n) in, (m, a_1 ..
    a_{n+1}) out.  Each term of the formula is one array of entries,
    broadcast over the slots it leaves untouched; the constructor sums
    coinciding entries once."""
    if n not in (0, 1, 2):
        raise ValueError("differential implemented for degrees 0, 1, 2")
    a = mctx.actx.algebra
    fld = a.field
    da, dm = a.dim, mctx.dim
    rows, cols, vals = [], [], []

    def term(r, c, v, sign):
        r, c = np.broadcast_arrays(r, c)
        rows.append(r.ravel())
        cols.append(c.ravel())
        v = v if sign > 0 else fld.reduce(-v)
        vals.append(np.broadcast_to(v, r.shape).ravel())

    # a_1 f(a_2 .. a_{n+1}): act_l[m, (i, m')] joins f's column (m', rest)
    rest = np.arange(da**n)
    mo, ax = mctx.act_l._d.nonzero()
    i, mp = np.divmod(ax, dm)
    v = mctx.act_l._d[mo, ax][:, None]
    term((mo * da + i)[:, None] * da**n + rest, mp[:, None] * da**n + rest, v, 1)
    # (-1)^p f(.., a_p a_{p+1}, ..): e_i e_j = sum_k c e_k at slots p, p + 1
    ii, jj, kk, cc = a.constants()
    for p in range(1, n + 1):
        pre = np.arange(dm * da ** (p - 1))[:, None, None]  # (m, a_1 .. a_{p-1})
        post = np.arange(da ** (n - p))[None, None, :]
        term(((pre * da + ii[:, None]) * da + jj[:, None]) * da ** (n - p) + post,
             (pre * da + kk[:, None]) * da ** (n - p) + post, cc[:, None], (-1) ** p)
    # (-1)^(n+1) f(a_1 .. a_n) a_{n+1}: act_r[m, (m', j)] joins f's column (m', pre)
    mo, xa = mctx.act_r._d.nonzero()
    mp, j = np.divmod(xa, da)
    v = mctx.act_r._d[mo, xa][:, None]
    term((mo[:, None] * da**n + rest) * da + j[:, None], mp[:, None] * da**n + rest, v, (-1) ** (n + 1))
    cat = np.concatenate
    return SparseMap(fld, (dm,) + (da,) * n, (dm,) + (da,) * (n + 1), cat(cols), cat(rows), cat(vals))


def _apply_rows(op: SparseMap, rows: np.ndarray) -> np.ndarray:
    """op applied to each row of a dense (k, vec length) array."""
    fld = op.field
    width = _total(op.out_dims)
    col, key = rows.nonzero()
    batch, _ = op.apply_at((col, key, rows[col, key]), op.in_dims, 0)
    col, key, val = _summed(fld, *batch, width)
    out = np.full((rows.shape[0], width), fld.zero(), dtype=rows.dtype)
    out[col, key] = val
    return out


def differential(actx: AlgebraInContext, mctx: BimoduleInContext, n: int, f: Matrix) -> Matrix:
    """b^n applied to a cochain matrix (degrees 0..2): the cached operator
    of mctx on vec(f)."""
    if actx.algebra is not mctx.actx.algebra:
        raise ValueError("the bimodule is over another algebra")
    if (f.rows, f.cols) != (mctx.dim, actx.dim**n):
        raise ValueError(f"{f.rows}x{f.cols} matrix is not a {n}-cochain")
    img = _apply_rows(mctx.operator(n), f._d.reshape(1, -1))
    return Matrix(f.field, mctx.dim, actx.dim ** (n + 1), img.reshape(mctx.dim, -1), _raw=True)


class CohomologyData:
    def __init__(self, degree, dimension, reps, cocycle_space, coboundary_space, cochain_basis):
        self.degree = degree
        self.dimension = dimension
        self.cocycle_reps = reps  # list of Matrix
        self.cocycles = cocycle_space  # Subspace in cochain coordinates
        self.coboundaries = coboundary_space
        self.cochain_basis = cochain_basis  # HomSpace


def _basis_rows(hs: HomSpace) -> np.ndarray:
    """The cochain basis as rows of vec coordinates."""
    return np.stack([b._d.ravel() for b in hs.basis])


def cohomology(actx: AlgebraInContext, mctx: BimoduleInContext, n: int) -> CohomologyData:
    """dim ker b^n - dim im b^(n-1) with RREF-deterministic representatives.

    With B the cochain basis as rows, the cocycles are ker(D_n B^T) B and
    the coboundaries the rows of (D_(n-1) B_(n-1)^T)^T."""
    if n not in (0, 1, 2):
        raise ValueError("cohomology implemented for degrees 0, 1, 2")
    fld = actx.field
    cs = cochain_space(actx, mctx, n)
    da, dm = actx.dim, mctx.dim
    veclen = dm * (da**n)
    if cs.dim == 0:
        zero_sub = Subspace.zero(fld, max(veclen, 1))
        return CohomologyData(n, 0, [], zero_sub, zero_sub, cs)
    basis = _basis_rows(cs)
    images = _apply_rows(mctx.operator(n), basis)
    coeff = Matrix(fld, images.shape[1], cs.dim, images.T.copy(), _raw=True)
    ker = coeff.kernel()  # rows: coefficient vectors of cocycles
    cocycles = ker @ Matrix(fld, cs.dim, veclen, basis, _raw=True)
    z_space = Subspace.from_matrix_rows(cocycles) if ker.rows else Subspace.zero(fld, veclen)
    prev = cochain_space(actx, mctx, n - 1) if n else None
    if prev is None or prev.dim == 0:
        b_space = Subspace.zero(fld, veclen)
    else:
        coboundaries = Matrix(fld, prev.dim, veclen, _apply_rows(mctx.operator(n - 1), _basis_rows(prev)), _raw=True)
        b_space = Subspace.from_matrix_rows(coboundaries)
        # re-verify b^n b^(n-1) = 0 on the cochains: every coboundary is a cocycle
        _kernel_coordinates(z_space, coboundaries, "coboundaries_in_cocycles", (prev.dim,))
    comp = b_space.quotient_complement(z_space)
    reps = []
    for t in range(comp.rows):
        mat = Matrix(fld, dm, da**n, comp._d[t].reshape(dm, da**n), _raw=True)
        if n == 2:
            mat = normalize_2cocycle(actx, mctx, mat)
        reps.append(mat)
    return CohomologyData(n, z_space.dim - b_space.dim, reps, z_space, b_space, cs)


def _vec(m: Matrix) -> list:
    return m._d.ravel().tolist()


def _devec(fld, flat: list, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(fld, [flat[r * cols : (r + 1) * cols] for r in range(rows)])


def normalize_2cocycle(actx: AlgebraInContext, mctx: BimoduleInContext, omega: Matrix) -> Matrix:
    """Subtract b1 of tau(a) = omega(1 (x) a): kills omega(1, -) and omega(-, 1)."""
    fld = actx.field
    da, dm = actx.dim, mctx.dim
    # tau[m, x] = sum_i unit_i omega[m, (i, x)]: the unit contracted with slot 1
    slots = omega._d.reshape(dm, da, da).transpose(1, 0, 2).reshape(da, dm * da)
    unit = np.array(actx.algebra.unit, dtype=omega._d.dtype).reshape(1, da)
    tau = Matrix(fld, dm, da, _matmul(fld, unit, slots).reshape(dm, da), _raw=True)
    return omega - differential(actx, mctx, 1, tau)


# ---------------------------------------------------------------------------
# extensions


class ExtensionData:
    """Square-zero extension pi : E -> A with kernel the declared bimodule."""

    def __init__(self, eactx: AlgebraInContext, actx: AlgebraInContext,
                 mctx: BimoduleInContext, pi: Matrix, incl: Matrix):
        self.eactx = eactx
        self.actx = actx
        self.mctx = mctx
        self.pi = pi  # (dA, dE)
        self.incl = incl  # (dE, dM)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        fld = self.actx.field
        e = self.eactx.algebra
        a = self.actx.algebra
        da, dm, de = a.dim, self.mctx.dim, e.dim
        for name, ok, wit in self.eactx.validate().checks:
            rep.record("E:" + name, ok, wit)
        if not rep.ok:
            return rep
        # pi is an algebra map and a ctx morphism
        bad = multiplicativity_defect(e, a, self.pi)
        rep.record("pi_algebra_map", bad is None and v_eq(fld, self.pi.apply(e.unit), a.unit),
                   "pi not an algebra map" + ("" if bad is None else f" at {bad}"))
        rep.record("pi_ctx", _is_ctx_morphism(self.actx.ctx, self.eactx.obj, self.actx.obj, self.pi),
                   "pi not a ctx morphism")
        # kernel = image of incl, square zero
        comp = self.pi @ self.incl
        rep.record("incl_into_kernel", comp.is_zero(), "pi . incl != 0")
        rank_ok = self.incl.rank() == dm and de == da + dm
        rep.record("kernel_dimension", rank_ok, "kernel dimension mismatch")
        kern = self.incl.transpose()  # rows: the kernel basis in E
        rep.record("kernel_square_zero", pairwise_products(e, kern, kern).is_zero(), "M^2 != 0")
        # induced bimodule structure matches the declared one: row (i, t) of
        # sigma(e_i) m_t and column (i, t) of the declared left action agree,
        # and likewise (t, i) on the right
        st = _any_linear_section(self.pi).transpose()
        ok_bimod = (pairwise_products(e, st, kern) == (self.incl @ self.mctx.act_l).transpose()
                    and pairwise_products(e, kern, st) == (self.incl @ self.mctx.act_r).transpose())
        rep.record("induced_bimodule", ok_bimod, "induced bimodule structure differs from declared")
        return rep


def _any_linear_section(pi: Matrix) -> Matrix:
    """A right inverse of a surjective matrix (canonical: free vars zero)."""
    fld = pi.field
    cols = [pi.solve(Matrix.column(fld, v_basis(fld, pi.rows, i))) for i in range(pi.rows)]
    return Matrix.from_rows(fld, cols).transpose()


def left_inverse(m: Matrix) -> Matrix:
    """L with L m = id, for injective m."""
    fld = m.field
    r, piv = m.rref(Matrix.identity(fld, m.rows))
    if piv[: m.cols] != list(range(m.cols)):
        raise InconsistentSystem("matrix has no left inverse")
    return Matrix.from_rows(fld, [r.row_list(t)[m.cols :] for t in range(m.cols)])


def extension_from_cocycle(actx: AlgebraInContext, mctx: BimoduleInContext, omega: Matrix) -> ExtensionData:
    """E_omega on A (+) M with (a,m)(b,n) = (ab, a n + m b - omega(a,b)) and
    unit (1, omega(1,1)); refuses non-cocycles."""
    fld = actx.field
    a = actx.algebra
    da, dm = a.dim, mctx.dim
    if not differential(actx, mctx, 2, omega).is_zero():
        raise ValueError("omega is not a 2-cocycle")
    de = da + dm
    # e_i e_j = (a_i a_j, -omega(a_i, a_j)), a_i m_t and m_t a_j by the actions
    ai, aj, ak, av = a.table
    w = -omega._d
    wt, wij = np.nonzero(w)
    parts = [(ai, aj, ak, av), (*np.divmod(wij, da), da + wt, fld.reduce(w[wt, wij]))]
    out, col = np.nonzero(mctx.act_l._d)  # a_x m_y at column x dm + y
    x, y = np.divmod(col, dm)
    parts.append((x, da + y, da + out, mctx.act_l._d[out, col]))
    out, col = np.nonzero(mctx.act_r._d)  # m_y a_x at column y da + x
    y, x = np.divmod(col, da)
    parts.append((da + y, x, da + out, mctx.act_r._d[out, col]))
    table = [np.concatenate(x) for x in zip(*parts)]
    unit = list(a.unit) + v_zero(fld, dm)
    w11 = v_zero(fld, dm)
    for i, u in enumerate(a.unit):
        if fld.is_zero(u):
            continue
        for j, u2 in enumerate(a.unit):
            if fld.is_zero(u2):
                continue
            oc = omega.col_list(i * da + j)
            w11 = [fld.add(x, fld.mul(fld.mul(u, u2), y)) for x, y in zip(w11, oc)]
    for t, c in enumerate(w11):
        unit[da + t] = c
    e_alg = AlgebraObject.from_constants(fld, de, table, unit,
                                         tuple(actx.algebra.labels) + tuple("m:" + l for l in mctx.obj.labels))
    e_obj = _direct_sum_object(actx.ctx, actx.obj, mctx.obj)
    eactx = AlgebraInContext(actx.ctx, e_alg, e_obj)
    pi = Matrix.from_entries(fld, da, de, {(i, i): fld.one() for i in range(da)})
    incl = Matrix.from_entries(fld, de, dm, {(da + t, t): fld.one() for t in range(dm)})
    ext = ExtensionData(eactx, actx, mctx, pi, incl)
    ext.validate().require("extension from cocycle")
    return ext


def _direct_sum_object(ctx: CategoryContext, x: CatObject, y: CatObject) -> CatObject:
    fld = x.field
    n = x.dim + y.dim
    if ctx.kind == "vect":
        return CatObject(fld, n)
    dh = ctx.hopf.dim

    def block_co(mx, my, side):
        if mx is None or my is None:
            return None
        entries = {}
        for r, c, v in mx.entries():
            if side == "r":
                xv, hh = r // dh, r % dh
                entries[(xv * dh + hh, c)] = v
            else:
                hh, xv = r // x.dim, r % x.dim
                entries[(hh * n + xv, c)] = v
        for r, c, v in my.entries():
            if side == "r":
                yv, hh = r // dh, r % dh
                entries[((x.dim + yv) * dh + hh, x.dim + c)] = v
            else:
                hh, yv = r // y.dim, r % y.dim
                entries[(hh * n + x.dim + yv, x.dim + c)] = v
        rows = n * dh if side == "r" else dh * n
        return Matrix.from_entries(fld, rows, n, entries)

    def block_act(mx, my, side):
        if mx is None or my is None:
            return None
        entries = {}
        for r, c, v in mx.entries():
            if side == "r":
                xv, hh = c // dh, c % dh
                entries[(r, xv * dh + hh)] = v
            else:
                hh, xv = c // x.dim, c % x.dim
                entries[(r, hh * n + xv)] = v
        for r, c, v in my.entries():
            if side == "r":
                yv, hh = c // dh, c % dh
                entries[(x.dim + r, (x.dim + yv) * dh + hh)] = v
            else:
                hh, yv = c // y.dim, c % y.dim
                entries[(x.dim + r, hh * n + x.dim + yv)] = v
        cols = n * dh if side == "r" else dh * n
        return Matrix.from_entries(fld, n, cols, entries)

    return CatObject(
        fld, n, ctx.hopf,
        coact_l=block_co(x.coact_l, y.coact_l, "l"),
        coact_r=block_co(x.coact_r, y.coact_r, "r"),
        act_l=block_act(x.act_l, y.act_l, "l"),
        act_r=block_act(x.act_r, y.act_r, "r"),
    )


def find_ctx_section(ext: ExtensionData) -> Matrix:
    """A ctx-morphism sigma with pi sigma = id (not yet unital or
    multiplicative); raises InconsistentSystem when none exists."""
    actx = ext.actx
    fld = actx.field
    da, de = actx.dim, ext.eactx.dim
    solver = MapSolver(fld, da, de)
    for block in colinearity_blocks(actx.ctx, actx.obj, ext.eactx.obj):
        solver.add_coo(*block)
    solver.add_coo(*_post_block(ext.pi, da), _vec(Matrix.identity(fld, da)))
    return solver.solve_map()


def unitalize_section(ext: ExtensionData, sigma: Matrix) -> Matrix:
    """sigma' = 2 sigma - sigma(.) sigma(1): unital, still a ctx-section."""
    return unitalize_section_generic(ext.actx, ext.eactx.algebra, ext.pi, sigma)


def cocycle_class_of_extension(ext: ExtensionData, sigma: Matrix | None = None):
    """The 2-cocycle of a section (factored through the kernel) and its
    coordinates in the chosen H^2 basis.  Section-choice independent."""
    if sigma is None:
        sigma = find_ctx_section(ext)
    else:
        if not (ext.pi @ sigma - Matrix.identity(ext.actx.field, ext.actx.dim)).is_zero():
            raise ValueError("supplied sigma is not a section of pi")
    sigma = unitalize_section(ext, sigma)
    omega = _curvature_cocycle(ext, sigma)
    bad = _first_nonzero_row(differential(ext.actx, ext.mctx, 2, omega)._d.T, (ext.actx.dim,) * 3)
    if bad is not None:
        raise VerificationFailed("curvature_cocycle", bad)
    coords = class_coordinates(ext.actx, ext.mctx, omega)
    return omega, coords


def class_coordinates(actx: AlgebraInContext, mctx: BimoduleInContext, omega: Matrix) -> list:
    """Coordinates of [omega] in the H^2 representative basis."""
    fld = actx.field
    h2 = cohomology(actx, mctx, 2)
    vec = _vec(omega)
    if h2.dimension == 0:
        if not h2.coboundaries.contains_vector(vec):
            residue = np.array(h2.coboundaries.reduce_vector(vec), dtype=omega._d.dtype)
            raise VerificationFailed("class_is_coboundary",
                                     _first_nonzero_row(residue.reshape(-1, 1), (mctx.dim, actx.dim, actx.dim)))
        return []
    cols = [_vec(r) for r in h2.cocycle_reps]
    nb = h2.coboundaries.basis
    for t in range(nb.rows):
        cols.append(nb.row_list(t))
    m = Matrix.from_rows(fld, cols).transpose()
    sol = m.solve(Matrix.column(fld, vec))
    return sol[: h2.dimension]


class Obstructed(Exception):
    def __init__(self, coords):
        super().__init__(f"lifting obstruction class {coords}")
        self.coords = coords


def _curvature_cocycle(ext: ExtensionData, sigma: Matrix) -> Matrix:
    """omega with incl omega = sigma(ab) - sigma(a) sigma(b), the curvature
    of a section, which lands in the kernel."""
    theta = defect_matrix(ext.actx.algebra, ext.eactx.algebra, sigma)
    omega = left_inverse(ext.incl) @ theta
    bad = _first_nonzero_row((ext.incl @ omega - theta)._d.T, (ext.actx.dim,) * 2)
    if bad is not None:
        raise VerificationFailed("curvature_in_kernel", bad)
    return omega


def correct_section(ext: ExtensionData, sigma_unital: Matrix) -> Matrix:
    """Turn a unital ctx-section into an algebra-map section by adding
    incl . tau where b1(tau) = curvature; Obstructed carries the H^2 class."""
    actx, mctx = ext.actx, ext.mctx
    fld = actx.field
    omega = _curvature_cocycle(ext, sigma_unital)
    da, dm = actx.dim, mctx.dim
    solver = MapSolver(fld, da, dm)
    for block in colinearity_blocks(actx.ctx, actx.obj, mctx.obj):
        solver.add_coo(*block)
    _add_b1_rows(solver, mctx, omega)
    try:
        tau = solver.solve_map()
    except InconsistentSystem:
        raise Obstructed(class_coordinates(actx, mctx, omega))
    corrected = sigma_unital + ext.incl @ tau
    _verify_algebra_lift(actx, ext.eactx, corrected, ext.pi, Matrix.identity(fld, da), "corrected_section")
    return corrected


def _add_b1_rows(solver: MapSolver, mctx: BimoduleInContext, omega: Matrix):
    """The equations b^1(tau) = omega on the unknown vec(tau): the rows and
    columns of the degree-1 operator are those of the solver."""
    op = mctx.operator(1)
    src, dst, val = op.coo()
    solver.add_coo(dst, src, val, _total(op.out_dims), _vec(omega))


def _verify_algebra_lift(src: AlgebraInContext, tgt: AlgebraInContext, sigma: Matrix,
                         pi: Matrix, target: Matrix, what: str):
    """Re-verify that sigma : src -> tgt is a unital, multiplicative ctx
    morphism with pi sigma = target; raises VerificationFailed naming the
    check, prefixed by `what`."""
    fld = src.field
    if not (pi @ sigma - target).is_zero():
        raise VerificationFailed(f"{what}_lifts_target")
    if not v_eq(fld, sigma.apply(src.algebra.unit), tgt.algebra.unit):
        raise VerificationFailed(f"{what}_unital")
    bad = multiplicativity_defect(src.algebra, tgt.algebra, sigma)
    if bad is not None:
        raise VerificationFailed(f"{what}_multiplicative", bad)
    if not _is_ctx_morphism(src.ctx, src.obj, tgt.obj, sigma):
        raise VerificationFailed(f"{what}_ctx_morphism")


# ---------------------------------------------------------------------------
# extension equivalence


class EquivalenceResult:
    def __init__(self, status: str, mapping: Matrix | None = None):
        self.status = status  # "equivalent" | "inequivalent" | "undecided"
        self.mapping = mapping


def equivalent_extensions(e1: ExtensionData, e2: ExtensionData, bound: int = 4096) -> EquivalenceResult:
    """Search for an algebra map f : E1 -> E2 with pi2 f = pi1, f i1 = i2.

    The commuting conditions are linear; the affine solution set is
    enumerated (complete, hence 'inequivalent' is a certainty) and filtered
    by the quadratic multiplicativity condition; Undecided above the bound.
    """
    fld = e1.actx.field
    de1, de2 = e1.eactx.dim, e2.eactx.dim
    solver = MapSolver(fld, de1, de2)
    solver.add_coo(*_post_block(e2.pi, de1), _vec(e1.pi))
    solver.add_coo(*_pre_block(e1.incl, de2, de1), _vec(e2.incl))
    for block in colinearity_blocks(e1.actx.ctx, e1.eactx.obj, e2.eactx.obj):
        solver.add_coo(*block)
    # unit condition f(1) = 1: F u = u' with u the unit as a column
    solver.add_coo(*_pre_block(Matrix.column(fld, e1.eactx.algebra.unit), de2, de1),
                   list(e2.eactx.algebra.unit))
    try:
        f0 = solver.solve_map()
    except InconsistentSystem:
        return EquivalenceResult("inequivalent")
    ker = solver.kernel()
    k = ker.rows
    if fld.kind == "Fp":
        total = fld.p**k
        coeff_range = range(fld.p)
    else:
        total = 3**k
        coeff_range = (-1, 0, 1)
    if total > bound:
        if multiplicativity_defect(e1.eactx.algebra, e2.eactx.algebra, f0) is None:
            return EquivalenceResult("equivalent", f0)
        return EquivalenceResult("undecided")
    import itertools

    for combo in itertools.product(coeff_range, repeat=k):
        f = f0
        for c, t in zip(combo, range(k)):
            if c == 0:
                continue
            f = f + _devec(fld, ker.row_list(t), de2, de1).scale(fld.from_int(c))
        if multiplicativity_defect(e1.eactx.algebra, e2.eactx.algebra, f) is None:
            return EquivalenceResult("equivalent", f)
    if fld.kind == "Fp":
        return EquivalenceResult("inequivalent")
    return EquivalenceResult("inequivalent" if k == 0 else "undecided")


# ---------------------------------------------------------------------------
# lifting through nilpotent towers


class MissingSection(Exception):
    pass


class QuotientStep:
    """A/J^r with descended ctx structure and the canonical projections."""

    def __init__(self, actx: AlgebraInContext, proj_from_full: Matrix, incl_to_full: Matrix,
                 free: list | None = None):
        self.actx = actx
        self.proj_from_full = proj_from_full  # (dQ, dA)
        self.incl_to_full = incl_to_full  # (dA, dQ): canonical complement lift
        self.free = free  # ambient indices of the complement basis


def quotient_in_context(actx: AlgebraInContext, ideal_subspace: Subspace) -> QuotientStep:
    """Quotient algebra with coactions descended along the projection."""
    from .algebra import quotient_algebra

    fld = actx.field
    q, proj = quotient_algebra(actx.algebra, IdealData(actx.algebra, ideal_subspace))
    n, dq = actx.dim, q.dim
    free = ideal_subspace.free_columns()
    incl = Matrix.from_entries(fld, n, dq, {(fr, t): fld.one() for t, fr in enumerate(free)})
    ctx = actx.ctx
    if ctx.kind == "vect":
        obj = CatObject(fld, dq)
    else:
        dh = ctx.hopf.dim
        di = ideal_subspace.dim
        cols = ideal_subspace.basis.transpose().hstack(incl)  # [ideal^T | incl]

        def descend(co, side):
            # (proj (x) id_H) co [ideal^T | incl], (id_H (x) proj) on the
            # left: the ideal block vanishes iff the ideal is a subcomodule,
            # the complement block is the descended coaction
            if co is None:
                return None
            img = _along_factor(proj, co @ cols, dh, side)._d
            if img[:, :di].any():
                raise ValueError(f"ideal is not a {'right' if side == 'r' else 'left'} subcomodule")
            return Matrix(fld, dq * dh, dq, img[:, di:].copy(), _raw=True)

        obj = CatObject(fld, dq, ctx.hopf,
                        coact_l=descend(actx.obj.coact_l, "l"),
                        coact_r=descend(actx.obj.coact_r, "r"))
    qactx = AlgebraInContext(ctx, q, obj)
    return QuotientStep(qactx, proj, incl, free)


def _first_nonzero_row(d: np.ndarray, shape: tuple):
    """The first nonzero row of d, as an index tuple over shape, or None."""
    rows = np.flatnonzero((d != 0).any(axis=1))
    return tuple(int(x) for x in np.unravel_index(rows[0], shape)) if rows.size else None


def _kernel_coordinates(kernel: Subspace, rows: Matrix, check: str, shape: tuple) -> Matrix:
    """Coordinates of the rows in the kernel's basis; when a row lies
    outside, VerificationFailed names `check` and that row's index tuple
    over shape."""
    coords = kernel.coordinates(rows)
    if coords is None:
        bad = next(t for t in range(rows.rows) if not kernel.contains_vector(rows.row_list(t)))
        raise VerificationFailed(check, tuple(int(x) for x in np.unravel_index(bad, shape)))
    return coords


def _solve_ctx_lift(ctx, b_actx, q_actx, cur: QuotientStep, nxt: QuotientStep,
                    p_r: Matrix, kr: Subspace, f_cur: Matrix, step: int) -> Matrix:
    """A ctx-morphism sigma0 : B -> Q_{r+1} with p_r sigma0 = f_cur.

    The lift is parameterized as iota f_cur + incl_K X over the unknown
    X : B -> ker(p_r), which keeps the elimination small (iota is the
    coordinate section available because nested RREF pivot sets nest).
    """
    fld = b_actx.field
    db = b_actx.dim
    dm = kr.dim
    s0 = _coordinate_section(fld, cur, nxt) @ f_cur
    if dm == 0:
        return s0
    incl = kr.basis.transpose()  # (dq, dm)
    iy, it = incl._d.nonzero()  # nonzeros (y, t) of incl, sorted by y
    iw = incl._d[iy, it]
    by_y = np.searchsorted(iy, np.arange(incl.rows + 1))
    s0_flat = s0._d.ravel()
    solver = MapSolver(fld, db, dm)
    for r, c, v, nrows in colinearity_blocks(ctx, b_actx.obj, q_actx.obj):
        # restrict columns along sigma0 = s0 + incl X: the entry v at column
        # (y, x) joins every incl[y, t] = w into v w at column (t, x) of X,
        # and its s0 term v s0[y, x] moves to the right-hand side
        y, x = c // db, c % db
        src, dst = _join(np.arange(len(v)), by_y[y], by_y[y + 1])
        rhs = np.full(nrows, fld.zero(), dtype=s0_flat.dtype)
        np.add.at(rhs, r, fld.reduce(v * s0_flat[c]))
        solver.add_coo(r[src], it[dst] * db + x[src], fld.reduce(v[src] * iw[dst]), nrows,
                       fld.reduce(-rhs).tolist())
    try:
        x_map = solver.solve_map()
    except InconsistentSystem:
        raise MissingSection(f"no ctx lift through tower step {step + 1}")
    sigma0 = s0 + incl @ x_map
    if not (p_r @ sigma0 - f_cur).is_zero():
        raise VerificationFailed("ctx_lift_hits_target")
    return sigma0


def _coordinate_section(fld, cur: QuotientStep, nxt: QuotientStep) -> Matrix:
    """Coordinate inclusion Q_r -> Q_{r+1} (pivot sets of nested ideals nest)."""
    pos = {amb: t for t, amb in enumerate(nxt.free)}
    entries = {}
    for t, amb in enumerate(cur.free):
        if amb not in pos:
            raise VerificationFailed("complement_bases_nest", amb)
        entries[(pos[amb], t)] = fld.one()
    return Matrix.from_entries(fld, len(nxt.free), len(cur.free), entries)


def lift_through_tower(actx: AlgebraInContext, j_ideal: IdealData,
                       b_actx: AlgebraInContext, f_map: Matrix,
                       return_steps: bool = False):
    """Lift an algebra map B -> A/J to B -> A through the square-zero tower
    A/J^(r+1) -> A/J^r, correcting a ctx-lift at every step.

    f_map is expressed in the canonical basis of A/J produced by
    quotient_in_context(actx, J).  Returns the lifted map B -> A.
    """
    powers, nil_index = ideal_power_nilpotency(actx.algebra, j_ideal)
    # chain of quotients A/J^1, A/J^2, ..., A/J^(nil) = A
    steps = [quotient_in_context(actx, powers[r]) for r in range(len(powers))]
    if powers[-1].dim != 0:
        raise ValueError("ideal is not nilpotent")
    f_cur = f_map
    for r in range(len(steps) - 1):
        cur, nxt = steps[r], steps[r + 1]
        p_r = cur.proj_from_full @ nxt.incl_to_full  # Q_{r+1} -> Q_r
        kr = Subspace(p_r.cols, p_r.kernel())
        sigma0 = _solve_ctx_lift(actx.ctx, b_actx, nxt.actx, cur, nxt, p_r, kr, f_cur, r)
        sigma0u = unitalize_section_generic(b_actx, nxt.actx.algebra, p_r, sigma0)
        f_cur = _tower_correct(b_actx, nxt.actx, p_r, kr, sigma0u)
    lift = f_cur
    # final check: the lift projects onto f_map (each step verified the rest)
    down = steps[0].proj_from_full @ steps[-1].incl_to_full @ lift
    if not (down - f_map).is_zero():
        raise VerificationFailed("tower_lift_projects_to_target")
    return (lift, steps) if return_steps else lift


def unitalize_section_generic(b_actx: AlgebraInContext, e_alg: AlgebraObject,
                              p_r: Matrix, sigma: Matrix) -> Matrix:
    """sigma' = 2 sigma - sigma(.) sigma(1) for a lift along p_r (the kernel
    is square-zero, so sigma' is unital and still lifts what sigma lifts)."""
    fld = b_actx.field
    s1 = Matrix.row(fld, sigma.apply(b_actx.algebra.unit))
    # row i of the products is sigma(e_i) sigma(1)
    out = sigma.scale(fld.from_int(2)) - pairwise_products(e_alg, sigma.transpose(), s1).transpose()
    if not v_eq(fld, out.apply(b_actx.algebra.unit), e_alg.unit):
        raise VerificationFailed("unitalized_lift_unital")
    if not (p_r @ out - p_r @ sigma).is_zero():
        raise VerificationFailed("unitalized_lift_projection")
    return out


def _tower_correct(b_actx: AlgebraInContext, q_actx: AlgebraInContext,
                   p_r: Matrix, kernel_sub: Subspace, sigma: Matrix) -> Matrix:
    """One square-zero correction step: solve b1(tau) = curvature in ctx.

    The kernel's square-zero test, the curvature, the induced bimodule
    actions and the restricted coactions are each one product
    (`pairwise_products`, `defect_matrix`, `@`) read off in kernel
    coordinates (`Subspace.coordinates`), which fails when a product
    escapes the kernel.
    """
    fld = b_actx.field
    b_alg = b_actx.algebra
    q_alg = q_actx.algebra
    db, dq = b_alg.dim, q_alg.dim
    dm = kernel_sub.dim
    kern = kernel_sub.basis  # rows: the kernel basis in Q_{r+1}
    incl = kern.transpose()  # (dq, dm)
    bad = _first_nonzero_row(pairwise_products(q_alg, kern, kern)._d, (dm, dm))
    if bad is not None:
        raise VerificationFailed("tower_kernel_square_zero", bad)
    # curvature theta(a, b) = sigma(ab) - sigma(a) sigma(b) lands in the
    # kernel; omega holds its coordinates, column (i, j)
    theta = defect_matrix(b_alg, q_alg, sigma).transpose()
    omega = _kernel_coordinates(kernel_sub, theta, "tower_curvature_in_kernel", (db, db)).transpose()
    # B-bimodule structure on the kernel via sigma (well-defined: M^2 = 0):
    # rows (i, t) are sigma(e_i) m_t, rows (t, i) are m_t sigma(e_i)
    st = sigma.transpose()
    act_l = _kernel_coordinates(kernel_sub, pairwise_products(q_alg, st, kern),
                                "tower_kernel_left_action", (db, dm)).transpose()
    act_r = _kernel_coordinates(kernel_sub, pairwise_products(q_alg, kern, st),
                                "tower_kernel_right_action", (dm, db)).transpose()
    # kernel as a ctx object: restrict the coactions of Q_{r+1}
    ctx = b_actx.ctx
    if ctx.kind == "vect":
        kobj = CatObject(fld, dm)
    else:
        dh = ctx.hopf.dim

        def restrict(co, side):
            # slice (t, h) of co(m_t) is a vector of Q_{r+1} that must lie
            # in the kernel; its coordinate s is entry (s, h) of column t
            # on the right, (h, s) on the left
            if co is None:
                return None
            img = (co @ incl)._d
            img = (img.reshape(dq, dh, dm).transpose(2, 1, 0) if side == "r"
                   else img.reshape(dh, dq, dm).transpose(2, 0, 1))  # (t, h, x)
            slices = Matrix(fld, dm * dh, dq, img.reshape(dm * dh, dq), _raw=True)
            c = _kernel_coordinates(kernel_sub, slices, "tower_kernel_coaction", (dm, dh))._d
            c = c.reshape(dm, dh, dm).transpose((2, 1, 0) if side == "r" else (1, 2, 0))
            return Matrix(fld, dm * dh, dm, c.reshape(dm * dh, dm), _raw=True)

        kobj = CatObject(fld, dm, ctx.hopf,
                         coact_l=restrict(q_actx.obj.coact_l, "l"),
                         coact_r=restrict(q_actx.obj.coact_r, "r"))
    mctx = BimoduleInContext(b_actx, kobj, act_l, act_r)
    solver = MapSolver(fld, db, dm)
    for block in colinearity_blocks(ctx, b_actx.obj, kobj):
        solver.add_coo(*block)
    _add_b1_rows(solver, mctx, omega)
    try:
        tau = solver.solve_map()
    except InconsistentSystem:
        raise Obstructed(f"tower step obstruction (kernel dim {dm})")
    corrected = sigma + incl @ tau
    _verify_algebra_lift(b_actx, q_actx, corrected, p_r, p_r @ sigma, "tower_correction")
    return corrected
