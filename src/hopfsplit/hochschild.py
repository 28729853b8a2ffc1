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
(D_(n-1) B_(n-1)^T)^T; the coefficient matrix and the coboundaries stay
COO rows, eliminated over Q modulo primes with an exact certificate
(`linalg._rref_modular`).  Section correction hands D_1's entries to
`MapSolver`, whose unknowns are the same vec coordinates.  The
coefficient matrix is the one a per-cochain evaluation builds, so
kernels, representatives and reports come out the same byte for byte.

Lifting through a nilpotent tower runs on whole matrices over the power
chain recorded on the ideal.  The top level is A itself; each quotient
below it descends its coactions as stage pipelines on the coaction's
map, (proj (x) id_H) co on the ideal's basis (which must vanish) and on
the complement basis (the descended coaction, kept as map and matrix),
and each square-zero step reads its curvature, kernel products and
restricted coactions in kernel coordinates (`Subspace.coordinates` on
matrices of rows).  The curvature sigma(ab) - sigma(a) sigma(b) is
`defect_map`, the difference of the stage pipelines sigma m and
m (sigma (x) sigma) read as one map.  Every step is
re-verified; a failure raises `VerificationFailed` naming the check and
its first failing index.

That a lift, an extension's projection, or the structure maps of an
algebra or bimodule in a context respect the (co)actions is decided by
`category.morphism_defects`, a source A (x) M on its diagonal pipelines.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .algebra import (
    AlgebraObject,
    IdealData,
    ValidationReport,
    VerificationFailed,
    defect_map,
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
    _coordinates_in,
    _post_block,
    _pre_block,
    coaction_slices,
    colinearity_blocks,
    hom_space,
    morphism_defects,
    tensor_catobject,
    unit_object,
)
from .linalg import (
    InconsistentSystem,
    Matrix,
    Numerators,
    SparseMap,
    Subspace,
    _join,
    _matmul,
    kernel_from_rref,
)
from .tensors import StagePipeline, v_basis, v_eq, v_tensor


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
        # multiplication (from A (x) A) and unit must be ctx-morphisms
        if self.ctx.kind != "vect":
            f = self.field
            rep.record("mul_is_ctx_morphism",
                       not morphism_defects(self.ctx, (self.obj, self.obj), self.obj, self.algebra.mul_map()),
                       "multiplication not a ctx morphism")
            rep.record("unit_is_ctx_morphism", not morphism_defects(self.ctx, unit_object(self.ctx, f), self.obj,
                                                                    Matrix.column(f, self.algebra.unit)),
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
        ctx, a, m = self.actx.ctx, self.actx.obj, self.obj
        if ctx.kind != "vect":  # the actions, from A (x) M and M (x) A
            rep.record("act_l_ctx", not morphism_defects(ctx, (a, m), m, self.act_l), "left action not a ctx morphism")
            rep.record("act_r_ctx", not morphism_defects(ctx, (m, a), m, self.act_r),
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


def _images(op: SparseMap, rows: Matrix) -> SparseMap:
    """op applied to each row of a dense matrix, as a matrix of rows."""
    return SparseMap.from_rows(rows).matmul(op)


def differential(actx: AlgebraInContext, mctx: BimoduleInContext, n: int, f: Matrix) -> Matrix:
    """b^n applied to a cochain matrix (degrees 0..2): the cached operator
    of mctx on vec(f)."""
    if actx.algebra is not mctx.actx.algebra:
        raise ValueError("the bimodule is over another algebra")
    if (f.rows, f.cols) != (mctx.dim, actx.dim**n):
        raise ValueError(f"{f.rows}x{f.cols} matrix is not a {n}-cochain")
    img = _images(mctx.operator(n), f._new(1, f.rows * f.cols, f._d.reshape(1, -1))).dense()._d
    return Matrix(f.field, mctx.dim, actx.dim ** (n + 1), img.reshape(mctx.dim, -1), _raw=True)


class CohomologyData:
    def __init__(self, degree, dimension, reps, cocycle_space, coboundary_space, cochain_basis):
        self.degree = degree
        self.dimension = dimension
        self.cocycle_reps = reps  # list of Matrix
        self.cocycles = cocycle_space  # Subspace in cochain coordinates
        self.coboundaries = coboundary_space
        self.cochain_basis = cochain_basis  # HomSpace


def _basis_rows(hs: HomSpace) -> Matrix:
    """The cochain basis as rows of vec coordinates."""
    d = np.stack([b._d.ravel() for b in hs.basis])
    return Matrix(hs.basis[0].field, *d.shape, d, _raw=True)


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
    # the coefficient matrix D_n B^T as a matrix of rows, eliminated by
    # `SparseMap.rref`'s front end (over Q modulo primes, certified)
    ker = kernel_from_rref(cs.dim, *_images(mctx.operator(n), basis).transpose().rref())  # coefficients of cocycles
    # ker and B are RREFs of full row rank, so ker B is one too (row t leads
    # at B's pivot under ker's pivot of row t, where no other row of ker B
    # is nonzero) and spans the cocycles as it stands
    z_space = Subspace(veclen, ker @ basis) if ker.rows else Subspace.zero(fld, veclen)
    prev = cochain_space(actx, mctx, n - 1) if n else None
    if prev is None or prev.dim == 0:
        b_space = Subspace.zero(fld, veclen)
    else:
        coboundaries = _images(mctx.operator(n - 1), _basis_rows(prev))
        b_space = Subspace(veclen, *coboundaries.rref())
        # re-verify b^n b^(n-1) = 0 on the cochains: every coboundary is a cocycle
        _coordinates_in(z_space, coboundaries, "coboundaries_in_cocycles", (prev.dim,))
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


def _as_map(m: Matrix) -> SparseMap:
    """m as the map (cols,) -> (rows,), an operand of the constraint blocks."""
    return SparseMap.from_matrix(m, (m.cols,), (m.rows,))


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
        rep.record("pi_ctx", not morphism_defects(self.actx.ctx, self.eactx.obj, self.actx.obj, self.pi),
                   "pi not a ctx morphism")
        # kernel = image of incl, square zero
        comp = self.pi @ self.incl
        rep.record("incl_into_kernel", comp.is_zero(), "pi . incl != 0")
        rank_ok = self.incl.rank() == dm and de == da + dm
        rep.record("kernel_dimension", rank_ok, "kernel dimension mismatch")
        kern = self.incl.transpose()  # rows: the kernel basis in E
        rep.record("kernel_square_zero", pairwise_products(e, kern, kern).dense().is_zero(), "M^2 != 0")
        # induced bimodule structure matches the declared one: row (i, t) of
        # sigma(e_i) m_t and column (i, t) of the declared left action agree,
        # and likewise (t, i) on the right
        st = _any_linear_section(self.pi).transpose()
        ok_bimod = (pairwise_products(e, st, kern).dense() == (self.incl @ self.mctx.act_l).transpose()
                    and pairwise_products(e, kern, st).dense() == (self.incl @ self.mctx.act_r).transpose())
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
    unit = list(a.unit) + omega.apply(v_tensor(fld, a.unit, a.unit))  # (1, omega(1, 1))
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
    """X (+) Y with block-diagonal (co)actions: each summand's structure
    entries are placed with its V factor moved to the summand's offset."""
    fld = x.field
    n = x.dim + y.dim
    if ctx.kind == "vect":
        return CatObject(fld, n)
    dh = ctx.hopf.dim
    # each structure's input and output dims over X (+) Y, and the position of V in each
    dims = {"coact_l": ((n,), (dh, n), 0, 1), "coact_r": ((n,), (n, dh), 0, 0),
            "act_l": ((dh, n), (n,), 1, 0), "act_r": ((n, dh), (n,), 0, 0)}

    def moved(keys, sub, pos, off, out):  # keys over a summand's dims sub, V moved by off, over out
        digits = list(np.unravel_index(keys, sub))
        digits[pos] = digits[pos] + off
        return np.ravel_multi_index(digits, out)

    def block(name):
        ins, outs, pi, po = dims[name]
        parts = ((getattr(x, name), 0), (getattr(y, name), x.dim))
        if any(m is None for m, _ in parts):
            return None
        src = np.concatenate([moved(m.src, m.in_dims, pi, off, ins) for m, off in parts])
        dst = np.concatenate([moved(m.dst, m.out_dims, po, off, outs) for m, off in parts])
        order = np.lexsort((dst, src))
        return SparseMap.from_coo(fld, ins, outs, src[order], dst[order],
                                  Numerators.concat([m.values for m, _ in parts])[order])

    return CatObject(fld, n, ctx.hopf, **{name: block(name) for name in dims})


def find_ctx_section(ext: ExtensionData) -> Matrix:
    """A ctx-morphism sigma with pi sigma = id (not yet unital or
    multiplicative); raises InconsistentSystem when none exists."""
    actx = ext.actx
    fld = actx.field
    da, de = actx.dim, ext.eactx.dim
    solver = MapSolver(fld, da, de)
    for block in colinearity_blocks(actx.ctx, actx.obj, ext.eactx.obj):
        solver.add_coo(*block)
    solver.add_coo(*_post_block(_as_map(ext.pi), da), _vec(Matrix.identity(fld, da)))
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
    theta = defect_map(ext.actx.algebra, ext.eactx.algebra, sigma).matrix()
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
    solver.add_coo(dst, src, val, prod(op.out_dims), _vec(omega))


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
    if morphism_defects(src.ctx, src.obj, tgt.obj, sigma):
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
    solver.add_coo(*_post_block(_as_map(e2.pi), de1), _vec(e1.pi))
    solver.add_coo(*_pre_block(_as_map(e1.incl), de2, de1), _vec(e2.incl))
    for block in colinearity_blocks(e1.actx.ctx, e1.eactx.obj, e2.eactx.obj):
        solver.add_coo(*block)
    # unit condition f(1) = 1: F u = u' with u the unit as a column
    solver.add_coo(*_pre_block(_as_map(Matrix.column(fld, e1.eactx.algebra.unit)), de2, de1),
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


def quotient_in_context(actx: AlgebraInContext, ideal: IdealData | Subspace) -> QuotientStep:
    """Quotient algebra with coactions descended along the projection; the
    quotient a certificate recorded on the IdealData is taken as it is."""
    from .algebra import quotient_algebra

    fld = actx.field
    recorded = ideal.quotient if isinstance(ideal, IdealData) and ideal.algebra is actx.algebra else None
    q, proj, pm = recorded or (*quotient_algebra(actx.algebra, ideal), None)
    ideal_subspace = ideal.subspace if isinstance(ideal, IdealData) else ideal
    n, dq = actx.dim, q.dim
    free = ideal_subspace.free_columns()
    incl = Matrix.from_entries(fld, n, dq, {(fr, t): fld.one() for t, fr in enumerate(free)})
    ctx = actx.ctx
    if ctx.kind == "vect":
        obj = CatObject(fld, dq)
    else:
        pm = pm or SparseMap.from_matrix(proj, (n,), (dq,))
        ideal_rows, incl_rows = SparseMap.from_rows(ideal_subspace.basis), SparseMap.from_rows(incl.transpose())

        def image(rows, co, pos):  # (proj (x) id_H) co on the rows' vectors, (id_H (x) proj) co on the left
            return StagePipeline(fld, (rows.in_size,)).map_at(rows, 0).map_at(co, 0).map_at(pm, pos).sparse_map()

        def descend(co, pos, side):  # the ideal's image vanishes iff it is a subcomodule
            if co is not None and image(ideal_rows, co, pos).src.size:
                raise ValueError(f"ideal is not a {side} subcomodule")
            return None if co is None else image(incl_rows, co, pos)

        obj = CatObject(fld, dq, ctx.hopf, coact_l=descend(actx.obj.coact_l, 1, "left"),
                        coact_r=descend(actx.obj.coact_r, 0, "right"))
    qactx = AlgebraInContext(ctx, q, obj)
    return QuotientStep(qactx, proj, incl, free)


def _at(k: int, shape: tuple) -> tuple:
    """The flat index k as an index tuple over shape."""
    return tuple(int(x) for x in np.unravel_index(k, shape))


def _first_nonzero_row(d: np.ndarray, shape: tuple):
    """The first nonzero row of a dense d, as an index tuple over shape, or
    None."""
    rows = np.flatnonzero((d != 0).any(axis=1))
    return _at(rows[0], shape) if rows.size else None


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
                       b_actx: AlgebraInContext, f_map: Matrix):
    """Lift an algebra map B -> A/J to B -> A through the square-zero tower
    A/J^(r+1) -> A/J^r, correcting a ctx-lift at every step.

    The tower is the chain J, J^2, ..., 0 recorded on j_ideal (computed if
    none is), refused unless it ends at 0; its top level A/0 is A itself.
    f_map is expressed in the complement basis of A/J (the free columns of
    J's RREF basis).  Returns the lifted map B -> A.
    """
    if j_ideal.algebra is not actx.algebra:
        raise ValueError("the ideal is of another algebra")
    if j_ideal.powers is None:
        ideal_power_nilpotency(actx.algebra, j_ideal)
    powers = j_ideal.powers
    if powers[-1].dim != 0:
        raise ValueError("ideal is not nilpotent")
    # chain of quotients A/J^1 (the one a certificate recorded on J), A/J^2, ..., A/J^(nil) = A
    eye = Matrix.identity(actx.field, actx.dim)
    steps = [quotient_in_context(actx, p) for p in ([j_ideal, *powers[1:-1]] if len(powers) > 1 else [])]
    steps.append(QuotientStep(actx, eye, eye, list(range(actx.dim))))
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
    if not (steps[0].proj_from_full @ lift - f_map).is_zero():
        raise VerificationFailed("tower_lift_projects_to_target")
    return lift


def unitalize_section_generic(b_actx: AlgebraInContext, e_alg: AlgebraObject,
                              p_r: Matrix, sigma: Matrix) -> Matrix:
    """sigma' = 2 sigma - sigma(.) sigma(1) for a lift along p_r (the kernel
    is square-zero, so sigma' is unital and still lifts what sigma lifts)."""
    fld = b_actx.field
    s1 = Matrix.row(fld, sigma.apply(b_actx.algebra.unit))
    # row i of the products is sigma(e_i) sigma(1)
    out = sigma.scale(fld.from_int(2)) - pairwise_products(e_alg, sigma.transpose(), s1).dense().transpose()
    if not v_eq(fld, out.apply(b_actx.algebra.unit), e_alg.unit):
        raise VerificationFailed("unitalized_lift_unital")
    if not (p_r @ out - p_r @ sigma).is_zero():
        raise VerificationFailed("unitalized_lift_projection")
    return out


def _tower_correct(b_actx: AlgebraInContext, q_actx: AlgebraInContext,
                   p_r: Matrix, kernel_sub: Subspace, sigma: Matrix) -> Matrix:
    """One square-zero correction step: solve b1(tau) = curvature in ctx.

    The kernel's square-zero test and the induced bimodule actions are each
    one product (`pairwise_products`), the restricted coactions the
    coaction's slices on the kernel basis (`coaction_slices`), and the
    curvature is the difference of two stage pipelines
    (`defect_map`); each is read off in kernel coordinates
    (`Subspace.coordinates`), which fails when a product escapes the
    kernel.
    """
    fld = b_actx.field
    b_alg = b_actx.algebra
    q_alg = q_actx.algebra
    db = b_alg.dim
    dm = kernel_sub.dim
    kern = kernel_sub.basis  # rows: the kernel basis in Q_{r+1}
    incl = kern.transpose()  # (dq, dm)
    square = pairwise_products(q_alg, kern, kern)
    if square.src.size:
        raise VerificationFailed("tower_kernel_square_zero", _at(square.src[0], (dm, dm)))
    # curvature theta(a, b) = sigma(ab) - sigma(a) sigma(b) lands in the
    # kernel; omega holds its coordinates, column (i, j)
    theta = defect_map(b_alg, q_alg, sigma)
    omega = _coordinates_in(kernel_sub, theta, "tower_curvature_in_kernel", (db, db)).transpose()
    # B-bimodule structure on the kernel via sigma (well-defined: M^2 = 0):
    # rows (i, t) are sigma(e_i) m_t, rows (t, i) are m_t sigma(e_i)
    st = sigma.transpose()
    act_l = _coordinates_in(kernel_sub, pairwise_products(q_alg, st, kern),
                            "tower_kernel_left_action", (db, dm)).transpose()
    act_r = _coordinates_in(kernel_sub, pairwise_products(q_alg, kern, st),
                            "tower_kernel_right_action", (dm, db)).transpose()
    # kernel as a ctx object: restrict the coactions of Q_{r+1}
    ctx = b_actx.ctx
    if ctx.kind == "vect":
        kobj = CatObject(fld, dm)
    else:
        dh = ctx.hopf.dim
        kern_rows = SparseMap.from_rows(kern)

        def restrict(co, side):
            # slice (t, h) of co(m_t) is a vector of Q_{r+1} that must lie
            # in the kernel; its coordinate s is the entry t -> (s, h) on the
            # right, t -> (h, s) on the left
            if co is None:
                return None
            c = _coordinates_in(kernel_sub, coaction_slices(co, kern_rows, side), "tower_kernel_coaction", (dm, dh))
            th, s = np.nonzero(c._d)
            t, h = np.divmod(th, dh)
            if side == "r":
                return SparseMap(fld, (dm,), (dm, dh), t, s * dh + h, c._d[th, s])
            return SparseMap(fld, (dm,), (dh, dm), t, h * dm + s, c._d[th, s])

        kobj = CatObject(fld, dm, ctx.hopf, coact_l=restrict(q_actx.obj.coact_l, "l"),
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
