"""Relative Hochschild cohomology via the standard complex in a monoidal
context, square-zero extensions, cocycle classes, section correction and
lifting through nilpotent towers.

Degrees 0..2 only; the degree-3 space exists solely as the codomain of b^2.
Cochains are context morphisms A^(x)n -> M; the differentials are

    b0(f)(a)      = a f - f a
    b1(f)(a,b)    = a f(b) - f(ab) + f(a) b
    b2(f)(a,b,c)  = a f(b,c) - f(ab,c) + f(a,bc) - f(a,b) c
"""
from __future__ import annotations

from .algebra import AlgebraObject, IdealData, ValidationReport, ideal_power_nilpotency
from .category import (
    CatObject,
    CategoryContext,
    HomSpace,
    MapSolver,
    colinearity_blocks,
    hom_space,
    tensor_catobject,
    unit_object,
)
from .linalg import InconsistentSystem, Matrix, Subspace
from .tensors import v_basis, v_eq, v_is_zero, v_tensor, v_zero


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

    @property
    def field(self):
        return self.actx.field

    @property
    def dim(self):
        return self.obj.dim

    @classmethod
    def regular(cls, actx: AlgebraInContext) -> "BimoduleInContext":
        a = actx.algebra
        n = a.dim
        f = a.field
        ent = {}
        for (i, j), col in a.mul.items():
            for k, c in col.items():
                ent[(k, i * n + j)] = c
        m = Matrix.from_entries(f, n, n * n, ent)
        return cls(actx, actx.obj, m, m)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        a = self.actx.algebra
        f = self.field
        n, dm = a.dim, self.dim
        for name, ok, wit in self.obj.validate(self.actx.ctx).checks:
            rep.record("object:" + name, ok, wit)
        # module axioms
        for i in range(n):
            ei = v_basis(f, n, i)
            for j in range(n):
                ej = v_basis(f, n, j)
                prod = a.product(ei, ej)
                for t in range(dm):
                    m = v_basis(f, dm, t)
                    if not v_eq(f, self.left(prod, m), self.left(ei, self.left(ej, m))):
                        rep.record("left_module", False, f"(e{i}e{j})m{t}")
                        return rep
                    if not v_eq(f, self.right(m, prod), self.right(self.right(m, ei), ej)):
                        rep.record("right_module", False, f"m{t}(e{i}e{j})")
                        return rep
                    if not v_eq(f, self.left(ei, self.right(m, ej)), self.right(self.left(ei, m), ej)):
                        rep.record("middle_compat", False, f"e{i}m{t}e{j}")
                        return rep
        for t in range(dm):
            m = v_basis(f, dm, t)
            if not v_eq(f, self.left(a.unit, m), m) or not v_eq(f, self.right(m, a.unit), m):
                rep.record("unit_module", False, f"m{t}")
                return rep
        rep.record("left_module", True)
        rep.record("right_module", True)
        rep.record("middle_compat", True)
        rep.record("unit_module", True)
        if self.actx.ctx.kind != "vect":
            am = tensor_catobject(self.actx.obj, self.obj)
            rep.record("act_l_ctx", _is_ctx_morphism(self.actx.ctx, am, self.obj, self.act_l),
                       "left action not a ctx morphism")
            ma = tensor_catobject(self.obj, self.actx.obj)
            rep.record("act_r_ctx", _is_ctx_morphism(self.actx.ctx, ma, self.obj, self.act_r),
                       "right action not a ctx morphism")
        return rep

    def left(self, avec, m):
        return self.act_l.apply(v_tensor(self.field, avec, m))

    def right(self, m, avec):
        return self.act_r.apply(v_tensor(self.field, m, avec))


def _is_ctx_morphism(ctx: CategoryContext, x: CatObject, y: CatObject, f_mat: Matrix) -> bool:
    """Direct check that f : X -> Y commutes with the ctx structures."""
    if ctx.kind == "vect":
        return True
    fld = x.field
    dh = ctx.hopf.dim
    for v in range(x.dim):
        ev = v_basis(fld, x.dim, v)
        fv = f_mat.apply(ev)
        if ctx.wants_right_coaction:
            lhs = y.coact_r.apply(fv)
            rho = x.coact_r.apply(ev)
            rhs = v_zero(fld, y.dim * dh)
            for idx, c in enumerate(rho):
                if fld.is_zero(c):
                    continue
                xv, hh = idx // dh, idx % dh
                img = f_mat.apply(v_basis(fld, x.dim, xv))
                for yv, w in enumerate(img):
                    if not fld.is_zero(w):
                        rhs[yv * dh + hh] = fld.add(rhs[yv * dh + hh], fld.mul(c, w))
            if not v_eq(fld, lhs, rhs):
                return False
        if ctx.wants_left_coaction:
            lhs = y.coact_l.apply(fv)
            rho = x.coact_l.apply(ev)
            rhs = v_zero(fld, dh * y.dim)
            for idx, c in enumerate(rho):
                if fld.is_zero(c):
                    continue
                hh, xv = idx // x.dim, idx % x.dim
                img = f_mat.apply(v_basis(fld, x.dim, xv))
                for yv, w in enumerate(img):
                    if not fld.is_zero(w):
                        rhs[hh * y.dim + yv] = fld.add(rhs[hh * y.dim + yv], fld.mul(c, w))
            if not v_eq(fld, lhs, rhs):
                return False
        if ctx.wants_right_action:
            for hh in range(dh):
                lhs = f_mat.apply(x.act_r.apply(v_tensor(fld, ev, v_basis(fld, dh, hh))))
                rhs = y.act_r.apply(v_tensor(fld, fv, v_basis(fld, dh, hh)))
                if not v_eq(fld, lhs, rhs):
                    return False
        if ctx.wants_left_action:
            for hh in range(dh):
                lhs = f_mat.apply(x.act_l.apply(v_tensor(fld, v_basis(fld, dh, hh), ev)))
                rhs = y.act_l.apply(v_tensor(fld, v_basis(fld, dh, hh), fv))
                if not v_eq(fld, lhs, rhs):
                    return False
    return True


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


def differential(actx: AlgebraInContext, mctx: BimoduleInContext, n: int, f: Matrix) -> Matrix:
    """b^n applied to a cochain matrix; degrees 0..2 only."""
    a = actx.algebra
    fld = a.field
    da, dm = a.dim, mctx.dim
    if n == 0:
        m0 = f.col_list(0)
        cols = {}
        for i in range(da):
            ei = v_basis(fld, da, i)
            col = [fld.sub(x, y) for x, y in zip(mctx.left(ei, m0), mctx.right(m0, ei))]
            for t, c in enumerate(col):
                if not fld.is_zero(c):
                    cols[(t, i)] = c
        return Matrix.from_entries(fld, dm, da, cols)
    if n == 1:
        cols = {}
        for i in range(da):
            fi = f.col_list(i)
            ei = v_basis(fld, da, i)
            for j in range(da):
                fj = f.col_list(j)
                ej = v_basis(fld, da, j)
                col = mctx.left(ei, fj)
                prod = a.pair_product(i, j)
                for k, c in prod.items():
                    col = [fld.sub(x, fld.mul(c, y)) for x, y in zip(col, f.col_list(k))]
                col = [fld.add(x, y) for x, y in zip(col, mctx.right(fi, ej))]
                for t, c in enumerate(col):
                    if not fld.is_zero(c):
                        cols[(t, i * da + j)] = c
        return Matrix.from_entries(fld, dm, da * da, cols)
    if n == 2:
        cols = {}
        for i in range(da):
            ei = v_basis(fld, da, i)
            for j in range(da):
                prod_ij = a.pair_product(i, j)
                fij = f.col_list(i * da + j)
                for k in range(da):
                    ek = v_basis(fld, da, k)
                    prod_jk = a.pair_product(j, k)
                    col = mctx.left(ei, f.col_list(j * da + k))
                    for m, c in prod_ij.items():
                        col = [fld.sub(x, fld.mul(c, y)) for x, y in zip(col, f.col_list(m * da + k))]
                    for m, c in prod_jk.items():
                        col = [fld.add(x, fld.mul(c, y)) for x, y in zip(col, f.col_list(i * da + m))]
                    col = [fld.sub(x, y) for x, y in zip(col, mctx.right(fij, ek))]
                    for t, c in enumerate(col):
                        if not fld.is_zero(c):
                            cols[(t, (i * da + j) * da + k)] = c
        return Matrix.from_entries(fld, dm, da * da * da, cols)
    raise ValueError("differential implemented for degrees 0, 1, 2")


def b1_operator_rows(actx: AlgebraInContext, mctx: BimoduleInContext):
    """Entries of b^1 as a linear operator on vec(tau), tau : A -> M.

    Row index (m, (i,j)) flat; column index (m', x) flat.
    """
    a = actx.algebra
    fld = a.field
    da, dm = a.dim, mctx.dim
    entries: dict = {}

    def bump(r, c, v):
        cur = entries.get((r, c))
        s = v if cur is None else fld.add(cur, v)
        if fld.is_zero(s):
            entries.pop((r, c), None)
        else:
            entries[(r, c)] = s

    for m_out, ax, v in mctx.act_l.entries():
        i, mp = ax // dm, ax % dm
        for j in range(da):
            bump(m_out * da * da + i * da + j, mp * da + j, v)
    for (i, j), col in a.mul.items():
        for k, c in col.items():
            for m_out in range(dm):
                bump(m_out * da * da + i * da + j, m_out * da + k, fld.neg(c))
    for m_out, xa, v in mctx.act_r.entries():
        mp, j = xa // da, xa % da
        for i in range(da):
            bump(m_out * da * da + i * da + j, mp * da + i, v)
    return entries, dm * da * da


class CohomologyData:
    def __init__(self, degree, dimension, reps, cocycle_space, coboundary_space, cochain_basis):
        self.degree = degree
        self.dimension = dimension
        self.cocycle_reps = reps  # list of Matrix
        self.cocycles = cocycle_space  # Subspace in cochain coordinates
        self.coboundaries = coboundary_space
        self.cochain_basis = cochain_basis  # HomSpace


def cohomology(actx: AlgebraInContext, mctx: BimoduleInContext, n: int) -> CohomologyData:
    """dim ker b^n - dim im b^(n-1) with RREF-deterministic representatives."""
    if n not in (0, 1, 2):
        raise ValueError("cohomology implemented for degrees 0, 1, 2")
    fld = actx.field
    cs = cochain_space(actx, mctx, n)
    da, dm = actx.dim, mctx.dim
    veclen = dm * (da**n)
    # cocycles: kernel of b^n within the ctx-Hom space
    if cs.dim == 0:
        zero_sub = Subspace.zero(fld, max(veclen, 1))
        return CohomologyData(n, 0, [], zero_sub, zero_sub, cs)
    img_cols = []
    for bmat in cs.basis:
        img = differential(actx, mctx, n, bmat)
        img_cols.append(_vec(img))
    coeff = Matrix.from_rows(fld, img_cols).transpose()  # (out coords) x (cs.dim)
    ker = coeff.kernel()  # rows: coefficient vectors of cocycles
    cocycle_vecs = []
    for t in range(ker.rows):
        co = ker.row_list(t)
        acc = v_zero(fld, veclen)
        for c, bmat in zip(co, cs.basis):
            if fld.is_zero(c):
                continue
            bv = _vec(bmat)
            acc = [fld.add(x, fld.mul(c, y)) for x, y in zip(acc, bv)]
        cocycle_vecs.append(acc)
    z_space = Subspace.from_vectors(fld, veclen, cocycle_vecs) if cocycle_vecs else Subspace.zero(fld, veclen)
    # coboundaries: image of b^(n-1) on the ctx cochains one degree down
    if n == 0:
        b_space = Subspace.zero(fld, veclen)
    else:
        prev = cochain_space(actx, mctx, n - 1)
        ims = [_vec(differential(actx, mctx, n - 1, bm)) for bm in prev.basis]
        b_space = Subspace.from_vectors(fld, veclen, ims) if ims else Subspace.zero(fld, veclen)
    if not z_space.contains(b_space):
        raise AssertionError("coboundaries escape the cocycles (differential bug)")
    dim = z_space.dim - b_space.dim
    comp = b_space.quotient_complement(z_space)
    reps = []
    for t in range(comp.rows):
        mat = _devec(fld, comp.row_list(t), dm, da**n)
        if n == 2:
            mat = normalize_2cocycle(actx, mctx, mat)
        reps.append(mat)
    return CohomologyData(n, dim, reps, z_space, b_space, cs)


def _vec(m: Matrix) -> list:
    out = []
    for i in range(m.rows):
        out.extend(m.row_list(i))
    return out


def _devec(fld, flat: list, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(fld, [flat[r * cols : (r + 1) * cols] for r in range(rows)])


def normalize_2cocycle(actx: AlgebraInContext, mctx: BimoduleInContext, omega: Matrix) -> Matrix:
    """Subtract b1 of tau(a) = omega(1 (x) a): kills omega(1, -) and omega(-, 1)."""
    a = actx.algebra
    fld = a.field
    da, dm = a.dim, mctx.dim
    tau_cols = {}
    for x in range(da):
        col = v_zero(fld, dm)
        for i, u in enumerate(a.unit):
            if fld.is_zero(u):
                continue
            ocol = omega.col_list(i * da + x)
            col = [fld.add(p, fld.mul(u, q)) for p, q in zip(col, ocol)]
        for t, c in enumerate(col):
            if not fld.is_zero(c):
                tau_cols[(t, x)] = c
    tau = Matrix.from_entries(fld, dm, da, tau_cols)
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
        ok = True
        for i in range(de):
            for j in range(de):
                lhs = self.pi.apply(e.product(v_basis(fld, de, i), v_basis(fld, de, j)))
                rhs = a.product(self.pi.apply(v_basis(fld, de, i)), self.pi.apply(v_basis(fld, de, j)))
                if not v_eq(fld, lhs, rhs):
                    ok = False
                    break
            if not ok:
                break
        rep.record("pi_algebra_map", ok and v_eq(fld, self.pi.apply(e.unit), a.unit), "pi not an algebra map")
        rep.record("pi_ctx", _is_ctx_morphism(self.actx.ctx, self.eactx.obj, self.actx.obj, self.pi),
                   "pi not a ctx morphism")
        # kernel = image of incl, square zero
        comp = self.pi @ self.incl
        rep.record("incl_into_kernel", comp.is_zero(), "pi . incl != 0")
        rank_ok = self.incl.rank() == dm and de == da + dm
        rep.record("kernel_dimension", rank_ok, "kernel dimension mismatch")
        sq_ok = True
        for s in range(dm):
            for t in range(dm):
                prod = e.product(self.incl.col_list(s), self.incl.col_list(t))
                if not v_is_zero(fld, prod):
                    sq_ok = False
        rep.record("kernel_square_zero", sq_ok, "M^2 != 0")
        # induced bimodule structure matches the declared one
        sigma = _any_linear_section(self.pi)
        ok_bimod = True
        for i in range(da):
            sa = sigma.col_list(i)
            for t in range(dm):
                mvec = self.incl.col_list(t)
                left_ind = e.product(sa, mvec)
                decl = self.incl.apply(self.mctx.left(v_basis(fld, da, i), v_basis(fld, dm, t)))
                if not v_eq(fld, left_ind, decl):
                    ok_bimod = False
                right_ind = e.product(mvec, sa)
                decl = self.incl.apply(self.mctx.right(v_basis(fld, dm, t), v_basis(fld, da, i)))
                if not v_eq(fld, right_ind, decl):
                    ok_bimod = False
        rep.record("induced_bimodule", ok_bimod, "induced bimodule structure differs from declared")
        return rep


def _any_linear_section(pi: Matrix) -> Matrix:
    """A right inverse of a surjective matrix (canonical: free vars zero)."""
    fld = pi.field
    cols = []
    for i in range(pi.rows):
        sol, _ = pi.solve(Matrix.column(fld, v_basis(fld, pi.rows, i)))
        cols.append(sol)
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
    mul: dict = {}
    for i in range(da):
        for j in range(da):
            col: dict = {}
            for k, c in a.pair_product(i, j).items():
                col[k] = c
            oc = omega.col_list(i * da + j)
            for t, c in enumerate(oc):
                if not fld.is_zero(c):
                    col[da + t] = fld.neg(c)
            if col:
                mul[(i, j)] = col
    for i, t, v in mctx.act_l.entries():
        # act_l[(i_out), (a, m)]
        av, mv = t // dm, t % dm
        mul.setdefault((av, da + mv), {})[da + i] = v
    for i, t, v in mctx.act_r.entries():
        mv, av = t // da, t % da
        mul.setdefault((da + mv, av), {})[da + i] = v
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
    e_alg = AlgebraObject(fld, de, mul, unit,
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
    for entries, nrows in colinearity_blocks(actx.ctx, actx.obj, ext.eactx.obj):
        solver.add_rows(entries, nrows)
    from .category import _post_block

    entries, nrows = _post_block(ext.pi, da)
    rhs = _vec(Matrix.identity(fld, da))
    solver.add_rows(entries, nrows, rhs)
    return solver.solve_map()


def unitalize_section(ext: ExtensionData, sigma: Matrix) -> Matrix:
    """sigma' = 2 sigma - sigma(.) sigma(1): unital, still a ctx-section."""
    fld = ext.actx.field
    e = ext.eactx.algebra
    da = ext.actx.dim
    s1 = sigma.apply(ext.actx.algebra.unit)
    cols = []
    for i in range(da):
        si = sigma.col_list(i)
        prod = e.product(si, s1)
        two_si = [fld.add(x, x) for x in si]
        cols.append([fld.sub(x, y) for x, y in zip(two_si, prod)])
    return Matrix.from_rows(fld, cols).transpose()


def curvature(ext: ExtensionData, sigma: Matrix) -> Matrix:
    """theta(a,b) = sigma(ab) - sigma(a) sigma(b), as a map A (x) A -> E."""
    fld = ext.actx.field
    a = ext.actx.algebra
    e = ext.eactx.algebra
    da, de = a.dim, e.dim
    cols = {}
    for i in range(da):
        si = sigma.col_list(i)
        for j in range(da):
            acc = v_zero(fld, de)
            for k, c in a.pair_product(i, j).items():
                acc = [fld.add(x, fld.mul(c, y)) for x, y in zip(acc, sigma.col_list(k))]
            prod = e.product(si, sigma.col_list(j))
            acc = [fld.sub(x, y) for x, y in zip(acc, prod)]
            for t, c in enumerate(acc):
                if not fld.is_zero(c):
                    cols[(t, i * da + j)] = c
    return Matrix.from_entries(fld, de, da * da, cols)


def cocycle_class_of_extension(ext: ExtensionData, sigma: Matrix | None = None):
    """The 2-cocycle of a section (factored through the kernel) and its
    coordinates in the chosen H^2 basis.  Section-choice independent."""
    if sigma is None:
        sigma = find_ctx_section(ext)
    else:
        if not (ext.pi @ sigma - Matrix.identity(ext.actx.field, ext.actx.dim)).is_zero():
            raise ValueError("supplied sigma is not a section of pi")
    sigma = unitalize_section(ext, sigma)
    theta = curvature(ext, sigma)
    li = left_inverse(ext.incl)
    omega = li @ theta
    if not (ext.incl @ omega - theta).is_zero():
        raise AssertionError("curvature does not factor through the kernel")
    if not differential(ext.actx, ext.mctx, 2, omega).is_zero():
        raise AssertionError("curvature cocycle fails b2 = 0")
    coords = class_coordinates(ext.actx, ext.mctx, omega)
    return omega, coords


def class_coordinates(actx: AlgebraInContext, mctx: BimoduleInContext, omega: Matrix) -> list:
    """Coordinates of [omega] in the H^2 representative basis."""
    fld = actx.field
    h2 = cohomology(actx, mctx, 2)
    vec = _vec(omega)
    if h2.dimension == 0:
        if not h2.coboundaries.contains_vector(vec):
            raise AssertionError("cocycle not a coboundary although H^2 = 0")
        return []
    cols = [_vec(r) for r in h2.cocycle_reps]
    nb = h2.coboundaries.basis
    for t in range(nb.rows):
        cols.append(nb.row_list(t))
    m = Matrix.from_rows(fld, cols).transpose()
    sol, _ = m.solve(Matrix.column(fld, vec))
    return sol[: h2.dimension]


class Obstructed(Exception):
    def __init__(self, coords):
        super().__init__(f"lifting obstruction class {coords}")
        self.coords = coords


def correct_section(ext: ExtensionData, sigma_unital: Matrix) -> Matrix:
    """Turn a unital ctx-section into an algebra-map section by adding
    incl . tau where b1(tau) = curvature; Obstructed carries the H^2 class."""
    actx, mctx = ext.actx, ext.mctx
    fld = actx.field
    theta = curvature(ext, sigma_unital)
    li = left_inverse(ext.incl)
    omega = li @ theta
    if not (ext.incl @ omega - theta).is_zero():
        raise AssertionError("curvature does not factor through the kernel")
    da, dm = actx.dim, mctx.dim
    solver = MapSolver(fld, da, dm)
    for entries, nrows in colinearity_blocks(actx.ctx, actx.obj, mctx.obj):
        solver.add_rows(entries, nrows)
    entries, nrows = b1_operator_rows(actx, mctx)
    solver.add_rows(entries, nrows, _vec(omega))
    try:
        tau = solver.solve_map()
    except InconsistentSystem:
        raise Obstructed(class_coordinates(actx, mctx, omega))
    corrected = sigma_unital + ext.incl @ tau
    _verify_algebra_section(ext, corrected)
    return corrected


def _verify_algebra_section(ext: ExtensionData, sigma: Matrix):
    fld = ext.actx.field
    a = ext.actx.algebra
    e = ext.eactx.algebra
    if not (ext.pi @ sigma - Matrix.identity(fld, a.dim)).is_zero():
        raise AssertionError("corrected map is not a section")
    if not v_eq(fld, sigma.apply(a.unit), e.unit):
        raise AssertionError("corrected section is not unital")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = sigma.apply(a.product(v_basis(fld, a.dim, i), v_basis(fld, a.dim, j)))
            rhs = e.product(sigma.col_list(i), sigma.col_list(j))
            if not v_eq(fld, lhs, rhs):
                raise AssertionError("corrected section is not multiplicative")
    if not _is_ctx_morphism(ext.actx.ctx, ext.actx.obj, ext.eactx.obj, sigma):
        raise AssertionError("corrected section is not a ctx morphism")


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
    from .category import _post_block, _pre_block

    entries, nrows = _post_block(e2.pi, de1)
    solver.add_rows(entries, nrows, _vec(e1.pi))
    entries, nrows = _pre_block(e1.incl, de2, de1)
    solver.add_rows(entries, nrows, _vec(e2.incl))
    for entries, nrows in colinearity_blocks(e1.actx.ctx, e1.eactx.obj, e2.eactx.obj):
        solver.add_rows(entries, nrows)
    # unit condition f(1) = 1
    u_entries = {}
    for x, u in enumerate(e1.eactx.algebra.unit):
        if not fld.is_zero(u):
            for y in range(de2):
                u_entries[(y, y * de1 + x)] = u
    solver.add_rows(u_entries, de2, list(e2.eactx.algebra.unit))
    try:
        f0 = solver.solve_map()
    except InconsistentSystem:
        return EquivalenceResult("inequivalent")
    ker = solver.matrix().kernel()
    k = ker.rows
    if fld.kind == "Fp":
        total = fld.p**k
        coeff_range = range(fld.p)
    else:
        total = 3**k
        coeff_range = (-1, 0, 1)
    if total > bound:
        if _is_multiplicative(e1, e2, f0):
            return EquivalenceResult("equivalent", f0)
        return EquivalenceResult("undecided")
    import itertools

    for combo in itertools.product(coeff_range, repeat=k):
        f = f0
        for c, t in zip(combo, range(k)):
            if c == 0:
                continue
            f = f + _devec(fld, ker.row_list(t), de2, de1).scale(fld.from_int(c))
        if _is_multiplicative(e1, e2, f):
            return EquivalenceResult("equivalent", f)
    if fld.kind == "Fp":
        return EquivalenceResult("inequivalent")
    return EquivalenceResult("inequivalent" if k == 0 else "undecided")


def _is_multiplicative(e1: ExtensionData, e2: ExtensionData, f: Matrix) -> bool:
    fld = e1.actx.field
    a1 = e1.eactx.algebra
    a2 = e2.eactx.algebra
    for i in range(a1.dim):
        fi = f.col_list(i)
        for j in range(a1.dim):
            lhs = f.apply(a1.product(v_basis(fld, a1.dim, i), v_basis(fld, a1.dim, j)))
            rhs = a2.product(fi, f.col_list(j))
            if not v_eq(fld, lhs, rhs):
                return False
    return True


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

        cols = [proj.col_list(xv) for xv in range(n)]  # proj(e_xv)

        def descend(co, side):
            if co is None:
                return None
            # check the ideal is a subcomodule, then push through proj
            for t in range(ideal_subspace.dim):
                img = co.apply(ideal_subspace.basis.row_list(t))
                acc = v_zero(fld, dq * dh)
                for idx, c in enumerate(img):
                    if fld.is_zero(c):
                        continue
                    if side == "r":
                        xv, hh = idx // dh, idx % dh
                        for qv, w in enumerate(cols[xv]):
                            acc[qv * dh + hh] = fld.add(acc[qv * dh + hh], fld.mul(c, w))
                    else:
                        hh, xv = idx // n, idx % n
                        for qv, w in enumerate(cols[xv]):
                            acc[hh * dq + qv] = fld.add(acc[hh * dq + qv], fld.mul(c, w))
                if not v_is_zero(fld, acc):
                    raise ValueError(f"ideal is not a {'right' if side == 'r' else 'left'} subcomodule")
            entries = {}
            for t in range(dq):
                img = co.apply(incl.col_list(t))
                for idx, c in enumerate(img):
                    if fld.is_zero(c):
                        continue
                    if side == "r":
                        xv, hh = idx // dh, idx % dh
                        for qv, w in enumerate(cols[xv]):
                            if not fld.is_zero(fld.mul(c, w)):
                                key = (qv * dh + hh, t)
                                entries[key] = fld.add(entries.get(key, fld.zero()), fld.mul(c, w))
                    else:
                        hh, xv = idx // n, idx % n
                        for qv, w in enumerate(cols[xv]):
                            if not fld.is_zero(fld.mul(c, w)):
                                key = (hh * dq + qv, t)
                                entries[key] = fld.add(entries.get(key, fld.zero()), fld.mul(c, w))
            rows = dq * dh if side == "r" else dh * dq
            return Matrix.from_entries(fld, rows, dq, entries)

        obj = CatObject(fld, dq, ctx.hopf,
                        coact_l=descend(actx.obj.coact_l, "l"),
                        coact_r=descend(actx.obj.coact_r, "r"))
    qactx = AlgebraInContext(ctx, q, obj)
    return QuotientStep(qactx, proj, incl, free)


def _solve_ctx_lift(ctx, b_actx, q_actx, cur: QuotientStep, nxt: QuotientStep,
                    p_r: Matrix, kr: Subspace, f_cur: Matrix, step: int) -> Matrix:
    """A ctx-morphism sigma0 : B -> Q_{r+1} with p_r sigma0 = f_cur.

    The lift is parameterized as iota f_cur + incl_K X over the unknown
    X : B -> ker(p_r), which keeps the elimination small (iota is the
    coordinate section available because nested RREF pivot sets nest).
    """
    fld = b_actx.field
    db = b_actx.dim
    dq = q_actx.dim
    dm = kr.dim
    if dm == 0:
        return _coordinate_section(fld, cur, nxt) @ f_cur
    iota = _coordinate_section(fld, cur, nxt)
    s0 = iota @ f_cur
    incl = kr.basis.transpose()  # (dq, dm)
    s0_vec = _vec(s0)
    solver = MapSolver(fld, db, dm)
    for entries, nrows in colinearity_blocks(ctx, b_actx.obj, q_actx.obj):
        # restrict columns along sigma0 = s0 + incl X and move s0 to the rhs
        new_entries: dict = {}
        rhs = [fld.zero()] * nrows
        for (row, col), v in entries.items():
            y, x = col // db, col % db
            if not fld.is_zero(s0_vec[col]):
                rhs[row] = fld.sub(rhs[row], fld.mul(v, s0_vec[col]))
            for t in range(dm):
                w = incl[y, t]
                if not fld.is_zero(w):
                    key = (row, t * db + x)
                    cur_v = new_entries.get(key, fld.zero())
                    val = fld.add(cur_v, fld.mul(v, w))
                    if fld.is_zero(val):
                        new_entries.pop(key, None)
                    else:
                        new_entries[key] = val
        solver.add_rows(new_entries, nrows, rhs)
    try:
        x_map = solver.solve_map()
    except InconsistentSystem:
        raise MissingSection(f"no ctx lift through tower step {step + 1}")
    sigma0 = s0 + incl @ x_map
    if not (p_r @ sigma0 - f_cur).is_zero():
        raise AssertionError("parameterized lift misses the target")
    return sigma0


def _coordinate_section(fld, cur: QuotientStep, nxt: QuotientStep) -> Matrix:
    """Coordinate inclusion Q_r -> Q_{r+1} (pivot sets of nested ideals nest)."""
    pos = {amb: t for t, amb in enumerate(nxt.free)}
    entries = {}
    for t, amb in enumerate(cur.free):
        if amb not in pos:
            raise AssertionError("complement bases do not nest")
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
    fld = actx.field
    powers, nil_index = ideal_power_nilpotency(actx.algebra, j_ideal)
    # chain of quotients A/J^1, A/J^2, ..., A/J^(nil) = A
    steps = [quotient_in_context(actx, powers[r]) for r in range(len(powers))]
    if powers[-1].dim != 0:
        raise ValueError("ideal is not nilpotent")
    f_cur = f_map
    db = b_actx.dim
    for r in range(len(steps) - 1):
        cur, nxt = steps[r], steps[r + 1]
        p_r = cur.proj_from_full @ nxt.incl_to_full  # Q_{r+1} -> Q_r
        dq = nxt.actx.dim
        kr = Subspace.from_matrix_rows(p_r.kernel())
        sigma0 = _solve_ctx_lift(actx.ctx, b_actx, nxt.actx, cur, nxt, p_r, kr, f_cur, r)
        sigma0u = unitalize_section_generic(b_actx, nxt.actx.algebra, p_r, f_cur, sigma0)
        f_cur = _tower_correct(b_actx, nxt.actx, p_r, kr, sigma0u, f_cur)
    lift = f_cur
    # final checks: algebra map, ctx morphism, projects onto f_map
    _verify_tower_lift(actx, b_actx, steps, lift, f_map)
    return (lift, steps) if return_steps else lift


def unitalize_section_generic(b_actx: AlgebraInContext, e_alg: AlgebraObject,
                              p_r: Matrix, f_target: Matrix, sigma: Matrix) -> Matrix:
    """sigma' = 2 sigma - sigma(.) sigma(1) for a lift along p_r (the kernel
    is square-zero, so sigma' is unital and still lifts f_target)."""
    fld = b_actx.field
    s1 = sigma.apply(b_actx.algebra.unit)
    cols = []
    for i in range(b_actx.dim):
        si = sigma.col_list(i)
        prod = e_alg.product(si, s1)
        cols.append([fld.sub(fld.add(x, x), y) for x, y in zip(si, prod)])
    out = Matrix.from_rows(fld, cols).transpose()
    if not v_eq(fld, out.apply(b_actx.algebra.unit), e_alg.unit):
        raise AssertionError("unitalization failed")
    if not (p_r @ out - p_r @ sigma).is_zero():
        raise AssertionError("unitalization moved the lift")
    return out


def _tower_correct(b_actx: AlgebraInContext, q_actx: AlgebraInContext,
                   p_r: Matrix, kernel_sub: Subspace, sigma: Matrix, f_target: Matrix) -> Matrix:
    """One square-zero correction step: solve b1(tau) = curvature in ctx."""
    fld = b_actx.field
    b_alg = b_actx.algebra
    q_alg = q_actx.algebra
    db, dq = b_alg.dim, q_alg.dim
    dm = kernel_sub.dim
    incl = kernel_sub.basis.transpose()  # (dq, dm)
    piv = kernel_sub.pivots
    # square-zero check for the kernel
    for s in range(dm):
        for t in range(dm):
            if not v_is_zero(fld, q_alg.product(incl.col_list(s), incl.col_list(t))):
                raise AssertionError("tower step kernel is not square-zero")
    # curvature theta : B (x) B -> Q_{r+1}, lands in the kernel
    theta_cols = {}
    for i in range(db):
        si = sigma.col_list(i)
        for j in range(db):
            acc = v_zero(fld, dq)
            for k, c in b_alg.pair_product(i, j).items():
                acc = [fld.add(x, fld.mul(c, y)) for x, y in zip(acc, sigma.col_list(k))]
            prod = q_alg.product(si, sigma.col_list(j))
            acc = [fld.sub(x, y) for x, y in zip(acc, prod)]
            if not kernel_sub.contains_vector(acc):
                raise AssertionError("curvature escapes the tower kernel")
            for t in range(dm):
                v = acc[piv[t]]
                if not fld.is_zero(v):
                    theta_cols[(t, i * db + j)] = v
    omega = Matrix.from_entries(fld, dm, db * db, theta_cols)
    # B-bimodule structure on the kernel via sigma (well-defined: M^2 = 0)
    act_l_e = {}
    act_r_e = {}
    for i in range(db):
        si = sigma.col_list(i)
        for t in range(dm):
            mv = incl.col_list(t)
            left = q_alg.product(si, mv)
            right = q_alg.product(mv, si)
            if not kernel_sub.contains_vector(left) or not kernel_sub.contains_vector(right):
                raise AssertionError("kernel is not stable under the bimodule actions")
            for s in range(dm):
                v = left[piv[s]]
                if not fld.is_zero(v):
                    act_l_e[(s, i * dm + t)] = v
                v = right[piv[s]]
                if not fld.is_zero(v):
                    act_r_e[(s, t * db + i)] = v
    act_l = Matrix.from_entries(fld, dm, db * dm, act_l_e)
    act_r = Matrix.from_entries(fld, dm, dm * db, act_r_e)
    # kernel as a ctx object: restrict the coactions of Q_{r+1}
    ctx = b_actx.ctx
    if ctx.kind == "vect":
        kobj = CatObject(fld, dm)
    else:
        dh = ctx.hopf.dim

        def restrict(co, side):
            if co is None:
                return None
            entries = {}
            for t in range(dm):
                img = co.apply(incl.col_list(t))
                for hh in range(dh):
                    comp = ([img[x * dh + hh] for x in range(dq)] if side == "r"
                            else [img[hh * dq + x] for x in range(dq)])
                    if v_is_zero(fld, comp):
                        continue
                    if not kernel_sub.contains_vector(comp):
                        raise AssertionError("kernel coaction escapes the kernel")
                    for s in range(dm):
                        v = comp[piv[s]]
                        if not fld.is_zero(v):
                            key = (s * dh + hh, t) if side == "r" else (hh * dm + s, t)
                            entries[key] = v
            rows = dm * dh if side == "r" else dh * dm
            return Matrix.from_entries(fld, rows, dm, entries)

        kobj = CatObject(fld, dm, ctx.hopf,
                         coact_l=restrict(q_actx.obj.coact_l, "l"),
                         coact_r=restrict(q_actx.obj.coact_r, "r"))
    mctx = BimoduleInContext(b_actx, kobj, act_l, act_r)
    solver = MapSolver(fld, db, dm)
    for entries, nrows in colinearity_blocks(ctx, b_actx.obj, kobj):
        solver.add_rows(entries, nrows)
    entries, nrows = b1_operator_rows(b_actx, mctx)
    solver.add_rows(entries, nrows, _vec(omega))
    try:
        tau = solver.solve_map()
    except InconsistentSystem:
        raise Obstructed(f"tower step obstruction (kernel dim {dm})")
    corrected = sigma + incl @ tau
    # verify: algebra map lifting f_target
    for i in range(db):
        for j in range(db):
            lhs = corrected.apply(b_alg.product(v_basis(fld, db, i), v_basis(fld, db, j)))
            rhs = q_alg.product(corrected.col_list(i), corrected.col_list(j))
            if not v_eq(fld, lhs, rhs):
                raise AssertionError("tower correction failed multiplicativity")
    if not v_eq(fld, corrected.apply(b_alg.unit), q_alg.unit):
        raise AssertionError("tower correction failed unitality")
    if not _is_ctx_morphism(ctx, b_actx.obj, q_actx.obj, corrected):
        raise AssertionError("tower correction failed colinearity")
    if not (p_r @ corrected - p_r @ sigma).is_zero():
        raise AssertionError("tower correction moved the projection")
    return corrected


def _verify_tower_lift(actx, b_actx, steps, lift, f_map):
    fld = actx.field
    # project the lift down to A/J and compare with f_map
    p_full = steps[0].proj_from_full  # A -> A/J
    top_incl = steps[-1].incl_to_full  # Q_n -> A (identity permutation)
    down = p_full @ top_incl @ lift
    if not (down - f_map).is_zero():
        raise AssertionError("tower lift does not project onto the given map")
