"""Bialgebras and Hopf algebras: compatibility validation, antipodes by
convolution inversion, integrals and their ad-(co)invariance.

A BialgebraObject is an AlgebraObject and a CoalgebraObject on one basis,
each holding its structure constants as arrays (i, j, k, v).
`BialgebraObject.from_parts` wraps existing ones without copying, so a
Hopf object made from a bialgebra, or a bialgebra from its dual parts,
shares their arrays and cached maps.  Every check reads the arrays or the
cached maps: Delta(1) on the entries of Delta at the support of 1, eps
multiplicative by index arithmetic, Delta multiplicative by joins of the
constants, the antipode identities as `tensors.StagePipeline`s, the
convolution system for the antipode by a join of Delta with the product.  Associativity and the
multiplicativity of Delta are checked on one
generating set of basis elements: the left nucleus and {u : Delta(uv) =
Delta(u)Delta(v) for all v} are unital subalgebras, so each is everything
once it contains the generators (a failed associativity check there falls
back to the full join for its witness, `AlgebraObject.validate`).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import AlgebraObject, ValidationReport, multiplicativity_defect
from .coalgebra import CoalgebraObject
from .fields import ScalarField
from .linalg import InconsistentSystem, Matrix, Numerators, SparseMap, _dtype, _join, _summed, kernel_from_rref
from .tensors import StagePipeline, pipelines_equal, v_eq, v_zero, vector


_DELTA_BLOCK = 2**20  # terms before the second join of the Delta-multiplicativity check
# the checks of `AlgebraObject.validate`, recorded as passed for a verified
# algebra (README, "Implied checks")
_ALGEBRA_VERIFIED = (("shape", True, None), ("associativity", True, None), ("unit", True, None))


class BialgebraObject:
    """Algebra + coalgebra on one basis with Delta, eps algebra maps."""

    def __init__(self, field: ScalarField, dim: int, mul, unit, comul, counit, labels=None):
        labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        self._set(AlgebraObject(field, dim, mul, unit, labels), CoalgebraObject(field, dim, comul, counit, labels))

    @classmethod
    def from_parts(cls, alg: AlgebraObject, coalg: CoalgebraObject, *antipode) -> "BialgebraObject":
        """The bialgebra (HopfObject: with the antipode matrix) on an algebra
        and a coalgebra of one basis, sharing their structure constants,
        caches and validation state; the labels are the algebra's."""
        obj = cls.__new__(cls)
        obj._set(alg, coalg, *antipode)
        return obj

    def _set(self, alg: AlgebraObject, coalg: CoalgebraObject):
        self.field = alg.field
        self.dim = alg.dim
        self.labels = alg.labels
        self._alg = alg
        self._coalg = coalg
        self._verified = False  # the bialgebra axioms of the last `validate` held

    # views sharing the same structure constants
    def as_algebra(self) -> AlgebraObject:
        return self._alg

    def as_coalgebra(self) -> CoalgebraObject:
        return self._coalg

    @property
    def mul(self):
        return self._alg.mul

    @property
    def unit(self):
        return self._alg.unit

    @property
    def comul(self):
        return self._coalg.comul

    @property
    def counit(self):
        return self._coalg.counit

    def product(self, u, v):
        return self._alg.product(u, v)

    def counit_of(self, vec):
        return self._coalg.counit_of(vec)

    def validate(self, generator_cap: int = 24) -> ValidationReport:
        """Algebra, coalgebra and compatibility axioms.  When the algebra's
        shape and unit and every coalgebra axiom hold, one generating set
        of at most generator_cap basis elements serves both the
        associativity join and the Delta-multiplicativity check.  Whether
        these axioms held is remembered (`_verified`; a Hopf object's
        antipode is not part of it), so a certificate need not validate
        them again."""
        rep = ValidationReport()
        alg = self._alg
        c = self._coalg.validate()
        gens = None
        if c.ok and (alg._verified or alg._shape_ok() and alg._check_unit()[0]):
            gens = alg.generating_basis_indices(generator_cap)
        for name, ok, wit in _ALGEBRA_VERIFIED if alg._verified else alg.validate(gens).checks:
            rep.record("algebra:" + name, ok, wit)
        for name, ok, wit in c.checks:
            rep.record("coalgebra:" + name, ok, wit)
        if not rep.ok:
            return rep
        rep.record("delta_unital", self._delta_unital(), "Delta(1) != 1(x)1")
        rep.record("eps_unital", self.field.is_one(self.counit_of(alg.unit)), "eps(1) != 1")
        # eps multiplicative (full check, cheap)
        ok, wit = self._check_eps_multiplicative()
        rep.record("eps_multiplicative", ok, wit)
        # Delta multiplicative on (generator, basis) pairs; a failure there
        # reruns every row, so the witness is the full scan's
        ok, wit = self._check_delta_on_generators(range(self.dim) if gens is None else gens)
        if not ok and gens is not None:
            ok, wit = self._check_delta_on_generators(range(self.dim))
        rep.record("delta_multiplicative", ok, wit)
        self._verified = rep.ok
        return rep

    def _delta_unital(self) -> bool:
        """Delta(1) = 1 (x) 1, on the support S of 1: the entries of Delta
        at S weighted by 1, minus 1_s 1_u at (s, u) for s, u in S, sum to
        zero.  (The dense dim^2 x dim matrix of Delta would be the largest
        temporary of validating a large bialgebra.)"""
        f, n = self.field, self.dim
        one = vector(f, self.unit)
        supp = np.flatnonzero(one.num != 0)
        delta = self._coalg.comul_map()
        src, e = _join(supp, delta.starts[supp], delta.starts[supp + 1])
        pairs = (supp[:, None] * n + supp).ravel()
        keys = np.concatenate((delta.dst[e], pairs))
        o, k = one[supp], np.arange(supp.size)
        terms = Numerators.concat((one[src] * delta.values[e], -(o[k.repeat(k.size)] * o[np.tile(k, k.size)])))
        return terms.summed(keys)[0].size == 0

    def _check_delta_on_generators(self, gens):
        """Delta(e_i e_j) = Delta(e_i) Delta(e_j) for each generator index i
        and every basis index j, as joins of the nonzero structure constants.

        With e_a e_c = v e_x + ... and Delta(e_s) = w e_p (x) e_q + ...,
        Delta(e_i) Delta(e_j) sums v w w' e_x (x) e_b e_d over the constants
        (a, c, x, v), the entries (a, b) of Delta(e_i) and the entries
        (c, d) of Delta(e_j).  The constants meet the entries of Delta of
        the generators at their first leg a.  Each term then meets either
        the entries of Delta with left leg c, then the constants at the pair
        (b, d); or the constants with first leg b, then the entries of Delta
        at the pair (c, d).  The second join keeps only the nonzero
        products, and the first join's term counts choose the order that
        makes fewer terms before it.  Delta(e_i e_j) is the constants with
        first leg i against Delta of their last leg.  The difference is
        summed per (i, j) and e_x (x) e_y by `Numerators.summed`; the witness
        is the first failing pair, generators in the order given, then j.
        Consecutive generators share one join while its terms fit
        _DELTA_BLOCK."""
        f, n = self.field, self.dim
        gens = np.asarray(list(gens), dtype=np.int64)
        a, c, x, _ = self._alg.constants()  # sorted by first leg a
        v = self._alg.constant_numerators()
        by_a = self._alg._by_a
        delta = self._coalg.comul_map()
        s, pq, w = delta.src, delta.dst, delta.values  # sorted by input leg s, whose entries are [by_s[s], by_s[s + 1])
        by_s = delta.starts
        p, q = np.divmod(pq, n)
        by_pq = np.argsort(pq, kind="stable")
        pq_at = np.searchsorted(pq[by_pq], np.arange(n * n + 1))
        p_at = pq_at[::n]  # the entries with left leg p are by_pq[p_at[p]:p_at[p + 1]]
        # the constants with first leg a against Delta(generator) entries (a, b)
        gi, e = _join(np.arange(gens.size), by_s[gens], by_s[gens + 1])
        r, k = _join(np.arange(e.size), by_a[p[e]], by_a[p[e] + 1])
        gi, e = gi[r], e[r]
        t1 = (gi, q[e], c[k], x[k], w[e] * v[k])
        grow_c, grow_b = np.diff(p_at)[t1[2]], np.diff(by_a)[t1[1]]
        c_first = grow_c.sum() <= grow_b.sum()
        grow = grow_c if c_first else grow_b
        if c_first:  # the constants by pair (b, d) are by_ac[ac_at[b n + d]:ac_at[b n + d + 1]]
            by_ac = np.argsort(a * n + c, kind="stable")
            ac_at = np.searchsorted((a * n + c)[by_ac], np.arange(n * n + 1))
        cuts = []
        if grow.sum() > _DELTA_BLOCK:
            # the terms before each generator
            before = np.concatenate(([0], np.cumsum(np.bincount(t1[0], grow, gens.size))))
            cuts = (np.flatnonzero(np.diff(before[:-1] // _DELTA_BLOCK)) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [gens.size]):
            sel = slice(*np.searchsorted(t1[0], [lo, hi])) if cuts else slice(None)  # t1 is sorted by generator
            g, b, cc, xx, val = (y[sel] for y in t1)
            if c_first:  # Delta entries (c, d, j), then the constants (b, d, y)
                r, m = _join(np.arange(g.size), p_at[cc], p_at[cc + 1])
                m = by_pq[m]
                r2, m2 = _join(np.arange(r.size), ac_at[b[r] * n + q[m]], ac_at[b[r] * n + q[m] + 1])
                m2 = by_ac[m2]
                j, yy = s[m][r2], x[m2]
                val = (val[r] * w[m])[r2] * v[m2]
            else:  # the constants (b, d, y), then Delta entries (c, d, j)
                r, m = _join(np.arange(g.size), by_a[b], by_a[b + 1])
                r2, m2 = _join(np.arange(r.size), pq_at[cc[r] * n + c[m]], pq_at[cc[r] * n + c[m] + 1])
                m2 = by_pq[m2]
                j, yy = s[m2], x[m][r2]
                val = (val[r] * v[m])[r2] * w[m2]
            rows = g[r][r2] * n + j
            keys = xx[r][r2] * n + yy
            # Delta(e_i e_j): the constants (i, j, k, u) against Delta(e_k)
            blk = np.arange(lo, hi)
            li, lk = _join(blk, by_a[gens[blk]], by_a[gens[blk] + 1])
            r, le = _join(np.arange(lk.size), by_s[x[lk]], by_s[x[lk] + 1])
            li, lk = li[r], lk[r]
            terms = Numerators.concat((val, -(v[lk] * w[le])))
            bad, _ = terms.summed(np.concatenate((rows, li * n + c[lk])) * (n * n) + np.concatenate((keys, pq[le])))
            if bad.size:
                i, j = divmod(int(bad[0]) // (n * n), n)
                i = int(gens[i])
                return False, f"Delta(e{i} e{j}) != Delta(e{i})Delta(e{j})"
        return True, None

    def _check_eps_multiplicative(self):
        """eps(e_i e_j) = eps(e_i) eps(e_j) for every pair, from the
        structure constants; the witness is the first failing pair of the
        stored table, else the first failing absent pair."""
        f, n = self.field, self.dim
        eps = f.reduce(np.array(self.counit, dtype=_dtype(f)))
        a, b, c, v = self._alg.constants()
        lhs = np.full(n * n, f.zero(), dtype=eps.dtype)
        np.add.at(lhs, a * n + b, f.reduce(v * eps[c]))
        bad = (f.reduce(lhs - np.outer(eps, eps).ravel()) != 0).reshape(n, n)
        ti, tj = self._alg.table[:2]
        hit = np.flatnonzero(bad[ti, tj])
        if hit.size:
            i, j = int(ti[hit[0]]), int(tj[hit[0]])
            return False, f"eps(e{i} e{j})"
        bad[ti, tj] = False
        hit = np.flatnonzero(bad)
        if hit.size:
            i, j = divmod(int(hit[0]), n)
            return False, f"eps(e{i} e{j}) = 0 but eps(e{i})eps(e{j}) != 0"
        return True, None


class HopfObject(BialgebraObject):
    """Bialgebra with a verified antipode matrix."""

    def __init__(self, field, dim, mul, unit, comul, counit, antipode: Matrix, labels=None):
        super().__init__(field, dim, mul, unit, comul, counit, labels)
        self.antipode = antipode

    def _set(self, alg: AlgebraObject, coalg: CoalgebraObject, antipode: Matrix | None = None):
        super()._set(alg, coalg)
        self.antipode = antipode

    @cached_property
    def antipode_map(self) -> SparseMap:
        """The antipode as a SparseMap (n,) -> (n,), built once."""
        return SparseMap.from_matrix(self.antipode, (self.dim,), (self.dim,))

    def validate(self, generator_cap: int = 24) -> ValidationReport:
        rep = super().validate(generator_cap)
        ok, wit = check_antipode(self, self.antipode)
        rep.record("antipode", ok, wit)
        return rep


class NoAntipode(Exception):
    pass


def check_antipode(b: BialgebraObject, s: Matrix):
    """m(S (x) id)Delta = u eps = m(id (x) S)Delta, as pipelines over every
    basis element at once; the witness is the first failing basis element,
    the left identity before the right one."""
    f, n = b.field, b.dim
    delta, mul = b.as_coalgebra().comul_map(), b.as_algebra().mul_map()
    own = isinstance(b, HopfObject) and s is b.antipode
    sm = b.antipode_map if own else SparseMap.from_matrix(s, (n,), (n,))
    target = StagePipeline(f, (n,)).contract(0, b.counit).insert(0, b.unit, n)
    fails = []
    for pos, name in enumerate(("m(S (x) id)Delta", "m(id (x) S)Delta")):
        w = pipelines_equal(StagePipeline(f, (n,)).map_at(delta, 0).map_at(sm, pos).map_at(mul, 0), target)
        if w is not None:
            fails.append((w[0], pos, name))
    if not fails:
        return True, None
    k, _, name = min(fails)
    return False, f"{name} != u eps at basis {k}"


def upgrade_to_hopf(b: BialgebraObject, antipode_hint: Matrix | None = None, solve_limit: int = 30) -> HopfObject:
    """Attach an antipode: verify the hint, or solve the convolution system.

    The generic solve has dim^2 unknowns and is gated at solve_limit;
    larger objects must supply a hint (verification is cheap).  The Hopf
    object shares b's algebra and coalgebra; it is made before its antipode
    is checked, so the check builds its cached `antipode_map`.
    """
    if antipode_hint is not None:
        h = HopfObject.from_parts(b.as_algebra(), b.as_coalgebra(), antipode_hint)
        ok, wit = check_antipode(h, antipode_hint)
        if not ok:
            raise NoAntipode(f"hint fails: {wit}")
        return h
    if b.dim > solve_limit:
        raise NoAntipode(f"dim {b.dim} > {solve_limit}: supply an antipode hint")
    f = b.field
    n = b.dim
    try:
        sol = _convolution_system(b).solve(Matrix.column(f, np.outer(b.counit, b.unit).ravel().tolist()))
    except InconsistentSystem:
        raise NoAntipode("convolution system for the antipode is inconsistent")
    s = Matrix.from_rows(f, [[sol[x * n + y] for y in range(n)] for x in range(n)])
    h = HopfObject.from_parts(b.as_algebra(), b.as_coalgebra(), s)
    ok, wit = check_antipode(h, s)
    if not ok:
        raise NoAntipode(f"left convolution inverse is not two-sided: {wit}")
    return h


def _convolution_system(b: BialgebraObject) -> Matrix:
    """m(S (x) id)Delta = u eps, linear in the n^2 unknowns S[x, i] (column
    x n + i): row k n + out holds, for each entry (i, j, k, c) of Delta and
    each constant (x, j, out, v) with second leg j, c v at column x n + i.
    The join pairs Delta's entries with the constants sorted by second leg;
    the terms are summed per (row, column) by `linalg._summed`."""
    f, n = b.field, b.dim
    k, ij, c = b.as_coalgebra().comul_map().coo()
    i, j = np.divmod(ij, n)
    x, y, out, v = b.as_algebra().constants()
    order = np.argsort(y, kind="stable")
    by_y = np.searchsorted(y[order], np.arange(n + 1))
    s, e = _join(np.arange(k.size), by_y[j], by_y[j + 1])
    e = order[e]
    row, col, val = _summed(f, k[s] * n + out[e], x[e] * n + i[s], f.reduce(c[s] * v[e]), n * n)
    m = Matrix.zeros(f, n * n, n * n)
    m._d[row, col] = val
    return m


class IntegralWitness:
    """Integral element/functional with side and normalization report."""

    def __init__(self, where: str, side: str, vector: list, normalized: bool, norm_value):
        self.where = where  # "in_H" | "in_dual"
        self.side = side  # "left" | "right" | "two_sided"
        self.vector = vector
        self.normalized = normalized
        self.norm_value = norm_value

    def __repr__(self):
        return f"IntegralWitness({self.where}, {self.side}, normalized={self.normalized})"


def _integral_system(h: BialgebraObject, where: str, side: str) -> SparseMap:
    """The integral conditions on t (in_H) or lam (in_dual), n^2 rows per
    side, as a matrix of rows (`linalg.SparseMap`) scattered from the
    numerators of the nonzero structure constants and summed once, so the
    kernel takes `linalg._rref_sparse`'s front end and the 2 n^2 x n system
    is never dense.

    in_H left, x t = eps(x) t: row x n + out, column t holds the
    coefficient of e_out in e_x e_t (right: e_t e_x), minus eps(x) where
    t = out.  in_dual left, sum h1 lam(h2) = lam(h) 1: row k n + out,
    column t holds the coefficient of e_out (x) e_t in Delta(e_k) (right:
    e_t (x) e_out), minus 1_out where t = k.
    """
    f, n = h.field, h.dim
    rows = np.arange(n * n)
    x, y = np.divmod(rows, n)
    if where == "in_H":
        a, b, c, _ = h.as_algebra().constants()  # e_a e_b has v on e_c
        v = h.as_algebra().constant_numerators()
        legs = {"left": (a * n + c, b), "right": (b * n + c, a)}
        diag_col, diag_val = y, (-vector(f, h.counit))[x]
    else:
        comul = h.as_coalgebra().comul_map()
        k, ab, v = comul.src, comul.dst, comul.values  # Delta(e_k) has v on e_a (x) e_b
        a, b = np.divmod(ab, n)
        legs = {"left": (k * n + a, b), "right": (k * n + b, a)}
        diag_col, diag_val = x, (-vector(f, h.unit))[y]
    sides = ("left", "right") if side == "two_sided" else (side,)
    r, c, val = [], [], []
    for s, name in enumerate(sides):
        r += [legs[name][0] + s * n * n, rows + s * n * n]
        c += [legs[name][1], diag_col]
        val += [v, diag_val]
    flat, val = Numerators.concat(val).summed(np.concatenate(r) * n + np.concatenate(c))
    return SparseMap.from_coo(f, (len(sides) * n * n,), (n,), *np.divmod(flat, n), val)


def find_integral(h: BialgebraObject, where: str = "in_H", side: str = "two_sided") -> IntegralWitness:
    """Solve the integral system and normalize when possible.

    in_H left:    x t = eps(x) t for all x;  normalization eps(t) = 1.
    in_dual left: sum h1 lam(h2) = lam(h) 1; normalization lam(1) = 1.
    Normalization failure is the Maschke obstruction, reported as data.
    """
    f = h.field
    ker = kernel_from_rref(h.dim, *_integral_system(h, where, side).rref())
    if ker.rows == 0:
        return IntegralWitness(where, side, v_zero(f, h.dim), False, f.zero())
    t = ker.row_list(0)
    norm = h.counit_of(t) if where == "in_H" else _eval_at_unit(h, t)
    if not f.is_zero(norm):
        t = [f.div(x, norm) for x in t]
        return IntegralWitness(where, side, t, True, f.one())
    return IntegralWitness(where, side, t, False, norm)


def integral_space_dimension(h: BialgebraObject, where: str, side: str) -> int:
    """Dimension of the integral solution space (1 for Hopf objects)."""
    return kernel_from_rref(h.dim, *_integral_system(h, where, side).rref()).rows


def _eval_at_unit(h: BialgebraObject, lam: list):
    f = h.field
    s = f.zero()
    for a, b in zip(lam, h.unit):
        s = f.add(s, f.mul(a, b))
    return s


def check_ad_invariance(h: HopfObject, lam: IntegralWitness) -> bool:
    """lam(sum x1 y S x2) = eps(x) lam(y) and lam(sum S(x1) y x2) = eps(x) lam(y)
    for all basis pairs (x, y), each side a pipeline over (x, y)."""
    f, n = h.field, h.dim
    if not lam.normalized:
        raise ValueError("integral functional must be normalized to lam(1) = 1")
    delta, mul, sm = h.as_coalgebra().comul_map(), h.as_algebra().mul_map(), h.antipode_map
    rhs = StagePipeline(f, (n, n)).contract(0, h.counit).contract(0, lam.vector)
    # (x1, x2, y) -> (x1, y, x2), S on x2 or on x1, then x1 y x2
    for pos in (2, 0):
        lhs = (StagePipeline(f, (n, n)).map_at(delta, 0).permute((0, 2, 1)).map_at(sm, pos)
               .map_at(mul, 0).map_at(mul, 0).contract(0, lam.vector))
        if pipelines_equal(lhs, rhs) is not None:
            return False
    return True


def check_ad_coinvariance(h: HopfObject, t: IntegralWitness) -> bool:
    """eps(t) = 1 and sum t1 S(t3) (x) t2 = 1 (x) t, as pipelines from the
    scalars: insert t, Delta twice, S on t3, then t1 S(t3)."""
    f, n = h.field, h.dim
    tv = t.vector
    if not f.is_one(h.counit_of(tv)):
        raise ValueError("integral element must be normalized to eps(t) = 1")
    delta, mul, sm = h.as_coalgebra().comul_map(), h.as_algebra().mul_map(), h.antipode_map
    # (t1, t2, t3) -> (t1, t2, S t3) -> (t1, S t3, t2) -> (t1 S(t3), t2)
    lhs = (StagePipeline(f, ()).insert(0, tv, n).map_at(delta, 0).map_at(delta, 0).map_at(sm, 2)
           .permute((0, 2, 1)).map_at(mul, 0))
    return pipelines_equal(lhs, StagePipeline(f, ()).insert(0, tv, n).insert(0, h.unit, n)) is None


def is_algebra_map(src: AlgebraObject, tgt: AlgebraObject, f: Matrix | SparseMap) -> bool:
    """f(xy) = f(x)f(y) on all basis pairs and f(1) = 1, for f a Matrix or
    the SparseMap (src.dim,) -> (tgt.dim,) of a caller that has built it."""
    if not v_eq(src.field, f.apply(src.unit), tgt.unit):
        return False
    return multiplicativity_defect(src, tgt, f) is None


def is_coalgebra_map(src: CoalgebraObject, tgt: CoalgebraObject, f: Matrix | SparseMap) -> bool:
    """(f (x) f) Delta_src = Delta_tgt f and eps_tgt f = eps_src, for f a
    Matrix or the SparseMap (src.dim,) -> (tgt.dim,) of a caller that has
    built it."""
    fld = f.field
    fm = f if isinstance(f, SparseMap) else SparseMap.from_matrix(f, (src.dim,), (tgt.dim,))

    def P():
        return StagePipeline(fld, (src.dim,))

    if pipelines_equal(P().map_at(fm, 0).contract(0, tgt.counit), P().contract(0, src.counit)) is not None:
        return False
    return pipelines_equal(P().map_at(src.comul_map(), 0).map_at(fm, 0).map_at(fm, 1),
                           P().map_at(fm, 0).map_at(tgt.comul_map(), 0)) is None
