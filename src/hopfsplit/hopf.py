"""Bialgebras and Hopf algebras: compatibility validation, antipodes by
convolution inversion, integrals and their ad-(co)invariance.

A BialgebraObject carries algebra and coalgebra structure constants on one
basis.  Associativity and the multiplicativity of Delta are checked on one
generating set of basis elements: the left nucleus and {u : Delta(uv) =
Delta(u)Delta(v) for all v} are unital subalgebras, so each is everything
once it contains the generators (a failed associativity check there falls
back to the full join for its witness, `AlgebraObject.validate`).
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraObject, ValidationReport, multiplicativity_defect
from .coalgebra import CoalgebraObject
from .fields import ScalarField
from .linalg import InconsistentSystem, Matrix, _dtype
from .tensors import SparseMap, StagePipeline, pipelines_equal, sparse_eq, v_basis, v_eq, v_zero


class BialgebraObject:
    """Algebra + coalgebra on one basis with Delta, eps algebra maps."""

    def __init__(self, field: ScalarField, dim: int, mul, unit, comul, counit, labels=None):
        self.field = field
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        self._alg = AlgebraObject(field, dim, mul, unit, self.labels)
        self._coalg = CoalgebraObject(field, dim, comul, counit, self.labels)

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
        associativity join and the Delta-multiplicativity check."""
        rep = ValidationReport()
        alg = self._alg
        c = self._coalg.validate()
        gens = None
        if c.ok and alg._shape_ok() and alg._check_unit()[0]:
            gens = alg.generating_basis_indices(generator_cap)
        for name, ok, wit in alg.validate(gens).checks:
            rep.record("algebra:" + name, ok, wit)
        for name, ok, wit in c.checks:
            rep.record("coalgebra:" + name, ok, wit)
        if not rep.ok:
            return rep
        f = self.field
        # Delta(1) = 1 (x) 1 and eps(1) = 1, on the support of 1: the dense
        # dim^2 x dim matrix of Delta, built on every validation, would be the
        # largest temporary of validating a large bialgebra
        one = alg.unit
        supp = [(k, x) for k, x in enumerate(one) if not f.is_zero(x)]
        d1: dict = {}
        for k, x in supp:
            for ij, w in self.comul.get(k, {}).items():
                d1[ij] = f.add(d1.get(ij, f.zero()), f.mul(x, w))
        oneone = {(i, j): f.mul(x, y) for i, x in supp for j, y in supp}
        rep.record("delta_unital", sparse_eq(f, d1, oneone), "Delta(1) != 1(x)1")
        rep.record("eps_unital", f.is_one(self.counit_of(one)), "eps(1) != 1")
        # eps multiplicative (full check, cheap)
        ok, wit = self._check_eps_multiplicative()
        rep.record("eps_multiplicative", ok, wit)
        # Delta multiplicative on (generator, basis) pairs
        ok, wit = self._check_delta_on_generators(range(self.dim) if gens is None else gens)
        rep.record("delta_multiplicative", ok, wit)
        return rep

    def _check_delta_on_generators(self, gens):
        """Delta(e_i e_j) = Delta(e_i) Delta(e_j) for each generator index i
        and every basis index j.

        The right-hand side only visits combos whose products are nonzero:
        the multiplication table is indexed by its first leg, so sparse
        tables (as produced by smash products) keep the loop close to the
        true work.
        """
        f = self.field
        n = self.dim
        comul = self._coalg.comul
        mul = self._alg.mul
        is_fp = f.kind == "Fp"
        p = f.p if is_fp else None
        # nz2[a] = rows of the multiplication table with first leg a
        nz2: dict = {}
        for (a, c_), col in mul.items():
            nz2.setdefault(a, []).append((c_, col))
        # Delta(e_j) grouped by the left tensor leg, computed once
        dv_left_all = []
        for j in range(n):
            byleft: dict = {}
            for (c_, d), cj in comul.get(j, {}).items():
                byleft.setdefault(c_, []).append((d, cj))
            dv_left_all.append(byleft)
        for i in gens:
            dg = comul.get(i, {})
            for j in range(n):
                lhs: dict = {}
                for k, w in mul.get((i, j), {}).items():
                    for key, z in comul.get(k, {}).items():
                        prev = lhs.get(key)
                        val = w * z if prev is None else prev + w * z
                        if is_fp:
                            val %= p
                        lhs[key] = val
                rhs: dict = {}
                dv_left = dv_left_all[j]
                for (a, b), cg in dg.items():
                    row_b = nz2.get(b)
                    if not row_b:
                        continue
                    for c_, row_ac in nz2.get(a, ()):
                        hits = dv_left.get(c_)
                        if not hits:
                            continue
                        for d, cj in hits:
                            row_bd = mul.get((b, d))
                            if not row_bd:
                                continue
                            w = cg * cj
                            if is_fp:
                                w %= p
                            for a2, u in row_ac.items():
                                wu = w * u
                                for b2, v in row_bd.items():
                                    key = (a2, b2)
                                    prev = rhs.get(key)
                                    val = wu * v if prev is None else prev + wu * v
                                    if is_fp:
                                        val %= p
                                    rhs[key] = val
                z = f.zero()
                for key in set(lhs) | set(rhs):
                    if f.sub(lhs.get(key, z), rhs.get(key, z)) != z:
                        return False, f"Delta(e{i} e{j}) != Delta(e{i})Delta(e{j})"
        return True, None

    def _check_eps_multiplicative(self):
        """eps(e_i e_j) = eps(e_i) eps(e_j) for every pair, from the
        structure constants; the witness is the first failing pair of the
        table in insertion order, else the first failing absent pair."""
        f, n = self.field, self.dim
        eps = f.reduce(np.array(self.counit, dtype=_dtype(f)))
        a, b, c, v = self._alg.constants()
        lhs = np.full(n * n, f.zero(), dtype=eps.dtype)
        np.add.at(lhs, a * n + b, f.reduce(v * eps[c]))
        bad = (f.reduce(lhs - np.outer(eps, eps).ravel()) != 0).reshape(n, n)
        pairs = np.array(list(self.mul), dtype=np.int64).reshape(-1, 2)
        hit = np.flatnonzero(bad[pairs[:, 0], pairs[:, 1]])
        if hit.size:
            i, j = pairs[hit[0]].tolist()
            return False, f"eps(e{i} e{j})"
        bad[pairs[:, 0], pairs[:, 1]] = False
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
    sm = SparseMap.from_matrix(s, (n,), (n,))
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
    larger objects must supply a hint (verification is cheap).
    """
    if antipode_hint is not None:
        ok, wit = check_antipode(b, antipode_hint)
        if not ok:
            raise NoAntipode(f"hint fails: {wit}")
        return HopfObject(b.field, b.dim, b.mul, b.unit, b.comul, b.counit, antipode_hint, b.labels)
    if b.dim > solve_limit:
        raise NoAntipode(f"dim {b.dim} > {solve_limit}: supply an antipode hint")
    f = b.field
    n = b.dim
    # solve m(S (x) id)Delta = u eps, linear in the n^2 unknowns S[x, y]
    rows: dict = {}
    rhs = []
    row_idx = 0
    for k in range(n):
        for out in range(n):
            row: dict = {}
            for (i, j), c in b.comul.get(k, {}).items():
                # contribution S[x, i] * [e_x e_j]_out
                for x in range(n):
                    v = b.mul.get((x, j), {}).get(out)
                    if v is not None:
                        key = x * n + i
                        row[key] = f.add(row.get(key, f.zero()), f.mul(c, v))
            rows[row_idx] = row
            rhs.append(f.mul(b.counit[k], b.unit[out]))
            row_idx += 1
    m = Matrix.from_entries(f, row_idx, n * n, {(r, c): v for r, row in rows.items() for c, v in row.items()})
    try:
        sol = m.solve(Matrix.column(f, rhs))
    except InconsistentSystem:
        raise NoAntipode("convolution system for the antipode is inconsistent")
    s = Matrix.from_rows(f, [[sol[x * n + y] for y in range(n)] for x in range(n)])
    ok, wit = check_antipode(b, s)
    if not ok:
        raise NoAntipode(f"left convolution inverse is not two-sided: {wit}")
    return HopfObject(f, n, b.mul, b.unit, b.comul, b.counit, s, b.labels)


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


def _integral_system(h: BialgebraObject, where: str, side: str) -> Matrix:
    """The integral conditions on t (in_H) or lam (in_dual), n^2 rows per
    side, scattered from the nonzero structure constants.

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
        a, b, c, v = h.as_algebra().constants()  # e_a e_b has v on e_c
        legs = {"left": (a * n + c, b), "right": (b * n + c, a)}
        diag_col, diag_val = y, np.repeat(f.reduce(np.array(h.counit, dtype=_dtype(f))), n)
    else:
        k, ab, v = h.as_coalgebra().comul_map().coo()  # Delta(e_k) has v on e_a (x) e_b
        a, b = np.divmod(ab, n)
        legs = {"left": (k * n + a, b), "right": (k * n + b, a)}
        diag_col, diag_val = x, np.tile(f.reduce(np.array(h.unit, dtype=_dtype(f))), n)
    sides = ("left", "right") if side == "two_sided" else (side,)
    d = np.full((len(sides) * n * n, n), f.zero(), dtype=_dtype(f))
    for s, name in enumerate(sides):
        block = d[s * n * n : (s + 1) * n * n]
        block[legs[name]] = v
        block[rows, diag_col] -= diag_val
    return Matrix(f, d.shape[0], n, f.reduce(d), _raw=True)


def find_integral(h: BialgebraObject, where: str = "in_H", side: str = "two_sided") -> IntegralWitness:
    """Solve the integral system and normalize when possible.

    in_H left:    x t = eps(x) t for all x;  normalization eps(t) = 1.
    in_dual left: sum h1 lam(h2) = lam(h) 1; normalization lam(1) = 1.
    Normalization failure is the Maschke obstruction, reported as data.
    """
    f = h.field
    ker = _integral_system(h, where, side).kernel()
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
    return _integral_system(h, where, side).kernel().rows


def _eval_at_unit(h: BialgebraObject, lam: list):
    f = h.field
    s = f.zero()
    for a, b in zip(lam, h.unit):
        s = f.add(s, f.mul(a, b))
    return s


def check_ad_invariance(h: HopfObject, lam: IntegralWitness) -> bool:
    """lam(sum x1 y S x2) = eps(x) lam(y) and the S-on-the-left variant."""
    f = h.field
    if not lam.normalized:
        raise ValueError("integral functional must be normalized to lam(1) = 1")
    lv = lam.vector
    n = h.dim
    for x in range(n):
        dx = h.comul.get(x, {})
        for y in range(n):
            lhs1 = f.zero()
            lhs2 = f.zero()
            for (i, j), c in dx.items():
                # x1 y S(x2): i * y * S(j)
                sj = h.antipode.apply(v_basis(f, n, j))
                mid = h.product(v_basis(f, n, i), v_basis(f, n, y))
                term = h.product(mid, sj)
                lhs1 = f.add(lhs1, f.mul(c, _pair(f, lv, term)))
                si = h.antipode.apply(v_basis(f, n, i))
                mid2 = h.product(si, v_basis(f, n, y))
                term2 = h.product(mid2, v_basis(f, n, j))
                lhs2 = f.add(lhs2, f.mul(c, _pair(f, lv, term2)))
            rhs = f.mul(h.counit[x], lv[y])
            if lhs1 != rhs or lhs2 != rhs:
                return False
    return True


def check_ad_coinvariance(h: HopfObject, t: IntegralWitness) -> bool:
    """eps(t) = 1 and sum t1 S(t3) (x) t2 = 1 (x) t."""
    f = h.field
    n = h.dim
    tv = t.vector
    if not f.is_one(h.counit_of(tv)):
        raise ValueError("integral element must be normalized to eps(t) = 1")
    # Delta^2(t) then contract
    lhs: dict = {}
    for k, c in enumerate(tv):
        if f.is_zero(c):
            continue
        for (i, j), w in h.comul.get(k, {}).items():
            for (a, b), w2 in h.comul.get(i, {}).items():
                # t1 = a, t2 = b, t3 = j
                sj = h.antipode.apply(v_basis(f, n, j))
                prod = h.product(v_basis(f, n, a), sj)
                for out, v in enumerate(prod):
                    if f.is_zero(v):
                        continue
                    key = (out, b)
                    s = f.add(lhs.get(key, f.zero()), f.mul(f.mul(c, f.mul(w, w2)), v))
                    if f.is_zero(s):
                        lhs.pop(key, None)
                    else:
                        lhs[key] = s
    rhs: dict = {}
    for i, u in enumerate(h.unit):
        if f.is_zero(u):
            continue
        for j, x in enumerate(tv):
            if not f.is_zero(x):
                rhs[(i, j)] = f.mul(u, x)
    return sparse_eq(f, lhs, rhs)


def _pair(f, functional: list, vec: list):
    s = f.zero()
    for a, b in zip(functional, vec):
        s = f.add(s, f.mul(a, b))
    return s


def is_algebra_map(src: AlgebraObject, tgt: AlgebraObject, f: Matrix) -> bool:
    """f(xy) = f(x)f(y) on all basis pairs and f(1) = 1."""
    if not v_eq(src.field, f.apply(src.unit), tgt.unit):
        return False
    return multiplicativity_defect(src, tgt, f) is None


def is_coalgebra_map(src: CoalgebraObject, tgt: CoalgebraObject, f: Matrix) -> bool:
    """(f (x) f) Delta_src = Delta_tgt f and eps_tgt f = eps_src."""
    fld = f.field
    if Matrix.row(fld, tgt.counit) @ f != Matrix.row(fld, src.counit):
        return False
    fm = SparseMap.from_matrix(f, (src.dim,), (tgt.dim,))
    lhs = StagePipeline(fld, (src.dim,)).map_at(src.comul_map(), 0).map_at(fm, 0).map_at(fm, 1)
    rhs = StagePipeline(fld, (src.dim,)).map_at(fm, 0).map_at(tgt.comul_map(), 0)
    return pipelines_equal(lhs, rhs) is None
