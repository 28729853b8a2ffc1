"""Finite-dimensional associative algebras presented by structure constants.

An algebra is a basis e_0..e_{n-1}, its structure constants and a unit
vector.  The constants are stored once, as read-only arrays (i, j, k, v):
e_i e_j has the coefficient v on e_k (`AlgebraObject.table`, each (i, j, k)
at most once).  Producers inside the package hand these arrays over
through `AlgebraObject.from_constants`; a dict {(i, j): {k: c}} given to
the constructor is converted once, and `AlgebraObject.mul` rebuilds that
dict only for callers outside the package.  Validation, two-sided ideals,
nilpotency, the Jacobson radical (trace form in large characteristic,
certified otherwise), separability idempotents and quotient algebras all
reduce to exact linear algebra on the arrays.

Associativity is one kernel for every field, a sparse join of the nonzero
structure constants (`AlgebraObject._check_associativity`) whose sums per
left index are one sort and `np.add.reduceat` (`Numerators.summed`).  The
left nucleus {x : (xy)z = x(yz) for all y, z} is a subalgebra of any
algebra, so once 1 is a unit the join needs only the left indices of a
generating set (`validate(generators)`); a failure there reruns the full
join, which names the first failing triple.  Products of vectors,
`pairwise_products`, are two joins on the structure constants (row-by-row
sparse products, after Gustavson, ACM TOMS 4(3), 1978), each summed by
`Numerators.summed`: the nonzeros of the left rows meet the constants of
their first leg, and the sums meet the nonzeros of the right rows.  The
term counts are known before anything is multiplied; when one is not
below the size of the dense array its stage fills, the whole product runs
as two exact `linalg._matmul` on the constants densified for that call,
so dense operands cost no more than a dense product.  No n^3 array is
kept: the ideal test, quotient algebras and the trace form read the
constants too.  The multiplication as a stage map is
`AlgebraObject.mul_map`.

Whether a linear map f is multiplicative is one equation in the stage
engine (`tensors`): f m against m (f (x) f), two pipelines over the pairs
(i, j).  `multiplicativity_defect` compares them (`pipelines_equal`),
reporting the first failing pair (i, j); it serves quotient projections,
algebra-map checks, extensions and the tower lift.  `defect_map` is their
difference as one map (a section's curvature).  A failed re-verification
of computed output raises `VerificationFailed`.

A passing `validate` is remembered, and `verified_generators` then returns
the generating set it cached (never searching for one).  On an
associative unital A, {x : xI <= I} and {x : Ix <= I} are unital
subalgebras, and so is {x : f(xy) = f(x) f(y) for all y} when the target
is associative and unital and f(1) = 1; so `is_ideal` multiplies I by the
generators only, and `multiplicativity_defect` reads its verdict on their
rows, rerunning every row for the witness.  `radical` validates A first.
What a verified theorem implies is recorded, not recomputed (README,
"Implied checks")."""
from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .linalg import InconsistentSystem, Matrix, Numerators, SparseMap, Subspace, _dtype, _join, _matmul, _summed
from .tensors import StagePipeline, difference, difference_map, pipelines_equal, v_eq, vector


class ValidationReport:
    """Per-axiom pass/fail listing with a witness for each failure."""

    def __init__(self):
        self.checks: list[tuple[str, bool, str | None]] = []

    def record(self, name: str, ok: bool, witness: str | None = None):
        self.checks.append((name, bool(ok), None if ok else witness))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str | None]]:
        return [(n, w) for n, ok, w in self.checks if not ok]

    def require(self, what: str = "validation"):
        if not self.ok:
            raise ValueError(f"{what} failed: {self.failures()}")
        return self

    def __repr__(self):
        bad = self.failures()
        return f"ValidationReport(ok)" if not bad else f"ValidationReport(failed: {bad})"


class VerificationFailed(AssertionError):
    """Re-verification of computed output failed.  ``check`` names the
    property that does not hold; ``witness`` is where it first fails (the
    basis pair (i, j) for multiplicativity), or None."""

    def __init__(self, check: str, witness=None):
        super().__init__(check if witness is None else f"{check} fails at {witness}")
        self.check = check
        self.witness = witness


_JOIN_BLOCK = 2**13  # terms in one associativity join over consecutive left indices


def table_from_entries(field: ScalarField, entries) -> tuple:
    """Structure-constant arrays (i, j, k, v) from (i, j, k, c) tuples, in
    their order, with the coefficients reduced."""
    entries = list(entries)
    ijk = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3)
    v = field.reduce(np.array([e[3] for e in entries], dtype=_dtype(field)))
    return (*ijk.T, v)


def constants_of(m: Matrix, n: int) -> tuple:
    """The structure constants (i, j, k, v) held by an n^2 x n matrix with
    row i n + j and column k (coordinates of products or coproducts of a
    basis), ordered by the pair i n + j, then by k."""
    ij, k = np.nonzero(m._d)
    return (*np.divmod(ij, n), k, m._d[ij, k])


def pipeline_constants(pipe: StagePipeline, n: int) -> tuple:
    """The structure constants (i, j, k, v) of a product (n^2 inputs) or a
    coproduct (n inputs) composite, read from its COO in `constants_of`'s
    order; a coproduct's COO comes sorted by (k, i n + j)."""
    src, dst, v = pipe.coo()
    if np.prod(pipe.in_dims) == n:
        order = np.lexsort((src, dst))
        src, dst, v = dst[order], src[order], v[order]
    return (*np.divmod(src, n), dst, v)


def _frozen(table) -> tuple:
    table = tuple(np.asarray(x) for x in table)
    for x in table:
        x.flags.writeable = False
    return table


class AlgebraObject:
    """Associative unital algebra by structure constants over an exact field."""

    def __init__(self, field: ScalarField, dim: int, mul: dict, unit: list, labels=None):
        """mul[(i, j)] = {k: c} means e_i e_j = sum c e_k."""
        self._store(field, dim, table_from_entries(field, ((i, j, k, c) for (i, j), col in mul.items()
                                                            for k, c in col.items())), unit, labels)

    @classmethod
    def from_constants(cls, field: ScalarField, dim: int, table, unit: list, labels=None) -> "AlgebraObject":
        """The algebra on the arrays table = (i, j, k, v), each (i, j, k)
        at most once and v reduced; the arrays are kept, not copied."""
        a = cls.__new__(cls)
        a._store(field, dim, table, unit, labels)
        return a

    def _store(self, field, dim, table, unit, labels):
        self.field = field
        self.dim = dim
        self.table = _frozen(table)
        self.unit = list(unit)
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        self._mul = None
        self._mul_map = None
        self._constants = self._numer = None
        self._shape = self._unit_check = None
        self._generators: dict = {}
        self._verified = False  # the last `validate` passed

    @property
    def mul(self) -> dict:
        """The stored constants as {(i, j): {k: c}} (built once; the package
        reads the arrays)."""
        if self._mul is None:
            self._mul = {}
            for i, j, k, c in zip(*(x.tolist() for x in self.table)):
                self._mul.setdefault((i, j), {})[k] = c
        return self._mul

    # -- products ----------------------------------------------------------

    def product(self, u: list, v: list) -> list:
        """u v for vectors given as lists: u_a v_b c summed on e_k over the
        constants (a, b, k, c)."""
        f = self.field
        a, b, k, c = self.constants()
        u, v = (f.reduce(np.array(x, dtype=c.dtype)) for x in (u, v))
        out = np.full(self.dim, f.zero(), dtype=c.dtype)
        np.add.at(out, k, f.reduce(f.reduce(u[a] * v[b]) * c))
        return f.reduce(out).tolist()

    def mul_map(self) -> SparseMap:
        """Multiplication as a cached `SparseMap` (n, n) -> (n,): the
        structure constants keyed (i n + j, k), which the map sorts."""
        if self._mul_map is None:
            n = self.dim
            a, b, c, v = self.constants()
            self._mul_map = SparseMap(self.field, (n, n), (n,), a * n + b, c, v)
        return self._mul_map

    def mul_matrix(self) -> Matrix:
        """Multiplication as a dim x dim^2 matrix (columns ordered (i,j))."""
        n = self.dim
        a, b, c, v = self.constants()
        m = Matrix.zeros(self.field, n, n * n)
        m._d[c, a * n + b] = v
        return m

    def constants(self):
        """The nonzero structure constants (i, j, k, v), sorted by first
        leg i (cached; do not modify).  The entries with first leg x are
        [_by_a[x], _by_a[x + 1])."""
        if self._constants is None:
            i, j, k, v = self.table
            keep = np.flatnonzero(v != 0)
            keep = keep[np.argsort(i[keep], kind="stable")]
            self._constants = (i[keep], j[keep], k[keep], v[keep])
            self._by_a = np.searchsorted(self._constants[0], np.arange(self.dim + 1))
        return self._constants

    def constant_numerators(self) -> Numerators:
        """The values of `constants()` as `linalg.Numerators` (cached)."""
        if self._numer is None:
            self._numer = Numerators.of(self.field, self.constants()[3])
        return self._numer

    # -- validation ---------------------------------------------------------

    def validate(self, generators=None) -> ValidationReport:
        """Shape, associativity and unit, in that order.  `generators` (basis
        indices that generate the algebra) restrict the associativity join
        to their left indices once the unit check passes: the left nucleus
        is a subalgebra, so it is everything when it holds 1 and them.
        Otherwise, or when that join fails, the full join names the witness."""
        rep = ValidationReport()
        rep.record("shape", self._shape_ok(), "structure constants out of range")
        if not rep.ok:
            return rep
        unit = self._check_unit()
        ok = generators is not None and unit[0] and self._check_associativity(generators)[0]
        rep.record("associativity", *((True, None) if ok else self._check_associativity()))
        rep.record("unit", *unit)
        self._verified = rep.ok
        return rep

    def _shape_ok(self) -> bool:
        """The unit has length dim and every index is in range (cached)."""
        if self._shape is None:
            self._shape = len(self.unit) == self.dim and _in_range(self.table, self.dim)
        return self._shape

    def _check_associativity(self, lefts=None):
        """(e_i e_j) e_k == e_i (e_j e_k) for every left index i in `lefts`
        (default: all) and all j, k, as a join of the nonzero structure
        constants (a, b, c, v): e_a e_b has v on e_c.

        Per left index i, each entry (i, j, k) pairs with every entry
        (k, l, m) for the terms of (e_i e_j) e_l, and each entry (i, k, m)
        with every entry (j, l, k) for the terms of e_i (e_j e_l).  Their
        reduced difference is summed per key (j n + l) n + m by sort and
        `np.add.reduceat` (`linalg.Numerators.summed`, the one summation
        path for every field), and associativity fails at i iff a sum is nonzero;
        the witness names the lexicographically first failing (i, j, k)
        among the left indices checked.  Consecutive left indices whose terms
        start in the same window of _JOIN_BLOCK terms share one join, so a
        join holds at most _JOIN_BLOCK terms plus one index's, never n^3.
        """
        f, n = self.field, self.dim
        a, b, c, _ = self.constants()
        v = self.constant_numerators()
        # the entries with first leg x are [by_a[x], by_a[x + 1]), those with
        # last leg x are last[by_c[x]:by_c[x + 1]]
        by_a = self._by_a
        last = np.argsort(c, kind="stable")
        by_c = np.searchsorted(c[last], np.arange(n + 1))
        lefts = np.arange(n) if lefts is None else np.asarray(lefts, dtype=np.int64)
        size = np.bincount(a, np.diff(by_a)[c] + np.diff(by_c)[b], n)[lefts]
        for blk in np.split(lefts, np.flatnonzero(np.diff((np.cumsum(size) - size) // _JOIN_BLOCK)) + 1):
            s = _join(blk, by_a[blk], by_a[blk + 1])[1]
            l_src, l_dst = _join(s, by_a[c[s]], by_a[c[s] + 1])
            r_src, r_at = _join(s, by_c[b[s]], by_c[b[s] + 1])
            r_dst = last[r_at]
            keys = np.concatenate(((b[l_src] * n + b[l_dst]) * n + c[l_dst], (a[r_dst] * n + b[r_dst]) * n + c[r_src]))
            terms = Numerators.concat((v[l_src] * v[l_dst], -(v[r_src] * v[r_dst])))
            bad, _ = terms.summed(np.concatenate((a[l_src], a[r_src])) * n**3 + keys)
            if bad.size:
                i, jk = divmod(int(bad[0]) // n, n * n)
                j, k = divmod(jk, n)
                return False, f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})"
        return True, None

    def _check_unit(self):
        """1 e_j = e_j = e_j 1 for every basis index j, from the structure
        constants: left and right multiplication by the unit vector minus
        the identity, summed per (j, k) by `Numerators.summed`.  The witness
        is the first failing j, the left side first (cached)."""
        if self._unit_check is None:
            self._unit_check = self._unit_defect()
        return self._unit_check

    def _unit_defect(self):
        f, n = self.field, self.dim
        a, b, c, _ = self.constants()
        v = self.constant_numerators()
        u = vector(f, self.unit)
        diag = np.arange(n)
        minus_one = Numerators.of(f, np.full(n, f.neg(f.one()), dtype=_dtype(f)))
        first = []
        for by, j in ((a, b), (b, a)):  # 1 e_j: u_a e_a e_j; e_j 1: e_j u_b e_b
            bad, _ = Numerators.concat((u[by] * v, minus_one)).summed(np.concatenate((j, diag)) * n
                                                                      + np.concatenate((c, diag)))
            first.append(int(bad[0]) // n if bad.size else n)
        j = min(first)
        if j == n:
            return True, None
        return False, f"1*e{j} != e{j}" if first[0] == j else f"e{j}*1 != e{j}"

    # -- generation ---------------------------------------------------------

    def generating_basis_indices(self, cap: int = 24) -> list[int] | None:
        """Greedy algebra generating set from the basis, or None past cap;
        cached per cap.  A property whose set {u : property for all v} is a
        unital subalgebra (the left nucleus, Delta-multiplicativity) then
        needs checking on |G| * dim pairs instead of dim^2."""
        if cap not in self._generators:
            self._generators[cap] = self._generating_set(cap)
        return self._generators[cap]

    def verified_generators(self) -> list[int] | None:
        """A generating set that `generating_basis_indices` has cached, once
        `validate` has passed, else None; never starts a search.  The
        algebra is then associative and unital, so a property whose
        solution set is a unital subalgebra holds on it once it holds on
        these basis elements."""
        if not self._verified:
            return None
        return next((g for g in self._generators.values() if g is not None), None)

    def _generating_set(self, cap: int) -> list[int] | None:
        """Each e_i, in order, outside the left-Krylov closure from 1 of the
        earlier generators becomes one.  Every vector reached is a product
        of 1 and generators, so it lies in any unital subalgebra holding
        them; in an associative algebra the closure is the subalgebra they
        generate.  On a monomial table whose unit is a multiple of one basis
        vector the closure is a walk on indices (`_index_closure`), else an
        exact elimination (`_rref_closure`); both give the same set."""
        walk = self._index_graph()
        return self._rref_closure(cap) if walk is None else _index_closure(*walk, cap)

    def _index_graph(self):
        """(nxt, s) when every product e_a e_b is a nonzero multiple of
        e_nxt[a, b] or zero (nxt[a, b] = -1) and the unit is a nonzero
        multiple of e_s; else None.  The table is monomial iff no pair
        (a, b) holds two nonzero constants, counted by one `np.bincount`."""
        if not self._shape_ok():
            return None
        f, n = self.field, self.dim
        a, b, c, _ = self.constants()
        if a.size and np.bincount(a * n + b).max() > 1:
            return None
        support = [t for t, x in enumerate(self.unit) if f.reduce(x) != 0]
        if len(support) != 1:
            return None
        nxt = np.full((n, n), -1, dtype=np.int64)
        nxt[a, b] = c
        return nxt, support[0]

    def _rref_closure(self, cap: int) -> list[int] | None:
        """The greedy search with the span S kept as an RREF.  S stays closed
        under left multiplication by the generators: a new generator g adds
        e_g and g S, then each round multiplies only the rows it added (new
        pivots)."""
        f, n = self.field, self.dim
        a, b, c, v = self.constants()

        def left_mul(gs):  # row j, column t n + k: the coefficient of e_k in e_gs[t] e_j
            m = np.isin(a, gs)
            out = np.full((n, len(gs) * n), f.zero(), dtype=v.dtype)
            out[b[m], np.searchsorted(gs, a[m]) * n + c[m]] = v[m]
            return out

        def times(lm, rows):  # the rows e_g u for the generators g of lm and u in rows
            return rows._new(rows.rows * (lm.shape[1] // n), n, _matmul(f, rows._d, lm).reshape(-1, n))

        eye = Matrix.identity(f, n)
        span = Subspace.from_vectors(f, n, [self.unit])
        gens: list[int] = []
        while span.dim < n:
            outside = (_matmul(f, eye._d[:, span.pivots], span.basis._d) != eye._d).any(axis=1)
            if not outside.any():
                return gens
            i = int(outside.argmax())
            gens.append(i)
            if len(gens) > cap:
                return None
            new = times(left_mul([i]), span.basis).vstack(eye._new(1, n, eye._d[i : i + 1]))
            lm = left_mul(gens)
            while True:
                grown = Subspace.from_matrix_rows(span.basis.vstack(new))
                if grown.dim == span.dim:
                    break
                old = set(span.pivots)
                fresh = [r for r, p in enumerate(grown.pivots) if p not in old]
                span = grown
                new = times(lm, span.basis._new(len(fresh), n, span.basis._d[fresh]))
        return gens  # the span is everything


def _index_closure(nxt: np.ndarray, start: int, cap: int) -> list[int] | None:
    """`AlgebraObject._rref_closure` on a monomial table: e_g times a span
    of basis vectors is spanned by the e_nxt[g, y] it reaches, so the
    closure from e_start is the set of indices reachable in the graph
    y -> nxt[g, y] over the generators g.  The closure only grows, so the
    first index outside it is found by one scan in order."""
    reached = [False] * len(nxt)
    reached[start] = True
    order = [start]  # the reached indices
    rows: list[list[int]] = []  # nxt[g] for each generator g
    gens: list[int] = []
    for i in range(len(nxt)):
        if reached[i]:
            continue
        gens.append(i)
        if len(gens) > cap:
            return None
        rows.append(row := nxt[i].tolist())
        stack = [i] + [row[y] for y in order]  # e_i and e_i S; new rows meet every generator
        while stack:
            k = stack.pop()
            if k >= 0 and not reached[k]:
                reached[k] = True
                order.append(k)
                stack.extend(r[k] for r in rows)
    return gens


def _in_range(table, n: int) -> bool:
    """Every index of the structure constants lies in range(n)."""
    ijk = np.concatenate(table[:3])
    return ijk.size == 0 or 0 <= ijk.min() and ijk.max() < n


class BimoduleObject:
    """(A,A)-bimodule: left action A (x) M -> M and right action M (x) A -> M."""

    def __init__(self, algebra: AlgebraObject, dim: int, act_l: Matrix, act_r: Matrix):
        self.algebra = algebra
        self.dim = dim
        self.act_l = act_l  # (dim, algebra.dim * dim)
        self.act_r = act_r  # (dim, dim * algebra.dim)

    @classmethod
    def regular(cls, a: AlgebraObject) -> "BimoduleObject":
        m = a.mul_matrix()
        return cls(a, a.dim, m, m)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        record_bimodule_axioms(rep, self.algebra, self.dim, self.act_l, self.act_r, {
            "left": ("left_action", "(e{0}e{1})m{2}"), "right": ("right_action", "m{2}(e{0}e{1})"),
            "middle": ("bimodule_compat", "e{0}(m{2}e{1})"), "unit": ("unit_action", "1*m{0}")})
        return rep

    @classmethod
    def trivial(cls, a: AlgebraObject, eps: list, dim: int = 1) -> "BimoduleObject":
        """Both actions through a character eps (used with counits)."""
        f = a.field
        n = a.dim
        ent_l, ent_r = {}, {}
        for i in range(n):
            if f.is_zero(eps[i]):
                continue
            for t in range(dim):
                ent_l[(t, i * dim + t)] = eps[i]
                ent_r[(t, t * n + i)] = eps[i]
        return cls(a, dim, Matrix.from_entries(f, dim, n * dim, ent_l), Matrix.from_entries(f, dim, dim * n, ent_r))


def _bimodule_defect(a: AlgebraObject, dm: int, act_l: Matrix, act_r: Matrix):
    """The first bimodule axiom that fails on basis elements, as (axiom,
    witness), or None.  Axioms "left" (e_i e_j) m_t = e_i (e_j m_t),
    "right" m_t (e_i e_j) = (m_t e_i) e_j and "middle" e_i (m_t e_j) =
    (e_i m_t) e_j are pipelines over (i, j, t); the witness is the
    lexicographically first failing (i, j, t), the axioms in that order on
    a tie.  Then "unit", 1 m_t = m_t = m_t 1, with witness (t,)."""
    f, n = a.field, a.dim
    mul = a.mul_map()
    lm = SparseMap.from_matrix(act_l, (n, dm), (dm,))
    rm = SparseMap.from_matrix(act_r, (dm, n), (dm,))

    def P(*dims):
        return StagePipeline(f, dims)

    axioms = (
        ("left", P(n, n, dm).map_at(mul, 0).map_at(lm, 0), P(n, n, dm).map_at(lm, 1).map_at(lm, 0)),
        ("right", P(n, n, dm).map_at(mul, 0).permute((1, 0)).map_at(rm, 0),
         P(n, n, dm).permute((2, 0, 1)).map_at(rm, 0).map_at(rm, 0)),
        ("middle", P(n, n, dm).permute((0, 2, 1)).map_at(rm, 1).map_at(lm, 0),
         P(n, n, dm).permute((0, 2, 1)).map_at(lm, 0).map_at(rm, 0)),
    )
    fails = [(pipelines_equal(lhs, rhs), s, name) for s, (name, lhs, rhs) in enumerate(axioms)]
    fails = [x for x in fails if x[0] is not None]
    if fails:
        w, _, name = min(fails)
        return name, w
    units = [pipelines_equal(P(dm).insert(0, a.unit, n).map_at(lm, 0), P(dm)),
             pipelines_equal(P(dm).insert(1, a.unit, n).map_at(rm, 0), P(dm))]
    units = [w for w in units if w is not None]
    return ("unit", min(units)) if units else None


def record_bimodule_axioms(rep: ValidationReport, a: AlgebraObject, dm: int, act_l: Matrix, act_r: Matrix,
                           names: dict) -> bool:
    """Record `_bimodule_defect` in rep and return whether every axiom holds.
    names maps each axiom to its check name and a witness format over the
    witness indices.  A failure is recorded alone; otherwise every axiom
    passes, in the order of names."""
    bad = _bimodule_defect(a, dm, act_l, act_r)
    if bad is not None:
        check, fmt = names[bad[0]]
        rep.record(check, False, fmt.format(*bad[1]))
        return False
    for check, _ in names.values():
        rep.record(check, True)
    return True


class IdealData:
    """Two-sided ideal given as a subspace (with an optional generator map).
    It records that it is an ideal (`holds`), the chain I, I^2, ..., 0 as
    IdealData (`powers`) and the index once `ideal_power_nilpotency` ran on
    it, and the certificate's (A/I, proj, proj's map) (`quotient`)."""

    def __init__(self, algebra: AlgebraObject, subspace: Subspace, witness: Matrix | None = None):
        self.algebra = algebra
        self.subspace = subspace
        self.witness = witness
        self._ideal = False  # `is_ideal` passed, or a verified theorem implies it
        self.powers: list[IdealData] | None = None
        self.nil_index: int | None = None
        self.quotient: tuple | None = None

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def holds(self) -> bool:
        """`is_ideal` of the subspace, until it passes once (recorded)."""
        if not self._ideal:
            self._ideal = is_ideal(self.algebra, self.subspace)
        return self._ideal


def _is_ideal_of(a: AlgebraObject, ideal: IdealData | Subspace) -> bool:
    """`IdealData.holds` for an IdealData of a, else `is_ideal`."""
    if isinstance(ideal, IdealData) and ideal.algebra is a:
        return ideal.holds()
    return is_ideal(a, ideal.subspace if isinstance(ideal, IdealData) else ideal)


def _dense(f: ScalarField, shape) -> np.ndarray:
    """A zero array to densify structure constants into for one product.
    Reduced entries over F_p with p < 2**31 fit int32, half the size of
    the int64 operands, and `_matmul` widens it."""
    dtype = _dtype(f)
    return np.full(shape, f.zero(), dtype=np.int32 if dtype == np.int64 else dtype)


def pairwise_products(a: AlgebraObject, left: Matrix, right: Matrix) -> SparseMap:
    """All products (row of left) * (row of right), stacked as rows in
    (left, right) order, as a matrix of rows (`linalg.SparseMap`) whose
    `Numerators` come summed from two joins on the structure constants
    (i, j, k, v), each summed by `linalg.Numerators.summed`.  Consumers
    read the COO; `.dense()` is the Matrix.

    Stage 1, P[u, j, k] = sum_i left[u, i] [e_i e_j]_k, pairs each nonzero
    (u, i) of left with the constants of first leg i.  Stage 2,
    out[u rr + w, k] = sum_j right[w, j] P[u, j, k], pairs each nonzero
    (w, j) of right with the nonzeros of P at j.  The term counts are known
    before anything is multiplied: stage 1 makes one term per nonzero of
    left and constant of its first leg, and stage 2 at most one per nonzero
    of left, constant (i, j, k) and nonzero of right at j.  When either
    count is not below the size of the dense array its stage fills
    (lr n^2, then lr rr n), the product runs instead as two exact `_matmul`
    with the constants densified for the call, since a join of dense
    operands makes far more terms than that product has entries."""
    f, n, lr, rr = a.field, a.dim, left.rows, right.rows
    if left.cols != n or right.cols != n:
        raise ValueError(f"operands of width {left.cols} and {right.cols} in a {n}-dim algebra")
    ci, cj, ck, cv = a.constants()
    if lr * rr * n == 0:
        none = np.zeros(0, dtype=np.int64)
        return SparseMap.from_coo(f, (lr * rr,), (n,), none, none, Numerators.ones(f, 0))
    u, i = left._d.nonzero()
    w, j = right._d.nonzero()
    per_i = np.bincount(i, minlength=n)[ci]  # left nonzeros at each constant's first leg
    if per_i.sum() >= lr * n * n or (per_i * np.bincount(j, minlength=n)[cj]).sum() >= lr * rr * n:
        t = _dense(f, (n, n * n))
        t[ci, cj * n + ck] = cv
        q = _matmul(f, left._d, t).reshape(lr, n, n).transpose(1, 0, 2).reshape(n, lr * n)  # (j, (u, k))
        out = _matmul(f, right._d, q).reshape(rr, lr, n).transpose(1, 0, 2).reshape(lr * rr, n)
        return SparseMap.from_rows(Matrix(f, lr * rr, n, out, _raw=True))
    by_a = a._by_a
    s, e = _join(np.arange(u.size), by_a[i], by_a[i + 1])
    # summed per (j, (u, k)), so P comes out sorted by j for stage 2
    x = Numerators.of(f, left._d[u, i])
    pjuk, pv = (x[s] * a.constant_numerators()[e]).summed((cj[e] * lr + u[s]) * n + ck[e])
    pj, pu, pk = np.unravel_index(pjuk, (n, lr, n))
    starts = np.searchsorted(pj, np.arange(n + 1))
    s, e = _join(np.arange(w.size), starts[j], starts[j + 1])
    rc, val = (Numerators.of(f, right._d[w, j])[s] * pv[e]).summed((pu[e] * rr + w[s]) * n + pk[e])
    r, c = np.divmod(rc, n)
    return SparseMap.from_coo(f, (lr * rr,), (n,), r, c, val)


def _defect_pipelines(src: AlgebraObject, tgt: AlgebraObject, fm: SparseMap, rows=None):
    """The two sides of f(xy) = f(x) f(y) for the map fm : src -> tgt, f m
    and m (f (x) f), as stage pipelines on the pairs (i, j) keyed i n + j,
    or, given rows, on (r, j) with i the r-th of rows (a selection map
    first)."""
    fld, n = src.field, src.dim

    def start():
        if rows is None:
            return StagePipeline(fld, (n * n,)).regroup((n, n))
        k = len(rows)
        pick = SparseMap.from_coo(fld, (k,), (n,), np.arange(k), np.asarray(rows, dtype=np.int64),
                                  Numerators.ones(fld, k))
        return StagePipeline(fld, (k, n)).map_at(pick, 0)

    lhs = start().map_at(src.mul_map(), 0).map_at(fm, 0)
    rhs = start().map_at(fm, 0).map_at(fm, 1).map_at(tgt.mul_map(), 0)
    return lhs, rhs


def _map_generators(src: AlgebraObject, tgt: AlgebraObject, fm: SparseMap) -> list[int] | None:
    """Generators of src on which the multiplicativity of the map f = fm
    decides it, or None.  When src and tgt are verified associative and
    unital and f(1) = 1, {x : f(xy) = f(x) f(y) for all y} is a unital subalgebra:
    f(x x' y) = f(x) f(x' y) = f(x) f(x') f(y) = f(x x') f(y) for x, x'
    in it, and 1 is in it because f(1) = 1."""
    gens = src.verified_generators()
    if gens is None or not tgt._verified or not v_eq(src.field, fm.apply(src.unit), tgt.unit):
        return None
    return gens


def multiplicativity_defect(src: AlgebraObject, tgt: AlgebraObject, f: Matrix | SparseMap) -> tuple[int, int] | None:
    """The first basis pair (i, j), in lexicographic order, with
    f(e_i e_j) != f(e_i) f(e_j) for the linear map f : src -> tgt (a
    tgt.dim x src.dim matrix, or the SparseMap (src.dim,) -> (tgt.dim,) of
    a caller that has built it), or None when f is multiplicative.  The
    verdict is read on the generator rows alone when `_map_generators`
    allows it; a defect there reruns every row, so the witness is always
    the full scan's."""
    fm = f if isinstance(f, SparseMap) else SparseMap.from_matrix(f, (src.dim,), (tgt.dim,))
    gens = _map_generators(src, tgt, fm)
    if gens is not None and pipelines_equal(*_defect_pipelines(src, tgt, fm, gens)) is None:
        return None
    bad = pipelines_equal(*_defect_pipelines(src, tgt, fm))
    return None if bad is None else divmod(bad[0], src.dim)


def defect_map(src: AlgebraObject, tgt: AlgebraObject, f: Matrix) -> SparseMap:
    """f(e_i e_j) - f(e_i) f(e_j) as the map (src.dim^2,) -> (tgt.dim,), a
    matrix of rows i n + j: the curvature of a section f."""
    return difference_map(*_defect_pipelines(src, tgt, SparseMap.from_matrix(f, (src.dim,), (tgt.dim,))))


def is_ideal(a: AlgebraObject, s: Subspace) -> bool:
    """g I and I g inside I for every basis element g, or only for the
    generators once A is verified (`verified_generators`): {x : xI <= I}
    and {x : Ix <= I} are unital subalgebras of an associative A.  Each
    side is one `pairwise_products` of the unit rows e_g with the basis of
    I, tested as COO with one `Subspace.contains_rows` join; the left side
    is tested first."""
    if s.ambient_dim != a.dim:
        raise ValueError(f"subspace of K^{s.ambient_dim} in a {a.dim}-dim algebra")
    if s.dim == 0:
        return True
    gens = a.verified_generators()
    units = Matrix.identity(a.field, a.dim)
    if gens is not None:
        units = units._new(len(gens), a.dim, units._d[gens])
    return all(s.contains_rows(pairwise_products(a, lhs, rhs)) for lhs, rhs in ((units, s.basis), (s.basis, units)))


def ideal_generated_by(a: AlgebraObject, f: Matrix) -> IdealData:
    """Two-sided ideal generated by the image of f : X -> A.

    Realised as the span of all products e_i * f(x_t) * e_j, which is the
    image of the three-fold multiplication against f placed in the middle;
    the products stay COO up to `linalg._rref`'s sparse front end.
    """
    field = a.field
    if not f.cols:
        return IdealData(a, Subspace.zero(field, a.dim), f)
    mid_m = f.transpose()
    basis = Matrix.identity(field, a.dim)
    left = pairwise_products(a, basis, mid_m)  # rows: e_i * f_t
    full = pairwise_products(a, left.dense(), basis)  # rows: (e_i f_t) * e_j
    span = Subspace.from_matrix_rows(full.vstack(left).vstack(SparseMap.from_rows(mid_m)))
    # span already contains f(X) since 1 is a combination of basis elements
    return IdealData(a, span, f)


class NotNilpotentWithin(Exception):
    def __init__(self, max_n):
        super().__init__(f"ideal power chain did not reach zero within {max_n} steps")
        self.max_n = max_n


def ideal_power_nilpotency(a: AlgebraObject, ideal: IdealData, max_n: int = 64):
    """Powers I^n (n-fold products, n >= 2; I^1 := I) and the nilpotency index.

    Returns (powers, index) where powers[0] = I^1; raises NotNilpotentWithin
    if I^max_n is still nonzero.  The chain is recorded on an IdealData of
    a, each power as an ideal when A is verified: x I^n = (x I) I^(n-1)
    <= I^n by associativity, and likewise on the right.
    """
    if not _is_ideal_of(a, ideal):
        raise ValueError("not an ideal")
    powers = [ideal.subspace]
    while powers[-1].dim:
        if len(powers) == max_n:
            raise NotNilpotentWithin(max_n)
        nxt = Subspace.from_matrix_rows(pairwise_products(a, ideal.subspace.basis, powers[-1].basis))
        if nxt.dim == powers[-1].dim:  # stabilised above zero: never nilpotent
            raise NotNilpotentWithin(max_n)
        powers.append(nxt)
    index = max(len(powers), 2)  # I = 0: I^2 = 0 at index 2
    if ideal.algebra is a:  # new IdealData, so that the record makes no reference cycle
        ideal.powers = [IdealData(a, p) for p in powers]
        for p in ideal.powers:
            p._ideal = p.subspace is ideal.subspace or a._verified
        ideal.nil_index = index
    return powers, index


class SmallCharUnsupported(Exception):
    pass


class CertificationFailed(Exception):
    def __init__(self, check: str):
        super().__init__(f"radical certification failed: {check}")
        self.check = check


def _require_valid(a: AlgebraObject):
    """Validate A unless it already passed, on a generating set once shape
    and unit hold (so that it caches one for the restricted checks); a
    failed axiom raises CertificationFailed naming it."""
    if not a._verified:
        gens = a.generating_basis_indices() if a._shape_ok() and a._check_unit()[0] else None
        bad = a.validate(gens).failures()
        if bad:
            raise CertificationFailed("algebra %s: %s" % bad[0])


def trace_form(a: AlgebraObject) -> Matrix:
    """The trace form G[i, j] = Tr(L_i L_j) = sum_(x, y) L_i[x, y] L_j[y, x]
    of the left regular representation, L_i[x, y] = [e_i e_y]_x: each
    structure constant (i, y, x, v) joins every constant (j, x, y, w) with
    the last two legs swapped, and v w is summed per (i, j) by
    `linalg._summed`.  When the join would make n^3 terms or more (dense
    constants), the form is instead one exact `_matmul` of the constants
    densified for the call as T[i, (y, x)] and T[j, (x, y)]."""
    f, n = a.field, a.dim
    ci, cj, ck, cv = a.constants()
    order = np.argsort(cj * n + ck)
    legs, swapped = (cj * n + ck)[order], ck * n + cj
    lo, hi = np.searchsorted(legs, swapped), np.searchsorted(legs, swapped, side="right")
    if (hi - lo).sum() >= n**3:
        t = np.full((n, n, n), f.zero(), dtype=cv.dtype)  # int64: two int32 factors would multiply in int32
        t[ci, cj, ck] = cv
        g = _matmul(f, t.transpose(0, 2, 1).reshape(n, n * n), t.reshape(n, n * n).T)
        return Matrix(f, n, n, g, _raw=True)
    s, e = _join(np.arange(ci.size), lo, hi)
    e = order[e]
    gi, gj, gv = _summed(f, ci[s], ci[e], f.reduce(cv[s] * cv[e]), n)
    g = np.full((n, n), f.zero(), dtype=cv.dtype)
    g[gi, gj] = gv
    return Matrix(f, n, n, g, _raw=True)


def radical(a: AlgebraObject, certified_candidate: IdealData | None = None) -> IdealData:
    """Jacobson radical.

    Without a candidate (char 0 or char > dim): kernel of the trace form
    Tr(L_x L_y) of the left regular representation, then verified nilpotent.
    With a candidate: certify it is a nilpotent ideal with separable
    quotient, which pins it as the radical in any characteristic.
    Either way A is validated first, on a generating set (so the ideal
    tests may use it), unless it already is; a failed axiom raises
    CertificationFailed naming it.  The ideal is tested once (`holds`).
    """
    _require_valid(a)
    f = a.field
    if certified_candidate is None:
        if f.kind == "Fp" and f.p <= a.dim:
            raise SmallCharUnsupported(f"char {f.p} <= dim {a.dim}: supply a certified candidate")
        ker = trace_form(a).kernel()
        rad = IdealData(a, Subspace.from_matrix_rows(ker))
        if rad.dim:
            if not rad.holds():
                raise CertificationFailed("trace-form kernel is not an ideal")
            ideal_power_nilpotency(a, rad)  # raises if not nilpotent
        return rad
    cand = certified_candidate
    if not _is_ideal_of(a, cand):
        raise CertificationFailed("candidate is not a two-sided ideal")
    try:
        ideal_power_nilpotency(a, cand)
    except NotNilpotentWithin:
        raise CertificationFailed("candidate is not nilpotent")
    q, _proj = quotient_algebra(a, cand)
    try:
        separability_idempotent(q)
    except NotSeparable:
        raise CertificationFailed("quotient by candidate is not separable")
    return cand


class NotSeparable(Exception):
    pass


def separability_idempotent(a: AlgebraObject, ctx=None) -> list:
    """Element e of A (x) A with m(e) = 1 and (x (x) 1)e = e(1 (x) x) for all x.

    ctx, when given, is a `category.CatObject` over its Hopf object with
    coactions coact_l / coact_r (either may be None); e must then also be
    coinvariant for the diagonal coactions, making the induced bimodule
    section colinear.
    Returns e as a dense vector of length dim^2; raises NotSeparable.
    """
    e = _separability_solution(a, ctx)
    if e is None:
        # raised here, outside any handler, so that the exception keeps no
        # frame holding the constraint system alive
        raise NotSeparable(f"no separability idempotent for {a.dim}-dim algebra")
    verify_separability_idempotent(a, e)
    return e


def _separability_solution(a: AlgebraObject, ctx) -> list | None:
    """The canonical solution of the separability system, or None."""
    try:
        return _separability_system(a, ctx).solve_map()._d.ravel().tolist()
    except InconsistentSystem:
        return None


def _separability_system(a: AlgebraObject, ctx):
    """The separability system on the coordinates (x, y) -> x n + y of e in
    A (x) A, as a `category.MapSolver` on n x n matrices, built by index
    arithmetic on the structure constants (i, j, k, v), e_i e_j = v e_k + ...

    Row k < n is m(e) = 1 at e_k: entry v at (i, j).  Row n + (t n + x) n + y
    is the (x, y) coordinate of (e_t (x) 1) e - e (1 (x) e_t): the left term
    e_t e_c = v e_x puts v at (c, y) for every y, the right term
    e_d e_t = v e_y puts -v at (x, d) for every x.  With ctx the
    coinvariance rows follow.  Rows may be zero; elimination drops them.
    """
    from .category import MapSolver

    f, n = a.field, a.dim
    i, j, k, v = a.constants()
    every = np.arange(n)
    solver = MapSolver(f, n, n)
    solver.add_coo(k, i * n + j, v, n, a.unit)
    # left term over (t, c, x) = (i, j, k), broadcast over y
    lr = ((i * n + k) * n)[:, None] + every
    lc = (j * n)[:, None] + every
    # right term over (d, t, y) = (i, j, k), broadcast over x
    rr = (j[:, None] * n + every) * n + k[:, None]
    rc = every * n + i[:, None]
    lv, rv = np.broadcast_to(v[:, None], lr.shape), np.broadcast_to(f.reduce(-v)[:, None], rr.shape)
    solver.add_coo(np.concatenate((lr.ravel(), rr.ravel())), np.concatenate((lc.ravel(), rc.ravel())),
                   np.concatenate((lv.ravel(), rv.ravel())), n**3)
    if ctx is not None:
        solver.add_coo(*_ctx_coinvariance_rows(a, ctx))
    return solver


def _ctx_coinvariance_rows(a: AlgebraObject, ctx):
    """Coinvariance of e under the diagonal coactions on A (x) A, as COO
    arrays (rows, cols, values) over the coordinates of e and the row
    count, left side first.

    Right: rho(x (x) y) = x0 (x) y0 (x) x1 y1 must send e to e (x) 1_H;
    left symmetrically.  Each side is the COO of a stage pipeline minus the
    pipeline inserting 1_H (`tensors.difference`): its output keys are the
    rows, its input keys the coordinates of e.
    """
    f = a.field
    n = a.dim
    h = ctx.hopf
    dh = h.dim
    mul_h = h.as_algebra().mul_map()
    coo, rows = [], 0
    for sm, pos in ((ctx.coact_l, 0), (ctx.coact_r, 2)):
        if sm is None:
            continue
        # (x, h, y, h') on the right, (h, x, h', y) on the left, then h h'
        rho = StagePipeline(f, (n, n)).map_at(sm, 0).map_at(sm, 2).permute((0, 2, 1, 3)).map_at(mul_h, pos)
        c, r, v = difference(rho, StagePipeline(f, (n, n)).insert(pos, h.unit, dh))
        coo.append((r + rows, c, v))
        rows += n * n * dh
    empty = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0, dtype=_dtype(f)),)
    r, c, v = (np.concatenate(x) for x in zip(empty, *coo))
    return r, c, v, rows


def verify_separability_idempotent(a: AlgebraObject, e: list):
    """Re-check m(e) = 1 and the Casimir property (e_t (x) 1) e = e (1 (x) e_t)
    on the structure constants (i, j, k, v).  m(e) sums e_ij v on e_k; the
    witness is the first k where it differs from 1.  Each nonzero e_ij
    meets the constants (t, i, k, v) for the term e_ij v on e_k (x) e_j of
    (e_t (x) 1) e, and the constants (j, t, k, v) for e_ij v on e_i (x) e_k
    of e (1 (x) e_t); the difference is summed per t by `linalg._summed`,
    and the witness is the first t where it is nonzero."""
    f, n = a.field, a.dim
    ci, cj, ck, cv = a.constants()
    ev = f.reduce(np.array(e, dtype=_dtype(f)))
    unit = f.reduce(-np.array(a.unit, dtype=_dtype(f)))
    _, bad, _ = _summed(f, np.zeros(ck.size + n, dtype=np.int64), np.concatenate((ck, np.arange(n))),
                        np.concatenate((f.reduce(ev[ci * n + cj] * cv), unit)), n)
    if bad.size:
        raise VerificationFailed("separability_multiplication", int(bad[0]))
    nz = np.flatnonzero(ev)
    i, j = np.divmod(nz, n)
    by_b = np.argsort(cj, kind="stable")
    b_at = np.searchsorted(cj[by_b], np.arange(n + 1))
    s, t = _join(np.arange(nz.size), b_at[i], b_at[i + 1])
    t = by_b[t]
    s2, t2 = _join(np.arange(nz.size), a._by_a[j], a._by_a[j + 1])
    bad, _, _ = _summed(f, np.concatenate((ci[t], cj[t2])), np.concatenate((ck[t] * n + j[s], i[s2] * n + ck[t2])),
                        np.concatenate((f.reduce(ev[nz[s]] * cv[t]), -f.reduce(ev[nz[s2]] * cv[t2]))), n * n)
    if bad.size:
        raise VerificationFailed("separability_casimir", int(bad[0]))


def quotient_algebra(a: AlgebraObject, ideal: IdealData | Subspace):
    """Quotient algebra on the canonical complement basis; returns (Q, proj).

    The complement basis consists of the non-pivot coordinates of the
    ideal's RREF basis, so the construction is deterministic.  Q's
    structure constants are proj applied to the products of the free basis
    vectors, and proj is re-verified to be an algebra map.  Q is validated
    unless A is verified: A/I is then associative and unital (recorded).
    """
    if not _is_ideal_of(a, ideal):
        raise ValueError("not an ideal")
    s = ideal.subspace if isinstance(ideal, IdealData) else ideal
    f = a.field
    n = a.dim
    free = s.free_columns()
    qdim = len(free)
    proj = s.complement_projection()
    eye = Matrix.identity(f, n)
    basis = eye._new(qdim, n, eye._d[free])
    consts = pairwise_products(a, basis, basis).matmul(SparseMap.from_matrix(proj, (n,), (qdim,)))  # row (ti, tj)
    q = AlgebraObject.from_constants(f, qdim, (*np.divmod(consts.src, qdim), consts.dst, consts.values.fractions()),
                                     proj.apply(a.unit), tuple(a.labels[fr] for fr in free))
    if a._verified:
        q._verified = True
    else:
        q.validate().require("quotient algebra")
    bad = multiplicativity_defect(a, q, proj)
    if bad is not None:
        raise VerificationFailed("projection_algebra_map", bad)
    return q, proj
