"""Builtin Hopf objects: group algebras, their duals, Taft algebras and the
p^4-dimensional two-generator family used by the end-to-end runs.

Each builder computes its structure constants as arrays (i, j, k, v) and
hands them to `AlgebraObject.from_constants` and
`CoalgebraObject.from_constants`; the Hopf object is validated once,
antipode included.

The two-generator family H(a) has the basis of monomials c^i x1^j x2^r
(0 <= i < p^2, 0 <= j, r < p) subject to

    c^(p^2) = 1,   x1^p = x2^p = c^p - 1,
    x1 c = lam^-1 c x1,   x2 c = lam c x2,   x2 x1 = lam x1 x2 + a(c^2 - 1),

with lam a primitive p-th root of unity; c is grouplike and
Delta(xi) = c (x) xi + xi (x) 1.  c^p is central since lam^p = 1, so the
power reductions commute with everything.  Normal-form rewriting gives
only the right multiplications R_c, R_x1, R_x2 of the generators (row t
of the map R_g is e_t g).  Since R_(c^i x1^j x2^r) = R_x2^r R_x1^j R_c^i,
the monomials are walked by layers (`_by_layers`: the c^i, then every
c^i x1^j, then every c^i x1^j x2^r), p^2 - 1 + 2(p - 1) steps, each a
few `SparseMap.apply_at` stages and one sum on a batch keyed by monomial:

    e_s (m g) = R_g (e_s m)                          (the product constants)
    Delta(m c) = (R_c (x) R_c) Delta(m),  Delta(m x) = (R_c (x) R_x + R_x (x) id) Delta(m)
    S(m g) = L_(S g) S(m)                            (S is anti-multiplicative)

with L_y: e_t -> y e_t from the product's `mul_map()`.  No n x n matrix
is multiplied and no n^3 array formed.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraObject, table_from_entries
from .coalgebra import CoalgebraObject
from .fields import ScalarField
from .hopf import HopfObject
from .linalg import Matrix, Numerators, SparseMap, _dtype
from .tensors import StagePipeline, _sum


def _validated(h: HopfObject, what: str) -> HopfObject:
    h.validate().require(what)
    return h


def _hopf(f: ScalarField, dim: int, mul, unit, comul, counit, s: Matrix, labels) -> HopfObject:
    """The Hopf object on the structure-constant arrays mul and comul."""
    return HopfObject.from_parts(AlgebraObject.from_constants(f, dim, mul, unit, labels),
                                 CoalgebraObject.from_constants(f, dim, comul, counit, labels), s)


def _ones(f: ScalarField, size: int) -> np.ndarray:
    return np.full(size, f.one(), dtype=_dtype(f))


def group_algebra(n: int, field: ScalarField) -> HopfObject:
    """K[Z_n]: basis g^0..g^(n-1), grouplike basis, S(g^i) = g^-i."""
    f = field
    i, j = (x.ravel() for x in np.indices((n, n)))
    g = np.arange(n)
    unit = [f.one() if i == 0 else f.zero() for i in range(n)]
    s = Matrix.from_entries(f, n, n, {((-i) % n, i): f.one() for i in range(n)})
    return _validated(_hopf(f, n, (i, j, (i + j) % n, _ones(f, n * n)), unit, (g, g, g, _ones(f, n)), [f.one()] * n,
                            s, tuple(f"g^{i}" for i in range(n))), "group algebra")


def dual_group_algebra(n: int, field: ScalarField) -> HopfObject:
    """Functions on Z_n: pointwise product of delta functions, convolution coproduct."""
    f = field
    k, i = (x.ravel() for x in np.indices((n, n)))
    g = np.arange(n)
    counit = [f.one() if k == 0 else f.zero() for k in range(n)]
    s = Matrix.from_entries(f, n, n, {((-i) % n, i): f.one() for i in range(n)})
    return _validated(_hopf(f, n, (g, g, g, _ones(f, n)), [f.one()] * n, (i, (k - i) % n, k, _ones(f, n * n)),
                            counit, s, tuple(f"d{i}" for i in range(n))), "dual group algebra")


def taft(n: int, lam, field: ScalarField) -> HopfObject:
    """Taft algebra of dimension n^2: g^n = 1, x^n = 0, x g = lam g x,
    Delta(g) = g (x) g, Delta(x) = g (x) x + x (x) 1."""
    f = field
    if f.pow(lam, n) != f.one() or any(f.pow(lam, d) == f.one() for d in range(1, n)):
        raise ValueError("lam must be a primitive n-th root of unity")
    dim = n * n

    def idx(i, j):  # basis g^i x^j
        return i * n + j

    # (g^i1 x^j1)(g^i2 x^j2) = lam^(j1 i2) g^(i1+i2) x^(j1+j2), zero when
    # j1 + j2 >= n (x^n = 0)
    i1, j1, i2, j2 = (x.ravel() for x in np.indices((n,) * 4))
    keep = j1 + j2 < n
    i1, j1, i2, j2 = i1[keep], j1[keep], i2[keep], j2[keep]
    powers = np.array([f.pow(lam, e) for e in range(n)], dtype=_dtype(f))
    mul = (idx(i1, j1), idx(i2, j2), idx((i1 + i2) % n, j1 + j2), powers[j1 * i2 % n])
    unit = [f.zero()] * dim
    unit[idx(0, 0)] = f.one()
    # Delta(g^i x^j) = (g(x)g)^i (g(x)x + x(x)1)^j, expanded with the
    # q-binomial coefficients for lam:
    # (g(x)x + x(x)1)^j = sum_t qbin[j][t] g^t x^(j-t) (x) x^t
    qbin = _gauss_binomials(f, lam, n)
    comul = table_from_entries(f, ((idx((i + t) % n, j - t), idx(i, t), idx(i, j), qbin[j][t])
                                   for i in range(n) for j in range(n) for t in range(j + 1)))
    counit = [f.one() if j == 0 else f.zero() for i in range(n) for j in range(n)]
    # S(g) = g^-1, S(x) = -g^-1 x, anti-multiplicative
    s_entries = {}
    for i in range(n):
        for j in range(n):
            # S(g^i x^j) = S(x)^j S(g)^i = (-1)^j lam^(-j(j-1)/2 - ij) g^-(i+j) x^j
            exp = -((j * (j - 1)) // 2) - i * j
            c = f.mul(f.pow(f.neg(f.one()), j), f.pow(lam, exp))
            s_entries[(idx((-i - j) % n, j), idx(i, j))] = c
    s = Matrix.from_entries(f, dim, dim, s_entries)
    labels = tuple(f"g^{i}x^{j}" for i in range(n) for j in range(n))
    return _validated(_hopf(f, dim, mul, unit, comul, counit, s, labels), "taft algebra")


def sweedler_h4(field: ScalarField) -> HopfObject:
    """The 4-dimensional Taft algebra (n = 2, lam = -1)."""
    return taft(2, field.neg(field.one()), field)


def _gauss_binomials(f, q, n):
    """qbin[m][t] = Gaussian binomial (m choose t)_q for m < n."""
    # (a + b)^m with b a = q a b expands with these coefficients
    out = [[f.one()]]
    for m in range(1, n):
        prev = out[-1]
        row = [f.one()]
        for t in range(1, m):
            # (m t)_q = (m-1 t-1)_q + q^t (m-1 t)_q
            row.append(f.add(prev[t - 1], f.mul(f.pow(q, t), prev[t])))
        row.append(f.one())
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# the p^4-dimensional example


class _MonomialRewriter:
    """Normal-form arithmetic for the two-generator presentation."""

    def __init__(self, p: int, field: ScalarField, lam, a):
        self.p = p
        self.f = field
        self.lam = lam
        self.a = a
        self.psq = p * p

    def idx(self, i, j, r):
        return (i * self.p + j) * self.p + r

    def _add(self, acc, mono, c):
        f = self.f
        s = f.add(acc.get(mono, f.zero()), c)
        if f.is_zero(s):
            acc.pop(mono, None)
        else:
            acc[mono] = s

    def times_c(self, elem, power=1):
        """Right-multiply by c^power."""
        f = self.f
        out: dict = {}
        for (i, j, r), c in elem.items():
            # x1^j x2^r c = lam^(r-j) c x1^j x2^r
            coeff = f.mul(c, f.pow(self.lam, (r - j) * power))
            self._add(out, ((i + power) % self.psq, j, r), coeff)
        return out

    def times_x1(self, elem):
        """Right-multiply by x1: needs x2^r x1 = lam^r x1 x2^r + lower."""
        f = self.f
        out: dict = {}
        for (i, j, r), c in elem.items():
            for (i2, j2, r2), c2 in self._x2r_x1(r).items():
                # c^i x1^j (x2^r x1) = c^i x1^j (c^i2 x1^j2 x2^r2) terms
                coeff = f.mul(c, f.mul(c2, f.pow(self.lam, -j * i2)))
                self._reduce_powers(out, (i + i2) % self.psq, j + j2, r2, coeff)
        return out

    def times_x2(self, elem):
        f = self.f
        out: dict = {}
        for (i, j, r), c in elem.items():
            self._reduce_powers(out, i, j, r + 1, c)
        return out

    def _x2r_x1(self, r):
        """x2^r x1 in normal form, by recursion on r."""
        f = self.f
        if r == 0:
            return {(0, 1, 0): f.one()}
        prev = self._x2r_x1(r - 1)
        out: dict = {}
        # x2^r x1 = x2^(r-1) (x2 x1) = x2^(r-1) (lam x1 x2 + a c^2 - a)
        #        = lam (x2^(r-1) x1) x2 + a x2^(r-1) c^2 - a x2^(r-1)
        for (i, j, rr), c in prev.items():
            self._reduce_powers(out, i, j, rr + 1, f.mul(self.lam, c))
        # a x2^(r-1) c^2 = a lam^(2(r-1)) c^2 x2^(r-1)
        self._add(out, (2, 0, r - 1), f.mul(self.a, f.pow(self.lam, 2 * (r - 1))))
        self._add(out, (0, 0, r - 1), f.neg(self.a))
        return out

    def _reduce_powers(self, acc, i, j, r, coeff):
        """Reduce x1^j, x2^r with x^p = c^p - 1 (c^p is central)."""
        f = self.f
        if j >= self.p:
            # x1^j = (c^p - 1) x1^(j-p)
            self._reduce_powers(acc, (i + self.p) % self.psq, j - self.p, r, coeff)
            self._reduce_powers(acc, i, j - self.p, r, f.neg(coeff))
            return
        if r >= self.p:
            self._reduce_powers(acc, (i + self.p) % self.psq, j, r - self.p, coeff)
            self._reduce_powers(acc, i, j, r - self.p, f.neg(coeff))
            return
        self._add(acc, (i, j, r), coeff)


def build_ha(p: int, field: ScalarField, lam, a) -> HopfObject:
    """Pointed Hopf algebra of dimension p^4 on generators c, x1, x2.

    Requires an odd prime p, a primitive p-th root of unity lam and a != 0.
    """
    f = field
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if f.pow(lam, p) != f.one() or lam == f.one():
        raise ValueError("lam must be a primitive p-th root of unity")
    if f.is_zero(a):
        raise ValueError("a must be nonzero")
    if f.kind == "Fp" and p * p % f.p == 0:
        raise ValueError("characteristic divides the group order")
    h = _ha_from_generators(p, f, *_regular_generators(_MonomialRewriter(p, f, lam, a)))
    return _validated(h, "p^4 two-generator Hopf algebra")


def _monomials(p: int) -> list:
    """The basis c^i x1^j x2^r as (i, j, r), in the order of its index."""
    return [(i, j, r) for i in range(p * p) for j in range(p) for r in range(p)]


def _regular_generators(rw: _MonomialRewriter) -> list:
    """R_c, R_x1, R_x2 as n x n arrays: column t holds e_t g in normal form."""
    f, monos, out = rw.f, _monomials(rw.p), []
    for times in (rw.times_c, rw.times_x1, rw.times_x2):
        r = np.full((len(monos), len(monos)), f.zero(), dtype=_dtype(f))
        for t, m in enumerate(monos):
            for mono, c in times({m: f.one()}).items():
                r[rw.idx(*mono), t] = c
        out.append(r)
    return out


def _by_layers(p: int, width: int, batch, times):
    """Walk a batch (keys, Numerators) of the monomial 1 to every monomial
    by layers: c^i from c^(i-1), then c^i x1^j from the layer c^i x1^(j-1),
    then c^i x1^j x2^r from c^i x1^j x2^(r-1).  times(batch, g) takes the
    batch of a layer of monomials m, keyed u width + k for its u-th
    monomial, to that of the m g (g = 0, 1, 2 for c, x1, x2).  Returns the
    batch keyed t width + k for the monomial of index t, unsorted."""
    ts = np.zeros(1, dtype=np.int64)
    for g, (step, count) in enumerate(((p * p, p * p - 1), (p, p - 1), (1, p - 1))):
        layer = [(ts, batch)]
        for _ in range(count):
            layer.append((layer[-1][0] + step, times(layer[-1][1], g)))
        offsets = np.cumsum([0] + [t.size for t, _ in layer[:-1]]) * width
        ts = np.concatenate([t for t, _ in layer])
        batch = np.concatenate([b[0] + o for o, (_, b) in zip(offsets, layer)]), Numerators.concat([b[1] for _, b in layer])
    u, k = np.divmod(batch[0], width)
    return ts[u] * width + k, batch[1]


def _ha_from_generators(p: int, f: ScalarField, rc, rx1, rx2) -> HopfObject:
    """The Hopf object H(a) from the right multiplications of its
    generators (n x n arrays, column t holding e_t g), by the layer walks
    of the module docstring; not validated."""
    n = p**4
    gens = [SparseMap.from_matrix(Matrix(f, n, n, g, _raw=True), (n,), (n,)) for g in (rc, rx1, rx2)]
    one = np.zeros(1, dtype=np.int64), Numerators.ones(f, 1)  # 1, and 1 (x) 1
    monos = _monomials(p)
    labels = tuple(f"c^{i}x1^{j}x2^{r}" for (i, j, r) in monos)
    # the rows e_s m, keyed s n + k, are the product constants e_s e_t
    rows = np.arange(n) * (n + 1), Numerators.ones(f, n)
    key, val = _by_layers(p, n * n, rows, lambda b, g: _sum(gens[g].apply_at(b, 1)))
    t, s, k = np.unravel_index(key, (n, n, n))
    order = np.argsort((s * n + t) * n + k)
    alg = AlgebraObject.from_constants(f, n, (s[order], t[order], k[order], val[order].fractions()),
                                       [f.one()] + [f.zero()] * (n - 1), labels)

    def delta_times(b, g):
        terms = [gens[g].apply_at(gens[0].apply_at(b, n), 1)] + ([gens[g].apply_at(b, n)] if g else [])
        return _sum((np.concatenate([k for k, _ in terms]), Numerators.concat([v for _, v in terms])))

    key, val = _by_layers(p, n * n, one, delta_times)
    order = key.argsort()
    t, a, b = np.unravel_index(key[order], (n, n, n))
    counit = [f.one() if (j == 0 and r == 0) else f.zero() for (i, j, r) in monos]
    coalg = CoalgebraObject.from_constants(f, n, (a, b, t, val[order].fractions()), counit, labels)
    # S(c) = c^-1 = c^(p^2 - 1) and S(xi) = -c^-1 xi, and L_y: e_t -> y e_t
    inv_c = (p * p - 1) * p * p
    s_gens = [Matrix.identity(f, n)._d[inv_c]] + [f.reduce(-x[inv_c : inv_c + 1][0]) for x in gens[1:]]
    left = [StagePipeline(f, (n,)).insert(0, y, n).map_at(alg.mul_map(), 0).sparse_map() for y in s_gens]
    key, val = _by_layers(p, n, one, lambda b, g: _sum(left[g].apply_at(b, 1)))
    s = Matrix.zeros(f, n, n)
    t, row = np.divmod(key, n)
    s._d[row, t] = val.fractions()
    return HopfObject.from_parts(alg, coalg, s)


def builtin(name: str, field: ScalarField, **params) -> HopfObject:
    """Name-based dispatch for the builtin example family."""
    if name == "group_algebra":
        return group_algebra(params["n"], field)
    if name == "dual_group_algebra":
        return dual_group_algebra(params["n"], field)
    if name == "sweedler_h4":
        return sweedler_h4(field)
    if name == "taft":
        lam = params.get("lam")
        if lam is None:
            lam = field.primitive_root_of_unity(params["n"])
            if lam is None:
                raise ValueError(f"field has no primitive {params['n']}-th root of unity")
        return taft(params["n"], lam, field)
    raise ValueError(f"unknown builtin {name!r}")
