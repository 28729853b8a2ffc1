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
only the right multiplications R_c, R_x1, R_x2 of the generators on the
basis (column t holds e_t g).  Walking the monomials m = c^i x1^j x2^r in
order, one step from the previous monomial of the chain gives

    R_(m g) = R_g R_m                                (e_t m g = R_g R_m e_t)
    Delta(m c) = R_c D_m R_c^T,  Delta(m x) = R_c D_m R_x^T + R_x D_m
    S(m g) = L_(S g) S(m)                            (S is anti-multiplicative)

where D_m is Delta(m) as an n x n matrix and L_y the left multiplication
by y, whose column t is R_t y.  The column t of R_(e_t') is e_t e_t', so
the product constants are the nonzeros of the R_m; only the current chain
of n x n matrices is kept, never an n^3 array.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraObject, table_from_entries
from .coalgebra import CoalgebraObject
from .fields import ScalarField
from .hopf import HopfObject
from .linalg import Matrix, _dtype, _matmul


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

    def key(self, flat):
        p = self.p
        return (flat // (p * p), (flat // p) % p, flat % p)

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
    f = rw.f
    monos = _monomials(rw.p)
    out = []
    for times in (rw.times_c, rw.times_x1, rw.times_x2):
        r = np.full((len(monos), len(monos)), f.zero(), dtype=_dtype(f))
        for t, m in enumerate(monos):
            for mono, c in times({m: f.one()}).items():
                r[rw.idx(*mono), t] = c
        out.append(r)
    return out


def _chain_steps(p: int):
    """(t, g) for each monomial t but 1, in index order: t = m g, with g
    = 0 (c), 1 (x1) or 2 (x2) the last generator of t.  The walk keeps the
    chain (c^i, c^i x1^j, c^i x1^j x2^r) of the monomials reached last; m
    is its entry g, and t replaces that entry and the ones after it."""
    for t, (i, j, r) in enumerate(_monomials(p)):
        if t:
            yield t, 0 if j == r == 0 else 1 if r == 0 else 2


def _ha_from_generators(p: int, f: ScalarField, rc, rx1, rx2) -> HopfObject:
    """The Hopf object H(a) from the right multiplications of its
    generators, by the chain recurrences of the module docstring; not
    validated."""
    n = p**4
    gens = (rc, rx1, rx2)
    inv_c = (p * p - 1) * p * p  # the index of c^(p^2 - 1) = c^-1 = S(c)
    eye = Matrix.identity(f, n)._d
    # the columns S(c) = c^-1 and S(xi) = -c^-1 xi
    sg = np.stack([eye[inv_c], f.reduce(-rx1[:, inv_c]), f.reduce(-rx2[:, inv_c])], axis=1)
    one = np.full((n, n), f.zero(), dtype=rc.dtype)
    one[0, 0] = f.one()

    def mm(x, y):
        return _matmul(f, x, y)

    def record(t, rm, dm):
        k, m1 = np.nonzero(rm)  # e_m1 e_t has rm[k, m1] on e_k
        mul.append((m1, np.full(k.size, t), k, rm[k, m1]))
        a, b = np.nonzero(dm)
        comul.append((a, b, np.full(a.size, t), dm[a, b]))
        left.append(mm(rm, sg))  # column t of L_S(c), L_S(x1), L_S(x2)

    mul, comul, left = [], [], []
    chain = [(eye, one)] * 3  # (R_m, Delta(m))
    record(0, eye, one)
    for t, g in _chain_steps(p):
        r, d = chain[g]
        d_next = mm(mm(rc, d), gens[g].T)
        chain[g:] = [(mm(gens[g], r), d_next if g == 0 else f.reduce(d_next + mm(gens[g], d)))] * (3 - g)
        record(t, *chain[g])
    left = np.stack(left, axis=1)  # L_S(g)[:, t] = left[:, t, g]
    s = np.full((n, n), f.zero(), dtype=rc.dtype)
    s[:, 0] = eye[0]
    s_chain = [eye[0]] * 3
    for t, g in _chain_steps(p):
        s_chain[g:] = [mm(left[:, :, g], s_chain[g][:, None])[:, 0]] * (3 - g)
        s[:, t] = s_chain[g]
    mul = [np.concatenate(x) for x in zip(*mul)]
    order = np.lexsort((mul[2], mul[1], mul[0]))
    monos = _monomials(p)
    unit = [f.one() if t == 0 else f.zero() for t in range(n)]
    counit = [f.one() if (j == 0 and r == 0) else f.zero() for (i, j, r) in monos]
    labels = tuple(f"c^{i}x1^{j}x2^{r}" for (i, j, r) in monos)
    return _hopf(f, n, [x[order] for x in mul], unit, [np.concatenate(x) for x in zip(*comul)], counit,
                 Matrix(f, n, n, s, _raw=True), labels)


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
