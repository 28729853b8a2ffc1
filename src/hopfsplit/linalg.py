"""Exact linear algebra over Q and F_p: dense matrices and one sparse matrix.

Matrices act on column vectors.  Reduced row echelon form is canonical
(leftmost pivots, scaled to 1, cleared columns), so every derived object
(kernel bases, particular solutions, subspace bases) is deterministic.

Every matrix is one numpy array: int64 over F_p with p < 2**31 (exact
integer arithmetic, reduced mod p after each step), ``dtype=object``
otherwise (Fractions over Q, python ints for huge p).  The only per-field
step is ``ScalarField.reduce``.  Products, ``_matmul``, run int64 F_p
operands through float64 BLAS only while k (p - 1)^2 < 2^53 for inner
dimension k, so every partial sum is an integer float64 holds exactly;
object products multiply only nonzero pairs.

Sparse kernels (products, summations, the stage engine of `tensors`)
compute on `Numerators`: integer numerators over one positive common
denominator, over F_p the reduced values over 1, over Q int64 numerators
while a bound on their absolute values proves that every product and sum
fits int64 (the bound of a product is the product of the bounds, that of
a sum of n terms n times theirs, and past 2^63 the operands become python
ints).  Its operations carry the denominator and the bound.

Elimination is one kernel for every dtype, ``_rref_chunked``: rows are
streamed in chunks, each chunk is stacked under the RREF found so far, and
column Gauss-Jordan updates only the block (rows nonzero in the pivot
column) x (columns nonzero in the pivot row).  Sparse matrices, the
common case, cost little more than their nonzeros, and over Q no zero
Fraction is ever multiplied.

The one sparse matrix is `SparseMap`, a map between tensor spaces held
as its summed COO entries with `Numerators` values; a matrix of rows is
the map (rows,) -> (cols,).  Every sparse elimination input is one, and
its producers hand their `Numerators` over as they are.

A tall sparse system (`SparseMap.rref`) runs a sparse front end before
anything is dense (`_rref_sparse`, structured Gaussian elimination after
LaMacchia and Odlyzko, CRYPTO '90).  Each row is scaled to a leading 1,
and duplicate rows are dropped (a lexsort of the rows padded as (col,
value) keys, then an exact comparison of neighbours).  Singleton rows are
then pivoted: a row with one nonzero at column j puts e_j in the row
space, so e_j is a row of the canonical RREF, and column j is deleted
from the other rows.  Doubleton rows u e_j + w e_k (j < k) are pivoted
next: column j is replaced by column k in the other rows, which adds no
entry.  Both repeat until neither is left.  The chunked Gauss-Jordan runs
only on the core left, on its nonzero columns, and the other rows are
merged back in by pivot.  The row space never changes, so the output is
the canonical RREF the streamed kernel gives on the whole system.
`kernel_from_rref` and `particular_from_rref` read the results.  Dense
input (`Matrix.rref`, hence `Matrix.kernel` and
`Subspace.from_matrix_rows` of a Matrix) is streamed directly.

Over Q a sparse source A is eliminated modulo primes below 2^31
(`_rref_modular`) as the integer matrix d A, d the common denominator of
its `Numerators`, which has the same RREF: the front end and the int64
kernel run on its numerators mod p, the result is lifted by CRT and
Wang's rational reconstruction and returned only after an exact
certificate (full column rank mod p, or d A = (d A)[:, pivots] R checked
in integers as a COO join of nonzeros).  The output is the same canonical
RREF the Fraction kernel gives, which still answers dense Q input and any
system no prime certifies.  (Sorting and `np.add.reduceat` sum
duplicates here, never `np.unique`: it imports `numpy.ma`, about 1.7 MB
of resident memory.)

Containment in a subspace checks M = M[:, pivots] @ basis for all rows
of M at once: for sparse rows (``Subspace.coordinates``) the same join
that certifies a modular RREF over Q, so the rows are never dense, and
for a dense M one product (``Subspace.dense_coordinates``).  `Fraction`s
appear only where a dense object array is formed: `Matrix` storage, the
Gauss-Jordan fallback and the read-out of a result
(``Numerators.fractions``, `SparseMap.coo`, `dense`, `matrix`).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np

from .fields import GF, QQ, ScalarField

_INT64_LIMIT = 2**31  # (p-1)^2 must fit comfortably in int64 products


class InconsistentSystem(Exception):
    """Raised when a linear system has no solution."""


def _dtype(field: ScalarField):
    return np.int64 if field.kind == "Fp" and field.p < _INT64_LIMIT else object


# -- integer numerators over a common denominator ---------------------------

_LIMIT = 2**63  # int64 holds every integer of absolute value below this


def _num_dtype(field: ScalarField):
    """The dtype of numerators: int64, except over F_p with p >= 2**31."""
    return np.int64 if field.kind == "Q" else _dtype(field)


def _fit(val: np.ndarray, bound: int) -> np.ndarray:
    """val as python ints (dtype=object) unless it is int64 and bound, a bound
    on every product or sum about to be formed from it, is below 2**63."""
    return val.astype(object) if bound >= _LIMIT and val.dtype != object else val


class Numerators:
    """Field values as integer numerators ``num`` over one positive common
    denominator ``den``, with ``bound`` >= every |numerator|.

    Over Q the numerators are int64 while the bound proves that int64 holds
    every product and sum formed from them, and python ints (dtype=object)
    past it: a product is bounded by the product of the bounds, a sum of n
    terms by n times theirs.  Over F_p they are the reduced values over 1,
    bounded by p - 1.  Indexing, products, negation, `concat` and `summed`
    carry the denominator and the bound, so no caller computes either."""

    __slots__ = ("field", "num", "den", "bound")

    def __init__(self, field: ScalarField, num: np.ndarray, den: int = 1, bound: int | None = None):
        """bound defaults to the largest |numerator|; over F_p it is p - 1."""
        self.field, self.num, self.den = field, num, den
        if field.kind == "Fp":
            self.bound = field.p - 1
        else:
            self.bound = (int(np.abs(num).max()) if num.size else 0) if bound is None else bound

    @classmethod
    def of(cls, field: ScalarField, vals: np.ndarray) -> "Numerators":
        """Reduced field values; over Q over the lcm of their denominators."""
        if field.kind == "Fp":
            return cls(field, vals)
        fr = vals.tolist()
        dens = [x.denominator for x in fr]
        den = lcm(*dens)
        nums = [x.numerator for x in fr] if den == 1 else [x.numerator * (den // d) for x, d in zip(fr, dens)]
        bound = max(map(abs, nums), default=0)
        return cls(field, np.array(nums, dtype=np.int64 if bound < _LIMIT else object), den, bound)

    @classmethod
    def ones(cls, field: ScalarField, size: int) -> "Numerators":
        return cls(field, np.ones(size, dtype=_num_dtype(field)), 1, 1)

    @property
    def size(self) -> int:
        return self.num.size

    def __getitem__(self, idx) -> "Numerators":
        return Numerators(self.field, self.num[idx], self.den, self.bound)

    def __mul__(self, other: "Numerators") -> "Numerators":
        """The elementwise products, reduced."""
        f, bound = self.field, self.bound * other.bound
        return Numerators(f, f.reduce(_fit(self.num, bound) * other.num), self.den * other.den, bound)

    def __neg__(self) -> "Numerators":
        return Numerators(self.field, self.field.reduce(-self.num), self.den, self.bound)

    def over(self, den: int) -> "Numerators":
        """The same values over den, a multiple of this denominator."""
        k = den // self.den
        if k == 1:
            return self
        bound = self.bound * k
        return Numerators(self.field, _fit(self.num, max(bound, k)) * k, den, bound)  # k itself may pass 2**63

    @staticmethod
    def concat(parts) -> "Numerators":
        """The values of parts in order, over the lcm of their denominators."""
        if len(parts) == 1:
            return parts[0]
        den = lcm(*[p.den for p in parts])
        nums, bound = [], 0
        for p in parts:
            if p.den != den:
                p = p.over(den)
            nums.append(p.num)
            bound = max(bound, p.bound)
        return Numerators(parts[0].field, np.concatenate(nums), den, bound)

    def summed(self, keys: np.ndarray):
        """Sum the values with equal key and drop zero sums (`_sum_terms`);
        returns (keys, Numerators) sorted by key.  A bound past 2**32 on the
        sums is replaced by their largest |value|, so bounds grow with the
        values, not with the number of sums they went through."""
        f, bound = self.field, self.bound * keys.size
        keys, num = _sum_terms(f, keys, _fit(self.num, bound))
        if f.kind == "Q" and bound >= 2**32:
            bound = int(np.abs(num).max()) if num.size else 0
        return keys, Numerators(f, num, self.den, bound)

    def lowest(self) -> "Numerators":
        """The same values over the least denominator."""
        if self.den == 1:
            return self
        g = gcd(self.den, int(np.gcd.reduce(self.num))) if self.num.size else self.den  # no values: over 1
        if g == 1:
            return self
        return Numerators(self.field, self.num // g if self.num.size else self.num, self.den // g)

    def fractions(self) -> np.ndarray:
        """The field values: `Fraction`s in lowest terms over Q, the
        numerators themselves over F_p (where the denominator is 1)."""
        if self.field.kind == "Fp":
            return self.num
        out = np.empty(self.num.size, dtype=object)
        d = self.den
        out[:] = [Fraction(x) for x in self.num.tolist()] if d == 1 else [Fraction(x, d) for x in self.num.tolist()]
        return out


def _join(src, lo, hi):
    """Pair each src[t] with every index in [lo[t], hi[t]); returns the
    matched (src, index) arrays, grouped by t in order."""
    counts = hi - lo
    t = src.repeat(counts)
    return t, np.arange(t.size) + (lo - counts.cumsum() + counts).repeat(counts)


def _sum_terms(field: ScalarField, flat, val):
    """Sum the terms with equal key and drop zeros; returns (key, value)
    sorted by key.  Values must be reduced products, and int64 ones must
    have sums int64 holds (`_fit`)."""
    if flat.size > 1:
        order = flat.argsort()
        flat = flat[order]
        new = np.empty(flat.size, dtype=bool)
        new[0] = True
        np.not_equal(flat[1:], flat[:-1], out=new[1:])
        first = new.nonzero()[0]
        val = field.reduce(np.add.reduceat(val[order], first))
        flat = flat[first]
    keep = val != 0
    if np.count_nonzero(keep) == keep.size:
        return flat, val
    return flat[keep], val[keep]


def _summed(field: ScalarField, col, key, val, width: int):
    """Sum the terms of a batch with equal (col, key) and drop zeros; keys
    are below width.  Values must already be reduced products.  The result
    is sorted by col * width + key."""
    flat, val = _sum_terms(field, col * width + key, val)
    col, key = np.divmod(flat, width)
    return col, key, val


def _matmul(field: ScalarField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, reduced.

    int64 operands (F_p, entries in [0, p)) multiply in float64 BLAS when
    k (p - 1)^2 < 2^53 for inner dimension k: every partial sum is then an
    integer below 2^53, which float64 holds exactly.  Past that bound the
    int64 product runs with the inner dimension blocked against overflow.
    Object operands (Q, huge p) go through `_matmul_sparse`.
    """
    k = a.shape[1]
    if k == 0:
        return np.full((a.shape[0], b.shape[1]), field.zero(), dtype=a.dtype)
    if a.dtype == object:
        return _matmul_sparse(field, a, b)
    p = field.p
    if k * (p - 1) ** 2 < 2**53:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        out %= p
        return out
    max_block = max(1, (2**62) // max(1, (p - 1) ** 2))
    if k <= max_block:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, max_block):
        out = (out + a[:, s : s + max_block] @ b[s : s + max_block, :]) % p
    return out


def _matmul_sparse(field: ScalarField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for object arrays, multiplying only nonzero pairs: the nonzeros
    (i, t) of a are joined with the nonzeros (t, j) of b on t, and the
    products are summed per (i, j).  Over Q the nonzeros are multiplied and
    summed as integer numerators (`Numerators`), int64 while the bound on
    the sums allows, and only the sums become `Fraction`s again."""
    # scan the smaller factor for nonzeros first and the other only at the
    # inner indices those use (a matrix times a sparse vector reads only
    # the vector's columns)
    if b.size <= a.size:
        bt, bj = b.nonzero()
        inner = np.flatnonzero(np.bincount(bt, minlength=a.shape[1]))
        ai, at = a[:, inner].nonzero()
        at = inner[at]
    else:
        ai, at = a.nonzero()
        inner = np.flatnonzero(np.bincount(at, minlength=a.shape[1]))
        bt, bj = b[inner].nonzero()
        bt = inner[bt]
    out = np.full((a.shape[0], b.shape[1]), field.zero(), dtype=object)
    if ai.size and bt.size:
        by_t = np.searchsorted(bt, np.arange(a.shape[1] + 1))
        src, dst = _join(np.arange(ai.size), by_t[at], by_t[at + 1])
        if src.size:
            terms = Numerators.of(field, a[ai, at])[src] * Numerators.of(field, b[bt, bj])[dst]
            keys, sums = terms.summed(ai[src] * b.shape[1] + bj[dst])
            out.flat[keys] = sums.fractions()
    return out


def _scatter(field: ScalarField, in_dims, out_dims, src, dst, val) -> "Matrix":
    """COO entries as a Matrix: column = input key, row = output key."""
    out = Matrix.zeros(field, prod(out_dims), prod(in_dims))
    out._d[dst, src] = val
    return out


class SparseMap:
    """Linear map V_1 (x) ... (x) V_a -> W_1 (x) ... (x) W_b, the one sparse
    matrix of the package; a key is the row-major index over the factor dims.

    src and dst hold the nonzero entries (input key, output key), sorted
    and unique; those of input key s are [starts[s], starts[s + 1]).
    values is `Numerators` over the least denominator, bounded by the
    largest |numerator|.  The constructor adds
    up duplicate entries given in any order; summed producers store theirs
    with `from_coo`.  With every value 1 applying the map takes no products,
    and with at most one entry per input key (fan <= 1) no join.

    A matrix of rows is the map (rows,) -> (cols,) (`from_rows`, `shape`):
    a row range of it reads dense (`_rref_chunked`'s chunks), `dense()` is
    the Matrix of rows and `matrix()` that of the map (column = input key).
    """

    __slots__ = ("field", "in_dims", "out_dims", "in_size", "out_size", "src", "dst", "values", "starts", "_fan",
                 "_ones", "_dense_num")

    def __init__(self, field: ScalarField, in_dims, out_dims, src, dst, val):
        val = Numerators.of(field, field.reduce(np.asarray(val, dtype=_dtype(field))))
        flat = np.asarray(src, dtype=np.int64) * prod(out_dims) + np.asarray(dst, dtype=np.int64)
        flat, val = val.summed(flat)
        src, dst = np.divmod(flat, prod(out_dims))
        self._set(field, in_dims, out_dims, src, dst, val)

    def _set(self, field: ScalarField, in_dims, out_dims, src, dst, val: Numerators):
        """Store entries already sorted by (input, output) key, unique and
        nonzero; their values are brought over the least denominator."""
        self.field = field
        self.in_dims = tuple(in_dims)
        self.out_dims = tuple(out_dims)
        self.in_size, self.out_size = prod(self.in_dims), prod(self.out_dims)
        self.src, self.dst = src, dst
        val = val.lowest()
        self.values = Numerators(field, val.num, val.den)  # bounded by the largest |numerator|
        self.starts = np.searchsorted(src, np.arange(self.in_size + 1))
        self._fan = self._ones = self._dense_num = None  # read when the map is first a stage: a matrix of rows never is

    @classmethod
    def from_coo(cls, field: ScalarField, in_dims, out_dims, src, dst, val: Numerators) -> "SparseMap":
        """The map of entries already sorted by (input, output) key, unique
        and nonzero, as summed producers hand them over."""
        smap = cls.__new__(cls)
        smap._set(field, in_dims, out_dims, src, dst, val)
        return smap

    @classmethod
    def from_matrix(cls, m: "Matrix", in_dims, out_dims) -> "SparseMap":
        """The map whose matrix is m: columns are input keys, rows output keys.
        The entries of m are unique and reduced, and the nonzeros of m^T come
        sorted by (input, output) key, so nothing is sorted or summed."""
        if (m.rows, m.cols) != (prod(out_dims), prod(in_dims)):
            raise ValueError(f"{m.rows}x{m.cols} matrix is not a map {tuple(in_dims)} -> {tuple(out_dims)}")
        src, dst = np.nonzero(m._d.T)
        return cls.from_coo(m.field, in_dims, out_dims, src, dst, Numerators.of(m.field, m._d[dst, src]))

    @classmethod
    def from_rows(cls, m: "Matrix") -> "SparseMap":
        """The rows of m as the map (m.rows,) -> (m.cols,)."""
        r, c = m._d.nonzero()
        return cls.from_coo(m.field, (m.rows,), (m.cols,), r, c, Numerators.of(m.field, m._d[r, c]))

    @property
    def fan(self) -> int:
        """The most entries of one input key."""
        if self._fan is None:
            self._fan = int(np.diff(self.starts).max()) if self.in_size else 0
        return self._fan

    @property
    def ones(self) -> bool:
        """Whether every value is 1."""
        if self._ones is None:
            self._ones = self.values.den == 1 and bool((self.values.num == 1).all())
        return self._ones

    @property
    def dense_num(self) -> np.ndarray:
        """The numerators as an (in_size, out_size) int64 array over values.den,
        for `tensors.StagePipeline`'s dense route (small maps int64 holds)."""
        if self._dense_num is None:
            self._dense_num = np.zeros((self.in_size, self.out_size), dtype=np.int64)
            self._dense_num[self.src, self.dst] = self.values.num
        return self._dense_num

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the matrix of rows."""
        return self.in_size, self.out_size

    def coo(self):
        """The entries as COO arrays (input key, output key, field value)."""
        return self.src, self.dst, self.values.fractions()

    def matrix(self) -> "Matrix":
        """The map as a Matrix: column = input key, row = output key."""
        return _scatter(self.field, self.in_dims, self.out_dims, *self.coo())

    def apply(self, vec: list) -> list:
        """The map applied to a vector of field values, as python scalars (`Matrix.apply`)."""
        f = self.field
        v = Numerators.of(f, f.reduce(np.array(vec, dtype=_dtype(f))))
        keys, val = (v[self.src] * self.values).summed(self.dst)
        out = np.full(self.out_size, f.zero(), dtype=_dtype(f))
        out[keys] = val.fractions()
        return out.tolist()

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Rows [start, stop) of the matrix of rows, dense."""
        s, e = rows.start, min(rows.stop, self.in_size)
        lo, hi = self.starts[s], self.starts[e]
        out = np.full((e - s, self.out_size), self.field.zero(), dtype=_dtype(self.field))
        out[self.src[lo:hi] - s, self.dst[lo:hi]] = self.values[lo:hi].fractions()
        return out

    def dense(self) -> "Matrix":
        """The matrix of rows: row = input key, column = output key."""
        return Matrix(self.field, self.in_size, self.out_size, self[0 : self.in_size], _raw=True)

    def transpose(self) -> "SparseMap":
        """The map W -> V whose matrix is the transpose of this one's."""
        order = np.argsort(self.dst * self.in_size + self.src)
        return SparseMap.from_coo(self.field, self.out_dims, self.in_dims, self.dst[order], self.src[order],
                                  self.values[order])

    def vstack(self, other: "SparseMap") -> "SparseMap":
        """The rows of self above the rows of other."""
        if self.out_size != other.out_size:
            raise ValueError("col mismatch")
        return SparseMap.from_coo(self.field, (self.in_size + other.in_size,), self.out_dims,
                                  np.concatenate((self.src, other.src + self.in_size)),
                                  np.concatenate((self.dst, other.dst)), Numerators.concat((self.values, other.values)))

    def matmul(self, other: "SparseMap") -> "SparseMap":
        """The rows of self times the matrix of rows other, summed: each
        entry (r, k, v) joins row k of other (Gustavson, ACM TOMS 4(3),
        1978) as other's map stage on the batch of self's entries."""
        if self.out_size != other.in_size:
            raise ValueError(f"{self.in_size}x{self.out_size} rows times {other.in_size}x{other.out_size} rows")
        flat, val = other.apply_at((self.src * self.out_size + self.dst, self.values), 1)
        flat, val = val.summed(flat)
        r, c = np.divmod(flat, other.out_size)
        return SparseMap.from_coo(self.field, self.in_dims, other.out_dims, r, c, val)

    def rref(self):
        """Canonical RREF of the matrix of rows through the sparse front end
        (`_rref_sparse`), over Q modulo primes with an exact certificate
        first (`_rref_modular`); returns (Matrix, pivot_cols), as
        `Matrix.rref`."""
        out = _rref_modular(self) if self.field.kind == "Q" else None
        r, piv = _rref_sparse(self) if out is None else out
        return Matrix(self.field, r.shape[0], r.shape[1], r, _raw=True), piv

    def apply_at(self, batch, post: int):
        """Apply to the factors of every term of a batch whose key digits lie
        just above post, the size of the factors after them; returns the
        new batch, its terms not yet summed.  `StagePipeline.map_at` checks
        the factor dims when the stage is declared."""
        flat, val = batch
        hi, mid = np.divmod(flat, self.in_size * post)
        if post > 1:
            mid, lo = np.divmod(mid, post)
        if self.fan > 1:  # term t meets entries e
            t, e = _join(np.arange(flat.size), self.starts[mid], self.starts[mid + 1])
        elif self.dst.size < self.in_size:  # at most one entry per key: terms at keys without one vanish
            e = self.starts[mid]
            t = (self.starts[mid + 1] != e).nonzero()[0]
            e = e[t]
        else:  # one entry per key: entry s is that of key s
            t, e = None, mid
        if t is not None:
            hi, val = hi[t], val[t]
            if post > 1:
                lo = lo[t]
        flat = hi * self.out_size + self.dst[e]
        if post > 1:
            flat = flat * post + lo
        return flat, (val if self.ones else val * self.values[e])


_CHUNK = 1024  # rows streamed per Gauss-Jordan pass


def _gauss_jordan(a: np.ndarray, field: ScalarField):
    """Column Gauss-Jordan on ``a`` in place; returns (rref_rows, pivot_cols).

    Column j takes its pivot from the first free row nonzero there, and
    only the block (rows nonzero in column j) x (columns nonzero in the
    pivot row) is updated, so zero entries are never multiplied.
    """
    red = field.reduce
    free = np.ones(a.shape[0], dtype=bool)
    prows: list[int] = []
    pivs: list[int] = []
    for j in range(a.shape[1]):
        nz = a[:, j].nonzero()[0]
        cand = nz[free[nz]]
        if not cand.size:
            continue
        r = cand[0]
        cols = a[r].nonzero()[0]
        prow = a[r, cols]
        v = a.item(r, j)
        if v != 1:
            prow = red(prow * field.inv(v))
            a[r, cols] = prow
        if nz.size > 1:
            rows = nz[nz != r][:, None]
            a[rows, cols] = red(a[rows, cols] - a[rows, j] * prow)
        free[r] = False
        prows.append(r)
        pivs.append(j)
        if len(prows) == a.shape[0]:
            break
    return a[prows], pivs


# primes below 2^31, so images mod p run the int64 kernel; tried in order
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
           2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399)


def _rational(u: int, m: int, bound: int):
    """Wang's rational reconstruction: the fraction n/d = u mod m with
    |n|, d <= bound, or None."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift(images: list, primes: list, piv: list[int], cols: int):
    """The rational RREF whose images mod ``primes`` are ``images`` (all with
    pivots ``piv``): CRT, then rational reconstruction of the nonzero
    entries off the pivot columns.  Returns (rref_rows, (rows, cols,
    `Numerators`) of those entries), or None when an entry has no
    reconstruction."""
    off = np.ones(cols, dtype=bool)
    off[piv] = False
    ti, tj = (np.logical_or.reduce([im != 0 for im in images]) & off).nonzero()
    x, m = images[0][ti, tj].astype(object), primes[0]
    for im, p in zip(images[1:], primes[1:]):
        x = x + m * ((im[ti, tj].astype(object) - x) * pow(m, -1, p) % p)
        m *= p
    bound = isqrt(m // 2)
    residues = x.tolist()
    known: dict = {}
    for u in residues:
        if u not in known:
            known[u] = _rational(u, m, bound)
            if known[u] is None:
                return None
    vals = np.array([known[u] for u in residues], dtype=object)
    out = np.full((len(piv), cols), Fraction(0), dtype=object)
    out[range(len(piv)), piv] = Fraction(1)
    out[ti, tj] = vals
    return out, (ti, tj, Numerators.of(QQ, vals))


def _certified(a: SparseMap, off_pivot, piv: list[int]) -> bool:
    """Whether A = A[:, piv] R exactly, for A a matrix of rows and R an RREF
    with pivots ``piv`` whose off-pivot nonzeros are ``off_pivot`` (rows,
    cols, `Numerators`, sorted by row).  Only the off-pivot columns need
    checking (R[:, piv] = I), as a COO join of A's entries at pivot columns
    with R's rows.  The two sides are compared as numerators over the
    product of the denominators, so over Q the check multiplies and sums
    integers."""
    cols, r, c, v = a.out_size, a.src, a.dst, a.values
    ti, tj, tv = off_pivot
    slot = np.full(cols, -1)
    slot[piv] = np.arange(len(piv))
    t = slot[c]
    at_piv = np.flatnonzero(t >= 0)
    starts = np.searchsorted(ti, np.arange(len(piv) + 1))
    src, dst = _join(at_piv, starts[t[at_piv]], starts[t[at_piv] + 1])
    keys, prod = (v[src] * tv[dst]).summed(r[src] * cols + tj[dst])
    rest = t < 0
    return (np.array_equal(keys, r[rest] * cols + c[rest])
            and bool((prod.num == v[rest].over(prod.den).num).all()))


def _covers(piv: list[int], other: list[int]) -> bool:
    """Whether the rank profile of pivots ``piv`` is at least that of
    ``other`` at every column."""
    return len(piv) >= len(other) and all(x <= y for x, y in zip(piv, other))


def _rref_modular(a: SparseMap):
    """Canonical RREF over Q of a matrix of rows from its images mod the
    primes of ``_PRIMES``, or None when no prime gives a certified result.

    The source's values are integer numerators over one common denominator
    d (`Numerators`): d A has the same RREF as A, so the image mod p is the
    numerators mod p, for every prime, and runs the int64 kernel.
    rank_p <= rank_Q, so full column rank mod p proves R = I.  Otherwise
    the images with equal pivots are lifted by CRT and rational
    reconstruction (`_lift`) and accepted only when d A = (d A)[:, piv] R
    holds exactly, in integers (`_certified`): then rowspace(A) lies in
    rowspace(R), rank_Q(A) <= rank(R) = rank_p <= rank_Q(A), the row spaces
    are equal, and R is the canonical RREF.  Images with a smaller rank
    profile than the ones kept are dropped; a larger one replaces them.
    """
    cols, r, num = a.out_size, a.src, a.values.num
    if not num.size:
        return np.zeros((0, cols), dtype=object), []
    # the images skip zero rows: the canonical RREF does not see them
    dense_r = np.cumsum(np.concatenate(([0], r[1:] != r[:-1])))
    m = int(dense_r[-1]) + 1
    piv, images, primes = None, [], []
    for p in _PRIMES:
        gf = GF(p)
        image = (num % p).astype(np.int64)
        nz = image != 0
        red, pp = _rref_sparse(SparseMap.from_coo(gf, (m,), a.out_dims, dense_r[nz], a.dst[nz],
                                                  Numerators(gf, image[nz])))
        if len(pp) == cols:
            out = np.full((cols, cols), Fraction(0), dtype=object)
            out[range(cols), range(cols)] = Fraction(1)
            return out, pp
        if pp != piv:
            if piv is not None and not _covers(pp, piv):
                continue
            piv, images, primes = pp, [], []
        images.append(red)
        primes.append(p)
        lifted = _lift(images, primes, piv, cols)
        if lifted is not None and _certified(a, lifted[1], piv):
            return lifted[0], piv
    return None


def _rref_chunked(a: "np.ndarray | SparseMap", field: ScalarField, rhs: np.ndarray | None = None):
    """Canonical RREF of ``a`` (of ``[a | rhs]`` when ``rhs`` is given) by
    streamed Gauss-Jordan; returns (rref_rows, pivot_cols).

    Rows are streamed in chunks of ``_CHUNK``: a chunk is reduced, its zero
    rows dropped, and Gauss-Jordan runs on it stacked under the RREF found
    so far.  Memory stays bounded by (rank + chunk) x columns, and the
    result is the canonical RREF of the input, independent of chunking.
    """
    m = a.shape[0]
    n = a.shape[1] + (0 if rhs is None else rhs.shape[1])
    r = np.zeros((0, n), dtype=_dtype(field))
    pivs: list[int] = []
    for s in range(0, m, _CHUNK):
        c = a[s : s + _CHUNK] if rhs is None else np.hstack([a[s : s + _CHUNK], rhs[s : s + _CHUNK]])
        c = field.reduce(c)
        c = c[c.any(axis=1)]
        if c.shape[0]:
            r, pivs = _gauss_jordan(np.vstack([r, c]) if pivs else c, field)
    return r, pivs


def _ranks(x: np.ndarray):
    """The distinct values of x in sorted order, and the index of each entry
    of x among them."""
    order = np.argsort(x)
    s = x[order]
    new = np.concatenate(([True], s[1:] != s[:-1]))
    rank = np.empty(x.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return s[new], rank


def _inverses(field: ScalarField, x: np.ndarray) -> np.ndarray:
    """The inverses of the nonzero entries of x, one inversion per distinct
    value."""
    distinct, rank = _ranks(x)
    return np.array([field.inv(u) for u in distinct.tolist()], dtype=x.dtype)[rank]


def _rref_sparse(a: SparseMap):
    """Canonical RREF of a matrix of rows through a structured front end
    (LaMacchia-Odlyzko) before any dense step:

    - each row is scaled to a leading 1;
    - duplicate rows are dropped: the rows, padded to the longest as int64
      (col, value) keys, are lexsorted and neighbours compared exactly;
    - singleton rows are pivoted until none is left: a row with one
      nonzero at column j puts e_j in the row space, so e_j is a row of the
      canonical RREF and column j is deleted from every other row;
    - then doubleton rows, u e_j + w e_k with j < k: e_j = -(w/u) e_k modulo
      the row space, so column j is substituted by column k in every other
      row, which never adds an entry.  A round takes one doubleton per
      column j; chains j -> k -> ... are resolved by pointer jumping to a
      root column no doubleton eliminates, e_j = c_j e_root.  Rounds of
      singletons and doubletons alternate until neither is left;
    - `_rref_chunked` eliminates the core left, on its nonzero columns
      only, and the other rows are merged in by pivot: e_j for a
      singleton, and for an eliminated column e_j - c_j e_root, reduced by
      the row of its root when the root is a pivot.  Every row then leads
      at its own pivot (roots lie right of j) and is zero at every other
      pivot.

    The row space is unchanged at every step, and it has one canonical
    RREF, so the result is the one `_rref_chunked` gives on the whole input.
    """
    field, cols, dtype = a.field, a.out_size, _dtype(a.field)
    r, c, v = a.src, a.dst, a.values.fractions()
    if not v.size:
        return np.zeros((0, cols), dtype=dtype), []
    start = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    count = np.diff(np.append(start, v.size))
    rid = np.repeat(np.arange(start.size), count)
    lead = v[start]
    if (lead != 1).any():
        v = field.reduce(v * _inverses(field, lead)[rid])
    # (col, value) as one int64, c p + v, or by the value's rank when the
    # values are python objects
    if v.dtype == object:
        distinct, rank = _ranks(v)
        key = c * distinct.size + rank
    else:
        key = c * field.p + v
    pad = np.full((start.size, int(count.max())), -1, dtype=np.int64)
    pad[rid, np.arange(v.size) - start[rid]] = key
    order = np.lexsort(pad.T[::-1])
    dup = np.zeros(start.size, dtype=bool)
    dup[order[1:]] = (pad[order[1:]] == pad[order[:-1]]).all(axis=1)
    keep = ~dup[rid]
    r, c, v = rid[keep], c[keep], v[keep]
    unit = np.zeros(cols, dtype=bool)
    gone = np.zeros(cols, dtype=bool)  # columns eliminated by a doubleton
    root = np.arange(cols)
    coef = np.full(cols, field.one(), dtype=v.dtype)
    while v.size:
        length = np.bincount(r, minlength=start.size)[r]  # of each entry's row
        single = length == 1
        if single.any():
            unit[c[single]] = True
            keep = ~unit[c]
            r, c, v = r[keep], c[keep], v[keep]
            continue
        pair = np.flatnonzero(length == 2)  # (j, k) entries of each doubleton, in order
        if not pair.size:
            break
        lo, hi = pair[0::2], pair[1::2]
        order = np.argsort(c[lo], kind="stable")
        js = c[lo][order]
        take = order[np.concatenate(([True], js[1:] != js[:-1]))]  # one doubleton per column j
        lo, hi = lo[take], hi[take]
        j = c[lo]
        gone[j] = True
        root[j] = c[hi]
        coef[j] = field.reduce(-(v[hi] * _inverses(field, v[lo])))
        done = np.zeros(start.size, dtype=bool)
        done[r[lo]] = True
        keep = ~done[r]
        r, c, v = r[keep], c[keep], v[keep]
        _jump(field, gone, root, coef)
        at = gone[c]
        v[at] = field.reduce(v[at] * coef[c[at]])
        c[at] = root[c[at]]
        r, c, v = _summed(field, r, c, v, cols)
    upiv = np.flatnonzero(unit)
    gpiv = np.flatnonzero(gone)
    used = np.zeros(cols, dtype=bool)
    used[c] = True
    ccols = np.flatnonzero(used)
    red, cpiv = np.zeros((0, ccols.size), dtype=dtype), []
    if v.size:
        rows = np.cumsum(np.concatenate(([0], r[1:] != r[:-1])))
        core = SparseMap.from_coo(field, (int(rows[-1]) + 1,), (ccols.size,), rows, (np.cumsum(used) - 1)[c],
                                  Numerators.of(field, v))
        red, cpiv = _rref_chunked(core, field)
    piv = np.concatenate((upiv, ccols[cpiv], gpiv))
    order = np.argsort(piv)
    slot = np.empty(piv.size, dtype=np.int64)
    slot[order] = np.arange(piv.size)
    out = np.full((piv.size, cols), field.zero(), dtype=dtype)
    out[slot[: upiv.size], upiv] = field.one()
    ncore = upiv.size + len(cpiv)
    out[slot[upiv.size : ncore, None], ccols] = red
    # eliminated columns: e_j - c e_root, reduced by the row of its root
    row_of = np.full(cols, -1)
    row_of[piv] = slot
    gslot, groot, gcoef = slot[ncore:], root[gpiv], coef[gpiv]
    free = row_of[groot] < 0
    out[gslot[free], groot[free]] = field.reduce(-gcoef[free])
    grows, proot = gslot[~free], groot[~free]
    out[grows] = field.reduce(gcoef[~free][:, None] * out[row_of[proot]])
    out[grows, proot] = field.zero()
    out[gslot, gpiv] = field.one()
    return out, piv[order].tolist()


def _jump(field: ScalarField, gone: np.ndarray, root: np.ndarray, coef: np.ndarray):
    """Resolve the doubleton relations e_j = coef[j] e_root[j] of the
    eliminated columns (``gone``) in place until every root is a column no
    doubleton eliminates (pointer jumping)."""
    g = np.flatnonzero(gone)
    while True:
        nxt = root[g]
        deeper = gone[nxt]
        if not deeper.any():
            return
        g, nxt = g[deeper], nxt[deeper]
        coef[g] = field.reduce(coef[g] * coef[nxt])
        root[g] = root[nxt]


class Matrix:
    """Immutable exact matrix over one ndarray ``_d``: int64 over F_p with
    p < 2**31, ``dtype=object`` otherwise.  Entries read out are python
    scalars (ints, or Fractions over Q)."""

    __slots__ = ("field", "rows", "cols", "_d")

    def __init__(self, field: ScalarField, rows: int, cols: int, data, _raw=False):
        self.field = field
        self.rows = rows
        self.cols = cols
        if _raw:
            self._d = data
            return
        arr = np.array(data if rows else [], dtype=_dtype(field)).reshape(rows, cols)
        self._d = field.reduce(arr)

    def _new(self, rows, cols, arr) -> "Matrix":
        return Matrix(self.field, rows, cols, arr, _raw=True)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, np.full((rows, cols), field.zero(), dtype=_dtype(field)), _raw=True)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        m._d[range(n), range(n)] = field.one()
        return m

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(field, r, c, rows)

    @classmethod
    def from_entries(cls, field, rows, cols, entries: dict):
        m = cls.zeros(field, rows, cols)
        for (i, j), v in entries.items():
            m._d[i, j] = field.reduce(v)
        return m

    @classmethod
    def column(cls, field, vec):
        return cls(field, len(vec), 1, [[x] for x in vec])

    @classmethod
    def row(cls, field, vec):
        return cls(field, 1, len(vec), [list(vec)])

    # -- entry access ------------------------------------------------------

    def __getitem__(self, ij):
        return self._d.item(*ij)

    def row_list(self, i):
        return self._d[i].tolist()

    def col_list(self, j):
        return self._d[:, j].tolist()

    def to_rows(self):
        return self._d.tolist()

    def entries(self):
        """Yield (i, j, value) for nonzero entries."""
        for i, j in zip(*np.nonzero(self._d)):
            yield int(i), int(j), self._d.item(i, j)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._new(self.rows, self.cols, self.field.reduce(self._d + other._d))

    def __sub__(self, other):
        self._check(other)
        return self._new(self.rows, self.cols, self.field.reduce(self._d - other._d))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one()))

    def scale(self, c):
        f = self.field
        return self._new(self.rows, self.cols, f.reduce(self._d * f.reduce(c)))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return self._new(self.rows, other.cols, _matmul(self.field, self._d, other._d))

    def transpose(self):
        return self._new(self.cols, self.rows, self._d.T.copy())

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return self._new(self.rows, self.cols + other.cols, np.hstack([self._d, other._d]))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch")
        return self._new(self.rows + other.rows, self.cols, np.vstack([self._d, other._d]))

    def apply(self, vec: list) -> list:
        """Matrix times column vector, as python scalars."""
        f = self.field
        v = f.reduce(np.array(vec, dtype=self._d.dtype))
        return _matmul(f, self._d, v.reshape(-1, 1)).ravel().tolist()

    def is_zero(self) -> bool:
        return not self._d.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return NotImplemented if not isinstance(other, Matrix) else False
        return bool(np.array_equal(self._d, other._d))

    def _check(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    # -- elimination -------------------------------------------------------

    def rref(self, rhs: "Matrix | None" = None):
        """Canonical reduced row echelon form of self, or of ``[self | rhs]``
        without building that copy; returns (Matrix, pivot_cols)."""
        if rhs is not None and rhs.rows != self.rows:
            raise ValueError("row mismatch")
        r, piv = _rref_chunked(self._d, self.field, None if rhs is None else rhs._d)
        return self._new(r.shape[0], r.shape[1], r), piv

    def rank(self) -> int:
        return self.rref()[0].rows

    def kernel(self) -> "Matrix":
        """Canonical basis (as rows, in RREF) of {x : self @ x = 0}."""
        return kernel_from_rref(self.cols, *self.rref())

    def solve(self, b: "Matrix") -> list:
        """The solution of self @ x = b (b a column) with every free variable
        zero; raises InconsistentSystem when no solution exists."""
        if b.rows != self.rows or b.cols != 1:
            raise ValueError("rhs shape mismatch")
        return particular_from_rref(self.cols, *self.rref(b))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        r, piv = self.rref(Matrix.identity(self.field, self.rows))
        if piv != list(range(self.rows)):
            raise InconsistentSystem("matrix is singular")
        return self._new(self.rows, self.rows, r._d[:, self.rows :].copy())


def kernel_from_rref(cols: int, r: Matrix, piv: list[int]) -> Matrix:
    """Canonical kernel basis (rows, in RREF) of a matrix with ``cols``
    columns, from its RREF (r, piv)."""
    return Subspace(cols, r, piv).complement_projection().rref()[0]


def particular_from_rref(cols: int, r: Matrix, piv: list[int]) -> list:
    """The solution with every free variable zero, from the RREF (r, piv)
    of the augmented system [A | b] with A of ``cols`` columns; raises
    InconsistentSystem when b is a pivot column."""
    if cols in piv:
        raise InconsistentSystem("no solution")
    x = [r.field.zero()] * cols
    for pc, v in zip(piv, r.col_list(cols)):
        x[pc] = v
    return x


def solve_linear(a: Matrix, b: Matrix):
    """Particular solution and kernel basis, or InconsistentSystem."""
    return a.solve(b), a.kernel()


class Subspace:
    """Subspace of K^n held as a canonical RREF row basis and its pivot
    columns."""

    __slots__ = ("ambient_dim", "basis", "pivots", "_off")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: list[int] | None = None):
        self.ambient_dim = ambient_dim
        self.basis = basis  # trusted to be canonical RREF with no zero rows
        if pivots is None:
            pivots = (basis._d != 0).argmax(axis=1).tolist() if basis.rows else []
        self.pivots = pivots
        self._off = None  # `_off_pivot`, once read

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors) -> "Subspace":
        if not vectors:
            return cls.zero(field, ambient_dim)
        m = Matrix.from_rows(field, [list(v) for v in vectors])
        return cls(ambient_dim, *m.rref())

    @classmethod
    def from_matrix_rows(cls, m: "Matrix | SparseMap") -> "Subspace":
        basis, pivots = m.rref()
        return cls(basis.cols, basis, pivots)

    @classmethod
    def zero(cls, field, ambient_dim) -> "Subspace":
        return cls(ambient_dim, Matrix.zeros(field, 0, ambient_dim), [])

    @classmethod
    def full(cls, field, ambient_dim) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(field, ambient_dim), list(range(ambient_dim)))

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def free_columns(self) -> list[int]:
        """Non-pivot coordinates: they index the canonical complement."""
        pivset = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivset]

    def complement_projection(self) -> Matrix:
        """The (ambient_dim - dim) x ambient_dim matrix of K^n -> K^n / self
        in the free coordinates: free column j maps to its own unit vector,
        pivot column of basis row t to -(row t at the free columns)."""
        f = self.field
        free = self.free_columns()
        proj = Matrix.zeros(f, len(free), self.ambient_dim)
        proj._d[range(len(free)), free] = f.one()
        if self.dim:
            proj._d[:, self.pivots] = f.reduce(-self.basis._d[:, free].T)
        return proj

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __add__(self, other) -> "Subspace":
        self._check(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        return Subspace(self.ambient_dim, *self.basis.vstack(other.basis).rref())

    def intersect(self, other) -> "Subspace":
        self._check(other)
        # x = a . U = b . V  <=>  (a, b) in kernel of [U^T | -V^T]
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        m = self.basis.transpose().hstack(other.basis.transpose().scale(self.field.neg(self.field.one())))
        ker = m.kernel()
        if not ker.rows:
            return Subspace.zero(self.field, self.ambient_dim)
        coeffs = ker._new(ker.rows, self.dim, ker._d[:, : self.dim])
        return Subspace(self.ambient_dim, *(coeffs @ self.basis).rref())

    def coordinates(self, rows: SparseMap) -> Matrix | None:
        """Coordinates C with rows = C @ basis for a matrix of rows, or None
        when a row lies outside.  A vector of the span equals its entries
        at the pivots times the RREF basis, so M = M[:, pivots] @ basis
        tests every row of M at once, here as the join of `_certified` on
        M's `Numerators`, so M is never dense."""
        if not self.contains_rows(rows):
            return None
        slot = np.full(self.ambient_dim, -1)
        slot[self.pivots] = np.arange(self.dim)
        at = slot[rows.dst] >= 0
        c = np.full((rows.in_size, self.dim), self.field.zero(), dtype=_dtype(self.field))
        c[rows.src[at], slot[rows.dst[at]]] = rows.values[at].fractions()
        return Matrix(self.field, rows.in_size, self.dim, c, _raw=True)

    def contains_rows(self, rows: SparseMap) -> bool:
        """Whether every row of a matrix of rows lies in the span: the
        `_certified` join of `coordinates`, with no coordinates formed."""
        if rows.out_size != self.ambient_dim:
            raise ValueError(f"rows of length {rows.out_size} in K^{self.ambient_dim}")
        return _certified(rows, self._off_pivot(), self.pivots)

    def _off_pivot(self):
        """The basis entries off the pivot columns as (rows, cols,
        `Numerators`), sorted by row, read once per subspace."""
        if self._off is None:
            b = self.basis._d
            off = np.ones(self.ambient_dim, dtype=bool)
            off[self.pivots] = False
            ti, tj = ((b != 0) & off).nonzero()
            self._off = ti, tj, Numerators.of(self.field, b[ti, tj])
        return self._off

    def dense_coordinates(self, rows: Matrix) -> Matrix | None:
        """`coordinates` of dense rows: one product M[:, pivots] @ basis."""
        if rows.cols != self.ambient_dim:
            raise ValueError(f"rows of length {rows.cols} in K^{self.ambient_dim}")
        c = rows._d[:, self.pivots]
        if not np.array_equal(_matmul(self.field, c, self.basis._d), rows._d):
            return None
        return rows._new(rows.rows, self.dim, c)

    def contains_vector(self, vec) -> bool:
        return self.dense_coordinates(Matrix.row(self.field, list(vec))) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return self.dense_coordinates(other.basis) is not None

    def quotient_complement(self, inside: "Subspace") -> Matrix:
        """Complement basis of self inside `inside` (requires self <= inside).

        Deterministic: the rows of `inside`'s RREF basis that, scanned in
        order, grow the rank over self -- the pivot columns of their
        images under the complement projection.
        """
        if not inside.contains(self):
            raise ValueError("first subspace is not contained in the second")
        images = self.complement_projection() @ inside.basis.transpose()
        keep = images.rref()[1]
        return inside.basis._new(len(keep), self.ambient_dim, inside.basis._d[keep])

    def reduce_vector(self, vec) -> list:
        """Canonical representative of vec modulo this subspace: zero at the
        pivots, the complement projection at the free coordinates."""
        f = self.field
        out = [f.zero()] * self.ambient_dim
        for j, c in zip(self.free_columns(), self.complement_projection().apply(vec)):
            out[j] = c
        return out

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def subspace_ops(mode: str, u: Subspace, v: Subspace):
    """Subspace lattice dispatch: sum / intersect / quotient_basis / contains.

    quotient_basis returns the canonical complement of u inside v as a
    Subspace (its rows are a subset of v's RREF basis, hence already
    canonical)."""
    if mode == "sum":
        return u + v
    if mode == "intersect":
        return u.intersect(v)
    if mode == "quotient_basis":
        comp = u.quotient_complement(v)
        return Subspace(u.ambient_dim, comp)
    if mode == "contains":
        return u.contains(v)
    raise ValueError(f"unknown mode {mode!r}")
