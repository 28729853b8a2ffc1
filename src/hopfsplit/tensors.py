"""Sparse structure tensors and one batched evaluator for composite maps.

A basis tensor of V_1 (x) ... (x) V_k is a tuple (i_1, ..., i_k) of factor
indices; its key is the row-major flattened index over the factor dims.
A `SparseMap` between tensor spaces holds its nonzero entries as COO
arrays (input key, output key, value), sorted by input key, with a CSR
offset table built once.

A `StagePipeline` declares a composite map as a chain of stages on the
factors:

  map_at(m, pos)       apply the SparseMap m to factors [pos, pos + arity)
  permute(perm)        new factor i is old factor perm[i]
  contract(pos, w)     pair factor pos with the functional w
  insert(pos, e, dim)  tensor in the fixed element e as a new factor at pos

and evaluates it on a whole batch of input basis tuples at once.  A batch
is three arrays: the input tuple each term belongs to (its flattened
index within the batch), the term's current key and its value.  Values
are int64 in [0, p) over F_p with p < 2**31 and python scalars
(dtype=object) otherwise, as in `linalg.Matrix`.  A map stage joins every
term with the map's entries at the term's factor digits (`linalg._join`);
a contract stage weights each term by the functional at its digit; insert
repeats each term once per nonzero entry of the element; permute only
re-addresses keys.  Terms with equal (input, key) are summed by a sort and
`np.add.reduceat` over products already reduced, and zero sums are
dropped: over int64 a sum of fewer than 2**32 terms below 2**31 is exact
and is then reduced mod p, object sums are reduced by the field.  A batch
is summed after every stage that grows it and once at the end, by
`matrix()` or `pipelines_equal` (see `StagePipeline.run`).  No stage loops over terms in Python.  Batches hold
at most `_BLOCK` input tuples.

Callers use two results: `matrix()`, the composite as a Matrix with one
column per input tuple in lexicographic order, and `pipelines_equal`, the
lexicographically first input tuple on which two pipelines differ.  A
check that reports its witness in another loop order declares its input
in that order and starts with a `permute`.
"""
from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .linalg import Matrix, _dtype, _join, _summed

_BLOCK = 2**13  # input tuples evaluated in one batch
_KEY_LIMIT = 2**62 // _BLOCK  # largest tensor space a stage may address

# ---------------------------------------------------------------------------
# dense element vectors


def v_zero(field: ScalarField, n: int) -> list:
    return [field.zero()] * n


def v_basis(field: ScalarField, n: int, i: int) -> list:
    v = v_zero(field, n)
    v[i] = field.one()
    return v


def v_eq(field, u, v) -> bool:
    return all(a == b for a, b in zip(u, v))


def v_tensor(field, u, v) -> list:
    out = []
    for a in u:
        if field.is_zero(a):
            out.extend([field.zero()] * len(v))
        else:
            out.extend(field.mul(a, b) for b in v)
    return out


# ---------------------------------------------------------------------------
# COO batches


def _total(dims) -> int:
    n = 1
    for d in dims:
        n *= d
    return n


class SparseMap:
    """Linear map V_1 (x) ... (x) V_a -> W_1 (x) ... (x) W_b.

    dst and val hold the nonzero entries sorted by input key; those of
    input key s are [starts[s], starts[s + 1]).  Duplicate entries given to
    the constructor add up.  When every value is 1 (as in the structure
    maps of a group algebra), applying the map takes no products.
    """

    __slots__ = ("field", "in_dims", "out_dims", "dst", "val", "starts", "ones")

    def __init__(self, field: ScalarField, in_dims, out_dims, src, dst, val):
        val = field.reduce(np.asarray(val, dtype=_dtype(field)))
        src, dst, val = _summed(field, np.asarray(src, dtype=np.int64),
                                np.asarray(dst, dtype=np.int64), val, _total(out_dims))
        self._set(field, in_dims, out_dims, src, dst, val)

    def _set(self, field: ScalarField, in_dims, out_dims, src, dst, val):
        """Store entries already sorted by (input, output) key, unique and
        nonzero."""
        self.field = field
        self.in_dims = tuple(in_dims)
        self.out_dims = tuple(out_dims)
        self.dst, self.val = dst, val
        self.starts = np.searchsorted(src, np.arange(_total(self.in_dims) + 1))
        self.ones = bool((val == 1).all())

    @classmethod
    def from_matrix(cls, m: Matrix, in_dims, out_dims) -> "SparseMap":
        """The map whose matrix is m: columns are input keys, rows output keys.
        The entries of m are unique and reduced, and the nonzeros of m^T come
        sorted by (input, output) key, so nothing is sorted or summed."""
        if (m.rows, m.cols) != (_total(out_dims), _total(in_dims)):
            raise ValueError(f"{m.rows}x{m.cols} matrix is not a map {tuple(in_dims)} -> {tuple(out_dims)}")
        src, dst = np.nonzero(m._d.T)
        smap = cls.__new__(cls)
        smap._set(m.field, in_dims, out_dims, src, dst, m._d[dst, src])
        return smap

    def coo(self):
        """The entries as COO arrays (input key, output key, value)."""
        return np.repeat(np.arange(self.starts.size - 1), np.diff(self.starts)), self.dst, self.val

    def apply_at(self, batch, dims: tuple, pos: int):
        """Apply to factors [pos, pos + arity) of every term of a batch;
        returns the new batch, its terms not yet summed, and its factor
        dims."""
        arity = len(self.in_dims)
        if tuple(dims[pos : pos + arity]) != self.in_dims:
            raise ValueError(f"factor dims {dims[pos:pos + arity]} do not match map input {self.in_dims}")
        col, key, val = batch
        post = _total(dims[pos + arity :])
        hi, rest = np.divmod(key, _total(self.in_dims) * post)
        mid, lo = np.divmod(rest, post)
        t, e = _join(np.arange(key.size), self.starts[mid], self.starts[mid + 1])
        dims = dims[:pos] + self.out_dims + dims[pos + arity :]
        key = (hi[t] * _total(self.out_dims) + self.dst[e]) * post + lo[t]
        val = val[t] if self.ones else self.field.reduce(val[t] * self.val[e])
        return (col[t], key, val), dims


def _permute(batch, dims: tuple, perm: tuple):
    col, key, val = batch
    digits = np.unravel_index(key, dims)
    dims = tuple(dims[p] for p in perm)
    return (col, np.ravel_multi_index([digits[p] for p in perm], dims), val), dims


def _contract(field: ScalarField, batch, dims: tuple, pos: int, weights):
    col, key, val = batch
    post = _total(dims[pos + 1 :])
    hi, rest = np.divmod(key, dims[pos] * post)
    digit, lo = np.divmod(rest, post)
    w = weights[digit]
    nz = w != 0
    dims = dims[:pos] + dims[pos + 1 :]
    return (col[nz], hi[nz] * post + lo[nz], field.reduce(val[nz] * w[nz])), dims


def _insert(field: ScalarField, batch, dims: tuple, pos: int, idx, weights, dim: int):
    col, key, val = batch
    post = _total(dims[pos:])
    hi, lo = np.divmod(key, post)
    k, n = idx.size, key.size
    key = (np.repeat(hi, k) * dim + np.tile(idx, n)) * post + np.repeat(lo, k)
    val = field.reduce(np.repeat(val, k) * np.tile(weights, n))
    return (np.repeat(col, k), key, val), dims[:pos] + (dim,) + dims[pos:]


class StagePipeline:
    """A composite map declared as a chain of factorwise stages and
    evaluated on batches of input basis tuples (see the module docstring).
    Declaring a stage checks it against the factor dims it receives."""

    def __init__(self, field: ScalarField, in_dims):
        self.field = field
        self.in_dims = tuple(in_dims)
        self.out_dims = self.in_dims
        self.stages: list[tuple] = []

    def _add(self, stage: tuple, out_dims: tuple) -> "StagePipeline":
        if _total(out_dims) > _KEY_LIMIT:
            raise ValueError(f"tensor space {out_dims} is too large to address")
        self.stages.append(stage)
        self.out_dims = out_dims
        return self

    def map_at(self, smap: SparseMap, pos: int) -> "StagePipeline":
        d, a = self.out_dims, len(smap.in_dims)
        if d[pos : pos + a] != smap.in_dims:
            raise ValueError(f"factor dims {d[pos:pos + a]} do not match map input {smap.in_dims}")
        return self._add(("map", smap, pos), d[:pos] + smap.out_dims + d[pos + a :])

    def permute(self, perm) -> "StagePipeline":
        perm = tuple(perm)
        if sorted(perm) != list(range(len(self.out_dims))):
            raise ValueError(f"{perm} is not a permutation of {len(self.out_dims)} factors")
        return self._add(("perm", perm), tuple(self.out_dims[p] for p in perm))

    def contract(self, pos: int, weights) -> "StagePipeline":
        d = self.out_dims
        w = self.field.reduce(np.array(list(weights), dtype=_dtype(self.field)))
        if w.size != d[pos]:
            raise ValueError(f"functional of length {w.size} on a factor of dim {d[pos]}")
        return self._add(("contract", pos, w), d[:pos] + d[pos + 1 :])

    def insert(self, pos: int, element, dim: int) -> "StagePipeline":
        e = self.field.reduce(np.array(list(element), dtype=_dtype(self.field)))
        if e.size != dim:
            raise ValueError(f"element of length {e.size} for a factor of dim {dim}")
        idx = np.flatnonzero(e != 0)
        return self._add(("insert", pos, idx, e[idx], dim), self.out_dims[:pos] + (dim,) + self.out_dims[pos:])

    def run(self, batch):
        """Evaluate every stage on one batch (col, key, val) over in_dims;
        returns the batch over out_dims, whose terms the caller sums.

        A stage that leaves more terms than it received is summed at once,
        so no batch holds more terms than the larger of its input and its
        distinct keys; other stages leave their terms to a later sum.
        Values stay nonzero until a sum: every entry, weight and element
        is nonzero.
        """
        f, dims = self.field, self.in_dims
        for st in self.stages:
            size = batch[1].size
            if st[0] == "map":
                batch, dims = st[1].apply_at(batch, dims, st[2])
            elif st[0] == "perm":
                batch, dims = _permute(batch, dims, st[1])
            elif st[0] == "contract":
                batch, dims = _contract(f, batch, dims, st[1], st[2])
            else:
                batch, dims = _insert(f, batch, dims, *st[1:])
            if batch[1].size > size:
                batch = _summed(f, *batch, _total(dims))
        return batch

    def _blocks(self):
        """Yield (first input, result batch) for consecutive blocks of the
        input basis in lexicographic order."""
        n = _total(self.in_dims)
        for lo in range(0, n, _BLOCK):
            col = np.arange(min(n, lo + _BLOCK) - lo)
            yield lo, self.run((col, col + lo, np.full(col.size, self.field.one(), dtype=_dtype(self.field))))

    def matrix(self) -> Matrix:
        """The composite as a Matrix: column = input key, row = output key."""
        out = Matrix.zeros(self.field, _total(self.out_dims), _total(self.in_dims))
        for lo, batch in self._blocks():
            col, key, val = _summed(self.field, *batch, _total(self.out_dims))
            out._d[key, col + lo] = val
        return out


def pipelines_equal(lhs: StagePipeline, rhs: StagePipeline) -> tuple | None:
    """The lexicographically first input basis tuple on which two pipelines
    over the same spaces differ, or None when they are equal."""
    if (lhs.in_dims, lhs.out_dims) != (rhs.in_dims, rhs.out_dims):
        raise ValueError(f"pipelines {lhs.in_dims} -> {lhs.out_dims} and {rhs.in_dims} -> {rhs.out_dims}")
    f, width = lhs.field, _total(lhs.out_dims)
    for (lo, (c1, k1, v1)), (_, (c2, k2, v2)) in zip(lhs._blocks(), rhs._blocks()):
        col, _, _ = _summed(f, np.concatenate((c1, c2)), np.concatenate((k1, k2)),
                            np.concatenate((v1, f.reduce(-v2))), width)
        if col.size:
            return tuple(int(i) for i in np.unravel_index(lo + int(col.min()), lhs.in_dims))
    return None
