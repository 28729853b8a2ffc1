"""Sparse structure tensors and one batched evaluator for composite maps.

A basis tensor of V_1 (x) ... (x) V_k is a tuple (i_1, ..., i_k) of factor
indices; its key is the row-major flattened index over the factor dims.
A map between tensor spaces is a `linalg.SparseMap`, the package's one
sparse matrix (defined in `linalg`, so that elimination takes it without
an import cycle): its nonzero entries as COO arrays (input key, output
key, numerator), sorted by (input, output) key, with a CSR offset table
by input key built once.  Its `apply_at` is the map stage below.

Values are `linalg.Numerators`: integer numerators over one positive
common denominator per map or batch.  Over F_p the numerators are the
reduced values (int64 below p < 2**31, python ints for larger p) over 1.
Over Q they are int64 while a bound proves that int64 holds them, and
python ints (dtype=object) past it: every map and batch carries a bound
on |numerator|, a product is bounded by the product of the bounds and a
sum of n terms by n times theirs, and a product or sum whose bound
reaches 2**63 is formed from python ints, as `linalg._matmul` proves its
2**53 rule before using float64.  A `Fraction` is made only on read-out:
`coo()`, `difference`, `matrix()`, and never by `pipelines_equal`.

A `StagePipeline` declares a composite map as a chain of stages on the
factors:

  map_at(m, pos)       apply the SparseMap m to factors [pos, pos + arity)
  permute(perm)        new factor i is old factor perm[i]
  contract(pos, w)     pair factor pos with the functional w
  insert(pos, e, dim)  tensor in the fixed element e as a new factor at pos
  regroup(dims)        read the same tensor space as the factors dims

Declaring a stage checks it against the factor dims it receives and fixes
the numbers its evaluation needs (the size of the factors after it,
weights as numerators: `vector`, or `Numerators` given as they are), so
evaluating one is a single call on the batch.  A regroup adds no stage:
keys are row-major, so (n,) and (a, b) with n = a b address a basis
tensor by the same key.
A pipeline evaluates on a whole batch of input basis tuples at once.  A
batch is (key, Numerators); a term's key is its input tuple within the
batch times the size of the current tensor space plus its factor key, so
every stage, and the sum, reads one key array.  A map stage joins each
term with the map's entries at the term's factor digits (`linalg._join`),
or, for a map with at most one entry per input key (the structure maps
of group algebras, most actions and coactions), indexes them directly; a
contract stage weights each term by the functional at its
digit; insert repeats each term once per nonzero entry of the element;
permute only re-addresses keys.  The denominators of the map, weights and
element multiply into the batch's.  Terms with equal key are summed by a
sort and `np.add.reduceat` (`Numerators.summed`) and zero sums are
dropped; over F_p the sums are reduced mod p.  A stage that grows a batch
to more than `_BLOCK` terms is summed at once, and every batch once at the
end (see `StagePipeline.run`).  No stage loops over terms in Python.
Batches hold at most `_BLOCK` input tuples.

A tiny pipeline runs on a dense route instead (`_run_dense`): all its
inputs in one block, as an (inputs, tensor space) int64 array of
numerators, from the identity.  A map stage is a matmul with the map's
`SparseMap.dense_num`, contract a matmul with the weights, insert an
outer product, permute a transpose; over F_p each stage reduces mod p.
Declaring the stages counts, before anything is allocated, the work
(inputs times the tensor space after each stage times the terms each
value sums) and a numerator bound (each stage's bound times its terms).
The route is taken when the inputs fit in one batch of `_BLOCK`, the work
is at most `_DENSE_WORK` and the bound stays below 2**63 (the
`linalg._fit` rule); the COO route runs otherwise.

A composite leaves the engine as its summed COO: `StagePipeline.coo()`,
its nonzeros (input key, output key, field value) sorted by (input, output)
key, and `difference(lhs, rhs)`, the same for lhs - rhs.  On these stand
`sparse_map()`, a stage of later pipelines; `difference_map`, the
difference as one map; `pipelines_equal`, the first input tuple of the
difference; and `matrix()`, the COO scattered into a Matrix for the
callers that need one.  Both routes give the same COO: a dense array's
row-major nonzeros come sorted by (input, output) key, and a dense side
of a difference is the one block [0, N) its COO side yields.  A check
that reports its witness in another loop order declares its input in
that order and starts with a `permute`.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .fields import ScalarField
from .linalg import _LIMIT, Matrix, Numerators, SparseMap, _dtype, _fit, _num_dtype, _scatter

_BLOCK = 2**13  # input tuples evaluated in one batch
_KEY_LIMIT = 2**62 // _BLOCK  # largest tensor space a stage may address: keys hold the input tuple too
_DENSE_WORK = 2**12  # most counted products of a pipeline evaluated as dense arrays

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


def vector(field: ScalarField, values) -> Numerators:
    """A dense vector of field values as `Numerators`, as `contract` and
    `insert` read it; `Numerators` are taken as they are, so a caller that
    passes one vector to many stages converts it once."""
    if isinstance(values, Numerators):
        return values
    return Numerators.of(field, field.reduce(np.array(list(values), dtype=_dtype(field))))


# ---------------------------------------------------------------------------
# COO batches


def _sum(batch):
    """Sum a batch's terms with equal key (`Numerators.summed`)."""
    return batch[1].summed(batch[0])


def _map_stage(batch, smap: SparseMap, post: int):
    """A map stage.  `apply_at` is looked up on every call, so a wrapper put
    on `SparseMap.apply_at` (a tracer's) sees every map stage."""
    return smap.apply_at(batch, post)


def _permute(batch, dims: tuple, perm: tuple, new_dims: tuple):
    """Re-address every key through its digits, _BLOCK keys at a time, so
    the digit arrays (one per factor) stay small for a large batch.  The
    input tuple is the leading digit of a key."""
    flat, val = batch
    lead = 2**62 // prod(dims)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        digits = np.unravel_index(flat[lo : lo + _BLOCK], (lead,) + dims)
        out[lo : lo + _BLOCK] = np.ravel_multi_index([digits[0]] + [digits[p + 1] for p in perm], (lead,) + new_dims)
    return out, val


def _contract(batch, size: int, post: int, w: Numerators):
    """Pair the factor of dim size whose key digit lies above post with
    the functional w."""
    flat, val = batch
    hi, digit = np.divmod(flat, size * post)
    if post > 1:
        digit, lo = np.divmod(digit, post)
        hi = hi * post + lo
    w = w[digit]
    nz = w.num != 0
    if np.count_nonzero(nz) < nz.size:
        hi, val, w = hi[nz], val[nz], w[nz]
    return hi, val * w


def _insert(batch, post: int, dim: int, idx, e: Numerators):
    """Tensor in, as a factor of dim dim above post, the element whose
    nonzero values are e at idx."""
    flat, val = batch
    hi, lo = np.divmod(flat, post)
    k, n = idx.size, flat.size
    flat = (hi.repeat(k) * dim + np.tile(idx, n)) * post + lo.repeat(k)
    return flat, val[np.arange(n).repeat(k)] * e[np.tile(np.arange(k), n)]


def _run_dense(pipe: "StagePipeline"):
    """Evaluate pipe on its whole input basis as dense arrays (see the
    module docstring); returns the composite's (inputs, tensor space) int64
    numerators and their denominator."""
    f, n = pipe.field, prod(pipe.in_dims)
    x, den = np.eye(n, dtype=np.int64), 1
    for fn, args in pipe.stages:
        if fn is _map_stage:
            smap, post = args
            m, a = smap.dense_num, smap.in_size
            x = x.reshape(-1, a) @ m if post == 1 else np.matmul(m.T, x.reshape(-1, a, post))
            den *= smap.values.den
        elif fn is _permute:
            x = x.reshape((n,) + args[0]).transpose((0,) + tuple(p + 1 for p in args[1]))
        elif fn is _contract:
            size, post, w = args
            x, den = np.matmul(w.num.astype(np.int64), x.reshape(-1, size, post)), den * w.den
        else:
            post, dim, idx, e = args
            ev = np.zeros(dim, dtype=np.int64)
            ev[idx] = e.num
            x, den = x.reshape(-1, 1, post) * ev[:, None], den * e.den
        x = f.reduce(x.reshape(n, -1))
    return x, den


class StagePipeline:
    """A composite map declared as a chain of factorwise stages and
    evaluated on batches of input basis tuples (see the module docstring).
    Declaring a stage checks it against the factor dims it receives."""

    def __init__(self, field: ScalarField, in_dims):
        if prod(in_dims) > _KEY_LIMIT:
            raise ValueError(f"tensor space {tuple(in_dims)} is too large to address")
        self.field = field
        self.in_dims = tuple(in_dims)
        self.out_dims = self.in_dims
        self.stages: list[tuple] = []  # (fn, args): batch -> fn(batch, *args)
        # the dense route's counted products (the identity it starts from
        # first) and a bound on its numerators, None once int64 cannot hold one
        n = prod(self.in_dims)
        self._work = n * n
        self._bound = 1 if _num_dtype(field) is np.int64 and n else None

    def _add(self, out_dims: tuple, fn, *args, terms: int = 1, bound: int = 1) -> "StagePipeline":
        """Append the stage batch -> fn(batch, *args).  On the dense route
        each value after it is a sum of terms products of a value before it
        and one of the stage's, which are bounded by bound."""
        size = prod(out_dims)
        if size > _KEY_LIMIT:
            raise ValueError(f"tensor space {out_dims} is too large to address")
        self.stages.append((fn, args))
        self.out_dims = out_dims
        self._work += prod(self.in_dims) * size * terms
        if self._bound is not None:  # as `linalg._fit`: int64 holds what stays below 2**63
            b = self._bound * bound * terms
            fits = max(b, bound) < _LIMIT and size  # the stage's own values too, and no empty space
            self._bound = (min(b, self.field.p - 1) if self.field.kind == "Fp" else b) if fits else None
        return self

    def map_at(self, smap: SparseMap, pos: int) -> "StagePipeline":
        d, a = self.out_dims, len(smap.in_dims)
        if d[pos : pos + a] != smap.in_dims:
            raise ValueError(f"factor dims {d[pos:pos + a]} do not match map input {smap.in_dims}")
        return self._add(d[:pos] + smap.out_dims + d[pos + a :], _map_stage, smap, prod(d[pos + a :]),
                         terms=smap.in_size, bound=smap.values.bound)

    def permute(self, perm) -> "StagePipeline":
        perm = tuple(perm)
        if sorted(perm) != list(range(len(self.out_dims))):
            raise ValueError(f"{perm} is not a permutation of {len(self.out_dims)} factors")
        new_dims = tuple(self.out_dims[p] for p in perm)
        return self._add(new_dims, _permute, self.out_dims, perm, new_dims)

    def contract(self, pos: int, weights) -> "StagePipeline":
        d = self.out_dims
        w = vector(self.field, weights)
        if w.size != d[pos]:
            raise ValueError(f"functional of length {w.size} on a factor of dim {d[pos]}")
        return self._add(d[:pos] + d[pos + 1 :], _contract, d[pos], prod(d[pos + 1 :]), w, terms=d[pos], bound=w.bound)

    def insert(self, pos: int, element, dim: int) -> "StagePipeline":
        e = vector(self.field, element)
        if e.size != dim:
            raise ValueError(f"element of length {e.size} for a factor of dim {dim}")
        idx = np.flatnonzero(e.num != 0)
        d = self.out_dims
        return self._add(d[:pos] + (dim,) + d[pos:], _insert, prod(d[pos:]), dim, idx, e[idx], bound=e.bound)

    def regroup(self, dims) -> "StagePipeline":
        """Read the current tensor space as the factors dims, of the same
        total size: every key stays as it is."""
        dims = tuple(dims)
        if prod(dims) != prod(self.out_dims):
            raise ValueError(f"factors {dims} do not regroup {self.out_dims}")
        self.out_dims = dims
        return self

    def run(self, batch):
        """Evaluate every stage on one batch (key, Numerators) over in_dims;
        returns the batch over out_dims, whose terms the caller sums.

        A stage that leaves more terms than it received, and more than
        _BLOCK, is summed at once, so no batch holds more terms than the
        largest of _BLOCK, its input and its distinct keys; other stages
        leave their terms to a later sum, which on small batches costs
        less than summing after each stage.  Values stay nonzero until a
        sum: every entry, weight and element is nonzero.
        """
        for fn, args in self.stages:
            size = batch[0].size
            batch = fn(batch, *args)
            if batch[0].size > max(size, _BLOCK):
                batch = _sum(batch)
        return batch

    def _blocks(self):
        """Yield (first input, keys, Numerators), the result batch not yet
        summed, for consecutive blocks of the input basis in lexicographic
        order; a key is its input tuple within the block times the output
        size plus the output key."""
        n = prod(self.in_dims)
        for lo in range(0, n, _BLOCK):
            col = np.arange(min(n, lo + _BLOCK) - lo)
            yield (lo, *self.run((col * (n + 1) + lo, Numerators.ones(self.field, col.size))))

    def _dense(self):
        """(array, den) from `_run_dense` when the whole input basis is one
        block and the counted products are at most _DENSE_WORK, all of them
        in int64; None when the COO route runs."""
        if self._bound is None or prod(self.in_dims) > _BLOCK or self._work > _DENSE_WORK:
            return None
        return _run_dense(self)

    def _entries(self):
        """The composite's nonzeros: input keys, output keys, and their
        `Numerators`, sorted by (input, output) key.  Every block has the
        denominator of the stages' product."""
        dense = self._dense()
        if dense is not None:  # row-major nonzeros come sorted by (input, output)
            x, den = dense
            src, dst = np.nonzero(x)
            return src, dst, Numerators(self.field, x[src, dst], den)
        return _coo(self.field, prod(self.out_dims), ((lo, *v.summed(k)) for lo, k, v in self._blocks()))

    def coo(self):
        """The composite's nonzeros as COO arrays (input key, output key,
        field value), sorted by (input, output) key."""
        src, dst, val = self._entries()
        return src, dst, val.fractions()

    def matrix(self) -> Matrix:
        """The COO as a Matrix, for the callers that need one (README,
        "Structure-tensor pipelines")."""
        return _scatter(self.field, self.in_dims, self.out_dims, *self.coo())

    def sparse_map(self) -> SparseMap:
        """The composite as one SparseMap, a stage of later pipelines; its
        entries come from the summed batches, never from a dense matrix."""
        return SparseMap.from_coo(self.field, self.in_dims, self.out_dims, *self._entries())


def _coo(field: ScalarField, width: int, blocks):
    """One COO (input keys, output keys, Numerators) of consecutive summed
    blocks (first input, keys, Numerators), keys as in
    `StagePipeline._blocks`."""
    src, dst, val = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], []
    for lo, flat, v in blocks:
        col, key = np.divmod(flat, width)
        src.append(col + lo)
        dst.append(key)
        val.append(v)
    val = Numerators.concat(val) if val else Numerators.ones(field, 0)
    return np.concatenate(src), np.concatenate(dst), val


def _dense_block(field: ScalarField, dense):
    """A dense result (array, den) as the one summed block [0, N) of
    `_differences`: its keys are the array's row-major indices."""
    x, den = dense
    keys = np.flatnonzero(x)
    return 0, keys, Numerators(field, x.ravel()[keys], den)


def _differences(lhs: StagePipeline, rhs: StagePipeline):
    """Yield lhs - rhs block by block, summed, as (first input, keys,
    Numerators): one side's numerators against the other's over the
    product of their denominators."""
    if (lhs.in_dims, lhs.out_dims) != (rhs.in_dims, rhs.out_dims):
        raise ValueError(f"pipelines {lhs.in_dims} -> {lhs.out_dims} and {rhs.in_dims} -> {rhs.out_dims}")
    f = lhs.field
    a, b = lhs._dense(), rhs._dense()
    if a is not None and b is not None:  # one block, over the product of the denominators
        (x, d1), (y, d2) = a, b
        bound = max(lhs._bound * d2 + rhs._bound * d1, d1, d2)  # the denominators enter int64 too
        yield _dense_block(f, (f.reduce(_fit(x, bound) * d2 - _fit(y, bound) * d1), d1 * d2))
        return
    # a dense side is the one block [0, N) the other side yields
    sides = [pipe._blocks() if d is None else [_dense_block(f, d)] for pipe, d in ((lhs, a), (rhs, b))]
    for (lo, k1, v1), (_, k2, v2) in zip(*sides):
        yield (lo, *Numerators.concat((v1, -v2)).summed(np.concatenate((k1, k2))))


def difference(lhs: StagePipeline, rhs: StagePipeline):
    """lhs - rhs for two pipelines over the same spaces, as COO arrays
    (input key, output key, field value) sorted by (input, output) key."""
    src, dst, val = _coo(lhs.field, prod(lhs.out_dims), _differences(lhs, rhs))
    return src, dst, val.fractions()


def difference_map(lhs: StagePipeline, rhs: StagePipeline) -> SparseMap:
    """lhs - rhs as one SparseMap, its entries from the summed blocks."""
    entries = _coo(lhs.field, prod(lhs.out_dims), _differences(lhs, rhs))
    return SparseMap.from_coo(lhs.field, lhs.in_dims, lhs.out_dims, *entries)


def pipelines_equal(lhs: StagePipeline, rhs: StagePipeline) -> tuple | None:
    """The lexicographically first input basis tuple on which two pipelines
    over the same spaces differ, or None: the first input key of their
    difference, read from its first nonzero block."""
    width = prod(lhs.out_dims)
    for lo, flat, _ in _differences(lhs, rhs):
        if flat.size:
            return tuple(int(i) for i in np.unravel_index(lo + int(flat[0]) // width, lhs.in_dims))
    return None
