"""The batched stage engine against a per-tuple dict evaluator.

The reference below evaluates a pipeline one basis tuple at a time on
dicts keyed by index tuples, stage by stage; the engine must give the same
composite, the same batch results and the same first witness.
"""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsplit import tensors
from hopfsplit.fields import GF, QQ
from hopfsplit.linalg import Numerators
from hopfsplit.tensors import SparseMap, StagePipeline, difference, difference_map, pipelines_equal

FIELDS = [QQ, GF(7), GF(2**31 - 1), GF(2**61 - 1)]


# ---------------------------------------------------------------------------
# the per-tuple dict reference


def _unflatten(flat, dims):
    key = []
    for d in reversed(dims):
        key.append(flat % d)
        flat //= d
    return tuple(reversed(key))


def _add_term(f, out, key, c):
    s = f.add(out.get(key, f.zero()), c)
    if f.is_zero(s):
        out.pop(key, None)
    else:
        out[key] = s


def ref_stage(f, stage, vec, dims):
    kind = stage[0]
    out: dict = {}
    if kind == "map":
        cols, in_dims, out_dims, pos = stage[1:5]
        a = len(in_dims)
        for key, c in vec.items():
            for okey, w in cols.get(key[pos : pos + a], {}).items():
                _add_term(f, out, key[:pos] + okey + key[pos + a :], f.mul(c, w))
        return out, dims[:pos] + out_dims + dims[pos + a :]
    if kind == "perm":
        perm = stage[1]
        return {tuple(k[p] for p in perm): c for k, c in vec.items()}, tuple(dims[p] for p in perm)
    if kind == "regroup":  # factors pos and pos + 1 read as one
        pos = stage[1]
        d = dims[pos + 1]
        return ({k[:pos] + (k[pos] * d + k[pos + 1],) + k[pos + 2 :]: c for k, c in vec.items()},
                dims[:pos] + (dims[pos] * d,) + dims[pos + 2 :])
    if kind == "contract":
        pos, weights = stage[1:]
        for key, c in vec.items():
            _add_term(f, out, key[:pos] + key[pos + 1 :], f.mul(c, weights[key[pos]]))
        return out, dims[:pos] + dims[pos + 1 :]
    pos, element, dim = stage[1:]
    for key, c in vec.items():
        for i, w in enumerate(element):
            if not f.is_zero(w):
                _add_term(f, out, key[:pos] + (i,) + key[pos:], f.mul(c, w))
    return out, dims[:pos] + (dim,) + dims[pos:]


def ref_run(f, stages, in_dims, key):
    vec, dims = {tuple(key): f.one()}, tuple(in_dims)
    for st_ in stages:
        vec, dims = ref_stage(f, st_, vec, dims)
    return vec


def coo_dict(pipe, coo):
    """COO arrays as {(input key, output tuple): value}, after checking that
    they are sorted by (input, output) key, unique and nonzero."""
    src, dst, val = coo
    width = int(np.prod(pipe.out_dims, dtype=np.int64))
    assert (np.diff(src * width + dst) > 0).all() and all(v != 0 for v in val.tolist())
    return {(s, _unflatten(d, pipe.out_dims)): v for s, d, v in zip(src.tolist(), dst.tolist(), val.tolist())}


def build(f, in_dims, stages) -> StagePipeline:
    pipe = StagePipeline(f, in_dims)
    for st_ in stages:
        if st_[0] == "map":
            pipe.map_at(st_[5], st_[4])
        elif st_[0] == "perm":
            pipe.permute(st_[1])
        elif st_[0] == "contract":
            pipe.contract(*st_[1:])
        elif st_[0] == "regroup":
            d, pos = pipe.out_dims, st_[1]
            pipe.regroup(d[:pos] + (d[pos] * d[pos + 1],) + d[pos + 2 :])
        else:
            pipe.insert(*st_[1:])
    return pipe


# ---------------------------------------------------------------------------
# random maps and chains


def scalars(f):
    if f.kind == "Q":
        return st.builds(lambda a, b: Fraction(a, b), st.integers(-3, 3), st.integers(1, 3))
    return st.sampled_from([0, 1, 2, f.p - 1, f.p - 2, f.p // 2 + 1])


def flat(key, dims):
    out = 0
    for i, d in zip(key, dims):
        out = out * d + i
    return out


@st.composite
def sparse_maps(draw, f, in_dims, out_dims):
    """A SparseMap given with duplicate entries, and its summed columns."""
    keys_in = list(itertools.product(*map(range, in_dims)))
    keys_out = list(itertools.product(*map(range, out_dims)))
    raw = draw(st.lists(st.tuples(st.sampled_from(keys_in), st.sampled_from(keys_out), scalars(f)),
                        max_size=12))
    cols: dict = {}
    for ki, ko, c in raw:
        _add_term(f, cols.setdefault(ki, {}), ko, c)
    src = [flat(ki, in_dims) for ki, _, _ in raw]
    dst = [flat(ko, out_dims) for _, ko, _ in raw]
    return cols, SparseMap(f, in_dims, out_dims, src, dst, [c for _, _, c in raw])


@st.composite
def chains(draw, f, in_dims, max_stages=5):
    dims = tuple(in_dims)
    stages = []
    for _ in range(draw(st.integers(0, max_stages))):
        kinds = ["map", "insert"] + (["perm", "contract"] if dims else []) + (["regroup"] if len(dims) > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "map" and dims:
            pos = draw(st.integers(0, len(dims) - 1))
            arity = draw(st.integers(1, min(2, len(dims) - pos)))
            in_d = dims[pos : pos + arity]
            out_d = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
            cols, smap = draw(sparse_maps(f, in_d, out_d))
            stages.append(("map", cols, in_d, out_d, pos, smap))
            dims = dims[:pos] + out_d + dims[pos + arity :]
        elif kind == "perm":
            perm = tuple(draw(st.permutations(range(len(dims)))))
            stages.append(("perm", perm))
            dims = tuple(dims[p] for p in perm)
        elif kind == "contract":
            pos = draw(st.integers(0, len(dims) - 1))
            stages.append(("contract", pos, draw(st.lists(scalars(f), min_size=dims[pos], max_size=dims[pos]))))
            dims = dims[:pos] + dims[pos + 1 :]
        elif kind == "regroup":
            pos = draw(st.integers(0, len(dims) - 2))
            stages.append(("regroup", pos))
            dims = dims[:pos] + (dims[pos] * dims[pos + 1],) + dims[pos + 2 :]
        elif len(dims) < 4:
            pos = draw(st.integers(0, len(dims)))
            dim = draw(st.integers(1, 3))
            stages.append(("insert", pos, draw(st.lists(scalars(f), min_size=dim, max_size=dim)), dim))
            dims = dims[:pos] + (dim,) + dims[pos:]
    return stages


input_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_pipeline_matches_per_tuple_reference(data):
    f = data.draw(st.sampled_from(FIELDS))
    in_dims = data.draw(input_dims)
    stages = data.draw(chains(f, in_dims))
    pipe = build(f, in_dims, stages)
    m = pipe.matrix()
    keys = list(itertools.product(*map(range, in_dims)))
    coo = coo_dict(pipe, pipe.coo())
    for j, key in enumerate(keys):
        want = ref_run(f, stages, in_dims, key)
        got = {_unflatten(i, pipe.out_dims): m[i, j] for i in range(m.rows) if m[i, j] != 0}
        assert got == want == {okey: v for (s, okey), v in coo.items() if s == j}
    assert len(coo) == np.count_nonzero(m._d)  # the COO holds the nonzeros of matrix(), and only them
    # one batch of chosen input tuples, repeats and scaled values included
    picks = data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=6))
    scale = data.draw(st.lists(scalars(f), min_size=len(picks), max_size=len(picks)))
    col = np.array([t // 2 for t in range(len(picks))], dtype=np.int64)
    vals = Numerators.of(f, f.reduce(np.array(scale, dtype=m._d.dtype)))
    flat, v = pipe.run((col * len(keys) + np.array(picks, dtype=np.int64), vals))
    c, k = np.divmod(flat, m.rows)
    v = v.fractions()
    want: dict = {}
    for t, (pick, s) in enumerate(zip(picks, scale)):
        for okey, w in ref_run(f, stages, in_dims, keys[pick]).items():
            _add_term(f, want, (t // 2, okey), f.mul(s, w))
    got: dict = {}  # a batch sums equal keys only at map and contract stages
    for a, b, x in zip(c.tolist(), k.tolist(), v.tolist()):
        _add_term(f, got, (a, _unflatten(b, pipe.out_dims)), x)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_witness_is_first_differing_tuple(data):
    f = data.draw(st.sampled_from(FIELDS))
    in_dims = data.draw(input_dims)
    lhs = data.draw(chains(f, in_dims))
    pipe = build(f, in_dims, lhs)
    if pipe.out_dims and data.draw(st.booleans()):
        # the same chain followed by a map that may move some outputs
        pos = data.draw(st.integers(0, len(pipe.out_dims) - 1))
        d = (pipe.out_dims[pos],)
        cols, smap = data.draw(sparse_maps(f, d, d))
        rhs = lhs + [("map", cols, d, d, pos, smap)]
    else:
        rhs = data.draw(chains(f, in_dims))
    other = build(f, in_dims, rhs)
    if other.out_dims != pipe.out_dims:
        return
    want, diff = None, {}
    for j, key in enumerate(itertools.product(*map(range, in_dims))):
        left, right = ref_run(f, lhs, in_dims, key), ref_run(f, rhs, in_dims, key)
        if want is None and left != right:
            want = key
        for okey in set(left) | set(right):
            _add_term(f, diff, (j, okey), f.sub(left.get(okey, f.zero()), right.get(okey, f.zero())))
    assert pipelines_equal(pipe, other) == want
    assert pipelines_equal(pipe, build(f, in_dims, lhs)) is None
    # the difference as COO: the per-tuple difference, and matrix() - matrix()
    got = coo_dict(pipe, difference(pipe, other))
    dense = pipe.matrix() - other.matrix()
    assert got == diff == {(j, _unflatten(i, pipe.out_dims)): dense[i, j] for i, j in zip(*np.nonzero(dense._d))}
    assert difference(pipe, build(f, in_dims, lhs))[0].size == 0  # every sum cancels to zero


@pytest.mark.parametrize("field", FIELDS)
def test_witness_follows_declared_loop_order(field):
    # m is nonzero on the keys (a, b) = (1, 0) and (0, 2) only: in key order
    # the first is (0, 2); declared in loop order (b, a) it is (b, a) = (0, 1)
    one = field.one()
    m = SparseMap(field, (2, 3), (2,), [1 * 3 + 0, 0 * 3 + 2], [0, 1], [one, one])
    zero = SparseMap(field, (2, 3), (2,), [], [], [])
    key_order = [StagePipeline(field, (2, 3)).map_at(x, 0) for x in (m, zero)]
    assert pipelines_equal(*key_order) == (0, 2)
    loop_order = [StagePipeline(field, (3, 2)).permute((1, 0)).map_at(x, 0) for x in (m, zero)]
    assert pipelines_equal(*loop_order) == (0, 1)


@pytest.mark.parametrize("field", FIELDS)
def test_terms_with_equal_keys_are_summed(field):
    # x0 -> e00 + e01 and x1 -> e10; contracting the second factor with
    # (1, -1) sends both terms of x0 to key 0, where they cancel
    one, zero = field.one(), field.zero()
    m = SparseMap(field, (2,), (2, 2), [0, 0, 1], [0, 1, 2], [one, one, one])
    pipe = StagePipeline(field, (2,)).map_at(m, 0).contract(1, [one, field.neg(one)])
    assert pipe.matrix().to_rows() == [[zero, zero], [zero, one]]
    assert pipelines_equal(pipe, StagePipeline(field, (2,)).contract(0, [zero, one]).insert(0, [zero, one], 2)) is None
    assert pipelines_equal(pipe, StagePipeline(field, (2,))) == (0,)


def test_declared_stages_are_checked_against_factor_dims():
    m = SparseMap(GF(7), (2,), (3,), [0], [0], [1])
    with pytest.raises(ValueError):
        StagePipeline(GF(7), (3,)).map_at(m, 0)
    with pytest.raises(ValueError):
        StagePipeline(GF(7), (2, 3)).permute((0, 0))
    with pytest.raises(ValueError):
        StagePipeline(GF(7), (2,)).contract(0, [1, 2, 3])
    with pytest.raises(ValueError):
        StagePipeline(GF(7), (2, 3)).regroup((5,))


@pytest.mark.parametrize("field", FIELDS)
def test_regroup_reads_the_same_keys_as_other_factors(field):
    # (6,) regrouped as (2, 3) and m : (2, 3) -> (2,) is the map with m's
    # entries on the flat keys; regrouping its output changes no value, and
    # a witness unravels over the declared input dims
    one = field.one()
    m = SparseMap(field, (2, 3), (2,), [3, 2], [0, 1], [one, one])
    flat = SparseMap(field, (6,), (2,), [3, 2], [0, 1], [one, one])
    zero = SparseMap(field, (6,), (2,), [], [], [])
    grouped = StagePipeline(field, (6,)).regroup((2, 3)).map_at(m, 0)
    assert grouped.in_dims == (6,) and grouped.out_dims == (2,)
    assert pipelines_equal(grouped, StagePipeline(field, (6,)).map_at(flat, 0)) is None
    assert pipelines_equal(grouped, StagePipeline(field, (6,)).map_at(zero, 0)) == (2,)
    assert grouped.regroup((1, 2)).matrix() == StagePipeline(field, (6,)).map_at(flat, 0).matrix()


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**61 - 1)])
def test_from_matrix_matches_constructor(field):
    # from_matrix reads the sorted nonzeros directly; the constructor sorts
    # and sums the same entries given in shuffled order
    from hopfsplit.linalg import Matrix

    rng = np.random.default_rng(5)
    mats = [Matrix.zeros(field, 3, 4), Matrix.zeros(field, 0, 2),
            Matrix.from_rows(field, [[field.one()] * 4 for _ in range(3)])]
    for _ in range(6):
        rows, cols = (int(x) for x in rng.integers(1, 6, size=2))
        vals = rng.choice([0, 0, 1, 2, -1, 3], size=(rows, cols)).tolist()
        mats.append(Matrix.from_rows(field, [[field.from_int(v) for v in r] for r in vals]))
    for m in mats:
        got = SparseMap.from_matrix(m, (m.cols,), (m.rows,))
        ent = list(m.entries())
        order = rng.permutation(len(ent))
        src, dst, val = ([ent[t][k] for t in order] for k in (1, 0, 2))
        want = SparseMap(field, (m.cols,), (m.rows,), src, dst, val)
        for a, b in zip((got.dst, got.values.num, got.starts), (want.dst, want.values.num, want.starts)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.ones == want.ones
        assert all(np.array_equal(a, b) for a, b in zip(got.coo(), want.coo()))


# ---------------------------------------------------------------------------
# the dense route against the COO route


def _read_outs(lhs, rhs, twin):
    """Every read-out of the engine on lhs and rhs: coo(), sparse_map(),
    difference, difference_map and the pipelines_equal witness, and the
    empty difference of lhs with its twin (the same chain built again)."""
    def as_lists(*arrays):
        return tuple(a.tolist() for a in arrays)

    out = {}
    for name, pipe in (("lhs", lhs), ("rhs", rhs)):
        out[name] = as_lists(*pipe.coo())
        m = pipe.sparse_map()
        out[name + "_map"] = as_lists(m.src, m.dst, m.values.num) + (m.values.den,)
    if lhs.out_dims == rhs.out_dims:
        out["difference"] = as_lists(*difference(lhs, rhs))
        d = difference_map(lhs, rhs)
        out["difference_map"] = as_lists(d.src, d.dst, d.values.num) + (d.values.den,)
        out["witness"] = pipelines_equal(lhs, rhs)
    out["twin"] = as_lists(*difference(lhs, twin))
    assert out["twin"] == ([], [], []) and pipelines_equal(lhs, twin) is None
    return out


def _dense_runs(monkeypatch):
    """Spy on `tensors._run_dense`: the list of pipelines it evaluated."""
    ran = []
    run = tensors._run_dense

    def spy(pipe):
        ran.append(pipe)
        return run(pipe)

    monkeypatch.setattr(tensors, "_run_dense", spy)
    return ran


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dense_and_coo_routes_give_the_same_read_outs(data):
    # all five stage kinds over Q, F_7 and F_(2^31 - 1); the COO route is
    # forced with no dense work allowed, and a mixed pair (one side dense,
    # the other COO) by allowing only the work of the cheaper side
    f = data.draw(st.sampled_from([QQ, GF(7), GF(2**31 - 1)]))
    in_dims = data.draw(input_dims)
    lhs = data.draw(chains(f, in_dims))
    if data.draw(st.booleans()):  # a chain and the same chain with one more map: often equal, often not
        pipe = build(f, in_dims, lhs)
        pos = data.draw(st.integers(0, len(pipe.out_dims) - 1)) if pipe.out_dims else None
        rhs = lhs
        if pos is not None:
            d = (pipe.out_dims[pos],)
            cols, smap = data.draw(sparse_maps(f, d, d))
            rhs = lhs + [("map", cols, d, d, pos, smap)]
    else:
        rhs = data.draw(chains(f, in_dims))

    def outs():
        return _read_outs(build(f, in_dims, lhs), build(f, in_dims, rhs), build(f, in_dims, lhs))

    with pytest.MonkeyPatch.context() as mp:
        ran = _dense_runs(mp)
        mp.setattr(tensors, "_DENSE_WORK", 0)
        coo = outs()
        assert ran == []
        mp.setattr(tensors, "_DENSE_WORK", 2**12)
        assert outs() == coo
        cheap = min(build(f, in_dims, c)._work for c in (lhs, rhs))
        mp.setattr(tensors, "_DENSE_WORK", cheap)
        del ran[:]
        assert outs() == coo
        assert all(p._work == cheap for p in ran)  # with unequal works, the pairs were mixed


def test_bounds_past_int64_take_the_coo_route(monkeypatch):
    # Q: two maps with entries 2^40 bound the sums by 2^82; F_(2^31 - 1):
    # a second map of input size 3 bounds them by 3 (p - 1)^2 > 2^63.  Either
    # composite goes through the COO route and matches the exact products;
    # one map of each is dense, and a mixed pair gives the COO witness.
    ran = _dense_runs(monkeypatch)
    big = 2**40
    m = SparseMap(QQ, (2,), (2,), [0, 0, 1], [0, 1, 1], [Fraction(big), Fraction(big), Fraction(-big)])
    pipe = StagePipeline(QQ, (2,)).map_at(m, 0).map_at(m, 0)
    assert [x.tolist() for x in pipe.coo()] == [[0, 1], [0, 1], [big * big, big * big]] and ran == []
    once = StagePipeline(QQ, (2,)).map_at(m, 0)
    assert pipelines_equal(pipe, once) == (0,) and ran == [once]
    p = 2**31 - 1
    f = GF(p)
    vals = [[p - 1, 1, 2], [p - 2, 0, p - 1], [3, p - 1, p - 1]]  # vals[s][d]: the entry of input s at output d
    m = SparseMap(f, (3,), (3,), [s for s in range(3) for _ in range(3)], [d for _ in range(3) for d in range(3)],
                  [v for row in vals for v in row])
    square = [[sum(vals[s][t] * vals[t][d] for t in range(3)) % p for d in range(3)] for s in range(3)]
    want = [(s, d, v) for s in range(3) for d, v in enumerate(square[s]) if v]
    del ran[:]
    pipe = StagePipeline(f, (3,)).map_at(m, 0).map_at(m, 0)
    assert list(zip(*(x.tolist() for x in pipe.coo()))) == want and ran == []
    once = StagePipeline(f, (3,)).map_at(m, 0)
    assert once._bound == p - 1 and pipe._bound is None  # 3 (p - 1)^2 >= 2^63 at the second map
    small = StagePipeline(GF(7), (2,)).map_at(SparseMap(GF(7), (2,), (2,), [0, 1], [1, 0], [3, 4]), 0)
    assert small.coo()[2].tolist() == [3, 4] and ran == [small]
    # two dense sides whose numerators are tiny but whose denominator
    # 2^40 (2^31 - 1) passes 2^63: the cross products are python ints
    zero = (StagePipeline(QQ, (1,)).contract(0, [Fraction(1, 2**40)]).insert(0, [1, 1], 2)
            .contract(0, [Fraction(1, p), Fraction(-1, p)]))
    empty = zero.sparse_map()
    del ran[:]
    assert pipelines_equal(zero, StagePipeline(QQ, (1,)).map_at(empty, 0)) is None and len(ran) == 2


def test_more_inputs_than_a_block_take_the_coo_route(monkeypatch):
    # with one or seven input tuples per batch, as the block-boundary tests
    # patch it, an 8-input pipeline runs in several blocks and never dense
    ran = _dense_runs(monkeypatch)
    f = GF(7)
    m = SparseMap(f, (2, 4), (4,), list(range(8)), [t % 4 for t in range(8)], [1 + t % 3 for t in range(8)])
    want = StagePipeline(f, (2, 4)).map_at(m, 0).coo()
    assert len(ran) == 1
    for block in (1, 7):
        monkeypatch.setattr(tensors, "_BLOCK", block)
        del ran[:]
        pipe = StagePipeline(f, (2, 4)).map_at(m, 0)
        assert len(list(pipe._blocks())) == -(-8 // block)
        assert all(np.array_equal(a, b) for a, b in zip(pipe.coo(), want)) and ran == []
