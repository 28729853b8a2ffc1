"""The stage engine's integer numerators over Q against Fractions.

Over Q a `SparseMap` and a pipeline batch hold int64 numerators over one
positive denominator, and python ints once a bound no longer proves that
int64 holds a product or a sum.  Here every value is drawn from rationals
with non-unit denominators and numerators near and past 2**63, chains end
with stages whose terms cancel, and `SparseMap`, `StagePipeline.matrix()`,
`sparse_map()` and `pipelines_equal` are compared with the per-tuple
Fraction evaluator of test_tensors.  The structure checks, which bring
the two sides of each axiom over one denominator, are run on bialgebras
in rescaled bases.
"""
import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tensors import _add_term, build, flat, ref_run

from hopfsplit.algebra import multiplicativity_defect
from hopfsplit.builtin import dual_group_algebra, group_algebra, sweedler_h4
from hopfsplit.fields import QQ
from hopfsplit.hopf import BialgebraObject, is_coalgebra_map
from hopfsplit.linalg import Matrix, Numerators
from hopfsplit.tensors import SparseMap, StagePipeline, pipelines_equal

f = QQ
BIG = [2**31 - 1, 2**61 + 3, 2**62 - 1, 2**62 + 1, 2**63 - 1, 2**63 + 5, 3**41]


def rationals():
    """Nonzero rationals: small, or with a numerator near or past 2**63."""
    num = st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from(BIG + [-x for x in BIG]))
    den = st.sampled_from([1, 1, 2, 3, 7, 2**31 - 1, 2**40, 3**30])
    return st.builds(Fraction, num, den)


@st.composite
def wide_maps(draw, in_dims, out_dims):
    """A SparseMap given with duplicate entries, some of which cancel, and its
    summed columns."""
    keys_in = list(itertools.product(*map(range, in_dims)))
    keys_out = list(itertools.product(*map(range, out_dims)))
    raw = draw(st.lists(st.tuples(st.sampled_from(keys_in), st.sampled_from(keys_out), rationals()), max_size=8))
    raw += [(ki, ko, -c) for ki, ko, c in raw if draw(st.booleans()) and draw(st.booleans())]
    cols: dict = {}
    for ki, ko, c in raw:
        _add_term(f, cols.setdefault(ki, {}), ko, c)
    smap = SparseMap(f, in_dims, out_dims, [flat(ki, in_dims) for ki, _, _ in raw],
                     [flat(ko, out_dims) for _, ko, _ in raw], [c for _, _, c in raw])
    return cols, smap


@st.composite
def wide_chains(draw, in_dims):
    dims, stages = tuple(in_dims), []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["map", "map", "contract", "insert", "perm"] if dims else ["insert"]))
        if kind == "map":
            pos = draw(st.integers(0, len(dims) - 1))
            arity = draw(st.integers(1, min(2, len(dims) - pos)))
            in_d = dims[pos : pos + arity]
            out_d = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
            cols, smap = draw(wide_maps(in_d, out_d))
            stages.append(("map", cols, in_d, out_d, pos, smap))
            dims = dims[:pos] + out_d + dims[pos + arity :]
        elif kind == "perm":
            perm = tuple(draw(st.permutations(range(len(dims)))))
            stages.append(("perm", perm))
            dims = tuple(dims[p] for p in perm)
        elif kind == "contract":
            pos = draw(st.integers(0, len(dims) - 1))
            stages.append(("contract", pos, draw(st.lists(rationals(), min_size=dims[pos], max_size=dims[pos]))))
            dims = dims[:pos] + dims[pos + 1 :]
        elif len(dims) < 4:
            pos = draw(st.integers(0, len(dims)))
            dim = draw(st.integers(1, 3))
            stages.append(("insert", pos, draw(st.lists(rationals(), min_size=dim, max_size=dim)), dim))
            dims = dims[:pos] + (dim,) + dims[pos:]
    if dims and draw(st.booleans()):
        # c e_0 + c e_1 in a new factor, paired with (w, -w): every term cancels
        c, w = draw(rationals()), draw(rationals())
        pos = draw(st.integers(0, len(dims)))
        stages += [("insert", pos, [c, c], 2), ("contract", pos, [w, -w])]
    return stages


def _matrix_ref(stages, in_dims, out_dims):
    keys = list(itertools.product(*map(range, in_dims)))
    out = {}
    for j, key in enumerate(keys):
        for okey, c in ref_run(f, stages, in_dims, key).items():
            out[(flat(okey, out_dims), j)] = c
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_maps_read_back_their_fractions(data):
    in_dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
    out_dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
    cols, smap = data.draw(wide_maps(in_dims, out_dims))
    src, dst, val = smap.coo()
    got = {(int(s), int(d)): v for s, d, v in zip(src, dst, val)}
    want = {(flat(ki, in_dims), flat(ko, out_dims)): c for ki, col in cols.items() for ko, c in col.items()}
    assert got == want
    assert all(type(v) is Fraction for v in val)
    assert smap.values.den > 0 and smap.values.bound == max((abs(int(x)) for x in smap.values.num), default=0)
    m = Matrix.zeros(f, smap.out_size, smap.in_size)
    for (s, d), v in want.items():
        m._d[d, s] = v
    back = SparseMap.from_matrix(m, in_dims, out_dims)
    assert (back.values.den, back.values.bound) == (smap.values.den, smap.values.bound)
    assert np.array_equal(back.dst, smap.dst) and np.array_equal(back.values.num, smap.values.num)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_q_pipelines_match_the_fraction_reference(data):
    in_dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
    stages = data.draw(wide_chains(in_dims))
    pipe = build(f, in_dims, stages)
    m = pipe.matrix()
    want = _matrix_ref(stages, in_dims, pipe.out_dims)
    got = {(i, j): m[i, j] for i in range(m.rows) for j in range(m.cols) if m[i, j] != 0}
    assert got == want
    assert all(type(x) is Fraction for x in m._d.flat)
    # the composite as a map reads the same entries and evaluates the same
    smap = pipe.sparse_map()
    assert {(int(d), int(s)): v for s, d, v in zip(*smap.coo())} == want
    assert pipelines_equal(StagePipeline(f, in_dims).map_at(smap, 0), pipe) is None
    # a second chain over the same spaces: the first input tuple they differ on
    other_stages = data.draw(wide_chains(in_dims))
    other = build(f, in_dims, other_stages)
    if other.out_dims == pipe.out_dims:
        first = None
        for key in itertools.product(*map(range, in_dims)):
            if ref_run(f, stages, in_dims, key) != ref_run(f, other_stages, in_dims, key):
                first = key
                break
        assert pipelines_equal(pipe, other) == first
    assert pipelines_equal(pipe, build(f, in_dims, stages)) is None


def test_huge_products_and_sums_leave_int64():
    # (2^62 + 1)^2 and 2 (2^62 - 1) pass 2^63: the numerators become python
    # ints and stay exact
    big = Fraction(2**62 + 1)
    m = SparseMap(f, (1,), (1,), [0], [0], [big])
    pipe = StagePipeline(f, (1,)).map_at(m, 0).map_at(m, 0)
    assert pipe.matrix()[0, 0] == big * big
    two = SparseMap(f, (1,), (2,), [0, 0], [0, 1], [Fraction(2**62 - 1), Fraction(2**62 - 1)])
    pipe = StagePipeline(f, (1,)).map_at(two, 0).contract(0, [1, 1])
    assert pipe.matrix()[0, 0] == 2 * (2**62 - 1)
    # a thirds map composed three times: denominators multiply, lowest terms on read-out
    third = SparseMap(f, (2,), (2,), [0, 1, 1], [1, 0, 1], [Fraction(1, 3), Fraction(-2, 3), Fraction(5, 3)])
    pipe = StagePipeline(f, (2,)).map_at(third, 0).map_at(third, 0).map_at(third, 0)
    assert pipe.sparse_map().values.den == 27
    a = [[Fraction(0), Fraction(-2, 3)], [Fraction(1, 3), Fraction(5, 3)]]
    cube = [[sum(a[i][k] * a[k][l] * a[l][j] for k in range(2) for l in range(2)) for j in range(2)] for i in range(2)]
    assert pipe.matrix().to_rows() == cube
    # zero numerators (bound 0) brought over a denominator past 2^63, as when
    # a multiplicativity defect in a basis rescaled by 2^-40 concatenates its sides
    zero = SparseMap(f, (1,), (1,), [0], [0], [Fraction(0)]).values
    assert zero.over(2**70).num.tolist() == []
    assert Numerators(f, np.zeros(2, dtype=np.int64), 3, 0).over(3 * 2**70).num.tolist() == [0, 0]



@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_q_products_on_wide_numerators_match_fractions(data):
    # the object-matrix product and the COO product multiply the same
    # numerators: both against the plain Fraction product
    from hopfsplit.linalg import SparseMap, _matmul

    shape = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    entry = st.one_of(st.just(Fraction(0)), rationals())
    a, b = ([[data.draw(entry) for _ in range(c)] for _ in range(r)] for r, c in ((shape[0], shape[1]),
                                                                                  (shape[1], shape[2])))
    want = [[sum((a[i][t] * b[t][j] for t in range(shape[1])), Fraction(0)) for j in range(shape[2])]
            for i in range(shape[0])]
    ma, mb = Matrix.from_rows(f, a), Matrix.from_rows(f, b)
    assert _matmul(f, ma._d, mb._d).tolist() == want
    assert SparseMap.from_rows(ma).matmul(SparseMap.from_rows(mb)).dense().to_rows() == want


# -- structure checks in a rescaled basis ------------------------------------
#
# e'_k = s_k e_k rescales every structure constant by a product of the s_k
# and their inverses, so the numerators of the two sides of an axiom get
# different denominators.  Scaling a basis element keeps every defect's
# support, so each check reads the same verdict and names the same witness.


def rescaled(b, s):
    """The bialgebra b in the basis e'_k = s_k e_k."""
    mul = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in out.items()} for (i, j), out in b.mul.items()}
    comul = {k: {(p, q): c * s[k] / (s[p] * s[q]) for (p, q), c in out.items()} for k, out in b.comul.items()}
    return BialgebraObject(f, b.dim, mul, [u / x for u, x in zip(b.unit, s)], comul,
                           [e * x for e, x in zip(b.counit, s)])


def transported(m, s):
    """The matrix of the same linear map between the rescaled bases."""
    return Matrix.from_rows(f, [[m[i, j] * s[j] / s[i] for j in range(m.cols)] for i in range(m.rows)])


def test_h4_validates_with_x_halved():
    # g (x/2) = (gx)/2 puts a denominator on the structure constants:
    # Delta(e_i) Delta(e_j) then has it squared, Delta(e_i e_j) once
    h = sweedler_h4(f)
    b = rescaled(h, [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1)])
    assert b.validate().checks == BialgebraObject(f, 4, h.mul, h.unit, h.comul, h.counit).validate().checks
    assert b.validate().ok


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_checks_read_the_same_in_a_rescaled_basis(data):
    h = data.draw(st.sampled_from([sweedler_h4(f), group_algebra(3, f), dual_group_algebra(2, f)]))
    n = h.dim
    mul = {key: dict(out) for key, out in h.mul.items()}
    comul = {key: dict(out) for key, out in h.comul.items()}
    unit, counit = list(h.unit), list(h.counit)
    which = data.draw(st.sampled_from(["none", "mul", "comul", "unit", "counit"]))
    bump = Fraction(data.draw(st.integers(1, 3)))
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if which == "mul":
        mul.setdefault((i, j), {})[k] = mul.get((i, j), {}).get(k, 0) + bump
    elif which == "comul":
        comul.setdefault(k, {})[(i, j)] = comul.get(k, {}).get((i, j), 0) + bump
    elif which == "unit":
        unit[k] += bump
    elif which == "counit":
        counit[k] += bump
    b = BialgebraObject(f, n, mul, unit, comul, counit)
    s = data.draw(st.lists(rationals(), min_size=n, max_size=n))
    b2 = rescaled(b, s)
    assert b2.validate().checks == b.validate().checks
    # a map H -> H, identity plus a bump, reads the same verdicts between the
    # rescaled bases (the multiplicativity defect and the coalgebra-map pipelines)
    m = Matrix.identity(f, n)
    m._d[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([0, 1, -1]))
    m2 = transported(m, s)
    assert (multiplicativity_defect(b2.as_algebra(), b2.as_algebra(), m2)
            == multiplicativity_defect(b.as_algebra(), b.as_algebra(), m))
    assert (is_coalgebra_map(b2.as_coalgebra(), b2.as_coalgebra(), m2)
            == is_coalgebra_map(b.as_coalgebra(), b.as_coalgebra(), m))
