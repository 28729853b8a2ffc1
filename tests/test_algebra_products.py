"""Products on the structure constants against the dense structure tensor.

The references below are the tensor contractions the joins and pipelines
replaced: the dense n x n x n tensor T[i, j, k] = [e_i e_j]_k, contracted
with the left operand and then the right one (`pairwise_products`), read
by rows of left indices (the multiplicativity defect, `_defect_pipelines`),
at the free basis pairs (`quotient_algebra`) and against its own transpose
(`trace_form`).
"""
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfsplit.algebra as alg_mod
from hopfsplit.algebra import AlgebraObject, ideal_generated_by, is_ideal, pairwise_products, quotient_algebra, trace_form
from hopfsplit import tensors
from hopfsplit.builtin import group_algebra, sweedler_h4, taft
from hopfsplit.fields import GF, QQ
from hopfsplit.linalg import Matrix, SparseMap, Subspace, _dtype, _matmul

FIELDS = [GF(2), GF(7), GF(2**31 - 1), GF(2**61 - 1), QQ]


def tensor_of(a):
    f, n = a.field, a.dim
    t = np.full((n, n, n), f.zero(), dtype=_dtype(f))
    for (i, j), col in a.mul.items():
        for k, c in col.items():
            t[i, j, k] = f.reduce(c)
    return t


def products_by_tensor(a, left, right):
    """Two contractions with the dense structure tensor."""
    f = a.field
    n, lr, rr = a.dim, left.rows, right.rows
    q = _matmul(f, left._d, tensor_of(a).reshape(n, n * n))  # (u, (b, k))
    q = q.reshape(lr, n, n).transpose(1, 0, 2).reshape(n, lr * n)  # (b, (u, k))
    r = _matmul(f, right._d, q).reshape(rr, lr, n).transpose(1, 0, 2)  # (u, w, k)
    return Matrix(f, lr * rr, n, r.reshape(lr * rr, n), _raw=True)


def defect_rows_by_tensor(src, tgt, f, lefts=None):
    """Row r n + j is f(e_i e_j) - f(e_i) f(e_j) for the r-th left index i
    (of all of them, or of the list lefts)."""
    fld, n = src.field, src.dim
    t = tensor_of(src)
    ft = f.transpose()
    blk = slice(0, n) if lefts is None else lefts
    rows = ft._d[blk]
    lhs = _matmul(fld, t[blk].reshape(rows.shape[0] * n, n), ft._d)
    rhs = products_by_tensor(tgt, ft._new(rows.shape[0], tgt.dim, rows), ft)
    return fld.reduce(lhs - rhs._d)


def quotient_constants_by_tensor(a, s):
    free = s.free_columns()
    q = len(free)
    prods = tensor_of(a)[np.ix_(free, free)].reshape(q * q, a.dim)
    return _matmul(a.field, prods, s.complement_projection()._d.T)


def trace_form_by_tensor(a):
    n = a.dim
    t = tensor_of(a)
    return _matmul(a.field, t.transpose(0, 2, 1).reshape(n, n * n), t.reshape(n, n * n).T)


def scalars(f):
    if f.kind == "Q":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    p = f.p
    return st.one_of(st.integers(0, 3), st.integers(p - 3, p + 3), st.integers(0, 2 * p))


def draw_algebra(data, f, n):
    """n-dim structure constants: none, a few, about one per (i, j), or every
    triple; values may reduce to zero."""
    kind = data.draw(st.sampled_from(["none", "few", "per_pair", "full"]))
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    if kind == "none" or not triples:
        chosen = []
    elif kind == "few":
        chosen = data.draw(st.lists(st.sampled_from(triples), max_size=n, unique=True))
    elif kind == "per_pair":
        chosen = [(i, j, data.draw(st.integers(0, n - 1))) for i in range(n) for j in range(n)]
    else:
        chosen = triples
    mul: dict = {}
    for i, j, k in chosen:
        mul.setdefault((i, j), {})[k] = data.draw(scalars(f))
    unit = [f.one()] + [f.zero()] * (n - 1) if n else []
    return AlgebraObject(f, n, mul, unit)


def draw_operand(data, f, n, rows):
    """rows x n: unit rows, one or two nonzeros, dense, zero rows, or a mix."""
    kind = data.draw(st.sampled_from(["unit", "sparse", "dense", "zero", "mixed"]))
    out = []
    for _ in range(rows):
        k = data.draw(st.sampled_from(["unit", "sparse", "dense", "zero"])) if kind == "mixed" else kind
        row = [f.zero()] * n
        if k == "unit" and n:
            row[data.draw(st.integers(0, n - 1))] = f.one()
        elif k == "sparse" and n:
            for c in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                row[c] = data.draw(scalars(f))
        elif k == "dense":
            row = [data.draw(scalars(f)) for _ in range(n)]
        out.append(row)
    return Matrix(f, rows, n, out)


def with_branch(fn, *args):
    """fn(*args) and whether it ran a dense `_matmul`."""
    calls = []
    real = alg_mod._matmul

    def spy(field, x, y):
        calls.append(x)
        return real(field, x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg_mod, "_matmul", spy)
        got = fn(*args)
    return got, bool(calls)


def assert_summed(m):
    """Matrices of rows as products hand them over: sorted by (row, col),
    unique and nonzero, their numerators over the least denominator and of
    the field's numerator dtype (int64 over Q while the bound allows), with
    the CSR offsets of the rows."""
    key = m.src * m.out_size + m.dst
    if m.field.kind == "Fp":
        assert m.values.num.dtype == _dtype(m.field) and m.values.den == 1
    else:
        assert m.values.num.dtype == (np.int64 if m.values.bound < 2**63 else object)
        assert gcd(m.values.den, *m.values.num.tolist()) == 1
    assert (np.diff(key) > 0).all() and (m.values.num != 0).all()
    assert ((0 <= m.dst) & (m.dst < m.out_size)).all() and ((0 <= m.src) & (m.src < m.in_size)).all()
    assert np.array_equal(m.starts, np.searchsorted(m.src, np.arange(m.in_size + 1)))


def dense_by_rule(a, left, right):
    """Whether the term-count rule sends the product to the dense branch,
    counted on the reference tensor: stage 1 makes a term per nonzero
    (u, i) of left and nonzero T[i, j, k], stage 2 at most one per such
    term and nonzero (w, j) of right."""
    n, lr, rr = a.dim, left.rows, right.rows
    if lr * rr * n == 0:
        return False
    at_i = (left._d != 0).sum(axis=0)
    at_j = (right._d != 0).sum(axis=0)
    nz = tensor_of(a) != 0
    stage1 = int((at_i[:, None, None] * nz).sum())
    stage2 = int((at_i[:, None, None] * at_j[None, :, None] * nz).sum())
    return stage1 >= lr * n * n or stage2 >= lr * rr * n


def test_pairwise_products_match_the_tensor_contractions():
    seen = set()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def check(data):
        f = data.draw(st.sampled_from(FIELDS))
        n = data.draw(st.integers(0, 6))
        a = draw_algebra(data, f, n)
        left = draw_operand(data, f, n, data.draw(st.integers(0, 5)))
        right = draw_operand(data, f, n, data.draw(st.integers(0, 5)))
        got, dense = with_branch(pairwise_products, a, left, right)
        want = products_by_tensor(a, left, right)
        assert got.shape == (want.rows, want.cols)
        assert_summed(got)
        got = got.dense()
        assert got._d.dtype == want._d.dtype
        assert np.array_equal(got._d, want._d)
        assert dense == dense_by_rule(a, left, right)
        seen.add(dense)

    check()
    assert seen == {False, True}


@pytest.mark.parametrize("field", FIELDS)
def test_dense_operands_take_the_dense_product_and_unit_rows_the_join(field):
    # k[Z_3] has 3 constants per first leg: unit rows make 9 terms in
    # stage 1 and at most 9 in stage 2, against 27 dense entries each
    # (join).  With every triple a constant 1, one all-ones left row makes 27
    # terms against 9 entries (dense product).  Unit left rows make 9 terms
    # in stage 1, but an all-ones right row takes each to 3, so 27 against
    # 9 entries (dense product)
    n, one = 3, field.one()
    eye = Matrix.identity(field, n)
    group = group_algebra(n, field).as_algebra()
    got, dense = with_branch(pairwise_products, group, eye, Matrix(field, n, n, eye._d.copy(), _raw=True))
    assert not dense
    assert np.array_equal(got.dense()._d, products_by_tensor(group, eye, eye)._d)
    full = AlgebraObject(field, n, {(i, j): dict.fromkeys(range(n), one) for i in range(n) for j in range(n)},
                         [one] + [field.zero()] * (n - 1))
    ones = Matrix(field, 1, n, [[one] * n])
    for left, right in ((ones, eye), (eye, ones)):
        got, dense = with_branch(pairwise_products, full, left, right)
        assert dense
        assert_summed(got)
        assert np.array_equal(got.dense()._d, products_by_tensor(full, left, right)._d)


@pytest.mark.parametrize("field", FIELDS)
def test_empty_operands_multiply_nothing(field):
    # no row on either side: an empty result, without densifying the constants
    a = group_algebra(3, field).as_algebra()
    eye = Matrix.identity(field, 3)
    none = Matrix(field, 0, 3, [])
    for left, right in ((none, eye), (eye, none), (none, none)):
        got, dense = with_branch(pairwise_products, a, left, right)
        assert not dense
        assert got.shape == (0, 3)
        assert got.dense()._d.dtype == _dtype(field)


@pytest.mark.parametrize("field", [GF(7), GF(2**31 - 1), GF(2**61 - 1)])
def test_products_reduce_every_term(field):
    # c = p - 1.  One term per stage, 2 c^2 and then c (2 c^2 mod p), each
    # must come out reduced; three terms c^2 on one key of stage 1 pass 2^63
    # over F_(2^31 - 1) unless each is reduced first (n = 4 keeps stage 2's
    # bound of 3 terms below its 4 dense entries)
    c, n = field.p - 1, 4
    zero = field.zero()
    unit = [field.one()] + [zero] * (n - 1)
    one_term = AlgebraObject(field, n, {(1, 1): {0: c}}, unit)
    three_terms = AlgebraObject(field, n, {(i, 0): {0: c} for i in range(3)}, unit)
    cases = ((one_term, [[zero, field.from_int(2), zero, zero]], [[zero, c, zero, zero]]),
             (three_terms, [[c, c, c, zero]], [[c, zero, zero, zero]]))
    for a, left, right in cases:
        left, right = Matrix(field, 1, n, left), Matrix(field, 1, n, right)
        got, dense = with_branch(pairwise_products, a, left, right)
        assert not dense
        assert np.array_equal(got.dense()._d, products_by_tensor(a, left, right)._d)


@pytest.mark.parametrize("field", FIELDS)
def test_operands_of_the_wrong_width_are_refused(field):
    a = group_algebra(3, field).as_algebra()
    eye = Matrix.identity(field, 3)
    narrow = Matrix.identity(field, 2)
    for left, right in ((narrow, eye), (eye, narrow), (narrow, narrow)):
        with pytest.raises(ValueError, match=f"width {left.cols} and {right.cols} in a 3-dim"):
            pairwise_products(a, left, right)
    for ambient in (2, 4):
        with pytest.raises(ValueError, match=f"K\\^{ambient} in a 3-dim"):
            is_ideal(a, Subspace.full(field, ambient))
    with pytest.raises(ValueError):
        is_ideal(a, Subspace.zero(field, 2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_defect_rows_match_the_tensor_blocks(data):
    f = data.draw(st.sampled_from(FIELDS))
    src = draw_algebra(data, f, data.draw(st.integers(0, 5)))
    tgt = draw_algebra(data, f, data.draw(st.integers(0, 4)))
    m = draw_operand(data, f, src.dim, tgt.dim)  # tgt.dim x src.dim
    lefts = data.draw(st.one_of(st.none(), st.lists(st.integers(0, src.dim - 1), unique=True) if src.dim else st.none()))
    fm = SparseMap.from_matrix(m, (src.dim,), (tgt.dim,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "_BLOCK", data.draw(st.sampled_from([1, 7, 2**13])))
        got = tensors.difference_map(*alg_mod._defect_pipelines(src, tgt, fm, lefts))
    want = defect_rows_by_tensor(src, tgt, m, lefts)
    assert got.shape == want.shape and np.array_equal(got.dense()._d, want)


def test_trace_form_matches_the_tensor_product():
    seen = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        f = data.draw(st.sampled_from(FIELDS))
        a = draw_algebra(data, f, data.draw(st.integers(0, 6)))
        got, dense = with_branch(trace_form, a)
        assert got._d.dtype == _dtype(f)
        assert np.array_equal(got._d, trace_form_by_tensor(a))
        # the join makes sum over (y, x) of c(y, x) c(x, y) terms, c(y, x)
        # the constants of e_y e_x
        c = (tensor_of(a) != 0).sum(axis=0)
        assert dense == (int((c * c.T).sum()) >= a.dim**3)
        seen.add(dense)

    check()
    assert seen == {False, True}


def group_algebra_in_random_basis(n, f):
    """k[Z_n] in the basis b = P e for a seeded random invertible P:
    T_b[r, t] = sum P[r, s] P[t, u] T[s, u] P^-1.  Nearly every structure
    constant is nonzero, as for any algebra in a non-monomial basis."""
    rng = np.random.default_rng(0)
    while True:
        p = Matrix(f, n, n, [[f.from_int(int(x)) for x in row] for row in rng.integers(0, 5, (n, n))])
        if p.rank() == n:
            break
    inv = p.inverse()._d
    t = _matmul(f, p._d, tensor_of(group_algebra(n, f).as_algebra()).reshape(n, n * n))  # (r, (u, k))
    t = _matmul(f, p._d, t.reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n))  # (t, (r, k))
    t = _matmul(f, t.reshape(n, n, n).transpose(1, 0, 2).reshape(n * n, n), inv).reshape(n, n, n)
    mul = {(r, c): {k: t[r, c, k] for k in range(n) if t[r, c, k] != 0} for r in range(n) for c in range(n)}
    return AlgebraObject(f, n, mul, list(inv[0]))  # e_0 = sum P^-1[0, l] b_l


@pytest.mark.parametrize("field", FIELDS)
def test_trace_form_of_dense_constants_takes_the_dense_product(field):
    n = 9
    dense = group_algebra_in_random_basis(n, field)
    assert dense.validate().ok
    ci, cj, ck, _ = dense.constants()
    c = np.zeros((n, n), dtype=np.int64)
    np.add.at(c, (cj, ck), 1)
    assert (c * c.T).sum() >= n**3
    got, took_dense = with_branch(trace_form, dense)
    assert took_dense and np.array_equal(got._d, trace_form_by_tensor(dense))
    monomial = group_algebra(n, field).as_algebra()
    got, took_dense = with_branch(trace_form, monomial)
    assert not took_dense and np.array_equal(got._d, trace_form_by_tensor(monomial))


def _builtin(kind, f):
    if kind == "group":
        return group_algebra(4, f).as_algebra()
    if kind == "h4":
        return sweedler_h4(f).as_algebra()
    return taft(3, f.primitive_root_of_unity(3), f).as_algebra()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_constants_match_the_tensor_entries(data):
    f, kind = data.draw(st.sampled_from([(GF(7), "taft"), (GF(7), "group"), (GF(2**61 - 1), "group"),
                                         (QQ, "h4"), (QQ, "group"), (GF(2), "group")]))
    a = _builtin(kind, f)
    which = data.draw(st.sampled_from(["generated", "zero", "full"]))
    if which == "zero":
        s = Subspace.zero(f, a.dim)
    elif which == "full":
        s = Subspace.full(f, a.dim)
    else:
        col = [f.from_int(data.draw(st.integers(-2, 2))) for _ in range(a.dim)]
        s = ideal_generated_by(a, Matrix.column(f, col)).subspace
    q, _ = quotient_algebra(a, s)
    want = quotient_constants_by_tensor(a, s)
    got = np.full(want.shape, f.zero(), dtype=want.dtype)
    for (i, j), col in q.mul.items():
        for k, c in col.items():
            got[i * q.dim + j, k] = c
    assert np.array_equal(got, want)


def _builtins():
    out = [group_algebra(1, GF(7)).as_algebra(), group_algebra(5, QQ).as_algebra(),
           sweedler_h4(QQ).as_algebra(), sweedler_h4(GF(2**61 - 1)).as_algebra()]
    for n, p in ((3, 7), (4, 13), (5, 11)):
        f = GF(p)
        out.append(taft(n, f.primitive_root_of_unity(n), f).as_algebra())
    return out


def _same_map(got, want):
    assert (got.in_dims, got.out_dims, got.ones) == (want.in_dims, want.out_dims, want.ones)
    assert np.array_equal(got.starts, want.starts)
    assert got.dst.dtype == want.dst.dtype and np.array_equal(got.dst, want.dst)
    assert got.values.num.dtype == want.values.num.dtype and np.array_equal(got.values.num, want.values.num)


@pytest.mark.parametrize("a", _builtins(), ids=lambda a: f"{a.field}-{a.dim}")
def test_mul_map_matches_the_multiplication_matrix_on_builtins(a):
    n = a.dim
    _same_map(a.mul_map(), SparseMap.from_matrix(a.mul_matrix(), (n, n), (n,)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mul_map_matches_the_multiplication_matrix(data):
    f = data.draw(st.sampled_from(FIELDS))
    a = draw_algebra(data, f, data.draw(st.integers(0, 6)))
    n = a.dim
    _same_map(a.mul_map(), SparseMap.from_matrix(a.mul_matrix(), (n, n), (n,)))
