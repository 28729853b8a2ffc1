"""Exact linear algebra: canonical RREF, solving, kernels, subspaces."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsplit import linalg
from hopfsplit.category import MapSolver
from hopfsplit.fields import GF, QQ
from hopfsplit.linalg import (
    _CHUNK,
    _PRIMES,
    InconsistentSystem,
    Matrix,
    SparseMap,
    Subspace,
    _matmul,
    kernel_from_rref,
    particular_from_rref,
    solve_linear,
    subspace_ops,
)


def test_identity_solve():
    a = Matrix.identity(QQ, 2)
    x, ker = solve_linear(a, Matrix.column(QQ, [Fraction(1), Fraction(0)]))
    assert x == [Fraction(1), Fraction(0)]
    assert ker.rows == 0


def test_zero_inconsistent():
    a = Matrix.zeros(QQ, 1, 1)
    with pytest.raises(InconsistentSystem):
        a.solve(Matrix.column(QQ, [Fraction(1)]))


def test_mod7_inverse():
    # 3 x = 1 over F_7: oracle by modular inverse enumeration
    f = GF(7)
    oracle = next(t for t in range(7) if (3 * t) % 7 == 1)
    assert oracle == 5
    a = Matrix.from_rows(f, [[3]])
    x = a.solve(Matrix.column(f, [1]))
    assert x == [5]


def test_rref_canonical_both_backends():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    for field in (QQ, GF(7)):
        m = Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])
        r, piv = m.rref()
        assert piv == [0, 1]
        assert r.rows == 2
        # pivots scaled to one, pivot columns cleared
        assert field.is_one(r[0, 0]) and field.is_one(r[1, 1])
        assert field.is_zero(r[0, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=5))
def test_rank_nullity_qq(rows):
    m = Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])
    assert m.rank() + m.kernel().rows == m.cols


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=1, max_size=6))
def test_kernel_annihilates_gf5(rows):
    f = GF(5)
    m = Matrix.from_rows(f, rows)
    ker = m.kernel()
    for i in range(ker.rows):
        assert all(v == 0 for v in m.apply(ker.row_list(i)))


def test_solve_verified_by_multiplication():
    rng = random.Random(7)
    f = GF(11)
    for _ in range(25):
        rows = [[rng.randrange(11) for _ in range(4)] for _ in range(3)]
        a = Matrix.from_rows(f, rows)
        xs = [rng.randrange(11) for _ in range(4)]
        b = Matrix.column(f, a.apply(xs))
        x, ker = solve_linear(a, b)
        assert a.apply(x) == b.col_list(0)
        for i in range(ker.rows):
            assert all(v == 0 for v in a.apply(ker.row_list(i)))


def test_subspace_lattice():
    f = QQ
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    u = Subspace.from_vectors(f, 2, [e1])
    v = Subspace.from_vectors(f, 2, [e2])
    assert (u + v).dim == 2
    assert u.intersect(u) == u
    assert subspace_ops("sum", u, v) == subspace_ops("sum", v, u)
    assert subspace_ops("contains", u + v, u)
    full = Subspace.full(f, 2)
    comp = u.quotient_complement(full)
    assert comp.rows == 1 and comp.row_list(0) == e2
    # complement really completes u to the full space
    assert (u + Subspace.from_matrix_rows(comp)).dim == 2


def test_quotient_complement_requires_containment():
    f = QQ
    u = Subspace.from_vectors(f, 2, [[Fraction(1), Fraction(0)]])
    v = Subspace.from_vectors(f, 2, [[Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        u.quotient_complement(v)


def test_intersection_nontrivial():
    f = GF(5)
    u = Subspace.from_vectors(f, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_vectors(f, 3, [[0, 1, 0], [0, 0, 1]])
    w = u.intersect(v)
    assert w.dim == 1
    assert w.contains_vector([0, 1, 0])


def test_inverse_round_trip():
    f = GF(13)
    m = Matrix.from_rows(f, [[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(f, 3)
    assert inv @ m == Matrix.identity(f, 3)


def test_large_prime_python_backend():
    p = 2**61 - 1  # Mersenne prime beyond the numpy fast path
    f = GF(p)
    m = Matrix.from_rows(f, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(f, 2)


def _reference_rref(f, rows):
    # plain single-pass Gauss-Jordan elimination with the field's own ops
    rows = [list(r) for r in rows]
    piv = []
    r = 0
    for c in range(len(rows[0])):
        k = next((i for i in range(r, len(rows)) if not f.is_zero(rows[i][c])), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not f.is_zero(rows[i][c]):
                q = rows[i][c]
                rows[i] = [f.sub(x, f.mul(q, y)) for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    return [rows[i] for i in range(r)], piv


def test_chunked_rref_matches_reference():
    # rows are reduced in chunks; the result must be the canonical RREF,
    # identical to a plain single-pass elimination
    for field in (QQ, GF(7), GF(2**61 - 1)):
        rng = random.Random(12345)
        rows = [[field.from_int(rng.randrange(-3, 7)) for _ in range(9)] for _ in range(3000)]
        got, piv = Matrix.from_rows(field, rows).rref()
        ref, refpiv = _reference_rref(field, rows)
        assert piv == refpiv
        assert got.to_rows() == ref


@st.composite
def _rref_inputs(draw):
    """Random low-rank, often sparse, sometimes taller than one chunk, with
    zero and duplicate rows and a first row scaled off a unit pivot."""
    field = draw(st.sampled_from([QQ, GF(7), GF(32749), GF(2**61 - 1)]))
    n = draw(st.integers(1, 7))
    rank = draw(st.integers(0, n))
    m = draw(st.sampled_from([1, 2, 3, 17, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 5]))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # integer product of an m x rank and a rank x n matrix, small enough to be exact
    coeff = rng.integers(-3, 4, size=(m, rank)) * (rng.random((m, rank)) < density)
    basis = rng.integers(-3, 4, size=(rank, n)) * (rng.random((rank, n)) < density)
    a = coeff @ basis
    a[rng.random(m) < 0.2] = 0
    dup = rng.random(m) < 0.2
    a[dup] = a[rng.integers(0, m, size=int(dup.sum()))]
    a[0] *= 2
    # a right-hand side in the column space half of the time: a pivot in the
    # last column would hide rows of it paired with the wrong rows of a
    b = a @ rng.integers(-3, 4, size=n) if draw(st.booleans()) else rng.integers(-3, 4, size=m)
    rows = [[field.from_int(int(x)) for x in r] for r in a]
    rhs = [[field.from_int(int(x))] for x in b]
    return field, rows, rhs


@settings(max_examples=40, deadline=None)
@given(_rref_inputs())
def test_streamed_rref_matches_reference(case):
    field, rows, rhs = case
    m = Matrix.from_rows(field, rows)
    got, piv = m.rref()
    ref, refpiv = _reference_rref(field, rows)
    assert piv == refpiv
    assert got.to_rows() == ref
    # the right-hand side streamed chunk by chunk equals the stacked system
    b = Matrix.from_rows(field, rhs)
    aug, augpiv = m.rref(b)
    assert (aug, augpiv) == m.hstack(b).rref()
    assert aug.to_rows() == _reference_rref(field, [r + s for r, s in zip(rows, rhs)])[0]
    if m.cols not in augpiv:
        x = m.solve(b)
        assert m.apply(x) == b.col_list(0)
    # the same system as COO arrays, every entry split in two summands, the
    # rhs as one more column
    r, c = np.nonzero(np.array([[not field.is_zero(x) for x in row] for row in rows], dtype=bool).reshape(len(rows), -1))
    vals = [rows[i][j] for i, j in zip(r, c)]
    halves = [field.sub(v, field.one()) for v in vals]
    r, c, v = np.concatenate([r, r]), np.concatenate([c, c]), np.array(halves + [field.one()] * len(vals), dtype=object)
    br = np.array([i for i, x in enumerate(b.col_list(0)) if not field.is_zero(x)], dtype=np.int64)
    bv = np.array([b[i, 0] for i in br.tolist()], dtype=object)
    coo = SparseMap(field, (m.rows,), (m.cols + 1,), np.concatenate([r, br]),
                    np.concatenate([c, np.full(br.size, m.cols)]), np.concatenate([v, bv]))
    red, piv = coo.rref()
    assert (red.to_rows(), piv) == (aug.to_rows(), augpiv)
    red, piv = SparseMap(field, (m.rows,), (m.cols,), r, c, v).rref()
    assert kernel_from_rref(m.cols, red, piv) == m.kernel()
    if m.cols not in augpiv:
        assert particular_from_rref(m.cols, aug, augpiv) == m.solve(b)
    else:
        with pytest.raises(InconsistentSystem):
            particular_from_rref(m.cols, aug, augpiv)


def test_complement_projection_matches_per_vector_reduction():
    rng = random.Random(2024)
    for field in (QQ, GF(7)):
        for _ in range(20):
            n = rng.randrange(1, 8)
            vecs = [[field.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(rng.randrange(0, n + 2))]
            s = Subspace.from_vectors(field, n, vecs)
            free = [j for j in range(n) if j not in s.pivots]
            proj = s.complement_projection()
            assert (proj.rows, proj.cols) == (len(free), n)
            for j in range(n):
                # reduce e_j against the RREF rows, then read the free coordinates
                e_j = [field.one() if k == j else field.zero() for k in range(n)]
                v = e_j
                for t, pc in enumerate(s.pivots):
                    c = v[pc]
                    v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, s.basis.row_list(t))]
                assert proj.col_list(j) == [v[k] for k in free]
                assert s.reduce_vector(e_j) == v


def test_quotient_basis_returns_subspace():
    f = QQ
    u = Subspace.from_vectors(f, 3, [[Fraction(1), Fraction(0), Fraction(0)]])
    full = Subspace.full(f, 3)
    comp = subspace_ops("quotient_basis", u, full)
    assert isinstance(comp, Subspace)
    assert comp.dim == 2
    assert (u + comp).dim == 3


@st.composite
def _coordinate_inputs(draw):
    """A random subspace and rows of which some lie in it and some may not."""
    field = draw(st.sampled_from([QQ, GF(7), GF(65537), GF(2**61 - 1)]))
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def vec():
        return [field.from_int(rng.choice([0, 0, 1, -1, 2, rng.randrange(-50, 50)])) for _ in range(n)]

    sub = Subspace.from_vectors(field, n, [vec() for _ in range(draw(st.integers(0, n)))])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if sub.dim and draw(st.booleans()):
            c = [field.from_int(rng.randrange(-3, 4)) for _ in range(sub.dim)]
            rows.append(Matrix.row(field, c) @ sub.basis)
        else:
            rows.append(Matrix.row(field, vec()))
    m = rows[0]
    for r in rows[1:]:
        m = m.vstack(r)
    return field, sub, m


@settings(max_examples=80, deadline=None)
@given(_coordinate_inputs())
def test_coordinates_match_rank_reference(case):
    field, sub, m = case
    inside = [sub.basis.vstack(m._new(1, m.cols, m._d[t : t + 1])).rank() == sub.dim for t in range(m.rows)]
    coords = sub.dense_coordinates(m)
    # the same rows as a matrix of rows: the join gives the same answer
    assert sub.coordinates(SparseMap.from_rows(m)) == coords
    assert sub.contains_rows(SparseMap.from_rows(m)) == all(inside)
    if all(inside):
        assert coords is not None and (coords.rows, coords.cols) == (m.rows, sub.dim)
        assert coords @ sub.basis == m
    else:
        assert coords is None
    for t in range(m.rows):
        assert sub.contains_vector(m.row_list(t)) == inside[t]
    assert sub.contains(Subspace.from_matrix_rows(m)) == all(inside)
    # a row of the wrong length is a caller's error, never "not inside"
    for width in (m.cols - 1, m.cols + 1):
        with pytest.raises(ValueError):
            sub.dense_coordinates(Matrix.zeros(field, 1, width))
        with pytest.raises(ValueError):
            sub.coordinates(SparseMap.from_rows(Matrix.zeros(field, 1, width)))
        with pytest.raises(ValueError):
            sub.contains_rows(SparseMap.from_rows(Matrix.zeros(field, 1, width)))
        with pytest.raises(ValueError):
            sub.contains_vector([field.zero()] * width)


@pytest.mark.parametrize("field", [QQ, GF(2**61 - 1)])
def test_object_matmul_skips_zeros_and_matches_plain_product(field):
    rng = np.random.default_rng(5)
    shapes = [(1, 1, 1), (1, 2, 2), (2, 4, 2), (1, 16, 1), (3, 5, 7), (12, 9, 1), (20, 30, 25), (4, 0, 3)]
    for m, k, n in shapes:
        for density in (0.0, 0.1, 0.5, 1.0):
            a = (rng.integers(-9, 10, (m, k)) * (rng.random((m, k)) < density)).astype(object)
            b = (rng.integers(-9, 10, (k, n)) * (rng.random((k, n)) < density)).astype(object)
            if field.kind == "Q":
                a = np.vectorize(Fraction, otypes=[object])(a) if a.size else a
                b = np.vectorize(lambda x: Fraction(x, 3), otypes=[object])(b) if b.size else b
            a, b = field.reduce(a), field.reduce(b)
            got = _matmul(field, a, b)
            assert got.shape == (m, n)
            assert got.tolist() == field.reduce(a @ b if k else np.zeros((m, n), dtype=object)).tolist()


def test_matmul_float_path_stops_at_the_exactness_bound():
    # p is the largest prime below 2^26: 2 (p-1)^2 < 2^53 <= 3 (p-1)^2, so
    # inner dimension 2 is the last one computed in float64
    p = 67108859
    f = GF(p)
    assert 2 * (p - 1) ** 2 < 2**53 <= 3 * (p - 1) ** 2
    rng = np.random.default_rng(3)
    for k in (2, 3):
        a = rng.integers(p - 50, p, (4, k))
        b = rng.integers(p - 50, p, (k, 5))
        a[0] = b[:, 0] = p - 2  # entry (0, 0) is k (p-2)^2, odd
        want = [[sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p for j in range(5)] for i in range(4)]
        assert _matmul(f, a, b).tolist() == want
    # past the bound float64 rounds: the int64 path above is what makes k = 3 exact
    big = 3 * (p - 2) ** 2
    assert int(np.float64(p - 2) ** 2 * 3) != big


# -- modular elimination of sparse matrices over Q ---------------------------


def _coo_split(rows, rng):
    """The COO arrays of a dense list of rows, each nonzero entry written as
    two or three summands (duplicates add up)."""
    r, c, v = [], [], []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x == 0:
                continue
            parts = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rng.randrange(0, 2))]
            for part in parts + [x - sum(parts, Fraction(0))]:
                r.append(i)
                c.append(j)
                v.append(part)
    return np.array(r, dtype=np.int64), np.array(c, dtype=np.int64), np.array(v, dtype=object)


def _sparse_rows(rows, cols, rng):
    """The rows as a SparseMap summed from split entries."""
    return SparseMap(QQ, (len(rows),), (cols,), *_coo_split(rows, rng))


@st.composite
def _modular_inputs(draw):
    """A = C B over Q of a drawn rank, with zero rows and (in the "big"
    case) entries and fractions past 2^16, so one prime cannot lift them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    rank = min(n, draw(st.integers(0, 4)))  # rank 0: all-zero input
    m = draw(st.sampled_from([1, 2, 5, 13, 40]))
    big = draw(st.booleans())

    def entry():
        if big:
            return Fraction(rng.randrange(-2**24, 2**24), rng.choice([1, 1, 3, 2**17 + 29]))
        return Fraction(rng.choice([0, 0, 1, -1, 2, rng.randrange(-9, 10)]), rng.choice([1, 1, 2, 3]))

    basis = [[entry() for _ in range(n)] for _ in range(rank)]
    coeff = [[Fraction(rng.randrange(-3, 4)) if rng.random() < 0.7 else Fraction(0) for _ in range(rank)] for _ in range(m)]
    rows = [[sum((c * b[j] for c, b in zip(cr, basis)), Fraction(0)) for j in range(n)] for cr in coeff]
    if draw(st.booleans()):  # consistent
        x = [entry() for _ in range(n)]
        rhs = [[sum((a * y for a, y in zip(row, x)), Fraction(0))] for row in rows]
    else:
        rhs = [[entry()] for _ in range(m)]
    return rows, rhs, rng


@settings(max_examples=60, deadline=None)
@given(_modular_inputs())
def test_modular_rref_matches_reference(case):
    rows, rhs, rng = case
    n = len(rows[0])
    for dense in (rows, [r + s for r, s in zip(rows, rhs)]):
        red, piv = _sparse_rows(dense, len(dense[0]), rng).rref()
        ref, refpiv = _reference_rref(QQ, dense)
        assert piv == refpiv
        assert red.to_rows() == ref
        assert all(type(x) is Fraction for x in red._d.flat)


def test_modular_rref_of_all_zero_and_empty_input():
    for rows in ([[Fraction(0)] * 3] * 4, [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]):
        r = [i for i, row in enumerate(rows) for _ in row] * 2
        c = [j for row in rows for j in range(len(row))] * 2
        v = [x for row in rows for x in row] + [-x for row in rows for x in row]
        coo = SparseMap(QQ, (len(rows),), (len(rows[0]),), np.array(r), np.array(c), np.array(v, dtype=object))
        red, piv = coo.rref()
        assert ((red.rows, red.cols), piv) == ((0, len(rows[0])), [])
    none = np.zeros(0, dtype=np.int64)
    empty = SparseMap(QQ, (0,), (2,), none, none, np.zeros(0, dtype=object))
    assert empty.rref()[1] == []


def _record_primes(monkeypatch):
    """The field of every sparse elimination (each image mod p, and the
    Fraction front end), in order."""
    seen = []
    rref_sparse = linalg._rref_sparse

    def spy(a):
        seen.append(a.field)
        return rref_sparse(a)

    monkeypatch.setattr(linalg, "_rref_sparse", spy)
    return seen


def _record_certificates(monkeypatch):
    verdicts = []
    certified = linalg._certified

    def spy(*args):
        verdicts.append(certified(*args))
        return verdicts[-1]

    monkeypatch.setattr(linalg, "_certified", spy)
    return verdicts


def _column_of_multiples(p):
    # column 0 is p times a column independent of the others: over Q the
    # rank is 3, mod p column 0 vanishes and the image has rank 2
    rows = [[Fraction(p * x), Fraction(y, 2), Fraction(z)] for x, y, z in
            ((1, 1, 0), (2, 0, 1), (0, 1, 1), (3, 1, 1), (1, 2, 2))]
    return rows + [[Fraction(0), Fraction(1, 2), Fraction(1)]]


def test_certificate_rejects_a_prime_that_drops_a_pivot(monkeypatch):
    rows = [r[:2] + [Fraction(0)] + r[2:] for r in _column_of_multiples(_PRIMES[0])]
    rows = [r + [r[1] + 3 * r[3]] for r in rows]  # a dependent column: R != I
    seen, verdicts = _record_primes(monkeypatch), _record_certificates(monkeypatch)
    red, piv = _sparse_rows(rows, 5, random.Random(1)).rref()
    assert (red.to_rows(), piv) == _reference_rref(QQ, rows)
    assert [f.p for f in seen] == list(_PRIMES[:2])
    assert verdicts == [False, True]
    assert piv == [0, 1, 3]


def test_fraction_kernel_answers_when_every_prime_fails(monkeypatch):
    rows = _column_of_multiples(_PRIMES[0])
    rows = [r + [r[0] - r[2]] for r in rows]
    monkeypatch.setattr(linalg, "_PRIMES", _PRIMES[:1])
    seen = _record_primes(monkeypatch)
    red, piv = _sparse_rows(rows, 4, random.Random(2)).rref()
    assert (red.to_rows(), piv) == _reference_rref(QQ, rows)
    assert seen[0] == GF(_PRIMES[0]) and seen[-1] == QQ


def test_prime_dividing_a_denominator_is_used(monkeypatch):
    # the images are those of the integer matrix d A (d the common
    # denominator), so a prime dividing a denominator is tried like any
    # other: here it drops pivot 0 of d A, and later primes lift R
    p = _PRIMES[0]
    rows = [[Fraction(1), Fraction(2, p), Fraction(1, 3)], [Fraction(2), Fraction(1, p), Fraction(5)],
            [Fraction(3), Fraction(3, p), Fraction(16, 3)]]
    verdicts = _record_certificates(monkeypatch)
    images = []
    rref_sparse = linalg._rref_sparse

    def spy(a):
        images.append((a.field, [x for x in a.values.num.tolist() if x]))
        return rref_sparse(a)

    monkeypatch.setattr(linalg, "_rref_sparse", spy)
    red, piv = _sparse_rows(rows, 3, random.Random(3)).rref()
    assert (red.to_rows(), piv) == _reference_rref(QQ, rows)
    # d = 3 p: the image mod p keeps only column 1, (6, 3, 9)
    assert images[0] == (GF(p), [6, 3, 9])
    assert [f for f, _ in images] == [GF(q) for q in _PRIMES[: len(images)]]
    assert verdicts[0] is False and verdicts[-1] is True  # certified, so no Fraction fallback


def test_modular_rref_lifts_large_entries_by_crt(monkeypatch):
    # RREF entries with numerators and denominators near 2^40 need at least
    # three primes of 31 bits before rational reconstruction can succeed
    big = Fraction(2**40 + 15, 2**39 + 7)
    rows = [[Fraction(1), Fraction(0), big], [Fraction(0), Fraction(3), 1 / big], [Fraction(2), Fraction(3), 2 * big + 1 / big]]
    seen = _record_primes(monkeypatch)
    aug = [r + [b] for r, b in zip(rows, [big, Fraction(1), 2 * big + 1])]
    red, piv = _sparse_rows(aug, 4, random.Random(4)).rref()
    assert (red.to_rows(), piv) == _reference_rref(QQ, aug)
    assert len(seen) >= 3 and QQ not in seen


@st.composite
def _integer_path_inputs(draw):
    """A sparse Q system A = C B (C with identity rows on top, so every row
    of B is a row of A), maybe rank deficient, its entries written with
    split and cancelling duplicates, and a rhs half of the time.  "scaled"
    multiplies each row by a rational with numerator and denominator past
    2^63: d A then needs python ints, and the RREF stays that of B.  "huge"
    draws B itself past 2^63, where no prime may certify."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["small", "scaled", "huge"]))
    n = draw(st.integers(1, 7))
    rank = draw(st.integers(0, n))
    m = rank + draw(st.integers(1, 12))

    def entry(bits):
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randrange(-2**bits, 2**bits), rng.randrange(1, 2**bits))

    basis = [[entry(66 if kind == "huge" else 2) for _ in range(n)] for _ in range(rank)]
    coeff = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    coeff += [[Fraction(rng.randrange(-2, 3)) for _ in range(rank)] for _ in range(m - rank)]
    rows = [[sum((c * b[j] for c, b in zip(cr, basis)), Fraction(0)) for j in range(n)] for cr in coeff]
    if kind == "scaled":  # one scale per row, so the row space is B's
        scales = [Fraction(rng.randrange(2**64, 2**70), rng.randrange(2**64, 2**70)) for _ in rows]
        rows = [[x * s for x in row] for row, s in zip(rows, scales)]
    r, c, v = _coo_split(rows, rng)
    # cancelling pairs, some on entries that are zero
    for _ in range(rng.randrange(4)):
        i, j, x = rng.randrange(m), rng.randrange(n), entry(70)
        r, c, v = np.append(r, [i, i]), np.append(c, [j, j]), np.append(v, np.array([x, -x], dtype=object))
    cols = n
    if draw(st.booleans()):  # a rhs, as one more column
        cols += 1
        rhs = [entry(70) for _ in range(m)]
        at = np.array([i for i, x in enumerate(rhs) if x], dtype=np.int64)
        r, c = np.append(r, at), np.append(c, np.full(at.size, n))
        v = np.append(v, np.array([rhs[i] for i in at.tolist()], dtype=object))
    return (m, cols), (r, c, v), kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_integer_path_inputs())
def test_integer_modular_rref_matches_fraction_kernel(case):
    shape, raw, kind = case
    a = SparseMap(QQ, shape[:1], shape[1:], *raw)
    ref, refpiv = _chunked_reference(QQ, shape, *raw)
    out = linalg._rref_modular(a)
    if kind != "huge":
        assert out is not None
    if out is not None:
        red, piv = out
        assert piv == refpiv and red.tolist() == ref.tolist()
        assert all(type(x) is Fraction for x in red.flat)
    red, piv = a.rref()
    assert piv == refpiv and red.to_rows() == ref.tolist()


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1), GF(2**61 - 1)])
def test_certificate_fails_when_one_off_pivot_entry_of_r_changes(field):
    # A = C R with R a canonical RREF and every row of R among A's rows:
    # the certificate accepts R and rejects R with any one off-pivot entry
    # changed, through `_certified` on numerators and `Subspace.coordinates`
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 8)
        rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(rng.randrange(1, n))]
        if field.kind == "Q":
            rows = [[x / rng.randrange(1, 4) for x in row] for row in rows]
        red, piv = Matrix.from_rows(field, rows).rref()
        # the entries an RREF may hold off its pivot columns
        spots = [(t, j) for t in range(len(piv)) for j in range(piv[t] + 1, n) if j not in piv]
        if not spots:
            continue
        coeff = np.array([[field.from_int(rng.randrange(-2, 3)) for _ in range(red.rows)] for _ in range(5)],
                         dtype=red._d.dtype)
        a = SparseMap.from_rows(red).vstack(SparseMap.from_rows(Matrix(field, 5, red.rows, coeff) @ red))
        t, j = rng.choice(spots)
        off = np.ones(n, dtype=bool)
        off[piv] = False
        for bump in (field.zero(), field.one(), field.from_int(rng.randrange(2, 5))):
            r = red._d.copy()
            r[t, j] = field.reduce(r[t, j] + bump)
            ti, tj = ((r != 0) & off).nonzero()
            ok = linalg._certified(a, (ti, tj, linalg.Numerators.of(field, r[ti, tj])), piv)
            sub = Subspace(n, Matrix(field, len(piv), n, r, _raw=True), piv)
            assert ok is (bump == 0) is (sub.coordinates(a) is not None)


# -- the sparse front end of SparseMap.rref ----------------------------------


def _chunked_reference(field, shape, rr, cc, vv):
    """Reference: the RREF of the matrix of shape with COO entries (rr, cc,
    vv), repeated and in any order, as the streamed kernel gave it before
    any sparse front end.  Chunks of rows are densified with duplicate
    entries added up, reduced, stripped of zero rows and eliminated stacked
    under the RREF so far, over Q in Fractions."""
    dtype = linalg._dtype(field)
    r = np.zeros((0, shape[1]), dtype=dtype)
    pivs = []
    for s in range(0, shape[0], _CHUNK):
        e = min(s + _CHUNK, shape[0])
        c = np.full((e - s, shape[1]), field.zero(), dtype=dtype)
        at = (rr >= s) & (rr < e)
        np.add.at(c, (rr[at] - s, cc[at]), field.reduce(np.asarray(vv, dtype=dtype)[at]))
        c = field.reduce(c)
        c = c[c.any(axis=1)]
        if c.shape[0]:
            r, pivs = linalg._gauss_jordan(np.vstack([r, c]) if pivs else c, field)
    return r, pivs


_FRONT_END_FIELDS = [GF(2), GF(7), GF(15013), GF(2**31 - 1), GF(2**61 - 1), QQ]


@st.composite
def _front_end_inputs(draw):
    """A sparse system of one of seven shapes, written as COO arrays in
    shuffled order with split and cancelling entries, and maybe a rhs:

    - "random": sparse rows of a random low-rank product;
    - "duplicates": few distinct rows, each repeated with nonzero scalings;
    - "zero": every entry cancels;
    - "deficient": rows spanning a smaller space, one of them repeated with
      a rhs off its multiple, so the system is inconsistent;
    - "chain": e_j0 and rows x_jk + c x_j(k+1) along a permutation, so each
      deleted singleton column makes the next row a singleton;
    - "doubletons": rows a x_j + b x_k on the edges of a random graph, with
      chains, stars and cycles (a cycle may close consistently or make a
      singleton), and a few longer rows;
    - "solver": random low-rank rows given as `MapSolver` gets them, in
      blocks whose entries repeat in cancelling pairs in shuffled order,
      the rhs per block, and read back through `MapSolver._rows`.

    The summing constructor (or the solver) makes the SparseMap; the raw
    entries, the rhs among them as the last column, go to the reference.
    """
    field = draw(st.sampled_from(_FRONT_END_FIELDS))
    kind = draw(st.sampled_from(["random", "duplicates", "zero", "deficient", "chain", "doubletons", "solver"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    with_rhs = kind == "deficient" or draw(st.booleans())

    def scalar(nonzero=False):
        while True:
            x = (Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3])) if field.kind == "Q"
                 else rng.choice([1, field.p - 1, rng.randrange(field.p)]))
            if x or not nonzero:
                return x

    def sparse_row():
        return [scalar() if rng.random() < 0.35 else field.zero() for _ in range(n + 1)]

    if kind == "chain":
        perm = rng.sample(range(n), n)
        rows = [[field.zero()] * (n + 1) for _ in range(n)]
        rows[0][perm[0]] = scalar(nonzero=True)
        for k in range(1, n):
            rows[k][perm[k - 1]], rows[k][perm[k]] = scalar(), scalar(nonzero=True)
        for row in rows:
            row[n] = scalar()
        rows += [sparse_row() for _ in range(rng.randrange(3))]
    elif kind == "doubletons":
        rows = []
        for _ in range(rng.randrange(1, 3 * n + 2)):
            row = [field.zero()] * (n + 1)
            unit = rng.choice([field.one(), field.neg(field.one())])
            for j in rng.sample(range(n + 1), min(n + 1, 2 if rng.random() < 0.85 else 3)):
                row[j] = scalar(nonzero=True) if rng.random() < 0.5 else unit
            rows.append(row)
    elif kind == "duplicates":
        base = [sparse_row() for _ in range(rng.randrange(1, 4))]
        rows = [[field.mul(c, x) for x in rng.choice(base)]
                for c in (scalar(nonzero=True) for _ in range(rng.randrange(1, 30)))]
    elif kind == "zero":
        rows = [[field.zero()] * (n + 1) for _ in range(rng.randrange(1, 6))]
    else:
        rank = rng.randrange(1, n + 1) if kind == "random" else rng.randrange(0, n)
        base = [sparse_row() for _ in range(rank)]
        rows = []
        for _ in range(rng.randrange(1, 25)):
            row = [field.zero()] * (n + 1)
            for b in base:
                c = scalar()
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
            rows.append(row)
        if kind == "deficient":
            k = rng.randrange(len(rows))
            c = scalar(nonzero=True)
            rows.append([field.mul(c, x) for x in rows[k][:n]] + [field.add(field.mul(c, rows[k][n]), field.one())])
    rng.shuffle(rows)
    width = n + 1 if with_rhs else n  # the rhs is the last column
    r, c, v = [], [], []
    if kind == "solver":
        # blocks of a MapSolver over F : K^n -> K, each with its entries
        # repeated (cancelling pairs) and shuffled and its rhs given apart
        solver = MapSolver(field, n, 1)
        for lo in range(0, len(rows), 4):
            block = rows[lo : lo + 4]
            ents = [(i, j, x) for i, row in enumerate(block) for j, x in enumerate(row[:n]) if not field.is_zero(x)]
            for i, j, _ in list(ents):
                y = scalar()
                ents += [(i, j, y), (i, j, field.neg(y))]
            rng.shuffle(ents)
            br, bc, bv = (np.array([e[k] for e in ents], dtype=np.int64 if k < 2 else object) for k in range(3))
            solver.add_coo(br, bc, bv, len(block), [row[n] for row in block])
            r += [lo + e[0] for e in ents]
            c += [e[1] for e in ents]
            v += [e[2] for e in ents]
        if with_rhs:
            at = [i for i, row in enumerate(rows) if not field.is_zero(row[n])]
            r, c, v = r + at, c + [n] * len(at), v + [rows[i][n] for i in at]
        order = list(range(len(v)))
    else:
        # COO entries: every nonzero split in summands, plus cancelling pairs
        for i, row in enumerate(rows):
            for j, x in enumerate(row[:width]):
                terms = [] if field.is_zero(x) else [x]
                if terms and rng.random() < 0.5:
                    y = scalar()
                    terms = [field.sub(x, y), y]
                if rng.random() < 0.2:
                    y = scalar()
                    terms += [y, field.neg(y)]
                r += [i] * len(terms)
                c += [j] * len(terms)
                v += terms
        order = rng.sample(range(len(v)), len(v))
    raw = np.array(r, dtype=np.int64)[order], np.array(c, dtype=np.int64)[order], np.array(v, dtype=object)[order]
    a = solver._rows(rhs=with_rhs) if kind == "solver" else SparseMap(field, (len(rows),), (width,), *raw)
    return field, kind, a, raw, n, draw(st.sampled_from([3, _CHUNK]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_front_end_inputs())
def test_sparse_front_end_matches_chunked_reference(case):
    field, kind, a, raw, n, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK", chunk)
        ref, refpiv = _chunked_reference(field, a.shape, *raw)
        outs = [a.rref()]
        if field.kind == "Q":  # the Fraction front end, which no prime certified
            red, piv = linalg._rref_sparse(a)
            outs.append((Matrix(field, *red.shape, red, _raw=True), piv))
    for red, piv in outs:
        assert piv == refpiv
        assert red._d.dtype == ref.dtype and red._d.shape == ref.shape
        assert red.to_rows() == ref.tolist()
        assert [type(x) for x in red._d.flat] == [type(x) for x in ref.flat]
    if kind == "zero":
        assert refpiv == []
    if kind == "deficient":
        assert refpiv[-1] == n  # the pivot in the rhs column
    if kind == "chain":
        assert refpiv[:n] == list(range(n))
