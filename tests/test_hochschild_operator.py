"""The cached Hochschild operators against the per-cochain loop.

`differential_by_loop` is the loop the operators replaced, kept here as
the reference: it applies b^n to one cochain with list arithmetic over the
basis tuples.  `cohomology_by_loop` builds the coefficient matrix, the
cocycles and the coboundaries from it one cochain at a time.
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dict_reference import pair_product
from hopfsplit.algebra import AlgebraObject
from hopfsplit.builtin import group_algebra
from hopfsplit.category import CatObject, CategoryContext
from hopfsplit.fields import GF, QQ
from hopfsplit.hochschild import AlgebraInContext, BimoduleInContext, cochain_space, cohomology, differential
from hopfsplit.linalg import InconsistentSystem, Matrix, Subspace
from hopfsplit.tensors import StagePipeline, v_basis, v_zero

FIELDS = [QQ, GF(7), GF(2**61 - 1)]


# ---------------------------------------------------------------------------
# the per-cochain reference


def differential_by_loop(actx, mctx, n, f):
    """b^n(f)(a_1 .. a_{n+1}) column by column, degrees 0..2."""
    a = actx.algebra
    fld = a.field
    da, dm = a.dim, mctx.dim
    if n == 0:
        m0 = f.col_list(0)
        cols = {}
        for i in range(da):
            ei = v_basis(fld, da, i)
            col = [fld.sub(x, y) for x, y in zip(mctx.left(ei, m0), mctx.right(m0, ei))]
            for t, c in enumerate(col):
                if not fld.is_zero(c):
                    cols[(t, i)] = c
        return Matrix.from_entries(fld, dm, da, cols)
    if n == 1:
        cols = {}
        for i in range(da):
            fi = f.col_list(i)
            ei = v_basis(fld, da, i)
            for j in range(da):
                fj = f.col_list(j)
                ej = v_basis(fld, da, j)
                col = mctx.left(ei, fj)
                for k, c in pair_product(a, i, j).items():
                    col = [fld.sub(x, fld.mul(c, y)) for x, y in zip(col, f.col_list(k))]
                col = [fld.add(x, y) for x, y in zip(col, mctx.right(fi, ej))]
                for t, c in enumerate(col):
                    if not fld.is_zero(c):
                        cols[(t, i * da + j)] = c
        return Matrix.from_entries(fld, dm, da * da, cols)
    cols = {}
    for i in range(da):
        ei = v_basis(fld, da, i)
        for j in range(da):
            prod_ij = pair_product(a, i, j)
            fij = f.col_list(i * da + j)
            for k in range(da):
                ek = v_basis(fld, da, k)
                col = mctx.left(ei, f.col_list(j * da + k))
                for m, c in prod_ij.items():
                    col = [fld.sub(x, fld.mul(c, y)) for x, y in zip(col, f.col_list(m * da + k))]
                for m, c in pair_product(a, j, k).items():
                    col = [fld.add(x, fld.mul(c, y)) for x, y in zip(col, f.col_list(i * da + m))]
                col = [fld.sub(x, y) for x, y in zip(col, mctx.right(fij, ek))]
                for t, c in enumerate(col):
                    if not fld.is_zero(c):
                        cols[(t, (i * da + j) * da + k)] = c
    return Matrix.from_entries(fld, dm, da * da * da, cols)


def _vec(m):
    return [x for r in range(m.rows) for x in m.row_list(r)]


def cohomology_by_loop(actx, mctx, n):
    """(dimension, representatives, cocycles, coboundaries), one cochain at
    a time; representatives of degree 2 are normalized by the loop's b^1."""
    fld = actx.field
    cs = cochain_space(actx, mctx, n)
    da, dm = actx.dim, mctx.dim
    veclen = dm * da**n
    imgs = [_vec(differential_by_loop(actx, mctx, n, b)) for b in cs.basis]
    ker = Matrix.from_rows(fld, imgs).transpose().kernel()
    cocycles = []
    for t in range(ker.rows):
        acc = v_zero(fld, veclen)
        for c, b in zip(ker.row_list(t), cs.basis):
            acc = [fld.add(x, fld.mul(c, y)) for x, y in zip(acc, _vec(b))]
        cocycles.append(acc)
    z = Subspace.from_vectors(fld, veclen, cocycles)
    prev = [] if n == 0 else cochain_space(actx, mctx, n - 1).basis
    b = Subspace.from_vectors(fld, veclen, [_vec(differential_by_loop(actx, mctx, n - 1, p)) for p in prev])
    assert z.contains(b)
    comp = b.quotient_complement(z)
    reps = []
    for t in range(comp.rows):
        flat = comp.row_list(t)
        rep = Matrix.from_rows(fld, [flat[r * da**n : (r + 1) * da**n] for r in range(dm)])
        if n == 2:
            # tau(x) = omega(1, x) and omega - b^1 tau
            u = actx.algebra.unit
            tau = Matrix.from_rows(fld, [[sum((u[i] * rep[r, i * da + x] for i in range(da)), fld.zero())
                                          for x in range(da)] for r in range(dm)])
            rep = rep - differential_by_loop(actx, mctx, 1, tau)
        reps.append(rep)
    return z.dim - b.dim, reps, z, b


# ---------------------------------------------------------------------------
# algebras, characters and bimodules


def group(f, m):
    """k[Z_m] with the counit as character."""
    return group_algebra(m, f).as_algebra(), [f.one()] * m


def truncated_polynomials(f, k):
    """k[x]/(x^k) with x -> 0 as character."""
    mul = {(i, j): {i + j: f.one()} for i in range(k) for j in range(k) if i + j < k}
    return AlgebraObject(f, k, mul, v_basis(f, k, 0)), v_basis(f, k, 0)


def upper_triangular(f, k):
    """UT(k) on the matrix units E_ab, a <= b, with E_00 -> 1 as character."""
    basis = [(a, b) for a in range(k) for b in range(a, k)]
    idx = {e: t for t, e in enumerate(basis)}
    mul = {(idx[x], idx[y]): {idx[(x[0], y[1])]: f.one()} for x in basis for y in basis if x[1] == y[0]}
    unit = [f.one() if a == b else f.zero() for a, b in basis]
    return AlgebraObject(f, len(basis), mul, unit), [f.one() if e == (0, 0) else f.zero() for e in basis]


BUILDERS = {"group": group, "poly": truncated_polynomials, "ut": upper_triangular}


def basis_change(alg, chi, seed):
    """The algebra on the basis of columns of a seeded invertible P, and
    the character in that basis."""
    f, n = alg.field, alg.dim
    rng = random.Random(seed)
    while True:
        p = Matrix.from_rows(f, [[f.from_int(rng.randrange(-1, 3)) for _ in range(n)] for _ in range(n)])
        try:
            pinv = p.inverse()
            break
        except InconsistentSystem:
            continue
    mul = {}
    for i in range(n):
        for j in range(n):
            prod = pinv.apply(alg.product(p.col_list(i), p.col_list(j)))
            col = {k: c for k, c in enumerate(prod) if not f.is_zero(c)}
            if col:
                mul[(i, j)] = col
    new = AlgebraObject(f, n, mul, pinv.apply(alg.unit))
    new.validate().require("basis change")
    return new, (Matrix.row(f, chi) @ p).row_list(0)


def vect_complex(alg, chi, bimodule):
    f = alg.field
    actx = AlgebraInContext(CategoryContext("vect"), alg, CatObject(f, alg.dim))
    if bimodule == "regular":
        return actx, BimoduleInContext.regular(actx)
    act = Matrix.row(f, chi)  # A (x) k = k (x) A = A
    mctx = BimoduleInContext(actx, CatObject(f, 1), act, act)
    mctx.validate().require("trivial bimodule")
    return actx, mctx


def comodule_complex(f, m):
    """k[Z_m] as a right comodule algebra over itself, regular bimodule."""
    h = group_algebra(m, f)
    obj = CatObject(f, m, h, coact_r=h.as_coalgebra().comul_matrix())
    actx = AlgebraInContext(CategoryContext("comod_r", h), h.as_algebra(), obj)
    actx.validate().require("comodule algebra")
    return actx, BimoduleInContext.regular(actx)


@st.composite
def complexes(draw, max_dim=6):
    """(actx, mctx) over one of the fields: an algebra of dim <= max_dim,
    maybe in a seeded basis, with its regular or a trivial bimodule in
    vect, or a group algebra over itself in the comodule context."""
    f = draw(st.sampled_from(FIELDS))
    if draw(st.integers(0, 4)) == 0:
        return comodule_complex(f, draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    size = draw(st.integers(1, 3 if kind == "ut" else 4))
    alg, chi = BUILDERS[kind](f, size)
    if alg.dim > max_dim:
        alg, chi = BUILDERS[kind](f, 2)
    if draw(st.booleans()):
        alg, chi = basis_change(alg, chi, draw(st.integers(0, 2**16)))
    return vect_complex(alg, chi, draw(st.sampled_from(["regular", "trivial"])))


def random_cochain(f, rows, cols, rng):
    return Matrix.from_rows(f, [[f.from_int(rng.choice((0, 0, 1, -1, 2, 5))) for _ in range(cols)]
                                for _ in range(rows)])


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=40, deadline=None)
@given(cx=complexes(), seed=st.integers(0, 2**16))
def test_operator_matches_loop_on_random_cochains(cx, seed):
    actx, mctx = cx
    f, da, dm = actx.field, actx.dim, mctx.dim
    rng = random.Random(seed)
    for n in (0, 1, 2):
        assert mctx.operator(n) is mctx.operator(n)  # built once per degree
        for _ in range(2):
            c = random_cochain(f, dm, da**n, rng)
            assert differential(actx, mctx, n, c) == differential_by_loop(actx, mctx, n, c)


@settings(max_examples=40, deadline=None)
@given(cx=complexes())
def test_operators_compose_to_zero(cx):
    _, mctx = cx
    for n in (0, 1):
        d, d_next = mctx.operator(n), mctx.operator(n + 1)
        assert StagePipeline(mctx.field, d.in_dims).map_at(d, 0).map_at(d_next, 0).matrix().is_zero()


@settings(max_examples=25, deadline=None)
@given(cx=complexes(max_dim=4))
def test_cohomology_matches_loop(cx):
    actx, mctx = cx
    for n in (0, 1, 2):
        got = cohomology(actx, mctx, n)
        dim, reps, z, b = cohomology_by_loop(actx, mctx, n)
        assert got.dimension == dim
        assert got.cocycle_reps == reps
        assert got.cocycles == z
        assert got.coboundaries == b
