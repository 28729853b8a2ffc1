"""Finite-dimensional coalgebras: validation, dualization, wedge products,
coradical certification and the coradical filtration.

The comultiplication is stored as read-only arrays (i, j, k, v), as the
product of an algebra is (`algebra.AlgebraObject`): Delta(e_k) has the
coefficient v on e_i (x) e_j.  The counit is a dense vector.  Producers
inside the package hand the arrays over through
`CoalgebraObject.from_constants`; a dict {k: {(i, j): c}} given to the
constructor is converted once, and `CoalgebraObject.comul` rebuilds it
only for callers outside the package.  The dual algebra has the same
arrays, so `dualize` copies nothing.  `comul_map()` is Delta as a cached
`tensors.SparseMap` (n,) -> (n, n), as `mul_map()` is the product, and
`validate` joins its entries: coassociativity is the mirror of the
associativity join of `AlgebraObject`, grouped by the coproduct's input
leg k.  The kernels below are `StagePipeline`s over `comul_map()` or
products with `comul_matrix()` (Delta as a dim^2 x dim matrix, row
i dim + j):

  - Ker((p (x) q) Delta)    one pipeline for maps p, q out of C: the wedge
                            D ^ D (p = q = pi_D), the filtration step
                            (pi_0, pi_n) and the two-sided wedge (pi_D, pi_E)
  - subcoalgebra defect     Delta of D's basis with pi_D on either factor;
                            the first basis row with a nonzero image is the
                            witness
  - coordinates in D (x) D  two `Subspace.coordinates` calls, one per factor
  - x in U (x) U            pi_U x = 0 and pi_U x^T = 0 for an n x n matrix x

Here pi_D is the complement projection of D (`quotient_projection`).
`coradical` and `coradical_filtration` validate C first, once per object
(a passing `validate` is remembered).
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import (AlgebraObject, ValidationReport, VerificationFailed, _frozen, _in_range, _JOIN_BLOCK,
                      constants_of, radical, table_from_entries)
from .fields import ScalarField
from .linalg import Matrix, Subspace, _dtype, _join, _summed
from .tensors import SparseMap, StagePipeline


class CoalgebraObject:
    """Coassociative counital coalgebra by structure constants."""

    def __init__(self, field: ScalarField, dim: int, comul: dict, counit: list, labels=None):
        """comul[k] = {(i, j): c} means Delta(e_k) = sum c e_i (x) e_j."""
        self._store(field, dim, table_from_entries(field, ((i, j, k, c) for k, col in comul.items()
                                                            for (i, j), c in col.items())), counit, labels)

    @classmethod
    def from_constants(cls, field: ScalarField, dim: int, table, counit: list, labels=None) -> "CoalgebraObject":
        """The coalgebra on the arrays table = (i, j, k, v), each (i, j, k)
        at most once and v reduced; the arrays are kept, not copied."""
        c = cls.__new__(cls)
        c._store(field, dim, table, counit, labels)
        return c

    def _store(self, field, dim, table, counit, labels):
        self.field = field
        self.dim = dim
        self.table = _frozen(table)
        self.counit = list(counit)
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        self._comul = None
        self._delta = None
        self._verified = False  # `validate` has passed

    @property
    def comul(self) -> dict:
        """The stored constants as {k: {(i, j): c}} (built once; the package
        reads the arrays)."""
        if self._comul is None:
            self._comul = {}
            for i, j, k, c in zip(*(x.tolist() for x in self.table)):
                self._comul.setdefault(k, {})[(i, j)] = c
        return self._comul

    def comul_map(self) -> SparseMap:
        """Delta as a SparseMap (n,) -> (n, n), built once (see
        `AlgebraObject.mul_map`)."""
        if self._delta is None:
            n = self.dim
            i, j, k, v = self.table
            self._delta = SparseMap(self.field, (n,), (n, n), k, i * n + j, v)
        return self._delta

    def comul_matrix(self) -> Matrix:
        n = self.dim
        k, ij, v = self.comul_map().coo()
        m = Matrix.zeros(self.field, n * n, n)
        m._d[ij, k] = v
        return m

    def counit_of(self, vec: list):
        f = self.field
        s = f.zero()
        for a, b in zip(self.counit, vec):
            s = f.add(s, f.mul(a, b))
        return s

    def validate(self) -> ValidationReport:
        """Shape, coassociativity and the counit laws, in that order; each
        witness is the first failing input leg k."""
        rep = ValidationReport()
        ok = len(self.counit) == self.dim and _in_range(self.table, self.dim)
        rep.record("shape", ok, "comultiplication indices out of range")
        if not ok:
            return rep
        k = self._coassociativity_defect()
        rep.record("coassociativity", k is None, f"basis element {k}")
        if k is not None:
            return rep
        k = self._counit_defect()
        rep.record("counit", k is None, f"basis element {k}")
        self._verified = k is None
        return rep

    def _coassociativity_defect(self) -> int | None:
        """The first k with (Delta (x) id) Delta(e_k) != (id (x) Delta) Delta(e_k),
        or None: the mirror of `AlgebraObject._check_associativity`.  Each
        entry (i, j, k, c) of Delta pairs with every entry (x, y, i, w) for
        the terms w c e_x (x) e_y (x) e_j of the left side, and with every
        entry (x, y, j, w) for the terms w c e_i (x) e_x (x) e_y of the right
        side.  Their difference is summed per (k, key) by `linalg._summed`,
        so k fails iff a sum is nonzero.  Consecutive input legs share one
        join while their terms fit a window of _JOIN_BLOCK."""
        f, n = self.field, self.dim
        delta = self.comul_map()
        src, ij, v = delta.coo()  # sorted by input leg k, whose entries are [by_k[k], by_k[k + 1])
        by_k = delta.starts
        i, j = np.divmod(ij, n)
        count = np.diff(by_k)
        terms = np.cumsum(count[i] + count[j])
        cuts = []
        if terms.size and terms[-1] > _JOIN_BLOCK:
            before = np.concatenate(([0], terms))[by_k]  # terms before each input leg
            cuts = (np.flatnonzero(np.diff(before[:-1] // _JOIN_BLOCK)) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [n]):
            s = np.arange(by_k[lo], by_k[hi])
            l_src, l_dst = _join(s, by_k[i[s]], by_k[i[s] + 1])
            r_src, r_dst = _join(s, by_k[j[s]], by_k[j[s] + 1])
            keys = np.concatenate((ij[l_dst] * n + j[l_src], i[r_src] * n * n + ij[r_dst]))
            terms = np.concatenate((f.reduce(v[l_src] * v[l_dst]), -f.reduce(v[r_src] * v[r_dst])))
            bad, _, _ = _summed(f, np.concatenate((src[l_src], src[r_src])), keys, terms, n**3)
            if bad.size:
                return int(bad[0])
        return None

    def _counit_defect(self) -> int | None:
        """The first k with (eps (x) id) Delta(e_k) != e_k or
        (id (x) eps) Delta(e_k) != e_k, or None: both sides minus e_k, keyed
        by the remaining leg (the right side shifted by n), summed per k by
        `linalg._summed`."""
        f, n = self.field, self.dim
        k, ij, v = self.comul_map().coo()
        i, j = np.divmod(ij, n)
        eps = f.reduce(np.array(self.counit, dtype=_dtype(f)))
        diag = np.arange(n)
        bad, _, _ = _summed(f, np.concatenate((k, k, diag, diag)), np.concatenate((j, n + i, diag, n + diag)),
                            np.concatenate((f.reduce(eps[i] * v), f.reduce(eps[j] * v),
                                            np.full(2 * n, f.reduce(-f.one()), dtype=v.dtype))), 2 * n)
        return int(bad[0]) if bad.size else None


# ---------------------------------------------------------------------------
# dualization


def dualize(x):
    """Finite-dimensional dual: algebras <-> coalgebras, bialgebra <-> bialgebra.

    Against the dual basis, e_i e_j = v e_k + ... turns into
    Delta(e_k*) = v e_i* (x) e_j* + ..., so the dual keeps the arrays
    (i, j, k, v) of the object, with the roles of the legs swapped;
    applying dualize twice gives back an equal object under the canonical
    basis identification.  A bialgebra's dual is the dual of its coalgebra as the
    algebra and the dual of its algebra as the coalgebra.
    """
    from .hopf import BialgebraObject, HopfObject

    if isinstance(x, BialgebraObject):
        alg, co = dualize(x.as_coalgebra()), dualize(x.as_algebra())
        if isinstance(x, HopfObject):
            return HopfObject.from_parts(alg, co, x.antipode.transpose())
        return BialgebraObject.from_parts(alg, co)
    if isinstance(x, AlgebraObject):
        return CoalgebraObject.from_constants(x.field, x.dim, x.table, x.unit, _dual_labels(x.labels))
    if isinstance(x, CoalgebraObject):
        return AlgebraObject.from_constants(x.field, x.dim, x.table, x.counit, _dual_labels(x.labels))
    raise TypeError(f"cannot dualize {type(x).__name__}")


def _dual_labels(labels):
    return tuple(l + "*" if not l.endswith("*") else l[:-1] for l in labels)


# ---------------------------------------------------------------------------
# Delta kernels


def _map(m: Matrix) -> SparseMap:
    """The matrix m as a one-factor SparseMap (m.cols,) -> (m.rows,)."""
    return SparseMap.from_matrix(m, (m.cols,), (m.rows,))


def _delta_of_rows(c: CoalgebraObject, rows: Matrix) -> StagePipeline:
    """Delta of each row of `rows`: a pipeline (rows.rows,) -> (n, n)."""
    return StagePipeline(c.field, (rows.rows,)).map_at(_map(rows.transpose()), 0).map_at(c.comul_map(), 0)


def _coproduct_kernel(c: CoalgebraObject, p: Matrix, q: Matrix) -> Subspace:
    """Ker((p (x) q) Delta) for linear maps p, q out of C."""
    m = StagePipeline(c.field, (c.dim,)).map_at(c.comul_map(), 0).map_at(_map(p), 0).map_at(_map(q), 1).matrix()
    return Subspace.from_matrix_rows(m.kernel())


def _tensors(m: Matrix) -> list[Matrix]:
    """The columns of an n^2 x k matrix (row i n + j) as n x n matrices."""
    n = math.isqrt(m.rows)
    return [m._new(n, n, m._d[:, t].reshape(n, n)) for t in range(m.cols)]


def _outer(f: ScalarField, u: list, v: list) -> Matrix:
    """u (x) v as an n x n matrix."""
    return Matrix.column(f, u) @ Matrix.row(f, v)


def _square_coordinates(d: Subspace, x: Matrix) -> Matrix | None:
    """Coordinates of the columns of x (elements of C (x) C, row i n + j) in
    the basis d_s (x) d_u of D (x) D, as a dim(D)^2 x x.cols matrix with row
    s dim(D) + u; None when a column lies outside D (x) D.  The first
    `coordinates` call reads the right leg of every row i of every column,
    the second the left leg of every right coordinate."""
    n, m, k = d.ambient_dim, x.cols, d.dim
    # right: row (t, i), column u; left: row (t, u), column s
    right = d.coordinates(x._new(m * n, n, x._d.T.reshape(m * n, n)))
    if right is None:
        return None
    left = d.coordinates(x._new(m * k, n, right._d.reshape(m, n, k).transpose(0, 2, 1).reshape(m * k, n)))
    if left is None:
        return None
    return x._new(k * k, m, left._d.reshape(m, k, k).transpose(2, 1, 0).reshape(k * k, m))


# ---------------------------------------------------------------------------
# subcoalgebras, wedge, coradical


def quotient_projection(field, sub: Subspace) -> Matrix:
    """Projection onto the canonical complement of a subspace (RREF pivots)."""
    return sub.complement_projection()


def is_subcoalgebra(c: CoalgebraObject, d: Subspace) -> bool:
    """Delta(D) inside D (x) D, tested with the two one-sided quotients."""
    return _subcoalgebra_defect(c, d) is None


def _subcoalgebra_defect(c: CoalgebraObject, d: Subspace) -> int | None:
    """The first basis row t of D with Delta(d_t) outside D (x) D, that is
    with (pi_D (x) id) Delta(d_t) or (id (x) pi_D) Delta(d_t) nonzero, or None."""
    pi = quotient_projection(c.field, d)
    if pi.rows == 0 or d.dim == 0:
        return None
    p = _map(pi)
    bad = (_delta_of_rows(c, d.basis).map_at(p, 0).matrix()._d.any(axis=0)
           | _delta_of_rows(c, d.basis).map_at(p, 1).matrix()._d.any(axis=0))
    t = np.flatnonzero(bad)
    return int(t[0]) if t.size else None


def in_tensor_square(c: CoalgebraObject, sub: Subspace, x: Matrix) -> bool:
    """Is x, an n x n matrix holding the coefficient of e_i (x) e_j at
    (i, j), inside sub (x) sub?  Both legs must vanish under the complement
    projection: pi x = 0 and pi x^T = 0 (nothing to test when sub is C)."""
    pi = quotient_projection(c.field, sub)
    return (pi @ x).is_zero() and (pi @ x.transpose()).is_zero()


def wedge(d: Subspace, c: CoalgebraObject) -> Subspace:
    """D wedge D = Ker((pi_D (x) pi_D) Delta); contains D, is a subcoalgebra."""
    if not is_subcoalgebra(c, d):
        raise ValueError("wedge requires a subcoalgebra")
    f = c.field
    pi = quotient_projection(f, d)
    if pi.rows == 0:
        return Subspace.full(f, c.dim)
    ker = _coproduct_kernel(c, pi, pi)
    if not ker.contains(d):
        outside = next(t for t in range(d.dim) if not ker.contains_vector(d.basis.row_list(t)))
        raise VerificationFailed("wedge_contains_input", outside)
    bad = _subcoalgebra_defect(c, ker)
    if bad is not None:
        raise VerificationFailed("wedge_subcoalgebra", bad)
    return ker


class CertificationFailed(Exception):
    pass


def _require_valid(c: CoalgebraObject):
    """Validate C unless it already passed; a failed axiom raises
    CertificationFailed naming it."""
    if not c._verified:
        bad = c.validate().failures()
        if bad:
            raise CertificationFailed("coalgebra %s: %s" % bad[0])


def coradical(c: CoalgebraObject, certified_candidate: Subspace | None = None) -> Subspace:
    """The coradical C_0.

    Uncertified path (char 0 or char > dim): annihilator of rad(C*).
    Certified path: the candidate must be a subcoalgebra whose dual algebra
    is separable (cosemisimplicity) and whose wedge tower exhausts C; the
    coradical of a cosemisimple subcoalgebra is itself and is preserved by
    wedging, so the candidate is C_0.
    """
    from .algebra import NotSeparable, separability_idempotent

    _require_valid(c)
    f = c.field
    if certified_candidate is None:
        dual = dualize(c)
        rad = radical(dual)
        if rad.dim == 0:
            return Subspace.full(f, c.dim)
        return Subspace.from_matrix_rows(rad.subspace.basis.kernel())
    d = certified_candidate
    if not is_subcoalgebra(c, d):
        raise CertificationFailed("candidate is not a subcoalgebra")
    dual_alg = _dual_algebra_of_subcoalgebra(c, d)
    try:
        separability_idempotent(dual_alg)
    except NotSeparable:
        raise CertificationFailed("candidate is not cosemisimple (dual not separable)")
    cur = d
    while cur.dim < c.dim:
        nxt = wedge(cur, c)
        if nxt.dim == cur.dim:
            raise CertificationFailed("wedge tower of the candidate does not exhaust C")
        cur = nxt
    return d


def _dual_algebra_of_subcoalgebra(c: CoalgebraObject, d: Subspace) -> AlgebraObject:
    sub, _incl = restrict_coalgebra(c, d)
    return dualize(sub)


def restrict_coalgebra(c: CoalgebraObject, d: Subspace) -> tuple[CoalgebraObject, Matrix]:
    """Coalgebra structure on a subcoalgebra in its RREF basis.

    The coordinates of Delta(d_t) in D (x) D are read off by
    `_square_coordinates`, which also verifies that Delta(d_t) is their
    combination.  Returns (D, incl) with incl the (dim x d.dim) inclusion
    matrix.
    """
    if not is_subcoalgebra(c, d):
        raise ValueError("not a subcoalgebra")
    f = c.field
    m = d.dim
    delta = _delta_of_rows(c, d.basis).matrix()
    coords = _square_coordinates(d, delta)
    if coords is None:
        cols = (delta._new(delta.rows, 1, delta._d[:, t : t + 1]) for t in range(m))
        t = next(t for t, col in enumerate(cols) if _square_coordinates(d, col) is None)
        raise VerificationFailed("subcoalgebra_readoff", t)
    counit = [c.counit_of(d.basis.row_list(t)) for t in range(m)]
    sub = CoalgebraObject.from_constants(f, m, constants_of(coords, m), counit, tuple(f"d{t}" for t in range(m)))
    sub.validate().require("subcoalgebra restriction")
    return sub, d.basis.transpose()


class FiltrationData:
    """Ascending chain of subcoalgebras, C_0 up to stabilization."""

    def __init__(self, steps: list[Subspace], exhausts: bool):
        self.steps = steps
        self.exhausts = exhausts

    def __len__(self):
        return len(self.steps)


def coradical_filtration(c: CoalgebraObject, c0: Subspace) -> FiltrationData:
    """C_{n+1} = Delta^{-1}(C (x) C_n + C_0 (x) C) = Ker((pi_0 (x) pi_n) Delta),
    once C is validated (CertificationFailed otherwise)."""
    _require_valid(c)
    return _filtration(c, c0)


def _filtration(c: CoalgebraObject, c0: Subspace) -> FiltrationData:
    """The chain of `coradical_filtration` up to stabilization, each step
    re-verified to be a subcoalgebra (VerificationFailed names the first
    failing basis row; only a non-coassociative C reaches it)."""
    f = c.field
    pi0 = quotient_projection(f, c0)
    steps = [c0]
    cur = c0
    while cur.dim < c.dim:
        nxt = _coproduct_kernel(c, pi0, quotient_projection(f, cur))
        if nxt.dim <= cur.dim:
            return FiltrationData(steps, exhausts=False)
        bad = _subcoalgebra_defect(c, nxt)
        if bad is not None:
            raise VerificationFailed("filtration_step_subcoalgebra", bad)
        steps.append(nxt)
        cur = nxt
    return FiltrationData(steps, exhausts=True)


def connected_filtration_check(c: CoalgebraObject, filtration: FiltrationData) -> ValidationReport:
    """For connected C: Delta(x) - x (x) c0 - c0 (x) x lies in C_{n-1} (x) C_{n-1},
    and the degree-1 comultiplication formula holds exactly."""
    rep = ValidationReport()
    f = c.field
    c0_space = filtration.steps[0]
    if c0_space.dim != 1:
        rep.record("connected", False, f"C_0 has dimension {c0_space.dim}")
        return rep
    g = c0_space.basis.row_list(0)
    # normalize to a grouplike: Delta(g) = g (x) g requires scaling by eps(g)
    eg = c.counit_of(g)
    if f.is_zero(eg):
        rep.record("grouplike", False, "counit vanishes on C_0")
        return rep
    g = [f.div(x, eg) for x in g]
    dm = c.comul_matrix()
    gg = _outer(f, g, g)
    rep.record("grouplike", _tensors(dm @ Matrix.column(f, g))[0] == gg, "C_0 generator is not grouplike")
    for n in range(1, len(filtration.steps)):
        step = filtration.steps[n]
        prev = filtration.steps[n - 1]
        for t, delta in enumerate(_tensors(dm @ step.basis.transpose())):
            x = step.basis.row_list(t)
            if not in_tensor_square(c, prev, delta - _outer(f, x, g) - _outer(f, g, x)):
                rep.record(f"filtration_degree_{n}", False, f"basis vector {t}")
                return rep
        rep.record(f"filtration_degree_{n}", True)
    if len(filtration.steps) > 1:
        step = filtration.steps[1]
        for t, delta in enumerate(_tensors(dm @ step.basis.transpose())):
            x = step.basis.row_list(t)
            expect = _outer(f, x, g) + _outer(f, g, x) - gg.scale(c.counit_of(x))
            rep.record(f"degree1_formula_{t}", delta == expect, "degree-1 formula fails")
    return rep


def wedge2(d: Subspace, e: Subspace, c: CoalgebraObject) -> Subspace:
    """Two-argument wedge: Delta^(-1)(D (x) C + C (x) E) = Ker((pi_D (x) pi_E) Delta)."""
    f = c.field
    pi_d = quotient_projection(f, d)
    pi_e = quotient_projection(f, e)
    if pi_d.rows == 0 or pi_e.rows == 0:
        return Subspace.full(f, c.dim)
    return _coproduct_kernel(c, pi_d, pi_e)


def grouplike_simple_pieces(c: CoalgebraObject, d: Subspace) -> list[Subspace] | None:
    """Simple subcoalgebra decomposition of D when D has a grouplike basis.

    Returns the list of one-dimensional spans, or None when some basis
    vector is not grouplike (general decomposition is out of scope).
    """
    f = c.field
    dm = c.comul_matrix()
    pieces = []
    for t in range(d.dim):
        g = d.basis.row_list(t)
        eg = c.counit_of(g)
        if f.is_zero(eg):
            return None
        g = [f.div(x, eg) for x in g]
        if _tensors(dm @ Matrix.column(f, g))[0] != _outer(f, g, g):
            return None
        pieces.append(Subspace.from_vectors(f, c.dim, [g]))
    return pieces
