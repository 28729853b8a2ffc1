"""Finite-dimensional coalgebras: validation, dualization, wedge products,
coradical certification and the coradical filtration.

comul[k] = {(i,j): c} encodes Delta(e_k) = sum c e_i (x) e_j; counit is a
dense vector.  Everything coalgebra-theoretic is done by exact kernels:
  - wedge(D, C)           = Ker((pi_D (x) pi_D) Delta)
  - filtration step       = Ker((pi_0 (x) pi_n) Delta)
  - membership in U (x) U = killed by (pi_U (x) id) and (id (x) pi_U)
"""
from __future__ import annotations

from .algebra import AlgebraObject, ValidationReport, VerificationFailed, radical
from .fields import ScalarField
from .linalg import Matrix, Subspace
from .tensors import sparse_add, sparse_eq, v_basis, v_eq, v_zero


class CoalgebraObject:
    """Coassociative counital coalgebra by structure constants."""

    def __init__(self, field: ScalarField, dim: int, comul: dict, counit: list, labels=None):
        self.field = field
        self.dim = dim
        self.comul = {k: dict(v) for k, v in comul.items() if v}
        self.counit = list(counit)
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))

    def comul_of(self, k: int) -> dict:
        return self.comul.get(k, {})

    def comul_vec(self, vec: list) -> dict:
        """Delta applied to a dense vector, as {(i,j): c}."""
        f = self.field
        out: dict = {}
        for k, c in enumerate(vec):
            if f.is_zero(c):
                continue
            for ij, w in self.comul_of(k).items():
                s = f.add(out.get(ij, f.zero()), f.mul(c, w))
                if f.is_zero(s):
                    out.pop(ij, None)
                else:
                    out[ij] = s
        return out

    def comul_matrix(self) -> Matrix:
        entries = {}
        for k, col in self.comul.items():
            for (i, j), c in col.items():
                entries[(i * self.dim + j, k)] = c
        return Matrix.from_entries(self.field, self.dim * self.dim, self.dim, entries)

    def counit_of(self, vec: list):
        f = self.field
        s = f.zero()
        for a, b in zip(self.counit, vec):
            s = f.add(s, f.mul(a, b))
        return s

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        f = self.field
        n = self.dim
        ok = len(self.counit) == n and all(
            0 <= k < n and all(0 <= i < n and 0 <= j < n for i, j in col)
            for k, col in self.comul.items()
        )
        rep.record("shape", ok, "comultiplication indices out of range")
        if not ok:
            return rep
        # coassociativity, basis by basis (tuned: raw int ops over F_p)
        is_fp = f.kind == "Fp"
        p = f.p if is_fp else None
        for k in range(n):
            lhs: dict = {}
            rhs: dict = {}
            for (i, j), c in self.comul_of(k).items():
                for (x, y), w in self.comul_of(i).items():
                    key = (x, y, j)
                    prev = lhs.get(key)
                    val = c * w if prev is None else prev + c * w
                    lhs[key] = val % p if is_fp else val
                for (x, y), w in self.comul_of(j).items():
                    key = (i, x, y)
                    prev = rhs.get(key)
                    val = c * w if prev is None else prev + c * w
                    rhs[key] = val % p if is_fp else val
            if not sparse_eq(f, lhs, rhs):
                rep.record("coassociativity", False, f"basis element {k}")
                return rep
        rep.record("coassociativity", True)
        # counit laws
        for k in range(n):
            left = v_zero(f, n)
            right = v_zero(f, n)
            for (i, j), c in self.comul_of(k).items():
                left[j] = f.add(left[j], f.mul(self.counit[i], c))
                right[i] = f.add(right[i], f.mul(self.counit[j], c))
            e = v_basis(f, n, k)
            if not v_eq(f, left, e) or not v_eq(f, right, e):
                rep.record("counit", False, f"basis element {k}")
                return rep
        rep.record("counit", True)
        return rep


# ---------------------------------------------------------------------------
# dualization


def dualize(x):
    """Finite-dimensional dual: algebras <-> coalgebras, bialgebra <-> bialgebra.

    Structure constants are transposed against the dual basis; applying
    dualize twice gives back an equal object under the canonical basis
    identification.
    """
    from .hopf import BialgebraObject, HopfObject

    if isinstance(x, HopfObject):
        b = _dual_bialgebra(x)
        return HopfObject(
            b.field, b.dim, b.mul, b.unit, b.comul, b.counit,
            antipode=x.antipode.transpose(), labels=b.labels,
        )
    if isinstance(x, BialgebraObject):
        return _dual_bialgebra(x)
    if isinstance(x, AlgebraObject):
        comul = {}
        for (i, j), col in x.mul.items():
            for k, c in col.items():
                comul.setdefault(k, {})[(i, j)] = c
        return CoalgebraObject(x.field, x.dim, comul, list(x.unit), _dual_labels(x.labels))
    if isinstance(x, CoalgebraObject):
        mul = {}
        for k, col in x.comul.items():
            for (i, j), c in col.items():
                mul.setdefault((i, j), {})[k] = c
        return AlgebraObject(x.field, x.dim, mul, list(x.counit), _dual_labels(x.labels))
    raise TypeError(f"cannot dualize {type(x).__name__}")


def _dual_labels(labels):
    return tuple(l + "*" if not l.endswith("*") else l[:-1] for l in labels)


def _dual_bialgebra(x):
    from .hopf import BialgebraObject

    mul = {}
    for k, col in x.comul.items():
        for (i, j), c in col.items():
            mul.setdefault((i, j), {})[k] = c
    comul = {}
    for (i, j), col in x.mul.items():
        for k, c in col.items():
            comul.setdefault(k, {})[(i, j)] = c
    return BialgebraObject(
        x.field, x.dim, mul, list(x.counit), comul, list(x.unit), labels=_dual_labels(x.labels)
    )


# ---------------------------------------------------------------------------
# subcoalgebras, wedge, coradical


def quotient_projection(field, sub: Subspace) -> Matrix:
    """Projection onto the canonical complement of a subspace (RREF pivots)."""
    return sub.complement_projection()


def is_subcoalgebra(c: CoalgebraObject, d: Subspace) -> bool:
    """Delta(D) inside D (x) D, tested with the two one-sided quotients."""
    return _subcoalgebra_defect(c, d) is None


def _subcoalgebra_defect(c: CoalgebraObject, d: Subspace) -> int | None:
    """The first basis row t of D with Delta(d_t) outside D (x) D, or None."""
    f = c.field
    pi = quotient_projection(f, d)
    if pi.rows == 0:
        return None
    for t in range(d.dim):
        delta = c.comul_vec(d.basis.row_list(t))
        left: dict = {}
        right: dict = {}
        for (i, j), w in delta.items():
            for q in range(pi.rows):
                v = pi[q, i]
                if not f.is_zero(v):
                    key = (q, j)
                    left[key] = f.add(left.get(key, f.zero()), f.mul(v, w))
                v = pi[q, j]
                if not f.is_zero(v):
                    key = (i, q)
                    right[key] = f.add(right.get(key, f.zero()), f.mul(v, w))
        if any(not f.is_zero(v) for v in left.values()) or any(not f.is_zero(v) for v in right.values()):
            return t
    return None


def in_tensor_square(c: CoalgebraObject, sub: Subspace, vec_sparse: dict) -> bool:
    """Is an element of C (x) C (as {(i,j): v}) inside sub (x) sub?"""
    f = c.field
    pi = quotient_projection(f, sub)
    if pi.rows == 0:
        return all(f.is_zero(v) for v in vec_sparse.values())
    for side in (0, 1):
        acc: dict = {}
        for (i, j), w in vec_sparse.items():
            src = i if side == 0 else j
            for q in range(pi.rows):
                v = pi[q, src]
                if f.is_zero(v):
                    continue
                key = (q, j) if side == 0 else (i, q)
                s = f.add(acc.get(key, f.zero()), f.mul(v, w))
                if f.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        if acc:
            return False
    return True


def wedge(d: Subspace, c: CoalgebraObject) -> Subspace:
    """D wedge D = Ker((pi_D (x) pi_D) Delta); contains D, is a subcoalgebra."""
    if not is_subcoalgebra(c, d):
        raise ValueError("wedge requires a subcoalgebra")
    f = c.field
    pi = quotient_projection(f, d)
    q = pi.rows
    n = c.dim
    if q == 0:
        return Subspace.full(f, n)
    entries = {}
    for k, col in c.comul.items():
        for (i, j), w in col.items():
            for a in range(q):
                va = pi[a, i]
                if f.is_zero(va):
                    continue
                for b in range(q):
                    vb = pi[b, j]
                    if f.is_zero(vb):
                        continue
                    key = (a * q + b, k)
                    cur = entries.get(key, f.zero())
                    entries[key] = f.add(cur, f.mul(w, f.mul(va, vb)))
    m = Matrix.from_entries(f, q * q, n, entries)
    ker = Subspace.from_matrix_rows(m.kernel())
    if not ker.contains(d):
        outside = next(t for t in range(d.dim) if not ker.contains_vector(d.basis.row_list(t)))
        raise VerificationFailed("wedge_contains_input", outside)
    bad = _subcoalgebra_defect(c, ker)
    if bad is not None:
        raise VerificationFailed("wedge_subcoalgebra", bad)
    return ker


class CertificationFailed(Exception):
    pass


def coradical(c: CoalgebraObject, certified_candidate: Subspace | None = None) -> Subspace:
    """The coradical C_0.

    Uncertified path (char 0 or char > dim): annihilator of rad(C*).
    Certified path: the candidate must be a subcoalgebra whose dual algebra
    is separable (cosemisimplicity) and whose wedge tower exhausts C; the
    coradical of a cosemisimple subcoalgebra is itself and is preserved by
    wedging, so the candidate is C_0.
    """
    from .algebra import NotSeparable, separability_idempotent

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

    Coordinates are read off at pivot pairs (exact for RREF bases) and the
    read-off is re-verified by rebuilding Delta.  Returns (D, incl) with
    incl the (dim x d.dim) inclusion matrix.
    """
    if not is_subcoalgebra(c, d):
        raise ValueError("not a subcoalgebra")
    f = c.field
    m = d.dim
    bt = d.basis.transpose()  # n x m, columns are the basis of D
    # coordinate map: since basis is RREF, coordinates are values at pivots
    piv = d.pivots
    comul: dict = {}
    for t in range(m):
        delta = c.comul_vec(d.basis.row_list(t))
        col: dict = {}
        # Delta lands in D (x) D, so pivot read-off gives exact coordinates
        for (s, u) in ((s, u) for s in range(m) for u in range(m)):
            v = delta.get((piv[s], piv[u]))
            if v is not None and not f.is_zero(v):
                col[(s, u)] = v
        if col:
            comul[t] = col
    counit = [c.counit_of(d.basis.row_list(t)) for t in range(m)]
    sub = CoalgebraObject(f, m, comul, counit, tuple(f"d{t}" for t in range(m)))
    sub.validate().require("subcoalgebra restriction")
    # verify the read-off: rebuild Delta from coordinates and compare
    for t in range(m):
        rebuilt: dict = {}
        for (s, u), w in sub.comul_of(t).items():
            for i2, a in enumerate(bt.col_list(s)):
                if f.is_zero(a):
                    continue
                for j2, b in enumerate(bt.col_list(u)):
                    if f.is_zero(b):
                        continue
                    key = (i2, j2)
                    cur = rebuilt.get(key, f.zero())
                    val = f.add(cur, f.mul(w, f.mul(a, b)))
                    if f.is_zero(val):
                        rebuilt.pop(key, None)
                    else:
                        rebuilt[key] = val
        if not sparse_eq(f, rebuilt, c.comul_vec(d.basis.row_list(t))):
            raise VerificationFailed("subcoalgebra_readoff", t)
    return sub, bt


class FiltrationData:
    """Ascending chain of subcoalgebras, C_0 up to stabilization."""

    def __init__(self, steps: list[Subspace], exhausts: bool):
        self.steps = steps
        self.exhausts = exhausts

    def __len__(self):
        return len(self.steps)


def coradical_filtration(c: CoalgebraObject, c0: Subspace) -> FiltrationData:
    """C_{n+1} = Delta^{-1}(C (x) C_n + C_0 (x) C), computed as a kernel."""
    f = c.field
    pi0 = quotient_projection(f, c0)
    steps = [c0]
    cur = c0
    while cur.dim < c.dim:
        pin = quotient_projection(f, cur)
        q0, qn = pi0.rows, pin.rows
        entries = {}
        for k, col in c.comul.items():
            for (i, j), w in col.items():
                for a in range(q0):
                    va = pi0[a, i]
                    if f.is_zero(va):
                        continue
                    for b in range(qn):
                        vb = pin[b, j]
                        if f.is_zero(vb):
                            continue
                        key = (a * qn + b, k)
                        entries[key] = f.add(entries.get(key, f.zero()), f.mul(w, f.mul(va, vb)))
        nxt = Subspace.from_matrix_rows(Matrix.from_entries(f, q0 * qn, c.dim, entries).kernel())
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
    gdelta = c.comul_vec(g)
    gg = {}
    for i, a in enumerate(g):
        if f.is_zero(a):
            continue
        for j, b in enumerate(g):
            if not f.is_zero(b):
                gg[(i, j)] = f.mul(a, b)
    rep.record("grouplike", sparse_eq(f, gdelta, gg), "C_0 generator is not grouplike")
    for n in range(1, len(filtration.steps)):
        step = filtration.steps[n]
        prev = filtration.steps[n - 1]
        for t in range(step.dim):
            x = step.basis.row_list(t)
            delta = c.comul_vec(x)
            for i, a in enumerate(x):
                if f.is_zero(a):
                    continue
                for j, b in enumerate(g):
                    if f.is_zero(b):
                        continue
                    delta = sparse_add(f, delta, {(i, j): f.neg(f.mul(a, b))})
                    delta = sparse_add(f, delta, {(j, i): f.neg(f.mul(a, b))})
            if not in_tensor_square(c, prev, delta):
                rep.record(f"filtration_degree_{n}", False, f"basis vector {t}")
                return rep
        rep.record(f"filtration_degree_{n}", True)
    if len(filtration.steps) > 1:
        step = filtration.steps[1]
        for t in range(step.dim):
            x = step.basis.row_list(t)
            delta = c.comul_vec(x)
            expect: dict = {}
            ex = c.counit_of(x)
            for i, a in enumerate(x):
                for j, b in enumerate(g):
                    if not f.is_zero(a) and not f.is_zero(b):
                        expect = sparse_add(f, expect, {(i, j): f.mul(a, b)})
                        expect = sparse_add(f, expect, {(j, i): f.mul(a, b)})
            for i, a in enumerate(g):
                for j, b in enumerate(g):
                    if not f.is_zero(a) and not f.is_zero(b):
                        expect = sparse_add(f, expect, {(i, j): f.neg(f.mul(ex, f.mul(a, b)))})
            rep.record(f"degree1_formula_{t}", sparse_eq(f, delta, expect), "degree-1 formula fails")
    return rep


def wedge2(d: Subspace, e: Subspace, c: CoalgebraObject) -> Subspace:
    """Two-argument wedge: Delta^(-1)(D (x) C + C (x) E)."""
    f = c.field
    pi_d = quotient_projection(f, d)
    pi_e = quotient_projection(f, e)
    qd, qe = pi_d.rows, pi_e.rows
    if qd == 0 or qe == 0:
        return Subspace.full(f, c.dim)
    entries = {}
    for k, col in c.comul.items():
        for (i, j), w in col.items():
            for a in range(qd):
                va = pi_d[a, i]
                if f.is_zero(va):
                    continue
                for b in range(qe):
                    vb = pi_e[b, j]
                    if f.is_zero(vb):
                        continue
                    key = (a * qe + b, k)
                    entries[key] = f.add(entries.get(key, f.zero()), f.mul(w, f.mul(va, vb)))
    m = Matrix.from_entries(f, qd * qe, c.dim, entries)
    return Subspace.from_matrix_rows(m.kernel())


def grouplike_simple_pieces(c: CoalgebraObject, d: Subspace) -> list[Subspace] | None:
    """Simple subcoalgebra decomposition of D when D has a grouplike basis.

    Returns the list of one-dimensional spans, or None when some basis
    vector is not grouplike (general decomposition is out of scope).
    """
    f = c.field
    pieces = []
    for t in range(d.dim):
        g = d.basis.row_list(t)
        eg = c.counit_of(g)
        if f.is_zero(eg):
            return None
        g = [f.div(x, eg) for x in g]
        gg = {}
        for i, a in enumerate(g):
            if f.is_zero(a):
                continue
            for j, b in enumerate(g):
                if not f.is_zero(b):
                    gg[(i, j)] = f.mul(a, b)
        if not sparse_eq(f, c.comul_vec(g), gg):
            return None
        pieces.append(Subspace.from_vectors(f, c.dim, [g]))
    return pieces
