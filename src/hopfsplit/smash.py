"""Smash products, Yetter-Drinfeld quadruples (both variants), their
validation, bosonization and extraction from split bialgebras.

A quadruple (R, eps, delta, omega) packages an algebra R in the YD
category with a comultiplication-like map delta : R -> R (x) R and a
cocycle omega : H -> R (x) R; its eleven axioms are exactly the
conditions making the smash product R # H a bialgebra.  The dual variant
(R, 1, m, xi) does the same for the smash coproduct.  All axioms are
evaluated columnwise with the sparse stage engine, and every constructed
bosonization is re-validated from scratch.
"""
from __future__ import annotations

from .algebra import AlgebraObject, ValidationReport
from .category import CatObject, YDObject, phi_iso
from .coalgebra import CoalgebraObject
from .hopf import BialgebraObject, HopfObject, is_algebra_map, is_coalgebra_map
from .linalg import Matrix, Subspace
from .tensors import SparseMap, permute_factors, sparse_eq, v_basis, v_eq, v_zero


class _Maps:
    """Stage maps shared by the quadruple validators and bosonizations."""

    def __init__(self, hopf: HopfObject, yd: YDObject):
        f = hopf.field
        dh, dr = hopf.dim, yd.dim
        self.f = f
        self.dh = dh
        self.dr = dr
        self.hopf = hopf
        self.yd = yd
        self.mul_h = hopf.as_algebra().mul_map()
        self.comul_h = SparseMap(f, (dh,), (dh, dh), {(k,): dict(c) for k, c in hopf.comul.items()})
        self.s_h = SparseMap.from_matrix(hopf.antipode, (dh,), (dh,))
        self.act = SparseMap.from_matrix(yd.act, (dh, dr), (dr,))
        self.coact = SparseMap.from_matrix(yd.coact, (dr,), (dh, dr))
        self._act_rr = None
        self._rho_rr = None

    def act_rr(self) -> SparseMap:
        """Diagonal H-action on R (x) R."""
        if self._act_rr is None:
            f, dh, dr = self.f, self.dh, self.dr
            cols = {}
            for hh in range(dh):
                for a in range(dr):
                    for b in range(dr):
                        vec = {(hh, a, b): f.one()}
                        dims = (dh, dr, dr)
                        vec, dims = self.comul_h.apply_at(vec, dims, 0)  # (h1, h2, a, b)
                        vec, dims = permute_factors(vec, dims, (0, 2, 1, 3))  # (h1, a, h2, b)
                        vec, dims = self.act.apply_at(vec, dims, 0)  # (h1.a, h2, b)
                        vec, dims = self.act.apply_at(vec, dims, 1)  # (h1.a, h2.b)
                        if vec:
                            cols[(hh, a, b)] = vec
            self._act_rr = SparseMap(f, (dh, dr, dr), (dr, dr), cols)
        return self._act_rr

    def rho_rr(self) -> SparseMap:
        """Diagonal H-coaction on R (x) R."""
        if self._rho_rr is None:
            f, dh, dr = self.f, self.dh, self.dr
            cols = {}
            for a in range(dr):
                for b in range(dr):
                    vec = {(a, b): f.one()}
                    dims = (dr, dr)
                    vec, dims = self.coact.apply_at(vec, dims, 0)  # (h, a0, b)
                    vec, dims = self.coact.apply_at(vec, dims, 2)  # (h, a0, h', b0)
                    vec, dims = permute_factors(vec, dims, (0, 2, 1, 3))
                    vec, dims = self.mul_h.apply_at(vec, dims, 0)
                    if vec:
                        cols[(a, b)] = vec
            self._rho_rr = SparseMap(f, (dr, dr), (dh, dr, dr), cols)
        return self._rho_rr


def _braided_mul_rr(maps: _Maps, mul_r: SparseMap) -> SparseMap:
    """(r (x) s)(t (x) v) = r (s_(-1) . t) (x) s_(0) v on R (x) R."""
    f, dr = maps.f, maps.dr
    cols = {}
    for a in range(dr):
        for b in range(dr):
            for c in range(dr):
                for d in range(dr):
                    vec = {(a, b, c, d): f.one()}
                    dims = (dr, dr, dr, dr)
                    vec, dims = maps.coact.apply_at(vec, dims, 1)  # (a, b-1, b0, c, d)
                    vec, dims = permute_factors(vec, dims, (0, 1, 3, 2, 4))  # (a, b-1, c, b0, d)
                    vec, dims = maps.act.apply_at(vec, dims, 1)  # (a, bc, b0, d)
                    vec, dims = mul_r.apply_at(vec, dims, 0)  # (abc, b0, d)
                    vec, dims = mul_r.apply_at(vec, dims, 1)  # (abc, b0 d)
                    if vec:
                        cols[(a, b, c, d)] = vec
    return SparseMap(f, (dr, dr, dr, dr), (dr, dr), cols)


def _braided_comul_rr(maps: _Maps, delta: SparseMap) -> SparseMap:
    """delta_{R(x)R} = (id (x) c_{R,R} (x) id)(delta (x) delta)."""
    f, dr = maps.f, maps.dr
    cols = {}
    for a in range(dr):
        for b in range(dr):
            vec = {(a, b): f.one()}
            dims = (dr, dr)
            vec, dims = delta.apply_at(vec, dims, 0)  # (a1, a2, b)
            vec, dims = delta.apply_at(vec, dims, 2)  # (a1, a2, b1, b2)
            # braid (a2, b1): c(x (x) y) = x_(-1) . y (x) x_(0)
            vec, dims = maps.coact.apply_at(vec, dims, 1)  # (a1, am, a20, b1, b2)
            vec, dims = permute_factors(vec, dims, (0, 1, 3, 2, 4))  # (a1, am, b1, a20, b2)
            vec, dims = maps.act.apply_at(vec, dims, 1)  # (a1, ^b1, a20, b2)
            if vec:
                cols[(a, b)] = vec
    return SparseMap(f, (dr, dr), (dr, dr, dr, dr), cols)


class YDQuadruple:
    """(R, eps, delta, omega) over H: algebra R in YD, counit-like eps,
    comultiplication-like delta and cocycle omega : H -> R (x) R."""

    def __init__(self, hopf: HopfObject, r_alg: AlgebraObject, yd: YDObject,
                 eps: list, delta: Matrix, omega: Matrix):
        self.hopf = hopf
        self.r_alg = r_alg
        self.yd = yd
        self.eps = list(eps)
        self.delta = delta  # (dR^2, dR)
        self.omega = omega  # (dR^2, dH)

    @property
    def field(self):
        return self.hopf.field

    def maps(self) -> _Maps:
        return _Maps(self.hopf, self.yd)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        f = self.field
        dh, dr = self.hopf.dim, self.yd.dim
        for name, ok, wit in self.r_alg.validate().checks:
            rep.record("R_algebra:" + name, ok, wit)
        for name, ok, wit in self.yd.validate().checks:
            rep.record("R_yd:" + name, ok, wit)
        # R must be an algebra *in* YD: mul and unit are YD morphisms
        mp = self.maps()
        mul_r = self.r_alg.mul_map()
        delta = SparseMap.from_matrix(self.delta, (dr,), (dr, dr))
        omega = SparseMap.from_matrix(self.omega, (dh,), (dr, dr))
        m_rr = _braided_mul_rr(mp, mul_r)
        act_rr = mp.act_rr()
        rho_rr = mp.rho_rr()
        rep.record("R_mul_yd_linear", self._mul_linear(mp, mul_r), "mul not H-linear")
        rep.record("R_mul_yd_colinear", self._mul_colinear(mp, mul_r, rho_rr), "mul not H-colinear")
        one = self.r_alg.unit
        # unit invariance/coinvariance
        okA = True
        for hh in range(dh):
            hv = v_basis(f, dh, hh)
            from .tensors import v_tensor

            if not v_eq(f, self.yd.act.apply(v_tensor(f, hv, one)),
                        [f.mul(self.hopf.counit[hh], x) for x in one]):
                okA = False
        rep.record("R_unit_invariant", okA, "h . 1 != eps(h) 1")
        rho1 = self.yd.coact.apply(one)
        expect = v_zero(f, dh * dr)
        for hh, u in enumerate(self.hopf.unit):
            if f.is_zero(u):
                continue
            for t, x in enumerate(one):
                expect[hh * dr + t] = f.add(expect[hh * dr + t], f.mul(u, x))
        rep.record("R_unit_coinvariant", v_eq(f, rho1, expect), "rho(1) != 1_H (x) 1")

        eps_w = self.eps
        epsh = self.hopf.counit
        unit_r = one

        def P(in_dims):
            from .tensors import StagePipeline

            return StagePipeline(f, in_dims)

        checks = []
        # YD0: eps is a YD morphism
        lhs = P((dh, dr)).map_at(mp.act, 0).contract(0, eps_w)
        rhs = P((dh, dr)).contract(0, epsh).contract(0, eps_w)
        checks.append(("yd0_action", lhs, rhs, (dh, dr)))
        lhs = P((dr,)).map_at(mp.coact, 0).contract(1, eps_w)
        rhs = P((dr,)).contract(0, eps_w).insert(0, self.hopf.unit, dh)
        checks.append(("yd0_coaction", lhs, rhs, (dr,)))
        # YD1: eps is an algebra map
        lhs = P((dr, dr)).map_at(mul_r, 0).contract(0, eps_w)
        rhs = P((dr, dr)).contract(0, eps_w).contract(0, eps_w)
        checks.append(("yd1_multiplicative", lhs, rhs, (dr, dr)))
        # YD2: delta left colinear
        lhs = P((dr,)).map_at(delta, 0).map_at(rho_rr, 0)
        rhs = P((dr,)).map_at(mp.coact, 0).map_at(delta, 1)
        checks.append(("yd2_delta_colinear", lhs, rhs, (dr,)))
        # YD3: omega colinear for the adjoint coaction
        lhs = P((dh,)).map_at(omega, 0).map_at(rho_rr, 0)
        rhs = (P((dh,)).map_at(mp.comul_h, 0).map_at(mp.comul_h, 1)
               .map_at(mp.s_h, 2).permute((0, 2, 1))
               .map_at(mp.mul_h, 0).map_at(omega, 1))
        checks.append(("yd3_omega_colinear", lhs, rhs, (dh,)))
        # YD4: delta multiplicative for the braided product
        lhs = P((dr, dr)).map_at(mul_r, 0).map_at(delta, 0)
        rhs = P((dr, dr)).map_at(delta, 0).map_at(delta, 2).map_at(m_rr, 0)
        checks.append(("yd4_delta_braided_multiplicative", lhs, rhs, (dr, dr)))
        # YD5: omega is a normalized cocycle
        lhs = P((dh, dh)).map_at(mp.mul_h, 0).map_at(omega, 0)
        rhs = (P((dh, dh)).map_at(mp.comul_h, 0)  # (h1, h2, k)
               .map_at(omega, 2)  # (h1, h2, w1, w2)
               .map_at(act_rr, 1)  # (h1, a1, a2)
               .map_at(omega, 0)  # (o1, o2, a1, a2)
               .map_at(m_rr, 0))
        checks.append(("yd5_omega_cocycle", lhs, rhs, (dh, dh)))
        # YD6: omega measures the H-linearity defect of delta
        lhs = (P((dh, dr)).map_at(mp.comul_h, 0).permute((0, 2, 1))
               .map_at(mp.act, 0).map_at(delta, 0).map_at(omega, 2).map_at(m_rr, 0))
        rhs = (P((dh, dr)).map_at(mp.comul_h, 0).map_at(omega, 0)
               .map_at(delta, 3).map_at(act_rr, 2).map_at(m_rr, 0))
        checks.append(("yd6_twisted_linearity", lhs, rhs, (dh, dr)))
        # YD7: omega-coassociativity of delta
        lhs = P((dr,)).map_at(delta, 0).map_at(delta, 1)
        rhs = (P((dr,)).map_at(delta, 0).map_at(mp.coact, 1)
               .map_at(delta, 0).map_at(omega, 2).map_at(m_rr, 0))
        checks.append(("yd7_omega_coassoc", lhs, rhs, (dr,)))
        # YD8: compatibility of delta and omega
        lhs = (P((dh,)).map_at(mp.comul_h, 0).map_at(omega, 0)
               .map_at(delta, 1).map_at(omega, 3).map_at(m_rr, 1))
        rhs = (P((dh,)).map_at(mp.comul_h, 0).map_at(omega, 0)
               .map_at(mp.coact, 1).permute((0, 1, 3, 2))
               .map_at(mp.mul_h, 1).map_at(delta, 0).map_at(omega, 2).map_at(m_rr, 0))
        checks.append(("yd8_compatibility", lhs, rhs, (dh,)))
        # YD9: delta counitary
        lhs = P((dr,)).map_at(delta, 0).contract(0, eps_w)
        rhs = P((dr,))
        checks.append(("yd9_delta_counit_l", lhs, rhs, (dr,)))
        lhs = P((dr,)).map_at(delta, 0).contract(1, eps_w)
        checks.append(("yd9_delta_counit_r", lhs, rhs, (dr,)))
        # YD10: omega counitary
        lhs = P((dh,)).map_at(omega, 0).contract(0, eps_w)
        rhs = P((dh,)).contract(0, epsh).insert(0, unit_r, dr)
        checks.append(("yd10_omega_counit_l", lhs, rhs, (dh,)))
        lhs = P((dh,)).map_at(omega, 0).contract(1, eps_w)
        checks.append(("yd10_omega_counit_r", lhs, rhs, (dh,)))
        # normalization of delta and omega at units
        from .tensors import dense_to_sparse

        d1 = delta.apply_at(dense_to_sparse(f, one), (dr,), 0)[0]
        oo = {}
        for i, x in enumerate(one):
            if f.is_zero(x):
                continue
            for j, y in enumerate(one):
                if not f.is_zero(y):
                    oo[(i, j)] = f.mul(x, y)
        rep.record("yd4_delta_unital", sparse_eq(f, d1, oo), "delta(1) != 1 (x) 1")
        o1 = omega.apply_at(dense_to_sparse(f, self.hopf.unit), (dh,), 0)[0]
        rep.record("yd5_omega_unital", sparse_eq(f, o1, oo), "omega(1) != 1 (x) 1")

        from .tensors import pipelines_equal

        for name, lhs, rhs, dims in checks:
            ok, wit = pipelines_equal(lhs, rhs, dims)
            rep.record(name, ok, None if ok else f"fails at basis {wit}")
        return rep

    def _mul_linear(self, mp: _Maps, mul_r: SparseMap) -> bool:
        from .tensors import StagePipeline, pipelines_equal

        f = self.field
        dh, dr = mp.dh, mp.dr
        lhs = StagePipeline(f, (dh, dr, dr)).map_at(mul_r, 1).map_at(mp.act, 0)
        rhs = StagePipeline(f, (dh, dr, dr)).map_at(mp.act_rr(), 0).map_at(mul_r, 0)
        return pipelines_equal(lhs, rhs, (dh, dr, dr))[0]

    def _mul_colinear(self, mp: _Maps, mul_r: SparseMap, rho_rr: SparseMap) -> bool:
        from .tensors import StagePipeline, pipelines_equal

        f = self.field
        dr = mp.dr
        lhs = StagePipeline(f, (dr, dr)).map_at(mul_r, 0).map_at(mp.coact, 0)
        rhs = StagePipeline(f, (dr, dr)).map_at(rho_rr, 0).map_at(mul_r, 1)
        return pipelines_equal(lhs, rhs, (dr, dr))[0]

    def omega_is_trivial(self) -> bool:
        f = self.field
        dh, dr = self.hopf.dim, self.yd.dim
        one = self.r_alg.unit
        for hh in range(dh):
            col = self.omega.col_list(hh)
            expect = v_zero(f, dr * dr)
            e = self.hopf.counit[hh]
            if not f.is_zero(e):
                for i, x in enumerate(one):
                    for j, y in enumerate(one):
                        expect[i * dr + j] = f.mul(e, f.mul(x, y))
            if not v_eq(f, col, expect):
                return False
        return True


class DualYDQuadruple:
    """(R, 1, m, xi) over H: coalgebra R in YD, distinguished grouplike 1,
    multiplication-like m and cocycle xi : R (x) R -> H."""

    def __init__(self, hopf: HopfObject, r_coalg: CoalgebraObject, yd: YDObject,
                 one: list, mul: Matrix, xi: Matrix):
        self.hopf = hopf
        self.r_coalg = r_coalg
        self.yd = yd
        self.one = list(one)
        self.mul = mul  # (dR, dR^2)
        self.xi = xi  # (dH, dR^2)

    @property
    def field(self):
        return self.hopf.field

    def maps(self) -> _Maps:
        return _Maps(self.hopf, self.yd)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        f = self.field
        dh, dr = self.hopf.dim, self.yd.dim
        for name, ok, wit in self.r_coalg.validate().checks:
            rep.record("R_coalgebra:" + name, ok, wit)
        for name, ok, wit in self.yd.validate().checks:
            rep.record("R_yd:" + name, ok, wit)
        mp = self.maps()
        delta = SparseMap.from_matrix(self.r_coalg.comul_matrix(), (dr,), (dr, dr))
        mul = SparseMap.from_matrix(self.mul, (dr, dr), (dr,))
        xi = SparseMap.from_matrix(self.xi, (dr, dr), (dh,))
        delta_rr = _braided_comul_rr(mp, delta)
        act_rr = mp.act_rr()
        rho_rr = mp.rho_rr()
        eps = self.r_coalg.counit
        epsh = self.hopf.counit
        # R a coalgebra in YD: delta and eps are YD morphisms
        from .tensors import StagePipeline, pipelines_equal

        def P(in_dims):
            return StagePipeline(f, in_dims)

        pre = [
            ("R_delta_yd_linear",
             P((dh, dr)).map_at(mp.act, 0).map_at(delta, 0),
             P((dh, dr)).map_at(delta, 1).map_at(act_rr, 0), (dh, dr)),
            ("R_delta_yd_colinear",
             P((dr,)).map_at(delta, 0).map_at(rho_rr, 0),
             P((dr,)).map_at(mp.coact, 0).map_at(delta, 1), (dr,)),
            ("R_eps_yd_linear",
             P((dh, dr)).map_at(mp.act, 0).contract(0, eps),
             P((dh, dr)).contract(0, epsh).contract(0, eps), (dh, dr)),
            ("R_eps_yd_colinear",
             P((dr,)).map_at(mp.coact, 0).contract(1, eps),
             P((dr,)).contract(0, eps).insert(0, self.hopf.unit, dh), (dr,)),
        ]
        for name, lhs, rhs, dims in pre:
            ok, wit = pipelines_equal(lhs, rhs, dims)
            rep.record(name, ok, None if ok else f"fails at basis {wit}")

        checks = []
        # YD0': 1 invariant and coinvariant  (direct vector checks below)
        okA = True
        from .tensors import v_tensor

        for hh in range(dh):
            acted = self.yd.act.apply(v_tensor(f, v_basis(f, dh, hh), self.one))
            if not v_eq(f, acted, [f.mul(epsh[hh], x) for x in self.one]):
                okA = False
        rep.record("yd0_one_invariant", okA, "h . 1 != eps(h) 1")
        rho1 = self.yd.coact.apply(self.one)
        expect = v_zero(f, dh * dr)
        for hh, u in enumerate(self.hopf.unit):
            if f.is_zero(u):
                continue
            for t, x in enumerate(self.one):
                expect[hh * dr + t] = f.add(expect[hh * dr + t], f.mul(u, x))
        rep.record("yd0_one_coinvariant", v_eq(f, rho1, expect), "rho(1) != 1_H (x) 1")
        # YD1': 1 grouplike
        from .tensors import dense_to_sparse

        d1 = delta.apply_at(dense_to_sparse(f, self.one), (dr,), 0)[0]
        oo = {}
        for i, x in enumerate(self.one):
            if f.is_zero(x):
                continue
            for j, y in enumerate(self.one):
                if not f.is_zero(y):
                    oo[(i, j)] = f.mul(x, y)
        e1 = f.zero()
        for a, b in zip(eps, self.one):
            e1 = f.add(e1, f.mul(a, b))
        rep.record("yd1_one_grouplike", sparse_eq(f, d1, oo) and f.is_one(e1), "1 not grouplike")
        # YD2': m left H-linear
        lhs = P((dh, dr, dr)).map_at(mul, 1).map_at(mp.act, 0)
        rhs = P((dh, dr, dr)).map_at(act_rr, 0).map_at(mul, 0)
        checks.append(("yd2_mul_linear", lhs, rhs, (dh, dr, dr)))
        # YD3': xi linear for the adjoint action
        lhs = P((dh, dr, dr)).map_at(act_rr, 0).map_at(xi, 0)
        rhs = (P((dh, dr, dr)).map_at(xi, 1).map_at(mp.comul_h, 0)
               .map_at(mp.s_h, 1).permute((0, 2, 1))
               .map_at(mp.mul_h, 0).map_at(mp.mul_h, 0))
        checks.append(("yd3_xi_adjoint_linear", lhs, rhs, (dh, dr, dr)))
        # YD4': m a coalgebra map for the braided structure
        lhs = P((dr, dr)).map_at(mul, 0).map_at(delta, 0)
        rhs = P((dr, dr)).map_at(delta_rr, 0).map_at(mul, 0).map_at(mul, 1)
        checks.append(("yd4_mul_braided_comultiplicative", lhs, rhs, (dr, dr)))
        lhs = P((dr, dr)).map_at(mul, 0).contract(0, eps)
        rhs = P((dr, dr)).contract(0, eps).contract(0, eps)
        checks.append(("yd4_mul_counit", lhs, rhs, (dr, dr)))
        # YD5': xi a normalized cocycle
        lhs = P((dr, dr)).map_at(xi, 0).map_at(mp.comul_h, 0)
        rhs = (P((dr, dr)).map_at(delta_rr, 0)  # (a,b,c,d)
               .map_at(rho_rr, 2)  # (a,b,h,c0,d0)
               .map_at(xi, 3)  # (a,b,h,x2)
               .map_at(xi, 0)  # (x1,h,x2)
               .map_at(mp.mul_h, 0))
        checks.append(("yd5_xi_cocycle", lhs, rhs, (dr, dr)))
        lhs = P((dr, dr)).map_at(xi, 0).contract(0, epsh)
        rhs = P((dr, dr)).contract(0, eps).contract(0, eps)
        checks.append(("yd5_xi_counit", lhs, rhs, (dr, dr)))
        # YD6': xi measures the colinearity defect of m
        lhs = (P((dr, dr)).map_at(delta_rr, 0).map_at(mul, 0).map_at(xi, 1)
               # c_{R,H}: (r, h) -> r_(-1) h (x) r_(0)
               .map_at(mp.coact, 0).permute((0, 2, 1)).map_at(mp.mul_h, 0))
        rhs = (P((dr, dr)).map_at(delta_rr, 0).map_at(rho_rr, 2)
               .map_at(xi, 0).map_at(mp.mul_h, 0).map_at(mul, 1))
        checks.append(("yd6_twisted_colinearity", lhs, rhs, (dr, dr)))
        # YD7': xi-associativity of m
        lhs = P((dr, dr, dr)).map_at(mul, 1).map_at(mul, 0)
        rhs = (P((dr, dr, dr)).map_at(delta_rr, 0)  # (a,b,c,d,t)
               .map_at(xi, 2)  # (a,b,x,t)
               .map_at(mp.act, 2)  # (a,b,xt)
               .map_at(mul, 0)  # (ab, xt)
               .map_at(mul, 0))
        checks.append(("yd7_xi_associativity", lhs, rhs, (dr, dr, dr)))
        # YD8': compatibility of m and xi
        lhs = (P((dr, dr, dr)).map_at(delta_rr, 1)  # (r, a,b,c,d)
               .map_at(mul, 1)  # (r, ab, c, d)
               .map_at(xi, 2)  # (r, ab, x)
               .map_at(xi, 0)  # (x1, x)
               .map_at(mp.mul_h, 0))
        rhs = (P((dr, dr, dr)).map_at(delta_rr, 0)  # (a,b,c,d,t)
               .map_at(mul, 0)  # (ab, c, d, t)
               .map_at(xi, 1)  # (ab, x, t)
               .map_at(mp.comul_h, 1)  # (ab, x1, x2, t)
               .permute((0, 1, 3, 2))  # (ab, x1, t, x2)
               .map_at(mp.act, 1)  # (ab, x1 t, x2)
               .map_at(xi, 0)  # (y, x2)
               .map_at(mp.mul_h, 0))
        checks.append(("yd8_compatibility", lhs, rhs, (dr, dr, dr)))
        # YD9': 1 is a unit for m
        lhs = P((dr,)).insert(1, self.one, dr).map_at(mul, 0)
        rhs = P((dr,))
        checks.append(("yd9_unit_r", lhs, rhs, (dr,)))
        lhs = P((dr,)).insert(0, self.one, dr).map_at(mul, 0)
        checks.append(("yd9_unit_l", lhs, rhs, (dr,)))
        # YD10': xi normalized at 1
        lhs = P((dr,)).insert(1, self.one, dr).map_at(xi, 0)
        rhs = P((dr,)).contract(0, eps).insert(0, self.hopf.unit, dh)
        checks.append(("yd10_xi_unit_r", lhs, rhs, (dr,)))
        lhs = P((dr,)).insert(0, self.one, dr).map_at(xi, 0)
        checks.append(("yd10_xi_unit_l", lhs, rhs, (dr,)))

        from .tensors import pipelines_equal as peq

        for name, lhs, rhs, dims in checks:
            ok, wit = peq(lhs, rhs, dims)
            rep.record(name, ok, None if ok else f"fails at basis {wit}")
        return rep

    def xi_is_trivial(self) -> bool:
        f = self.field
        dh, dr = self.hopf.dim, self.yd.dim
        eps = self.r_coalg.counit
        for a in range(dr):
            for b in range(dr):
                col = self.xi.col_list(a * dr + b)
                expect = [f.mul(f.mul(eps[a], eps[b]), u) for u in self.hopf.unit]
                if not v_eq(f, col, expect):
                    return False
        return True


# ---------------------------------------------------------------------------
# smash products and bosonization


def smash_product_algebra(r_alg: AlgebraObject, yd: YDObject, hopf: HopfObject,
                          validate: bool = True) -> AlgebraObject:
    """(r # h)(s # k) = r (h1 . s) # h2 k on R (x) H.

    validate=False skips the standalone associativity pass for callers that
    re-validate the whole structure immediately afterwards.
    """
    f = hopf.field
    dr, dh = r_alg.dim, hopf.dim
    dim = dr * dh
    is_fp = f.kind == "Fp"
    p = f.p if is_fp else None
    act_cols = SparseMap.from_matrix(yd.act, (dh, dr), (dr,)).cols
    mul_r = r_alg.mul
    mul_h = hopf.mul
    mul: dict = {}
    for x in range(dh):
        dx = hopf.comul.get(x, {})
        for b in range(dr):
            # coproduct legs of h_x acting on e_b: (h2, c, h1 . e_b)
            pieces = []
            for (h1, h2), c in dx.items():
                acted = act_cols.get((h1, b))
                if acted:
                    pieces.append((h2, c, acted))
            for a in range(dr):
                for y in range(dh):
                    col: dict = {}
                    for h2, c, acted in pieces:
                        hk = mul_h.get((h2, y))
                        if not hk:
                            continue
                        for (s2,), w in acted.items():
                            rprod = mul_r.get((a, s2))
                            if not rprod:
                                continue
                            cw = c * w
                            for r2, u in rprod.items():
                                cwu = cw * u
                                for k2, v in hk.items():
                                    key = r2 * dh + k2
                                    prev = col.get(key)
                                    val = cwu * v if prev is None else prev + cwu * v
                                    if is_fp:
                                        val %= p
                                    col[key] = val
                    col = {k: v for k, v in col.items() if not f.is_zero(v)}
                    if col:
                        mul[(a * dh + x, b * dh + y)] = col
    unit = v_zero(f, dim)
    for i, u in enumerate(r_alg.unit):
        if f.is_zero(u):
            continue
        for j, w in enumerate(hopf.unit):
            if not f.is_zero(w):
                unit[i * dh + j] = f.mul(u, w)
    labels = tuple(f"{rl}#{hl}" for rl in r_alg.labels for hl in hopf.labels)
    out_alg = AlgebraObject(f, dim, mul, unit, labels)
    if validate:
        out_alg.validate().require("smash product algebra")
    return out_alg


def smash_generators(f, r_unit, h_unit, dr, dh):
    """The canonical algebra generating set of R # H: every basis element
    factors as (r # 1)(1 # h), so {r_t # 1} u {1 # h_x} generates."""
    gens = []
    for t in range(dr):
        g = v_zero(f, dr * dh)
        for x, u in enumerate(h_unit):
            if not f.is_zero(u):
                g[t * dh + x] = u
        gens.append(g)
    for x in range(dh):
        g = v_zero(f, dr * dh)
        for t, u in enumerate(r_unit):
            if not f.is_zero(u):
                g[t * dh + x] = u
        gens.append(g)
    return gens


def smash_coproduct_coalgebra(r_coalg: CoalgebraObject, coact: Matrix, hopf: HopfObject) -> CoalgebraObject:
    """Delta(c # h) = c1 # (c2)_(-1) h1 (x) (c2)_(0) # h2 on C (x) H."""
    f = hopf.field
    dr, dh = r_coalg.dim, hopf.dim
    dim = dr * dh
    delta = SparseMap.from_matrix(r_coalg.comul_matrix(), (dr,), (dr, dr))
    coact_m = SparseMap.from_matrix(coact, (dr,), (dh, dr))
    comul_h = SparseMap(f, (dh,), (dh, dh), {k_: dict(c) for k_, c in ((
        (k,), col) for k, col in hopf.comul.items())})
    from .tensors import StagePipeline

    pipe = (StagePipeline(f, (dr, dh))
            .map_at(delta, 0)           # (c1, c2, h)
            .map_at(coact_m, 1)         # (c1, cm, c20, h)
            .map_at(comul_h, 3)         # (c1, cm, c20, h1, h2)
            .permute((0, 1, 3, 2, 4))   # (c1, cm, h1, c20, h2)
            .map_at(SparseMap(f, (dh, dh), (dh,), {(i, j): {(k,): c for k, c in col.items()}
                                                   for (i, j), col in hopf.mul.items()}), 1))
    comul: dict = {}
    for a in range(dr):
        for x in range(dh):
            out, _ = pipe.run_basis((a, x))
            col = {}
            for (c1, hh, c2, h2), c in out.items():
                col[(c1 * dh + hh, c2 * dh + h2)] = c
            if col:
                comul[a * dh + x] = col
    counit = [f.mul(r_coalg.counit[a], hopf.counit[x]) for a in range(dr) for x in range(dh)]
    out_co = CoalgebraObject(f, dim, comul, counit,
                             tuple(f"{rl}#{hl}" for rl in r_coalg.labels for hl in hopf.labels))
    out_co.validate().require("smash coproduct coalgebra")
    return out_co


class Bosonization:
    """A bialgebra on R (x) H together with the structure maps pi, sigma."""

    def __init__(self, bialgebra: BialgebraObject, hopf: HopfObject, r_dim: int,
                 pi: Matrix, sigma: Matrix, side: str):
        self.bialgebra = bialgebra
        self.hopf = hopf
        self.r_dim = r_dim
        self.pi = pi  # (dH, dR*dH)
        self.sigma = sigma  # (dR*dH, dH)
        self.side = side  # "primal" | "dual"


def bosonize(q: YDQuadruple, force: bool = False) -> Bosonization:
    """Bialgebra on R # H: smash algebra + quadruple comultiplication.

    Refuses invalid quadruples unless force=True (used by mutation tests);
    the result is always re-validated via validate_bosonization for valid
    inputs.
    """
    if not force:
        q.validate().require("quadruple")
    f = q.field
    dr, dh = q.yd.dim, q.hopf.dim
    alg = smash_product_algebra(q.r_alg, q.yd, q.hopf, validate=False)
    mp = q.maps()
    delta = SparseMap.from_matrix(q.delta, (dr,), (dr, dr))
    omega = SparseMap.from_matrix(q.omega, (dh,), (dr, dr))
    m_rr = _braided_mul_rr(mp, q.r_alg.mul_map())
    from .tensors import StagePipeline

    pipe = (StagePipeline(f, (dr, dh))
            .map_at(mp.comul_h, 1)       # (r, h1, h2)
            .map_at(mp.comul_h, 2)       # (r, h1, h2, h3)
            .map_at(delta, 0)            # (r1, r2, h1, h2, h3)
            .map_at(omega, 2)            # (r1, r2, w1, w2, h2, h3)
            .map_at(m_rr, 0)             # (d1, d2, h2, h3)
            .map_at(mp.coact, 1)         # (d1, d2m, d20, h2, h3)
            .permute((0, 1, 3, 2, 4))    # (d1, d2m, h2, d20, h3)
            .map_at(mp.mul_h, 1))        # (d1, d2m h2, d20, h3)
    dim = dr * dh
    comul: dict = {}
    for a in range(dr):
        for x in range(dh):
            out, _ = pipe.run_basis((a, x))
            col = {}
            for (r1, hh, r2, h2), c in out.items():
                col[(r1 * dh + hh, r2 * dh + h2)] = c
            if col:
                comul[a * dh + x] = col
    counit = [f.mul(q.eps[a], q.hopf.counit[x]) for a in range(dr) for x in range(dh)]
    bi = BialgebraObject(f, dim, alg.mul, alg.unit, comul, counit, alg.labels)
    pi, sigma = _canonical_pi_sigma(f, dr, dh, q)
    bos = Bosonization(bi, q.hopf, dr, pi, sigma, "primal")
    bos.yd_coact = q.yd.coact
    bos.yd_act = q.yd.act
    bos.generators = smash_generators(f, q.r_alg.unit, q.hopf.unit, dr, dh)
    if not force:
        validate_bosonization(bos).require("bosonization")
    return bos


def dual_bosonize(q: DualYDQuadruple, force: bool = False) -> Bosonization:
    """Bialgebra on R # H: smash coproduct + quadruple multiplication."""
    if not force:
        q.validate().require("dual quadruple")
    f = q.field
    dr, dh = q.yd.dim, q.hopf.dim
    coalg = smash_coproduct_coalgebra(q.r_coalg, q.yd.coact, q.hopf)
    mp = q.maps()
    delta = SparseMap.from_matrix(q.r_coalg.comul_matrix(), (dr,), (dr, dr))
    mul = SparseMap.from_matrix(q.mul, (dr, dr), (dr,))
    xi = SparseMap.from_matrix(q.xi, (dr, dr), (dh,))
    from .tensors import StagePipeline

    # m(r#h (x) s#k) = m(r1 (x) (r2_(-1) h1).s1) # xi(r2_(0) (x) h2.s2) h3 k
    pipe = (StagePipeline(f, (dr, dh, dr, dh))
            .map_at(delta, 0)             # (r1, r2, h, s, k)
            .map_at(mp.coact, 1)          # (r1, rm, r20, h, s, k)
            .map_at(mp.comul_h, 3)        # (r1, rm, r20, h1, h2, s, k)
            .map_at(mp.comul_h, 4)        # (r1, rm, r20, h1, h2, h3, s, k)
            .map_at(delta, 6)             # (r1, rm, r20, h1, h2, h3, s1, s2, k)
            .permute((0, 1, 3, 6, 2, 4, 7, 5, 8))  # (r1, rm, h1, s1, r20, h2, s2, h3, k)
            .map_at(mp.mul_h, 1)          # (r1, rm h1, s1, r20, h2, s2, h3, k)
            .map_at(mp.act, 1)            # (r1, ^s1, r20, h2, s2, h3, k)
            .map_at(mul, 0)               # (m1, r20, h2, s2, h3, k)
            .map_at(mp.act, 2)            # (m1, r20, ^s2, h3, k)
            .map_at(xi, 1)                # (m1, x, h3, k)
            .map_at(mp.mul_h, 1)          # (m1, x h3, k)
            .map_at(mp.mul_h, 1))         # (m1, x h3 k)
    dim = dr * dh
    mul_t: dict = {}
    for a in range(dr):
        for x in range(dh):
            for b in range(dr):
                for y in range(dh):
                    out, _ = pipe.run_basis((a, x, b, y))
                    col = {r * dh + h: c for (r, h), c in out.items()}
                    if col:
                        mul_t[(a * dh + x, b * dh + y)] = col
    unit = v_zero(f, dim)
    for i, u in enumerate(q.one):
        if f.is_zero(u):
            continue
        for j, w in enumerate(q.hopf.unit):
            if not f.is_zero(w):
                unit[i * dh + j] = f.mul(u, w)
    bi = BialgebraObject(f, dim, mul_t, unit, coalg.comul, coalg.counit, coalg.labels)
    pi, sigma = _canonical_pi_sigma_dual(f, dr, dh, q)
    bos = Bosonization(bi, q.hopf, dr, pi, sigma, "dual")
    bos.yd_coact = q.yd.coact
    bos.yd_act = q.yd.act
    bos.generators = smash_generators(f, q.one, q.hopf.unit, dr, dh)
    if not force:
        validate_bosonization(bos).require("dual bosonization")
    return bos


def _canonical_pi_sigma(f, dr, dh, q: YDQuadruple):
    pi_entries = {}
    for a in range(dr):
        e = q.eps[a]
        if f.is_zero(e):
            continue
        for x in range(dh):
            pi_entries[(x, a * dh + x)] = e
    pi = Matrix.from_entries(f, dh, dr * dh, pi_entries)
    sig_entries = {}
    for i, u in enumerate(q.r_alg.unit):
        if f.is_zero(u):
            continue
        for x in range(dh):
            sig_entries[(i * dh + x, x)] = u
    sigma = Matrix.from_entries(f, dr * dh, dh, sig_entries)
    return pi, sigma


def _canonical_pi_sigma_dual(f, dr, dh, q: DualYDQuadruple):
    eps = q.r_coalg.counit
    pi_entries = {}
    for a in range(dr):
        e = eps[a]
        if f.is_zero(e):
            continue
        for x in range(dh):
            pi_entries[(x, a * dh + x)] = e
    pi = Matrix.from_entries(f, dh, dr * dh, pi_entries)
    sig_entries = {}
    for i, u in enumerate(q.one):
        if f.is_zero(u):
            continue
        for x in range(dh):
            sig_entries[(i * dh + x, x)] = u
    sigma = Matrix.from_entries(f, dr * dh, dh, sig_entries)
    return pi, sigma


def validate_bosonization(bos: Bosonization) -> ValidationReport:
    """Full re-validation: bialgebra axioms plus every structural claim of
    the projection/section pair.

    primal: pi is a bialgebra map, sigma a bicolinear algebra section;
    dual:   sigma is a bialgebra map, pi a bilinear coalgebra retraction.
    In both cases the (co)actions induced by pi/sigma must coincide with
    the canonical smash structures (right ones canonical, left diagonal).
    """
    rep = ValidationReport()
    bi = bos.bialgebra
    h = bos.hopf
    f = bi.field
    dh = h.dim
    dr = bos.r_dim
    gens = getattr(bos, "generators", None)
    for name, ok, wit in bi.validate(generator_vectors=gens).checks:
        rep.record("bialgebra:" + name, ok, wit)
    pi, sigma = bos.pi, bos.sigma
    rep.record("pi_coalgebra_map", is_coalgebra_map(bi.as_coalgebra(), h.as_coalgebra(), pi),
               "pi is not a coalgebra map")
    rep.record("sigma_algebra_map", is_algebra_map(h.as_algebra(), bi.as_algebra(), sigma),
               "sigma is not an algebra map")
    if bos.side == "primal":
        rep.record("pi_algebra_map", is_algebra_map(bi.as_algebra(), h.as_algebra(), pi),
                   "pi is not an algebra map")
    else:
        rep.record("sigma_coalgebra_map", is_coalgebra_map(h.as_coalgebra(), bi.as_coalgebra(), sigma),
                   "sigma is not a coalgebra map")
        # pi bilinear for the actions induced by sigma
        ok = True
        n = dr * dh
        for hh in range(dh):
            sh = sigma.col_list(hh)
            for i in range(n):
                lhs = pi.apply(bi.product(sh, v_basis(f, n, i)))
                rhs = h.product(v_basis(f, dh, hh), pi.apply(v_basis(f, n, i)))
                if not v_eq(f, lhs, rhs):
                    ok = False
                lhs = pi.apply(bi.product(v_basis(f, n, i), sh))
                rhs = h.product(pi.apply(v_basis(f, n, i)), v_basis(f, dh, hh))
                if not v_eq(f, lhs, rhs):
                    ok = False
        rep.record("pi_bilinear", ok, "pi is not (H,H)-bilinear")
    comp = pi @ sigma
    rep.record("pi_sigma_id", comp == Matrix.identity(f, dh), "pi sigma != id")
    # induced right coaction (id (x) pi) Delta must be r#h1 (x) h2
    ok = True
    for a in range(dr):
        for x in range(dh):
            expect: dict = {}
            for (h1, h2), c in h.comul.get(x, {}).items():
                key = (a * dh + h1, h2)
                expect[key] = f.add(expect.get(key, f.zero()), c)
            got: dict = {}
            for (u, v), c in bi.comul.get(a * dh + x, {}).items():
                pv = pi.col_list(v)
                for hh, w in enumerate(pv):
                    if f.is_zero(w):
                        continue
                    key = (u, hh)
                    s = f.add(got.get(key, f.zero()), f.mul(c, w))
                    if f.is_zero(s):
                        got.pop(key, None)
                    else:
                        got[key] = s
            if not sparse_eq(f, got, expect):
                ok = False
    rep.record("induced_right_coaction", ok, "(id (x) pi) Delta is not the smash coaction")
    # induced left coaction (pi (x) id) Delta must be r_(-1) h1 (x) r_0 # h2
    ok = True
    yd_coact = getattr(bos, "yd_coact", None)
    if yd_coact is not None:
        for a in range(dr):
            for x in range(dh):
                expect = {}
                rho = yd_coact.col_list(a)
                for idx, c in enumerate(rho):
                    if f.is_zero(c):
                        continue
                    hm, r0 = idx // dr, idx % dr
                    for (h1, h2), c2 in h.comul.get(x, {}).items():
                        for hp, c3 in h.mul.get((hm, h1), {}).items():
                            key = (hp, r0 * dh + h2)
                            s = f.add(expect.get(key, f.zero()), f.mul(c, f.mul(c2, c3)))
                            if f.is_zero(s):
                                expect.pop(key, None)
                            else:
                                expect[key] = s
                got = {}
                for (u, v), c in bi.comul.get(a * dh + x, {}).items():
                    pu = pi.col_list(u)
                    for hh, w in enumerate(pu):
                        if f.is_zero(w):
                            continue
                        key = (hh, v)
                        s = f.add(got.get(key, f.zero()), f.mul(c, w))
                        if f.is_zero(s):
                            got.pop(key, None)
                        else:
                            got[key] = s
                if not sparse_eq(f, got, expect):
                    ok = False
        rep.record("induced_left_coaction", ok, "(pi (x) id) Delta is not the diagonal coaction")
    # induced actions via sigma must be the smash module structures
    ok = True
    for x in range(dh):
        sx = sigma.col_list(x)
        for a in range(dr):
            for y in range(dh):
                got = bi.product(v_basis(f, dr * dh, a * dh + y), sx)
                expect = v_zero(f, dr * dh)
                for k, c in h.mul.get((y, x), {}).items():
                    expect[a * dh + k] = f.add(expect[a * dh + k], c)
                if not v_eq(f, got, expect):
                    ok = False
    rep.record("induced_right_action", ok, "(r#k) sigma(h) != r # kh")
    yd_act = getattr(bos, "yd_act", None)
    if yd_act is not None:
        ok = True
        from .tensors import v_tensor

        for x in range(dh):
            sx = sigma.col_list(x)
            for a in range(dr):
                for y in range(dh):
                    got = bi.product(sx, v_basis(f, dr * dh, a * dh + y))
                    expect = v_zero(f, dr * dh)
                    for (h1, h2), c in h.comul.get(x, {}).items():
                        acted = yd_act.apply(v_tensor(f, v_basis(f, dh, h1), v_basis(f, dr, a)))
                        for r2, w in enumerate(acted):
                            if f.is_zero(w):
                                continue
                            for k, c2 in h.mul.get((h2, y), {}).items():
                                expect[r2 * dh + k] = f.add(expect[r2 * dh + k], f.mul(c, f.mul(w, c2)))
                    if not v_eq(f, got, expect):
                        ok = False
        rep.record("induced_left_action", ok, "sigma(h)(r#k) != (h1.r) # h2 k")
    return rep


# ---------------------------------------------------------------------------
# extraction from split bialgebras


def coactions_from_pi(a: BialgebraObject, pi: Matrix, dh: int):
    """rho_l = (pi (x) id) Delta and rho_r = (id (x) pi) Delta as matrices."""
    f = a.field
    n = a.dim
    cl_e: dict = {}
    cr_e: dict = {}
    for k in range(n):
        for (i, j), c in a.comul.get(k, {}).items():
            pv = pi.col_list(i)
            for hh, w in enumerate(pv):
                if not f.is_zero(w):
                    key = (hh * n + j, k)
                    cl_e[key] = f.add(cl_e.get(key, f.zero()), f.mul(c, w))
            pv = pi.col_list(j)
            for hh, w in enumerate(pv):
                if not f.is_zero(w):
                    key = (i * dh + hh, k)
                    cr_e[key] = f.add(cr_e.get(key, f.zero()), f.mul(c, w))
    coact_l = Matrix.from_entries(f, dh * n, n, cl_e)
    coact_r = Matrix.from_entries(f, n * dh, n, cr_e)
    return coact_l, coact_r


def actions_from_sigma(a: BialgebraObject, sigma: Matrix, dh: int):
    """act_l(h (x) a) = sigma(h) a and act_r(a (x) h) = a sigma(h)."""
    f = a.field
    n = a.dim
    al_e: dict = {}
    ar_e: dict = {}
    for hh in range(dh):
        sh = sigma.col_list(hh)
        for i in range(n):
            prod = a.product(sh, v_basis(f, n, i))
            for k, c in enumerate(prod):
                if not f.is_zero(c):
                    al_e[(k, hh * n + i)] = c
            prod = a.product(v_basis(f, n, i), sh)
            for k, c in enumerate(prod):
                if not f.is_zero(c):
                    ar_e[(k, i * dh + hh)] = c
    act_l = Matrix.from_entries(f, n, dh * n, al_e)
    act_r = Matrix.from_entries(f, n, n * dh, ar_e)
    return act_l, act_r


class ExtractionError(Exception):
    pass


def _split_premises(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix, side: str):
    f = a.field
    if not (pi @ sigma == Matrix.identity(f, h.dim)):
        raise ExtractionError("pi sigma != id")
    if side == "primal":
        if not is_algebra_map(a.as_algebra(), h.as_algebra(), pi):
            raise ExtractionError("pi is not an algebra map")
        if not is_coalgebra_map(a.as_coalgebra(), h.as_coalgebra(), pi):
            raise ExtractionError("pi is not a coalgebra map")
        if not is_algebra_map(h.as_algebra(), a.as_algebra(), sigma):
            raise ExtractionError("sigma is not an algebra map")
        # sigma bicolinear for the coactions induced by pi
        coact_l, coact_r = coactions_from_pi(a, pi, h.dim)
        n, dh = a.dim, h.dim
        for hh in range(dh):
            sh = sigma.col_list(hh)
            lhs = coact_r.apply(sh)
            rhs = v_zero(f, n * dh)
            for (h1, h2), c in h.comul.get(hh, {}).items():
                for x, w in enumerate(sigma.col_list(h1)):
                    if not f.is_zero(w):
                        rhs[x * dh + h2] = f.add(rhs[x * dh + h2], f.mul(c, w))
            if not v_eq(f, lhs, rhs):
                raise ExtractionError("sigma is not right colinear")
            lhs = coact_l.apply(sh)
            rhs = v_zero(f, dh * n)
            for (h1, h2), c in h.comul.get(hh, {}).items():
                for x, w in enumerate(sigma.col_list(h2)):
                    if not f.is_zero(w):
                        rhs[h1 * n + x] = f.add(rhs[h1 * n + x], f.mul(c, w))
            if not v_eq(f, lhs, rhs):
                raise ExtractionError("sigma is not left colinear")
    else:
        if not is_algebra_map(h.as_algebra(), a.as_algebra(), sigma):
            raise ExtractionError("sigma is not an algebra map")
        if not is_coalgebra_map(h.as_coalgebra(), a.as_coalgebra(), sigma):
            raise ExtractionError("sigma is not a coalgebra map")
        if not is_coalgebra_map(a.as_coalgebra(), h.as_coalgebra(), pi):
            raise ExtractionError("pi is not a coalgebra map")
        # pi bilinear: pi(sigma(h) a sigma(k)) = h pi(a) k
        f2 = f
        n, dh = a.dim, h.dim
        for hh in range(dh):
            sh = sigma.col_list(hh)
            for i in range(n):
                lhs = pi.apply(a.product(sh, v_basis(f, n, i)))
                rhs = h.product(v_basis(f, dh, hh), pi.apply(v_basis(f, n, i)))
                if not v_eq(f2, lhs, rhs):
                    raise ExtractionError("pi is not left H-linear")
                lhs = pi.apply(a.product(v_basis(f, n, i), sh))
                rhs = h.product(pi.apply(v_basis(f, n, i)), v_basis(f, dh, hh))
                if not v_eq(f2, lhs, rhs):
                    raise ExtractionError("pi is not right H-linear")


def _diagram_yd(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix):
    """Coinvariants R with adjoint action and restricted left coaction."""
    f = a.field
    n, dh = a.dim, h.dim
    coact_l, coact_r = coactions_from_pi(a, pi, dh)
    act_l, act_r = actions_from_sigma(a, sigma, dh)
    v = CatObject(f, n, h, coact_l, coact_r, act_l, act_r)
    from .category import yd_from_hopf_bimodule

    yd, incl = yd_from_hopf_bimodule(v)
    return yd, incl, v


def extract_quadruple_primal(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix) -> YDQuadruple:
    """R = right coinvariants; delta, omega via (P (x) P) Delta with
    P = (id (x) eps_H) phi^{-1}; validated before returning."""
    f = a.field
    _split_premises(a, h, pi, sigma, "primal")
    yd, incl, v = _diagram_yd(a, h, pi, sigma)
    dr, dh, n = yd.dim, h.dim, a.dim
    phi, phi_inv = phi_iso(v, incl)
    # P : A -> R
    p_entries: dict = {}
    for i in range(n):
        w = phi_inv.col_list(i)
        for idx, c in enumerate(w):
            if f.is_zero(c):
                continue
            t, hh = idx // dh, idx % dh
            e = h.counit[hh]
            if not f.is_zero(e):
                key = (t, i)
                p_entries[key] = f.add(p_entries.get(key, f.zero()), f.mul(c, e))
    p = Matrix.from_entries(f, dr, n, p_entries)
    # multiplication on R: products of coinvariants stay coinvariant
    r_space = Subspace.from_matrix_rows(incl.transpose())
    piv = r_space.pivots
    mul_r: dict = {}
    for s in range(dr):
        sv = incl.col_list(s)
        for t in range(dr):
            prod = a.product(sv, incl.col_list(t))
            if not r_space.contains_vector(prod):
                raise ExtractionError("R is not closed under multiplication")
            col = {}
            for u in range(dr):
                cval = prod[piv[u]]
                if not f.is_zero(cval):
                    col[u] = cval
            if col:
                mul_r[(s, t)] = col
    one_r = [a.unit[piv[u]] for u in range(dr)]
    r_alg = AlgebraObject(f, dr, mul_r, one_r, tuple(f"r{t}" for t in range(dr)))
    # delta and omega
    dpp_cols_delta: dict = {}
    for t in range(dr):
        img = _pp_delta(a, p, incl.col_list(t))
        for key, c in img.items():
            dpp_cols_delta[(key[0] * dr + key[1], t)] = c
    delta = Matrix.from_entries(f, dr * dr, dr, dpp_cols_delta)
    om_cols: dict = {}
    for x in range(dh):
        img = _pp_delta(a, p, sigma.col_list(x))
        for key, c in img.items():
            om_cols[(key[0] * dr + key[1], x)] = c
    omega = Matrix.from_entries(f, dr * dr, dh, om_cols)
    eps_r = [a.counit_of(incl.col_list(t)) for t in range(dr)]
    q = YDQuadruple(h, r_alg, yd, eps_r, delta, omega)
    q.validate().require("extracted quadruple")
    return q


def _pp_delta(a: BialgebraObject, p: Matrix, vec: list) -> dict:
    """(P (x) P) Delta(vec) as a sparse {(s,t): c} dict."""
    f = a.field
    out: dict = {}
    for (i, j), c in a.comul_vec(vec).items():
        pi_ = p.col_list(i)
        pj = p.col_list(j)
        for s, x in enumerate(pi_):
            if f.is_zero(x):
                continue
            for t, y in enumerate(pj):
                if f.is_zero(y):
                    continue
                key = (s, t)
                v = f.add(out.get(key, f.zero()), f.mul(c, f.mul(x, y)))
                if f.is_zero(v):
                    out.pop(key, None)
                else:
                    out[key] = v
    return out


def extract_quadruple_dual(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix) -> DualYDQuadruple:
    """Dual-side extraction: delta via the cotensor identification, m and xi
    by splitting phi^{-1} of products; validated before returning."""
    f = a.field
    _split_premises(a, h, pi, sigma, "dual")
    yd, incl, v = _diagram_yd(a, h, pi, sigma)
    dr, dh, n = yd.dim, h.dim, a.dim
    phi, phi_inv = phi_iso(v, incl)
    r_space = Subspace.from_matrix_rows(incl.transpose())
    piv = r_space.pivots
    # delta(r) = r1 sigma(S pi(r2)) (x) r3, laid down in R (x) R
    comul_delta: dict = {}
    s_h = h.antipode
    for t in range(dr):
        rv = incl.col_list(t)
        col: dict = {}
        for (i, j), c in a.comul_vec(rv).items():
            # split Delta(r) = r1 (x) r2, then r2 -> pi(r2_1)... use Delta again
            for (j1, j2), c2 in a.comul.get(j, {}).items():
                pj = pi.col_list(j1)
                for hh, w in enumerate(pj):
                    if f.is_zero(w):
                        continue
                    sh = s_h.apply(v_basis(f, dh, hh))
                    for hh2, w2 in enumerate(sh):
                        if f.is_zero(w2):
                            continue
                        left = a.product(v_basis(f, n, i), sigma.col_list(hh2))
                        coef = f.mul(c, f.mul(c2, f.mul(w, w2)))
                        for x, xv in enumerate(left):
                            if not f.is_zero(xv):
                                key = (x, j2)
                                col[key] = f.add(col.get(key, f.zero()), f.mul(coef, xv))
        # col lives in R (x) R inside A (x) A: read off coordinates
        rcol: dict = {}
        for (x, y), cval in col.items():
            if f.is_zero(cval):
                continue
            rcol[(x, y)] = cval
        # verify membership and convert
        filtered = _tensor_coords_in_r(f, r_space, piv, rcol, n)
        if filtered is None:
            raise ExtractionError("delta does not land in R (x) R")
        if filtered:
            comul_delta[t] = filtered
    eps_r = [a.counit_of(incl.col_list(t)) for t in range(dr)]
    r_coalg = CoalgebraObject(f, dr, comul_delta, eps_r, tuple(f"r{t}" for t in range(dr)))
    r_coalg.validate().require("diagram coalgebra")
    # one, m, xi
    one_r = [a.unit[piv[u]] for u in range(dr)]
    if not r_space.contains_vector(a.unit):
        raise ExtractionError("1_A is not right coinvariant")
    mul_e: dict = {}
    xi_e: dict = {}
    for s in range(dr):
        sv = incl.col_list(s)
        for t in range(dr):
            prod = a.product(sv, incl.col_list(t))
            w = phi_inv.apply(prod)
            for idx, c in enumerate(w):
                if f.is_zero(c):
                    continue
                u, hh = idx // dh, idx % dh
                e = h.counit[hh]
                if not f.is_zero(e):
                    key = (u, s * dr + t)
                    mul_e[key] = f.add(mul_e.get(key, f.zero()), f.mul(c, e))
                er = eps_r[u]
                if not f.is_zero(er):
                    key = (hh, s * dr + t)
                    xi_e[key] = f.add(xi_e.get(key, f.zero()), f.mul(c, er))
    mul = Matrix.from_entries(f, dr, dr * dr, mul_e)
    xi = Matrix.from_entries(f, dh, dr * dr, xi_e)
    q = DualYDQuadruple(h, r_coalg, yd, one_r, mul, xi)
    q.validate().require("extracted dual quadruple")
    return q


def _tensor_coords_in_r(f, r_space: Subspace, piv: list, vec: dict, n: int):
    """Coordinates of an element of R (x) R (inside A (x) A) in the RREF
    basis of R, or None if it escapes R (x) R."""
    # rebuild from pivot read-off and compare
    dr = r_space.dim
    coords: dict = {}
    for s in range(dr):
        for t in range(dr):
            c = vec.get((piv[s], piv[t]))
            if c is not None and not f.is_zero(c):
                coords[(s, t)] = c
    rebuilt: dict = {}
    for (s, t), c in coords.items():
        bs = r_space.basis.row_list(s)
        bt = r_space.basis.row_list(t)
        for x, a_ in enumerate(bs):
            if f.is_zero(a_):
                continue
            for y, b_ in enumerate(bt):
                if f.is_zero(b_):
                    continue
                key = (x, y)
                v = f.add(rebuilt.get(key, f.zero()), f.mul(c, f.mul(a_, b_)))
                if f.is_zero(v):
                    rebuilt.pop(key, None)
                else:
                    rebuilt[key] = v
    if not sparse_eq(f, rebuilt, vec):
        return None
    return coords
