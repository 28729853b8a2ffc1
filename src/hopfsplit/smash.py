"""Smash products, Yetter-Drinfeld quadruples (both variants), their
validation, bosonization and extraction from split bialgebras.

A quadruple (R, eps, delta, omega) packages an algebra R in the YD
category with a comultiplication-like map delta : R -> R (x) R and a
cocycle omega : H -> R (x) R; its eleven axioms are exactly the
conditions making the smash product R # H a bialgebra.  The dual variant
(R, 1, m, xi) does the same for the smash coproduct.  Every axiom and
every smash structure is a `tensors.StagePipeline`, evaluated on the whole
basis at once, and every constructed bosonization is re-validated from
scratch.

That sigma is (bi)colinear, or pi (bi)linear, for the (co)actions the
other induces on A is decided by `category.morphism_defects`, in the
extraction premises and the bosonization check alike.
"""
from __future__ import annotations

from functools import cached_property

from .algebra import AlgebraObject, ValidationReport, constants_of, pairwise_products, pipeline_constants
from .category import (
    CatObject,
    CategoryContext,
    YDObject,
    hopf_bimodule_structures,
    morphism_defects,
    phi_iso,
    yd_from_hopf_bimodule,
)
from .coalgebra import CoalgebraObject, _outer, _square_coordinates
from .hopf import BialgebraObject, HopfObject, is_algebra_map, is_coalgebra_map
from .linalg import Matrix, SparseMap, Subspace
from .tensors import StagePipeline, pipelines_equal, v_eq, v_tensor, vector


class _Maps:
    """Stage maps shared by the quadruple validators and bosonizations.  The
    structure maps are those H and R keep (`mul_map`, `comul_map`,
    `YDObject.act_map`, `coact_map`), so building this costs nothing; the
    diagonal (co)actions on R (x) R serve one `validate` and are built
    there."""

    __slots__ = ("f", "dh", "dr", "mul_h", "comul_h", "act", "coact")

    def __init__(self, hopf: HopfObject, yd: YDObject):
        self.f = hopf.field
        self.dh = hopf.dim
        self.dr = yd.dim
        self.mul_h = hopf.as_algebra().mul_map()
        self.comul_h = hopf.as_coalgebra().comul_map()
        self.act = yd.act_map
        self.coact = yd.coact_map

    def P(self, *dims) -> StagePipeline:
        return StagePipeline(self.f, dims)

    def act_rr(self) -> SparseMap:
        """Diagonal H-action on R (x) R: (h, a, b) -> (h1, a, h2, b) -> (h1.a, h2.b)."""
        dh, dr = self.dh, self.dr
        return (self.P(dh, dr, dr).map_at(self.comul_h, 0).permute((0, 2, 1, 3))
                .map_at(self.act, 0).map_at(self.act, 1).sparse_map())

    def rho_rr(self) -> SparseMap:
        """Diagonal H-coaction on R (x) R: (a, b) -> (h, a0, h', b0) -> (h h', a0, b0)."""
        dr = self.dr
        return (self.P(dr, dr).map_at(self.coact, 0).map_at(self.coact, 2)
                .permute((0, 2, 1, 3)).map_at(self.mul_h, 0).sparse_map())


def _braided_mul_rr(maps: _Maps, mul_r: SparseMap) -> SparseMap:
    """(r (x) s)(t (x) v) = r (s_(-1) . t) (x) s_(0) v on R (x) R."""
    dr = maps.dr
    return (maps.P(dr, dr, dr, dr)
            .map_at(maps.coact, 1)  # (a, b-1, b0, c, d)
            .permute((0, 1, 3, 2, 4))  # (a, b-1, c, b0, d)
            .map_at(maps.act, 1)  # (a, bc, b0, d)
            .map_at(mul_r, 0)  # (abc, b0, d)
            .map_at(mul_r, 1)  # (abc, b0 d)
            .sparse_map())


def _braided_comul_rr(maps: _Maps, delta: SparseMap) -> SparseMap:
    """delta_{R(x)R} = (id (x) c_{R,R} (x) id)(delta (x) delta)."""
    dr = maps.dr
    return (maps.P(dr, dr)
            .map_at(delta, 0).map_at(delta, 2)  # (a1, a2, b1, b2)
            # braid (a2, b1): c(x (x) y) = x_(-1) . y (x) x_(0)
            .map_at(maps.coact, 1)  # (a1, am, a20, b1, b2)
            .permute((0, 1, 3, 2, 4))  # (a1, am, b1, a20, b2)
            .map_at(maps.act, 1)  # (a1, ^b1, a20, b2)
            .sparse_map())


def _record_pipelines(rep: ValidationReport, checks):
    for name, lhs, rhs in checks:
        wit = pipelines_equal(lhs, rhs)
        rep.record(name, wit is None, f"fails at basis {wit}")


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
        self._verified = False  # the last `validate` passed

    @property
    def field(self):
        return self.hopf.field

    def maps(self) -> _Maps:
        return _Maps(self.hopf, self.yd)

    @cached_property
    def delta_map(self) -> SparseMap:
        return SparseMap.from_matrix(self.delta, (self.yd.dim,), (self.yd.dim,) * 2)

    @cached_property
    def omega_map(self) -> SparseMap:
        return SparseMap.from_matrix(self.omega, (self.hopf.dim,), (self.yd.dim,) * 2)

    @cached_property
    def m_rr(self) -> SparseMap:
        """The braided product of R (x) R, built once: `validate` and
        `bosonize` both apply it."""
        return _braided_mul_rr(self.maps(), self.r_alg.mul_map())

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
        P = mp.P
        mul_r = self.r_alg.mul_map()
        delta, omega, m_rr = self.delta_map, self.omega_map, self.m_rr
        act_rr = mp.act_rr()
        rho_rr = mp.rho_rr()
        rep.record("R_mul_yd_linear", pipelines_equal(
            P(dh, dr, dr).map_at(mul_r, 1).map_at(mp.act, 0),
            P(dh, dr, dr).map_at(act_rr, 0).map_at(mul_r, 0)) is None, "mul not H-linear")
        rep.record("R_mul_yd_colinear", pipelines_equal(
            P(dr, dr).map_at(mul_r, 0).map_at(mp.coact, 0),
            P(dr, dr).map_at(rho_rr, 0).map_at(mul_r, 1)) is None, "mul not H-colinear")
        one = self.r_alg.unit
        # the units and counits as the stages read them, converted once
        one_v, eps_w, epsh, unit_h = (vector(f, x) for x in (one, self.eps, self.hopf.counit, self.hopf.unit))
        # unit invariance/coinvariance
        rep.record("R_unit_invariant", pipelines_equal(
            P(dh).insert(1, one_v, dr).map_at(mp.act, 0), P(dh).contract(0, epsh).insert(0, one_v, dr)) is None,
            "h . 1 != eps(h) 1")
        rep.record("R_unit_coinvariant", v_eq(f, self.yd.coact.apply(one), v_tensor(f, self.hopf.unit, one)),
                   "rho(1) != 1_H (x) 1")

        checks = [
            # YD0: eps is a YD morphism
            ("yd0_action", P(dh, dr).map_at(mp.act, 0).contract(0, eps_w),
             P(dh, dr).contract(0, epsh).contract(0, eps_w)),
            ("yd0_coaction", P(dr).map_at(mp.coact, 0).contract(1, eps_w),
             P(dr).contract(0, eps_w).insert(0, unit_h, dh)),
            # YD1: eps is an algebra map
            ("yd1_multiplicative", P(dr, dr).map_at(mul_r, 0).contract(0, eps_w),
             P(dr, dr).contract(0, eps_w).contract(0, eps_w)),
            # YD2: delta left colinear
            ("yd2_delta_colinear", P(dr).map_at(delta, 0).map_at(rho_rr, 0),
             P(dr).map_at(mp.coact, 0).map_at(delta, 1)),
            # YD3: omega colinear for the adjoint coaction
            ("yd3_omega_colinear", P(dh).map_at(omega, 0).map_at(rho_rr, 0),
             P(dh).map_at(mp.comul_h, 0).map_at(mp.comul_h, 1).map_at(self.hopf.antipode_map, 2).permute((0, 2, 1))
             .map_at(mp.mul_h, 0).map_at(omega, 1)),
            # YD4: delta multiplicative for the braided product
            ("yd4_delta_braided_multiplicative", P(dr, dr).map_at(mul_r, 0).map_at(delta, 0),
             P(dr, dr).map_at(delta, 0).map_at(delta, 2).map_at(m_rr, 0)),
            # YD5: omega is a normalized cocycle
            ("yd5_omega_cocycle", P(dh, dh).map_at(mp.mul_h, 0).map_at(omega, 0),
             P(dh, dh).map_at(mp.comul_h, 0)  # (h1, h2, k)
             .map_at(omega, 2)  # (h1, h2, w1, w2)
             .map_at(act_rr, 1)  # (h1, a1, a2)
             .map_at(omega, 0)  # (o1, o2, a1, a2)
             .map_at(m_rr, 0)),
            # YD6: omega measures the H-linearity defect of delta
            ("yd6_twisted_linearity",
             P(dh, dr).map_at(mp.comul_h, 0).permute((0, 2, 1))
             .map_at(mp.act, 0).map_at(delta, 0).map_at(omega, 2).map_at(m_rr, 0),
             P(dh, dr).map_at(mp.comul_h, 0).map_at(omega, 0)
             .map_at(delta, 3).map_at(act_rr, 2).map_at(m_rr, 0)),
            # YD7: omega-coassociativity of delta
            ("yd7_omega_coassoc", P(dr).map_at(delta, 0).map_at(delta, 1),
             P(dr).map_at(delta, 0).map_at(mp.coact, 1).map_at(delta, 0).map_at(omega, 2).map_at(m_rr, 0)),
            # YD8: compatibility of delta and omega
            ("yd8_compatibility",
             P(dh).map_at(mp.comul_h, 0).map_at(omega, 0).map_at(delta, 1).map_at(omega, 3).map_at(m_rr, 1),
             P(dh).map_at(mp.comul_h, 0).map_at(omega, 0).map_at(mp.coact, 1).permute((0, 1, 3, 2))
             .map_at(mp.mul_h, 1).map_at(delta, 0).map_at(omega, 2).map_at(m_rr, 0)),
            # YD9: delta counitary
            ("yd9_delta_counit_l", P(dr).map_at(delta, 0).contract(0, eps_w), P(dr)),
            ("yd9_delta_counit_r", P(dr).map_at(delta, 0).contract(1, eps_w), P(dr)),
            # YD10: omega counitary
            ("yd10_omega_counit_l", P(dh).map_at(omega, 0).contract(0, eps_w),
             P(dh).contract(0, epsh).insert(0, one_v, dr)),
            ("yd10_omega_counit_r", P(dh).map_at(omega, 0).contract(1, eps_w),
             P(dh).contract(0, epsh).insert(0, one_v, dr)),
        ]
        # normalization of delta and omega at units
        rep.record("yd4_delta_unital", v_eq(f, self.delta.apply(one), v_tensor(f, one, one)), "delta(1) != 1 (x) 1")
        rep.record("yd5_omega_unital", v_eq(f, self.omega.apply(self.hopf.unit), v_tensor(f, one, one)),
                   "omega(1) != 1 (x) 1")
        _record_pipelines(rep, checks)
        self._verified = rep.ok
        return rep

    def omega_is_trivial(self) -> bool:
        """omega(h) = eps(h) 1 (x) 1 for every h."""
        f, one = self.field, self.r_alg.unit
        return self.omega == _outer(f, v_tensor(f, one, one), self.hopf.counit)


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
        self._verified = False  # the last `validate` passed

    @property
    def field(self):
        return self.hopf.field

    def maps(self) -> _Maps:
        return _Maps(self.hopf, self.yd)

    @cached_property
    def mul_map(self) -> SparseMap:
        return SparseMap.from_matrix(self.mul, (self.yd.dim,) * 2, (self.yd.dim,))

    @cached_property
    def xi_map(self) -> SparseMap:
        return SparseMap.from_matrix(self.xi, (self.yd.dim,) * 2, (self.hopf.dim,))

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        f = self.field
        dh, dr = self.hopf.dim, self.yd.dim
        for name, ok, wit in self.r_coalg.validate().checks:
            rep.record("R_coalgebra:" + name, ok, wit)
        for name, ok, wit in self.yd.validate().checks:
            rep.record("R_yd:" + name, ok, wit)
        mp = self.maps()
        P = mp.P
        delta_m = self.r_coalg.comul_matrix()
        delta = self.r_coalg.comul_map()
        mul, xi = self.mul_map, self.xi_map
        delta_rr = _braided_comul_rr(mp, delta)
        act_rr = mp.act_rr()
        rho_rr = mp.rho_rr()
        # the units and counits as the stages read them, converted once
        eps, epsh, one, unit_h = (vector(f, x) for x in (self.r_coalg.counit, self.hopf.counit, self.one,
                                                          self.hopf.unit))
        # R a coalgebra in YD: delta and eps are YD morphisms
        _record_pipelines(rep, [
            ("R_delta_yd_linear", P(dh, dr).map_at(mp.act, 0).map_at(delta, 0),
             P(dh, dr).map_at(delta, 1).map_at(act_rr, 0)),
            ("R_delta_yd_colinear", P(dr).map_at(delta, 0).map_at(rho_rr, 0),
             P(dr).map_at(mp.coact, 0).map_at(delta, 1)),
            ("R_eps_yd_linear", P(dh, dr).map_at(mp.act, 0).contract(0, eps),
             P(dh, dr).contract(0, epsh).contract(0, eps)),
            ("R_eps_yd_colinear", P(dr).map_at(mp.coact, 0).contract(1, eps),
             P(dr).contract(0, eps).insert(0, unit_h, dh)),
        ])
        # YD0': 1 invariant and coinvariant
        rep.record("yd0_one_invariant", pipelines_equal(
            P(dh).insert(1, one, dr).map_at(mp.act, 0), P(dh).contract(0, epsh).insert(0, one, dr)) is None,
            "h . 1 != eps(h) 1")
        rep.record("yd0_one_coinvariant",
                   v_eq(f, self.yd.coact.apply(self.one), v_tensor(f, self.hopf.unit, self.one)),
                   "rho(1) != 1_H (x) 1")
        # YD1': 1 grouplike
        rep.record("yd1_one_grouplike",
                   v_eq(f, delta_m.apply(self.one), v_tensor(f, self.one, self.one))
                   and f.is_one(self.r_coalg.counit_of(self.one)), "1 not grouplike")
        _record_pipelines(rep, [
            # YD2': m left H-linear
            ("yd2_mul_linear", P(dh, dr, dr).map_at(mul, 1).map_at(mp.act, 0),
             P(dh, dr, dr).map_at(act_rr, 0).map_at(mul, 0)),
            # YD3': xi linear for the adjoint action
            ("yd3_xi_adjoint_linear", P(dh, dr, dr).map_at(act_rr, 0).map_at(xi, 0),
             P(dh, dr, dr).map_at(xi, 1).map_at(mp.comul_h, 0).map_at(self.hopf.antipode_map, 1).permute((0, 2, 1))
             .map_at(mp.mul_h, 0).map_at(mp.mul_h, 0)),
            # YD4': m a coalgebra map for the braided structure
            ("yd4_mul_braided_comultiplicative", P(dr, dr).map_at(mul, 0).map_at(delta, 0),
             P(dr, dr).map_at(delta_rr, 0).map_at(mul, 0).map_at(mul, 1)),
            ("yd4_mul_counit", P(dr, dr).map_at(mul, 0).contract(0, eps),
             P(dr, dr).contract(0, eps).contract(0, eps)),
            # YD5': xi a normalized cocycle
            ("yd5_xi_cocycle", P(dr, dr).map_at(xi, 0).map_at(mp.comul_h, 0),
             P(dr, dr).map_at(delta_rr, 0)  # (a,b,c,d)
             .map_at(rho_rr, 2)  # (a,b,h,c0,d0)
             .map_at(xi, 3)  # (a,b,h,x2)
             .map_at(xi, 0)  # (x1,h,x2)
             .map_at(mp.mul_h, 0)),
            ("yd5_xi_counit", P(dr, dr).map_at(xi, 0).contract(0, epsh),
             P(dr, dr).contract(0, eps).contract(0, eps)),
            # YD6': xi measures the colinearity defect of m
            ("yd6_twisted_colinearity",
             P(dr, dr).map_at(delta_rr, 0).map_at(mul, 0).map_at(xi, 1)
             # c_{R,H}: (r, h) -> r_(-1) h (x) r_(0)
             .map_at(mp.coact, 0).permute((0, 2, 1)).map_at(mp.mul_h, 0),
             P(dr, dr).map_at(delta_rr, 0).map_at(rho_rr, 2).map_at(xi, 0).map_at(mp.mul_h, 0).map_at(mul, 1)),
            # YD7': xi-associativity of m
            ("yd7_xi_associativity", P(dr, dr, dr).map_at(mul, 1).map_at(mul, 0),
             P(dr, dr, dr).map_at(delta_rr, 0)  # (a,b,c,d,t)
             .map_at(xi, 2)  # (a,b,x,t)
             .map_at(mp.act, 2)  # (a,b,xt)
             .map_at(mul, 0)  # (ab, xt)
             .map_at(mul, 0)),
            # YD8': compatibility of m and xi
            ("yd8_compatibility",
             P(dr, dr, dr).map_at(delta_rr, 1)  # (r, a,b,c,d)
             .map_at(mul, 1)  # (r, ab, c, d)
             .map_at(xi, 2)  # (r, ab, x)
             .map_at(xi, 0)  # (x1, x)
             .map_at(mp.mul_h, 0),
             P(dr, dr, dr).map_at(delta_rr, 0)  # (a,b,c,d,t)
             .map_at(mul, 0)  # (ab, c, d, t)
             .map_at(xi, 1)  # (ab, x, t)
             .map_at(mp.comul_h, 1)  # (ab, x1, x2, t)
             .permute((0, 1, 3, 2))  # (ab, x1, t, x2)
             .map_at(mp.act, 1)  # (ab, x1 t, x2)
             .map_at(xi, 0)  # (y, x2)
             .map_at(mp.mul_h, 0)),
            # YD9': 1 is a unit for m
            ("yd9_unit_r", P(dr).insert(1, one, dr).map_at(mul, 0), P(dr)),
            ("yd9_unit_l", P(dr).insert(0, one, dr).map_at(mul, 0), P(dr)),
            # YD10': xi normalized at 1
            ("yd10_xi_unit_r", P(dr).insert(1, one, dr).map_at(xi, 0),
             P(dr).contract(0, eps).insert(0, unit_h, dh)),
            ("yd10_xi_unit_l", P(dr).insert(0, one, dr).map_at(xi, 0),
             P(dr).contract(0, eps).insert(0, unit_h, dh)),
        ])
        self._verified = rep.ok
        return rep

    def xi_is_trivial(self) -> bool:
        """xi(a (x) b) = eps(a) eps(b) 1_H for every a, b."""
        f, eps = self.field, self.r_coalg.counit
        return self.xi == _outer(f, self.hopf.unit, v_tensor(f, eps, eps))


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
    act = yd.act_map
    mul = (StagePipeline(f, (dr, dh, dr, dh))
           .map_at(hopf.as_coalgebra().comul_map(), 1)  # (r, h1, h2, s, k)
           .permute((0, 1, 3, 2, 4))  # (r, h1, s, h2, k)
           .map_at(act, 1)  # (r, h1 . s, h2, k)
           .map_at(r_alg.mul_map(), 0)  # (r (h1 . s), h2, k)
           .map_at(hopf.as_algebra().mul_map(), 1))  # (r (h1 . s), h2 k)
    unit = v_tensor(f, r_alg.unit, hopf.unit)
    labels = tuple(f"{rl}#{hl}" for rl in r_alg.labels for hl in hopf.labels)
    out_alg = AlgebraObject.from_constants(f, dim, pipeline_constants(mul, dim), unit, labels)
    if validate:
        out_alg.validate().require("smash product algebra")
    return out_alg


def smash_coproduct_coalgebra(r_coalg: CoalgebraObject, yd: YDObject, hopf: HopfObject) -> CoalgebraObject:
    """Delta(c # h) = c1 # (c2)_(-1) h1 (x) (c2)_(0) # h2 on C (x) H, for the
    coaction of yd."""
    f = hopf.field
    dr, dh = r_coalg.dim, hopf.dim
    dim = dr * dh
    comul = (StagePipeline(f, (dr, dh))
             .map_at(r_coalg.comul_map(), 0)  # (c1, c2, h)
             .map_at(yd.coact_map, 1)    # (c1, cm, c20, h)
             .map_at(hopf.as_coalgebra().comul_map(), 3)  # (c1, cm, c20, h1, h2)
             .permute((0, 1, 3, 2, 4))   # (c1, cm, h1, c20, h2)
             .map_at(hopf.as_algebra().mul_map(), 1))
    counit = [f.mul(r_coalg.counit[a], hopf.counit[x]) for a in range(dr) for x in range(dh)]
    out_co = CoalgebraObject.from_constants(f, dim, pipeline_constants(comul, dim), counit,
                                            tuple(f"{rl}#{hl}" for rl in r_coalg.labels for hl in hopf.labels))
    out_co.validate().require("smash coproduct coalgebra")
    return out_co


class Bosonization:
    """A bialgebra on R (x) H together with the structure maps pi, sigma and
    the Yetter-Drinfeld object R it was built from."""

    def __init__(self, bialgebra: BialgebraObject, hopf: HopfObject, yd: YDObject,
                 pi: Matrix, sigma: Matrix, side: str):
        self.bialgebra = bialgebra
        self.hopf = hopf
        self.yd = yd
        self.r_dim = yd.dim
        self.pi = pi  # (dH, dR*dH)
        self.sigma = sigma  # (dR*dH, dH)
        self.side = side  # "primal" | "dual"


def bosonize(q: YDQuadruple, force: bool = False) -> Bosonization:
    """Bialgebra on R # H: smash algebra + quadruple comultiplication.

    Refuses invalid quadruples unless force=True (used by mutation tests);
    a quadruple whose last `validate` passed is not validated again.  The
    result is always re-validated via validate_bosonization for valid
    inputs.
    """
    if not force and not q._verified:
        q.validate().require("quadruple")
    f = q.field
    dr, dh = q.yd.dim, q.hopf.dim
    alg = smash_product_algebra(q.r_alg, q.yd, q.hopf, validate=False)
    mp, delta, omega, m_rr = q.maps(), q.delta_map, q.omega_map, q.m_rr
    comul = (mp.P(dr, dh)
             .map_at(mp.comul_h, 1)       # (r, h1, h2)
             .map_at(mp.comul_h, 2)       # (r, h1, h2, h3)
             .map_at(delta, 0)            # (r1, r2, h1, h2, h3)
             .map_at(omega, 2)            # (r1, r2, w1, w2, h2, h3)
             .map_at(m_rr, 0)             # (d1, d2, h2, h3)
             .map_at(mp.coact, 1)         # (d1, d2m, d20, h2, h3)
             .permute((0, 1, 3, 2, 4))    # (d1, d2m, h2, d20, h3)
             .map_at(mp.mul_h, 1))        # (d1, d2m h2, d20, h3)
    dim = dr * dh
    counit = [f.mul(q.eps[a], q.hopf.counit[x]) for a in range(dr) for x in range(dh)]
    bi = BialgebraObject.from_parts(alg, CoalgebraObject.from_constants(f, dim, pipeline_constants(comul, dim),
                                                                        counit, alg.labels))
    pi, sigma = _canonical_pi_sigma(f, dr, dh, q.eps, q.r_alg.unit)
    bos = Bosonization(bi, q.hopf, q.yd, pi, sigma, "primal")
    if not force:
        validate_bosonization(bos).require("bosonization")
    return bos


def dual_bosonize(q: DualYDQuadruple, force: bool = False) -> Bosonization:
    """Bialgebra on R # H: smash coproduct + quadruple multiplication."""
    if not force and not q._verified:
        q.validate().require("dual quadruple")
    f = q.field
    dr, dh = q.yd.dim, q.hopf.dim
    coalg = smash_coproduct_coalgebra(q.r_coalg, q.yd, q.hopf)
    mp, mul, xi = q.maps(), q.mul_map, q.xi_map
    delta = q.r_coalg.comul_map()
    # m(r#h (x) s#k) = m(r1 (x) (r2_(-1) h1).s1) # xi(r2_(0) (x) h2.s2) h3 k
    mul_t = (mp.P(dr, dh, dr, dh)
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
    unit = v_tensor(f, q.one, q.hopf.unit)
    bi = BialgebraObject.from_parts(AlgebraObject.from_constants(f, dim, pipeline_constants(mul_t, dim), unit,
                                                                 coalg.labels), coalg)
    pi, sigma = _canonical_pi_sigma(f, dr, dh, q.r_coalg.counit, q.one)
    bos = Bosonization(bi, q.hopf, q.yd, pi, sigma, "dual")
    if not force:
        validate_bosonization(bos).require("dual bosonization")
    return bos


def _canonical_pi_sigma(f, dr, dh, eps: list, one: list):
    """pi(a # x) = eps(a) x and sigma(x) = 1 # x on R # H, for the counit
    eps and the unit 1 of R."""
    pi = Matrix.from_entries(f, dh, dr * dh, {(x, a * dh + x): e for a, e in enumerate(eps) if not f.is_zero(e)
                                              for x in range(dh)})
    sigma = Matrix.from_entries(f, dr * dh, dh, {(i * dh + x, x): u for i, u in enumerate(one) if not f.is_zero(u)
                                                 for x in range(dh)})
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
    n, dh = bi.dim, h.dim
    for name, ok, wit in bi.validate().checks:
        rep.record("bialgebra:" + name, ok, wit)
    pi, sigma = bos.pi, bos.sigma
    pm, sm = SparseMap.from_matrix(pi, (n,), (dh,)), SparseMap.from_matrix(sigma, (dh,), (n,))
    rep.record("pi_coalgebra_map", is_coalgebra_map(bi.as_coalgebra(), h.as_coalgebra(), pm),
               "pi is not a coalgebra map")
    rep.record("sigma_algebra_map", is_algebra_map(h.as_algebra(), bi.as_algebra(), sigma),
               "sigma is not an algebra map")
    if bos.side == "primal":
        rep.record("pi_algebra_map", is_algebra_map(bi.as_algebra(), h.as_algebra(), pi),
                   "pi is not an algebra map")
    act_l, act_r = _action_pipelines(bi, sm)
    if bos.side == "dual":
        rep.record("sigma_coalgebra_map", is_coalgebra_map(h.as_coalgebra(), bi.as_coalgebra(), sm),
                   "sigma is not a coalgebra map")
        # pi bilinear for the actions induced by sigma: pi(sigma(h) a) = h pi(a)
        # and pi(a sigma(h)) = pi(a) h
        v = CatObject(f, n, h, act_l=act_l.matrix(), act_r=act_r.matrix())
        rep.record("pi_bilinear", not morphism_defects(CategoryContext("bimod", h), v, CatObject.regular(h), pm),
                   "pi is not (H,H)-bilinear")
    comp = pi @ sigma
    rep.record("pi_sigma_id", comp == Matrix.identity(f, dh), "pi sigma != id")
    # the (co)actions induced by pi and sigma (coact_l, coact_r, act_l,
    # act_r) must be those of the Hopf bimodule R # H, right ones canonical
    # and left ones diagonal, compared as pipelines on the same basis
    induced = zip((*_coaction_pipelines(bi, pm), act_l, act_r), hopf_bimodule_structures(bos.yd))
    same = [pipelines_equal(lhs, rhs) is None for lhs, rhs in induced]
    rep.record("induced_right_coaction", same[1], "(id (x) pi) Delta is not the smash coaction")
    rep.record("induced_left_coaction", same[0], "(pi (x) id) Delta is not the diagonal coaction")
    rep.record("induced_right_action", same[3], "(r#k) sigma(h) != r # kh")
    rep.record("induced_left_action", same[2], "sigma(h)(r#k) != (h1.r) # h2 k")
    return rep


# ---------------------------------------------------------------------------
# extraction from split bialgebras


def _coaction_pipelines(a: BialgebraObject, pm: SparseMap):
    """rho_l = (pi (x) id) Delta : (n,) -> (dh, n) and rho_r = (id (x) pi)
    Delta : (n,) -> (n, dh), for pi as the map pm, on the cached Delta map."""
    comul = a.as_coalgebra().comul_map()
    return tuple(StagePipeline(a.field, (a.dim,)).map_at(comul, 0).map_at(pm, pos) for pos in (0, 1))


def _action_pipelines(a: BialgebraObject, sm: SparseMap):
    """act_l(h (x) x) = sigma(h) x : (dh, n) -> (n,) and act_r(x (x) h) =
    x sigma(h) : (n, dh) -> (n,), for sigma as the map sm, on the cached
    product."""
    n, dh, mul = a.dim, sm.in_size, a.as_algebra().mul_map()
    return (StagePipeline(a.field, (dh, n)).map_at(sm, 0).map_at(mul, 0),
            StagePipeline(a.field, (n, dh)).map_at(sm, 1).map_at(mul, 0))


def coactions_from_pi(a: BialgebraObject, pi: Matrix, dh: int):
    return tuple(p.matrix() for p in _coaction_pipelines(a, SparseMap.from_matrix(pi, (a.dim,), (dh,))))


def actions_from_sigma(a: BialgebraObject, sigma: Matrix, dh: int):
    return tuple(p.matrix() for p in _action_pipelines(a, SparseMap.from_matrix(sigma, (dh,), (a.dim,))))


class ExtractionError(Exception):
    pass


# the premise each structure of a failing `morphism_defects` breaks
_PREMISES = {"coact_r": "sigma is not right colinear", "coact_l": "sigma is not left colinear",
             "act_l": "pi is not left H-linear", "act_r": "pi is not right H-linear"}


def _split_premises(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix, side: str) -> CatObject:
    """Check the premises of an extraction, in order, and return A with the
    (co)actions pi and sigma induce on it (`_coaction_pipelines`,
    `_action_pipelines`), computed once for the checks and the diagram.  pi
    and sigma are each converted to a map once."""
    f, n, dh = a.field, a.dim, h.dim
    if not (pi @ sigma == Matrix.identity(f, dh)):
        raise ExtractionError("pi sigma != id")
    pm, sm = SparseMap.from_matrix(pi, (n,), (dh,)), SparseMap.from_matrix(sigma, (dh,), (n,))
    if side == "primal":
        if not is_algebra_map(a.as_algebra(), h.as_algebra(), pi):
            raise ExtractionError("pi is not an algebra map")
        if not is_coalgebra_map(a.as_coalgebra(), h.as_coalgebra(), pm):
            raise ExtractionError("pi is not a coalgebra map")
        if not is_algebra_map(h.as_algebra(), a.as_algebra(), sigma):
            raise ExtractionError("sigma is not an algebra map")
    else:
        if not is_algebra_map(h.as_algebra(), a.as_algebra(), sigma):
            raise ExtractionError("sigma is not an algebra map")
        if not is_coalgebra_map(h.as_coalgebra(), a.as_coalgebra(), sm):
            raise ExtractionError("sigma is not a coalgebra map")
        if not is_coalgebra_map(a.as_coalgebra(), h.as_coalgebra(), pm):
            raise ExtractionError("pi is not a coalgebra map")
    v = CatObject(f, n, h, *(p.matrix() for p in (*_coaction_pipelines(a, pm), *_action_pipelines(a, sm))))
    # primal: sigma bicolinear for the coactions pi induces; dual: pi
    # bilinear for the actions sigma induces, pi(sigma(h) a sigma(k)) = h pi(a) k
    if side == "primal":
        bad = morphism_defects(CategoryContext("bicomod", h), CatObject.regular(h), v, sm)
    else:
        bad = morphism_defects(CategoryContext("bimod", h), v, CatObject.regular(h), pm)
    if bad:
        raise ExtractionError(_PREMISES[bad[0][0]])
    return v


def extract_quadruple_primal(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix) -> YDQuadruple:
    """R = right coinvariants; delta, omega via (P (x) P) Delta with
    P = (id (x) eps_H) phi^{-1}; validated before returning."""
    f = a.field
    v = _split_premises(a, h, pi, sigma, "primal")
    yd, incl = yd_from_hopf_bimodule(v)
    dr, dh, n = yd.dim, h.dim, a.dim
    phi, phi_inv = phi_iso(v, incl)
    # P : A -> R
    p = StagePipeline(f, (dr, dh)).contract(1, h.counit).matrix() @ phi_inv
    # multiplication on R: products of coinvariants stay coinvariant
    r_space = Subspace.from_matrix_rows(incl.transpose())
    prods = r_space.coordinates(pairwise_products(a.as_algebra(), incl.transpose(), incl.transpose()))
    if prods is None:
        raise ExtractionError("R is not closed under multiplication")
    one_r = [a.unit[piv] for piv in r_space.pivots]
    r_alg = AlgebraObject.from_constants(f, dr, constants_of(prods, dr), one_r, tuple(f"r{t}" for t in range(dr)))
    # delta and omega: (P (x) P) Delta of the coinvariants and of sigma(H)
    pm, comul = SparseMap.from_matrix(p, (n,), (dr,)), a.as_coalgebra().comul_map()
    delta, omega = (StagePipeline(f, (m.cols,)).map_at(SparseMap.from_matrix(m, (m.cols,), (n,)), 0).map_at(comul, 0)
                    .map_at(pm, 0).map_at(pm, 1).matrix() for m in (incl, sigma))
    eps_r = a.as_coalgebra().counit_of_rows(incl.transpose())
    q = YDQuadruple(h, r_alg, yd, eps_r, delta, omega)
    q.validate().require("extracted quadruple")
    return q


def extract_quadruple_dual(a: BialgebraObject, h: HopfObject, pi: Matrix, sigma: Matrix) -> DualYDQuadruple:
    """Dual-side extraction: delta(r) = r1 sigma(S pi(r2)) (x) r3 read off in
    R (x) R, m and xi by splitting phi^{-1} of products; validated before
    returning."""
    f = a.field
    v = _split_premises(a, h, pi, sigma, "dual")
    yd, incl = yd_from_hopf_bimodule(v)
    dr, dh, n = yd.dim, h.dim, a.dim
    phi, phi_inv = phi_iso(v, incl)
    r_space = Subspace.from_matrix_rows(incl.transpose())
    comul = a.as_coalgebra().comul_map()
    delta = (StagePipeline(f, (dr,))
             .map_at(SparseMap.from_matrix(incl, (dr,), (n,)), 0)  # r
             .map_at(comul, 0).map_at(comul, 1)  # (r1, r2, r3)
             .map_at(SparseMap.from_matrix(sigma @ h.antipode @ pi, (n,), (n,)), 1)  # (r1, sigma S pi(r2), r3)
             .map_at(a.as_algebra().mul_map(), 0))  # (r1 sigma(S pi(r2)), r3)
    coords = _square_coordinates(r_space, delta.matrix())
    if coords is None:
        raise ExtractionError("delta does not land in R (x) R")
    eps_r = a.as_coalgebra().counit_of_rows(incl.transpose())
    r_coalg = CoalgebraObject.from_constants(f, dr, constants_of(coords, dr), eps_r, tuple(f"r{t}" for t in range(dr)))
    r_coalg.validate().require("diagram coalgebra")
    # one, m, xi: phi^{-1} of the products of coinvariants, in R # H, with
    # eps_H on the H leg (m) or eps_R on the R leg (xi)
    one_r = [a.unit[p] for p in r_space.pivots]
    if not r_space.contains_vector(a.unit):
        raise ExtractionError("1_A is not right coinvariant")
    w = phi_inv @ pairwise_products(a.as_algebra(), incl.transpose(), incl.transpose()).dense().transpose()
    mul = StagePipeline(f, (dr, dh)).contract(1, h.counit).matrix() @ w
    xi = StagePipeline(f, (dr, dh)).contract(0, eps_r).matrix() @ w
    q = DualYDQuadruple(h, r_coalg, yd, one_r, mul, xi)
    q.validate().require("extracted dual quadruple")
    return q
