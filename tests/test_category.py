"""Context objects, Hom-spaces, YD equivalence, braiding, retraction."""
import random
from fractions import Fraction

import numpy as np

from hopfsplit.builtin import group_algebra, sweedler_h4, taft
from hopfsplit.category import (
    CTX_KINDS,
    CatObject,
    CategoryContext,
    YDObject,
    braiding,
    coaction_slices,
    colinearity_blocks,
    coinvariants,
    hom_space,
    hopf_bimodule_from_yd,
    integral_retraction,
    phi_iso,
    tensor_catobject,
    yd_from_hopf_bimodule,
)
from hopfsplit.fields import GF, QQ
from hopfsplit.hochschild import _direct_sum_object, quotient_in_context
from hopfsplit.hopf import find_integral
from hopfsplit.linalg import Matrix, SparseMap, Subspace
from hopfsplit.tensors import v_basis, v_tensor
from smash_reference import actions_from_sigma, coactions_from_pi


def h4_as_hopf_bimodule():
    """H4 with structures over K[Z2] via the canonical projection/section."""
    f = QQ
    h4 = sweedler_h4(f)
    h2 = group_algebra(2, f)
    pi = Matrix.from_rows(f, [[1, 0, 0, 0], [0, 0, 1, 0]])
    sigma = Matrix.from_rows(f, [[1, 0], [0, 0], [0, 1], [0, 0]])
    cl, cr = coactions_from_pi(h4, pi, 2)
    al, ar = actions_from_sigma(h4, sigma, 2)
    return h4, h2, CatObject(f, 4, h2, cl, cr, al, ar)


def test_vect_hom_dimension():
    v = CatObject(QQ, 2)
    hs = hom_space(CategoryContext("vect"), v, v)
    assert hs.dim == 4


def test_comod_hom_regular_to_trivial():
    # colinear maps H -> K for the trivial coaction on K: the kernel is
    # pinned by rho(g) = g (x) g, leaving the coefficient-of-identity
    # functional (one dimension)
    h = group_algebra(2, QQ)
    ctx = CategoryContext("comod_r", h)
    hs = hom_space(ctx, CatObject.regular(h), CatObject.trivial(QQ, h, 1))
    assert hs.dim == 1
    assert hs.basis[0].to_rows() == [[Fraction(1), Fraction(0)]]


def test_mod_hom_regular_to_trivial_is_counit():
    h = group_algebra(2, QQ)
    ctx = CategoryContext("mod_r", h)
    hs = hom_space(ctx, CatObject.regular(h), CatObject.trivial(QQ, h, 1))
    assert hs.dim == 1
    assert hs.basis[0].to_rows() == [[Fraction(1), Fraction(1)]]  # the counit


def test_bicomod_hom_contains_projection():
    h4, h2, v = h4_as_hopf_bimodule()
    ctx = CategoryContext("bicomod", h2)
    assert v.validate(ctx).ok
    hs = hom_space(ctx, v, CatObject.regular(h2))
    pi = Matrix.from_rows(QQ, [[1, 0, 0, 0], [0, 0, 1, 0]])
    # pi lies in the computed Hom space
    from hopfsplit.linalg import Subspace

    vecs = []
    for b in hs.basis:
        flat = []
        for i in range(b.rows):
            flat.extend(b.row_list(i))
        vecs.append(flat)
    span = Subspace.from_vectors(QQ, 8, vecs)
    flat_pi = []
    for i in range(pi.rows):
        flat_pi.extend(pi.row_list(i))
    assert span.contains_vector(flat_pi)


def test_coinvariants_of_h4():
    h4, h2, v = h4_as_hopf_bimodule()
    r = coinvariants(v.coact_r, h2)
    assert r.dim == 2
    assert r.contains_vector(v_basis(QQ, 4, 0))
    assert r.contains_vector(v_basis(QQ, 4, 1))


def test_yd_roundtrip_h4():
    h4, h2, v = h4_as_hopf_bimodule()
    yd, incl = yd_from_hopf_bimodule(v)
    assert yd.dim == 2
    assert yd.validate().ok
    w = hopf_bimodule_from_yd(yd)
    ctx = CategoryContext("bicomod", h2)
    assert w.validate(ctx).ok
    phi, phi_inv = phi_iso(v, incl)
    assert (phi @ phi_inv) == Matrix.identity(QQ, 4)


def test_braiding_sign_on_h4_diagram():
    h4, h2, v = h4_as_hopf_bimodule()
    yd, _ = yd_from_hopf_bimodule(v)
    c = braiding(yd, yd)
    # y (x) y -> -(y (x) y)
    col = c.col_list(3)
    assert col == [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)]


def random_yd_module(hopf, rng, max_dim=3):
    """Random YD module over K[Z_n]: graded pieces with eigenvalue actions.

    Over an abelian group algebra a YD module is a G-graded G-module with
    the action preserving each degree; eigenvalues are roots of unity only
    when n <= 2 over Q, so use sign actions for Z2.
    """
    f = hopf.field
    n = hopf.dim
    dims = [rng.randrange(0, max_dim) for _ in range(n)]
    total = sum(dims) or 1
    if sum(dims) == 0:
        dims[0] = 1
    act_entries = {}
    coact_entries = {}
    pos = 0
    for g in range(n):
        for _ in range(dims[g]):
            # coaction: v -> g (x) v; action of generator: sign
            sign = f.one() if rng.random() < 0.5 else f.neg(f.one())
            coact_entries[(g * total + pos, pos)] = f.one()
            # action of group element h = gen^k multiplies by sign^k
            for k in range(n):
                val = f.pow(sign, k)
                act_entries[(pos, k * total + pos)] = val
            pos += 1
    act = Matrix.from_entries(f, total, n * total, act_entries)
    coact = Matrix.from_entries(f, n * total, total, coact_entries)
    return YDObject(hopf, total, act, coact)


def _kron(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, a.rows * b.rows, a.cols * b.cols, np.kron(a._d, b._d), _raw=True)


def test_yang_baxter_on_random_yd_objects():
    rng = random.Random(11)
    h = group_algebra(2, QQ)
    for _ in range(6):
        v = random_yd_module(h, rng)
        assert v.validate().ok
        c = braiding(v, v)
        d = v.dim
        eye = Matrix.identity(QQ, d)
        c12 = _kron(c, eye)
        c23 = _kron(eye, c)
        assert c12 @ c23 @ c12 == c23 @ c12 @ c23


def test_hom_dim_preserved_by_yd_equivalence():
    rng = random.Random(5)
    h = group_algebra(2, QQ)
    ctx = CategoryContext("bicomod", h)
    v1 = random_yd_module(h, rng)
    v2 = random_yd_module(h, rng)
    w1 = hopf_bimodule_from_yd(v1)
    w2 = hopf_bimodule_from_yd(v2)
    # Hopf bimodule maps: bicolinear and bilinear maps w1 -> w2

    class _Bctx:
        kind = "bicomod"
        hopf = h
        wants_right_coaction = True
        wants_left_coaction = True
        wants_right_action = True
        wants_left_action = True

    hs = hom_space(_Bctx(), w1, w2)
    # YD morphisms: linear + colinear maps v1 -> v2

    class _Yctx:
        kind = "bicomod"
        hopf = h
        wants_right_coaction = False
        wants_left_coaction = True
        wants_right_action = False
        wants_left_action = True

    o1 = CatObject(QQ, v1.dim, h, coact_l=v1.coact, act_l=v1.act)
    o2 = CatObject(QQ, v2.dim, h, coact_l=v2.coact, act_l=v2.act)
    hs_yd = hom_space(_Yctx(), o1, o2)
    assert hs.dim == hs_yd.dim


def test_integral_retraction_on_h():
    h = group_algebra(2, QQ)
    lam = find_integral(h, "in_dual", "two_sided")
    m = CatObject.regular(h)
    mu = integral_retraction(h, lam, m)  # retraction identity checked inside
    assert mu.rows == 2 and mu.cols == 8


def test_integral_retraction_random_objects():
    rng = random.Random(3)
    h = group_algebra(3, QQ)
    lam = find_integral(h, "in_dual", "two_sided")
    for _ in range(5):
        yd = random_yd_module_z3(h, rng)
        m = hopf_bimodule_from_yd(yd)
        integral_retraction(h, lam, m)


def random_yd_module_z3(hopf, rng, max_dim=2):
    # over Q[Z3] use trivial action (only 1 is a cube root of unity in Q)
    f = hopf.field
    n = hopf.dim
    dims = [rng.randrange(0, max_dim) for _ in range(n)]
    if sum(dims) == 0:
        dims[0] = 1
    total = sum(dims)
    act_entries = {}
    coact_entries = {}
    pos = 0
    for g in range(n):
        for _ in range(dims[g]):
            coact_entries[(g * total + pos, pos)] = f.one()
            for k in range(n):
                act_entries[(pos, k * total + pos)] = f.one()
            pos += 1
    act = Matrix.from_entries(f, total, n * total, act_entries)
    coact = Matrix.from_entries(f, n * total, total, coact_entries)
    yd = YDObject(hopf, total, act, coact)
    assert yd.validate().ok
    return yd


def test_yd_hopf_bimodule_random_roundtrip():
    # hopf_bimodule_from_yd then yd_from_hopf_bimodule recovers the data,
    # and phi is the identity identification on W (x) H
    rng = random.Random(17)
    h = group_algebra(2, QQ)
    ctx = CategoryContext("bicomod", h)
    for _ in range(6):
        v = random_yd_module(h, rng)
        w = hopf_bimodule_from_yd(v)
        assert w.validate(ctx).ok
        back, incl = yd_from_hopf_bimodule(w)
        assert back.dim == v.dim
        phi, phi_inv = phi_iso(w, incl)
        assert (phi @ phi_inv) == Matrix.identity(QQ, w.dim)
        # the recovered action is the adjoint action h1 . x . S(h2)
        for hh in range(2):
            sh = h.antipode.apply(v_basis(QQ, 2, hh))
            for t in range(back.dim):
                x = incl.col_list(t)
                lhs = incl @ Matrix.column(QQ, back.act.apply(v_basis(QQ, 2 * back.dim, hh * back.dim + t)))
                mid = w.act_l.matrix().apply(v_tensor(QQ, v_basis(QQ, 2, hh), x))
                rhs = w.act_r.matrix().apply(v_tensor(QQ, mid, sh))  # grouplike: Delta(h) = h (x) h
                assert lhs.col_list(0) == rhs


def test_integral_retraction_rejects_non_colinear_functional():
    # the counit of Q[Z_2] as a normalized functional: mu(h, m, k) =
    # eps(h) eps(k) m is a retraction of sigma, but not left colinear, first
    # at h = 1, m = g, k = 1, where rho_l mu gives g (x) g and
    # (id (x) mu)(Delta (x) id) gives 1 (x) g
    import pytest

    from hopfsplit.algebra import VerificationFailed
    from hopfsplit.hopf import IntegralWitness

    h = group_algebra(2, QQ)
    eps = IntegralWitness("in_dual", "two_sided", list(h.counit), True, QQ.one())
    with pytest.raises(VerificationFailed) as exc:
        integral_retraction(h, eps, CatObject.regular(h))
    assert exc.value.check == "retraction_left_colinear"
    assert exc.value.witness == (0, 1, 0)


def test_hom_map_colinearity_failures_are_typed(monkeypatch):
    # the re-check behind every hom_space basis map (solved modularly over
    # Q) names the side and the first basis vector of X where it fails
    import pytest

    from hopfsplit.algebra import VerificationFailed
    from hopfsplit.category import MapSolver, morphism_defects

    h = group_algebra(3, QQ)
    reg = CatObject.regular(h)
    shift = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # e_1 -> e_0
    comod = CategoryContext("comod_r", h)
    # right: rho(e_0) = e_0 (x) e_0 against (shift (x) id)(e_1 (x) e_1) = e_0 (x) e_1
    assert morphism_defects(comod, reg, reg, shift) == [("coact_r", (1,))]
    with monkeypatch.context() as mp:  # a solver that hands back shift as the basis
        mp.setattr(MapSolver, "kernel_maps", lambda self: [shift])
        with pytest.raises(VerificationFailed) as exc:
            hom_space(comod, reg, reg)
        assert (exc.value.check, exc.value.witness) == ("hom_map_right_colinear", 1)
        # with the trivial right coaction every map is right colinear, and the
        # regular left coaction fails at e_1 the same way
        obj = CatObject(QQ, 3, h, coact_l=reg.coact_l, coact_r=CatObject.trivial(QQ, h, 3).coact_r)
        bicomod = CategoryContext("bicomod", h)
        assert morphism_defects(bicomod, obj, obj, shift) == [("coact_l", (1,))]
        with pytest.raises(VerificationFailed) as exc:
            hom_space(bicomod, obj, obj)
        assert (exc.value.check, exc.value.witness) == ("hom_map_left_colinear", 1)
        # an action is checked in the loop order (h, v): shift(e_0 e_1) = e_0
        # but shift(e_0) e_1 = 0
        with pytest.raises(VerificationFailed) as exc:
            hom_space(CategoryContext("mod_r", h), reg, reg)
        assert (exc.value.check, exc.value.witness) == ("hom_map_right_linear", (1, 0))
    assert morphism_defects(bicomod, obj, obj, Matrix.identity(QQ, 3)) == []
    assert hom_space(bicomod, obj, obj).dim == 3


def test_morphism_defects_order_failures_by_witness_then_structure():
    """Every failing structure is listed, the earliest witness first; on a
    tie the right coaction comes before the left one and the left action
    before the right one, as the split premises' loops test them.  The
    witnesses are worked out by hand on k[Z_3], whose unit is e_0."""
    from hopfsplit.category import morphism_defects

    h = group_algebra(3, QQ)
    reg = CatObject.regular(h)
    triv = CatObject.trivial(QQ, h, 3)
    # left structures regular, right ones trivial
    left_reg = CatObject(QQ, 3, h, coact_l=reg.coact_l, coact_r=triv.coact_r, act_l=reg.act_l, act_r=triv.act_r)
    shift = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # e_1 -> e_0
    swap = Matrix.from_rows(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # e_0 <-> e_1, e_2 -> 0
    keep = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])  # e_2 -> 0
    bicomod, bimod = CategoryContext("bicomod", h), CategoryContext("bimod", h)
    # rho(shift e_1) = e_0 (x) e_0 against e_0 (x) e_1 on both sides: a tie at e_1
    assert morphism_defects(bicomod, reg, reg, shift) == [("coact_r", (1,)), ("coact_l", (1,))]
    # left: rho(swap e_0) = e_1 (x) e_1 against e_0 (x) e_1; right: swap e_1 (x) 1
    # = e_0 (x) e_0 against e_0 (x) e_1
    assert morphism_defects(bicomod, reg, left_reg, swap) == [("coact_l", (0,)), ("coact_r", (1,))]
    # shift(e_1) = e_0 against e_1 shift(e_0) = 0 and shift(e_0) e_1 = 0: a tie at (e_1, e_0)
    assert morphism_defects(bimod, reg, reg, shift) == [("act_l", (1, 0)), ("act_r", (1, 0))]
    # right: keep(e_0 e_1) = e_1 against keep(e_0) . e_1 = e_0; left:
    # keep(e_1 e_1) = 0 against e_1 keep(e_1) = e_2
    assert morphism_defects(bimod, reg, left_reg, keep) == [("act_r", (1, 0)), ("act_l", (1, 1))]
    assert morphism_defects(CategoryContext("vect"), reg, reg, shift) == []


# -- constraint blocks as COO arrays -----------------------------------------
# The dict builders the COO blocks replaced, kept as the reference: one
# {(row, col): value} dict per block, built entry by entry, the two sides of
# each equation merged with zero sums dropped.


def _post_block_by_dict(p, d_src):
    return {(z * d_src + x, y * d_src + x): v for z, y, v in p.entries() for x in range(d_src)}, p.rows * d_src


def _pre_block_by_dict(q, d_tgt, d_src):
    return {(y * q.cols + w, y * d_src + x): v for x, w, v in q.entries() for y in range(d_tgt)}, d_tgt * q.cols


def _right_tensor_block_by_dict(r, d_src, d_tgt, dh):
    return {((y * dh + rx % dh) * d_src + x, y * d_src + rx // dh): v
            for rx, x, v in r.entries() for y in range(d_tgt)}


def _left_tensor_block_by_dict(l, d_src, d_tgt, dh):
    return {((rx // d_src * d_tgt + y) * d_src + x, y * d_src + rx % d_src): v
            for rx, x, v in l.entries() for y in range(d_tgt)}


def _merge_by_dict(f, a, b):
    """a - b with zero sums dropped."""
    out = dict(a)
    for k, v in b.items():
        out[k] = f.sub(out.get(k, f.zero()), v)
        if f.is_zero(out[k]):
            del out[k]
    return out


def _action_block_by_dict(f, x_act, y_act, dx, dy, d, side):
    b1, n1 = _pre_block_by_dict(x_act, dy, dx)
    entries = {}
    for yo, z, v in y_act.entries():
        for xv in range(dx):
            if side == "r":
                yp, av = divmod(z, d)
                entries[(yo * (dx * d) + xv * d + av, yp * dx + xv)] = v
            else:
                av, yp = divmod(z, dy)
                entries[(yo * (d * dx) + av * dx + xv, yp * dx + xv)] = v
    return _merge_by_dict(f, b1, entries), n1


def _colinearity_blocks_by_dict(ctx, x, y):
    """The blocks of `colinearity_blocks`, read off the structures' matrices."""
    f = x.field
    blocks = []
    if ctx.kind == "vect":
        return blocks
    dh = ctx.hopf.dim
    xm, ym = ({name: getattr(o, name).matrix() for name in _WANTS if getattr(o, name) is not None} for o in (x, y))
    if ctx.wants_right_coaction:
        b1, n1 = _post_block_by_dict(ym["coact_r"], x.dim)
        blocks.append((_merge_by_dict(f, b1, _right_tensor_block_by_dict(xm["coact_r"], x.dim, y.dim, dh)), n1))
    if ctx.wants_left_coaction:
        b1, n1 = _post_block_by_dict(ym["coact_l"], x.dim)
        blocks.append((_merge_by_dict(f, b1, _left_tensor_block_by_dict(xm["coact_l"], x.dim, y.dim, dh)), n1))
    if ctx.wants_right_action:
        blocks.append(_action_block_by_dict(f, xm["act_r"], ym["act_r"], x.dim, y.dim, dh, "r"))
    if ctx.wants_left_action:
        blocks.append(_action_block_by_dict(f, xm["act_l"], ym["act_l"], x.dim, y.dim, dh, "l"))
    return blocks


# the structure each want of a context asks for
_WANTS = {"coact_r": "wants_right_coaction", "coact_l": "wants_left_coaction",
          "act_r": "wants_right_action", "act_l": "wants_left_action"}


def _has_wanted(ctx, obj):
    return all(getattr(obj, name) is not None for name, want in _WANTS.items() if getattr(ctx, want))


def _split_objects(a, radical, ideal):
    """H = A / J with A and A / I, I in J an ideal, as H-bicomodules: the
    coactions pi : A -> H induces on A, and those descended to A / I as a
    level of the tower."""
    from hopfsplit.pipeline import _algebra_in_comodule_ctx, certify_split_input

    f, n = a.field, a.dim

    def span(idx):
        return Subspace.from_vectors(f, n, [v_basis(f, n, i) for i in idx])

    cert = certify_split_input(a, "radical", span(radical))
    actx = _algebra_in_comodule_ctx(a, cert.hopf, cert.ideal.quotient[2], "bicomodule")
    return cert.hopf, [actx.obj, quotient_in_context(actx, span(ideal)).actx.obj]


def _summed_block(f, block):
    """A COO block as a dict with equal positions added up and zero sums
    dropped, its row count, and the number of positions that cancelled."""
    r, c, v, nrows = block
    assert len(r) == len(c) == len(v)
    out = {}
    for key, x in zip(zip(r.tolist(), c.tolist()), v.tolist()):
        assert 0 <= key[0] < nrows
        out[key] = f.add(out.get(key, f.zero()), x)
    nonzero = {k: x for k, x in out.items() if not f.is_zero(x)}
    return nonzero, nrows, len(out) - len(nonzero)


def test_coo_constraint_blocks_match_dict_builders():
    cancelled = 0
    t3, h4 = taft(3, 2, GF(7)), sweedler_h4(QQ)
    # over T_3 and H4, and over their quotients by J = (x), k[Z_3] and k[Z_2],
    # with the objects of a split: J is spanned by g^i x^j with j > 0 in T_3
    # (its square by j = 2) and by x, gx in H4
    for h, extra in ((t3, []), (h4, []), _split_objects(t3, (1, 2, 4, 5, 7, 8), (2, 5, 8)),
                     _split_objects(h4, (1, 3), (1, 3))):
        f = h.field
        reg, triv = CatObject.regular(h), CatObject.trivial(f, h, 2)
        objects = [reg, triv, tensor_catobject(reg, triv), _direct_sum_object(CategoryContext("bimod", h), triv, reg),
                   *extra]
        for kind in CTX_KINDS:
            ctx = CategoryContext(kind, h)
            for x in objects:
                for y in objects:
                    if not (_has_wanted(ctx, x) and _has_wanted(ctx, y)):
                        continue
                    got = [_summed_block(f, b) for b in colinearity_blocks(ctx, x, y)]
                    assert [g[:2] for g in got] == _colinearity_blocks_by_dict(ctx, x, y)
                    cancelled += sum(g[2] for g in got)
    assert cancelled  # some entries of the two sides cancel to zero


def _dense_slices(co, rows, side):
    """The H-slices of co on the rows by the dense product co @ rows^T,
    reshaped to one row per (t, h)."""
    n, k = rows.cols, rows.rows
    dh = co.rows // n
    img = (co @ rows.transpose())._d
    img = img.reshape(n, dh, k).transpose(2, 1, 0) if side == "r" else img.reshape(dh, n, k).transpose(2, 0, 1)
    return Matrix(co.field, k * dh, n, img.reshape(k * dh, n), _raw=True)


def test_coaction_slices_match_the_dense_reshape():
    rng = random.Random(11)
    for h in (taft(3, 2, GF(7)), sweedler_h4(QQ)):
        f = h.field
        for obj in (CatObject.regular(h), tensor_catobject(CatObject.regular(h), CatObject.trivial(f, h, 2))):
            n = obj.dim
            for k in (1, 3):
                rows = Matrix.from_rows(f, [[f.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(k)])
                for side, co in (("l", obj.coact_l), ("r", obj.coact_r)):
                    got = coaction_slices(co, SparseMap.from_rows(rows), side)
                    assert got.shape == (k * h.dim, n)
                    assert got.dense() == _dense_slices(co.matrix(), rows, side)


def test_catobject_refuses_a_structure_of_the_wrong_size():
    import pytest

    h = group_algebra(2, QQ)
    comul = h.as_coalgebra().comul_map()  # (2,) -> (2, 2)
    with pytest.raises(ValueError):
        CatObject(QQ, 3, h, coact_r=comul)
    with pytest.raises(ValueError):
        CatObject(QQ, 3, h, act_l=h.as_algebra().mul_map())
    with pytest.raises(ValueError):
        CatObject(QQ, 2, h, coact_l=Matrix.zeros(QQ, 4, 3))
    # a map over other factors of the same sizes is read over the object's own
    obj = CatObject(QQ, 4, h, coact_r=SparseMap(QQ, (2, 2), (2, 2, 2), [0], [0], [QQ.one()]))
    assert (obj.coact_r.in_dims, obj.coact_r.out_dims) == ((4,), (4, 2))
