"""Workload `rational_q`: a library batch over Q.

Every scalar is a `Fraction`, so each step runs the pure-Python side of
hopfsplit (the F_p int64 kernels are bypassed).  Known answers:
- HH^n(A, A), n = 0, 1, 2, is (k, k - 1, k - 1) for Q[x]/(x^k), (dim Z(A), 0, 0)
  for a separable A (Q[Z_2], Q[Z_4], M_2(Q)) and (1, 0, 0) for UT(k), a
  hereditary algebra with connected quiver;
- Q[Z_m] is separable, with the unique separability idempotent
  (1/m) sum_i g^i (x) g^-i; UT(k), k >= 2, is not separable;
- Sweedler's H4 splits on both sides with trivial omega, and the coradical
  split equals the dual of the radical split of H4* (criterion 11);
- each single-axiom mutation of the H4 quadruple fails its axiom family
  and does not bosonize to a bialgebra (criterion 09).

Seeded random basis changes (entries in [-2, 2], as in criterion 01) are
applied to the small algebras.  HH^2 of Q[Z_4] and M_2(Q) is taken in the
standard basis, because under a random basis change it costs 3-6 s and
moves by a third with the seed, and HH^2 of UT(3) (13 s) is left out.

The rejections take about 1.8 s together, most of it NotSeparable on UT(5)
in one job, so a single sample of them reads the machine's speed at one
moment.  They run in REJECT_ROUNDS rounds placed between the groups of
positive jobs, each round on its own fresh copies of the inputs (hopfsplit
builds some multiplication maps lazily on first use), and `reject_s` takes
each rejection at its median over the rounds.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .jobs import ACCEPT, REJECT, Job, expect_raise, unexpected

# (algebra, basis, degrees, HH dims); "random" gets a seeded basis change
HH_CASES = [
    ("dual_numbers", "random", (0, 1, 2), (2, 1, 1)),
    ("cubic", "random", (0, 1, 2), (3, 2, 2)),
    ("z2", "random", (0, 1, 2), (2, 0, 0)),
    ("z4", "random", (0, 1), (4, 0)),
    ("mat2", "random", (0, 1), (1, 0)),
    ("z4", "standard", (2,), (0,)),
    ("mat2", "standard", (2,), (0,)),
    ("ut3", "standard", (0, 1), (1, 0)),
]
SEPARABLE_M = (8, 10, 12)
NOT_SEPARABLE_K = (2, 3, 4, 5)
# a round of rejections before each of the six groups of positive jobs
# (two halves of HH; H4; Q[Z_8]; Q[Z_10]; Q[Z_12]) and one after the last
REJECT_ROUNDS = 7

# criterion 09: per axiom family, the first single-entry bump of the H4
# quadruple (matrix, row, col, added value) that breaks it
MUTATIONS = {
    0: ("eps", 0, 1, 1, {"yd0_action", "yd0_coaction"}),
    1: ("eps", 0, 0, 1, {"yd1_multiplicative"}),
    2: ("delta", 0, 1, 1, {"yd2_delta_colinear"}),
    3: ("omega", 1, 0, 1, {"yd3_omega_colinear"}),
    4: ("delta", 0, 0, 1, {"yd4_delta_braided_multiplicative", "yd4_delta_unital"}),
    5: ("omega", 0, 0, 1, {"yd5_omega_cocycle", "yd5_omega_unital"}),
    6: ("delta", 0, 1, 1, {"yd6_twisted_linearity"}),
    7: ("delta", 0, 0, 1, {"yd7_omega_coassoc"}),
    8: ("delta", 1, 0, 1, {"yd8_compatibility"}),
    9: ("delta", 0, 0, 1, {"yd9_delta_counit_l", "yd9_delta_counit_r"}),
    10: ("omega", 0, 0, 1, {"yd10_omega_counit_l", "yd10_omega_counit_r"}),
}


def _algebra(name: str):
    from hopfsplit import builtin, fields

    f = fields.QQ
    one, zero = f.one(), f.zero()
    if name == "z2":
        return builtin.group_algebra(2, f).as_algebra()
    if name == "z4":
        return builtin.group_algebra(4, f).as_algebra()
    if name == "dual_numbers":
        return _truncated_polynomials(2)
    if name == "cubic":
        return _truncated_polynomials(3)
    if name == "mat2":
        return _matrix_units([(1, 1), (1, 2), (2, 1), (2, 2)], [one, zero, zero, one])
    if name == "ut3":
        return ut(3)
    raise ValueError(name)


def _truncated_polynomials(k: int):
    from hopfsplit import algebra, fields

    f = fields.QQ
    mul = {(i, j): {i + j: f.one()} for i in range(k) for j in range(k) if i + j < k}
    return algebra.AlgebraObject(f, k, mul, [f.one()] + [f.zero()] * (k - 1))


def _matrix_units(basis, unit):
    from hopfsplit import algebra, fields

    f = fields.QQ
    idx = {b: i for i, b in enumerate(basis)}
    mul = {}
    for a in basis:
        for b in basis:
            if a[1] == b[0]:
                mul[(idx[a], idx[b])] = {idx[(a[0], b[1])]: f.one()}
    return algebra.AlgebraObject(f, len(basis), mul, unit)


def ut(k: int):
    """Upper triangular k x k matrices, basis of matrix units E_ij, i <= j."""
    from hopfsplit import fields

    f = fields.QQ
    basis = [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]
    return _matrix_units(basis, [f.one() if i == j else f.zero() for i, j in basis])


def random_basis_change(alg, rng: random.Random):
    """The algebra in the basis given by the columns of a random invertible
    matrix with entries in [-2, 2] (criterion 01)."""
    from hopfsplit import algebra, linalg

    f = alg.field
    n = alg.dim
    while True:
        rows = [[f.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        p = linalg.Matrix.from_rows(f, rows)
        try:
            pinv = p.inverse()
            break
        except linalg.InconsistentSystem:
            continue
    mul = {}
    for i in range(n):
        for j in range(n):
            prod = pinv.apply(alg.product(p.col_list(i), p.col_list(j)))
            col = {k: c for k, c in enumerate(prod) if not f.is_zero(c)}
            if col:
                mul[(i, j)] = col
    return algebra.AlgebraObject(f, n, mul, pinv.apply(alg.unit))


def h4_quadruple(delta_bump=None, omega_bump=None, eps_bump=None):
    """The Yetter-Drinfeld quadruple of H4 over Q[Z_2] (criterion 09),
    optionally with one entry bumped."""
    from hopfsplit import algebra, builtin, category, fields, linalg, smash

    f = fields.QQ
    mat = linalg.Matrix.from_entries
    h2 = builtin.group_algebra(2, f)
    act = mat(f, 2, 4, {(0, 0): f.one(), (1, 1): f.one(), (0, 2): f.one(), (1, 3): f.neg(f.one())})
    coact = mat(f, 4, 2, {(0, 0): f.one(), (3, 1): f.one()})
    yd = category.YDObject(h2, 2, act, coact)
    r_alg = algebra.AlgebraObject(f, 2, {(0, 0): {0: f.one()}, (0, 1): {1: f.one()}, (1, 0): {1: f.one()}},
                                  [f.one(), f.zero()])
    eps = [f.one(), f.zero()]
    delta = {(0, 0): f.one(), (1, 1): f.one(), (2, 1): f.one()}
    omega = {(0, 0): f.one(), (0, 1): f.one()}
    for entries, bump in ((delta, delta_bump), (omega, omega_bump)):
        if bump:
            (i, j), v = bump
            entries[(i, j)] = f.add(entries.get((i, j), f.zero()), f.from_int(v))
    if eps_bump:
        j, v = eps_bump
        eps[j] = f.add(eps[j], f.from_int(v))
    return smash.YDQuadruple(h2, r_alg, yd, eps, mat(f, 4, 2, delta), mat(f, 4, 2, omega))


def make_inputs(seed: int, tmpdir: str) -> dict:
    from hopfsplit import category, fields, hochschild, linalg, tensors

    f = fields.QQ
    rng = random.Random(seed)
    hh = []
    for name, basis, degrees, dims in HH_CASES:
        alg = _algebra(name)
        if basis == "random":
            alg = random_basis_change(alg, rng)
        actx = hochschild.AlgebraInContext(category.CategoryContext("vect"), alg,
                                           category.CatObject(f, alg.dim))
        hh.append((f"hh_{name}_{basis}", actx, hochschild.BimoduleInContext.regular(actx), degrees, dims))

    def span(idxs):
        return linalg.Subspace.from_vectors(f, 4, [tensors.v_basis(f, 4, i) for i in idxs])

    def reject_inputs():
        mutants = {}
        for fam, (which, i, j, v, names) in MUTATIONS.items():
            kw = {"eps_bump": (j, v)} if which == "eps" else {f"{which}_bump": ((i, j), v)}
            mutants[fam] = (h4_quadruple(**kw), names)
        return {"ut": {k: ut(k) for k in NOT_SEPARABLE_K}, "mutants": mutants}

    return {
        "hh": hh,
        # H4 basis g^i x^j at index 2 i + j: J = (x), C0 = span{1, g}
        "h4_j": span([1, 3]),
        "h4_c0": span([0, 2]),
        "rounds": [reject_inputs() for _ in range(REJECT_ROUNDS)],
    }


def _fmt_matrix(m) -> str:
    return ";".join(",".join(str(m[i, j]) for j in range(m.cols)) for i in range(m.rows))


def make_jobs(inp: dict) -> list[Job]:
    from hopfsplit import algebra, builtin, coalgebra, fields, hochschild, hopf, linalg, pipeline, serialize, smash

    f = fields.QQ
    state: dict = {}
    hh, separable = [], []

    for name, actx, mctx, degrees, dims in inp["hh"]:
        def run(actx=actx, mctx=mctx, degrees=degrees):
            return [hochschild.cohomology(actx, mctx, n) for n in degrees]

        def check(res, dims=dims):
            problems = unexpected(res)
            if problems:
                return problems, None
            got = tuple(d.dimension for d in res)
            if got != dims:
                problems.append(f"HH dims {got}, expected {dims}")
            reps = "|".join(f"{d.degree}:" + "/".join(_fmt_matrix(r) for r in d.cocycle_reps) for d in res)
            return problems, reps

        hh.append(Job(name, ACCEPT, run, check))

    for m in SEPARABLE_M:
        def run(m=m):
            return algebra.separability_idempotent(builtin.group_algebra(m, f).as_algebra())

        def check(e, m=m):
            problems = unexpected(e)
            if problems:
                return problems, None
            want = [Fraction(0)] * (m * m)
            for i in range(m):
                want[i * m + (-i) % m] = Fraction(1, m)
            if list(e) != want:
                problems.append(f"Q[Z_{m}] idempotent is not (1/m) sum g^i (x) g^-i")
            return problems, ",".join(map(str, e))

        separable.append(Job(f"separable_z{m}", ACCEPT, run, check))

    def radical_side():
        h4 = builtin.sweedler_h4(f)
        state["h4"] = h4
        return pipeline.run_radical_pipeline(h4, inp["h4_j"], "bicomodule")

    def check_radical(rep):
        problems = unexpected(rep)
        if problems:
            return problems, None
        if not rep.checks.ok:
            problems.append(f"H4 radical split checks failed: {rep.checks.failures()}")
        if not rep.quadruple.omega_is_trivial():
            problems.append("H4 radical split has nontrivial omega")
        if not hopf.is_coalgebra_map(rep.hopf.as_coalgebra(), state["h4"].as_coalgebra(), rep.sigma):
            problems.append("H4 section is not a coalgebra map (Radford biproduct)")
        return problems, serialize.dumps(serialize.report_to_json(rep))

    def coradical_side():
        rep_c = pipeline.run_coradical_pipeline(state["h4"], inp["h4_c0"], "bicomodule")
        state["rep_c"] = rep_c
        return rep_c

    def check_coradical(rep):
        problems = unexpected(rep)
        if problems:
            return problems, None
        if not rep.checks.ok:
            problems.append(f"H4 coradical split checks failed: {rep.checks.failures()}")
        return problems, serialize.dumps(serialize.report_to_json(rep))

    def duality():
        rep_c = state["rep_c"]
        dual = coalgebra.dualize(state["h4"])
        jprime = linalg.Subspace.from_matrix_rows(rep_c.certified.incl.transpose().kernel())
        return rep_c, pipeline.run_radical_pipeline(dual, jprime, "bicomodule")

    def check_duality(res):
        problems = unexpected(res)
        if problems:
            return problems, None
        rep_c, rep_r = res
        if not (rep_c.pi == rep_r.sigma.transpose() and rep_c.sigma == rep_r.pi.transpose()
                and coalgebra.dualize(rep_c.hopf).mul == rep_r.hopf.mul):
            problems.append("coradical split of H4 is not the dual of the radical split of H4*")
        return problems, serialize.dumps(serialize.report_to_json(rep_r))

    h4 = [
        Job("h4_radical_split", ACCEPT, radical_side, check_radical),
        Job("h4_coradical_split", ACCEPT, coradical_side, check_coradical),
        Job("h4_duality", ACCEPT, duality, check_duality),
    ]

    def check_not_separable(res):
        problems = expect_raise(res, algebra.NotSeparable, "no separability idempotent")
        return problems, None if problems else str(res.exc)

    def run_mutant(mq):
        vrep = mq.validate()
        try:
            brep = smash.validate_bosonization(smash.bosonize(mq, force=True))
        except (ValueError, AssertionError) as e:  # the claimed structure cannot exist
            brep = e
        return vrep, brep

    def check_mutant(res, names):
        problems = unexpected(res)
        if problems:
            return problems, None
        vrep, brep = res
        bad = sorted(n for n, _ in vrep.failures())
        if vrep.ok or not set(bad) & names:
            problems.append(f"quadruple validation missed {sorted(names)}: failures {bad}")
        if not isinstance(brep, Exception) and brep.ok:
            problems.append("mutated quadruple bosonized to a valid bialgebra")
        verdict = type(brep).__name__ if isinstance(brep, Exception) else "invalid"
        return problems, f"{bad} {verdict}"

    def rejections(rnd):
        uts = [Job(f"not_separable_ut{k}", REJECT, lambda alg=alg: algebra.separability_idempotent(alg),
                   check_not_separable) for k, alg in rnd["ut"].items()]
        mutants = [Job(f"h4_mutation_family{fam}", REJECT, lambda mq=mq: run_mutant(mq),
                       lambda res, names=names: check_mutant(res, names))
                   for fam, (mq, names) in rnd["mutants"].items()]
        return [job for pair in itertools.zip_longest(uts, mutants) for job in pair if job is not None]

    half = len(hh) // 2
    groups = [hh[:half], hh[half:], h4, *([job] for job in separable)]
    assert len(inp["rounds"]) == len(groups) + 1
    jobs = []
    for rnd, group in zip(inp["rounds"], groups + [[]]):
        jobs += rejections(rnd) + group
    return jobs
