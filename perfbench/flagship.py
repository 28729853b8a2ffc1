"""Workload `flagship_f7`: the paper's headline split.

The 81-dimensional two-generator pointed Hopf algebra over F_7 (p = 3) is
built, its coradical span{c^i} certified, the bicomodule-level coradical
split computed and the reconstruction R # H -> A proved an isomorphism.
The seed picks lam in {2, 4} (the primitive cube roots of unity mod 7) and
a in {1..6}.  The chain runs as three jobs (build; certify and split;
reconstruct).  Five certifications that must fail are run after each of
the three, so that the rejection path is timed on the same algebra at three
points of the pass; `reject_s` takes each at its median over the rounds.

Basis index of c^i x1^j x2^r is 9 i + 3 j + r.
"""
from __future__ import annotations

import random

from .jobs import ACCEPT, REJECT, Job, expect_raise, unexpected

P = 7
DIM = 81


def _idx(i, j, r):
    return 9 * i + 3 * j + r


def make_inputs(seed: int, tmpdir: str) -> dict:
    from hopfsplit import fields, linalg, tensors

    rng = random.Random(seed)
    lam = rng.choice([2, 4])
    a = rng.randint(1, 6)
    f = fields.GF(P)

    def span(idxs):
        return linalg.Subspace.from_vectors(f, DIM, [tensors.v_basis(f, DIM, i) for i in idxs])

    c0 = [_idx(i, 0, 0) for i in range(9)]
    return {
        "lam": lam,
        "a": a,
        "field": f,
        # the coradical k[Z_9] = span{c^i}
        "c0": span(c0),
        # x2 x1 - lam x1 x2 = a (c^2 - 1) leaves the span of the monomials
        # containing an x, so that span is not an ideal
        "x_span": span([_idx(i, j, r) for i in range(9) for j in range(3) for r in range(3) if j + r]),
        # k[Z_3] = span{1, c^3, c^6} is a sub-Hopf algebra missing the
        # grouplike c, so it is not the coradical
        "z3": span([_idx(0, 0, 0), _idx(3, 0, 0), _idx(6, 0, 0)]),
        # c^3 is central of order 3, so the ideal (c^3 - 1) = span{c^(i+3) m
        # - c^i m} is not nil: c^3 - 1 is a nonzero element of k[Z_3]
        "c3_minus_1": linalg.Subspace.from_vectors(f, DIM, [
            [1 if k == _idx((i + 3) % 9, j, r) else (-1 % P) if k == _idx(i, j, r) else 0 for k in range(DIM)]
            for i in range(9) for j in range(3) for r in range(3)]),
        # x1^2 lies outside C0 + k x1
        "c0_plus_x1": span(c0 + [_idx(0, 1, 0)]),
        # c * c^7 = c^8 lies outside span{c^0..c^7}
        "c0_minus_c8": span(c0[:-1]),
    }


def make_jobs(inp: dict) -> list[Job]:
    from hopfsplit import builtin, coalgebra, pipeline, serialize

    f = inp["field"]
    state: dict = {}

    def build():
        state["ha"] = builtin.build_ha(3, f, inp["lam"], inp["a"])
        return state["ha"]

    def check_build(ha):
        problems = unexpected(ha)
        if problems:
            return problems, None
        if ha.dim != DIM:
            problems.append(f"built dim {ha.dim}, expected {DIM}")
        return problems, serialize.dumps(serialize.object_to_json(ha))

    def split():
        cert = pipeline.certify_split_input(state["ha"], "coradical", inp["c0"])
        state["split"] = pipeline.split_coradical(cert, "bicomodule")
        return state["split"]

    def check_split(res):
        problems = unexpected(res)
        if problems:
            return problems, None
        if not res.checks.ok:
            problems.append(f"split checks failed: {res.checks.failures()}")
        return problems, f"pi {_entries(res.pi)}\nsigma {_entries(res.sigma)}"

    def reconstruct():
        return pipeline.reconstruct_and_verify(state["ha"], state["split"])

    def check_reconstruct(rep):
        problems = unexpected(rep)
        if problems:
            return problems, None
        if not rep.checks.ok:
            problems.append(f"reconstruction checks failed: {rep.checks.failures()}")
        # xi(x2 (x) x1) = a (c^2 - 1), read through sigma; R basis index of
        # x1^(t // 3) x2^(t % 3) is t, so x2 (x) x1 is column 1 * 9 + 3
        got = rep.sigma.apply(rep.quadruple.xi.col_list(1 * 9 + 3))
        want = [0] * DIM
        want[_idx(2, 0, 0)] = inp["a"] % P
        want[_idx(0, 0, 0)] = -inp["a"] % P
        if [int(x) for x in got] != want:
            problems.append(f"xi(x2 (x) x1) through sigma is {got}, expected a(c^2 - 1)")
        return problems, serialize.dumps(serialize.report_to_json(rep))

    negatives = [
        ("radical_x_span_not_ideal", "radical", "x_span", pipeline.CertificationFailed, "not a two-sided ideal"),
        ("radical_c3_minus_1_not_nilpotent", "radical", "c3_minus_1", pipeline.CertificationFailed,
         "not nilpotent"),
        ("coradical_z3_not_coradical", "coradical", "z3", coalgebra.CertificationFailed, "does not exhaust"),
        ("coradical_c0_plus_x1_not_closed", "coradical", "c0_plus_x1", pipeline.CertificationFailed,
         "not closed under multiplication"),
        ("coradical_c0_minus_c8_not_closed", "coradical", "c0_minus_c8", pipeline.CertificationFailed,
         "not closed under multiplication"),
    ]

    def rejections():
        """The negatives: they take about 1.5 s together, so they are run
        at three points of the pass to sample their timing three times."""
        jobs = []
        for name, side, cand, exc_type, needle in negatives:
            def run(side=side, cand=cand):
                return pipeline.certify_split_input(state["ha"], side, inp[cand])

            def check(res, exc_type=exc_type, needle=needle):
                problems = expect_raise(res, exc_type, needle)
                return problems, None if problems else f"{type(res.exc).__name__}: {res.exc}"

            jobs.append(Job(name, REJECT, run, check))
        return jobs

    return [
        Job("build", ACCEPT, build, check_build),
        *rejections(),
        Job("certify_split", ACCEPT, split, check_split),
        *rejections(),
        Job("reconstruct", ACCEPT, reconstruct, check_reconstruct),
        *rejections(),
    ]


def _entries(m) -> str:
    return ";".join(f"{i},{j},{int(v)}" for i, j, v in sorted(m.entries()))
