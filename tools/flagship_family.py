"""Run the flagship chain on a member of the p^4 family and check its known answers.

    python tools/flagship_family.py --p 5 --seed 0

Builds H(a) = `builtin.build_ha(p, F_q, lam, a)` (dim p^4; q = 7 for p = 3
and q = 11 for p = 5), certifies its coradical span{c^i}, splits it at the
bicomodule level and proves the reconstruction R # H -> A an isomorphism.
The seed picks lam among the primitive p-th roots of unity mod q and a in
1..q-1, as perfbench's flagship_f7 workload does for p = 3 (lam in {2, 4},
a in 1..6).  The known answers: the coradical is k[Z_(p^2)], certified as
span{c^i} and giving a p^2-dimensional H, and xi(x2 (x) x1) = a(c^2 - 1),
read through sigma.

Prints one JSON line: p, q, lam, a, the seconds of each step (build,
certify, split, reconstruct), `ru_maxrss` in MB, `correct`, and the
failed checks.  BLAS and OpenMP are pinned to one thread.  Exits 1 unless
correct.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

FIELDS = {3: 7, 5: 11}


def choose(p: int, seed: int) -> tuple[int, int, int]:
    """(q, lam, a) for the seed."""
    q = FIELDS[p]
    rng = random.Random(seed)
    roots = [x for x in range(2, q) if pow(x, p, q) == 1]  # p is prime: every root but 1 is primitive
    return q, rng.choice(roots), rng.randint(1, q - 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, choices=sorted(FIELDS), default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    from hopfsplit import builtin, fields, linalg, pipeline, tensors

    p = args.p
    q, lam, a = choose(p, args.seed)
    f = fields.GF(q)
    n, pp = p**4, p * p
    seconds, problems = {}, []

    def step(name, fn):
        t0 = time.perf_counter()
        out = fn()
        seconds[name] = round(time.perf_counter() - t0, 3)
        return out

    ha = step("build", lambda: builtin.build_ha(p, f, lam, a))
    # the basis index of c^i x1^j x2^r is (i p + j) p + r
    c0 = linalg.Subspace.from_vectors(f, n, [tensors.v_basis(f, n, i * pp) for i in range(pp)])
    cert = step("certify", lambda: pipeline.certify_split_input(ha, "coradical", c0))
    res = step("split", lambda: pipeline.split_coradical(cert, "bicomodule"))
    rep = step("reconstruct", lambda: pipeline.reconstruct_and_verify(ha, res))
    if not rep.checks.ok:
        problems.append(f"failed checks: {rep.checks.failures()}")
    if res.hopf.dim != pp:
        problems.append(f"H has dim {res.hopf.dim}, expected {pp}")
    # R's basis index of x1^(t // p) x2^(t % p) is t, so x2 (x) x1 is column 1 * p^2 + p
    got = [int(x) for x in rep.sigma.apply(rep.quadruple.xi.col_list(pp + p))]
    want = [0] * n
    want[2 * pp] = a % q  # c^2
    want[0] = -a % q
    if got != want:
        problems.append("xi(x2 (x) x1) through sigma is not a(c^2 - 1)")
    out = {"p": p, "q": q, "lam": lam, "a": a, "dim": n, "seconds": seconds,
           "total_s": round(sum(seconds.values()), 3),
           "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
           "correct": not problems, "problems": problems}
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
