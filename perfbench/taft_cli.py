"""Workload `taft_cli`: a CLI session on Taft algebras, run in-process.

For each n in N_VALUES the Taft algebra T_n (dim n^2, basis g^i x^j at index
i n + j) is written by `hopfsplit example taft` over F_p, with the seed
picking p among the primes with p = 1 (mod n) and n^2 < p < 2^15.  The
session then proves what holds and refutes what does not, all through
`hopfsplit.cli.main(argv)`.  Sizes straddle the `dim > 12` fast-path
threshold (n = 3 gives dim 9).

Known answers (standard facts about T_n):
- rad T_n = (x), of dim n(n - 1), and T_n / rad = k[Z_n];
- the coradical is k[Z_n] = span{g^i} and the coradical filtration has
  dims n, 2n, ..., n^2;
- T_n is neither semisimple nor cosemisimple, so no integral normalizes;
- J minus a vector is not an ideal; J^2 = (x^2) is an ideal but not a
  coideal (Delta(x^2) has the term (1 + lam) g x (x) x); span{g^i} + k x is
  not closed under multiplication (x^2);
- Delta(x) = g (x) x + 2 x (x) 1 is not coassociative: the x (x) 1 (x) 1
  terms of (Delta (x) id)Delta(x) and (id (x) Delta)Delta(x) are 4 and 2;
- S(g) = g^-1 + 1 breaks only the antipode axiom.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

from .jobs import ACCEPT, REJECT, Job

N_VALUES = (3, 4, 5, 6, 7)
# The two positive splits at n = 7 take 14 s, half the session; they are
# left out to keep one run of all three workloads under two minutes.
SPLIT_MAX_N = 6
# each session's refutations run this many times, and `reject_s` takes each
# at its median: a single sample of the short ones reads the machine's speed
# at one moment
REJECT_ROUNDS = 3
P_LIMIT = 2**15


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def primes_for(n: int) -> list[int]:
    return [p for p in range(n * n + 1, P_LIMIT) if p % n == 1 and _is_prime(p)]


def pick_primes(seed: int) -> dict[int, int]:
    rng = random.Random(seed)
    return {n: rng.choice(primes_for(n)) for n in N_VALUES}


def _unit_rows(dim: int, idxs) -> list[list[str]]:
    rows = []
    for i in idxs:
        v = ["0"] * dim
        v[i] = "1"
        rows.append(v)
    return rows


def make_inputs(seed: int, tmpdir: str) -> dict:
    """Choose the primes and write the candidate subspace files."""
    primes = pick_primes(seed)
    files = {}
    for n, p in primes.items():
        dim = n * n
        g_pows = [i * n for i in range(n)]
        j_basis = [i * n + j for i in range(n) for j in range(1, n)]
        cands = {
            "J": j_basis,
            "J_minus": j_basis[:-1],
            "J2": [i * n + j for i in range(n) for j in range(2, n)],
            "C0": g_pows,
            "C0x": g_pows + [1],
        }
        for name, idxs in cands.items():
            path = os.path.join(tmpdir, f"{name}_{n}.json")
            doc = {"field": {"kind": "Fp", "p": p}, "ambient_dim": dim, "vectors": _unit_rows(dim, idxs)}
            with open(path, "w") as fh:
                json.dump(doc, fh)
            files[(n, name)] = path
    return {"primes": primes, "files": files, "tmpdir": tmpdir}


def _cli(argv):
    from hopfsplit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


def _perturb(src, dst, edit):
    with open(src) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(dst, "w") as fh:
        json.dump(doc, fh)


def make_jobs(inp: dict) -> list[Job]:
    jobs = []
    for n in N_VALUES:
        jobs += _session(n, inp)
    return jobs


def _session(n: int, inp: dict) -> list[Job]:
    """The jobs on T_n, in session order."""
    tmp = inp["tmpdir"]
    p = inp["primes"][n]
    dim = n * n
    cand = {name: inp["files"][(n, name)] for name in ("J", "J_minus", "J2", "C0", "C0x")}

    def norm(text):
        return text.replace(tmp, "<tmp>")

    struct = os.path.join(tmp, f"taft_{n}.json")
    split_r = os.path.join(tmp, f"split_radical_{n}.json")
    split_c = os.path.join(tmp, f"split_coradical_{n}.json")
    bad_comul = os.path.join(tmp, f"bad_comul_{n}.json")
    bad_antipode = os.path.join(tmp, f"bad_antipode_{n}.json")

    def runner(argv):
        return lambda: _cli(argv)

    def checker(expect_code, judge, out_file=None):
        """judge(stdout, stderr) -> problems; the digest covers exit code,
        stdout, stderr and the written file."""
        def check(res):
            if not isinstance(res, tuple):
                return [f"cli raised {type(res.exc).__name__}: {res.exc}\n{res.tb}"], None
            code, out, err = res
            if code != expect_code:
                return [f"exit {code}, expected {expect_code}; stderr: {err.strip()}"], None
            problems = judge(out, err)
            body = _read(out_file) if out_file and os.path.exists(out_file) else ""
            if out_file and not body:
                problems.append(f"{out_file} not written")
            return problems, norm(f"{code}\n{out}\n{err}\n{body}")
        return check

    def judge_json(test, what):
        def judge(out, err):
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                return [f"stdout is not JSON: {out[:200]!r}"]
            return [] if test(doc) else [f"{what}; got {out[:300]!r}"]
        return judge

    def judge_stderr(needle):
        return lambda out, err: [] if needle in err else [f"stderr does not name {needle!r}: {err.strip()}"]

    def judge_file(path, keys):
        def judge(out, err):
            with open(path) as fh:
                doc = json.load(fh)
            bad = [f"{k}.{name}" for k in keys for name, ok in doc.get(k, {}).items() if not ok]
            missing = [k for k in keys if not doc.get(k)]
            return [f"report checks failed: {bad}, missing: {missing}"] if bad or missing else []
        return judge

    def rad_is_x_ideal(doc):
        # every basis vector of (x) vanishes on the g^i coordinates
        return doc["dim"] == n * (n - 1) and all(
            all(v[i * n] == "0" for i in range(n)) for v in doc["basis"])

    def failed_checks(doc):
        return {name for name, ok in doc["checks"].items() if not ok}

    def edit_comul(doc):
        # the x (x) 1 term of Delta(x): index 1 is g^0 x^1
        for t in doc["comul"]:
            if t[0] == 1 and t[1] == 0 and t[2] == 1:
                t[3] = str((int(t[3]) + 1) % p)

    def edit_antipode(doc):
        # S(g) gains the term 1 * e_0; column n is g
        doc["antipode"][0][n] = str((int(doc["antipode"][0][n]) + 1) % p)

    def file_ok(out, err):
        with open(struct) as fh:
            doc = json.load(fh)
        return [] if doc.get("dim") == dim and "antipode" in doc else ["example file lacks dim or antipode"]

    splits = [
        Job(f"n{n}.split_radical", ACCEPT,
            runner(["split", struct, "--side", "radical", "--candidate", cand["J"], "--out", split_r]),
            checker(0, judge_file(split_r, ["checks"]), split_r)),
        Job(f"n{n}.split_coradical", ACCEPT,
            runner(["split", struct, "--side", "coradical", "--candidate", cand["C0"], "--out", split_c]),
            checker(0, judge_file(split_c, ["checks", "filtration_checks"]), split_c)),
    ] if n <= SPLIT_MAX_N else []
    accept = [
        Job(f"n{n}.example", ACCEPT,
            runner(["example", "taft", "--n", str(n), "--field", f"fp:{p}", "--out", struct]),
            checker(0, file_ok, struct)),
        Job(f"n{n}.validate", ACCEPT, runner(["--json", "validate", struct]),
            checker(0, judge_json(lambda d: d["ok"] is True, "validation did not pass"))),
        Job(f"n{n}.radical_trace_form", ACCEPT, runner(["--json", "radical", struct]),
            checker(0, judge_json(rad_is_x_ideal, f"radical is not (x) of dim {n * (n - 1)}"))),
        Job(f"n{n}.radical_candidate", ACCEPT,
            runner(["--json", "radical", struct, "--candidate", cand["J"]]),
            checker(0, judge_json(rad_is_x_ideal, f"radical is not (x) of dim {n * (n - 1)}"))),
        Job(f"n{n}.coradical_candidate", ACCEPT,
            runner(["--json", "coradical", struct, "--candidate", cand["C0"]]),
            checker(0, judge_json(lambda d: d["dim"] == n, f"coradical dim is not {n}"))),
        Job(f"n{n}.filtration", ACCEPT,
            runner(["--json", "filtration", struct, "--candidate", cand["C0"]]),
            checker(0, judge_json(
                lambda d: d["dims"] == [n * k for k in range(1, n + 1)] and d["exhausts"] is True,
                f"filtration dims are not n, 2n, ..., n^2 = {dim}"))),
        *splits,
    ]
    reject = [
        Job(f"n{n}.integral_not_semisimple", REJECT,
            runner(["--json", "integral", struct, "--check-ad"]),
            checker(1, judge_json(lambda d: d["normalized"] is False, "integral normalized"))),
        Job(f"n{n}.dual_integral_not_cosemisimple", REJECT,
            runner(["--json", "integral", struct, "--dual", "--check-ad"]),
            checker(1, judge_json(lambda d: d["normalized"] is False, "dual integral normalized"))),
        Job(f"n{n}.split_radical_not_ideal", REJECT,
            runner(["split", struct, "--side", "radical", "--candidate", cand["J_minus"]]),
            checker(1, judge_stderr("not a two-sided ideal"))),
        Job(f"n{n}.split_radical_not_coideal", REJECT,
            runner(["split", struct, "--side", "radical", "--candidate", cand["J2"]]),
            checker(1, judge_stderr("delta_multiplicative"))),
        Job(f"n{n}.split_coradical_not_closed", REJECT,
            runner(["split", struct, "--side", "coradical", "--candidate", cand["C0x"]]),
            checker(1, judge_stderr("not closed under multiplication"))),
        Job(f"n{n}.validate_bad_comul", REJECT, runner(["--json", "validate", bad_comul]),
            checker(1, judge_json(lambda d: d["ok"] is False and "coalgebra:coassociativity" in failed_checks(d),
                                  "perturbed Delta(x) did not fail coassociativity")),
            prep=lambda: _perturb(struct, bad_comul, edit_comul)),
        Job(f"n{n}.validate_bad_antipode", REJECT, runner(["--json", "validate", bad_antipode]),
            checker(1, judge_json(lambda d: d["ok"] is False and failed_checks(d) == {"antipode"},
                                  "perturbed S(g) did not fail exactly the antipode check")),
            prep=lambda: _perturb(struct, bad_antipode, edit_antipode)),
    ]
    # in the first round each refutation follows a positive job of the same
    # session, so that the rejections of the large n are timed across their
    # session, not in one block; the other rounds close the session
    first = [job for pair in itertools.zip_longest(accept, reject) for job in pair if job is not None]
    return first + reject * (REJECT_ROUNDS - 1)
