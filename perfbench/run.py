"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flagship_f7 --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout and imports hopfsplit from its
`src/`.  The workload's inputs are made from `--seed`; whole passes over
its job list are run until `--seconds` have elapsed (at least one), each
job's result is checked against its known answer and, for the seeds in
`goldens.json`, against the golden sha256 of its output.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured with nothing installed.
--trace 1 runs one untraced pass, then installs span wrappers on hopfsplit's
entry points (see trace.py), runs one traced pass, removes them, and
reports the per-layer metrics; the spans go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")
WORKLOADS = {"flagship_f7": "flagship", "taft_cli": "taft_cli", "rational_q": "rational"}
SETUP_PROBES = 3
# BLAS and OpenMP pools are pinned to one thread: every workload is
# measured single-threaded, which is at most nproc on any machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare_environment():
    """Pin thread pools and put the checkout's src/ first on sys.path.
    Must run before numpy is imported."""
    if not os.path.isfile(os.path.join(SRC, "hopfsplit", "__init__.py")):
        raise SystemExit(f"perfbench: no hopfsplit sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def workload_module(name: str):
    import importlib

    return importlib.import_module(f"perfbench.{WORKLOADS[name]}")


def setup(name: str, seed: int, tmpdir: str):
    """Imports and input generation: everything a pass needs."""
    mod = workload_module(name)
    import hopfsplit

    if not os.path.abspath(hopfsplit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported hopfsplit from {hopfsplit.__file__}, not from {SRC}")
    return mod, mod.make_inputs(seed, tmpdir)


def run_pass(mod, inputs, tracer=None):
    """Run every job once; returns the pass wall time and (job, seconds, result)."""
    from perfbench.jobs import Raised, call

    clock = time.perf_counter
    results = []
    t0 = clock()
    for k, job in enumerate(mod.make_jobs(inputs)):
        if job.prep is not None:
            try:
                job.prep()
            except Exception as e:  # the job then fails its check
                results.append((job, 0.0, Raised(e)))
                continue
        if tracer is not None:
            tracer.job = k
        s = clock()
        res = call(job)
        e = clock()
        if tracer is not None:
            tracer.job = None
        results.append((job, e - s, res))
    return clock() - t0, results


def check_pass(results, goldens: dict | None):
    """Known-answer and golden-digest checks; returns Outcomes."""
    from perfbench.jobs import Outcome, sha256

    outcomes = []
    for job, seconds, res in results:
        out = Outcome(job.name, job.kind, seconds)
        try:
            problems, text = job.check(res)
        except Exception as e:  # a check that crashes is a failed job
            problems, text = [f"check raised {type(e).__name__}: {e}"], None
        out.problems = list(problems)
        if text is not None:
            out.digest = sha256(text)
            if goldens is not None:
                want = goldens.get(job.name)
                if want is None:
                    out.problems.append("no golden digest recorded for this job")
                elif want != out.digest:
                    out.problems.append(f"digest {out.digest} differs from golden {want}")
        elif not out.problems:
            out.problems.append("check produced no output to digest")
        outcomes.append(out)
    return outcomes


def load_goldens(name: str, seed: int) -> dict | None:
    with open(GOLDENS) as fh:
        doc = json.load(fh)
    return doc["digests"].get(name, {}).get(str(seed))


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start, import and make the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return walls


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_walls) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": metric(statistics.median(setup_walls), "s"),
        "wall_s": metric(med("wall_s"), "s"),
        "accept_s": metric(med("accept_s"), "s"),
        "reject_s": metric(med("reject_s"), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def summarize(wall, outcomes) -> dict:
    """Per-pass figures.  A job that a workload runs in several rounds of
    one pass (same name) counts once, at its median latency."""
    from perfbench.jobs import ACCEPT, REJECT

    times: dict[tuple[str, str], list[float]] = {}
    for o in outcomes:
        times.setdefault((o.kind, o.name), []).append(o.seconds)

    def total(kind):
        return sum(statistics.median(t) for (k, _), t in times.items() if k == kind)

    return {"wall_s": wall, "accept_s": total(ACCEPT), "reject_s": total(REJECT)}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("linalg.rref.rank_ratio", "trace.overhead_frac", "trace.coverage_min"):
        return "ratio"
    if name == "serialize.bytes_written":
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    prepare_environment()
    os.makedirs(TMP_DIR, exist_ok=True)
    if args.setup_only:
        tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
        try:
            setup(args.workload, args.seed, tmpdir)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        return 0

    record = run_record(args)
    setup_walls = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    goldens = load_goldens(args.workload, args.seed)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        mod, inputs = setup(args.workload, args.seed, tmpdir)
        if args.trace == 0:
            metrics, outcomes, extra_problems, passes = untraced_run(args, mod, inputs, goldens, setup_walls)
        else:
            metrics, outcomes, extra_problems, passes = traced_run(args, mod, inputs, goldens)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failed_jobs = [o for o in outcomes if o.problems]
    for o in failed_jobs:
        print(f"FAILED {args.workload}/{o.name}: " + "; ".join(o.problems), file=sys.stderr)
    for msg in extra_problems:
        print(f"FAILED {args.workload}: {msg}", file=sys.stderr)
    failed = len(failed_jobs) + len(extra_problems)
    record["passes"] = passes
    record["jobs_last_pass"] = {o.name: {"seconds": o.seconds, "digest": o.digest} for o in outcomes}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics, "failed": failed}, fh, indent=1)
    print("run record: " + json.dumps({k: v for k, v in record.items() if k != "jobs_last_pass"}))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


def untraced_run(args, mod, inputs, goldens, setup_walls):
    """Whole passes until `args.seconds` have elapsed; end-to-end metrics."""
    passes, outcomes = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        wall, results = run_pass(mod, inputs)
        done = check_pass(results, goldens)
        outcomes += done
        passes.append(summarize(wall, done))
    return end_to_end(passes, setup_walls), outcomes, [], len(passes)


def traced_run(args, mod, inputs, goldens):
    """One untraced pass, then one traced pass; per-layer metrics."""
    from perfbench.trace import Tracer

    untraced_wall, results = run_pass(mod, inputs)
    outcomes = check_pass(results, goldens)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, results = run_pass(mod, inputs, tracer)
    finally:
        tracer.uninstall()
    problems = [f"wrapper left on {where}" for where in tracer.leftovers()]
    traced = check_pass(results, goldens)
    outcomes += traced
    cover = tracer.root_cover()
    ratios = []
    for k, o in enumerate(traced):
        if o.seconds > 0:
            ratio = cover.get(k, 0.0) / o.seconds
            ratios.append(ratio)
            if ratio < 0.95:
                problems.append(f"layer spans cover {ratio:.1%} of job {o.name} (< 95%)")
    layer = tracer.layer_metrics()
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.traced_wall_s"] = traced_wall
    layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    layer["trace.coverage_min"] = min(ratios) if ratios else 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"),
                       {k: o.name for k, o in enumerate(traced)})
    metrics = {name: metric(value, per_layer_units(name)) for name, value in layer.items()}
    return metrics, outcomes, problems, 2


if __name__ == "__main__":
    sys.exit(main())
