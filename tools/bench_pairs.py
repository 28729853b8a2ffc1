"""Run perfbench in two checkouts in alternating pairs and write a BENCH file.

    python tools/bench_pairs.py --parent ../parent --change . --pr 17 \
        --job flagship_f7:0 --job flagship_f7:1 --job taft_cli:0 \
        --pairs 10 --seconds 10 --traced 3 --log bench.jsonl --out BENCH_17.json \
        --claim "flagship_f7 accept_s improves (seed 0, held-out seed 1)"

Each job is WORKLOAD:SEED and runs --pairs pairs.  A pair runs
`python3 perfbench/run.py --workload W --seed S --seconds SEC --trace 0`
once in each checkout; the side that runs first alternates from pair to
pair, the parent first in pair 0.  With --traced N, each job then runs N
more pairs of `--seconds 0 --trace 1` runs (one untraced and one traced
pass each), alternating the same way.  Only perfbench's stdout is read:
the `run record:` line and the final JSON line.  The commits in the BENCH
file are those of each side's first run record.  Every run is appended to
the log (JSON lines), and the BENCH file is rewritten from the whole log
after each pair, so an interrupted run keeps what it measured and a rerun
with the same log runs only the missing runs.  With no --job it rewrites
the BENCH file from the log alone.

Per workload and seed the BENCH file records the pairs, whether every run
was correct, the failed-job counts per side and, for each end-to-end
metric, the median and the inclusive quartiles of each side's runs, `won`
(pairs in which the change is better, by the metric's direction in
BENCHMARK.json) and the runs themselves, rounded to 4 decimals.  Traced
pairs add a `traced` entry: the median of each per-layer metric per side,
and each run's `trace.coverage_min` and failed count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(runs: list[float]) -> dict:
    """Median and inclusive quartiles (linear interpolation between order
    statistics, as `statistics.quantiles(method="inclusive")`)."""
    if len(runs) == 1:
        q1 = med = q3 = runs[0]
    else:
        q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def summarize_job(records: list[dict], metrics: list[dict]) -> dict:
    """One job's entry from its log records (one per run, each with side,
    pair, correct, failed and the metric values)."""
    by_side = {s: sorted((r for r in records if r["side"] == s), key=lambda r: r["pair"]) for s in SIDES}
    pairs = sorted(set(r["pair"] for r in by_side["parent"]) & set(r["pair"] for r in by_side["change"]))
    runs = {s: [r for r in by_side[s] if r["pair"] in pairs] for s in SIDES}
    out = {
        "pairs": len(pairs),
        "all_correct": all(r["correct"] for s in SIDES for r in runs[s]),
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "end_to_end": {},
    }
    for m in metrics if pairs else []:
        name = m["name"]
        vals = {s: [r["metrics"][name] for r in runs[s]] for s in SIDES}
        out["end_to_end"][name] = {
            "parent": quartiles(vals["parent"]),
            "change": quartiles(vals["change"]),
            "won": won(vals["parent"], vals["change"], m.get("better", "lower")),
            "parent_runs": [round(v, 4) for v in vals["parent"]],
            "change_runs": [round(v, 4) for v in vals["change"]],
        }
    return out


def summarize_traced(records: list[dict]) -> dict:
    """The traced runs of one job (one log record each): the median of each
    per-layer metric per side, and every run's coverage and failed count,
    in pair order."""
    by_side = {s: sorted((r for r in records if r["side"] == s), key=lambda r: r["pair"]) for s in SIDES}

    def median(side, name):
        vals = [r["metrics"][name] for r in by_side[side] if name in r["metrics"]]
        return round(statistics.median(vals), 6) if vals else None

    return {
        "runs": {s: len(by_side[s]) for s in SIDES},
        "coverage_min": {s: [round(r["metrics"].get("trace.coverage_min", 0.0), 4) for r in by_side[s]]
                         for s in SIDES},
        "failed": {s: [r["failed"] for r in by_side[s]] for s in SIDES},
        "per_layer": {name: {s: median(s, name) for s in SIDES}
                      for name in sorted({name for r in records for name in r["metrics"]})},
    }


def parse_output(stdout: str) -> dict:
    """The run record and the result line of one perfbench run."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    record = next(json.loads(ln[len("run record: "):]) for ln in lines if ln.startswith("run record: "))
    result = json.loads(lines[-1])
    return {
        "record": record,
        "correct": bool(result["correct"]),
        "failed": int(result["failed"]),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_output(proc.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            name = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        name = platform.processor() or "unknown"
    return f"{name} ({os.cpu_count()} cores)"


def machine(record: dict) -> dict:
    threads = {v for v in record.get("threads", {}).values() if v is not None}
    return {
        "nproc": record["nproc"],
        "cpu": cpu_model(),
        "python": record["python"],
        "numpy": record["numpy"],
        "blas_threads": int(threads.pop()) if len(threads) == 1 else sorted(threads),
    }


def bench(log: list[dict], args, metrics: list[dict]) -> dict:
    jobs: dict[str, list[dict]] = {}
    traced: dict[str, list[dict]] = {}
    for r in log:
        (traced if r.get("trace") else jobs).setdefault(f"{r['workload']}/seed{r['seed']}", []).append(r)
    first = {s: next((r["record"] for r in log if r["side"] == s), {}) for s in SIDES}
    return {
        "pr": args.pr,
        "claim": args.claim,
        "parent_commit": first["parent"].get("commit"),
        "change_commit": first["change"].get("commit"),
        "machine": machine(first["change"] or first["parent"]) if log else {},
        "method": (f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 in both "
                   "checkouts, written by tools/bench_pairs.py; parent and change alternate which runs first "
                   "in each pair; 'won' counts pairs where the change reads better; quartiles are inclusive "
                   "over the runs of each side; a 'traced' entry comes from --seconds 0 --trace 1 pairs"),
        "notes": {},
        "workloads": {name: {**(summarize_job(jobs[name], metrics) if name in jobs else {}),
                             **({"traced": summarize_traced(traced[name])} if name in traced else {})}
                      for name in {**jobs, **traced}},
    }


def load_log(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def write_bench(path: str, data: dict):
    if os.path.exists(path):  # keep notes and extra sections written by hand
        with open(path) as fh:
            old = json.load(fh)
        data["notes"] = old.get("notes") or data["notes"]
        for key, value in old.items():
            data.setdefault(key, value)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def end_to_end_metrics(checkout: str) -> list[dict]:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def parse_job(text: str) -> tuple[str, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"job {text!r} is not WORKLOAD:SEED")
    return parts[0], int(parts[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--job", action="append", default=[], help="WORKLOAD:SEED, repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", type=int, default=0, help="traced pairs per job after the untraced ones")
    ap.add_argument("--claim", default="")
    ap.add_argument("--log", required=True, help="JSON-lines log of every run (appended)")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    args = ap.parse_args(argv)

    metrics = end_to_end_metrics(args.change)
    log = load_log(args.log)
    for workload, seed in map(parse_job, args.job):
        done = {(r["side"], r["pair"], r.get("trace", 0))
                for r in log if (r["workload"], r["seed"]) == (workload, seed)}
        for trace, k in [(0, k) for k in range(args.pairs)] + [(1, k) for k in range(args.traced)]:
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                if (side, k, trace) in done:
                    continue
                if trace:
                    out = {**run_once(getattr(args, side), workload, seed, 0, trace=1), "trace": 1}
                else:
                    out = run_once(getattr(args, side), workload, seed, args.seconds)
                entry = {"workload": workload, "seed": seed, "side": side, "pair": k, **out}
                log.append(entry)
                with open(args.log, "a") as fh:
                    fh.write(json.dumps(entry) + "\n")
            write_bench(args.out, bench(log, args, metrics))
    write_bench(args.out, bench(log, args, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
