"""Record the golden sha256 digests of every job's output.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Runs one untraced pass of each named workload (all by default) for the
default and the held-out seed, refuses to record if any known-answer check
fails, and rewrites those workloads' entries in perfbench/goldens.json.
Digests are recorded once, at the commit that defines the benchmark; a
later change that alters an output fails its job until the new output is
justified and re-recorded.
"""
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def record(workload: str, seed: int) -> dict:
    tmpdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=run.TMP_DIR)
    try:
        mod, inputs = run.setup(workload, seed, tmpdir)
        _, results = run.run_pass(mod, inputs)
        outcomes = run.check_pass(results, None)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    bad = [f"{o.name}: {'; '.join(o.problems)}" for o in outcomes if o.problems]
    if bad:
        raise SystemExit(f"{workload} seed {seed} fails its known answers:\n" + "\n".join(bad))
    return {o.name: o.digest for o in outcomes}


def main(argv) -> int:
    names = argv or list(run.WORKLOADS)
    unknown = set(names) - set(run.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    run.prepare_environment()
    os.makedirs(run.TMP_DIR, exist_ok=True)
    with open(run.GOLDENS) as fh:
        doc = json.load(fh)
    doc["default_seed"], doc["held_out_seed"] = DEFAULT_SEED, HELD_OUT_SEED
    for name in names:
        doc["digests"][name] = {str(seed): record(name, seed) for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        print(f"recorded {name}", flush=True)
    doc["commit"] = run.git_commit()
    with open(run.GOLDENS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
