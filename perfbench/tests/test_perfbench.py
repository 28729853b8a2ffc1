"""Tests of the benchmark itself (not of hopfsplit).

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import flagship, rational, taft_cli  # noqa: E402
from perfbench.jobs import ACCEPT, REJECT  # noqa: E402
from perfbench.trace import BUSY_NAMES, ENTRY_POINTS, SPAN_NAMES, Tracer  # noqa: E402


def test_self_time_of_nested_spans():
    tr = Tracer()
    # HopfObject.validate -> BialgebraObject.validate (same name) -> algebra
    root = tr.record_span("hopf.validate", 0.0, 10.0)
    inner = tr.record_span("hopf.validate", 1.0, 8.0, parent=root)
    tr.record_span("algebra.validate", 2.0, 5.0, parent=inner)
    tr.record_span("hopf.check_antipode", 8.0, 9.5, parent=root)
    tr.record_span("cli.main", 20.0, 21.0, job=1)
    assert tr.self_times() == [1.5, 4.0, 3.0, 1.5, 1.0]
    m = tr.layer_metrics()
    assert m["hopf.validate.calls"] == 2
    assert m["hopf.validate.self_s"] == 5.5
    assert m["algebra.validate.self_s"] == 3.0
    assert m["linalg.rref.calls"] == 0
    assert tr.root_cover() == {0: 10.0, 1: 1.0}


def test_busy_counts_outermost_spans_once():
    tr = Tracer()
    # split_coradical runs split_radical on the dual: nested same-name spans
    outer = tr.record_span("pipeline.split", 0.0, 10.0)
    tr.record_span("pipeline.split", 2.0, 9.0, parent=outer)
    tr.record_span("pipeline.split", 11.0, 12.0)
    m = tr.layer_metrics()
    assert m["pipeline.split.busy_s"] == 11.0
    assert m["pipeline.split.self_s"] == 11.0
    assert m["pipeline.split.calls"] == 3


def test_real_wrappers_nest_and_conserve_time(tmp_path):
    from hopfsplit import builtin, fields

    h = builtin.group_algebra(3, fields.QQ)
    tr = Tracer()
    tr.install()
    try:
        tr.job = 0
        h.validate()
        tr.job = None
    finally:
        tr.uninstall()
    names = [tr.names[i] for i in tr.name_id]
    assert names[:2] == ["hopf.validate", "hopf.validate"]
    assert tr.parent[1] == 0 and tr.parent[0] == -1
    assert "algebra.validate" in names and "hopf.check_antipode" in names
    selfs = tr.self_times()
    assert min(selfs) >= 0
    # self times partition the root spans
    assert sum(selfs) == pytest.approx(tr.root_cover()[0], rel=1e-9, abs=1e-12)
    tr.write_spans(tmp_path / "spans.jsonl", {0: "job"})
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert rows[0][0] == "hopf.validate" and rows[0][4] == "job"


def _bindings():
    """Every function or method object reachable from a hopfsplit module."""
    import importlib
    import pkgutil

    import hopfsplit

    out = {}
    for info in pkgutil.iter_modules(hopfsplit.__path__):
        mod = importlib.import_module(f"hopfsplit.{info.name}")
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
            if isinstance(val, type):
                for meth, raw in vars(val).items():
                    out[(mod.__name__, key, meth)] = raw
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    tr = Tracer()
    assert tr.install() >= len(ENTRY_POINTS)
    assert _bindings() != before
    tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.leftovers() == []


def test_no_spans_outside_jobs():
    from hopfsplit import fields, linalg

    tr = Tracer()
    tr.install()
    try:
        linalg.Matrix.identity(fields.QQ, 2).rref()
    finally:
        tr.uninstall()
    assert len(tr.start) == 0


@pytest.mark.parametrize("mod", [flagship, taft_cli, rational])
def test_same_seed_same_jobs(mod, tmp_path):
    def snapshot(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        inp = mod.make_inputs(seed, str(d))
        names = [(j.name, j.kind) for j in mod.make_jobs(inp)]
        files = {p.name: p.read_text() for p in sorted(d.iterdir())}
        return names, _describe(inp), files

    assert snapshot(3, "a") == snapshot(3, "b")


def _describe(inp):
    """Seed-dependent content of a workload's inputs, comparable with ==."""
    if "lam" in inp:
        return inp["lam"], inp["a"], inp["c0"].basis.to_rows()
    if "primes" in inp:
        return inp["primes"]
    return [(name, sorted((k, sorted(v.items())) for k, v in actx.algebra.mul.items()))
            for name, actx, *_ in inp["hh"]]


def test_seeds_change_the_inputs(tmp_path):
    assert {tuple(taft_cli.pick_primes(s).values()) for s in range(5)} != {tuple(taft_cli.pick_primes(0).values())}
    assert len({(flagship.make_inputs(s, "")["lam"], flagship.make_inputs(s, "")["a"]) for s in range(8)}) > 1
    assert _describe(rational.make_inputs(1, "")) != _describe(rational.make_inputs(2, ""))


def test_taft_sizes_and_primes():
    dims = [n * n for n in taft_cli.N_VALUES]
    assert min(dims) <= 12 < max(dims)
    for seed in range(20):
        for n, p in taft_cli.pick_primes(seed).items():
            assert n * n < p < 2**15 and p % n == 1 and taft_cli._is_prime(p)


def test_taft_jobs_carry_their_exit_codes(tmp_path):
    jobs = taft_cli.make_jobs(taft_cli.make_inputs(0, str(tmp_path)))
    rejects = [j for j in jobs if j.kind == REJECT]
    assert len({j.name for j in rejects}) == 7 * len(taft_cli.N_VALUES)
    for job in jobs:
        wrong = 0 if job.kind == REJECT else 1
        problems, digest = job.check((wrong, "", ""))
        want = 1 if job.kind == REJECT else 0
        assert digest is None and problems == [f"exit {wrong}, expected {want}; stderr: "], job.name


def test_repeated_jobs_count_once_at_their_median():
    from perfbench import run
    from perfbench.jobs import Outcome

    outcomes = [Outcome("a", ACCEPT, 2.0), Outcome("r", REJECT, 1.0), Outcome("s", REJECT, 0.5),
                Outcome("r", REJECT, 9.0), Outcome("a2", ACCEPT, 1.0), Outcome("r", REJECT, 2.0)]
    assert run.summarize(9.0, outcomes) == {"wall_s": 9.0, "accept_s": 3.0, "reject_s": 2.5}


def test_flagship_and_taft_repeat_every_rejection(tmp_path):
    for mod, rounds in ((flagship, 3), (taft_cli, taft_cli.REJECT_ROUNDS)):
        jobs = mod.make_jobs(mod.make_inputs(0, str(tmp_path)))
        rejects = [j.name for j in jobs if j.kind == REJECT]
        assert all(rejects.count(name) == rounds for name in rejects), mod.__name__
        accepts = [j.name for j in jobs if j.kind == ACCEPT]
        assert len(accepts) == len(set(accepts)), mod.__name__


def test_rational_rounds_run_every_rejection_on_fresh_inputs():
    inp = rational.make_inputs(0, "")
    jobs = rational.make_jobs(inp)
    rejects = [j.name for j in jobs if j.kind == REJECT]
    distinct = set(rejects)
    assert len(distinct) == len(rational.NOT_SEPARABLE_K) + len(rational.MUTATIONS)
    assert all(rejects.count(name) == rational.REJECT_ROUNDS for name in distinct)
    assert [j.name for j in jobs[:len(distinct)]] == rejects[:len(distinct)]
    assert jobs[-1].kind == REJECT
    rounds = inp["rounds"]
    assert len({id(r["ut"][5]) for r in rounds}) == len({id(r["mutants"][0][0]) for r in rounds}) == len(rounds)


def test_each_workload_has_both_kinds(tmp_path):
    for mod in (flagship, taft_cli, rational):
        kinds = {j.kind for j in mod.make_jobs(mod.make_inputs(0, str(tmp_path)))}
        assert kinds == {ACCEPT, REJECT}


def test_benchmark_json_names_match_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    from perfbench import run

    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == set(run.end_to_end([{"wall_s": 1, "accept_s": 1, "reject_s": 1}], [1]))
    layer = set(Tracer().layer_metrics()) | {"trace.untraced_wall_s", "trace.traced_wall_s",
                                             "trace.overhead_frac", "trace.coverage_min"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    assert all(m["unit"] == run.per_layer_units(m["name"]) for m in bench["per_layer"])
    units = {k: v["unit"] for k, v in run.end_to_end([{"wall_s": 1, "accept_s": 1, "reject_s": 1}], [1]).items()}
    assert all(m["unit"] == units[m["name"]] for m in bench["end_to_end"])
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert all(f"{n}.busy_s" in layer for n in BUSY_NAMES)
    assert all(f"{n}.self_s" in layer for n in SPAN_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rational_q", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
