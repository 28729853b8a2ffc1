"""tools/bench_pairs.py: quartiles, won counts and pair alternation on
canned perfbench records."""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "accept_s", "better": "lower"}, {"name": "rank_ratio", "better": "higher"}]


def test_quartiles_are_inclusive():
    # sorted 1, 2, 4, 8, 16: q1 at position 1 (2), median 4, q3 at 3 (8)
    assert bench_pairs.quartiles([16, 1, 8, 2, 4]) == {"median": 4, "q1": 2, "q3": 8}
    # four runs: positions 0.75, 1.5 and 2.25 between 1, 2, 3, 10
    assert bench_pairs.quartiles([3, 1, 10, 2]) == {"median": 2.5, "q1": 1.75, "q3": 4.75}
    assert bench_pairs.quartiles([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    # parent setup_s of flagship_f7 seed 0 in BENCH_16.json
    runs = [0.232, 0.2201, 0.1743, 0.1967, 0.2504, 0.1689, 0.2375, 0.2504, 0.2138, 0.2224]
    got = bench_pairs.quartiles(runs)
    assert (got["q1"], got["q3"]) == (0.201, 0.2361)


def test_won_counts_strictly_better_pairs_by_direction():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 3.9]
    assert bench_pairs.won(parent, change, "lower") == 2
    assert bench_pairs.won(parent, change, "higher") == 1
    # setup_s of flagship_f7 seed 0 in BENCH_16.json: won 5
    p = [0.232, 0.2201, 0.1743, 0.1967, 0.2504, 0.1689, 0.2375, 0.2504, 0.2138, 0.2224]
    c = [0.2543, 0.1977, 0.2107, 0.2253, 0.2298, 0.2184, 0.2117, 0.2296, 0.2364, 0.1973]
    assert bench_pairs.won(p, c, "lower") == 5


def test_claim_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_parent_iqr():
    lower = {"name": "accept_s", "better": "lower"}
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.2, IQR 1.1 to 1.3
    # 9 of 10 pairs won, median 0.9: a gap of 0.3 against an IQR of 0.2
    change = [0.7, 0.8, 0.9, 1.0, 1.5, 0.7, 0.8, 0.9, 1.0, 0.9]
    assert bench_pairs.verdicts(parent, change, lower)["claim_met"] is True
    # 7 of 10 pairs won
    assert bench_pairs.verdicts(parent, change[:8] + [1.5, 1.5], lower)["claim_met"] is False
    # 10 of 10 pairs won, but the medians are 0.05 apart against an IQR of 0.2
    assert bench_pairs.verdicts(parent, [x - 0.05 for x in parent], lower)["claim_met"] is False
    # a higher-is-better metric reads the other way
    higher = {"name": "rank_ratio", "better": "higher"}
    assert bench_pairs.verdicts(change, parent, higher)["claim_met"] is True
    assert bench_pairs.verdicts(parent, change, higher)["claim_met"] is False


def test_within_bound_is_relative_to_the_parent_median_by_direction():
    parent = [1.0] * 10
    lower = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    assert bench_pairs.verdicts(parent, [1.09] * 10, lower)["within_bound"] is True
    assert bench_pairs.verdicts(parent, [1.11] * 10, lower)["within_bound"] is False
    higher = {"name": "rank_ratio", "better": "higher", "bound": 0.1}
    assert bench_pairs.verdicts(parent, [0.91] * 10, higher)["within_bound"] is True
    assert bench_pairs.verdicts(parent, [0.89] * 10, higher)["within_bound"] is False
    # no bound declared: no verdict
    assert bench_pairs.verdicts(parent, [5.0] * 10, {"name": "x", "better": "lower"})["within_bound"] is None


def _record(side, pair, accept, ratio, correct=True, failed=0):
    return {"workload": "w", "seed": 0, "side": side, "pair": pair, "correct": correct, "failed": failed,
            "record": {}, "metrics": {"accept_s": accept, "rank_ratio": ratio}}


def test_summary_pairs_runs_by_pair_and_drops_unpaired_runs():
    recs = [_record("parent", 0, 1.0, 0.5), _record("change", 0, 0.8, 0.4),
            _record("change", 1, 0.7, 0.6), _record("parent", 1, 1.2, 0.5, failed=1, correct=False),
            _record("parent", 2, 9.0, 9.0)]  # pair 2 has no change run yet
    got = bench_pairs.summarize_job(recs, METRICS)
    assert got["pairs"] == 2
    assert got["all_correct"] is False
    assert got["failed"] == {"parent": 1, "change": 0}
    acc = got["end_to_end"]["accept_s"]
    assert acc["parent_runs"] == [1.0, 1.2] and acc["change_runs"] == [0.8, 0.7]
    assert acc["won"] == 2
    assert acc["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15}
    assert (acc["claim_met"], acc["within_bound"]) == (True, None)
    assert got["end_to_end"]["rank_ratio"]["won"] == 1
    assert got["end_to_end"]["rank_ratio"]["claim_met"] is False


def test_pairs_alternate_resume_and_write_the_bench_file(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        calls.append(side)
        accept = 1.0 if side == "parent" else 0.9
        return {"record": {"nproc": 2, "python": "3", "numpy": "2", "threads": {"A": "1", "B": "1"}, "commit": side},
                "correct": True, "failed": 0, "metrics": {"accept_s": accept, "rank_ratio": 0.5}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    log, out = tmp_path / "log.jsonl", tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pr", "3",
            "--job", "w:0", "--pairs", "3", "--log", str(log), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    data = json.loads(out.read_text())
    job = data["workloads"]["w/seed0"]
    assert job["pairs"] == 3 and job["all_correct"] is True
    assert job["end_to_end"]["accept_s"]["won"] == 3
    assert data["machine"]["blas_threads"] == 1
    assert (data["parent_commit"], data["change_commit"]) == ("parent", "change")
    # a rerun with the same log runs nothing more; notes written by hand stay
    data["notes"] = {"claim": "kept"}
    out.write_text(json.dumps(data))
    calls.clear()
    assert bench_pairs.main(argv) == 0
    assert calls == []
    assert json.loads(out.read_text())["notes"] == {"claim": "kept"}


def test_traced_pairs_alternate_after_the_untraced_ones_and_summarize(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []
    cover = {"parent": [0.96, 0.93], "change": [0.99, 0.98]}

    def fake_run(checkout, workload, seed, seconds, trace=0):
        side = os.path.basename(checkout)
        calls.append((side, seconds, trace))
        if not trace:
            return {"record": {"nproc": 2, "python": "3", "numpy": "2", "threads": {}, "commit": side},
                    "correct": True, "failed": 0, "metrics": {"accept_s": 1.0, "rank_ratio": 0.5}}
        k = sum(1 for s, _, t in calls if s == side and t) - 1
        busy = 0.2 if side == "parent" else 0.1
        return {"record": {}, "correct": cover[side][k] >= 0.95, "failed": int(cover[side][k] < 0.95),
                "metrics": {"builtin.build.busy_s": busy + k, "trace.coverage_min": cover[side][k]}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    log, out = tmp_path / "log.jsonl", tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pr", "3",
            "--job", "w:0", "--pairs", "1", "--traced", "2", "--seconds", "5", "--log", str(log), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # untraced pair 0, then traced pairs 0 and 1 with --seconds 0, alternating who runs first
    assert calls == [("parent", 5.0, 0), ("change", 5.0, 0), ("parent", 0, 1), ("change", 0, 1),
                     ("change", 0, 1), ("parent", 0, 1)]
    job = json.loads(out.read_text())["workloads"]["w/seed0"]
    assert job["pairs"] == 1 and job["end_to_end"]["accept_s"]["parent_runs"] == [1.0]
    traced = job["traced"]
    assert traced["runs"] == {"parent": 2, "change": 2}
    assert traced["coverage_min"] == cover
    assert traced["failed"] == {"parent": [0, 1], "change": [0, 0]}
    assert traced["per_layer"]["builtin.build.busy_s"] == {"parent": 0.7, "change": 0.6}
    # a rerun with the same log runs nothing more
    calls.clear()
    assert bench_pairs.main(argv) == 0
    assert calls == []


def test_parse_output_reads_the_record_and_the_last_line():
    stdout = ("run record: " + json.dumps({"nproc": 2}) + "\n"
              + json.dumps({"correct": False, "attempted": 4, "failed": 1,
                            "metrics": {"accept_s": {"value": 1.5, "unit": "s"}}}) + "\n")
    got = bench_pairs.parse_output(stdout)
    assert got == {"record": {"nproc": 2}, "correct": False, "failed": 1, "metrics": {"accept_s": 1.5}}


def test_bad_job_spec_is_refused():
    assert bench_pairs.parse_job("flagship_f7:1") == ("flagship_f7", 1)
    for bad in ("flagship_f7", "flagship_f7:0:5"):
        with pytest.raises(Exception):
            bench_pairs.parse_job(bad)
