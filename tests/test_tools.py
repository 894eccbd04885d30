import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import bench_collect  # noqa: E402
import bench_pairs  # noqa: E402
import line_trace  # noqa: E402
import scenario_digests  # noqa: E402


def _result(path, workload, commit, trace, run_s, seed=0):
    os.makedirs(path)
    env = {"workload": workload, "seed": seed, "seconds": 25, "trace": trace,
           "passes": 4, "nproc": 2, "numpy": "2.0", "commit": commit}
    metrics = {"run_s": run_s, "setup_s": 0.3, "peak_rss_mb": 100.0}
    result = {"correct": True, "attempted": 3, "failed": 1,
              "metrics": {k: {"value": v} for k, v in metrics.items()}}
    with open(os.path.join(path, "result.json"), "w") as fh:
        json.dump({"environment": env, "result": result}, fh)


def test_bench_collect_keeps_untraced_runs_of_one_commit(tmp_path):
    _result(tmp_path / "a" / "census-1", "planar_census", "c1", 0, 1.0)
    _result(tmp_path / "a" / "census-2", "planar_census", "c1", 0, 3.0)
    _result(tmp_path / "a" / "census-3", "planar_census", "c1", 0, 2.0)
    _result(tmp_path / "a" / "traced", "planar_census", "c1", 1, 9.0)
    _result(tmp_path / "b" / "other", "planar_census", "c2", 0, 9.0)
    _result(tmp_path / "b" / "probe", "smooth_probe", "c1", 0, 0.5)
    doc = bench_collect.collect("c1", [tmp_path / "a", tmp_path / "b"])
    census = doc["workloads"]["planar_census"]
    assert [r["run_s"] for r in census["runs"]] == [1.0, 3.0, 2.0]
    assert census["median"]["run_s"] == 2.0
    assert census["runs"][0]["failed"] == 1
    assert doc["workloads"]["smooth_probe"]["median"]["run_s"] == 0.5
    assert doc["environment"] == {"seconds": 25, "trace": 0, "nproc": 2,
                                  "numpy": "2.0", "commit": "c1"}
    with pytest.raises(SystemExit):
        bench_collect.collect("c3", [tmp_path])
    # a median must not mix seeds
    _result(tmp_path / "c" / "census-seed1", "planar_census", "c1", 0, 4.0,
            seed=1)
    _result(tmp_path / "c" / "census-seed7", "planar_census", "c1", 0, 4.0,
            seed=7)
    with pytest.raises(SystemExit, match="planar_census have different "
                                         "seeds 0, 1, 7"):
        bench_collect.collect("c1", [tmp_path / "a", tmp_path / "c"])


def _run(exit_code, correct, run_s, rss):
    metrics = {"run_s": run_s, "peak_rss_mb": rss}
    return {"exit": exit_code, "result": {
        "correct": correct, "metrics": {k: {"value": v}
                                        for k, v in metrics.items()}}}


def test_bench_pairs_summary():
    end_to_end = [{"name": "run_s", "unit": "s", "better": "lower",
                   "bound": 0.25},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
                   "bound": 0.05}]
    # run_s: the change wins pairs 0-2, ties pair 3 and loses pair 4;
    # peak_rss_mb: the change is 10% higher in every pair
    parent_s, change_s = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 2.5, 4.0, 6.0]
    pairs = [{"parent": _run(0, True, p, 100.0),
              "change": _run(0, True, c, 110.0)}
             for p, c in zip(parent_s, change_s)]
    pairs[1]["change"] = _run(1, False, 1.5, 110.0)
    pairs.append({"parent": _run(0, True, 3.0, 100.0),
                  "change": {"exit": 1, "result": None}})
    rows, flags = bench_pairs.summarize(pairs, end_to_end)
    run_s, rss = rows
    assert (run_s["parent_q1"], run_s["parent_median"],
            run_s["parent_q3"]) == (2.25, 3.0, 3.75)
    assert run_s["change_median"] == 2.5
    assert run_s["relative"] == pytest.approx(-1.0 / 6.0)
    assert (run_s["won"], run_s["pairs"], run_s["within"]) == (3, 6, True)
    assert rss["relative"] == pytest.approx(0.1)
    assert (rss["won"], rss["within"]) == (0, False)
    assert flags == ["pair 1 change: exit 1, correct False",
                     "pair 5 change: exit 1, correct False"]
    assert "OUTSIDE bound 0.05" in bench_pairs.format_rows(rows)[1]


def test_bench_pairs_all_runs_every_workload_in_order(monkeypatch, capsys):
    with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    calls = []

    def fake_run_once(command, checkout, workload, seed, seconds, pair):
        calls.append((os.path.basename(checkout), workload))
        value = 1.0 if os.path.basename(checkout) == "parent" else 0.9
        return {"exit": 0, "result": {"correct": True, "metrics": {
            k: {"value": value} for k in ("run_s", "setup_s", "peak_rss_mb")}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main(["parent", "change", "--workload", "all",
                             "--pairs", "2", "--seconds", "1"]) == 0
    # each pair runs every workload in BENCHMARK.json's order; even pairs
    # run the parent first, odd pairs the change
    assert calls == ([(side, w) for w in workloads
                      for side in ("parent", "change")]
                     + [(side, w) for w in workloads
                        for side in ("change", "parent")])
    heads = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()
             if line.endswith("2 pairs, 1 s runs")]
    assert heads == workloads


def test_bench_pairs_run_once_keeps_each_result(tmp_path, monkeypatch):
    # a fake benchmark run writes result.json and prints the result line,
    # as perfbench/run.py does; no process starts
    def fake_run(args, cwd, capture_output, text):
        run_dir = os.path.join(cwd, ".perfbench_out", "smooth_probe-seed3-trace0")
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "result.json"), "w") as fh:
            fh.write('{"pass": %d}' % len(calls))
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout='env\n{"correct": true}\n')

    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for pair in range(2):
        run = bench_pairs.run_once(["run"], str(tmp_path), "smooth_probe", 3,
                                   1.0, pair)
        assert run == {"exit": 0, "result": {"correct": True}}
    assert calls[0] == ["run", "--workload", "smooth_probe", "--seed", "3",
                        "--seconds", "1.0", "--trace", "0"]
    kept = tmp_path / ".perfbench_out" / "pairs"
    assert [(kept / f"smooth_probe-seed3-pair{i}" / "result.json").read_text()
            for i in range(2)] == ['{"pass": 0}', '{"pass": 1}']
    # moved, not copied: tools/bench_collect.py reads each run once
    assert not (tmp_path / ".perfbench_out" / "smooth_probe-seed3-trace0"
                / "result.json").exists()


def test_workload_digests_hash_one_pass_per_seed():
    # nonuniq_slices ignores its seed, so both passes hash alike
    digests = scenario_digests.workload_digests(["nonuniq_slices"])
    assert [name for _, name, _ in digests] == ["nonuniq_slices/seed0",
                                                "nonuniq_slices/seed1"]
    assert digests[0][0] == digests[1][0]
    assert len(digests[0][0]) == 64 and int(digests[0][0], 16) >= 0
    # the exact counts of the pass are printed beside its digest
    assert [json.loads(counts) for _, _, counts in digests] == [
        {"rows": 5, "attempted": 1, "failed": 0}] * 2


SMALL_MODULE = """\
def used(x):
    if x > 0:
        return x
    raise ValueError(x)


def unused():
    return [
        1,
    ]


class Box:
    def get(self):
        return 1
"""


def test_line_trace_lists_lines_no_process_ran(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "small.py").write_text(SMALL_MODULE)
    assert line_trace.executable_lines(str(pkg / "small.py")) == {
        1, 2, 3, 4, 7, 8, 9, 13, 14, 15}
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    status, missed = line_trace.trace_run(
        [sys.executable, "-c", "import pkg.small as m; m.used(1)"],
        str(pkg), env)
    assert status == 0
    assert missed == {str(pkg / "small.py"): [4, 8, 9, 15]}
