"""Run alternating parent/change benchmark pairs of one workload and compare.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        [--seed 0] [--pairs 10] [--seconds 25]

Each pair runs the benchmark command of ``BENCHMARK.json`` (``python3
perfbench/run.py --workload W --seed S --seconds T --trace 0``) once in
each checkout, one process at a time; even pairs run the parent first,
odd pairs the change.  Prints every run's end-to-end metrics, then for
each end-to-end metric of ``BENCHMARK.json``: the parent median with its
quartiles [q1, q3], the change median, the relative change, the pairs
the change won (ties count for neither side), and whether the change
median is within the metric's ``bound`` of the parent median.  Every
run with a nonzero exit or ``correct`` false is flagged.  Nothing is
written; the runs' own outputs go to each checkout's ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_once(command, checkout, workload, seed, seconds):
    """{"exit", "result"} of one benchmark run in ``checkout``; result is
    the JSON object of its last stdout line, or None."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result}


def _value(run, name):
    res = run["result"]
    return None if res is None else res["metrics"][name]["value"]


def summarize(pairs, end_to_end):
    """(rows, flags) of a list of {"parent": run, "change": run} pairs.

    One row per metric of ``end_to_end`` (BENCHMARK.json's list): the
    parent median and quartiles, the change median, the relative change,
    the pairs won by the change, and whether its median is within the
    bound.  flags names each run that exited nonzero or was not correct.
    """
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        vals = {side: [_value(p[side], name) for p in pairs] for side in SIDES}
        won = sum(1 for p, c in zip(vals["parent"], vals["change"])
                  if p is not None and c is not None and sign * (c - p) < 0)
        parent = [v for v in vals["parent"] if v is not None]
        change = [v for v in vals["change"] if v is not None]
        if not parent or not change:
            rows.append({"name": name, "unit": metric["unit"], "won": won,
                         "pairs": len(pairs), "within": False})
            continue
        q1, med, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                       if len(parent) > 1 else [parent[0]] * 3)
        cmed = statistics.median(change)
        rel = (cmed - med) / med
        rows.append({"name": name, "unit": metric["unit"],
                     "parent_median": med, "parent_q1": q1, "parent_q3": q3,
                     "change_median": cmed, "relative": rel, "won": won,
                     "pairs": len(pairs), "bound": metric["bound"],
                     "within": sign * rel <= metric["bound"]})
    flags = []
    for i, pair in enumerate(pairs):
        for side in SIDES:
            run = pair[side]
            correct = run["result"] is not None and run["result"]["correct"]
            if run["exit"] != 0 or not correct:
                flags.append(f"pair {i} {side}: exit {run['exit']}, "
                             f"correct {correct}")
    return rows, flags


def format_rows(rows):
    out = []
    for r in rows:
        if "parent_median" not in r:
            out.append(f"{r['name']}: no result on one side")
            continue
        out.append(
            f"{r['name']}: parent {r['parent_median']:.4g} "
            f"[{r['parent_q1']:.4g}, {r['parent_q3']:.4g}] -> change "
            f"{r['change_median']:.4g} {r['unit']} ({100 * r['relative']:+.1f}%), "
            f"change won {r['won']}/{r['pairs']}, "
            f"{'within' if r['within'] else 'OUTSIDE'} bound {r['bound']:g}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    names = [m["name"] for m in bench["end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run_once(bench["command"], dirs[side], args.workload,
                                  args.seed, args.seconds)
            vals = ", ".join(f"{n} {_value(pair[side], n)}" for n in names)
            print(f"pair {i} {side}: exit {pair[side]['exit']}, {vals}",
                  flush=True)
        pairs.append(pair)
    rows, flags = summarize(pairs, bench["end_to_end"])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{args.seconds:g} s runs")
    print("\n".join(format_rows(rows) + [f"FLAG {f}" for f in flags]))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
