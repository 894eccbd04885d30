"""Gather the untraced benchmark runs of one commit into BENCH_<commit>.json.

Reads every ``result.json`` under the given directories (by default the
``.perfbench_out`` of this checkout, searched recursively, so archived
copies of earlier runs count too), keeps the untraced runs (trace 0)
whose environment names the commit, and writes
``BENCH_<first 12 hex digits>.json`` in the current directory:

- ``environment``: the fields every kept run shares (core count, Python,
  numpy, scipy and BLAS versions, run length, commit);
- per workload, each run's ``run_s``, ``setup_s``, ``peak_rss_mb``,
  ``attempted``, ``failed``, ``correct``, seed and pass count, in the
  order of the paths, and the median of each metric.

A workload whose runs have different seeds is refused (exit with a
message naming the seeds), so that no median mixes seeds.

    python tools/bench_collect.py <commit> [dir ...]
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("run_s", "setup_s", "peak_rss_mb")
PER_RUN_ENV = ("workload", "seed", "passes")


def collect(commit, dirs):
    """The BENCH document of the untraced runs of ``commit`` under ``dirs``."""
    runs = []
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "**", "result.json"),
                                     recursive=True)):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            env = doc["environment"]
            if env["trace"] == 0 and env["commit"] == commit:
                runs.append(doc)
    if not runs:
        raise SystemExit(f"no untraced runs of commit {commit} under {dirs}")

    shared = {k: v for k, v in runs[0]["environment"].items()
              if k not in PER_RUN_ENV
              and all(r["environment"].get(k) == v for r in runs)}
    workloads = {}
    for doc in runs:
        env, res = doc["environment"], doc["result"]
        row = {m: res["metrics"][m]["value"] for m in METRICS}
        row.update(attempted=res["attempted"], failed=res["failed"],
                   correct=res["correct"], seed=env["seed"],
                   passes=env["passes"])
        workloads.setdefault(env["workload"], {"runs": []})["runs"].append(row)
    for name, w in workloads.items():
        seeds = sorted({r["seed"] for r in w["runs"]})
        if len(seeds) > 1:
            raise SystemExit(f"runs of {name} have different seeds "
                             f"{', '.join(map(str, seeds))}; pass only the "
                             "directories of one seed's runs")
        w["median"] = {m: statistics.median(r[m] for r in w["runs"])
                       for m in METRICS}
    return {"commit": commit, "environment": shared,
            "workloads": dict(sorted(workloads.items()))}


def main(argv):
    if not argv:
        raise SystemExit(__doc__)
    commit, dirs = argv[0], argv[1:] or [os.path.join(ROOT, ".perfbench_out")]
    doc = collect(commit, dirs)
    path = f"BENCH_{commit[:12]}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
