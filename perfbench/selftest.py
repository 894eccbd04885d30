"""Self-test of the benchmark's checks; needs no workload run.

    python3 perfbench/selftest.py

Outputs built to match ``reference.json`` must pass every check, and
each perturbed reference, or output pushed past a tolerance, must fail.
``BENCHMARK.json`` must name the workloads and per-layer metrics that
the harness produces.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def census_outputs(ref):
    rows = []
    for i, n in enumerate(ref["components"]):
        tally = dict.fromkeys(workloads.SING_STAR_KINDS + ("failed",), 0)
        if i == 0:
            tally.update(ref["sing_star"])
            tally["failed"] = ref["failed_classifications"]
        rows.append({"seed": i, "empty": False, "components": n,
                     "sing_star": tally, "gauge_residual": 1e-12,
                     "ortho_residual": 1e-12, "wave_ratio": 4.0})
    return {"gauges": rows}


def cli_outputs(*reports):
    return {"codes": [0] * len(reports), "reports": list(reports),
            "report_sha256": ["0" * 64] * len(reports)}


def smooth_outputs(ref):
    return cli_outputs(
        {"name": "hopf-probe", "outcomes": dict(ref["outcomes"]),
         "discarded": ref["discarded"]},
        {"name": "hopf-diagram", "linking": {"value": -1}},
        {"name": "meridian-loops-diagram", "winding": 0})


def nonuniq_outputs(ref):
    rows = [{"t": 0.05 * i / 3, "slice_distance": 1e-8} for i in range(4)]
    rows.append({"t": 0.5, "slice_distance": 0.013})
    assert len(rows) == ref["rows"]
    return cli_outputs({"name": "nonuniqueness-pair", "delta": 0.05,
                        "distances": rows})


def cantor_outputs(ref):
    return cli_outputs({"name": "cantor-k1-dimension", "slope": 1.804,
                        "r2": 0.998, "counts": list(ref["counts"]),
                        "n_points": ref["n_points"]})


def _set(path, value):
    """Perturbation setting the item at ``path`` of a nested structure."""
    def apply(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]]) if callable(value) else value
    return apply


CASES = {
    "planar_census": (census_outputs, [
        _set(("components", 3), lambda n: n + 1),
        _set(("sing_star", "yes"), lambda n: n - 1),
        _set(("failed_classifications",), lambda n: n + 1),
    ], [
        _set(("gauges", 2, "wave_ratio"), 4.6),
        _set(("gauges", 0, "ortho_residual"), 2e-9),
        _set(("gauges", 5, "empty"), True),
    ]),
    "smooth_probe": (smooth_outputs, [
        _set(("discarded",), lambda n: n + 1),
    ], [
        _set(("reports", 0, "outcomes", "smooth"), 49),
        _set(("reports", 1, "linking", "value"), 0),
        _set(("reports", 2, "winding"), 1),
        _set(("codes", 1), 3),
    ]),
    "nonuniq_slices": (nonuniq_outputs, [
        _set(("rows",), lambda n: n + 1),
    ], [
        _set(("reports", 0, "distances", 2, "slice_distance"), 2e-6),
        _set(("reports", 0, "distances", 4, "slice_distance"), 0.009),
    ]),
    "cantor_dimension": (cantor_outputs, [
        _set(("counts", 4), lambda n: n + 1),
        _set(("n_points",), lambda n: n - 1),
    ], [
        _set(("reports", 0, "slope"), 2.06),
        _set(("reports", 0, "r2"), 0.97),
        _set(("codes", 0), 2),
    ]),
}


def main():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []

    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOAD_NAMES) or set(names) != set(CASES) \
            or set(names) != set(workloads.WORKLOADS):
        failures.append(f"workload names differ: {names}")
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if layers != [tuple(x) for x in tracing.PER_LAYER]:
        failures.append("BENCHMARK.json per_layer differs from tracing.py")

    for name, (build, ref_perturbations, out_perturbations) in CASES.items():
        ref = reference[name]
        outputs = build(ref)
        errors = workloads.check(name, outputs, ref)
        if errors:
            failures.append(f"{name}: reference outputs fail: {errors}")
        for k, perturb in enumerate(ref_perturbations):
            bad = copy.deepcopy(ref)
            perturb(bad)
            if not workloads.check(name, outputs, bad):
                failures.append(f"{name}: perturbed reference {k} passes")
        for k, perturb in enumerate(out_perturbations):
            bad = copy.deepcopy(outputs)
            perturb(bad)
            if not workloads.check(name, bad):
                failures.append(f"{name}: perturbed output {k} passes")

    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    print(f"selftest passed: {len(CASES)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
