"""The four benchmark workloads: inputs from a seed, one pass of the
workload body, and the checks on its outputs.

A pass returns ``(outputs, attempted, failed)``.  ``outputs`` is plain
JSON data, the same on every pass of a run; ``attempted`` counts the
operations the pass started and ``failed`` those that raised
``PreconditionError``/``UnderResolvedError`` or whose CLI exit code was
not 0.  ``item(i)`` is a context manager supplied by the harness that
times item ``i`` (one gauge, or one scenario) and tags its spans.

Tolerances come from the acceptance suite (``tests/test_acceptance.py``);
exact counts are compared with ``reference.json``, recorded at its seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from worldsheet import catalog, cli, singular, surface
from worldsheet.errors import PreconditionError, UnderResolvedError

OPERATION_ERRORS = (PreconditionError, UnderResolvedError)
CENSUS_GAUGES = 8
SING_STAR_KINDS = ("yes", "no", "undetermined")


# --------------------------------------------------------------------------
# planar_census: library calls, one item per random planar gauge

def census_inputs(seed):
    return {"gauge_seeds": list(range(CENSUS_GAUGES * seed,
                                      CENSUS_GAUGES * seed + CENSUS_GAUGES))}


def _census_gauge(gauge_seed):
    """One gauge through build, detection, classification and residuals,
    called the way ``cli._task_detect`` and acceptance criterion 1 call
    them.  Returns (output row, attempted, failed)."""
    row = {"seed": gauge_seed}
    attempted = failed = 0
    try:
        attempted += 1
        g = catalog.random_planar_gauge(seed=gauge_seed)
        row["bake_nodes"] = g.metadata.get("baked_nodes")
        attempted += 1
        rep = singular.find_antipodal_pairs(g, grid_n=cli.DEFAULT_GRID)
    except OPERATION_ERRORS:
        return row, attempted, failed + 1
    row["empty"] = rep.empty
    row["components"] = len(rep.components)
    tally = Counter()
    for comp in rep.components:
        attempted += 1
        try:
            cc = singular.classify_sing_star(g, comp, grid_n=cli.DEFAULT_GRID)
        except OPERATION_ERRORS:
            failed += 1
            tally["failed"] += 1
            continue
        tally[cc.sing_star] += 1
    row["sing_star"] = {k: tally[k] for k in SING_STAR_KINDS + ("failed",)}
    try:
        attempted += 1
        res = surface.constraint_residuals(g, n_t=200, n_x=200, h=1e-3,
                                           wave_grid=24)
    except OPERATION_ERRORS:
        return row, attempted, failed + 1
    row["gauge_residual"] = res.gauge_residual
    row["ortho_residual"] = res.ortho_residual
    row["wave_ratio"] = res.wave_ratio
    return row, attempted, failed


def census_pass(inputs, out_dir, item):
    rows = []
    attempted = failed = 0
    for i, gauge_seed in enumerate(inputs["gauge_seeds"]):
        with item(i):
            row, a, f = _census_gauge(gauge_seed)
        rows.append(row)
        attempted += a
        failed += f
    return {"gauges": rows}, attempted, failed


def census_counts(outputs):
    rows = outputs["gauges"]
    return {
        "components": [r.get("components") for r in rows],
        "sing_star": {k: sum(r.get("sing_star", {}).get(k, 0) for r in rows)
                      for k in SING_STAR_KINDS},
        "failed_classifications": sum(r.get("sing_star", {}).get("failed", 0)
                                      for r in rows),
    }


def census_check(outputs):
    errors = []
    for r in outputs["gauges"]:
        tag = f"gauge seed {r['seed']}"
        if r.get("empty", True):
            errors.append(f"{tag}: no antipodal pairs found")
        if "wave_ratio" not in r:
            errors.append(f"{tag}: residuals missing")
            continue
        if r["gauge_residual"] > 1e-9 or r["ortho_residual"] > 1e-9:
            errors.append(f"{tag}: constraint residual above 1e-9")
        if not 3.5 <= r["wave_ratio"] <= 4.5:
            errors.append(f"{tag}: wave ratio {r['wave_ratio']:.3f} "
                          f"outside [3.5, 4.5]")
    return errors


# --------------------------------------------------------------------------
# CLI workloads: one item per ``cli.run_scenario`` call

def smooth_inputs(seed):
    return [
        {"name": "hopf-probe", "task": "probe", "builder": {"name": "hopf"},
         "seed": seed, "params": {"epsilon": 0.05, "trials": 50}},
        {"name": "hopf-diagram", "task": "diagram",
         "builder": {"name": "hopf"}, "params": {"samples": 1024}},
        {"name": "meridian-loops-diagram", "task": "diagram",
         "builder": {"name": "meridian_loops"}, "params": {"samples": 1024}},
    ]


def nonuniq_inputs(seed):
    return [{"name": "nonuniqueness-pair", "task": "nonuniq",
             "params": {"variant": "pair", "coincidence_times": 4}}]


def cantor_inputs(seed):
    return [{"name": "cantor-k1-dimension", "task": "dimension",
             "builder": {"name": "cantor", "k": 1, "m": 8, "depth": 8}}]


def scenario_pass(scenarios, out_dir, item):
    """Run each scenario through ``cli.run_scenario``; outputs are the exit
    codes, the parsed reports and the SHA-256 of each report.json."""
    codes, reports, digests = [], [], []
    for i, scenario in enumerate(scenarios):
        sdir = os.path.join(out_dir, scenario["name"])
        with item(i):
            code = cli.run_scenario(scenario, sdir)
        with open(os.path.join(sdir, "report.json"), "rb") as fh:
            raw = fh.read()
        codes.append(code)
        reports.append(json.loads(raw))
        digests.append(hashlib.sha256(raw).hexdigest())
    failed = sum(code != 0 for code in codes)
    return ({"codes": codes, "reports": reports, "report_sha256": digests},
            len(scenarios), failed)


def _codes_ok(outputs):
    return [f"{r.get('name')}: exit code {c}"
            for c, r in zip(outputs["codes"], outputs["reports"]) if c != 0]


def smooth_check(outputs):
    errors = _codes_ok(outputs)
    probe, hopf, meridian = outputs["reports"]
    if probe.get("outcomes") != {"smooth": 50, "singular": 0}:
        errors.append(f"probe outcomes {probe.get('outcomes')}, "
                      f"expected 50/50 smooth")
    if abs(hopf.get("linking", {}).get("value", 0)) != 1:
        errors.append(f"hopf linking {hopf.get('linking')}, expected |1|")
    if meridian.get("winding") != 0:
        errors.append(f"meridian-loops winding {meridian.get('winding')}, "
                      f"expected 0")
    return errors


def smooth_counts(outputs):
    probe = outputs["reports"][0]
    return {"outcomes": probe.get("outcomes"),
            "discarded": probe.get("discarded")}


def nonuniq_check(outputs):
    errors = _codes_ok(outputs)
    rep = outputs["reports"][0]
    delta = rep.get("delta")
    rows = rep.get("distances", [])
    for row in rows:
        t, d = row["t"], row["slice_distance"]
        if t <= delta and d > 1e-6:
            errors.append(f"slices at t={t:.4f} differ by {d:.2e} > 1e-6")
        if t == 0.5 and d < 0.01:
            errors.append(f"split at t=1/2 is {d:.4f} < 0.01")
    if not any(row["t"] == 0.5 for row in rows):
        errors.append("no split row at t=1/2")
    return errors


def nonuniq_counts(outputs):
    return {"rows": len(outputs["reports"][0].get("distances", []))}


def cantor_check(outputs):
    errors = _codes_ok(outputs)
    rep = outputs["reports"][0]
    slope, r2 = rep.get("slope", float("nan")), rep.get("r2", float("nan"))
    if not 1.75 <= slope <= 2.05:
        errors.append(f"slope {slope:.4f} outside [1.75, 2.05]")
    if not r2 >= 0.98:
        errors.append(f"r2 {r2:.4f} below 0.98")
    return errors


def cantor_counts(outputs):
    rep = outputs["reports"][0]
    return {"counts": rep.get("counts"), "n_points": rep.get("n_points")}


# name -> (make inputs, one pass, output check, exact counts)
WORKLOADS = {
    "planar_census": (census_inputs, census_pass, census_check, census_counts),
    "smooth_probe": (smooth_inputs, scenario_pass, smooth_check, smooth_counts),
    "nonuniq_slices": (nonuniq_inputs, scenario_pass, nonuniq_check,
                       nonuniq_counts),
    "cantor_dimension": (cantor_inputs, scenario_pass, cantor_check,
                         cantor_counts),
}


def make_inputs(name, seed):
    return WORKLOADS[name][0](seed)


def check(name, outputs, reference=None):
    """Output check of one pass; with a reference, the exact counts must
    match it too.  Returns the list of failures (empty when correct)."""
    _, _, tolerance_check, counts = WORKLOADS[name]
    errors = tolerance_check(outputs)
    if reference is not None:
        got = counts(outputs)
        if got != reference:
            errors.append(f"exact counts {got} differ from reference "
                          f"{reference}")
    return errors
