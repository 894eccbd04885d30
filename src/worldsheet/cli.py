"""Scenario-driven command line front end.

A scenario is a JSON file naming a gauge (inline, by builder reference,
or as a couple) and a task; outputs are machine-readable reports and CSV
data.  Reports are byte-stable across reruns with the same seed;
wall-clock metadata lives in a separate file.

Exit codes: 0 success, 1 unknown task or schema violation (a scenario's
``params`` are its task function's keyword arguments, so an unknown key
is one, and so is a top-level key other than ``name``, ``task``, ``seed``,
``params`` and, for a task that builds a gauge, the gauge-spec keys),
2 precondition failure, 3 numerical-reliability flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import constructions, dimension, serialize, singular, surface, topology
from .errors import PreconditionError, UnderResolvedError
from .singular import DEFAULT_GRID


def _task_evolve(g, out, ctx, times=None, count=8, t_max=None, samples=512,
                 surface_grid=None, residuals=False, residual_grid=100,
                 h=1e-3):
    if times is None:
        times = np.linspace(0.0, g.E0 if t_max is None else t_max, count,
                            endpoint=False).tolist()
    slice_xs = np.linspace(0.0, g.E0, samples, endpoint=False)
    summary = []
    for j, t in enumerate(times):
        sl = surface.slice_curve(g, float(t), m=samples)
        radii = np.linalg.norm(sl.points, axis=1)
        serialize.write_csv(
            os.path.join(out, f"slice_{j:03d}.csv"),
            ["x"] + [f"gamma_{i}" for i in range(g.dim)],
            np.column_stack([slice_xs, sl.points]))
        summary.append({"t": float(t), "min_radius": float(radii.min()),
                        "max_radius": float(radii.max()),
                        "closure_gap": sl.closure_gap})
    report = {"task": "evolve", "slices": summary}
    if surface_grid:
        nt, nx = surface_grid
        ts = np.linspace(0.0, g.E0, nt, endpoint=False)
        xs = np.linspace(0.0, g.E0, nx, endpoint=False)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        gm, gx, gt, det = surface._grid_sample(g, tt, xx)
        header = (["t", "x"] + [f"gamma_{i}" for i in range(g.dim)]
                  + [f"gamma_x_{i}" for i in range(g.dim)]
                  + [f"gamma_t_{i}" for i in range(g.dim)]
                  + ["metric_det", "timelike"])
        timelike = (det < -surface.METRIC_DEGENERACY_EPS).astype(np.int64)
        serialize.write_csv(
            os.path.join(out, "surface.csv"), header,
            np.rec.fromarrays([tt.ravel(), xx.ravel(), *gm.T, *gx.T, *gt.T,
                               det, timelike], names=header))
    if residuals:
        rep = surface.constraint_residuals(g, n_t=residual_grid,
                                           n_x=residual_grid, h=h)
        report["residuals"] = {
            "gauge": rep.gauge_residual, "orthogonality": rep.ortho_residual,
            "wave": rep.wave_residual, "wave_ratio": rep.wave_ratio,
            "wave_constant": rep.wave_constant, "h": rep.h}
    return report, 0


def _task_detect(g, out, ctx, classify=True):
    rep = singular.find_antipodal_pairs(g, grid_n=ctx["grid"])
    comps = []
    for comp in rep.components:
        cc = singular.classify_sing_star(g, comp, grid_n=ctx["grid"]) \
            if classify else comp
        first = np.lexsort((comp.sigma, comp.s))[:32]
        rows = zip(comp.s[first].tolist(), comp.sigma[first].tolist(),
                   comp.t[first].tolist(), comp.x[first].tolist(),
                   comp.residual[first].tolist(),
                   comp.points(g)[first].tolist())
        comps.append({
            "kind": comp.kind,
            "sing_star": cc.sing_star,
            "tangent_gap": cc.tangent_gap,
            "slice_times": list(comp.slice_times),
            "n_pairs": len(comp.s),
            "pairs": [{"s": s, "sigma": o, "t": t, "x": x, "residual": r,
                       "point": pt} for s, o, t, x, r, pt in rows],
        })
    report = {"task": "detect", "n_components": len(rep.components),
              "margin": rep.min_grid_residual, "grid_n": rep.grid_n,
              "components": comps,
              "global_immersion": rep.empty}
    return report, 0


def _task_diagram(g, out, ctx, samples=1024):
    d = topology.diagram(g, m=samples)
    header = ["which"] + [f"c_{i}" for i in range(g.dim)]
    which = np.repeat(["a", "mb"], [len(d.curve_a), len(d.curve_mb)])
    serialize.write_csv(
        os.path.join(out, "diagram.csv"), header,
        np.rec.fromarrays([which, *np.vstack([d.curve_a, d.curve_mb]).T],
                          names=header))
    report = {"task": "diagram", "min_distance": d.min_distance,
              "disjoint": d.disjoint, "samples": d.m}
    if d.disjoint and g.dim == 3:
        report["winding"] = topology.winding_number(d)
    if d.disjoint and g.dim == 4:
        lk = topology.linking_number(d)
        report["linking"] = {"value": lk.value, "sign": lk.sign,
                             "integral": lk.integral, "residual": lk.residual}
    return report, 0


def _task_construct(g, out, ctx, samples=4096, csv_samples=1024):
    serialize.write_gauge(os.path.join(out, "gauge.json"), g, samples=samples)
    for label, curve in (("a", g.a), ("b", g.b)):
        xs = np.linspace(0.0, curve.period, csv_samples, endpoint=False)
        pos = curve.position(xs)
        tan = curve.tangent(xs)
        serialize.write_csv(
            os.path.join(out, f"curve_{label}.csv"),
            ["x"] + [f"a_{i}" for i in range(g.dim)]
            + [f"ap_{i}" for i in range(g.dim)],
            np.column_stack([xs, pos, tan]))
    report = {"task": "construct",
              "E0": float(g.E0), "dim": g.dim,
              "a_closure_defect": g.a.closure_defect().defect,
              "b_closure_defect": g.b.closure_defect().defect,
              "periodicity_defect": g.periodicity_defect(),
              "x_margin": g.validate()}
    return report, 0


def _task_dimension(g, out, ctx, which="sing_star", resolution=2048,
                    scales=None):
    cloud = dimension.singstar_cloud(g, resolution=resolution, which=which)
    if scales is None:
        pred = g.metadata.get("cantor_prediction")
        if pred is not None:
            spec = g.metadata.get("spec")
            y1 = cloud.points[:, 1]
            dscale = 2.0 * float(y1.max() - y1.min())
            scales = [dscale * spec.r_alpha ** j for j in range(1, 8)] \
                if spec.k == 1 else [dscale * 0.5 ** j for j in range(3, 10)]
        else:
            scales = list(dimension.DEFAULT_SCALES)
    est = dimension.box_count(cloud, scales)
    serialize.write_csv(os.path.join(out, "cloud.csv"),
                        [f"p_{i}" for i in range(cloud.points.shape[1])],
                        cloud.points[:100000])
    report = {"task": "dimension", "slope": est.slope, "stderr": est.stderr,
              "ci": list(est.ci), "r2": est.r2, "reliable": est.reliable,
              "scales": [float(s) for s in est.scales],
              "counts": [int(c) for c in est.counts],
              "n_points": int(len(cloud.points))}
    return report, (0 if est.reliable else 3)


def _task_probe(g, out, ctx, epsilon=0.05, trials=50, grid_n=256):
    if ctx["seed"] is None:
        raise PreconditionError("probe task requires --seed")
    rep = topology.genericity_probe(g, epsilon, trials, seed=ctx["seed"],
                                    grid_n=grid_n)
    report = {"task": "probe", "epsilon": rep.epsilon, "trials": rep.trials,
              "outcomes": rep.outcome_counts, "discarded": rep.n_discarded,
              "margin_min": float(np.min(rep.margins)) if rep.margins else None,
              "margin_max": float(np.max(rep.margins)) if rep.margins else None,
              "achieved_epsilon_max": float(np.max(rep.achieved))
              if rep.achieved else None,
              "closure_defect_max": float(np.max(rep.closure_defects))
              if rep.closure_defects else None}
    return report, 0


def _nonuniq_pair(n=3, coincidence_times=4):
    g1, g2, delta = constructions.nonuniqueness_pair(n=n)
    return g1, g2, delta, [*np.linspace(0.0, delta, coincidence_times), 0.5]


def _nonuniq_same_surface(times=8):
    g1, g2 = constructions.same_surface_family()
    return g1, g2, None, np.linspace(0.0, 3.0, times, endpoint=False)


_NONUNIQ_VARIANTS = {"pair": _nonuniq_pair,
                     "same_surface": _nonuniq_same_surface}


def _task_nonuniq(g, out, ctx, variant="pair", **params):
    if variant not in _NONUNIQ_VARIANTS:
        raise ValueError(f"unknown nonuniq variant {variant!r}; "
                         f"expected 'pair' or 'same_surface'")
    g1, g2, delta, times = _NONUNIQ_VARIANTS[variant](**params)
    rows = []
    for t in times:
        d = surface.slice_set_distance(g1, g2, float(t), m_sparse=256)
        rows.append({"t": float(t), "slice_distance": d})
    report = {"task": "nonuniq", "variant": variant, "delta": delta,
              "distances": rows}
    return report, 0


_TASKS = {
    "evolve": _task_evolve,
    "detect": _task_detect,
    "diagram": _task_diagram,
    "construct": _task_construct,
    "dimension": _task_dimension,
    "probe": _task_probe,
    "nonuniq": _task_nonuniq,
}

_GAUGELESS_TASKS = {"nonuniq"}
_SCENARIO_KEYS = ("name", "task", "seed", "params")


def run_scenario(scenario, out_dir, seed=None, grid=DEFAULT_GRID):
    """Execute one scenario dict; returns the exit code.  A ``seed``
    argument wins over the scenario's ``seed``."""
    name = scenario.get("name", "scenario")
    task = scenario.get("task")
    if task not in _TASKS:
        print(f"error: unknown task {task!r}", file=sys.stderr)
        return 1
    ctx = {"seed": scenario.get("seed") if seed is None else seed,
           "grid": grid}
    t0 = time.time()
    try:
        serialize._check_keys(
            scenario, _SCENARIO_KEYS if task in _GAUGELESS_TASKS
            else _SCENARIO_KEYS + serialize.GAUGE_SPEC_KEYS, "scenario")
        params = scenario.get("params", {})
        if not isinstance(params, dict):
            raise TypeError(f"'params' must be an object, not {params!r}")
        os.makedirs(out_dir, exist_ok=True)
        g = (None if task in _GAUGELESS_TASKS
             else serialize.gauge_from_spec(scenario))
        report, code = _TASKS[task](g, out_dir, ctx, **params)
    except UnderResolvedError as exc:
        serialize.write_report(os.path.join(out_dir, "report.json"),
                               {"name": name, "task": task,
                                "error": str(exc), "kind": "under-resolved"})
        print(f"under-resolved: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        serialize.write_report(os.path.join(out_dir, "report.json"),
                               {"name": name, "task": task,
                                "error": str(exc), "kind": "precondition"})
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 1
    report["name"] = name
    if ctx["seed"] is not None:
        report["seed"] = ctx["seed"]
    serialize.write_report(os.path.join(out_dir, "report.json"), report)
    serialize.write_report(os.path.join(out_dir, "run_meta.json"),
                           {"wall_seconds": time.time() - t0,
                            "finished_unix": time.time()})
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="worldsheet",
        description="Evolve, analyze and measure relativistic string "
                    "worldsheets in the orthogonal gauge.")
    ap.add_argument("--scenario", required=True, help="scenario JSON file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--grid", type=int, default=DEFAULT_GRID)
    args = ap.parse_args(argv)
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    if not isinstance(scenario, dict):
        print("error: scenario must be a JSON object", file=sys.stderr)
        return 1
    return run_scenario(scenario, args.out, seed=args.seed, grid=args.grid)


if __name__ == "__main__":
    sys.exit(main())
