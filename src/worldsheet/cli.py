"""Scenario-driven command line front end.

A scenario is a JSON file naming a gauge (inline, by builder reference,
or as a couple) and a task; outputs are machine-readable reports and CSV
data.  Reports are byte-stable across reruns with the same seed;
wall-clock metadata lives in a separate file.

Exit codes: 0 success, 1 unknown task or schema violation,
2 precondition failure, 3 numerical-reliability flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import dimension, serialize, singular, surface, topology
from .errors import PreconditionError, UnderResolvedError
from .singular import DEFAULT_GRID


def _task_evolve(g, params, out, ctx):
    times = params.get("times")
    if times is None:
        count = int(params.get("count", 8))
        t_max = float(params.get("t_max", g.E0))
        times = np.linspace(0.0, t_max, count, endpoint=False).tolist()
    m = int(params.get("samples", 512))
    summary = []
    for j, t in enumerate(times):
        sl = surface.slice_curve(g, float(t), m=m)
        radii = np.linalg.norm(sl.points, axis=1)
        serialize.write_csv(
            os.path.join(out, f"slice_{j:03d}.csv"),
            ["x"] + [f"gamma_{i}" for i in range(g.dim)],
            np.column_stack([np.linspace(0.0, g.E0, m, endpoint=False), sl.points]))
        summary.append({"t": float(t), "min_radius": float(radii.min()),
                        "max_radius": float(radii.max()),
                        "closure_gap": sl.closure_gap})
    report = {"task": "evolve", "slices": summary}
    grid_shape = params.get("surface_grid")
    if grid_shape:
        nt, nx = int(grid_shape[0]), int(grid_shape[1])
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
    if params.get("residuals"):
        rep = surface.constraint_residuals(
            g, n_t=int(params.get("residual_grid", 100)),
            n_x=int(params.get("residual_grid", 100)),
            h=float(params.get("h", 1e-3)))
        report["residuals"] = {
            "gauge": rep.gauge_residual, "orthogonality": rep.ortho_residual,
            "wave": rep.wave_residual, "wave_ratio": rep.wave_ratio,
            "wave_constant": rep.wave_constant, "h": rep.h}
    return report, 0


def _task_detect(g, params, out, ctx):
    rep = singular.find_antipodal_pairs(g, grid_n=ctx["grid"])
    comps = []
    for comp in rep.components:
        cc = singular.classify_sing_star(g, comp, grid_n=ctx["grid"]) \
            if params.get("classify", True) else comp
        pairs = sorted(comp.pairs, key=lambda p: (p.s, p.sigma))[:32]
        comps.append({
            "kind": comp.kind,
            "sing_star": cc.sing_star,
            "tangent_gap": cc.tangent_gap,
            "slice_times": list(comp.slice_times),
            "n_pairs": len(comp.pairs),
            "pairs": [{"s": p.s, "sigma": p.sigma, "t": p.t, "x": p.x,
                       "residual": p.residual,
                       "point": p.point(g).tolist()} for p in pairs],
        })
    report = {"task": "detect", "n_components": len(rep.components),
              "margin": rep.min_grid_residual, "grid_n": rep.grid_n,
              "components": comps,
              "global_immersion": rep.empty}
    return report, 0


def _task_diagram(g, params, out, ctx):
    d = topology.diagram(g, m=int(params.get("samples", 1024)))
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


def _task_construct(g, params, out, ctx):
    serialize.write_gauge(os.path.join(out, "gauge.json"), g,
                          samples=int(params.get("samples", 4096)))
    m = int(params.get("csv_samples", 1024))
    for label, curve in (("a", g.a), ("b", g.b)):
        xs = np.linspace(0.0, curve.period, m, endpoint=False)
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
              "x_margin": g.min_sum_norm()}
    return report, 0


def _task_dimension(g, params, out, ctx):
    which = params.get("which", "sing_star")
    resolution = int(params.get("resolution", 2048))
    cloud = dimension.singstar_cloud(g, resolution=resolution, which=which)
    scales = params.get("scales")
    if scales is None:
        pred = g.metadata.get("cantor_prediction")
        if pred is not None:
            spec = g.metadata.get("spec")
            y1 = cloud.points[:, 1]
            dscale = 2.0 * float(y1.max() - y1.min())
            ratio = spec.r_alpha if spec.k == 1 else 0.5
            scales = [dscale * ratio ** j for j in range(1, 8)] \
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


def _task_probe(g, params, out, ctx):
    if ctx["seed"] is None:
        raise PreconditionError("probe task requires --seed")
    rep = topology.genericity_probe(
        g, float(params.get("epsilon", 0.05)),
        int(params.get("trials", 50)), seed=ctx["seed"],
        grid_n=int(params.get("grid_n", 256)))
    report = {"task": "probe", "epsilon": rep.epsilon, "trials": rep.trials,
              "outcomes": rep.outcome_counts, "discarded": rep.n_discarded,
              "margin_min": float(np.min(rep.margins)) if rep.margins else None,
              "margin_max": float(np.max(rep.margins)) if rep.margins else None,
              "achieved_epsilon_max": float(np.max(rep.achieved))
              if rep.achieved else None,
              "closure_defect_max": float(np.max(rep.closure_defects))
              if rep.closure_defects else None}
    return report, 0


def _task_nonuniq(g, params, out, ctx):
    from . import constructions
    variant = params.get("variant", "pair")
    if variant == "pair":
        g1, g2, delta = constructions.nonuniqueness_pair(
            n=int(params.get("n", 3)))
        times = np.linspace(0.0, delta, int(params.get("coincidence_times", 4)))
        extra = [0.5]
    elif variant == "same_surface":
        g1, g2 = constructions.same_surface_family()
        delta = None
        times = np.linspace(0.0, 3.0, int(params.get("times", 8)),
                            endpoint=False)
        extra = []
    else:
        raise ValueError(f"unknown nonuniq variant {variant!r}; "
                         f"expected 'pair' or 'same_surface'")
    rows = []
    for t in list(times) + extra:
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


def run_scenario(scenario, out_dir, seed=None, grid=DEFAULT_GRID):
    """Execute one scenario dict; returns the exit code.  A ``seed``
    argument wins over the scenario's ``seed``."""
    name = scenario.get("name", "scenario")
    task = scenario.get("task")
    if task not in _TASKS:
        print(f"error: unknown task {task!r}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    ctx = {"seed": scenario.get("seed") if seed is None else seed,
           "grid": grid}
    t0 = time.time()
    try:
        if task in _GAUGELESS_TASKS:
            g = None
        else:
            g = serialize.gauge_from_spec(scenario)
        report, code = _TASKS[task](g, scenario.get("params", {}), out_dir, ctx)
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
