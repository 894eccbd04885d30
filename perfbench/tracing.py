"""Spans around the public functions of every ``worldsheet`` module.

Layers are measured from outside the package: ``install()`` replaces each
public function and method of each module with a wrapper that records a
span ``(name, start, end, parent, item)`` in memory, and rebinds every
module attribute that refers to the original, because modules import
names directly (``topology.find_antipodal_pairs``, ``singular.gamma``,
``dimension.gamma``, ...).  ``restore()`` puts the originals back, so
untraced passes run the package exactly as shipped.

Self time of a span is its duration minus the time covered by its child
spans.  ``layer_table()`` turns the spans and counters of the traced
passes into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("catalog", "gauge", "quadrature", "curves", "surface", "singular",
           "topology", "constructions", "dimension", "serialize", "cli")

# span name -> layer name, where the layer name is not just "module.function"
ALIASES = {
    "quadrature.PrefixIntegrator.__init__": "quadrature.prefix_build",
    "quadrature.PrefixIntegrator.integral": "quadrature.integral",
    "curves.UnitSpeedCurve.tangent": "curves.tangent",
    "curves.UnitSpeedCurve.tangent_derivative": "curves.tangent_derivative",
    "curves.UnitSpeedCurve.position": "curves.position",
    "curves.AngleTangent.__call__": "curves.rep_eval",
    "curves.SphereSamplesTangent.__call__": "curves.rep_eval",
    "curves.CallableTangent.__call__": "curves.rep_eval",
    "gauge.AdmissibleCouple.validate": "gauge.validate",
    "gauge.OrthogonalGauge.validate": "gauge.validate",
    "dimension.PointCloud.__init__": "dimension.point_cloud",
}

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [(f"{m}.s", "s", "lower") for m in MODULES] + [
    ("gauge.normalize.s", "s", "lower"),
    ("gauge.gauge_from_couple.s", "s", "lower"),
    ("gauge.validate.s", "s", "lower"),
    ("gauge.bake_nodes", "count", "lower"),
    ("quadrature.prefix_build.s", "s", "lower"),
    ("quadrature.prefix_build.calls", "count", "lower"),
    ("quadrature.integral.s", "s", "lower"),
    ("quadrature.integral.calls", "count", "lower"),
    ("quadrature.integral.points", "count", "lower"),
    ("curves.tangent.s", "s", "lower"),
    ("curves.tangent.points", "count", "lower"),
    ("curves.tangent_derivative.s", "s", "lower"),
    ("curves.tangent_derivative.points", "count", "lower"),
    ("curves.position.s", "s", "lower"),
    ("curves.position.points", "count", "lower"),
    ("curves.rep_eval.s", "s", "lower"),
    ("curves.rep_eval.points", "count", "lower"),
    ("curves.rep_points_per_position_point", "ratio", "lower"),
    ("curves.from_tangent_image.s", "s", "lower"),
    ("surface.gamma.s", "s", "lower"),
    ("surface.gamma.points", "count", "lower"),
    ("surface.derivatives.s", "s", "lower"),
    ("surface.derivatives.points", "count", "lower"),
    ("surface.constraint_residuals.s", "s", "lower"),
    ("surface.slice_set_distance.s", "s", "lower"),
    ("surface.slice_set_distance.calls", "count", "lower"),
    ("singular.find_antipodal_pairs.s", "s", "lower"),
    ("singular.find_antipodal_pairs.calls", "count", "lower"),
    ("singular.grid_residuals.s", "s", "lower"),
    ("singular.grid_cells", "count", "lower"),
    ("singular.pairs", "count", "lower"),
    ("singular.components", "count", "lower"),
    ("singular.empty_reports", "count", "lower"),
    ("singular.classify_sing_star.s", "s", "lower"),
    ("singular.classify_sing_star.calls", "count", "lower"),
    ("singular.classify_sing_star.failed", "count", "lower"),
    ("singular.angle_state.s", "s", "lower"),
    ("singular.angle_state.calls", "count", "lower"),
    ("topology.diagram.s", "s", "lower"),
    ("topology.linking_number.s", "s", "lower"),
    ("topology.winding_number.s", "s", "lower"),
    ("topology.genericity_probe.s", "s", "lower"),
    ("topology.probe.trials", "count", "lower"),
    ("topology.probe.discarded", "count", "lower"),
    ("topology.probe.kept_frac", "ratio", "higher"),
    ("constructions.nonuniqueness_pair.s", "s", "lower"),
    ("constructions.sharp_example_gauge.s", "s", "lower"),
    ("dimension.singstar_cloud.s", "s", "lower"),
    ("dimension.point_cloud.s", "s", "lower"),
    ("dimension.cloud_points_raw", "count", "lower"),
    ("dimension.cloud_points", "count", "lower"),
    ("dimension.box_count.s", "s", "lower"),
    ("dimension.box_count.cells", "count", "lower"),
    ("serialize.gauge_from_spec.s", "s", "lower"),
    ("serialize.write_csv.s", "s", "lower"),
    ("serialize.write_csv.rows", "count", "lower"),
    ("serialize.write_report.s", "s", "lower"),
    ("cli.run_scenario.s", "s", "lower"),
    ("other.s", "s", "lower"),
    ("item.p50_s", "s", "lower"),
    ("item.p90_s", "s", "lower"),
    ("item.count", "count", "higher"),
    ("fail_frac", "ratio", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.covered_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]


def _size(*arrays):
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


# layer -> fn(args, kwargs, result) -> {counter: increment}; args include self
COUNTERS = {
    "gauge.gauge_from_couple": lambda a, k, r: {
        "gauge.bake_nodes": r.metadata.get("baked_nodes", 0)},
    "quadrature.integral": lambda a, k, r: {
        "quadrature.integral.points": _size(a[1])},
    "curves.tangent": lambda a, k, r: {"curves.tangent.points": _size(a[1])},
    "curves.tangent_derivative": lambda a, k, r: {
        "curves.tangent_derivative.points": _size(a[1])},
    "curves.position": lambda a, k, r: {"curves.position.points": _size(a[1])},
    "surface.gamma": lambda a, k, r: {"surface.gamma.points": _size(a[1], a[2])},
    "surface.derivatives": lambda a, k, r: {
        "surface.derivatives.points": _size(a[1], a[2])},
    "singular.grid_residuals": lambda a, k, r: {
        "singular.grid_cells": int(r[0].size)},
    "singular.find_antipodal_pairs": lambda a, k, r: {
        "singular.pairs": len(r.pairs), "singular.components": len(r.components),
        "singular.empty_reports": int(r.empty)},
    "topology.genericity_probe": lambda a, k, r: {
        "topology.probe.trials": r.trials,
        "topology.probe.discarded": r.n_discarded},
    "dimension.point_cloud": lambda a, k, r: {
        "dimension.cloud_points_raw": len(a[1] if len(a) > 1 else k["points"]),
        "dimension.cloud_points": len(a[0].points)},
    "dimension.box_count": lambda a, k, r: {
        "dimension.box_count.cells": len(a[0].points) * len(r.scales)},
    "serialize.write_csv": lambda a, k, r: {
        "serialize.write_csv.rows": len(a[2] if len(a) > 2 else k["rows"])},
}


REP_POINTS_IN_POSITION = "curves.rep_eval.points_in_position"


class Recorder:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, item, child_s]
        self.stack = []
        self.counters = {}
        self.failed = {}
        self.item = None
        self.position_depth = 0     # open curves.position spans
        self.rep_depth = 0          # open curves.rep_eval spans

    def count(self, increments):
        for key, inc in increments.items():
            self.counters[key] = self.counters.get(key, 0) + inc


def _wrap(fn, name, rec):
    layer = ALIASES.get(name, name)
    counter = COUNTERS.get(layer)
    spans, stack = rec.spans, rec.stack
    clock = time.perf_counter
    is_position = layer == "curves.position"
    is_rep = layer == "curves.rep_eval"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(spans)
        span = [name, clock(), 0.0, stack[-1] if stack else -1, rec.item, 0.0]
        spans.append(span)
        stack.append(idx)
        rec.position_depth += is_position
        rec.rep_depth += is_rep
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.failed[layer] = rec.failed.get(layer, 0) + 1
            raise
        finally:
            span[2] = clock()
            stack.pop()
            rec.position_depth -= is_position
            rec.rep_depth -= is_rep
            if span[3] >= 0:
                spans[span[3]][5] += span[2] - span[1]
        if is_rep:
            # a rep may evaluate other reps; count the outermost call only
            if not rec.rep_depth:
                points = _size(args[1])
                rec.count({"curves.rep_eval.points": points})
                if rec.position_depth:
                    rec.count({REP_POINTS_IN_POSITION: points})
        elif counter is not None:
            rec.count(counter(args, kwargs, result))
        return result

    return wrapper


def _targets(mod, modname):
    """(owner, attribute, qualified span name) of every traced callable
    defined in ``mod``: public functions and methods, plus the private
    methods named in ``ALIASES`` (``__init__``/``__call__`` that carry
    work of their own)."""
    full = f"worldsheet.{modname}"
    out = []
    for attr, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != full:
            continue
        if inspect.isfunction(obj) and not attr.startswith("_"):
            out.append((mod, attr, f"{modname}.{attr}"))
        elif inspect.isclass(obj) and not attr.startswith("_"):
            owner = f"{modname}.{attr}"
            for mname, member in vars(obj).items():
                name = f"{owner}.{mname}"
                if inspect.isfunction(member) and (
                        not mname.startswith("_") or name in ALIASES):
                    out.append((obj, mname, name))
    return out


def install(rec):
    """Wrap every traced callable; returns the undo list for ``restore``."""
    mods = {m: importlib.import_module(f"worldsheet.{m}") for m in MODULES}
    mods["__init__"] = importlib.import_module("worldsheet")
    undo = []
    replaced = {}
    for modname in MODULES:
        for owner, attr, name in _targets(mods[modname], modname):
            orig = vars(owner)[attr]
            wrapper = _wrap(orig, name, rec)
            replaced[id(orig)] = (orig, wrapper)
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, orig))
    # every other binding of a wrapped function (``from .x import f``)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))
    return undo


def restore(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def layer_table(rec, traced_pass_s, untraced_pass_s, items_s, fail_frac):
    """Per-layer metrics, per traced pass, from the recorder's spans.

    traced_pass_s / untraced_pass_s: wall times of the traced and
    untraced passes, in run order; the first untraced pass also pays
    one-off warm-up costs and is left out of the overhead when a later
    one exists.  items_s: item latencies of the untraced passes.
    """
    n_pass = len(traced_pass_s)
    self_s = {}
    calls = {}
    module_s = dict.fromkeys(MODULES, 0.0)
    root_s = 0.0
    for name, start, end, parent, _item, child in rec.spans:
        layer = ALIASES.get(name, name)
        own = (end - start) - child
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        module_s[name.split(".", 1)[0]] += own
        if parent < 0:
            root_s += end - start

    total_traced = sum(traced_pass_s)
    per = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for m in MODULES:
        per[f"{m}.s"] = module_s[m] / n_pass
    for name in per:
        if name.endswith(".s") and name[:-2] in self_s:
            per[name] = self_s[name[:-2]] / n_pass
        elif name.endswith(".calls"):
            per[name] = calls.get(name[:-6], 0) / n_pass
    for key, value in rec.counters.items():
        if key in per:
            per[key] = value / n_pass
    baked = calls.get("gauge.gauge_from_couple", 0)
    per["gauge.bake_nodes"] = (
        rec.counters.get("gauge.bake_nodes", 0) / baked if baked else 0.0)
    per["singular.classify_sing_star.failed"] = rec.failed.get(
        "singular.classify_sing_star", 0) / n_pass
    pos_points = rec.counters.get("curves.position.points", 0)
    per["curves.rep_points_per_position_point"] = (
        rec.counters.get(REP_POINTS_IN_POSITION, 0) / pos_points
        if pos_points else 0.0)
    trials = rec.counters.get("topology.probe.trials", 0)
    per["topology.probe.kept_frac"] = (
        (trials - rec.counters.get("topology.probe.discarded", 0)) / trials
        if trials else 0.0)
    per["other.s"] = (total_traced - root_s) / n_pass
    per["item.p50_s"] = float(np.percentile(items_s, 50))
    per["item.p90_s"] = float(np.percentile(items_s, 90))
    per["item.count"] = len(items_s)
    per["fail_frac"] = fail_frac
    traced = float(np.mean(traced_pass_s))
    untraced = float(np.mean(untraced_pass_s[1:] or untraced_pass_s))
    per["trace.run_s"] = traced
    per["trace.overhead_frac"] = traced / untraced - 1.0
    per["trace.covered_frac"] = root_s / total_traced
    per["trace.spans"] = len(rec.spans) / n_pass
    return per

