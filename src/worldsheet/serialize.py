"""JSON specs for curves, couples and gauges, plus the JSON and CSV writers.

Builders referenced by name rebuild deterministically from their
parameters; arbitrary gauges export as dense unit-sphere tangent samples.
"""

from __future__ import annotations

import json

import numpy as np

from . import catalog, constructions
from .curves import AngleTangent, SphereSamplesTangent, UnitSpeedCurve
from .errors import PreconditionError
from .gauge import AdmissibleCouple, OrthogonalGauge

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# curves

def curve_from_spec(spec):
    kind = spec.get("kind")
    if kind == "circle":
        return catalog.circle_curve(tuple(spec.get("basepoint", (1.0, 0.0))))
    if kind == "angle_fourier":
        period = float(spec.get("period", 2.0 * np.pi))
        w = float(spec.get("winding", 1))
        phase = float(spec.get("phase", 0.5 * np.pi))
        modes = [(int(m), float(c), float(s))
                 for m, c, s in spec.get("modes", [])]
        om = 2.0 * np.pi / period

        def alpha(x):
            x = np.asarray(x, dtype=float)
            out = phase + w * om * x
            for m, c, s in modes:
                out = out + c * np.cos(m * om * x) + s * np.sin(m * om * x)
            return out

        def alpha_p(x):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, w * om)
            for m, c, s in modes:
                out = out + m * om * (-c * np.sin(m * om * x)
                                      + s * np.cos(m * om * x))
            return out

        base = np.asarray(spec.get("basepoint", (0.0, 0.0)), dtype=float)
        return UnitSpeedCurve(AngleTangent(alpha, period, alpha_prime=alpha_p),
                              base)
    if kind == "sphere_samples":
        samples = np.asarray(spec["samples"], dtype=float)
        rep = SphereSamplesTangent(samples, float(spec["period"]))
        base = np.asarray(spec.get("basepoint", np.zeros(samples.shape[1])),
                          dtype=float)
        return UnitSpeedCurve(rep, base)
    raise PreconditionError(f"unknown curve kind {kind!r}")


def curve_to_spec(curve: UnitSpeedCurve, samples=4096):
    xs = np.linspace(0.0, curve.period, samples, endpoint=False)
    return {
        "kind": "sphere_samples",
        "period": float(curve.period),
        "basepoint": [float(v) for v in curve.basepoint],
        "samples": np.round(curve.tangent(xs), 15).tolist(),
    }


# ---------------------------------------------------------------------------
# couples

def couple_from_spec(spec):
    g0 = spec["gamma0"]
    kind = g0.get("kind")
    if kind == "circle":
        radius = float(g0.get("radius", 1.0))
        dim = int(g0.get("n", 2))
        deriv = catalog.fourier_loop_deriv(dim, radius=radius)
        base = np.zeros(dim)
        base[0] = radius
    elif kind == "fourier_loop":
        dim = int(g0["n"])
        modes = [(int(m), np.asarray(c, float), np.asarray(s, float))
                 for m, c, s in g0["modes"]]
        deriv = catalog.fourier_loop_deriv(dim, modes)
        base = np.asarray(g0.get("basepoint", np.zeros(dim)), dtype=float)
    else:
        raise PreconditionError(f"unknown gamma0 kind {kind!r}")

    v0spec = spec.get("v0", {"kind": "zero"})
    vkind = v0spec.get("kind", "zero")
    if vkind == "zero":
        def fields(x):
            gp = deriv(x)
            return gp, np.zeros_like(gp)
    elif vkind == "normal_scale":
        scale = float(v0spec.get("scale", 0.5))
        phase = float(v0spec.get("phase", 0.0))
        wobble = float(v0spec.get("wobble", 0.0))
        fields = catalog.normal_velocity_fields(
            deriv, lambda x: scale * (1.0 + wobble * np.sin(x + phase)), dim)
    elif vkind == "fourier":
        coeffs = [(int(m), float(c), float(s))
                  for m, c, s in v0spec.get("modes", [])]
        base_rho = float(v0spec.get("mean", 0.0))

        def rho(x):
            out = np.full_like(x, base_rho)
            for m, c, s in coeffs:
                out = out + c * np.cos(m * x) + s * np.sin(m * x)
            return out

        fields = catalog.normal_velocity_fields(deriv, rho, dim)
    else:
        raise PreconditionError(f"unknown v0 kind {vkind!r}")

    return AdmissibleCouple(fields, 2.0 * np.pi, dim, base)


# ---------------------------------------------------------------------------
# gauges

_BUILDERS = {
    "circle": lambda p: catalog.circle_gauge(),
    "hopf": lambda p: catalog.hopf_gauge(),
    "mirrored_hopf": lambda p: catalog.mirrored_hopf_gauge(),
    "nonconvex": lambda p: catalog.nonconvex_gauge(p.get("amplitude", 0.8)),
    "degenerate_slice": lambda p: catalog.degenerate_slice_gauge(),
    "random_planar": lambda p: catalog.random_planar_gauge(
        seed=int(p.get("seed", 0)), modes=int(p.get("modes", 3)),
        v_scale=float(p.get("v_scale", 0.5))),
    "meridian_loops": lambda p: catalog.meridian_loops_gauge(),
    "wavy_pair": lambda p: catalog.wavy_pair_gauge(
        wave_a=float(p.get("wave_a", 0.25)),
        phase_a=float(p.get("phase_a", 0.0)),
        wave_b=float(p.get("wave_b", 0.18)),
        phase_b=float(p.get("phase_b", 1.2))),
    "cantor": lambda p: constructions.sharp_example_gauge(
        constructions.CantorSpec.single_mode(
            int(p.get("k", 1)), m=int(p.get("m", 8)),
            depth=int(p.get("depth", 8))))[0],
}


def gauge_from_spec(spec):
    if "builder" in spec:
        b = spec["builder"]
        name = b.get("name")
        if name not in _BUILDERS:
            raise PreconditionError(f"unknown builder {name!r}")
        return _BUILDERS[name]({k: v for k, v in b.items() if k != "name"})
    if "couple" in spec:
        from .gauge import gauge_from_couple, normalize
        return gauge_from_couple(normalize(couple_from_spec(spec["couple"])))
    if "a" in spec and "b" in spec:
        a = curve_from_spec(spec["a"])
        b = curve_from_spec(spec["b"])
        g = OrthogonalGauge(a, b)
        g.validate()
        return g
    raise PreconditionError("gauge spec needs 'builder', 'couple', or 'a'/'b'")


def gauge_to_spec(g: OrthogonalGauge, samples=4096):
    return {
        "schema_version": SCHEMA_VERSION,
        "a": curve_to_spec(g.a, samples),
        "b": curve_to_spec(g.b, samples),
        "E0": float(g.E0),
        "name": g.metadata.get("name"),
    }


# ---------------------------------------------------------------------------
# output helpers

def _json_default(obj):
    # np.float64 subclasses float, so json writes it as repr(float) itself
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, obj, indent):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent, default=_json_default)
        fh.write("\n")


def write_report(path, payload):
    _write_json(path, {**payload, "schema_version": SCHEMA_VERSION}, indent=1)


def write_gauge(path, g: OrthogonalGauge, samples=4096):
    _write_json(path, gauge_to_spec(g, samples), indent=None)


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` with \\r\\n line ends.  ``rows`` is an
    (n, k) float64 array or a length-n structured array with one field per
    column.  A float64 column renders as repr(float), any other as str."""
    cols = ([rows[name] for name in rows.dtype.names] if rows.dtype.names
            else list(rows.T))
    texts = [_column_text(c) for c in cols]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        # 1024-row chunks keep the lists of cell texts small
        for i in range(0, len(rows), 1024):
            cells = [text(slice(i, i + 1024)) for text in texts]
            fh.write("".join(",".join(r) + "\r\n" for r in zip(*cells)))


def _column_text(col):
    """A function from a row slice to the texts of ``col``'s cells in it.
    A float64 column of which at most half the values are distinct (by bit
    pattern) renders each distinct value once."""
    if col.dtype != np.float64:
        return lambda rows: map(str, col[rows].tolist())
    bits = col.view(np.int64)
    keys = np.unique(bits)
    if 2 * len(keys) > len(bits):
        return lambda rows: map(repr, col[rows].tolist())
    text = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
    return lambda rows: text[np.searchsorted(keys, bits[rows])].tolist()
