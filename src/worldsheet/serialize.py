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


def _check_keys(spec, allowed, what):
    """TypeError naming the keys of ``spec`` outside ``allowed``, so a
    misspelled key is a schema error rather than a silent default."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise TypeError(f"unknown {what} key{'s' * (len(unknown) > 1)} "
                        + ", ".join(map(repr, unknown)))


# ---------------------------------------------------------------------------
# curves

# each curve kind's keys; "smoothness" is read and ignored, since gauge
# files written before it was dropped carry it on every curve
_CURVE_KEYS = {
    "circle": ("basepoint",),
    "angle_fourier": ("period", "winding", "phase", "modes", "basepoint"),
    "sphere_samples": ("samples", "period", "basepoint"),
}


def curve_from_spec(spec):
    kind = spec.get("kind")
    if kind in _CURVE_KEYS:
        _check_keys(spec, ("kind", "smoothness", *_CURVE_KEYS[kind]),
                    f"{kind} curve")
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

_GAMMA0_KEYS = {"circle": ("radius", "n"),
                "fourier_loop": ("n", "modes", "basepoint")}
_V0_KEYS = {"zero": (), "normal_scale": ("scale", "phase", "wobble"),
            "fourier": ("modes", "mean")}


def couple_from_spec(spec):
    _check_keys(spec, ("gamma0", "v0"), "couple")
    g0 = spec["gamma0"]
    kind = g0.get("kind")
    if kind in _GAMMA0_KEYS:
        _check_keys(g0, ("kind", *_GAMMA0_KEYS[kind]), f"{kind} gamma0")
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
    if vkind in _V0_KEYS:
        _check_keys(v0spec, ("kind", *_V0_KEYS[vkind]), f"{vkind} v0")
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

def _cantor_gauge(k=1, **kw):
    return constructions.sharp_example_gauge(
        constructions.CantorSpec.single_mode(k, **kw))[0]


# a builder spec's keys other than "name" are the function's keyword arguments
_BUILDERS = {
    "circle": catalog.circle_gauge,
    "hopf": catalog.hopf_gauge,
    "mirrored_hopf": catalog.mirrored_hopf_gauge,
    "nonconvex": catalog.nonconvex_gauge,
    "degenerate_slice": catalog.degenerate_slice_gauge,
    "random_planar": catalog.random_planar_gauge,
    "meridian_loops": catalog.meridian_loops_gauge,
    "wavy_pair": catalog.wavy_pair_gauge,
    "cantor": _cantor_gauge,
}


def gauge_from_spec(spec):
    if "builder" in spec:
        kw = spec["builder"]
        if not isinstance(kw, dict):
            raise TypeError(f"'builder' must be an object, not {kw!r}")
        name = kw.get("name")
        if name not in _BUILDERS:
            raise PreconditionError(f"unknown builder {name!r}")
        return _BUILDERS[name](**{k: v for k, v in kw.items() if k != "name"})
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


# top-level gauge-spec keys, with E0 and schema_version from gauge_to_spec
GAUGE_SPEC_KEYS = ("builder", "couple", "a", "b", "E0", "schema_version")


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
