"""Named gauges, couples and spherical paths used by tests and the CLI.

Everything here is deterministic; randomized families take an explicit
seed.  Angle-represented planar curves use only even harmonics in the
periodic part of the angle, which keeps them exactly closed (odd total
harmonics cannot cancel the winding term, so the period integral of
e^{i alpha} vanishes identically).
"""

from __future__ import annotations

import numpy as np

from .curves import (AngleTangent, CallableTangent, UnitSpeedCurve,
                     from_tangent_image)
from .gauge import AdmissibleCouple, OrthogonalGauge

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# planar building blocks

def circle_curve(basepoint=(1.0, 0.0)):
    """Unit-speed unit circle: a(x) = (cos x, sin x)."""
    rep = AngleTangent(lambda x: x + 0.5 * np.pi, TWO_PI,
                       alpha_prime=lambda x: np.ones_like(x))
    return UnitSpeedCurve(rep, np.asarray(basepoint, dtype=float))


def circle_gauge():
    """a = b = unit circle; collapses to the origin at t = E0/4."""
    return OrthogonalGauge(circle_curve(), circle_curve(),
                           metadata={"name": "circle"})


def angle_curve(alpha, alpha_prime, basepoint=(0.0, 0.0)):
    rep = AngleTangent(alpha, TWO_PI, alpha_prime=alpha_prime)
    return UnitSpeedCurve(rep, np.asarray(basepoint, dtype=float))


def symmetric_oval_curve(wobble=0.2):
    """Centrally symmetric uniformly convex planar curve with tangent
    angle x + pi/2 + wobble*sin(2x); convex iff |wobble| < 1/2."""
    alpha = lambda x: x + 0.5 * np.pi + wobble * np.sin(2.0 * x)
    alpha_p = lambda x: 1.0 + 2.0 * wobble * np.cos(2.0 * x)
    curve = angle_curve(alpha, alpha_p)
    # a'(x + pi) = -a'(x), so this basepoint makes a(x + pi) = -a(x)
    return UnitSpeedCurve(curve.rep, -0.5 * curve.position(np.pi))


def nonconvex_gauge(amplitude=0.8):
    """Planar gauge with a nonconvex a and b(x) = -a(x + E0/2).

    The tangent angle turning rate 1 + 2*amplitude*cos(2x) changes sign
    for amplitude > 1/2, so the curve is nonconvex.
    """
    alpha = lambda x: x + 0.5 * np.pi + amplitude * np.sin(2.0 * x)
    alpha_p = lambda x: 1.0 + 2.0 * amplitude * np.cos(2.0 * x)
    a = angle_curve(alpha, alpha_p)
    beta = lambda x: alpha(x + np.pi) + np.pi
    beta_p = lambda x: alpha_p(x + np.pi)
    b = angle_curve(beta, beta_p, basepoint=-a.position(np.pi))
    return OrthogonalGauge(a, b, metadata={"name": "nonconvex"})


def degenerate_slice_gauge():
    """Planar gauge with angles alpha(x) = x and beta(x) = x + pi/2 for
    the curves a' = e^{i alpha}, -b' = e^{i beta}; its antipodal set is a
    union of full degenerate slices."""
    a = angle_curve(lambda x: x, lambda x: np.ones_like(x))
    b = angle_curve(lambda x: x + 1.5 * np.pi, lambda x: np.ones_like(x))
    return OrthogonalGauge(a, b, metadata={"name": "degenerate-slice"})


# ---------------------------------------------------------------------------
# four-dimensional Hopf pair

def _unit_circle(x, order):
    """(cos x, sin x) for order 0, its derivative (-sin x, cos x) for
    order 1, and zeros, for the coordinate planes of the Hopf pair."""
    x = np.asarray(x, dtype=float)
    if order == 0:
        return np.cos(x), np.sin(x), np.zeros_like(x)
    return -np.sin(x), np.cos(x), np.zeros_like(x)


def hopf_gauge():
    """a and b are unit circles in orthogonal coordinate planes of R^4;
    the tangent images on S^3 form a Hopf-linked pair with margin sqrt 2."""
    def a_tan(x, order):
        c, s, z = _unit_circle(x, order)
        return np.stack([c, s, z, z], axis=-1)

    def b_tan(x, order):
        c, s, z = _unit_circle(x, order)
        return np.stack([z, z, c, s], axis=-1)

    a = UnitSpeedCurve(CallableTangent(a_tan, TWO_PI, 4),
                       np.array([0., -1., 0., 0.]))
    b = UnitSpeedCurve(CallableTangent(b_tan, TWO_PI, 4),
                       np.array([0., 0., 0., -1.]))
    return OrthogonalGauge(a, b, metadata={"name": "hopf"})


def mirrored_hopf_gauge():
    """Hopf pair with the orientation of b reversed (last axis negated)."""
    g = hopf_gauge()
    rep = g.b.rep

    def b_tan(x, order):
        v = rep(x, order)
        v[..., 3] = -v[..., 3]
        return v

    base = g.b.basepoint.copy()
    base[3] = -base[3]
    b = UnitSpeedCurve(CallableTangent(b_tan, TWO_PI, 4), base)
    return OrthogonalGauge(g.a, b, metadata={"name": "hopf-mirrored"})


# ---------------------------------------------------------------------------
# spherical paths for the tangent-image builder (S^2 in R^3); each
# path(u, order=0) is the point on the sphere for order 0 and its exact
# u-derivative for order 1

def meridian_oval_path(lon=0.0, width=0.25, overshoot=0.18,
                       bottom=None, pinched=False):
    """Closed spherical path sweeping the given meridian pole to pole.

    The colatitude runs from -overshoot (behind the north pole) to
    pi + bottom (behind the south pole; ``bottom`` < 0 keeps clear of
    it), while the transverse offset oscillates with amplitude
    ``width``.  With ``pinched`` the offset vanishes at mid-sweep, so
    the path passes exactly through the meridian's equator point.
    """
    bottom = overshoot if bottom is None else bottom
    u1 = np.array([np.cos(lon), np.sin(lon), 0.0])
    u2 = np.array([-np.sin(lon), np.cos(lon), 0.0])
    u3 = np.array([0.0, 0.0, 1.0])
    c0 = 0.5 * (np.pi + bottom - overshoot)
    c1 = 0.5 * (np.pi + bottom + overshoot)

    def path(u, order=0):
        u = np.asarray(u, dtype=float)
        psi = c0 - c1 * np.cos(u)
        w = width * (np.sin(2.0 * u) if pinched else np.sin(u))
        m = np.multiply.outer(np.sin(psi), u1) + np.multiply.outer(np.cos(psi), u3)
        if order == 0:
            return np.cos(w)[..., None] * m + np.multiply.outer(np.sin(w), u2)
        dpsi = c1 * np.sin(u)
        dw = width * (2.0 * np.cos(2.0 * u) if pinched else np.cos(u))
        dm = dpsi[..., None] * (np.multiply.outer(np.cos(psi), u1)
                                - np.multiply.outer(np.sin(psi), u3))
        return (np.cos(w)[..., None] * dm
                + (dw * np.cos(w))[..., None] * u2
                - (dw * np.sin(w))[..., None] * m)

    return path


def swing_path(swing=1.6, lat_max=1.22, lon_center=0.0):
    """Closed spherical path through the equator point at ``lon_center``:
    longitude swings by +-swing around the center while the latitude
    oscillates at twice the rate (lat = lat_max * sin 2u).  Passes
    exactly through the center point at u = 0 and u = pi."""

    def path(u, order=0):
        u = np.asarray(u, dtype=float)
        lon = lon_center + swing * np.sin(u)
        lat = lat_max * np.sin(2.0 * u)
        cl = np.cos(lat)
        if order == 0:
            return np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)],
                            axis=-1)
        dlon = swing * np.cos(u)
        dlat = 2.0 * lat_max * np.cos(2.0 * u)
        dcl = -np.sin(lat) * dlat
        return np.stack([dcl * np.cos(lon) - cl * np.sin(lon) * dlon,
                         dcl * np.sin(lon) + cl * np.cos(lon) * dlon,
                         cl * dlat], axis=-1)

    return path


def wavy_circle_path(wave=0.25, phase=0.0):
    """Closed spherical path: the equator of S^2 with latitude wave
    lambda(u) = wave * sin(u + phase).  Exactly closed for any wave
    amplitude (the integrand has no first harmonic)."""
    e1, e2, e3 = np.eye(3)

    def path(u, order=0):
        u = np.asarray(u, dtype=float)
        lam = wave * np.sin(u + phase)
        cl = np.cos(lam)
        if order == 0:
            return (np.multiply.outer(cl * np.cos(u), e1)
                    + np.multiply.outer(cl * np.sin(u), e2)
                    + np.multiply.outer(np.sin(lam), e3))
        dlam = wave * np.cos(u + phase)
        dcl = -np.sin(lam) * dlam
        return (np.multiply.outer(dcl * np.cos(u) - cl * np.sin(u), e1)
                + np.multiply.outer(dcl * np.sin(u) + cl * np.cos(u), e2)
                + np.multiply.outer(cl * dlam, e3))

    return path


# ---------------------------------------------------------------------------
# three-dimensional gauges realized from spherical paths

def meridian_loops_gauge():
    """a realizes a meridian oval, b a mirrored swing curve; the tangent
    images are disjoint loops on S^2."""
    a = from_tangent_image(
        meridian_oval_path(lon=0.0, width=0.25, overshoot=0.18), k=3)
    b = from_tangent_image(
        swing_path(swing=2.0, lat_max=-0.9, lon_center=0.0),
        k=3, period=a.period)
    g = OrthogonalGauge(a, b, metadata={"name": "meridian-loops"})
    g.validate()
    return g


def wavy_pair_gauge(wave_a=0.25, phase_a=0.0, wave_b=0.18, phase_b=1.2):
    """a and b realize two wavy great circles, so their tangent images
    cross transversally."""
    a = from_tangent_image(wavy_circle_path(wave=wave_a, phase=phase_a), k=3)
    b = from_tangent_image(wavy_circle_path(wave=wave_b, phase=phase_b),
                           k=3, period=a.period)
    g = OrthogonalGauge(a, b, metadata={"name": "wavy-pair"})
    g.validate()
    return g


# ---------------------------------------------------------------------------
# random couples (Fourier position + scaled normal velocity)

def fourier_loop_deriv(n, modes=(), radius=1.0):
    """gamma0' of a circle of the given radius in the first two
    coordinates of R^n plus Fourier modes (m, c, s), each adding
    c cos(m x) + s sin(m x) (c, s in R^n) to gamma0."""
    def deriv(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (n,))
        out[..., 0] = -radius * np.sin(x)
        out[..., 1] = radius * np.cos(x)
        for m, c, s in modes:
            u = -m * np.sin(m * x)
            w = m * np.cos(m * x)
            for j in range(n):
                out[..., j] += u * c[j] + w * s[j]
        return out

    return deriv


def normal_velocity_fields(deriv, rho, n):
    """Couple fields x -> (gamma0'(x), rho(x) N(x)) for a unit normal N
    of gamma0': the rotated tangent in n = 2, otherwise e3 minus its
    tangential part, renormalized."""
    def fields(x):
        x = np.asarray(x, dtype=float)
        gp = deriv(x)
        if n == 2:
            g0, g1 = gp[..., 0], gp[..., 1]
            speed = np.sqrt(g0 * g0 + g1 * g1)
            r = rho(x)
            v = np.empty_like(gp)
            v[..., 0] = r * -(g1 / speed)
            v[..., 1] = r * (g0 / speed)
            return gp, v
        unit = gp / np.linalg.norm(gp, axis=-1, keepdims=True)
        ref = np.zeros(n)
        ref[2] = 1.0
        normal = ref - unit * (unit @ ref)[..., None]
        normal = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
        return gp, rho(x)[..., None] * normal

    return fields


def fourier_couple(seed=0, modes=3, v_scale=0.5):
    """Random periodic admissible planar couple: a unit circle perturbed
    by Fourier modes 2..modes+1, with velocity field v0 = rho(x) * N(x)
    along the unit normal.  Closed by construction; immersion and
    subluminality are guaranteed by the amplitude budget."""
    rng = np.random.default_rng(seed)
    ms = np.arange(2, modes + 2)
    coef_c = rng.normal(size=(len(ms), 2)) / ms[:, None] ** 2
    coef_s = rng.normal(size=(len(ms), 2)) / ms[:, None] ** 2
    # scale so the perturbation of gamma0' stays below 1/2, keeping the
    # base circle an immersion with definite margin
    budget = float(((np.abs(coef_c) + np.abs(coef_s)) * ms[:, None]).sum())
    scale = 0.5 / budget if budget > 0 else 0.0
    coef_c *= scale
    coef_s *= scale
    phase = rng.uniform(0.0, TWO_PI)
    base = rng.normal(scale=0.2, size=2)
    fields = normal_velocity_fields(
        fourier_loop_deriv(2, list(zip(ms, coef_c, coef_s))),
        lambda x: v_scale * (0.6 + 0.4 * np.sin(x + phase)), 2)
    return AdmissibleCouple(fields, TWO_PI, 2, base,
                            metadata={"seed": seed, "modes": modes})


def random_planar_gauge(seed=0, modes=3, v_scale=0.5):
    """Random n = 2 gauge in the periodic class, via a Fourier couple."""
    from .gauge import gauge_from_couple, normalize
    couple = normalize(fourier_couple(seed=seed, modes=modes,
                                      v_scale=v_scale))
    g = gauge_from_couple(couple)
    g.metadata["name"] = f"random-planar-{seed}"
    return g
