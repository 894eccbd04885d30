"""Admissible initial couples and the orthogonal-gauge representation.

A couple is a periodic immersed curve together with an orthogonal,
subluminal velocity field, held as one vectorized callable
``fields(x) -> (gamma0'(x), v0(x))``.  Normalization reparametrizes it
so that |gamma0'|^2 + |v0|^2 = 1, after which the two unit-speed
half-wave curves are read off algebraically:

    a' = gamma0' + v0,      b' = gamma0' - v0.

``gauge_from_couple`` reads the fields once per node set and checks
normalization on its bake nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import (CallableTangent, SphereSamplesTangent, UnitSpeedCurve,
                     _as_batch)
from .errors import PreconditionError
from .quadrature import PrefixIntegrator


@dataclass
class AdmissibleCouple:
    """Initial data (gamma0, v0) as one vectorized callable
    ``fields(x) -> (gamma0'(x), v0(x))``, two float arrays of shape
    x.shape + (dim,).

    gamma0 is reconstructed as basepoint + integral of gamma0'.
    """

    fields: object
    period: float
    dim: int
    basepoint: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.basepoint = np.asarray(self.basepoint, dtype=float)
        self._prefix = None

    def gamma0(self, x):
        if self._prefix is None:
            self._prefix = PrefixIntegrator(
                lambda y: self.fields(y)[0], self.period, n_panels=2048,
                breakpoints=self.metadata.get("breakpoints", ()))
        xb, scalar = _as_batch(x)
        out = self.basepoint + self._prefix.integral(xb)
        return out[0] if scalar else out

    def _check_fields(self):
        """The fields on the 2048-point check grid of ``validate`` and
        ``is_normalized``."""
        x = np.linspace(0.0, self.period, 2048, endpoint=False)
        return self.fields(x)

    def validate(self):
        return _validate_fields(*self._check_fields())

    def is_normalized(self):
        resid = _norm_residual(*self._check_fields())
        return resid <= 1e-9, resid


def _validate_fields(gp, v):
    """Orthogonality, subluminality and immersion checks of sampled
    fields; returns (ortho residual, max |v0|, min |gamma0'|)."""
    speed = np.linalg.norm(gp, axis=1)
    vmag = np.linalg.norm(v, axis=1)
    ortho = np.abs((gp * v).sum(axis=1)).max()
    if ortho > 1e-9 * max(1.0, speed.max()):
        raise PreconditionError(
            f"v0 not orthogonal to gamma0': max residual {ortho:.3e}")
    if vmag.max() >= 1.0 - 1e-9:
        raise PreconditionError("velocity not uniformly subluminal")
    if speed.min() <= 1e-6:
        raise PreconditionError("gamma0 is not an immersion (|gamma0'| ~ 0)")
    return float(ortho), float(vmag.max()), float(speed.min())


def _norm_residual(gp, v):
    """max | |gamma0'|^2 + |v0|^2 - 1 | over sampled fields."""
    return float(np.abs((gp * gp).sum(axis=1) + (v * v).sum(axis=1)
                        - 1.0).max())


def _density(couple, x):
    """|gamma0'| / sqrt(1 - |v0|^2), the speed of the normalized parameter."""
    gp, v = couple.fields(x)
    return np.linalg.norm(gp, axis=1) / np.sqrt(1.0 - (v * v).sum(axis=1))


@dataclass(eq=False)
class OrthogonalGauge:
    """A pair (a, b) of unit-speed curves with common period E0; hashed
    and compared by identity."""

    a: UnitSpeedCurve
    b: UnitSpeedCurve
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.a.dim != self.b.dim:
            raise PreconditionError("a and b live in different dimensions")
        if abs(self.a.period - self.b.period) > 1e-12 * self.a.period:
            raise PreconditionError("a and b have different periods")

    @property
    def E0(self):
        return self.a.period

    @property
    def dim(self):
        return self.a.dim

    def periodicity_defect(self):
        """|(a+b)(E0) - (a+b)(0)|; zero for members of the periodic class."""
        return float(np.linalg.norm(self.a.drift() + self.b.drift()))

    def validate(self, samples=4096):
        """Check both tangents on a sample grid (each curve is read at x
        and x + E0) and that a' + b' does not vanish on its diagonal."""
        x = np.linspace(0.0, self.E0, samples, endpoint=False)
        ta = self.a._checked_tangent(x)[0]
        tb = self.b._checked_tangent(x)[0]
        m = float(np.linalg.norm(ta + tb, axis=1).min())
        if m <= 1e-6:
            raise PreconditionError(
                f"a' + b' vanishes somewhere (min |a'+b'| = {m:.3e})")
        return m


def period_E0(couple: AdmissibleCouple):
    """Common period of the normalized couple:
    integral over one period of |gamma0'| / sqrt(1 - |v0|^2), by the
    prefix quadrature of ``normalize``."""
    return normalize(couple).period


def normalize(couple: AdmissibleCouple):
    """Equivalent couple reparametrized so |gamma0'|^2 + |v0|^2 = 1.

    The new parameter s runs over [0, E0].  The monotone change of
    variables lambda(s) is inverted by three Newton steps against the
    exact cumulative integral, seeded by linear interpolation in its
    table at 4097 uniform parameter values, and the reparametrized
    tangent uses the algebraic identity |gamma0'(lambda)| lambda'(s) =
    sqrt(1 - |v0(lambda)|^2), so the normalization holds structurally.
    """
    gp, v = couple._check_fields()           # one read serves both checks
    _validate_fields(gp, v)
    if _norm_residual(gp, v) <= 1e-9:
        return couple
    L = couple.period
    breaks = np.asarray(couple.metadata.get("breakpoints", ()), dtype=float)
    mu = PrefixIntegrator(lambda x: _density(couple, x)[:, None], L,
                          n_panels=4096, breakpoints=breaks)
    E0 = float(mu.per_period[0])
    grid = np.linspace(0.0, L, 4097)
    mu_vals = mu.integral(grid)[:, 0]

    def lam(s):
        s = np.asarray(s, dtype=float)
        wraps = np.floor(s / E0)
        y = s - wraps * E0
        # mu_vals is strictly increasing by the immersion hypothesis
        x = np.interp(y, mu_vals, grid)
        for _ in range(3):
            f = mu.integral(x)[..., 0] - y
            fp = _density(couple, np.ravel(x)).reshape(x.shape)
            x = np.clip(x - f / fp, 0.0, L)
        return x + wraps * L

    def fields(s):
        # lambda is solved once for both fields.  This closure must not
        # refer to the new couple: a reference cycle would keep every
        # normalized couple alive until a full collection.
        gp, v = couple.fields(lam(s))
        speed = np.linalg.norm(gp, axis=-1, keepdims=True)
        scale = np.sqrt(1.0 - (v * v).sum(axis=-1, keepdims=True))
        return gp / speed * scale, v

    # a breakpoint x_j of the fields sits at mu(x_j) in the new parameter
    return AdmissibleCouple(
        fields, E0, couple.dim, couple.basepoint,
        metadata={"breakpoints": tuple(mu.integral(breaks)[:, 0])})


def gauge_from_couple(couple: AdmissibleCouple):
    """Orthogonal gauge (a, b) of a normalized couple:
    a' = gamma0' + v0, b' = gamma0' - v0, with a(0) = b(0) = gamma0(0).

    The fields (gamma0', v0) are read once per node set.  Normalization
    is checked on the first bake nodes.  Each algebraic tangent field is
    resampled at uniform nodes into a ``SphereSamplesTangent``, a
    renormalized periodic cubic spline solved and evaluated in numpy;
    the resampling error is measured at the panel midpoints, and the
    node count is doubled (to at most 32768) until it is below 2e-10
    for both a' and b'.
    Piecewise couples (with breakpoints) are never baked: their tangents
    read the fields directly and, since a couple carries no field
    derivatives, their tangent derivative is a central difference.
    """
    P = couple.period
    nodes = 4096
    xs = np.linspace(0.0, P, nodes, endpoint=False)
    gp, v = couple.fields(xs)
    resid = _norm_residual(gp, v)
    if resid > 1e-9:
        raise PreconditionError(
            f"couple not normalized (residual {resid:.3e}); call normalize first")

    breaks = couple.metadata.get("breakpoints", ())
    reps = [None, None]                     # a, b
    if not breaks:
        while True:
            mids = xs + 0.5 * P / nodes
            gm, vm = couple.fields(mids)
            for i, sign in enumerate((1.0, -1.0)):
                if reps[i] is None:
                    rep = SphereSamplesTangent(gp + sign * v, P)
                    if np.abs(rep(mids) - (gm + sign * vm)).max() <= 2e-10:
                        reps[i] = rep
            if all(r is not None for r in reps) or nodes >= 32768:
                break
            nodes *= 2
            xs = np.linspace(0.0, P, nodes, endpoint=False)
            gp, v = couple.fields(xs)
    metadata = {"from_couple": True, "baked_nodes": nodes}
    if any(r is None for r in reps):
        step = 1e-6 * max(P, 1.0)

        def half_wave(sign):
            def tan(x, order):
                if order == 0:
                    gp, v = couple.fields(x)
                    return gp + sign * v
                # a couple carries no field derivatives: central difference
                return (tan(x + step, 0) - tan(x - step, 0)) / (2.0 * step)
            return tan

        reps = [CallableTangent(half_wave(sign), P, couple.dim,
                                breakpoints=breaks) for sign in (1.0, -1.0)]
        metadata = {"from_couple": True}
    g = OrthogonalGauge(UnitSpeedCurve(reps[0], couple.basepoint),
                        UnitSpeedCurve(reps[1], couple.basepoint),
                        metadata=metadata)
    g.validate()
    return g


def couple_from_gauge(g: OrthogonalGauge):
    """Normalized admissible couple of a gauge:
    gamma0 = (a + b)/2, v0 = (a' - b')/2."""
    g.validate()

    def fields(x):
        ta, tb = g.a.tangent(x), g.b.tangent(x)
        return 0.5 * (ta + tb), 0.5 * (ta - tb)

    base = 0.5 * (g.a.basepoint + g.b.basepoint)
    breaks = tuple(g.a.rep.breakpoints) + tuple(g.b.rep.breakpoints)
    return AdmissibleCouple(fields, g.E0, g.dim, base,
                            metadata={"breakpoints": breaks})


def equivalent_gauges(g1: OrthogonalGauge, g2: OrthogonalGauge,
                      x0, z0, sigma0, samples=512):
    """Check the claimed equivalence witness (x0, z0, sigma0):
    a2(x) = a1(sigma0 x + x0) + z0 and b2(x) = b1(sigma0 x + x0) - z0.

    Returns the maximum sampled deviation (a verification predicate; no
    search over witnesses is attempted).
    """
    if sigma0 not in (+1, -1):
        raise PreconditionError("sigma0 must be +1 or -1")
    z0 = np.asarray(z0, dtype=float)
    x = np.linspace(0.0, g1.E0, samples, endpoint=False)
    da = g2.a.position(x) - (g1.a.position(sigma0 * x + x0) + z0)
    db = g2.b.position(x) - (g1.b.position(sigma0 * x + x0) - z0)
    return float(max(np.abs(da).max(), np.abs(db).max()))
