"""Periodic unit-speed curves, stored tangent-first.

A curve is represented by its unit tangent field and a basepoint; the
position is recovered by integrating the tangent.  This makes the
unit-speed constraint structural rather than approximate.  The module
also provides the constructive realization of a closed curve whose
tangent image is a prescribed closed spherical curve (dwell plateaus at
selected image points, lengths solved by linear programming), and
``PlateauSpline``, the kernel behind every chain of constant pieces and
smoothstep ramps in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .quadrature import PrefixIntegrator, _panel_gl

C_PERIOD = 2.0 * np.pi    # period of a tangent image c
IMAGE_SAMPLES = 1024      # samples of c for the hull test and dwell search
HULL_TOL = 1e-9           # smallest accepted hull margin
ELL_MIN = 1e-3            # shortest dwell of from_tangent_image

NORM_TOL = 1e-9           # largest accepted tangent norm / periodicity error
PAIR_TOL = 1e-8           # largest residual of an accepted antipodal pair


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    return np.atleast_1d(x), x.ndim == 0


class TangentRep:
    """Base class for unit-tangent representations.

    ``rep(x, order=0)`` is the unit tangent at x for order 0 and its
    exact x-derivative for order 1, each of shape x.shape + (dim,).
    """

    breakpoints = ()

    def __init__(self, period, dim):
        self.period = float(period)
        self.dim = int(dim)

    def __call__(self, x, order=0):
        raise NotImplementedError


class AngleTangent(TangentRep):
    """Planar tangent e^{i alpha(x)} given by a (lifted) angle function."""

    def __init__(self, alpha, period, alpha_prime, breakpoints=()):
        super().__init__(period, 2)
        self.alpha = alpha
        self.alpha_prime = alpha_prime
        self.breakpoints = tuple(breakpoints)

    def __call__(self, x, order=0):
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.alpha(x))
        if order == 0:
            return np.stack([np.cos(a), np.sin(a)], axis=-1)
        ap = np.asarray(self.alpha_prime(x))
        return ap[..., None] * np.stack([-np.sin(a), np.cos(a)], axis=-1)


class PeriodicCubicSpline:
    """Periodic interpolating cubic spline through ``values[j]`` at the m
    uniform nodes j*h, h = period/m (values of shape (m,) or (m, d)).

    The second derivatives M solve the cyclic system
    M[j-1] + 4 M[j] + M[j+1] = 6 (y[j-1] - 2 y[j] + y[j+1]) / h^2
    (de Boor, *A Practical Guide to Splines*).  It is circulant with
    symbol 4 + 2 cos(2 pi k/m) >= 2, so one real FFT solves it.  Piece j
    is stored as the power basis ``coef[j] = (c0, c1, c2, c3)`` in
    u = y - j h, and a query at x reads piece floor(mod(x, period)/h).
    """

    def __init__(self, values, period):
        y = np.asarray(values, dtype=float)
        m = len(y)
        self.period = float(period)
        self.h = h = self.period / m
        y_next = np.roll(y, -1, axis=0)
        rhs = np.fft.rfft(y_next - 2.0 * y + np.roll(y, 1, axis=0), axis=0)
        symbol = 4.0 + 2.0 * np.cos(2.0 * np.pi / m * np.arange(len(rhs)))
        rhs /= symbol.reshape((-1,) + (1,) * (y.ndim - 1))
        M = np.fft.irfft(rhs, n=m, axis=0) * (6.0 / (h * h))
        M_next = np.roll(M, -1, axis=0)
        slope = (y_next - y) / h - h * (2.0 * M + M_next) / 6.0
        self.coef = np.stack([y, slope, 0.5 * M, (M_next - M) / (6.0 * h)],
                             axis=1)

    def _locate(self, x):
        """Coefficients of the piece of each x and the offset u in it."""
        y = np.mod(x.ravel(), self.period)
        j = (y / self.h).astype(np.intp)
        np.minimum(j, len(self.coef) - 1, out=j)    # mod may round up to P
        u = (y - j * self.h).reshape((-1,) + (1,) * (self.coef.ndim - 2))
        return self.coef[j], u

    @staticmethod
    def _horner(c, u, order):
        if order == 0:
            return ((c[:, 3] * u + c[:, 2]) * u + c[:, 1]) * u + c[:, 0]
        return (3.0 * c[:, 3] * u + 2.0 * c[:, 2]) * u + c[:, 1]

    def __call__(self, x, order=0):
        """Value (order 0) or x-derivative (order 1) at x, of shape
        x.shape + values.shape[1:]."""
        x = np.asarray(x, dtype=float)
        c, u = self._locate(x)
        return self._horner(c, u, order).reshape(x.shape + self.coef.shape[2:])

    def value_and_slope(self, x):
        """``(self(x), self(x, 1))`` from one piece lookup."""
        x = np.asarray(x, dtype=float)
        c, u = self._locate(x)
        shape = x.shape + self.coef.shape[2:]
        return tuple(self._horner(c, u, r).reshape(shape) for r in (0, 1))


class SphereSamplesTangent(TangentRep):
    """Dense samples on the unit sphere, interpolated and renormalized.

    Samples are taken at m uniform nodes over one period (node j at
    j*P/m).  Componentwise periodic cubic interpolation (one
    :class:`PeriodicCubicSpline`), renormalized on evaluation so the
    unit-norm invariant degrades only through the direction, never the
    length; order 1 is the exact derivative of the renormalized spline.
    """

    def __init__(self, samples, period):
        samples = np.asarray(samples, dtype=float)
        super().__init__(period, samples.shape[1])
        norms = np.linalg.norm(samples, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-3):
            raise PreconditionError("sphere samples are not unit vectors")
        self.samples = samples / norms[:, None]
        self._spline = PeriodicCubicSpline(self.samples, self.period)

    def __call__(self, x, order=0):
        if order == 0:
            v = self._spline(x)
            return v / np.linalg.norm(v, axis=-1, keepdims=True)
        v, dv = self._spline.value_and_slope(x)
        nrm = np.linalg.norm(v, axis=-1, keepdims=True)
        t = v / nrm
        return dv / nrm - t * (t * dv).sum(axis=-1, keepdims=True) / nrm


class CallableTangent(TangentRep):
    """Tangent given by a vectorized callable ``fn(x, order)`` returning
    the unit tangent (order 0) or its exact x-derivative (order 1)."""

    def __init__(self, fn, period, dim, breakpoints=()):
        super().__init__(period, dim)
        self.fn = fn
        self.breakpoints = tuple(breakpoints)

    def __call__(self, x, order=0):
        return np.asarray(self.fn(np.asarray(x, dtype=float), order),
                          dtype=float)


@dataclass
class ClosureReport:
    defect: float
    closed: bool


@dataclass
class UnitSpeedCurve:
    """Periodic curve with |a'(x)| = 1, evaluated by tangent integration."""

    rep: TangentRep
    basepoint: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.basepoint = np.asarray(self.basepoint, dtype=float)
        if self.basepoint.shape != (self.rep.dim,):
            raise PreconditionError("basepoint dimension mismatch")
        self._prefix = None

    @property
    def period(self):
        return self.rep.period

    @property
    def dim(self):
        return self.rep.dim

    def tangent(self, x):
        xb, scalar = _as_batch(x)
        out = self.rep(xb)
        return out[0] if scalar else out

    def tangent_derivative(self, x):
        xb, scalar = _as_batch(x)
        out = self.rep(xb, 1)
        return out[0] if scalar else out

    def _integrator(self):
        if self._prefix is None:
            self._prefix = PrefixIntegrator(
                self.rep, self.period, n_panels=2048,
                breakpoints=self.rep.breakpoints)
        return self._prefix

    def position(self, x):
        """basepoint + integral of the tangent from 0 to x."""
        xb, scalar = _as_batch(x)
        out = self.basepoint + self._integrator().integral(xb)
        return out[0] if scalar else out

    def drift(self):
        """Integral of the tangent over one period (zero for closed curves)."""
        return self._integrator().per_period.copy()

    def closure_defect(self):
        defect = float(np.linalg.norm(self.drift()))
        return ClosureReport(defect=defect, closed=defect <= 1e-6 * self.period)

    def validate(self, samples=10000):
        """Check unit norm and periodicity of the tangent on a sample grid."""
        x = np.linspace(0.0, self.period, samples, endpoint=False)
        return self._checked_tangent(x)[1:]

    def _checked_tangent(self, x):
        """(tangent at x, norm error, periodicity error), after checking
        the unit norm and the periodicity of the tangent at x."""
        t = self.tangent(x)
        norm_err = float(np.abs(np.linalg.norm(t, axis=1) - 1.0).max())
        per_err = float(np.abs(self.tangent(x + self.period) - t).max())
        if norm_err > NORM_TOL:
            raise PreconditionError(
                f"tangent norm deviates by {norm_err:.3e} "
                f"(tolerance {NORM_TOL:.1e})")
        if per_err > NORM_TOL:
            raise PreconditionError(
                f"tangent not periodic: deviation {per_err:.3e}")
        return t, norm_err, per_err

    def shifted(self, x0, new_basepoint=None):
        """Same curve with parameter origin moved to x0."""
        rep = self.rep
        base = self.position(x0) if new_basepoint is None else np.asarray(new_basepoint, float)
        breaks = np.mod(np.asarray(rep.breakpoints, float) - x0, rep.period)
        new_rep = CallableTangent(
            lambda y, order: rep(y + x0, order), rep.period, rep.dim,
            breakpoints=breaks)
        return UnitSpeedCurve(new_rep, base, metadata=dict(self.metadata))


def smoothstep(k):
    """Monotone [0,1]->[0,1] polynomial of degree 2k+1 with derivatives
    1..k vanishing at both ends."""
    from math import comb
    coeffs = np.zeros(2 * k + 2)
    for j in range(k + 1):
        coeffs[k + 1 + j] = comb(k + j, j) * comb(2 * k + 1, k - j) * (-1) ** j
    return np.polynomial.Polynomial(coeffs)


class PlateauSpline:
    """Chain of smoothstep ramps and constant pieces, evaluated by one
    ``searchsorted``.

    Piece j starts at ``starts[j]``, has width ``widths[j]`` and runs from
    ``v0[j]`` to ``v0[j] + dv[j]`` along ``smoothstep(k)``; ``dv[j] == 0``
    is a dwell, where the polynomial is not evaluated.  The end pieces
    extend to infinity (u is clipped to [0, 1]).  Widths are stored
    rather than differenced from the starts, so u is computed exactly as
    the caller defines its pieces.
    """

    def __init__(self, starts, widths, v0, dv, k):
        self.starts = np.asarray(starts, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.v0 = np.asarray(v0, dtype=float)
        self.dv = np.asarray(dv, dtype=float)
        self.dwell = self.dv == 0.0
        s = smoothstep(k)
        self._s = [s.deriv(r) for r in range(2 * k + 2)]

    def index(self, x):
        """Piece containing each x."""
        j = np.searchsorted(self.starts, x, side="right") - 1
        return np.clip(j, 0, len(self.starts) - 1)

    def ramp(self, x, j, order):
        """Order-``order`` derivative at x on ramp pieces j = index(x)."""
        u = np.clip((x - self.starts[j]) / self.widths[j], 0.0, 1.0)
        if order == 0:
            return self.v0[j] + self.dv[j] * self._s[0](u)
        return self.dv[j] * self._s[order](u) / self.widths[j] ** order

    def __call__(self, x, order=0):
        """Order-``order`` derivative at x: exactly v0 and +0.0 on dwells."""
        x = np.asarray(x, dtype=float)
        j = self.index(x)
        out = np.asarray(self.v0[j]) if order == 0 else np.zeros(x.shape)
        move = ~self.dwell[j]
        out[move] = self.ramp(x[move], j[move], order)
        return out


def _hull_interior_lp(points):
    """max t s.t. sum(lam_i p_i) = 0, sum(lam) = 1, lam_i >= t.

    Positive optimum certifies that 0 admits a strictly positive convex
    combination of the points (relative-interior containment).  Solved
    as lam = t + mu, mu >= 0: n + 1 equality rows and bounds only.
    """
    m, n = points.shape
    # variables: mu (m), t
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.empty((n + 1, m + 1))
    a_eq[:n, :m] = points.T
    a_eq[:n, m] = points.sum(axis=0)
    a_eq[n, :m] = 1.0
    a_eq[n, m] = m
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    from scipy.optimize import linprog
    res = linprog(c, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * m + [(None, 1.0)], method="highs")
    if not res.success:
        return -np.inf
    return float(-res.fun)


class _TangentImageRep(TangentRep):
    """Tangent c(spline(y)), y = mod(x * scale, natural_period), of the
    assembled move/dwell field; dwell pieces gather their precomputed
    vectors."""

    def __init__(self, c, spline, dwell_vecs, natural_period, scale, period,
                 breakpoints):
        super().__init__(period, dwell_vecs.shape[1])
        self.c = c
        self.spline = spline
        self.dwell_vecs = dwell_vecs
        self.natural_period = natural_period
        self.scale = scale  # natural parameter per output parameter
        self.breakpoints = tuple(breakpoints)

    def _locate(self, x):
        """Pieces of x, and the positions and pieces of its moving points."""
        y = np.mod(np.asarray(x, dtype=float) * self.scale,
                   self.natural_period)
        j = self.spline.index(y)
        move = ~self.spline.dwell[j]
        return j, move, y[move], j[move]

    # the (m, dim) temporaries of c set the peak memory, so the index
    # arrays are released before calling it
    def __call__(self, x, order=0):
        j, move, ym, jm = self._locate(x)
        if order == 0:
            out = np.take(self.dwell_vecs, j, axis=0)
            u = self.spline.ramp(ym, jm, 0)
            del j, ym, jm
            out[move] = self.c(u)
            return out
        u = self.spline.ramp(ym, jm, 0)
        rate = self.spline.ramp(ym, jm, 1) * self.scale
        del j, ym, jm
        out = np.zeros(move.shape + self.dwell_vecs.shape[1:])
        out[move] = self.c(u, 1) * rate[:, None]
        return out


def _greedy_farthest(points, count, seeds):
    """Indices of a farthest-point sample of ``points`` (chordal metric)
    that starts from the indices ``seeds``."""
    chosen = list(seeds)
    d = np.full(len(points), np.inf)
    for i in chosen:
        d = np.minimum(d, np.linalg.norm(points - points[i], axis=1))
    while len(chosen) < count:
        i = int(np.argmax(d))
        chosen.append(i)
        d = np.minimum(d, np.linalg.norm(points - points[i], axis=1))
    return chosen


def from_tangent_image(c, k=3, period=None, pinned=()):
    """Closed unit-speed curve whose tangent image is the closed spherical
    curve ``c``.

    ``c`` is either a vectorized spherical path ``c(u, order=0)`` on
    S^{n-1} of period ``C_PERIOD`` (2 pi), returning the point (order 0)
    or its exact u-derivative (order 1), or an (m, n) array of samples
    over that period, interpolated by a :class:`SphereSamplesTangent`.
    Requires 0 to admit a strictly positive convex combination of the
    sampled image (checked by linear feasibility).  ``pinned`` is a
    sequence of (u, min_fraction) forcing a dwell at c(u) occupying at
    least ``min_fraction`` of the final period.

    The construction selects dwell points by farthest-point sampling,
    reparametrizes the moving segments by a degree-(2k+1) plateau map
    whose derivatives 1..k vanish at the junctions, and solves a linear
    program for positive dwell lengths that cancel the moving segments'
    integral, so the assembled curve closes.  The result's tangent
    derivative is exact: the chain rule through ``c``'s order-1
    derivative and the plateau map.
    """
    cfun = c if callable(c) else SphereSamplesTangent(c, C_PERIOD)

    dim = cfun(np.array([0.0])).shape[-1]
    us = np.linspace(0.0, C_PERIOD, IMAGE_SAMPLES, endpoint=False)
    image = cfun(us)

    t_star = _hull_interior_lp(image[::IMAGE_SAMPLES // 256])
    if not np.isfinite(t_star) or t_star <= HULL_TOL:
        raise PreconditionError("convex hull does not contain origin")

    poly = smoothstep(k)

    # fast path: the image integral already vanishes, so c itself is the
    # tangent field of a closed curve and no dwells are needed
    if not pinned:
        edges = np.linspace(0.0, C_PERIOD, 257)
        raw = _panel_gl(cfun, edges[:-1], edges[1:]).sum(axis=0)
        if np.linalg.norm(raw) <= 1e-10 * C_PERIOD:
            scale = 1.0 if period is None else C_PERIOD / float(period)
            out_period = C_PERIOD if period is None else float(period)
            rep_out = CallableTangent(
                lambda x, order: cfun(x * scale, order) * scale ** order,
                out_period, dim)
            return UnitSpeedCurve(rep_out, np.zeros(dim),
                                  metadata={"dwells": [], "hull_margin": t_star})

    pinned = list(pinned)
    circ = lambda d: np.minimum(np.mod(d, C_PERIOD), C_PERIOD - np.mod(d, C_PERIOD))
    pinned_idx = [int(np.argmin(circ(us - u0))) for u0, _ in pinned]
    pin_params = [u0 % C_PERIOD for u0, _ in pinned]

    def segment_moment(params):
        prev = np.concatenate([[params[-1] - C_PERIOD], params[:-1]])
        moment = np.zeros(dim)
        for lo, hi in zip(prev, params):
            edges = np.linspace(lo, hi, 17)
            moment += _panel_gl(
                lambda y, lo=lo, hi=hi: cfun(lo + (hi - lo) * poly((y - lo) / (hi - lo))),
                edges[:-1], edges[1:]).sum(axis=0)
        return prev, moment

    from scipy.optimize import linprog, nnls
    n_start = dim + 1 + len(pinned)
    last_err = None
    for q in range(n_start, max(4 * dim, n_start) + 1, 2):
        idx = _greedy_farthest(image, q, seeds=pinned_idx if pinned_idx else [0])
        params = sorted(set(
            [us[i] for i in idx if i not in pinned_idx] + pin_params))
        params = np.array(params)
        _, moment0 = segment_moment(params)
        # augment with the positive-combination support of the moment
        # equation over all image samples, so the dwell cone is feasible
        sol, _ = nnls(image.T, -moment0)
        support = [us[i] for i in np.where(sol > 1e-9)[0]]
        params = np.array(sorted(set(params.tolist() + support)))
        # merge junctions closer than a minimum separation (short moving
        # segments would concentrate curvature); pinned params survive
        min_sep = C_PERIOD / 64.0
        merged = [params[0]]
        for u in params[1:]:
            if u - merged[-1] >= min_sep or u in pin_params:
                if u in pin_params and u - merged[-1] < min_sep \
                        and merged[-1] not in pin_params:
                    merged.pop()
                merged.append(u)
        if (merged[0] + C_PERIOD) - merged[-1] < min_sep and \
                merged[-1] not in pin_params and len(merged) > 1:
            merged.pop()
        params = np.array(merged)
        pts = cfun(params)
        prev, moment = segment_moment(params)
        target = -moment

        # project the moment equation onto the span of the dwell points
        u_svd, s_svd, _ = np.linalg.svd(pts.T, full_matrices=True)
        rank = int((s_svd > 1e-9 * s_svd.max()).sum())
        basis = u_svd[:, :rank]
        resid_perp = np.linalg.norm(target - basis @ (basis.T @ target))
        if resid_perp > 1e-9 * max(1.0, np.linalg.norm(target)):
            last_err = "moment outside dwell-point span"
            continue
        a_eq = basis.T @ pts.T          # rank x q
        b_eq = basis.T @ target
        a_ub, b_ub = None, None
        if pinned:
            rows = []
            rhs = []
            for (u0, frac) in pinned:
                j = int(np.argmin(np.abs(params - (u0 % C_PERIOD))))
                row = np.full(len(params), frac)
                row[j] = frac - 1.0
                rows.append(row)           # frac*sum(l) - l_j <= -frac*cP
                rhs.append(-frac * C_PERIOD)
            a_ub = np.array(rows)
            b_ub = np.array(rhs)
        res = linprog(np.ones(len(params)), A_ub=a_ub, b_ub=b_ub,
                      A_eq=a_eq, b_eq=b_eq,
                      bounds=(ELL_MIN, None), method="highs")
        if res.success:
            ell = res.x
            # polish the equality residual with a pseudo-inverse correction
            r = target - pts.T @ ell
            corr, *_ = np.linalg.lstsq(pts.T, r, rcond=None)
            if np.all(ell + corr >= 0.5 * ELL_MIN):
                ell = ell + corr
            break
        last_err = "linear program infeasible"
    else:
        raise PreconditionError(
            f"dwell-length solve failed: {last_err or 'no feasible point set'}")

    natural_period = C_PERIOD + float(ell.sum())
    scale = 1.0 if period is None else natural_period / float(period)
    out_period = natural_period if period is None else float(period)

    # pieces alternate: move prev[i] -> params[i], then dwell at params[i]
    n_pieces = 2 * len(params)
    ends = np.cumsum(np.column_stack([params - prev, ell]).ravel())
    starts = np.concatenate([[0.0], ends[:-1]])
    v0 = np.column_stack([prev, params]).ravel()
    dv = np.zeros(n_pieces)
    dv[0::2] = params - prev
    spline = PlateauSpline(starts, ends - starts, v0, dv, k)
    dwell_vecs = np.zeros((n_pieces, dim))
    dwell_vecs[1::2] = pts
    dwells = list(zip(starts[1::2] / scale, ends[1::2] / scale,
                      params.tolist()))

    rep_out = _TangentImageRep(cfun, spline, dwell_vecs, natural_period,
                               scale, out_period, starts / scale)
    return UnitSpeedCurve(rep_out, np.zeros(dim),
                          metadata={"dwells": dwells, "hull_margin": t_star})
