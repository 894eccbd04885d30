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
MOMENT_TOL = 1e-12        # accepted change of a segment moment on doubling
LP_TOL = 1e-9             # pivot, reduced-cost and feasibility tolerance
NNLS_TOL = 1e-14          # smallest relative gradient entering the NNLS set

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


def _simplex(c, a, b):
    """A minimizer of c.x subject to a x = b, x >= 0, or None when no x is
    feasible.  The problem must be bounded below.

    Dense two-phase tableau simplex that cannot cycle (see
    ``_simplex_pivots``).  Phase 1 minimizes the sum of one artificial
    per row, and the program is infeasible when that sum stays above
    LP_TOL (relative); a basic artificial left at level 0 is pivoted out
    or, if its row is redundant, dropped with the row.  The optimal basis
    is solved once more from ``a`` and ``b``, so x carries no pivoting
    error.
    """
    m, n = a.shape
    flip = np.where(b < 0.0, -1.0, 1.0)
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a * flip[:, None]
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b * flip
    t[m, :n] = -t[:m, :n].sum(axis=0)
    t[m, -1] = -t[:m, -1].sum()
    basis = np.arange(n, n + m)
    _simplex_pivots(t, basis, n + m)
    if -t[m, -1] > LP_TOL * max(1.0, np.abs(b).sum()):
        return None
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= n):
        j = np.flatnonzero(np.abs(t[i, :n]) > LP_TOL)
        if j.size:
            _pivot(t, basis, i, j[0])
        else:
            keep[i] = False
    rows = np.flatnonzero(keep)
    t = np.vstack([t[rows][:, np.r_[:n, -1]], np.zeros(n + 1)])
    basis = basis[rows]
    t[-1, :n] = c
    t[-1] -= c[basis] @ t[:-1]
    _simplex_pivots(t, basis, n)
    x = np.zeros(n)
    x[basis] = np.linalg.solve(a[rows][:, basis], b[rows])
    return x


def _simplex_pivots(t, basis, n):
    """Pivot the tableau ``t`` (last row: reduced costs and -objective)
    until no column j < n has a reduced cost below -LP_TOL.

    The entering column has the most negative reduced cost (Dantzig's
    rule), except after as many consecutive degenerate pivots as ``t``
    has rows: from there until the objective next falls, the lowest such
    column enters and ties in the ratio test leave by the lowest basic
    variable (Bland's rule, Bland 1977).  A cycle would consist of
    degenerate pivots alone, so it would reach Bland's rule, which cannot
    cycle."""
    stalled = 0
    while True:
        cost = t[-1, :n]
        bland = stalled >= len(t)
        j = int(np.argmax(cost < -LP_TOL)) if bland else int(np.argmin(cost))
        if cost[j] >= -LP_TOL:
            return
        col = t[:-1, j]
        rows = np.flatnonzero(col > LP_TOL)
        if not rows.size:
            raise PreconditionError("linear program is unbounded")
        ratio = t[rows, -1] / col[rows]
        tied = rows[ratio <= ratio.min()]
        i = tied[np.argmin(basis[tied])]
        stalled = stalled + 1 if t[i, -1] <= LP_TOL * col[i] else 0
        _pivot(t, basis, i, j)


def _pivot(t, basis, i, j):
    t[i] /= t[i, j]
    col = t[:, j].copy()
    col[i] = 0.0
    t -= np.outer(col, t[i])
    basis[i] = j


def _nnls(a, b):
    """argmin |a x - b| over x >= 0 by the active-set method of Lawson &
    Hanson (1974).

    While the passive set holds fewer columns than ``a`` has rows, the
    column of largest gradient w = a^T (b - a x) above NNLS_TOL (relative)
    enters it; a column whose least-squares coefficient is not positive
    on entry is rejected for that step.  The least-squares solution z on
    the passive set is accepted once positive; until then x moves toward
    z as far as stays feasible, and the coordinates that reach 0 leave.
    """
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = a.T @ b
    floor = NNLS_TOL * np.abs(a).max() * np.abs(b).sum()
    while passive.sum() < m:
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        if passive[j] or w[j] <= floor:
            break
        passive[j] = True
        idx = np.flatnonzero(passive)
        z = np.linalg.lstsq(a[:, idx], b, rcond=None)[0]
        if z[np.searchsorted(idx, j)] <= 0.0:
            passive[j] = False
            w[j] = 0.0
            continue
        while not (z > 0.0).all():
            neg = np.flatnonzero(z <= 0.0)
            xs = x[idx]
            step = xs[neg] / (xs[neg] - z[neg])
            k = int(np.argmin(step))
            xs += step[k] * (z - xs)
            xs[neg[k]] = 0.0
            x[idx] = xs
            passive[idx[xs <= 0.0]] = False
            x[~passive] = 0.0
            idx = np.flatnonzero(passive)
            z = np.linalg.lstsq(a[:, idx], b, rcond=None)[0]
        x[idx] = z
        w = a.T @ (b - a @ x)
    return x


def _dwell_lengths(a_eq, b_eq, a_ub, b_ub):
    """min sum(ell) s.t. a_eq ell = b_eq, a_ub ell <= b_ub, ell >= ELL_MIN;
    None when infeasible.  Solved as ell = ELL_MIN + x, x >= 0, with one
    slack per row of a_ub."""
    (n_eq, n), n_ub = a_eq.shape, len(a_ub)
    a = np.zeros((n_eq + n_ub, n + n_ub))
    a[:n_eq, :n] = a_eq
    a[n_eq:, :n] = a_ub
    a[n_eq:, n:] = np.eye(n_ub)
    b = np.concatenate([b_eq, b_ub]) - ELL_MIN * a[:, :n].sum(axis=1)
    x = _simplex(np.r_[np.ones(n), np.zeros(n_ub)], a, b)
    return None if x is None else ELL_MIN + x[:n]


def _hull_interior_lp(points):
    """max t s.t. sum(lam_i p_i) = 0, sum(lam) = 1, lam_i >= t.

    Positive optimum certifies that 0 admits a strictly positive convex
    combination of the points (relative-interior containment).  With
    lam = t + mu, mu >= 0, the row sum(lam) = 1 gives t = (1 - sum(mu)) / m,
    so the problem is: min sum(mu) s.t. sum(mu_i (p_i - pbar)) = -pbar,
    with pbar the mean point: n equality rows in standard form.
    """
    m, _ = points.shape
    pbar = points.mean(axis=0)
    mu = _simplex(np.ones(m), (points - pbar).T, -pbar)
    if mu is None:
        return -np.inf
    return float((1.0 - mu.sum()) / m)


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


def _segment_moments(cfun, params, k):
    """(prev, moment): the starts of the moving segments prev[i] ->
    params[i] of ``cfun``, mapped as one moving-only PlateauSpline, and
    their summed integrals.  Each segment's 16 Gauss-Legendre panels are
    doubled (up to 4096) until a doubling moves its integral by at most
    MOMENT_TOL, and it keeps the coarser integral; each level is one
    quadrature call over the segments not yet converged."""
    prev = np.concatenate([[params[-1] - C_PERIOD], params[:-1]])
    ramp = PlateauSpline(prev, params - prev, prev, params - prev, k)
    f = lambda y: cfun(ramp(y))
    active = np.arange(len(params))
    seg = None
    for n in 16 * 2 ** np.arange(9):
        edges = np.linspace(prev[active], params[active], n + 1, axis=1)
        finer = _panel_gl(f, edges[:, :-1].ravel(), edges[:, 1:].ravel())
        finer = finer.reshape(len(active), n, -1).sum(axis=1)
        if seg is None:
            seg = finer
            continue
        moving = np.linalg.norm(finer - seg[active], axis=1) > MOMENT_TOL
        seg[active[moving]] = finer[moving]
        active = active[moving]
        if not active.size:
            break
    return prev, seg.sum(axis=0)


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

    n_start = dim + 1 + len(pinned)
    for q in range(n_start, max(4 * dim, n_start) + 1, 2):
        idx = _greedy_farthest(image, q, seeds=pinned_idx if pinned_idx else [0])
        params = sorted(set(
            [us[i] for i in idx if i not in pinned_idx] + pin_params))
        params = np.array(params)
        _, moment0 = _segment_moments(cfun, params, k)
        # augment with the positive-combination support of the moment
        # equation over all image samples, so the dwell cone is feasible
        sol = _nnls(image.T, -moment0)
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
        prev, moment = _segment_moments(cfun, params, k)
        a_ub = np.empty((len(pinned), len(params)))
        for row, (u0, frac) in zip(a_ub, pinned):
            # frac * sum(ell) - ell_j <= -frac * C_PERIOD
            row[:] = frac
            row[int(np.argmin(np.abs(params - (u0 % C_PERIOD))))] -= 1.0
        ell = _dwell_lengths(pts.T, -moment, a_ub,
                             np.array([-frac * C_PERIOD for _, frac in pinned]))
        if ell is not None:
            break
    else:
        raise PreconditionError(
            "dwell-length solve failed: linear program infeasible")

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
