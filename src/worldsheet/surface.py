"""World-sheet evaluation in the orthogonal gauge.

gamma(t,x) = (a(x+t) + b(x-t)) / 2 solves the wave equation exactly, so
the constraint residuals split into two kinds: the algebraic gauge
constraints (evaluated exactly from tangents) and the wave-operator
residual measured by central second differences.

A subtlety drives the stencil design: any symmetric stencil with equal
steps in t and x samples a and b at identical points, so the discrete
wave operator cancels *identically* on d'Alembert evaluations and no
truncation term is observable.  The residual therefore uses slightly
anisotropic steps (h_t = h, h_x = h/2), whose leading term
(h_t^2 - h_x^2)/24 * (a'''' + b'''') decays at second order.  Second
differences are computed as integrals of tangent differences, which
avoids catastrophic cancellation of position values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import OrthogonalGauge
from .quadrature import _GL_NODES, _GL_WEIGHTS

METRIC_DEGENERACY_EPS = 1e-12

# closest-point projection in slice_set_distance: coarse seed samples per
# slice, nearest samples searched and seeds kept per projected point,
# Newton step cap per seed, and the step (in coarse spacings) that ends it
SEED_SAMPLES = 4096
SEED_CANDIDATES = 32
SEED_NEIGHBOURS = 4
RUN_SAMPLES = 16          # consecutive coarse samples per ball of the search
NEWTON_STEPS = 32
NEWTON_XTOL = 1e-6


def gamma(g: OrthogonalGauge, t, x):
    """Surface point gamma(t, x); broadcasts over array arguments."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    scalar = t.ndim == 0
    tf, xf = np.ravel(t), np.ravel(x)
    out = 0.5 * (g.a.position(xf + tf) + g.b.position(xf - tf))
    out = out.reshape(t.shape + (g.dim,))
    return out[()] if not scalar else out.reshape(g.dim)


def derivatives(g: OrthogonalGauge, t, x):
    """(gamma_x, gamma_t) = half sum / half difference of the tangents."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    scalar = t.ndim == 0
    tf, xf = np.ravel(t), np.ravel(x)
    ap = g.a.tangent(xf + tf)
    bp = g.b.tangent(xf - tf)
    gx = 0.5 * (ap + bp)
    gt = 0.5 * (ap - bp)
    shape = t.shape + (g.dim,)
    gx, gt = gx.reshape(shape), gt.reshape(shape)
    if scalar:
        return gx.reshape(g.dim), gt.reshape(g.dim)
    return gx, gt


def metric_det(g: OrthogonalGauge, t, x):
    """Determinant of the induced metric, signature (-,+,...,+):
    g_tt = -1 + |gamma_t|^2, g_xx = |gamma_x|^2, g_tx = gamma_x . gamma_t."""
    return _metric_det(*derivatives(g, t, x))


def _metric_det(gx, gt):
    """metric_det from (gamma_x, gamma_t) already in hand."""
    g_tt = -1.0 + _row_dot(gt, gt)
    g_xx = _row_dot(gx, gx)
    g_tx = _row_dot(gx, gt)
    return g_tt * g_xx - g_tx ** 2


def _row_dot(u, v):
    """Row dot products of u and v: the column products added to 0.0 left
    to right.  That is (u * v).sum(-1) bit for bit below 8 columns, and
    avoids numpy's slow reduce over a short last axis."""
    out = np.zeros(u.shape[:-1])
    for k in range(u.shape[-1]):
        out += u[..., k] * v[..., k]
    return out


def _read_once(read, y):
    """read(y) for a row-wise read, calling read once per distinct value.

    y is grouped by its float64 bit pattern, so -0.0 and 0.0 (and each NaN
    payload) stay apart and the rows are bit for bit those of read(y).
    Worth its sort where values repeat by construction, as x + t and x - t
    do on a (t, x) grid: a is read only along its characteristics.
    """
    y = np.ascontiguousarray(y, dtype=float)
    u, inv = np.unique(y.view(np.int64), return_inverse=True)
    return np.take(read(u.view(float)), inv, axis=0)


def _grid_derivatives(g: OrthogonalGauge, s, sig):
    """(gamma_x, gamma_t) rows at s = x + t and sig = x - t of a grid,
    each distinct value read once."""
    ap = _read_once(g.a.tangent, s)
    bp = _read_once(g.b.tangent, sig)
    return 0.5 * (ap + bp), 0.5 * (ap - bp)


def _grid_sample(g: OrthogonalGauge, tt, xx):
    """gamma, gamma_x, gamma_t and metric_det as flat rows over the points
    of the (t, x) grid arrays tt, xx, each characteristic read once."""
    s, sig = (xx + tt).ravel(), (xx - tt).ravel()
    pts = 0.5 * (_read_once(g.a.position, s) + _read_once(g.b.position, sig))
    gx, gt = _grid_derivatives(g, s, sig)
    return pts, gx, gt, _metric_det(gx, gt)


@dataclass
class SurfaceSample:
    t: float
    x: float
    gamma: np.ndarray
    gamma_x: np.ndarray
    gamma_t: np.ndarray
    metric_det: float
    timelike: bool


def sample(g: OrthogonalGauge, t, x):
    gx, gt = derivatives(g, t, x)
    det = float(_metric_det(gx, gt))
    return SurfaceSample(t=float(t), x=float(x), gamma=gamma(g, t, x),
                         gamma_x=gx, gamma_t=gt, metric_det=det,
                         timelike=det < -METRIC_DEGENERACY_EPS)


@dataclass
class SliceCurve:
    t: float
    points: np.ndarray
    closure_gap: float


def slice_curve(g: OrthogonalGauge, t, m=512):
    """m equispaced samples of gamma(t, .) over one spatial period."""
    xs = np.linspace(0.0, g.E0, m, endpoint=False)
    pts = gamma(g, np.full(m, float(t)), xs)
    gap = float(np.linalg.norm(gamma(g, t, g.E0) - gamma(g, t, 0.0)))
    return SliceCurve(t=float(t), points=pts, closure_gap=gap)


def slice_set_distance(g1: OrthogonalGauge, g2: OrthogonalGauge, t,
                       m_sparse=512):
    """Symmetric set distance between the time-t slices of two gauges.

    Each of m_sparse equispaced samples p of one slice is projected onto
    the other slice gamma(t, .), whose tangent gamma_x = (a'(x+t) +
    b'(x-t))/2 and curvature vector gamma_xx = (a''(x+t) + b''(x-t))/2 are
    known in closed form.

    Seeds: of the SEED_CANDIDATES samples nearest to p among SEED_SAMPLES
    equispaced samples of the other slice, the SEED_NEIGHBOURS nearest at
    which the sampled distance has a local minimum along the slice (padded
    with the nearest other candidates).  Bracket: each seed x_j stays in
    [x_j - h, x_j + h], h = E0 / SEED_SAMPLES.  Newton on f(x) = |r|^2 / 2,
    r = gamma(t,x) - p, with f' = r.gamma_x and f'' = |gamma_x|^2 +
    r.gamma_xx; where f'' <= 0 (near a singular point gamma_x = 0, or past
    a local maximum of f) no step is taken, and every iterate is clipped
    to its bracket.  A seed stops once its step is below NEWTON_XTOL * h
    or after NEWTON_STEPS steps; the cap is set by the linear convergence
    (ratio 2/3) of Newton at a cusp, where f has a quartic minimum.

    A point's distance is the least over its nearest sample and its Newton
    end points, so every value is the distance to an actual point of the
    curve, also where gamma_x = 0: an upper bound on the true
    point-to-curve distance that is exact to rounding once Newton has
    converged.  Reparametrizations of the same curve therefore read as
    ~1e-15, while set differences on parameter windows wider than the
    sparse spacing are detected.
    """
    d = 0.0
    for ga, gb in ((g1, g2), (g2, g1)):
        sparse = slice_curve(ga, t, m=m_sparse).points
        d = max(d, float(_project_distances(gb, float(t), sparse).max()))
    return d


def _project_distances(g: OrthogonalGauge, t, pts):
    """Distance from each row of pts to the slice gamma(t, .) of g, by
    safeguarded Newton from coarse samples (see slice_set_distance)."""
    xs = np.linspace(0.0, g.E0, SEED_SAMPLES, endpoint=False)
    coarse = gamma(g, np.full(SEED_SAMPLES, t), xs)
    near_dist, near = _nearest_samples(coarse, pts, SEED_CANDIDATES)
    x = xs[_local_minimum_seeds(coarse, pts, near)].ravel()
    h = g.E0 / SEED_SAMPLES
    lo, hi = x - h, x + h
    p = np.repeat(pts, SEED_NEIGHBOURS, axis=0)
    active = np.arange(len(x))
    for _ in range(NEWTON_STEPS):
        xa, pa = x[active], p[active]
        r = gamma(g, t, xa) - pa
        s, sig = xa + t, xa - t
        gx = 0.5 * (g.a.tangent(s) + g.b.tangent(sig))
        gxx = 0.5 * (g.a.tangent_derivative(s) + g.b.tangent_derivative(sig))
        f1 = (r * gx).sum(axis=1)
        f2 = (gx * gx).sum(axis=1) + (r * gxx).sum(axis=1)
        convex = f2 > 0
        step = np.where(convex, -f1 / np.where(convex, f2, 1.0), 0.0)
        x[active] = np.clip(xa + step, lo[active], hi[active])
        active = active[np.abs(x[active] - xa) > NEWTON_XTOL * h]
        if not active.size:
            break
    end_dist = np.linalg.norm(gamma(g, t, x) - p, axis=1)
    end_dist = end_dist.reshape(-1, SEED_NEIGHBOURS).min(axis=1)
    return np.minimum(near_dist[:, 0], end_dist)


def _nearest_samples(samples, pts, k):
    """(distances, indices) of the k rows of ``samples`` nearest to each
    row of pts, nearest first; equal distances are ordered by the lower
    sample index.  Each distance is the root of the sum of squared
    coordinate differences in coordinate order, as in a k-d tree query.

    Exact search over one level of balls, each a run of RUN_SAMPLES
    consecutive samples about its mean c, of radius r.  The k-th nearest
    sample of the fewest balls of least |p - c| + r that hold k samples
    bounds the k-th distance U; only balls with |p - c| - r <= U (plus a
    rounding margin) can hold a nearer sample, and their samples are
    ranked exactly.  len(samples) is a multiple of RUN_SAMPLES."""
    n, dim = samples.shape
    rows = np.arange(len(pts))
    runs = samples.reshape(n // RUN_SAMPLES, RUN_SAMPLES, dim)
    # coordinate j of sample r * RUN_SAMPLES + i at runs_j[j, r, i]
    runs_j = np.ascontiguousarray(samples.T).reshape(dim, -1, RUN_SAMPLES)

    def sq_dist(ball, p):
        """(len(ball), RUN_SAMPLES) squared distances from the rows of p
        to the samples of their balls, summed in coordinate order."""
        out = 0.0
        for j in range(dim):
            diff = runs_j[j][ball] - p[:, j, None]
            out = out + diff * diff
        return out

    centre = runs.mean(axis=1)
    radius = np.sqrt(sq_dist(np.arange(len(runs)), centre).max(axis=1))
    # |p - c| from the product form, lowered by its rounding bound
    # 1e-13 (|p|^2 + |c|^2) on the square
    pp, cc = (pts * pts).sum(axis=1), (centre * centre).sum(axis=1)
    dc = np.column_stack([pts, np.ones(len(pts))]) @ np.vstack(
        [-2.0 * centre.T, cc])
    dc += (pp - 1e-13 * (pp.max() + cc.max()))[:, None]
    np.sqrt(np.maximum(dc, 0.0, out=dc), out=dc)
    outer = dc + radius
    few = np.empty((len(pts), -(-k // RUN_SAMPLES)), dtype=np.intp)
    for j in range(few.shape[1]):
        few[:, j] = np.argmin(outer, axis=1)
        outer[rows, few[:, j]] = np.inf
    bound = np.partition(
        sq_dist(few.ravel(), np.repeat(pts, few.shape[1], axis=0)).reshape(
            len(pts), -1), k - 1, axis=1)[:, k - 1]
    slack = 1e-12 * (np.abs(samples).max() + np.abs(pts).max())
    dc -= radius
    hit, ball = np.nonzero(dc <= (np.sqrt(bound) + slack)[:, None])
    # each row's candidate balls side by side in sample order; empty
    # places hold distance inf
    count = np.bincount(hit, minlength=len(pts))
    slot = np.arange(len(hit)) - np.repeat(np.cumsum(count) - count, count)
    balls = np.zeros((len(pts), count.max()), dtype=np.intp)
    balls[hit, slot] = ball
    d2 = np.full((len(pts), count.max(), RUN_SAMPLES), np.inf)
    d2[hit, slot] = sq_dist(ball, pts[hit])
    d2 = d2.reshape(len(pts), -1)
    # the k least; ties at the k-th value go to the lowest indices
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    keep = d2 <= kth
    if np.count_nonzero(keep) > k * len(pts):
        tie = d2 == kth
        keep &= (d2 < kth) | (np.cumsum(tie, axis=1) <= k - (
            d2 < kth).sum(axis=1, keepdims=True))
    col = np.nonzero(keep)[1].reshape(-1, k)
    d2 = np.take_along_axis(d2, col, axis=1)
    idx = (np.take_along_axis(balls, col // RUN_SAMPLES, axis=1) * RUN_SAMPLES
           + col % RUN_SAMPLES)
    order = np.argsort(d2, axis=1, kind="stable")
    return (np.sqrt(np.take_along_axis(d2, order, axis=1)),
            np.take_along_axis(idx, order, axis=1))


def _local_minimum_seeds(coarse, pts, near):
    """The SEED_NEIGHBOURS nearest of the candidate samples near (indices
    into coarse, nearest first) at which the sampled distance to pts has a
    local minimum along the slice; rows short of minima are padded with
    the nearest other candidates.  The foot of a point on a smooth arc lies
    within one coarse spacing of such a minimum, whereas the plain nearest
    samples can all crowd onto other, slow arcs where the slice nearly
    touches itself."""
    n = len(coarse)

    def dist(idx):
        return np.linalg.norm(coarse[idx % n] - pts[:, None, :], axis=2)

    d = dist(near)
    minimum = (d <= dist(near - 1)) & (d <= dist(near + 1))
    cols = np.argsort(~minimum, axis=1, kind="stable")[:, :SEED_NEIGHBOURS]
    return np.take_along_axis(near, cols, axis=1)


def _second_difference(curve, ys, h):
    """f(y+h) + f(y-h) - 2 f(y) computed as the integral over [0, h] of
    tangent(y+u) - tangent(y-h+u); no large-term cancellation."""
    ys = np.asarray(ys, dtype=float)
    nodes = h * _GL_NODES
    pts_plus = ys[:, None] + nodes[None, :]
    pts_minus = ys[:, None] - h + nodes[None, :]
    tp = curve.tangent(pts_plus.ravel()).reshape(len(ys), len(nodes), -1)
    tm = curve.tangent(pts_minus.ravel()).reshape(len(ys), len(nodes), -1)
    return h * ((tp - tm) * _GL_WEIGHTS[None, :, None]).sum(axis=1)


def _wave_residual(g, ts, xs, h):
    """Max |discrete wave operator| on the grid at steps (h, h/2)."""
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    h_t, h_x = h, 0.5 * h

    def both_steps(curve):
        return lambda y: np.stack([_second_difference(curve, y, h_t),
                                   _second_difference(curve, y, h_x)], axis=1)

    num = (_read_once(both_steps(g.a), (xx + tt).ravel())
           + _read_once(both_steps(g.b), (xx - tt).ravel()))
    num_t, num_x = num[:, 0], num[:, 1]
    resid = 0.5 * (num_t / h_t ** 2 - num_x / h_x ** 2)
    return float(np.linalg.norm(resid, axis=1).max())


@dataclass
class ConstraintReport:
    gauge_residual: float       # max | |g_x|^2 + |g_t|^2 - 1 |
    ortho_residual: float       # max | g_x . g_t |
    wave_residual: float        # at step h
    wave_residual_half: float   # at step h/2
    wave_ratio: float           # expected ~4 for a second-order stencil
    wave_constant: float        # C with residual <= C h^2
    h: float
    grid: tuple


def constraint_residuals(g: OrthogonalGauge, n_t=200, n_x=200, h=1e-3,
                         wave_grid=48):
    """Exact residuals of the two gauge constraints on an n_t x n_x grid,
    plus the central-difference wave residual at h and h/2."""
    ts = np.linspace(0.0, g.E0, n_t, endpoint=False)
    xs = np.linspace(0.0, g.E0, n_x, endpoint=False)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    gx, gt = _grid_derivatives(g, (xx + tt).ravel(), (xx - tt).ravel())
    gauge_res = float(np.abs(_row_dot(gx, gx) + _row_dot(gt, gt) - 1.0).max())
    ortho_res = float(np.abs(_row_dot(gx, gt)).max())

    ts_w = np.linspace(0.0, g.E0, wave_grid, endpoint=False)
    xs_w = np.linspace(0.0, g.E0, wave_grid, endpoint=False) + 0.37 * g.E0 / wave_grid
    w1 = _wave_residual(g, ts_w, xs_w, h)
    w2 = _wave_residual(g, ts_w, xs_w, 0.5 * h)
    ratio = w1 / w2 if w2 > 0 else np.inf
    return ConstraintReport(
        gauge_residual=gauge_res, ortho_residual=ortho_res,
        wave_residual=w1, wave_residual_half=w2, wave_ratio=ratio,
        wave_constant=w1 / h ** 2, h=h, grid=(n_t, n_x))
