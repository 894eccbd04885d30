"""Box-counting dimension estimation of sampled singular sets.

Box counting substitutes Hausdorff dimension; the two coincide for the
self-similar product sets measured here.  An estimate is the
least-squares slope of log N against log 1/eps over a geometric ladder
of scales, reported with its fit quality and a confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .gauge import OrthogonalGauge
from .surface import _read_once

DEFAULT_SCALES = tuple(2.0 ** -j for j in range(3, 10))
MIN_R2 = 0.98
BOX_BLOCK = 2 ** 16             # cloud rows per block of the packed box keys


def _row_groups(keys):
    """Group equal rows of an (m, d) key array with one stable lexsort.

    Returns ``order``, the stable lexicographic row order, and ``first``,
    a mask in that order that is True on the first row of each run of
    equal rows: ``count_nonzero(first)`` distinct rows, and
    ``order[first]`` the input index of each one's first occurrence.
    """
    order = np.lexsort(keys.T[::-1])
    srt = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    first[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    return order, first


def _distinct_keys(col):
    """True when no two entries of col round to the same 1e-12 key."""
    key = col / 1e-12
    np.round(key, out=key)
    key.sort()
    return not (key[1:] == key[:-1]).any()


@dataclass
class PointCloud:
    points: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise PreconditionError("point cloud must be a nonempty (m, d) array")
        if not np.isfinite(pts).all():
            raise PreconditionError("point cloud coordinates must be finite")
        # drop duplicates at 1e-12 resolution, keeping first occurrences in
        # input order; the rounded keys stay float, since an int64 cast
        # overflows once |coordinate| exceeds ~9.2e6.  Rows are distinct as
        # soon as one column's keys are, which one 1-D sort shows; columns
        # are tried last first (the last coordinate of a sampled surface
        # varies most), and only a cloud with no such column is grouped by
        # the row lexsort.  A cloud that drops no row keeps ``pts`` itself
        self.points = pts
        if any(_distinct_keys(pts[:, j]) for j in reversed(range(pts.shape[1]))):
            return
        keys = pts / 1e-12
        np.round(keys, out=keys)
        order, first = _row_groups(keys)
        if not first.all():
            self.points = pts[np.sort(order[first])]

    @property
    def diameter(self):
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))


@dataclass
class SlopeEstimate:
    scales: np.ndarray
    counts: np.ndarray
    slope: float
    stderr: float
    r2: float
    reliable: bool

    @property
    def ci(self):
        return (self.slope - self.stderr, self.slope + self.stderr)


def _count_boxes(pts, lo, hi, eps):
    """Number of occupied boxes of side eps anchored at the corner lo.

    A point's box is ``floor((p - lo) / eps + 1e-9)`` per coordinate: the
    relative nudge keeps points that sit a few ulps below a cell edge
    (exactly aligned self-similar data) from leaking into a spurious extra
    cell.  The same operations on the column maxima hi give each column's
    extent, so the boxes pack by mixed radix into one int64 key, built a
    column at a time over blocks of BOX_BLOCK rows; equal consecutive keys
    of a block (the cloud runs along characteristics) are dropped before
    one 1-D sort of all blocks' keys, which also merges a run cut at a
    block edge.  Extents whose product reaches 2**62 fall back to grouping
    the integer rows.
    """
    ext = np.floor((hi - lo) / eps + 1e-9).astype(np.int64) + 1
    if math.prod(ext.tolist()) >= 2 ** 62:
        cells = np.floor((pts - lo) / eps + 1e-9).astype(np.int64)
        return np.count_nonzero(_row_groups(cells)[1])
    keys = np.empty(len(pts), dtype=np.int64)
    filled = 0
    for r0 in range(0, len(pts), BOX_BLOCK):
        rows = pts[r0:r0 + BOX_BLOCK]
        key = np.zeros(len(rows), dtype=np.int64)
        for j in range(pts.shape[1]):
            c = rows[:, j] - lo[j]
            c /= eps
            c += 1e-9
            key *= ext[j]
            key += np.floor(c, out=c).astype(np.int64)
        key = key[np.concatenate([[True], key[1:] != key[:-1]])]
        keys[filled:filled + len(key)] = key
        filled += len(key)
    keys = keys[:filled]
    keys.sort()
    return 1 + np.count_nonzero(keys[1:] != keys[:-1])


def box_count(cloud: PointCloud, scales=DEFAULT_SCALES):
    """Occupied-box counts over the scale ladder and the fitted slope of
    log N versus log(1/eps)."""
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    if len(scales) < 5:
        raise PreconditionError("at least 5 scales required")
    if np.any(np.diff(scales) >= 0):
        raise PreconditionError("scales must be strictly decreasing")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    if scales[0] > 0.25 * diam:
        raise PreconditionError(
            f"largest scale {scales[0]:.3g} exceeds diameter/4 = {diam / 4:.3g}")
    counts = np.array([_count_boxes(cloud.points, lo, hi, eps) for eps in scales])
    x = np.log(1.0 / scales)
    y = np.log(counts.astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt(ss_res / dof / ((x - x.mean()) ** 2).sum()))
    return SlopeEstimate(scales=scales, counts=counts, slope=float(slope),
                         stderr=stderr, r2=float(r2), reliable=r2 >= MIN_R2)


def singstar_cloud(g: OrthogonalGauge, resolution=1024, which="sing_star"):
    """Sampled strict-singular-set image points of a gauge.

    Gauges built by the sharp-dimension construction carry their
    predicted characteristic set in metadata and are sampled over the
    (predicted set) x (time window) product grid; other gauges fall back
    to the classifier's strict singular points.
    """
    pred = g.metadata.get("cantor_prediction")
    if pred is not None:
        s_vals = np.asarray(pred["sigma_sing" if which == "sing"
                                 else "sigma_star"])
        t_lo, t_hi = pred["t_window"]
        ts = np.linspace(t_lo, t_hi, resolution)
        # one (t, gamma) block of rows per characteristic, written in place
        pts = np.empty((len(s_vals) * resolution, 1 + g.dim))
        for i, s in enumerate(s_vals):
            # gamma(g, ts, xs) with a read once per distinct x + t: on a
            # characteristic (s - ts) + ts rounds to one or few values
            xs = s - ts
            rows = slice(i * resolution, (i + 1) * resolution)
            pts[rows, 0] = ts
            gm = pts[rows, 1:]
            np.add(_read_once(g.a.position, xs + ts), g.b.position(xs - ts),
                   out=gm)
            gm *= 0.5
        cloud = PointCloud(pts,
                           provenance={"gauge": g.metadata.get("name", "?"),
                                       "resolution": resolution,
                                       "which": which})
        return cloud

    from .singular import classify_sing_star, find_antipodal_pairs
    classed = [classify_sing_star(g, comp)
               for comp in find_antipodal_pairs(g).components]
    pts = [cc.points(g) for cc in classed
           if cc.sing_star == "yes" or which == "sing"]
    if not pts:
        raise PreconditionError("no strict singular points at this resolution")
    return PointCloud(np.concatenate(pts),
                      provenance={"gauge": g.metadata.get("name", "?"),
                                  "resolution": resolution, "which": which})
