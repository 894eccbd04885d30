"""Box-counting dimension estimation of sampled singular sets.

Box counting substitutes Hausdorff dimension; the two coincide for the
self-similar product sets measured here.  An estimate is the
least-squares slope of log N against log 1/eps over a geometric ladder
of scales, reported with its fit quality and a confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .gauge import OrthogonalGauge
from .surface import gamma

DEFAULT_SCALES = tuple(2.0 ** -j for j in range(3, 10))
MIN_R2 = 0.98


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


@dataclass
class PointCloud:
    points: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise PreconditionError("point cloud must be a nonempty (m, d) array")
        # drop duplicates at 1e-12 resolution, keeping first occurrences in
        # input order; the rounded keys stay float, since an int64 cast
        # overflows once |coordinate| exceeds ~9.2e6
        order, first = _row_groups(np.round(pts / 1e-12))
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


def box_count(cloud: PointCloud, scales=DEFAULT_SCALES):
    """Occupied-box counts over the scale ladder and the fitted slope of
    log N versus log(1/eps)."""
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    if len(scales) < 5:
        raise PreconditionError("at least 5 scales required")
    if np.any(np.diff(scales) >= 0):
        raise PreconditionError("scales must be strictly decreasing")
    diam = cloud.diameter
    if scales[0] > 0.25 * diam:
        raise PreconditionError(
            f"largest scale {scales[0]:.3g} exceeds diameter/4 = {diam / 4:.3g}")
    counts = []
    lo = cloud.points.min(axis=0)
    for eps in scales:
        # anchor at the cloud corner; the relative nudge keeps points that
        # sit a few ulps below a cell edge (exactly aligned self-similar
        # data) from leaking into a spurious extra cell
        cells = np.floor((cloud.points - lo) / eps + 1e-9).astype(np.int64)
        counts.append(np.count_nonzero(_row_groups(cells)[1]))
    counts = np.asarray(counts)
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
        pts = []
        for s in s_vals:
            xs = s - ts
            gm = gamma(g, ts, xs)
            pts.append(np.column_stack([ts, gm]))
        cloud = PointCloud(np.vstack(pts),
                           provenance={"gauge": g.metadata.get("name", "?"),
                                       "resolution": resolution,
                                       "which": which})
        return cloud

    from .singular import classify_sing_star, find_antipodal_pairs
    report = find_antipodal_pairs(g)
    pts = []
    for comp in report.components:
        cc = classify_sing_star(g, comp)
        keep = cc.sing_star == "yes" or which == "sing"
        if not keep:
            continue
        for p in comp.pairs:
            pts.append(p.point(g))
    if not pts:
        raise PreconditionError("no strict singular points at this resolution")
    return PointCloud(np.array(pts),
                      provenance={"gauge": g.metadata.get("name", "?"),
                                  "resolution": resolution, "which": which})
