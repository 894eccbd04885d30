"""Sphere diagrams of (a', -b') and their topological invariants.

The diagram disjointness margin is the global immersion margin; winding
(n = 3) and linking (n = 4) numbers label connected components of the
smooth regime.  Both invariants are computed through stereographic
projection from a maximal-clearance center, with integer stability
checks under sample doubling and center re-selection.  The linking
number's value comes from the Gauss integral at the primary center
only; its two checks are exact signed crossing counts of a generic
planar projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, UnderResolvedError
from .gauge import OrthogonalGauge
from .singular import find_antipodal_pairs

EPS_DIAG = 1e-4
GEODESIC_SAMPLES = 64           # arc samples of the clear-geodesic test
NEAREST_BLOCK = 128             # query rows per block of the nearest-point scan
PROBE_NODES = 4096              # tangent nodes of a perturbed curve
PROBE_MODES = 8                 # Fourier modes per perturbation component
PROBE_NEWTON_STEPS = 6          # Newton steps of a perturbation's re-closure
PROBE_CLOSURE_TOL = 1e-12       # Newton stop; times max(1, period), the discard limit
TRANSVERSAL_COND = 1e6          # largest Jacobian condition of a transversal pair
PROBE_TABLES = 8                # point sets whose probe tables a basis keeps


@dataclass
class SphereDiagram:
    curve_a: np.ndarray          # samples of a' on S^{n-1}
    curve_mb: np.ndarray         # samples of -b'
    min_distance: float
    disjoint: bool
    source: object = None        # originating gauge, when available
    m: int = 0

    @property
    def dim(self):
        return self.curve_a.shape[1]


def _gram_argmax(A, MB):
    """(i, j, max) of the Gram matrix A @ MB.T: its largest entry and the
    first place it occurs in row-major order.

    Row blocks follow ``_nearest_distance``'s rule (at most NEAREST_BLOCK
    rows and 2**19 scores), so the scan holds one block, not the m x m
    matrix; a later block takes over only on a strictly larger maximum."""
    block = max(1, min(NEAREST_BLOCK, 2 ** 19 // len(MB)))
    score = np.empty((min(block, len(A)), len(MB)))
    best = (0, 0, -np.inf)
    for i0 in range(0, len(A), block):
        rows = A[i0:i0 + block]
        s = score[:len(rows)]
        np.matmul(rows, MB.T, out=s)
        i, j = np.unravel_index(np.argmax(s), s.shape)
        if s[i, j] > best[2]:
            best = (i0 + int(i), int(j), s[i, j])
    return best


def _min_pair_distance(A, MB):
    """min over samples of |a'(s) - (-b'(sigma))| via the Gram trick."""
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * _gram_argmax(A, MB)[2])))


def _diagram_samples(g: OrthogonalGauge, m):
    """The diagram curves a'(s) and -b'(s) at m equispaced s per period."""
    s = np.linspace(0.0, g.E0, m, endpoint=False)
    return s, g.a.tangent(s), -g.b.tangent(s)


def diagram(g: OrthogonalGauge, m=1024):
    """Sampled sphere diagram with a locally refined minimum distance."""
    if m > 4096:
        raise PreconditionError("diagram sampling capped at 4096 per curve")
    if m < 1:
        raise PreconditionError("diagram needs at least one sample per curve")
    s, A, MB = _diagram_samples(g, m)
    i, j, _ = _gram_argmax(A, MB)
    # local refinement of the closest approach
    lo_s, lo_o = s[i], s[j]
    span = g.E0 / m
    for _ in range(4):
        ss = np.linspace(lo_s - span, lo_s + span, 33)
        oo = np.linspace(lo_o - span, lo_o + span, 33)
        Af = g.a.tangent(ss)
        MBf = -g.b.tangent(oo)
        ii, jj, gmax = _gram_argmax(Af, MBf)
        lo_s, lo_o = ss[ii], oo[jj]
        best = np.sqrt(max(0.0, 2.0 - 2.0 * gmax))
        span /= 8.0
    return SphereDiagram(curve_a=A, curve_mb=MB, min_distance=float(best),
                         disjoint=float(best) > EPS_DIAG, source=g, m=m)


def synthetic_diagram(curve_a, curve_mb):
    """Diagram from raw sample arrays (no originating gauge)."""
    A = np.asarray(curve_a, dtype=float)
    MB = np.asarray(curve_mb, dtype=float)
    if A.ndim != 2 or MB.ndim != 2 or not len(A) or not len(MB):
        raise PreconditionError("diagram curves must be nonempty (m, n) arrays")
    d = _min_pair_distance(A, MB)
    return SphereDiagram(curve_a=A, curve_mb=MB, min_distance=d,
                         disjoint=d > EPS_DIAG, m=len(A))


def _rotation_to_pole(q, dim):
    """Orientation-preserving rotation sending unit q to the last axis."""
    e = np.zeros(dim)
    e[-1] = 1.0
    c = float(q @ e)
    if c > 1.0 - 1e-14:
        return np.eye(dim)
    if c < -1.0 + 1e-14:
        # rotate by pi in the (e, f) plane for any f orthogonal to e
        f = np.zeros(dim)
        f[0] = 1.0
        R = np.eye(dim)
        R -= 2.0 * np.outer(e, e)
        R -= 2.0 * np.outer(f, f)
        return R
    w = q - c * e
    w = w / np.linalg.norm(w)
    s = float(q @ w)
    block = np.array([[c, s], [-s, c]])
    P = np.stack([e, w])                 # 2 x dim
    return np.eye(dim) - np.outer(e, e) - np.outer(w, w) + P.T @ block @ P


def _stereographic(points, center):
    """Project S^{n-1} points from ``center`` to R^{n-1}."""
    R = _rotation_to_pole(np.asarray(center, dtype=float), points.shape[1])
    rot = points @ R.T
    denom = 1.0 - rot[:, -1]
    if np.any(np.abs(denom) < 1e-12):
        raise PreconditionError("projection center touches a curve sample")
    return rot[:, :-1] / denom[:, None]


def _fibonacci_sphere(n):
    """Quasi-uniform points on S^2."""
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + 5 ** 0.5) * k
    return np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)


def _candidate_centers(dim, n):
    if dim == 3:
        return _fibonacci_sphere(n)
    rng = np.random.default_rng(1234)
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _nearest_distance(points, queries):
    """Distance from each query row to its nearest row of ``points``, the
    same bits as a k-d tree query.

    Blocks of at most NEAREST_BLOCK queries (fewer when the points are
    many, so a block's scores fill at most 4 MB) take the scores
    q.p - |p|^2/2 of all points in one product; the nearest point has the
    largest score up to rounding.  Its distance is the root of the sum of
    squared coordinate differences in coordinate order.  Where the second
    largest score of a row comes within a rounding margin of the largest,
    the row takes the least distance over every point within that margin."""
    n, dim = points.shape
    pts = np.column_stack([points, 0.5 * (points * points).sum(axis=1)]).T
    margin = 1e-12 * dim * np.abs(points).max() * (
        np.abs(queries).max() + np.abs(points).max())
    block = max(1, min(NEAREST_BLOCK, 2 ** 19 // n))
    score = np.empty((min(block, len(queries)), n))
    d2 = np.empty(len(queries))
    for i0 in range(0, len(queries), block):
        q = queries[i0:i0 + block]
        s, r = score[:len(q)], np.arange(len(q))
        np.matmul(np.column_stack([q, np.full(len(q), -1.0)]), pts, out=s)
        c = s.argmax(axis=1)
        floor = s[r, c] - margin
        d2[i0:i0 + len(q)] = _sq_dist(q, points[c])
        s[r, c] = -np.inf
        tied = np.flatnonzero(s.max(axis=1) >= floor)
        if tied.size:
            tr, tc = np.nonzero(s[tied] >= floor[tied, None])
            np.minimum.at(d2, i0 + tied[tr], _sq_dist(q[tied[tr]], points[tc]))
    return np.sqrt(d2)


def _sq_dist(a, b):
    """Squared distances of the rows a - b, summed in coordinate order."""
    diff = a - b
    out = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        out += diff[..., k] * diff[..., k]
    return out


def _clear_geodesic(q1, q2, points):
    """True if the great-circle arc q1 -> q2 stays EPS_DIAG away from
    the diagram curve samples ``points`` (a same-component certificate
    for the centers).  The caller passes centers at least 0.5 rad apart."""
    dot = float(np.clip(q1 @ q2, -1.0, 1.0))
    ang = np.arccos(dot)
    ts = np.linspace(0.0, 1.0, GEODESIC_SAMPLES)
    arc = (np.sin((1 - ts) * ang)[:, None] * q1
           + np.sin(ts * ang)[:, None] * q2) / np.sin(ang)
    return bool(_nearest_distance(points, arc).min() >= EPS_DIAG)


def _projection_centers(d: SphereDiagram, n_candidates):
    """(primary, second or None) projection centers among ``n_candidates``:
    the candidate of largest clearance from both curves, then the next one
    at least 0.5 rad away with clearance >= max(2 EPS_DIAG, half the
    primary's), joined to it by a clear geodesic on S^2."""
    points = np.vstack([d.curve_a, d.curve_mb])
    cands = _candidate_centers(d.dim, n_candidates)
    clearance = _nearest_distance(points, cands)
    order = np.argsort(-clearance)
    if clearance[order[0]] < EPS_DIAG:
        raise PreconditionError("no projection center with required clearance")
    q1 = cands[order[0]]
    floor = max(2 * EPS_DIAG, 0.5 * clearance[order[0]])
    for idx in order[1:]:
        if clearance[idx] < floor:
            break
        q2 = cands[idx]
        if float(q1 @ q2) > np.cos(0.5):
            continue
        if d.dim != 3 or _clear_geodesic(q1, q2, points):
            return q1, q2
    return q1, None


def _planar_winding(loop, z):
    """Winding numbers of a closed planar polyline around each row of z,
    and each one's distance from the nearest integer, as two arrays."""
    rel = loop - z[:, None, :]                              # (len(z), m, 2)
    ang = np.arctan2(rel[..., 1], rel[..., 0])
    inc = np.diff(ang, axis=1, append=ang[:, :1])
    inc = np.mod(inc + np.pi, 2.0 * np.pi) - np.pi
    total = inc.sum(axis=1) / (2.0 * np.pi)
    w = np.round(total)
    return w.astype(int), np.abs(total - w)


def winding_number(d: SphereDiagram):
    """Winding of the projected a'-curve around the -b'-curve (n = 3).

    The projection center maximizes clearance from both curves; a second
    center, certified to lie in the same complement component through a
    clear-geodesic test, must reproduce the value.
    """
    if d.dim != 3:
        raise PreconditionError("winding number requires diagram on S^2")
    if not d.disjoint:
        raise PreconditionError("diagram curves intersect")

    q1, q2 = _projection_centers(d, 4096)

    def value(center, A, MB):
        pa = _stereographic(A, center)
        pm = _stereographic(MB, center)
        # pm[0] and ~8 representative points of the projected -b' curve,
        # which must all agree
        w, resid = _planar_winding(
            pa, np.vstack([pm[:1], pm[1::max(1, len(pm) // 8)]]))
        if resid[0] > 0.05:
            raise UnderResolvedError("winding integral far from an integer")
        if (w != w[0]).any():
            raise UnderResolvedError(
                "winding depends on the representative point; "
                "diagram under-resolved")
        return int(w[0])

    w1 = value(q1, d.curve_a, d.curve_mb)

    if d.source is not None:
        _, A2, MB2 = _diagram_samples(d.source, 2 * d.m)
        w2 = value(q1, A2, MB2)
        if w2 != w1:
            raise UnderResolvedError("winding unstable under sample doubling")

    if q2 is not None and value(q2, d.curve_a, d.curve_mb) != w1:
        raise UnderResolvedError(
            "winding differs between same-component centers")
    return w1


def _gauss_linking_polylines(P, Q):
    """Signed linking number integral of two closed polylines in R^3
    (exact per segment pair, up to rounding).  Pair (i, j) reads
    D = P - Q at (i, j), (i, j+1), (i+1, j+1), (i+1, j): each block forms
    D as three planes, and its norms and adjacent dot products, once.
    3-term sums run left to right, as numpy's length-3 reductions do.

    The per-pair angles of a block of 256 P segments fill one reused
    buffer, 16 P segments at a time, so no temporary exceeds
    17 x (len(Q) + 1); each block's buffer is summed once."""
    Pc = np.vstack([P, P[:1]])
    Qc = np.vstack([Q, Q[:1]])
    total = 0.0
    block, chunk = 256, 16
    angles = np.empty((min(block, len(P)), len(Q)))
    for i0 in range(0, len(P), block):
        nb = min(block, len(P) - i0)
        for r0 in range(0, nb, chunk):
            r1 = min(r0 + chunk, nb)
            _gauss_pair_angles(Pc[i0 + r0:i0 + r1 + 1], Qc, angles[r0:r1])
        total += angles[:nb].sum()
    return total / (2.0 * np.pi)


def _gauss_pair_angles(Pc, Qc, out):
    """Into ``out``: the solid-angle terms arctan2(p, d1) + arctan2(p, d2)
    of the segment pairs of the polylines Pc and Qc (vertex rows)."""
    x, y, z = (Pc[:, k, None] - Qc[None, :, k] for k in range(3))
    norm = np.sqrt(x * x + y * y + z * z)
    H = x[:, :-1] * x[:, 1:] + y[:, :-1] * y[:, 1:] + z[:, :-1] * z[:, 1:]
    V = x[:-1] * x[1:] + y[:-1] * y[1:] + z[:-1] * z[1:]
    a = (x[:-1, :-1], y[:-1, :-1], z[:-1, :-1])
    b = (x[:-1, 1:], y[:-1, 1:], z[:-1, 1:])
    c = (x[1:, 1:], y[1:, 1:], z[1:, 1:])
    na, nb = norm[:-1, :-1], norm[:-1, 1:]
    nc, nd = norm[1:, 1:], norm[1:, :-1]
    ab, dc = H[:-1], H[1:]
    ad, bc = V[:, :-1], V[:, 1:]
    ca = c[0] * a[0] + c[1] * a[1] + c[2] * a[2]
    p = (a[0] * (b[1] * c[2] - b[2] * c[1])
         + a[1] * (b[2] * c[0] - b[0] * c[2])
         + a[2] * (b[0] * c[1] - b[1] * c[0]))
    d1 = na * nb * nc + ab * nc + bc * na + ca * nb
    d2 = na * nd * nc + ad * nc + dc * na + ca * nd
    np.add(np.arctan2(p, d1), np.arctan2(p, d2), out=out)


CROSSING_ROTATIONS = 8          # projection directions tried before giving up
CROSSING_TOL = 1e-9             # crossing parameter distance to an endpoint


def _generic_rotation(k):
    """The k-th fixed pseudo-random proper rotation of R^3."""
    Qm, Rm = np.linalg.qr(np.random.default_rng(k).normal(size=(3, 3)))
    Qm = Qm * np.sign(np.diag(Rm))
    if np.linalg.det(Qm) < 0:
        Qm[:, 0] = -Qm[:, 0]
    return Qm


def _signed_crossings(P, Q):
    """Linking number of two closed polylines from the crossings of their
    xy-projections, or None when the projection is not generic.

    A P segment p0 + t dp crosses a Q segment q0 + u dq where t, u lie in
    [0, 1); the crossing has sign sign(d_over x d_under) seen from +z.
    Lk is the signed count of the crossings where P is over Q, and again
    of those where Q is over P; the two must agree.  The projection is
    not generic when a crossing lies within CROSSING_TOL of a segment
    end, when two overlapping segments are parallel to 1e-12, or when
    the heights at a crossing differ by less than 1e-12.  The tests run
    only on the pairs whose xy bounding boxes overlap, widened by
    1e-6 (max|dp| + max|dq|).
    """
    dp = np.roll(P, -1, axis=0) - P
    dq = np.roll(Q, -1, axis=0) - Q
    p_lo = np.minimum(P, P + dp)[:, :2]
    p_hi = np.maximum(P, P + dp)[:, :2]
    q_lo = np.minimum(Q, Q + dq)[:, :2]
    q_hi = np.maximum(Q, Q + dq)[:, :2]
    pad = 1e-6 * (np.abs(dp[:, :2]).max() + np.abs(dq[:, :2]).max())
    ii, jj = _box_overlaps(p_lo, p_hi, q_lo, q_hi, pad)
    d0, d1 = dp[ii, 0], dp[ii, 1]
    e0, e1 = dq[jj, 0], dq[jj, 1]
    rx = Q[jj, 0] - P[ii, 0]
    ry = Q[jj, 1] - P[ii, 1]
    den = d0 * e1 - d1 * e0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * e1 - ry * e0) / den
        u = (rx * d1 - ry * d0) / den
    near = ((t > -CROSSING_TOL) & (t < 1.0 + CROSSING_TOL)
            & (u > -CROSSING_TOL) & (u < 1.0 + CROSSING_TOL))
    ti, uj = t[near], u[near]
    if np.any(np.abs(np.concatenate([ti, 1.0 - ti, uj, 1.0 - uj]))
              < CROSSING_TOL):
        return None
    # (nearly) parallel segment pairs whose bounding boxes meet
    par = np.abs(den) <= 1e-12 * np.hypot(e0, e1) * np.hypot(d0, d1)
    pi, pj = ii[par], jj[par]
    if np.any(np.all((p_hi[pi] >= q_lo[pj]) & (p_lo[pi] <= q_hi[pj]),
                     axis=1)):
        return None
    zp = P[ii[near], 2] + ti * dp[ii[near], 2]
    zq = Q[jj[near], 2] + uj * dq[jj[near], 2]
    if np.any(np.abs(zp - zq) < 1e-12):
        return None
    sign = np.sign(den[near])
    over = int(sign[zp > zq].sum())
    under = -int(sign[zp < zq].sum())
    return over if over == under else None


def _box_overlaps(p_lo, p_hi, q_lo, q_hi, pad):
    """Index pairs (i, j) of the boxes [p_lo, p_hi] and [q_lo, q_hi]
    (rows are 2-d boxes) that overlap once widened by ``pad``: a sweep
    over the q boxes sorted by their lower x edge."""
    order = np.argsort(q_lo[:, 0], kind="stable")
    xs = q_lo[order, 0]
    width = (q_hi[:, 0] - q_lo[:, 0]).max()
    start = np.searchsorted(xs, p_lo[:, 0] - width - pad, side="left")
    stop = np.searchsorted(xs, p_hi[:, 0] + pad, side="right")
    counts = stop - start
    ii = np.repeat(np.arange(len(p_lo)), counts)
    offset = np.arange(len(ii)) - np.repeat(np.cumsum(counts) - counts, counts)
    jj = order[np.repeat(start, counts) + offset]
    keep = np.all((q_hi[jj] >= p_lo[ii] - pad) & (q_lo[jj] <= p_hi[ii] + pad),
                  axis=1)
    return ii[keep], jj[keep]


def _crossing_linking(P, Q):
    """Exact linking number of two disjoint closed polylines in R^3: the
    signed crossing count of a generic planar projection (Rolfsen, Knots
    and Links, ch. 5D).  Non-generic projections are re-rotated."""
    for k in range(CROSSING_ROTATIONS):
        R = _generic_rotation(k)
        lk = _signed_crossings(P @ R.T, Q @ R.T)
        if lk is not None:
            return lk
    raise UnderResolvedError(
        f"no generic projection in {CROSSING_ROTATIONS} rotations")


@dataclass
class LinkingResult:
    value: int
    sign: int
    integral: float
    residual: float


def linking_number(d: SphereDiagram):
    """Linking number in S^3 of the diagram curves (n = 4), via
    stereographic projection from a maximal-clearance center.

    The value, its integral and residual come from the Gauss integral
    over segment pairs at the primary center.  Orientations are the
    parameter-increasing ones; the signed value and its absolute value
    are reported separately.  Two checks must reproduce the integer as
    exact signed crossing counts: a second projection center (the
    complement of a point in S^3 is connected, so any admissible center
    sees the same link), and the diagram at doubled sampling when the
    source gauge is known.
    """
    if d.dim != 4:
        raise PreconditionError("linking number requires diagram on S^3")
    if not d.disjoint:
        raise PreconditionError("diagram curves intersect")
    center, q2 = _projection_centers(d, 8192)

    def crossings(center, A, MB):
        return _crossing_linking(_stereographic(A, center),
                                 _stereographic(MB, center))

    lk1 = _gauss_linking_polylines(_stereographic(d.curve_a, center),
                                   _stereographic(d.curve_mb, center))
    v1 = int(np.round(lk1))
    r1 = abs(lk1 - v1)
    if r1 > 0.1:
        raise UnderResolvedError(
            f"linking integral {lk1:.4f} too far from an integer")
    if q2 is not None and crossings(q2, d.curve_a, d.curve_mb) != v1:
        raise UnderResolvedError("linking differs between projection centers")
    if d.source is not None:
        _, A2, MB2 = _diagram_samples(d.source, 2 * d.m)
        if crossings(center, A2, MB2) != v1:
            raise UnderResolvedError("linking unstable under sample doubling")
    return LinkingResult(value=v1, sign=int(np.sign(v1)) if v1 else 0,
                         integral=lk1, residual=r1)


# ---------------------------------------------------------------------------
# genericity probes in the C^1 x C^1 topology

@dataclass
class PerturbationReport:
    epsilon: float
    trials: int
    n_smooth: int
    n_singular: int
    n_discarded: int
    margins: list = field(default_factory=list)
    achieved: list = field(default_factory=list)
    closure_defects: list = field(default_factory=list)

    @property
    def outcome_counts(self):
        return {"smooth": self.n_smooth, "singular": self.n_singular}


class _ProbeBasis:
    """What every perturbation of one curve shares: the nodes, the base
    tangent and its nodal period integral, the re-closure bump (integral
    1), the mode table e^{i m omega x} at the nodes, and the tables of
    the point sets that perturbed tangents are read at."""

    def __init__(self, curve):
        P = curve.period
        self.curve = curve
        self.xs = np.linspace(0.0, P, PROBE_NODES, endpoint=False)
        self.weights = np.full(PROBE_NODES, P / PROBE_NODES)
        self.base = curve.tangent(self.xs)
        # the base's own nodal period integral: a perturbation closed to
        # it carries the base's trapezoid error over to its drift() (on
        # piecewise bases, whose ramps are only finitely smooth)
        self.target = self.weights @ self.base
        self.bump = _bump(self.xs, P)
        self.ms = np.arange(1, PROBE_MODES + 1)
        self.omega = 2.0 * np.pi / P
        self.modes = _modes(self.xs, self.omega)
        self._tables = {}

    def tables(self, x, order):
        """(rep(x), modes, bump) at the points x, plus (rep'(x), bump')
        at order 1: the trial-independent terms of a perturbed tangent.
        The first PROBE_TABLES point sets asked for are kept, which holds
        the grids that every trial's checks read again."""
        key = (order, x.shape, x.tobytes())
        out = self._tables.get(key)
        if out is None:
            rep, P = self.curve.rep, self.curve.period
            out = (rep(x), _modes(x, self.omega), _bump(x, P)[..., None])
            if order:
                out += (rep(x, 1), _bump(x, P, 1)[..., None])
            if len(self._tables) < PROBE_TABLES:
                self._tables[key] = out
        return out

    def field(self, rng):
        """The mode coefficients (cc, ss), each (PROBE_MODES, dim), of a
        random field sum_m cc_m cos(m omega x) + ss_m sin(m omega x)."""
        dim = self.curve.dim
        cc = rng.normal(size=(PROBE_MODES, dim)) / self.ms[:, None]
        ss = rng.normal(size=(PROBE_MODES, dim)) / self.ms[:, None]
        return cc, ss


def _modes(x, omega):
    """e^{i m omega x} for m = 1..PROBE_MODES, shape x.shape + (modes,),
    as running products of e^{i omega x}."""
    e = np.exp(1j * omega * x)[..., None]
    return np.cumprod(np.repeat(e, PROBE_MODES, axis=-1), axis=-1)


def _bump(x, period, order=0):
    """The re-closure bump (1 + cos(2 pi (x/P - 1/2))) / P, of integral 1
    over a period, or its x-derivative (order 1)."""
    arg = 2.0 * np.pi * (x / period - 0.5)
    if order == 0:
        return (1.0 + np.cos(arg)) / period
    return -2.0 * np.pi * np.sin(arg) / period ** 2


def _rows_norm(v):
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _perturbed_rep(basis, amp, damp, c):
    """The tangent normalize(base(x) + Re(sum_m amp_m e^{i m omega x})
    + bump(x) c) in closed form, with its exact derivative by the chain
    rule (damp_m = i m omega amp_m)."""
    from .curves import CallableTangent

    rep = basis.curve.rep

    def fn(x, order):
        tables = basis.tables(x, order)
        base, modes, bump = tables[:3]
        v = base + (modes @ amp).real + bump * c
        r = _rows_norm(v)[..., None]
        t = v / r
        if order == 0:
            return t
        dbase, dbump = tables[3:]
        dv = dbase + (modes @ damp).real + dbump * c
        return dv / r - t * (t * dv).sum(axis=-1, keepdims=True) / r

    return CallableTangent(fn, basis.curve.period, rep.dim,
                           breakpoints=rep.breakpoints)


def _perturb_curve(basis, rng, epsilon):
    """C^1-bounded band-limited perturbation of the tangent field of
    ``basis.curve``, renormalized to the sphere and re-closed to the
    original period integral by a bump-weighted constant vector c.

    The field is scaled so that its C^1 norm over the nodes is epsilon;
    Newton solves sum_nodes dx normalize(base + field + bump c) = the
    base's nodal period integral for c.  That sum is the trapezoid rule,
    spectrally exact on a periodic analytic integrand; on a piecewise
    base the new tangent shares the base's own quadrature error.  Either
    way the new curve's drift() is the base's to within the closure
    tolerance PROBE_CLOSURE_TOL * max(1, period).  Returns (new curve,
    achieved size, closure defect): the achieved size is the C^0 sup
    over the nodes of |new' - base'|, and the defect is the nodal one.
    Returns None if that defect stays above the closure tolerance."""
    from .curves import UnitSpeedCurve

    curve = basis.curve
    cc, ss = basis.field(rng)
    amp = cc - 1j * ss              # field = Re(sum_m amp_m e^{i m omega x})
    damp = 1j * basis.omega * basis.ms[:, None] * amp
    dv, dvd = (basis.modes @ amp).real, (basis.modes @ damp).real
    size = max(_rows_norm(dv).max(), _rows_norm(dvd).max())
    scale = epsilon / size
    w = basis.base + scale * dv
    bump = basis.bump
    eye = np.eye(curve.dim)
    c = np.zeros(curve.dim)
    for step in range(PROBE_NEWTON_STEPS + 1):
        v = w + bump[:, None] * c
        r = _rows_norm(v)
        u = v / r[:, None]
        defect_vec = basis.weights @ u - basis.target
        defect = float(np.linalg.norm(defect_vec))
        if defect <= PROBE_CLOSURE_TOL or step == PROBE_NEWTON_STEPS:
            break
        # dF/dc = sum_nodes dx bump (I - u u^T) / |v|
        q = basis.weights * bump / r
        jac = q.sum() * eye - (u * q[:, None]).T @ u
        c = c - np.linalg.solve(jac, defect_vec)
    if defect > PROBE_CLOSURE_TOL * max(1.0, curve.period):
        return None
    new = UnitSpeedCurve(_perturbed_rep(basis, scale * amp, scale * damp, c),
                         curve.basepoint.copy())
    ach = float(_rows_norm(u - basis.base).max())
    return new, ach, defect


def genericity_probe(g: OrthogonalGauge, epsilon, trials, seed, grid_n=256):
    """Classify ``trials`` random C^1 perturbations of the gauge as
    globally immersed or singular; quantitative openness probe."""
    rng = np.random.default_rng(seed)
    rep = PerturbationReport(epsilon=float(epsilon), trials=int(trials),
                             n_smooth=0, n_singular=0, n_discarded=0)
    basis_a, basis_b = _ProbeBasis(g.a), _ProbeBasis(g.b)
    for _ in range(trials):
        pa = _perturb_curve(basis_a, rng, epsilon)
        pb = _perturb_curve(basis_b, rng, epsilon)
        if pa is None or pb is None:
            rep.n_discarded += 1
            continue
        pert = OrthogonalGauge(pa[0], pb[0])
        try:
            pert.validate(samples=1024)
        except PreconditionError:
            rep.n_discarded += 1
            continue
        report = find_antipodal_pairs(pert, grid_n=grid_n)
        if report.empty:
            rep.n_smooth += 1
        else:
            rep.n_singular += 1
        rep.margins.append(report.min_grid_residual)
        rep.achieved.append(max(pa[1], pb[1]))
        rep.closure_defects.append(max(pa[2], pb[2]))
    return rep


def transversal_count(g: OrthogonalGauge):
    """Number of transversal antipodal intersections per fundamental
    domain (n = 3), read at each component's lowest-residual pair; errors
    out when any intersection is extended or non-transversal.  Closed
    curves on S^2 have intersection number 0, so the crossing signs
    det(a'(s), a''(s), -b''(sigma)) must sum to 0, or one was missed."""
    if g.dim != 3:
        raise PreconditionError("transversal count requires n = 3")
    comps = find_antipodal_pairs(g).components
    if any(c.kind != "isolated" for c in comps):
        raise PreconditionError(
            "count undefined: non-transversal intersection (extended component)")
    best = [np.argmin(c.residual) for c in comps]
    s = np.array([c.s[i] for c, i in zip(comps, best)])
    sigma = np.array([c.sigma[i] for c, i in zip(comps, best)])
    ja = g.a.tangent_derivative(s)
    jb = -g.b.tangent_derivative(sigma)
    sv = np.linalg.svd(np.stack([ja, jb], axis=2), compute_uv=False)
    cond = np.divide(sv[:, 0], sv[:, 1], out=np.full(len(sv), np.inf),
                     where=sv[:, 1] >= 1e-12)
    if (cond > TRANSVERSAL_COND).any():
        raise PreconditionError("count undefined: non-transversal intersection")
    signs = np.sign(np.linalg.det(np.stack([g.a.tangent(s), ja, jb], axis=1)))
    if signs.sum() != 0:
        raise UnderResolvedError(
            f"signed intersection sum {int(signs.sum())} is not 0; "
            "an antipodal crossing was missed")
    return len(comps)
