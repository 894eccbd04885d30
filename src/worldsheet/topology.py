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
from scipy.spatial import cKDTree

from .errors import PreconditionError, UnderResolvedError
from .gauge import OrthogonalGauge
from .singular import find_antipodal_pairs

EPS_DIAG = 1e-4


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


def _min_pair_distance(A, MB):
    """min over samples of |a'(s) - (-b'(sigma))| via the Gram trick."""
    gram = A @ MB.T
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * gram.max())))


def diagram(g: OrthogonalGauge, m=1024):
    """Sampled sphere diagram with a locally refined minimum distance."""
    if m > 4096:
        raise PreconditionError("diagram sampling capped at 4096 per curve")
    s = np.linspace(0.0, g.E0, m, endpoint=False)
    A = g.a.tangent(s)
    MB = -g.b.tangent(s)
    gram = A @ MB.T
    i, j = np.unravel_index(np.argmax(gram), gram.shape)
    # local refinement of the closest approach
    lo_s, lo_o = s[i], s[j]
    span = g.E0 / m
    best = np.sqrt(max(0.0, 2.0 - 2.0 * gram.max()))
    for _ in range(4):
        ss = np.linspace(lo_s - span, lo_s + span, 33)
        oo = np.linspace(lo_o - span, lo_o + span, 33)
        Af = g.a.tangent(ss)
        MBf = -g.b.tangent(oo)
        gf = Af @ MBf.T
        ii, jj = np.unravel_index(np.argmax(gf), gf.shape)
        lo_s, lo_o = ss[ii], oo[jj]
        best = np.sqrt(max(0.0, 2.0 - 2.0 * gf.max()))
        span /= 8.0
    return SphereDiagram(curve_a=A, curve_mb=MB, min_distance=float(best),
                         disjoint=float(best) > EPS_DIAG, source=g, m=m)


def synthetic_diagram(curve_a, curve_mb):
    """Diagram from raw sample arrays (no originating gauge)."""
    A = np.asarray(curve_a, dtype=float)
    MB = np.asarray(curve_mb, dtype=float)
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


def _clear_geodesic(q1, q2, tree, margin, samples=64):
    """True if the great-circle arc q1 -> q2 stays ``margin`` away from
    the diagram curves (a same-component certificate for the centers)."""
    dot = float(np.clip(q1 @ q2, -1.0, 1.0))
    ang = np.arccos(dot)
    if ang < 1e-9:
        return True
    ts = np.linspace(0.0, 1.0, samples)
    arc = (np.sin((1 - ts) * ang)[:, None] * q1
           + np.sin(ts * ang)[:, None] * q2) / np.sin(ang)
    d, _ = tree.query(arc)
    return bool(d.min() >= margin)


def _planar_winding(loop, z):
    """Winding number of a closed planar polyline around z."""
    rel = loop - z
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    inc = np.diff(np.concatenate([ang, ang[:1]]))
    inc = np.mod(inc + np.pi, 2.0 * np.pi) - np.pi
    total = inc.sum() / (2.0 * np.pi)
    w = int(np.round(total))
    return w, float(abs(total - w))


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

    all_pts = np.vstack([d.curve_a, d.curve_mb])
    tree = cKDTree(all_pts)
    cands = _candidate_centers(3, 4096)
    clearance, _ = tree.query(cands)
    order = np.argsort(-clearance)
    if clearance[order[0]] < EPS_DIAG:
        raise PreconditionError("no projection center with required clearance")
    q1 = cands[order[0]]

    def value(center, A, MB):
        pa = _stereographic(A, center)
        pm = _stereographic(MB, center)
        w, resid = _planar_winding(pa, pm[0])
        if resid > 0.05:
            raise UnderResolvedError("winding integral far from an integer")
        # every representative point of the projected -b' curve must agree
        for k in range(1, len(pm), max(1, len(pm) // 8)):
            wk, _ = _planar_winding(pa, pm[k])
            if wk != w:
                raise UnderResolvedError(
                    "winding depends on the representative point; "
                    "diagram under-resolved")
        return w

    w1 = value(q1, d.curve_a, d.curve_mb)

    if d.source is not None:
        dd = diagram(d.source, m=min(2 * d.m, 4096))
        w2 = value(q1, dd.curve_a, dd.curve_mb)
        if w2 != w1:
            raise UnderResolvedError("winding unstable under sample doubling")

    margin = 0.5 * clearance[order[0]]
    for idx in order[1:]:
        q2 = cands[idx]
        if clearance[idx] < max(2 * EPS_DIAG, margin):
            break
        if float(q1 @ q2) > np.cos(0.5):
            continue
        if _clear_geodesic(q1, q2, tree, EPS_DIAG):
            w2 = value(q2, d.curve_a, d.curve_mb)
            if w2 != w1:
                raise UnderResolvedError(
                    "winding differs between same-component centers")
            break
    return w1


def _gauss_linking_polylines(P, Q):
    """Signed linking number integral of two closed polylines in R^3
    (exact per segment pair, up to rounding)."""
    p0 = P
    p1 = np.roll(P, -1, axis=0)
    q0 = Q
    q1 = np.roll(Q, -1, axis=0)
    total = 0.0
    block = 256
    for i0 in range(0, len(P), block):
        a0 = p0[i0:i0 + block][:, None, :]
        a1 = p1[i0:i0 + block][:, None, :]
        b0 = q0[None, :, :]
        b1 = q1[None, :, :]
        a = a0 - b0
        b = a0 - b1
        c = a1 - b1
        dd = a1 - b0
        cross_bc = np.cross(b, c)
        p = (a * cross_bc).sum(-1)
        na = np.linalg.norm(a, axis=-1)
        nb = np.linalg.norm(b, axis=-1)
        nc = np.linalg.norm(c, axis=-1)
        nd = np.linalg.norm(dd, axis=-1)
        ab = (a * b).sum(-1)
        bc = (b * c).sum(-1)
        ca = (c * a).sum(-1)
        ad = (a * dd).sum(-1)
        dc = (dd * c).sum(-1)
        d1 = na * nb * nc + ab * nc + bc * na + ca * nb
        d2 = na * nd * nc + ad * nc + dc * na + ca * nd
        total += (np.arctan2(p, d1) + np.arctan2(p, d2)).sum()
    return total / (2.0 * np.pi)


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
    the heights at a crossing differ by less than 1e-12.
    """
    dp = np.roll(P, -1, axis=0) - P
    dq = np.roll(Q, -1, axis=0) - Q
    nq = np.hypot(dq[:, 0], dq[:, 1])
    q_lo = np.minimum(Q, Q + dq)[:, :2]
    q_hi = np.maximum(Q, Q + dq)[:, :2]
    over = under = 0
    block = 256
    for i0 in range(0, len(P), block):
        p = P[i0:i0 + block, None, :]
        d = dp[i0:i0 + block, None, :]
        rx = Q[:, 0] - p[..., 0]
        ry = Q[:, 1] - p[..., 1]
        den = d[..., 0] * dq[:, 1] - d[..., 1] * dq[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rx * dq[:, 1] - ry * dq[:, 0]) / den
            u = (rx * d[..., 1] - ry * d[..., 0]) / den
        near = ((t > -CROSSING_TOL) & (t < 1.0 + CROSSING_TOL)
                & (u > -CROSSING_TOL) & (u < 1.0 + CROSSING_TOL))
        ii, jj = np.nonzero(near)
        ti, uj = t[ii, jj], u[ii, jj]
        if np.any(np.abs(np.concatenate([ti, 1.0 - ti, uj, 1.0 - uj]))
                  < CROSSING_TOL):
            return None
        # (nearly) parallel segment pairs whose bounding boxes meet
        pi, pj = np.nonzero(np.abs(den) <= 1e-12 * nq
                            * np.hypot(d[..., 0], d[..., 1]))
        pa = P[i0 + pi, :2]
        pb = pa + dp[i0 + pi, :2]
        if np.any(np.all((np.maximum(pa, pb) >= q_lo[pj])
                         & (np.minimum(pa, pb) <= q_hi[pj]), axis=1)):
            return None
        zp = P[i0 + ii, 2] + ti * dp[i0 + ii, 2]
        zq = Q[jj, 2] + uj * dq[jj, 2]
        if np.any(np.abs(zp - zq) < 1e-12):
            return None
        sign = np.sign(den[ii, jj])
        over += int(sign[zp > zq].sum())
        under -= int(sign[zp < zq].sum())
    return over if over == under else None


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
    all_pts = np.vstack([d.curve_a, d.curve_mb])
    tree = cKDTree(all_pts)
    cands = _candidate_centers(4, 8192)
    clearance, _ = tree.query(cands)
    order = np.argsort(-clearance)
    if clearance[order[0]] < EPS_DIAG:
        raise PreconditionError("no projection center with required clearance")

    def crossings(center, A, MB):
        return _crossing_linking(_stereographic(A, center),
                                 _stereographic(MB, center))

    center = cands[order[0]]
    lk1 = _gauss_linking_polylines(_stereographic(d.curve_a, center),
                                   _stereographic(d.curve_mb, center))
    v1 = int(np.round(lk1))
    r1 = abs(lk1 - v1)
    if r1 > 0.1:
        raise UnderResolvedError(
            f"linking integral {lk1:.4f} too far from an integer")
    for idx in order[1:]:
        q2 = cands[idx]
        if float(center @ q2) > np.cos(0.5):
            continue
        if clearance[idx] < max(2 * EPS_DIAG, 0.5 * clearance[order[0]]):
            break
        if crossings(q2, d.curve_a, d.curve_mb) != v1:
            raise UnderResolvedError(
                "linking differs between projection centers")
        break
    if d.source is not None:
        dd = diagram(d.source, m=min(2 * d.m, 4096))
        if crossings(center, dd.curve_a, dd.curve_mb) != v1:
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

    @property
    def outcome_counts(self):
        return {"smooth": self.n_smooth, "singular": self.n_singular}


def _band_limited_field(rng, period, dim, n_modes=8):
    """Random trig-polynomial field with modes 1..n_modes per component."""
    ms = np.arange(1, n_modes + 1)
    cc = rng.normal(size=(n_modes, dim)) / ms[:, None]
    ss = rng.normal(size=(n_modes, dim)) / ms[:, None]

    def fld(x):
        x = np.asarray(x, dtype=float)
        w = 2.0 * np.pi / period
        out = np.zeros(x.shape + (dim,))
        for j, m in enumerate(ms):
            out += (np.multiply.outer(np.cos(m * w * x), cc[j])
                    + np.multiply.outer(np.sin(m * w * x), ss[j]))
        return out

    def fld_d(x):
        x = np.asarray(x, dtype=float)
        w = 2.0 * np.pi / period
        out = np.zeros(x.shape + (dim,))
        for j, m in enumerate(ms):
            out += (np.multiply.outer(-m * w * np.sin(m * w * x), cc[j])
                    + np.multiply.outer(m * w * np.cos(m * w * x), ss[j]))
        return out

    return fld, fld_d


def _perturb_curve(curve, rng, epsilon, nodes=4096):
    """C^1-bounded band-limited perturbation of the tangent field,
    renormalized to the sphere and re-closed to the original period
    integral by smooth bump redistribution.

    Returns (new curve, achieved C^1 magnitude) or None if re-closure
    fails (defect above 0.1)."""
    from .curves import SphereSamplesTangent, UnitSpeedCurve

    P = curve.period
    dim = curve.dim
    fld, fld_d = _band_limited_field(rng, P, dim)
    xs = np.linspace(0.0, P, nodes, endpoint=False)
    base = curve.tangent(xs)
    dv = fld(xs)
    dvd = fld_d(xs)
    size = max(np.linalg.norm(dv, axis=1).max(),
               np.linalg.norm(dvd, axis=1).max())
    if size == 0:
        return None
    scale = epsilon / size
    target = curve.drift()

    vals = base + scale * dv
    w = (1.0 + np.cos(2.0 * np.pi * (xs / P - 0.5))) / P      # bump, integral 1
    dx = P / nodes
    for _ in range(8):
        vals = vals / np.linalg.norm(vals, axis=1, keepdims=True)
        integral = vals.sum(axis=0) * dx
        defect = integral - target
        if np.linalg.norm(defect) <= 1e-12:
            break
        vals = vals - w[:, None] * defect[None, :]
    vals = vals / np.linalg.norm(vals, axis=1, keepdims=True)
    defect = np.linalg.norm(vals.sum(axis=0) * dx - target)
    if defect > 0.1:
        return None
    rep = SphereSamplesTangent(vals, P, smoothness=curve.smoothness,
                               tol_class="analytic")
    new = UnitSpeedCurve(rep, curve.basepoint.copy())
    ach = float(np.linalg.norm(rep(xs) - base, axis=1).max())
    return new, ach


def genericity_probe(g: OrthogonalGauge, epsilon, trials, seed, grid_n=256):
    """Classify ``trials`` random C^1 perturbations of the gauge as
    globally immersed or singular; quantitative openness probe."""
    rng = np.random.default_rng(seed)
    rep = PerturbationReport(epsilon=float(epsilon), trials=int(trials),
                             n_smooth=0, n_singular=0, n_discarded=0)
    for _ in range(trials):
        pa = _perturb_curve(g.a, rng, epsilon)
        pb = _perturb_curve(g.b, rng, epsilon)
        if pa is None or pb is None:
            rep.n_discarded += 1
            continue
        try:
            pert = OrthogonalGauge(pa[0], pb[0])
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
    return rep


def transversal_count(g: OrthogonalGauge, grid_n=512, cond_limit=1e6):
    """Number of transversal antipodal intersections per fundamental
    domain (n = 3); errors out when any intersection is non-transversal."""
    if g.dim != 3:
        raise PreconditionError("transversal count requires n = 3")
    report = find_antipodal_pairs(g, grid_n=grid_n)
    count = 0
    for comp in report.components:
        if comp.kind != "isolated":
            raise PreconditionError(
                "count undefined: non-transversal intersection (extended component)")
        p = min(comp.pairs, key=lambda q: q.residual)
        ja = g.a.tangent_derivative(np.array([p.s]))[0]
        jb = -g.b.tangent_derivative(np.array([p.sigma]))[0]
        sv = np.linalg.svd(np.stack([ja, jb], axis=1), compute_uv=False)
        if sv[1] < 1e-12 or sv[0] / sv[1] > cond_limit:
            raise PreconditionError("count undefined: non-transversal intersection")
        count += 1
    return count
