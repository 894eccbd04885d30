"""Builders for the explicit example gauges.

Three families live here: the sharp-dimension planar gauges whose strict
singular set is a Cantor-set product (box dimension 1 + 1/k at desk
scale), the nonuniqueness pairs that coincide on a time band and split
later, and the extinction pairs glued through a total collapse.

The Cantor construction follows the middle-sigma two-set scheme: values
on the depth-L intervals of the beta-set are the left endpoints of the
alpha-set intervals indexed through the parity-flip map (i*_j = i_j for
odd j, flipped for even j), joined monotonically across gaps by
degree-(2k+1) plateaus.  The flip makes the gap slopes alternate beside
every point of the limit set, which is what forces the tangent of the
associated surface to oscillate there.

Every plateau/ramp curve built here (the Cantor function, the padding
angle programs and the straight-then-padding b-angle) is one
:class:`~worldsheet.curves.PlateauSpline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import meridian_oval_path, swing_path
from .curves import (AngleTangent, CallableTangent, PlateauSpline,
                     UnitSpeedCurve, from_tangent_image, smoothstep)
from .errors import PreconditionError
from .gauge import OrthogonalGauge
from .quadrature import _panel_gl

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Cantor two-set construction

@dataclass
class CantorSpec:
    k: int
    mu: float
    nu: float
    delta: float
    alpha: float
    beta: float
    depth: int

    @classmethod
    def single_mode(cls, k, m=8, depth=8):
        """Single-mu truncation targeting mu = 1/k - 1/m."""
        if m <= k:
            raise PreconditionError("mode m must exceed the smoothness k")
        mu = 1.0 / k - 1.0 / m
        delta = 0.5 * (1.0 / mu - k)
        nu = (k + delta) * mu
        r_alpha = 2.0 ** (-1.0 / mu)
        r_beta = 2.0 ** (-1.0 / nu)
        spec = cls(k=k, mu=mu, nu=nu, delta=delta,
                   alpha=1.0 - 2.0 * r_alpha, beta=1.0 - 2.0 * r_beta,
                   depth=depth)
        spec.validate()
        return spec

    @property
    def r_alpha(self):
        return 0.5 * (1.0 - self.alpha)

    @property
    def r_beta(self):
        return 0.5 * (1.0 - self.beta)

    def validate(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise PreconditionError("Cantor ratios must lie in (0, 1)")
        if not (0.0 < self.mu < 1.0 / self.k):
            raise PreconditionError("mu must lie in (0, 1/k)")
        if self.nu >= 1.0:
            raise PreconditionError("nu must be below 1")
        if abs((self.k + self.delta) * self.mu - self.nu) > 1e-12:
            raise PreconditionError("(k + delta) mu = nu violated")
        if self.r_beta ** self.depth <= 1e-7:
            raise PreconditionError("depth not resolvable in double precision")


def _interval_lefts(r, depth):
    """Left endpoints of the depth-L middle-sigma intervals, in binary
    index order (which coincides with spatial order)."""
    idx = np.arange(2 ** depth)
    bits = (idx[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    weights = (r ** np.arange(depth)) * (1.0 - r)
    return bits @ weights, bits


@dataclass
class CantorFunction:
    """Depth-L truncation of the two-set construction, as an explicit
    piecewise polynomial with exact derivatives: plateaus on the
    beta-set intervals, smoothstep ramps across the gaps."""

    spec: CantorSpec
    breakpoints: np.ndarray        # 2^(L+1) edges: i0, g0, i1, g1, ...
    values: np.ndarray             # plateau values per interval (scaled)
    scale: float
    gap_signs: np.ndarray          # sign of f' on each gap
    sigma_full: np.ndarray         # midpoints of all depth-L intervals
    sigma_alternating: np.ndarray  # those flanked by opposite-signed gaps
    _spline: PlateauSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # piece 2i is interval i (a dwell), piece 2i+1 the gap after it
        edges = self.breakpoints
        v0 = np.repeat(self.values, 2)[:-1]
        dv = np.zeros(len(edges) - 1)
        dv[1::2] = np.diff(self.values)
        self._spline = PlateauSpline(edges[:-1], np.diff(edges), v0, dv,
                                     self.spec.k)

    def __call__(self, x):
        return self._spline(x)

    def deriv(self, x, order=1):
        return self._spline(x, order)


def cantor_function(spec: CantorSpec):
    """Build the depth-L truncated function f with f' = 0 on the
    beta-set intervals and monotone plateau joins across the gaps,
    scaled so max |f'| = 1/2."""
    spec.validate()
    L = spec.depth
    beta_lefts, bits = _interval_lefts(spec.r_beta, L)
    len_beta = spec.r_beta ** L
    # parity flip: keep odd levels (1-based), flip even levels
    flip = np.arange(1, L + 1) % 2 == 0
    bits_star = np.where(flip[None, :], 1 - bits, bits)
    weights_a = (spec.r_alpha ** np.arange(L)) * (1.0 - spec.r_alpha)
    values = bits_star @ weights_a

    edges = np.empty(2 * 2 ** L)
    edges[0::2] = beta_lefts
    edges[1::2] = beta_lefts + len_beta
    gaps = edges[2::2] - edges[1:-1:2]
    dv = np.diff(values)
    if np.any(gaps <= 0):
        raise PreconditionError("overlapping Cantor intervals")

    s_max = float(smoothstep(spec.k).deriv()(0.5))
    raw_slopes = np.abs(dv) / gaps * s_max
    scale = 0.5 / raw_slopes.max()
    values = values * scale
    dv = dv * scale

    gap_signs = np.sign(dv).astype(int)
    mids = beta_lefts + 0.5 * len_beta
    flanked = np.zeros(2 ** L, dtype=bool)
    flanked[1:-1] = gap_signs[:-1] * gap_signs[1:] < 0
    return CantorFunction(spec=spec, breakpoints=edges, values=values,
                          scale=scale, gap_signs=gap_signs,
                          sigma_full=mids,
                          sigma_alternating=mids[flanked])


# ---------------------------------------------------------------------------
# angle programs (plateau turns between dwell directions)

def _turn_moment(phi_a, phi_b, length, k):
    poly = smoothstep(k)

    def fld(u):
        ang = phi_a + (phi_b - phi_a) * poly(u / length)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    edges = np.linspace(0.0, length, 17)
    return _panel_gl(fld, edges[:-1], edges[1:]).sum(axis=0)


TURN_LEN = 0.4            # width of each turn of a padding program


def _padding_program(x0, length, target, dwell_dirs, k):
    """Angle program over [x0, x0 + length] whose tangent integral equals
    ``target``: turns between the prescribed dwell angles, dwell lengths
    solved from the two moment equations plus the length constraint.

    dwell_dirs is the ordered angle sequence [phi_0 (entry), phi_1, ...,
    phi_m (exit)]; dwells happen at phi_1..phi_{m-1} and their lengths
    are the unknowns (the system must have 3 unknowns)."""
    n_turn = len(dwell_dirs) - 1
    dwells = len(dwell_dirs) - 2
    if dwells != 3:
        raise PreconditionError("padding solver expects exactly 3 dwells")
    turn_moments = np.zeros(2)
    for a, b in zip(dwell_dirs[:-1], dwell_dirs[1:]):
        turn_moments += _turn_moment(a, b, TURN_LEN, k)
    bulk = length - n_turn * TURN_LEN
    if bulk <= 0:
        raise PreconditionError("padding too short for the turn budget")
    dirs = np.stack([[np.cos(p), np.sin(p)] for p in dwell_dirs[1:-1]], axis=1)
    A = np.vstack([dirs, np.ones(3)])
    rhs = np.concatenate([np.asarray(target, float) - turn_moments, [bulk]])
    lengths = np.linalg.solve(A, rhs)
    if np.any(lengths < 1e-3):
        raise PreconditionError(
            f"padding closure failure: dwell lengths {lengths}")
    # pieces alternate turn j (dwell_dirs[j] -> dwell_dirs[j+1]) and
    # dwell j at dwell_dirs[j+1]; the last turn has no dwell after it
    widths = np.empty(2 * n_turn - 1)
    widths[0::2] = TURN_LEN
    widths[1::2] = lengths
    starts = np.cumsum(np.r_[x0, widths[:-1]])
    v0 = np.repeat(dwell_dirs[:-1], 2)[1:]
    dv = np.zeros_like(widths)
    dv[0::2] = np.diff(dwell_dirs)
    return PlateauSpline(starts, widths, v0, dv, k)


# ---------------------------------------------------------------------------
# sharp-dimension gauge

E0_SHARP = 8.0


def sharp_example_gauge(spec: CantorSpec):
    """Planar gauge whose strict singular set contains the product of the
    Cantor characteristic set with a time segment.

    a runs through (f, g) with g' = sqrt(1 - f'^2) on [0, 1]; b descends
    straight on [-1, 2]; both close over period 8 through angle-programmed
    padding arcs.  The a-curve is advanced by half a period, which makes
    the time-zero slice regularly immersed and moves the singular band to
    interior times.
    """
    f = cantor_function(spec)
    k = spec.k

    def alpha_core(x):
        return 0.5 * np.pi - np.arcsin(f.deriv(np.asarray(x, dtype=float)))

    def alpha_core_prime(x):
        x = np.asarray(x, dtype=float)
        fp = f.deriv(x)
        return -f.deriv(x, order=2) / np.sqrt(1.0 - fp ** 2)

    # targets: minus the core tangent integrals
    xs_edges = f.breakpoints
    core_int = _panel_gl(
        lambda y: np.stack([f.deriv(y), np.sqrt(1.0 - f.deriv(y) ** 2)],
                           axis=-1),
        xs_edges[:-1], xs_edges[1:]).sum(axis=0)
    t_a = -core_int
    pad_a = _padding_program(
        1.0, E0_SHARP - 1.0, t_a,
        [0.5 * np.pi, 0.0, -0.5 * np.pi, -np.pi, -1.5 * np.pi], k)

    t_b = np.array([0.0, 3.0])
    pad_b = _padding_program(
        2.0, 5.0, t_b,
        [-0.5 * np.pi, -np.pi, -1.5 * np.pi, -2.0 * np.pi, -2.5 * np.pi], k)

    # b: straight descent on [-1, 2], then the padding
    beta = PlateauSpline(np.r_[-1.0, pad_b.starts], np.r_[3.0, pad_b.widths],
                         np.r_[-0.5 * np.pi, pad_b.v0], np.r_[0.0, pad_b.dv],
                         k)

    def alpha_a(order, shift=0.0):
        core_fn = (alpha_core, alpha_core_prime)[order]

        def angle(x):
            x = np.mod(np.asarray(x, dtype=float) + shift, E0_SHARP)
            out = np.empty_like(x)
            core = x <= 1.0
            out[core] = core_fn(x[core])
            out[~core] = pad_a(x[~core], order)
            return out
        return angle

    def beta_b(order):
        return lambda x: beta(
            np.mod(np.asarray(x, dtype=float) + 1.0, E0_SHARP) - 1.0, order)

    breaks_a = np.concatenate([f.breakpoints, pad_a.starts])
    shift = 0.5 * E0_SHARP
    a_rep = AngleTangent(alpha_a(0, shift), E0_SHARP,
                         alpha_prime=alpha_a(1, shift),
                         breakpoints=np.mod(breaks_a - shift, E0_SHARP))
    b_rep = AngleTangent(beta_b(0), E0_SHARP, alpha_prime=beta_b(1),
                         breakpoints=np.mod(beta.starts, E0_SHARP))

    # basepoints: a(0) = (f(0), 0) before the shift; b(0) = (0, 0)
    a_unshifted = UnitSpeedCurve(
        AngleTangent(alpha_a(0), E0_SHARP, alpha_prime=alpha_a(1),
                     breakpoints=breaks_a),
        np.array([f(np.zeros(1))[0], 0.0]))
    a = UnitSpeedCurve(a_rep, a_unshifted.position(shift))
    b = UnitSpeedCurve(b_rep, np.array([0.0, 0.0]))

    prediction = {
        "sigma_star": shift + f.sigma_full,
        "sigma_sing": shift + np.sort(np.concatenate(
            [f.sigma_full, f.breakpoints])),
        "sigma_alt": shift + f.sigma_alternating,
        "t_window": (0.5 * shift - 0.05, 0.5 * shift + 0.05),
    }
    g = OrthogonalGauge(a, b, metadata={"name": f"cantor-k{spec.k}",
                                        "cantor_prediction": prediction,
                                        "spec": spec})
    g.validate()
    return g, prediction


# ---------------------------------------------------------------------------
# nonuniqueness constructions

PINCHED_PARAMS = ((0.20, 0.40), (0.30, 0.45), (0.25, 0.50))
SWING_PARAMS = ((2.20, 1.00), (2.00, 0.90), (2.40, 1.08))
DWELL_FRACTION = 0.22
PLATEAU_ORDER = 3          # k of the pieces' from_tangent_image plateau maps


def _aligned_realization(path, pin_param):
    """Period-1 unit-speed curve with tangent image ``path``, dwelling at
    the image of ``pin_param`` for at least DWELL_FRACTION of the period,
    reparametrized so the dwell is centered at 0 with position 0 there."""
    curve = from_tangent_image(path, k=PLATEAU_ORDER, period=1.0,
                               pinned=[(pin_param, DWELL_FRACTION)])
    dwell = None
    for d0, d1, cp in curve.metadata["dwells"]:
        if abs((cp - pin_param + np.pi) % TWO_PI - np.pi) < 1e-9:
            dwell = (d0, d1)
            break
    if dwell is None:
        raise PreconditionError("pinned dwell not found in realization")
    center = 0.5 * (dwell[0] + dwell[1])
    return curve.shifted(center, new_basepoint=np.zeros(curve.dim))


def _assemble_period3(pieces):
    """Period-3 curve using pieces[j] (period-1 curves sharing the
    straight segment at integer junctions) on [j, j+1)."""
    dim = pieces[0].dim

    def fn(x, order):
        j = np.floor(np.mod(x, 3.0)).astype(int)
        # mod rounds to 3.0 for tiny negative x, which lies in piece 2;
        # clamped in place, as one more temporary raises peak RSS
        np.minimum(j, 2, out=j)
        out = np.empty(x.shape + (dim,))
        for i in range(3):
            m = j == i
            if m.any():
                out[m] = pieces[i].rep(x[m], order)
        return out

    breaks = [0.0, 1.0, 2.0]
    for i, p in enumerate(pieces):
        breaks.extend(np.mod(np.asarray(p.rep.breakpoints, float), 1.0) + i)
    rep = CallableTangent(fn, 3.0, dim, breakpoints=sorted(breaks))
    return UnitSpeedCurve(rep, np.zeros(dim))


def nonuniqueness_pair(n=3, delta=0.05):
    """Two gauges generating surfaces that coincide for t in [0, delta]
    and differ at t = 1/2.

    Six period-1 unit-speed curves share the straight segment
    (x, 0, ..., 0) on [-delta, delta]; the a-family's tangent images are
    pinched ovals through e1 in the front lune, the b-family's images are
    mirrored swing curves, so no a-tangent is ever antipodal to a
    b-tangent.  The identity and a transposed assembly of the pieces give
    the two gauges.
    """
    if n < 3:
        raise PreconditionError("nonuniqueness construction requires n >= 3")
    if not (0 < delta < 0.5):
        raise PreconditionError("delta must lie in (0, 1/2)")
    # the cross-junction zone at time t needs the straight segment on
    # [-2t, 2t], so the dwell must cover four deltas
    if delta > 0.25 * DWELL_FRACTION:
        raise PreconditionError(
            f"delta must not exceed {0.25 * DWELL_FRACTION}")

    a_pieces = [
        _aligned_realization(
            meridian_oval_path(lon=0.0, width=w, overshoot=o, pinched=True),
            0.5 * np.pi)
        for (w, o) in PINCHED_PARAMS]
    b_pieces = [
        _aligned_realization(swing_path(swing=s, lat_max=-m, lon_center=0.0),
                             0.0)
        for (s, m) in SWING_PARAMS]

    if n > 3:
        a_pieces = [_embed(p, n) for p in a_pieces]
        b_pieces = [_embed(p, n) for p in b_pieces]

    perm = (1, 0, 2)
    a_id = _assemble_period3(a_pieces)
    b_id = _assemble_period3(b_pieces)
    a_pi = _assemble_period3([a_pieces[i] for i in perm])
    b_pi = _assemble_period3([b_pieces[i] for i in perm])
    g_id = OrthogonalGauge(a_id, b_id, metadata={"name": "nonuniq-id",
                                                 "delta": delta})
    g_pi = OrthogonalGauge(a_pi, b_pi, metadata={"name": "nonuniq-swap",
                                                 "delta": delta})
    g_id.validate()
    g_pi.validate()
    return g_id, g_pi, delta


def _embed(curve, n):
    """Embed a curve of R^3 into R^n (extra coordinates zero)."""
    rep3 = curve.rep

    def padded(x, order):
        v = rep3(x, order)
        out = np.zeros(v.shape[:-1] + (n,))
        out[..., :3] = v
        return out

    rep = CallableTangent(padded, curve.period, n, breakpoints=rep3.breakpoints)
    base = np.zeros(n)
    base[:3] = curve.basepoint
    out = UnitSpeedCurve(rep, base, metadata=dict(curve.metadata))
    return out


def same_surface_family():
    """Remark-variant of the nonuniqueness pair: equal a-pieces, distinct
    b-pieces, so every time slice parametrizes the same curve while the
    parametrizations differ."""
    a_piece = _aligned_realization(
        meridian_oval_path(lon=0.0, width=0.25, overshoot=0.45, pinched=True),
        0.5 * np.pi)
    b_pieces = [
        _aligned_realization(swing_path(swing=s, lat_max=-m, lon_center=0.0),
                             0.0)
        for (s, m) in SWING_PARAMS]
    a_id = _assemble_period3([a_piece] * 3)
    perm = (1, 0, 2)
    b_id = _assemble_period3(b_pieces)
    b_pi = _assemble_period3([b_pieces[i] for i in perm])
    g_id = OrthogonalGauge(a_id, b_id, metadata={"name": "same-surface-id"})
    g_pi = OrthogonalGauge(a_id, b_pi, metadata={"name": "same-surface-swap"})
    g_id.validate()
    g_pi.validate()
    return g_id, g_pi


# ---------------------------------------------------------------------------
# extinction gluing

@dataclass
class ExtinctionPair:
    gauge1: OrthogonalGauge
    gauge2: OrthogonalGauge
    tbar: float
    s_map: object


def _check_symmetric_convex(curve):
    xs = np.linspace(0.0, curve.period, 2048, endpoint=False)
    sym = np.abs(curve.position(xs + 0.5 * curve.period)
                 + curve.position(xs)).max()
    if sym > 1e-9:
        raise PreconditionError(
            f"curve not centrally symmetric (residual {sym:.2e})")
    if not isinstance(curve.rep, AngleTangent):
        raise PreconditionError("extinction gluing needs an angle-represented "
                                "curve with its turning rate")
    turn = curve.rep.alpha_prime(xs)
    if turn.min() <= 1e-9:
        raise PreconditionError("curve not uniformly convex "
                                "(tangent angle not strictly increasing)")


def extinction_pair(curve1: UnitSpeedCurve, curve2: UnitSpeedCurve):
    """Glue the evolutions of two centrally symmetric uniformly convex
    planar curves through their common extinction at tbar = E0/4.

    The reparametrization s(x) matches the post-collapse velocities:
    a1'(s(x) + tbar) = a2'(x + tbar), inverted through the strictly
    monotone tangent angle of the first curve.
    """
    for c in (curve1, curve2):
        _check_symmetric_convex(c)
    if abs(curve1.period - curve2.period) > 1e-12 * curve1.period:
        raise PreconditionError("curves must share their period")
    E0 = curve1.period
    tbar = 0.25 * E0
    g1 = OrthogonalGauge(curve1, curve1, metadata={"name": "extinction-1"})
    g2 = OrthogonalGauge(curve2, curve2, metadata={"name": "extinction-2"})

    alpha1 = curve1.rep.alpha
    alpha1_p = curve1.rep.alpha_prime
    alpha2 = curve2.rep.alpha

    # align the two angle lifts so the inversion uses a consistent branch
    offset = float(np.round((alpha2(np.zeros(1))[0] - alpha1(np.zeros(1))[0])
                            / TWO_PI)) * TWO_PI

    def s_map(x):
        x = np.asarray(x, dtype=float)
        theta = np.asarray(alpha2(x + tbar)) - offset
        # monotone Newton inversion of alpha1 (turning rate is positive)
        s = x + tbar  # good seed: both angles are near-linear lifts
        for _ in range(60):
            r = np.asarray(alpha1(s)) - theta
            if np.abs(r).max() < 1e-14:
                break
            s = s - r / np.asarray(alpha1_p(s))
        return s - tbar

    return ExtinctionPair(gauge1=g1, gauge2=g2, tbar=tbar, s_map=s_map)


def glued_evolution(pair: ExtinctionPair):
    """The time-glued map: gauge1 evolved through s(x) before tbar,
    gauge2 after; continuous with continuous first derivatives across
    tbar."""
    from .surface import gamma

    def gam(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        t, x = np.broadcast_arrays(t, x)
        out = np.empty(t.shape + (2,))
        before = t < pair.tbar
        if before.any():
            out[before] = gamma(pair.gauge1, t[before], pair.s_map(x[before]))
        if (~before).any():
            out[~before] = gamma(pair.gauge2, t[~before], x[~before])
        return out

    return gam
