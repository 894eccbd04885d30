"""Detection and classification of the singular set.

The parametrization degenerates exactly where a'(s) = -b'(sigma) with
s = x + t, sigma = x - t.  Detection minimizes r(s, sigma) =
|a'(s) + b'(sigma)|^2 on the (s, sigma) torus: a coarse grid, then
batched Gauss-Newton from every shallow local minimum, then greedy
deduplication and clustering into connected components.

For planar gauges the unit tangent admits the closed form
sign(sin(F/2)) i e^{iG/2} in terms of the lifted angles of a' and -b',
which both powers the tangent-formula check and makes "the tangent has
no limit" decidable by local sign sampling of F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PAIR_TOL, AngleTangent, PeriodicCubicSpline
from .errors import PreconditionError
from .gauge import OrthogonalGauge
from .surface import derivatives, gamma

DEFAULT_GRID = 512
SEED_LEVEL = 0.1          # squared-residual level below which minima seed GN
OSC_YES = 1e-2            # tangent oscillation certifying no limit
OSC_NO = 1e-4             # oscillation below which the limit is accepted
LIFT_SAMPLES = 8192       # samples of a spline angle lift per period


@dataclass
class SingularPair:
    s: float
    sigma: float
    residual: float

    @property
    def t(self):
        return 0.5 * (self.s - self.sigma)

    @property
    def x(self):
        return 0.5 * (self.s + self.sigma)

    def point(self, g: OrthogonalGauge):
        return np.concatenate([[self.t], gamma(g, self.t, self.x)])


@dataclass
class SingComponent:
    pairs: list
    kind: str                      # isolated | curve_segment | full_time_slice
    sing_star: str = "undetermined"
    tangent_gap: float | None = None
    slice_times: tuple = ()

    def arrays(self):
        s = np.array([p.s for p in self.pairs])
        sig = np.array([p.sigma for p in self.pairs])
        return s, sig


@dataclass
class DetectionReport:
    components: list
    grid_n: int
    min_grid_residual: float

    @property
    def pairs(self):
        return [p for comp in self.components for p in comp.pairs]

    @property
    def empty(self):
        return len(self.components) == 0


def _torus_embed(s, sigma, period):
    """Isometric-near-diagonal embedding of the torus into R^4."""
    w = period / (2.0 * np.pi)
    th_s = s * 2.0 * np.pi / period
    th_o = sigma * 2.0 * np.pi / period
    return np.stack([w * np.cos(th_s), w * np.sin(th_s),
                     w * np.cos(th_o), w * np.sin(th_o)], axis=1)


def grid_residuals(g: OrthogonalGauge, grid_n=DEFAULT_GRID):
    """|a'(s) + b'(sigma)| on the grid_n x grid_n torus grid."""
    E0 = g.E0
    s = np.linspace(0.0, E0, grid_n, endpoint=False)
    A = g.a.tangent(s)
    B = g.b.tangent(s)
    # 2 + 2 A.B in place: each temporary of the grid costs a fresh
    # allocation of grid_n^2 floats
    r2 = A @ B.T
    r2 *= 2.0
    r2 += 2.0
    return np.sqrt(np.clip(r2, 0.0, None, out=r2), out=r2), s


def _gauss_newton(g, s0, sig0):
    s = np.asarray(s0, dtype=float).copy()
    sig = np.asarray(sig0, dtype=float).copy()
    active = np.ones(len(s), dtype=bool)
    lim = 8.0 * g.E0 / DEFAULT_GRID
    for _ in range(40):
        if not active.any():
            break
        sa, oa = s[active], sig[active]
        F = g.a.tangent(sa) + g.b.tangent(oa)       # (m, n)
        res = np.linalg.norm(F, axis=1)
        Ja = g.a.tangent_derivative(sa)
        Jb = g.b.tangent_derivative(oa)
        jtj = np.empty((len(sa), 2, 2))
        jtj[:, 0, 0] = (Ja * Ja).sum(1)
        jtj[:, 0, 1] = jtj[:, 1, 0] = (Ja * Jb).sum(1)
        jtj[:, 1, 1] = (Jb * Jb).sum(1)
        jtf = np.stack([(Ja * F).sum(1), (Jb * F).sum(1)], axis=1)
        damp = 1e-11 * (1.0 + jtj[:, 0, 0] + jtj[:, 1, 1])
        jtj[:, 0, 0] += damp
        jtj[:, 1, 1] += damp
        step = np.linalg.solve(jtj, jtf[:, :, None])[:, :, 0]
        step = np.clip(step, -lim, lim)             # stay in the basin
        s[active] -= step[:, 0]
        sig[active] -= step[:, 1]
        still = (res > 1e-14) & (np.abs(step).max(axis=1) > 1e-15)
        idx = np.where(active)[0]
        active[idx[~still]] = False
    F = g.a.tangent(s) + g.b.tangent(sig)
    return s, sig, np.linalg.norm(F, axis=1)


def _nms(points_embed, order, radius):
    """Greedy non-maximum suppression: keep points in ``order`` whose
    embedded distance to every kept point exceeds ``radius``."""
    from scipy.spatial import cKDTree
    # one batched query for every point, also those later suppressed:
    # cheaper than the call overhead of one query per kept point
    near = cKDTree(points_embed).query_ball_point(points_embed, radius)
    kept = []
    suppressed = np.zeros(len(points_embed), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        suppressed[near[i]] = True
    return np.array(kept, dtype=int)


def _sublevel_minima(r2, level):
    """Indices (row-major, as np.argwhere) of the cells of r2 below level
    that are local minima on the torus: no larger than any of their 8
    neighbours.  Only the sub-level cells are tested, each against one
    wrap-padded copy of r2 read at flat offsets."""
    cols = r2.shape[1]
    width = cols + 2
    cells = np.flatnonzero(r2 < level)
    # cell (i, j) = i * cols + j sits at (i + 1, j + 1) of the padded copy
    centre = cells + 2 * (cells // cols) + width + 1
    padded = np.pad(r2, 1, mode="wrap").ravel()
    value = padded[centre]
    is_min = np.ones(len(cells), dtype=bool)
    for offset in (-width - 1, -width, -width + 1, -1, 1,
                   width - 1, width, width + 1):
        is_min &= value <= padded[centre + offset]
    return np.stack(np.divmod(cells[is_min], cols), axis=1)


def find_antipodal_pairs(g: OrthogonalGauge, grid_n=DEFAULT_GRID):
    """All antipodal tangent pairs a'(s) = -b'(sigma), refined to the
    residual tolerance ``PAIR_TOL`` and clustered into components.

    Completeness heuristic: every zero whose squared residual grows at
    least quadratically at the grid scale produces a shallow local
    minimum on the grid and is therefore seeded; validated against the
    brute-force grid oracle in the test suite.
    """
    if grid_n < 64:
        raise PreconditionError("grid_n must be at least 64")
    E0 = g.E0
    # estimated tangent turning rate; a grid much coarser than the
    # turning scale can miss sharp zeros of the residual
    probe = np.linspace(0.0, E0, 2048, endpoint=False)
    turning = max(
        float(np.quantile(np.linalg.norm(g.a.tangent_derivative(probe),
                                         axis=1), 0.95)),
        float(np.quantile(np.linalg.norm(g.b.tangent_derivative(probe),
                                         axis=1), 0.95)))
    if turning * (E0 / grid_n) > 0.5:
        import warnings
        warnings.warn(
            f"grid spacing {E0 / grid_n:.3g} coarse for tangent turning rate "
            f"{turning:.3g}; suggest grid_n >= {int(np.ceil(2 * E0 * turning))}",
            RuntimeWarning, stacklevel=2)
    res_grid, grid = grid_residuals(g, grid_n)
    min_grid = float(res_grid.min())
    r2 = np.square(res_grid, out=res_grid)
    if r2.min() >= SEED_LEVEL:
        return DetectionReport([], grid_n, min_grid)

    # nonempty: the grid minimum lies below SEED_LEVEL
    seeds = _sublevel_minima(r2, SEED_LEVEL)
    s_ref, sig_ref, res = _gauss_newton(g, grid[seeds[:, 0]], grid[seeds[:, 1]])
    ok = res <= PAIR_TOL
    if not ok.any():
        return DetectionReport([], grid_n, min_grid)
    s_ref, sig_ref, res = s_ref[ok] % E0, sig_ref[ok] % E0, res[ok]

    spacing = E0 / grid_n
    embed = _torus_embed(s_ref, sig_ref, E0)
    order = np.argsort(res)                       # lowest residual wins ties
    keep = _nms(embed, order, 2.0 * spacing)
    s_ref, sig_ref, res = s_ref[keep], sig_ref[keep], res[keep]

    # connected components; along an anti-diagonal zero curve the seeds sit
    # up to 2 spacings apart per coordinate and suppression doubles that,
    # so the preserved chain needs a link radius of ~8 spacings
    embed = _torus_embed(s_ref, sig_ref, E0)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree
    tree = cKDTree(embed)
    link = tree.query_pairs(8.0 * spacing, output_type="ndarray")
    graph = coo_matrix((np.ones(len(link)), (link[:, 0], link[:, 1])),
                       shape=(len(s_ref), len(s_ref)))
    n_comp, labels = connected_components(graph, directed=False)

    components = []
    for ci in range(n_comp):
        mask = labels == ci
        pairs = [SingularPair(float(s), float(o), float(r))
                 for s, o, r in zip(s_ref[mask], sig_ref[mask], res[mask])]
        components.append(_classify_kind(pairs, E0, spacing))
    components.sort(key=lambda c: (c.pairs[0].s, c.pairs[0].sigma))
    return DetectionReport(components, grid_n, min_grid)


def _circ_gap(values, period):
    """Largest gap between consecutive values on a circle."""
    v = np.sort(np.mod(values, period))
    gaps = np.diff(np.concatenate([v, [v[0] + period]]))
    return float(gaps.max())


def _classify_kind(pairs, E0, spacing):
    s = np.array([p.s for p in pairs])
    sig = np.array([p.sigma for p in pairs])
    comp = SingComponent(pairs=pairs, kind="curve_segment")
    embed = _torus_embed(s, sig, E0)
    diam = 0.0
    if len(s) > 1:
        hull_lo = embed.min(axis=0)
        hull_hi = embed.max(axis=0)
        diam = float(np.linalg.norm(hull_hi - hull_lo))
    if diam <= 2.5 * spacing:
        comp.kind = "isolated"
        return comp
    u = np.mod(s - sig, E0)
    u_spread = _u_spread(u, E0)
    # suppression at 2 spacings over seeds up to 2 apart leaves gaps of
    # at most ~6 spacings along a covering curve
    covers = _circ_gap(s, E0) <= 6.5 * spacing
    if u_spread <= 3.0 * spacing and covers:
        comp.kind = "full_time_slice"
        u0 = _circ_mean(u, E0)
        t1 = (0.5 * u0) % E0
        t2 = (t1 + 0.5 * E0) % E0
        comp.slice_times = tuple(sorted((t1, t2)))
    return comp


def _circ_mean(values, period):
    ang = values * 2.0 * np.pi / period
    return float(np.mod(np.arctan2(np.sin(ang).mean(), np.cos(ang).mean()),
                        2.0 * np.pi) * period / (2.0 * np.pi))


def _u_spread(u, period):
    m = _circ_mean(u, period)
    d = np.mod(u - m + 0.5 * period, period) - 0.5 * period
    return float(np.abs(d).max())


def is_global_immersion(g: OrthogonalGauge, grid_n=DEFAULT_GRID):
    """True iff no antipodal pair is found at the default grid; also
    returns the minimum grid residual as a robustness margin."""
    report = find_antipodal_pairs(g, grid_n=grid_n)
    return report.empty, report.min_grid_residual


# ---------------------------------------------------------------------------
# planar angle machinery

@dataclass
class TwoDAngleState:
    """Lifted angles alpha, beta with a' = e^{i alpha}, -b' = e^{i beta},
    normalized so the angle images overlap."""

    alpha: object
    beta: object
    E0: float

    def F(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return self.alpha(x + t) - self.beta(x - t)

    def G(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return self.alpha(x + t) + self.beta(x - t)


def _angle_callable_from_rep(curve, negate):
    """The lifted angle of a planar tangent field, exact when the
    representation stores the angle, otherwise the winding slope plus a
    periodic cubic spline of the residual lift at LIFT_SAMPLES nodes."""
    rep = curve.rep
    offset = np.pi if negate else 0.0
    if isinstance(rep, AngleTangent):
        alpha = rep.alpha
        return lambda x: np.asarray(alpha(np.asarray(x, dtype=float))) + offset
    P = curve.period
    xs = np.linspace(0.0, P, LIFT_SAMPLES + 1)
    v = curve.tangent(xs)
    if negate:
        v = -v
    theta = np.unwrap(np.arctan2(v[:, 1], v[:, 0]))
    winding = (theta[-1] - theta[0]) / (2.0 * np.pi)
    w = float(np.round(winding))
    if abs(winding - w) > 1e-6:
        raise PreconditionError("angle lift does not close to an integer winding")
    slope = w * 2.0 * np.pi / P
    spl = PeriodicCubicSpline(theta[:-1] - slope * xs[:-1], P)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return slope * x + spl(x)

    return fn


def angle_state(g: OrthogonalGauge):
    """Lift the tangent angles of a' and -b' and normalize alpha by the
    2 pi k making the angle images overlap as much as possible."""
    if g.dim != 2:
        raise PreconditionError("angle machinery requires a planar gauge")
    alpha = _angle_callable_from_rep(g.a, negate=False)
    beta = _angle_callable_from_rep(g.b, negate=True)
    xs = np.linspace(0.0, g.E0, 4096)
    ia = alpha(xs)
    ib = beta(xs)
    mid_gap = 0.5 * (ib.min() + ib.max()) - 0.5 * (ia.min() + ia.max())
    k = float(np.round(mid_gap / (2.0 * np.pi)))
    shift = 2.0 * np.pi * k

    def alpha_n(x, _a=alpha, _s=shift):
        return _a(x) + _s

    return TwoDAngleState(alpha=alpha_n, beta=beta, E0=g.E0)


def _gauge_angle_state(g: OrthogonalGauge):
    """angle_state(g), lifted once per gauge and kept until g.a or g.b
    is replaced."""
    a, b, st = g._angle_cache or (None, None, None)
    if a is not g.a or b is not g.b:
        st = angle_state(g)
        g._angle_cache = (g.a, g.b, st)
    return st


def tangent_formula(state: TwoDAngleState, t, x):
    """Unit spatial tangent sign(sin(F/2)) * i e^{iG/2} (planar gauges)."""
    F = state.F(t, x)
    G = state.G(t, x)
    s = np.sin(0.5 * F)
    if np.any(np.abs(s) <= 1e-12):
        raise PreconditionError("tangent formula evaluated at a singular point")
    sgn = np.sign(s)
    half = 0.5 * G
    return sgn[..., None] * np.stack([-np.sin(half), np.cos(half)], axis=-1)


def _sign_content(A, B):
    """Whether F[..., i, j] = A[..., i] - B[..., j] has a value above
    thresh and one below -thresh, thresh = 1e-9 * max(1, max |F|).

    Rounded subtraction is monotone in each argument, so
    max F = max A - min B and min F = min A - max B exactly, and the
    outer difference is never formed.
    """
    f_max = A.max(axis=-1) - B.min(axis=-1)
    f_min = A.min(axis=-1) - B.max(axis=-1)
    thresh = 1e-9 * np.maximum(1.0, np.maximum(np.abs(f_max), np.abs(f_min)))
    return f_max > thresh, f_min < -thresh


def _half_g_jump_ok(st, t, s0, s1):
    """Whether G/2 jumps by pi (mod 2 pi, to 1e-6) across the interval
    of zeros [s0, s1] of F(t, .): the one-sided matching rule under
    which the tangent has a limit there."""
    g_jump = 0.5 * (float(st.G(t, s1)) - float(st.G(t, s0)))
    dev = np.mod(g_jump - np.pi, 2.0 * np.pi)
    return min(dev, 2.0 * np.pi - dev) <= 1e-6


def classify_sing_star(g: OrthogonalGauge, component: SingComponent,
                       state: TwoDAngleState | None = None,
                       grid_n=DEFAULT_GRID):
    """Classify whether the component carries points where the unit
    tangent has no limit.

    Planar gauges: full degenerate slices continue as a line field and
    are not in the strict singular set; intervals at fixed time match
    one-sided limits only under a sign flip of F plus the half-G jump
    condition; all other components are probed by the sign content of F
    on 4 shrinking squares around up to 64 voting pairs.  F is
    alpha(s) - beta(sigma), so each square's sign content is read from
    the two 48-point lifts along the characteristics s and sigma, one
    alpha and one beta call per component.  Higher dimensions: tangent
    oscillation over shrinking annuli with an honest undetermined band.
    Without ``state``, the planar angle lift is computed once per gauge
    and reused by later calls.
    """
    spacing = g.E0 / grid_n
    comp = SingComponent(pairs=component.pairs, kind=component.kind,
                         slice_times=component.slice_times)
    if component.kind == "full_time_slice":
        comp.sing_star = "no"
        comp.tangent_gap = 0.0
        return comp

    if g.dim == 2:
        st = _gauge_angle_state(g) if state is None else state
        s_arr, sig_arr = component.arrays()
        t_arr = 0.5 * (s_arr - sig_arr)
        x_arr = 0.5 * (s_arr + sig_arr)
        t_extent = t_arr.max() - t_arr.min()
        x_extent = x_arr.max() - x_arr.min()
        sig_extent = _u_spread(np.mod(sig_arr, g.E0), g.E0)
        s_extent = _u_spread(np.mod(s_arr, g.E0), g.E0)
        char_like = min(s_extent, sig_extent) <= 3.0 * spacing and len(s_arr) > 1

        if (len(s_arr) > 1 and x_extent > 3.0 * spacing and not char_like
                and t_extent <= 4.0 * spacing):
            if t_extent > 2.0 * spacing:
                raise PreconditionError(
                    "component not localized at a single time; refine grid")
            # interval of zeros at fixed time: one-sided limits
            tbar = float(t_arr.mean())
            s0, s1 = float(x_arr.min()), float(x_arr.max())
            eta = 2.0 * spacing
            f_left = float(st.F(tbar, s0 - eta))
            f_right = float(st.F(tbar, s1 + eta))
            if (np.sign(f_left) == -np.sign(f_right) and f_left != 0
                    and _half_g_jump_ok(st, tbar, s0, s1)):
                comp.sing_star = "no"
                comp.tangent_gap = 0.0
            else:
                comp.sing_star = "yes"
                comp.tangent_gap = np.pi
            return comp

        # F(t, x) = alpha(x + t) - beta(x - t): on a square rotated onto
        # the characteristics, the grid point at offsets (d_i, d_j) along
        # s and sigma has F = alpha(s0 + d_i) - beta(sigma0 + d_j)
        step = max(1, len(s_arr) // 64)
        radii = 4.0 * spacing / 2.0 ** np.arange(4)
        d = np.linspace(-radii, radii, 48, axis=1)                 # (4, 48)
        A = st.alpha((s_arr[::step, None, None] + d).ravel()).reshape(-1, 4, 48)
        B = st.beta((sig_arr[::step, None, None] + d).ravel()).reshape(-1, 4, 48)
        has_pos, has_neg = _sign_content(A, B)
        # a voter says yes when every radius sees both signs, no when none
        # does; one yes decides the component, and no needs every voter
        has_both = has_pos & has_neg                               # (voters, 4)
        if has_both.all(axis=1).any():
            comp.sing_star = "yes"
            comp.tangent_gap = np.pi
        elif not has_both.any():
            comp.sing_star = "no"
            comp.tangent_gap = 0.0
        else:
            comp.sing_star = "undetermined"
        return comp

    # n >= 3: oscillation of the unit tangent over shrinking annuli
    worst = 0.0
    finest = []
    step = max(1, len(component.pairs) // 64)
    for p in component.pairs[::step]:
        radii = [4.0 * spacing / 2 ** j for j in range(4)]
        osc_per_radius = []
        for r in radii:
            ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            ts = p.t + r * np.cos(ang)
            xs = p.x + r * np.sin(ang)
            gx, _ = derivatives(g, ts, xs)
            nrm = np.linalg.norm(gx, axis=1)
            good = nrm > 1e-9
            if good.sum() < 2:
                osc_per_radius.append(np.nan)
                continue
            tau = gx[good] / nrm[good][:, None]
            dots = np.clip(tau @ tau.T, -1.0, 1.0)
            osc_per_radius.append(float(np.arccos(dots).max()))
        fine = [o for o in osc_per_radius[-2:] if np.isfinite(o)]
        if fine:
            finest.append(min(fine))
            worst = max(worst, min(fine))
    comp.tangent_gap = worst
    if not finest:
        comp.sing_star = "undetermined"
    elif worst >= OSC_YES:
        comp.sing_star = "yes"
    elif worst <= OSC_NO:
        comp.sing_star = "no"
    else:
        comp.sing_star = "undetermined"
    return comp


def null_tangent_check(g: OrthogonalGauge, pair, radii=(1e-2, 5e-3, 2.5e-3, 1.25e-3)):
    """max |tau . gamma_t(t0, x0)| over approach points (t0 +- r, x0).

    The approach runs transversally to the singular slice at fixed x, so
    the sequence must decrease toward zero when the tangent limit exists.
    """
    if pair is None:
        raise PreconditionError("no singular pairs to check")
    _, gt0 = derivatives(g, pair.t, pair.x)
    out = []
    for r in radii:
        vals = []
        for tq in (pair.t - r, pair.t + r):
            gx, _ = derivatives(g, tq, pair.x)
            nrm = float(np.linalg.norm(gx))
            if nrm <= 1e-9:
                continue
            vals.append(abs(float(gx @ gt0)) / nrm)
        out.append(max(vals) if vals else np.nan)
    return np.array(out)


def sing_star_time_extent(g: OrthogonalGauge, t_samples=512, x_samples=2048,
                          state: TwoDAngleState | None = None):
    """Maximal time intervals in [0, E0) containing strict singular points,
    located through sign changes of F(t, .) (planar gauges).  Without
    ``state``, the per-gauge lift of ``classify_sing_star`` is reused."""
    if g.dim != 2:
        raise PreconditionError("time-extent scan requires a planar gauge")
    st = _gauge_angle_state(g) if state is None else state
    E0 = g.E0
    ts = np.linspace(0.0, E0, t_samples, endpoint=False)
    xs = np.linspace(0.0, E0, x_samples, endpoint=False)
    marked = np.zeros(t_samples, dtype=bool)
    # strict sign changes only: an entirely degenerate slice evaluates to
    # floating noise around zero and must not register as a crossing
    theta = 1e-9
    for i, t in enumerate(ts):
        F = st.F(np.full_like(xs, t), xs)
        nxt = np.roll(F, -1)
        crossings = np.where((F * nxt < 0) & (np.abs(F) > theta)
                             & (np.abs(nxt) > theta))[0]
        if len(crossings) == 0:
            continue
        scale = np.abs(F).max()
        for ci in crossings:
            # width of the near-zero set right of the crossing
            lo = xs[ci]
            width = 0
            j = (ci + 1) % x_samples
            while abs(F[j]) < 1e-9 * scale and width < x_samples:
                width += 1
                j = (j + 1) % x_samples
            if width <= 1:
                marked[i] = True            # point component: tangent flips
                break
            # interval component: apply the one-sided matching rule
            s0 = xs[(ci + 1) % x_samples]
            s1 = xs[(ci + width) % x_samples]
            if not _half_g_jump_ok(st, t, s0, s1):
                marked[i] = True
                break
    if not marked.any():
        return []
    step = E0 / t_samples
    idx = np.where(marked)[0]
    intervals = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev > 1:
            intervals.append((ts[start], ts[prev] + step))
            start = i
        prev = i
    intervals.append((ts[start], ts[prev] + step))
    # merge across the periodic seam
    if len(intervals) > 1 and intervals[0][0] == 0.0 and \
            abs(intervals[-1][1] - E0) < 1e-12:
        first = intervals.pop(0)
        last = intervals.pop()
        intervals.insert(0, (last[0] - E0, first[1]))
    return intervals
