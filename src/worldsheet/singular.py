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

import weakref
from dataclasses import dataclass, replace

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
# suppression at 2 spacings over seeds up to 2 apart leaves gaps of at
# most ~6 spacings along a chain of pairs
CHAIN_GAP = 6.5           # in grid spacings


@dataclass
class SingComponent:
    """One connected component of the antipodal set: its pairs as 1-D
    arrays ``s``, ``sigma`` and ``residual``, in detection order."""

    s: np.ndarray
    sigma: np.ndarray
    residual: np.ndarray
    kind: str                      # isolated | curve_segment | full_time_slice
    sing_star: str = "undetermined"
    tangent_gap: float | None = None
    slice_times: tuple = ()

    @property
    def t(self):
        return 0.5 * (self.s - self.sigma)

    @property
    def x(self):
        return 0.5 * (self.s + self.sigma)

    def points(self, g: OrthogonalGauge):
        """The (m, 1 + n) rows (t, gamma(g, t, x)) of the pairs."""
        t = self.t
        return np.column_stack([t, gamma(g, t, self.x)])


@dataclass
class DetectionReport:
    components: list
    grid_n: int
    min_grid_residual: float

    @property
    def pairs(self):
        """The (m, 2) array of (s, sigma) rows, component by component."""
        return np.concatenate([np.empty((0, 2))]
                              + [np.column_stack([c.s, c.sigma])
                                 for c in self.components])

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


def _near_pairs(s, sigma, period, radius):
    """Every index pair i < j whose ``_torus_embed`` points lie within
    ``radius``, as an (m, 2) array.

    A fixed-radius cell list (Bentley, Stanat & Williams, 1977): the
    points are binned by (s, sigma) into square cells and each cell is
    compared with itself and with 4 of its 8 wrapped neighbours, so every
    pair of cells is read once.  An embedded chord of length r spans an
    arc of 2R asin(r / 2R) on each circle of radius R = period / 2 pi,
    longer than r, so the cell side is at least that arc; the relative
    margin lies far above rounding.  With fewer than 3 cells per axis the
    wrapped neighbours repeat, and one cell holds every point.  A
    candidate is kept when its squared distance, summed in coordinate
    order, is at most radius^2, the test of ``cKDTree.query_pairs``.
    """
    R = period / (2.0 * np.pi)
    arc = 2.0 * R * np.arcsin(min(1.0, radius / (2.0 * R))) * (1.0 + 1e-9)
    cells = int(period // arc)
    if cells < 3:
        cells, stencil = 1, ((0, 0),)
    else:
        stencil = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
    side = period / cells
    cs = np.floor(np.mod(s, period) / side).astype(np.intp) % cells
    co = np.floor(np.mod(sigma, period) / side).astype(np.intp) % cells
    cell = cs * cells + co
    perm = np.argsort(cell, kind="stable")
    cs, co, cell = cs[perm], co[perm], cell[perm]
    # candidate partners of the point at sorted position k: positions
    # lo[k] to hi[k] of one stencil cell, and only later ones in its own
    pos = np.arange(len(cell))
    lo, hi = [pos + 1], [np.searchsorted(cell, cell, side="right")]
    for ds, do in stencil[1:]:
        nb = (cs + ds) % cells * cells + (co + do) % cells
        lo.append(np.searchsorted(cell, nb, side="left"))
        hi.append(np.searchsorted(cell, nb, side="right"))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    count = hi - lo
    first = np.repeat(np.tile(pos, len(stencil)), count)
    range_start = np.cumsum(count) - count
    second = np.arange(len(first)) + np.repeat(lo - range_start, count)
    d2 = np.zeros(len(first))
    for coord in np.ascontiguousarray(_torus_embed(s, sigma, period)[perm].T):
        diff = coord.take(first)
        diff -= coord.take(second)
        d2 += np.square(diff, out=diff)
    near = d2 <= radius * radius
    i, j = perm[first[near]], perm[second[near]]
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def _nms(s, sigma, period, order, radius):
    """Greedy non-maximum suppression: keep points in ``order`` whose
    embedded distance to every kept point exceeds ``radius``."""
    n = len(s)
    pairs = _near_pairs(s, sigma, period, radius)
    # CSR neighbour lists: the neighbours of point k are
    # nbr[start[k]:start[k + 1]]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
    nbr = nbr[np.argsort(src, kind="stable")]
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=start[1:])
    # a point without neighbours is kept and suppresses nothing, and a
    # kept point is never suppressed, so at the end suppressed marks
    # exactly the points dropped
    suppressed = np.zeros(n, dtype=bool)
    bounds = start.tolist()
    for i in order[start[order + 1] > start[order]].tolist():
        if not suppressed[i]:
            suppressed[nbr[bounds[i]:bounds[i + 1]]] = True
    return order[~suppressed[order]]


def _components(n, pairs):
    """Connected-component labels of the graph on n points with edges
    ``pairs``, numbered by each component's lowest index.

    Union-find (Tarjan, 1975) in rounds: every edge hooks the larger of
    its two roots onto the smaller, then pointer jumping points every
    point at its root.  Roots only decrease, so each component's root is
    its lowest index.
    """
    root = np.arange(n)
    i, j = pairs[:, 0], pairs[:, 1]
    while True:
        ri, rj = root[i], root[j]
        split = ri != rj
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ri, rj)[split], np.minimum(ri, rj)[split])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return np.unique(root, return_inverse=True)[1]


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
    order = np.argsort(res)                       # lowest residual wins ties
    keep = _nms(s_ref, sig_ref, E0, order, 2.0 * spacing)
    s_ref, sig_ref, res = s_ref[keep], sig_ref[keep], res[keep]

    # connected components; along an anti-diagonal zero curve the seeds sit
    # up to 2 spacings apart per coordinate and suppression doubles that,
    # so the preserved chain needs a link radius of ~8 spacings
    labels = _components(len(s_ref), _near_pairs(s_ref, sig_ref, E0, 8.0 * spacing))
    masks = (labels == ci for ci in range(int(labels.max()) + 1))
    components = sorted(
        (_classify_kind(s_ref[m], sig_ref[m], res[m], E0, spacing)
         for m in masks),
        key=lambda c: (c.s[0], c.sigma[0]))
    return DetectionReport(components, grid_n, min_grid)


def _circ_gap(values, period):
    """Largest gap between consecutive values on a circle, and the value
    at its end: the start of the shortest arc holding every value."""
    v = np.sort(np.mod(values, period))
    gaps = np.diff(np.concatenate([v, [v[0] + period]]))
    i = int(np.argmax(gaps))
    return float(gaps[i]), float(v[(i + 1) % len(v)])


def _classify_kind(s, sig, res, E0, spacing):
    comp = SingComponent(s, sig, res, kind="curve_segment")
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
    covers = _circ_gap(s, E0)[0] <= CHAIN_GAP * spacing
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


# gauge -> (a, b, angle_state(gauge)), dropped with the gauge
_LIFTS = weakref.WeakKeyDictionary()


def _gauge_angle_state(g: OrthogonalGauge):
    """angle_state(g), lifted once per gauge and kept until g.a or g.b
    is replaced."""
    a, b, st = _LIFTS.get(g, (None, None, None))
    if a is not g.a or b is not g.b:
        st = angle_state(g)
        _LIFTS[g] = (g.a, g.b, st)
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
    alpha and one beta call per component, from the planar angle lift
    computed once per gauge.  Higher dimensions: tangent oscillation over
    shrinking annuli, all voters' circles read by one ``derivatives``
    call, with an honest undetermined band.
    """
    spacing = g.E0 / grid_n
    comp = replace(component, sing_star="undetermined", tangent_gap=None)
    if component.kind == "full_time_slice":
        comp.sing_star = "no"
        comp.tangent_gap = 0.0
        return comp
    # both probes below: up to 64 voters, each at 4 shrinking radii
    step = max(1, len(component.s) // 64)
    radii = 4.0 * spacing / 2.0 ** np.arange(4)

    if g.dim == 2:
        st = _gauge_angle_state(g)
        s_arr, sig_arr = component.s, component.sigma
        t_arr, x_arr = component.t, component.x
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

    # n >= 3: oscillation of the unit tangent over a 16-point circle of
    # each radius around each voter, read in one batch
    ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    ts = component.t[::step, None, None] + radii[:, None] * np.cos(ang)
    xs = component.x[::step, None, None] + radii[:, None] * np.sin(ang)
    gx, _ = derivatives(g, ts, xs)                      # (voters, 4, 16, n)
    nrm = np.linalg.norm(gx, axis=-1)
    nrm[nrm <= 1e-9] = np.nan                           # skipped points
    tau = gx / nrm[..., None]
    # a skipped point's dot products read 1, an angle of 0
    dots = np.nan_to_num(tau @ np.swapaxes(tau, -1, -2), nan=1.0)
    osc = np.arccos(np.clip(dots, -1.0, 1.0)).max(axis=(-2, -1))
    osc[np.isfinite(nrm).sum(axis=-1) < 2] = np.nan
    finest = np.fmin(osc[:, 2], osc[:, 3])              # per voter
    finest = finest[~np.isnan(finest)]
    comp.tangent_gap = worst = float(finest.max(initial=0.0))
    if len(finest):
        comp.sing_star = ("yes" if worst >= OSC_YES else
                          "no" if worst <= OSC_NO else "undetermined")
    return comp


def null_tangent_check(g: OrthogonalGauge, t0, x0,
                       radii=(1e-2, 5e-3, 2.5e-3, 1.25e-3)):
    """max |tau . gamma_t(t0, x0)| over approach points (t0 +- r, x0).

    The approach runs transversally to the singular slice at fixed x, so
    the sequence must decrease toward zero when the tangent limit exists.
    Points with |gamma_x| <= 1e-9 are skipped; NaN when both are.
    """
    _, gt0 = derivatives(g, t0, x0)
    r = np.asarray(radii, dtype=float)[:, None]
    gx, _ = derivatives(g, np.hstack([t0 - r, t0 + r]), x0)   # (radii, 2, n)
    nrm = np.linalg.norm(gx, axis=-1)
    nrm[nrm <= 1e-9] = np.nan
    vals = np.abs(gx @ gt0) / nrm
    return np.fmax(vals[:, 0], vals[:, 1])


def sing_star_time_extent(g: OrthogonalGauge, grid_n=DEFAULT_GRID):
    """Maximal time intervals in [0, E0) containing strict singular points
    (planar gauges), as sorted (start, end) tuples; an interval across the
    seam starts below 0.

    The projection of the detection: the t-arc of each component that
    ``classify_sing_star`` calls "yes", padded at both ends by the chain
    gap between its pairs.  t = (s - sigma) / 2 is defined mod E0 / 2, as
    the (t, x) torus covers the (s, sigma) torus twice, so each arc is
    taken at t and t + E0 / 2.  Components whose classification raises
    ``PreconditionError`` are not counted.
    """
    if g.dim != 2:
        raise PreconditionError("time extent requires a planar gauge")
    E0, half = g.E0, 0.5 * g.E0
    pad = CHAIN_GAP * E0 / grid_n
    arcs = []                                   # (start, width)
    for comp in find_antipodal_pairs(g, grid_n).components:
        try:
            if classify_sing_star(g, comp, grid_n).sing_star != "yes":
                continue
        except PreconditionError:
            continue
        gap, start = _circ_gap(comp.t, half)
        width = half - gap + 2.0 * pad
        arcs += [(start - pad, width), (start - pad + half, width)]
    # union on the circle: merge the arcs sorted by start, then let the
    # run reaching past E0 absorb the first runs it covers
    runs = []
    for a, b in sorted((a % E0, a % E0 + w) for a, w in arcs):
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
        else:
            runs.append([a, b])
    if runs and runs[-1][1] > E0:
        start, end = runs.pop()
        start, end = start - E0, end - E0
        while runs and runs[0][0] <= end:
            end = max(end, runs.pop(0)[1])
        if end - start >= E0:
            return [(0.0, E0)]
        runs.insert(0, [start, end])
    return [tuple(r) for r in runs]
