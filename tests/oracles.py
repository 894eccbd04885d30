"""Independent reference computations for the tests.

``adaptive_simpson`` shares no code with the package's Gauss-Legendre
quadrature, so tests compare positions, prefix integrals and gauge
periods against it.  ``full_grid_constraint_residuals`` and
``roll_minimum_mask`` are the direct formulations of the residual grids
and of the local-minimum test, reading every grid point and rolling the
whole grid; the package must match them bit for bit.
``hull_interior_lp_dense`` is the hull-margin linear program with its
inequality rows written out, and ``hull_interior_lp_bounds`` the same
program with bounds in place of those rows; ``dwell_lengths_linprog`` is
the dwell-length program of ``from_tangent_image``.  All three are solved
by scipy's HiGHS at feasibility tolerances 1e-10, since at its defaults
(1e-7) HiGHS can stop up to 7e-10 short of the hull optimum.
``segment_moments_loop`` integrates the moving segments of a tangent
image one segment and one panel count at a time, through its own
smoothstep closure, the reference for the batched ``_segment_moments``.
``sampled_hausdorff`` measures how far a realized tangent image lies
from its target by nearest-neighbour trees.
``near_pairs_kdtree``, ``nms_ball_point`` and ``components_csgraph`` are
the detection's neighbour pairs, greedy suppression and connected
components computed by scipy's KD-tree and sparse graph routines.
``pair_points`` builds the (t, gamma) row of each detected pair with one
scalar ``gamma`` call per pair, the reference for
``SingComponent.points``.
``oscillation_votes`` is the n >= 3 tangent-oscillation classifier read
one voter and one radius at a time, the reference for the batched
``classify_sing_star``; ``embed_planar`` copies a planar gauge into R^3,
where that classifier needs no angle lift.
``time_extent_scan`` marks the rows of a t x x grid of the planar angle
difference F that change sign, a direct scan against which the time
intervals of ``sing_star_time_extent``, projected from the classified
components, are checked.
``csv_per_cell`` writes a table one cell at a time through ``csv.writer``
and ``json_plain`` copies a payload into plain Python types, the
references for ``serialize.write_csv`` and ``serialize.write_report``.
"""

from __future__ import annotations

import csv

import numpy as np

from worldsheet.curves import (C_PERIOD, MOMENT_TOL, CallableTangent,
                               UnitSpeedCurve, smoothstep)
from worldsheet.gauge import OrthogonalGauge
from worldsheet.quadrature import _panel_gl
from worldsheet.singular import (OSC_NO, OSC_YES, _gauge_angle_state,
                                 _half_g_jump_ok, _torus_embed)
from worldsheet.surface import (ConstraintReport, _second_difference,
                                derivatives, gamma)


class QuadratureError(Exception):
    """Adaptive Simpson failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48):
    """Integrate a vectorized function over [a, b] by adaptive Simpson.

    ``f`` maps an array of abscissae (m,) to values of shape (m,) or
    (m, d).  Subdivision is carried out in batches so the function is
    always called on arrays.  Raises :class:`QuadratureError` with the
    achieved residual if the tolerance cannot be met.
    """
    a = float(a)
    b = float(b)
    if a == b:
        probe = np.asarray(f(np.array([a])))
        return np.zeros(probe.shape[1:])

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo)[..., None] / 6.0 * (flo + 4.0 * fmid + fhi)

    lo = np.array([a])
    hi = np.array([b])
    flo = np.atleast_2d(np.asarray(f(lo), dtype=float).reshape(1, -1))
    fhi = np.atleast_2d(np.asarray(f(hi), dtype=float).reshape(1, -1))
    mid = 0.5 * (lo + hi)
    fmid = np.asarray(f(mid), dtype=float).reshape(1, -1)

    total = np.zeros(flo.shape[1])
    worst = 0.0
    for depth in range(max_depth):
        coarse = simpson(lo, hi, flo, fmid, fhi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = np.asarray(f(lmid), dtype=float).reshape(len(lmid), -1)
        frmid = np.asarray(f(rmid), dtype=float).reshape(len(rmid), -1)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        fine = left + right
        err = np.abs(fine - coarse).max(axis=1) / 15.0
        # local acceptance, proportional to interval share of [a, b]
        budget = tol * np.abs(hi - lo) / abs(b - a)
        done = err <= np.maximum(budget, 1e-300)
        if depth == max_depth - 1:
            worst = float(err[~done].sum()) if (~done).any() else 0.0
            total += (fine[done].sum(axis=0) if done.any() else 0.0)
            if (~done).any():
                total += fine[~done].sum(axis=0)
                raise QuadratureError(
                    f"adaptive Simpson did not converge; residual {worst:.3e}",
                    achieved=worst,
                )
            break
        total += fine[done].sum(axis=0) if done.any() else 0.0
        keep = ~done
        if not keep.any():
            break
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flmid[keep], frmid[keep]])
        mid = 0.5 * (lo + hi)
    result = total
    if result.shape == (1,):
        return result[0]
    return result


def _full_grid_wave_residual(g, ts, xs, h):
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    s = (xx + tt).ravel()
    sig = (xx - tt).ravel()
    h_t, h_x = h, 0.5 * h
    num_t = _second_difference(g.a, s, h_t) + _second_difference(g.b, sig, h_t)
    num_x = _second_difference(g.a, s, h_x) + _second_difference(g.b, sig, h_x)
    resid = 0.5 * (num_t / h_t ** 2 - num_x / h_x ** 2)
    return float(np.linalg.norm(resid, axis=1).max())


def full_grid_constraint_residuals(g, n_t=200, n_x=200, h=1e-3, wave_grid=48):
    """constraint_residuals with the tangents read at every grid point."""
    ts = np.linspace(0.0, g.E0, n_t, endpoint=False)
    xs = np.linspace(0.0, g.E0, n_x, endpoint=False)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    gx, gt = derivatives(g, tt, xx)
    gauge_res = float(np.abs((gx * gx).sum(-1) + (gt * gt).sum(-1) - 1.0).max())
    ortho_res = float(np.abs((gx * gt).sum(-1)).max())
    ts_w = np.linspace(0.0, g.E0, wave_grid, endpoint=False)
    xs_w = np.linspace(0.0, g.E0, wave_grid, endpoint=False) + 0.37 * g.E0 / wave_grid
    w1 = _full_grid_wave_residual(g, ts_w, xs_w, h)
    w2 = _full_grid_wave_residual(g, ts_w, xs_w, 0.5 * h)
    ratio = w1 / w2 if w2 > 0 else np.inf
    return ConstraintReport(
        gauge_residual=gauge_res, ortho_residual=ortho_res,
        wave_residual=w1, wave_residual_half=w2, wave_ratio=ratio,
        wave_constant=w1 / h ** 2, h=h, grid=(n_t, n_x))


def roll_minimum_mask(r2):
    """Cells of r2 no larger than any of their 8 torus neighbours, from 16
    rolled copies of the whole grid."""
    is_min = np.ones_like(r2, dtype=bool)
    for ds in (-1, 0, 1):
        for do in (-1, 0, 1):
            if ds == 0 and do == 0:
                continue
            is_min &= r2 <= np.roll(np.roll(r2, ds, axis=0), do, axis=1)
    return is_min


# HiGHS options of the linear-program oracles
HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}


def hull_interior_lp_dense(points):
    """max t s.t. sum(lam_i p_i) = 0, sum(lam) = 1, lam_i >= t, with the
    m inequalities lam_i >= t written out as a dense block; -inf when
    the solver fails."""
    from scipy.optimize import linprog

    m, n = points.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.zeros((n + 1, m + 1))
    a_eq[:n, :m] = points.T
    a_eq[n, :m] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * m + [(None, 1.0)], method="highs",
                  options=HIGHS_TIGHT)
    return float(-res.fun) if res.success else -np.inf


def hull_interior_lp_bounds(points):
    """The same optimum as ``lam = t + mu``, mu >= 0, t <= 1: n + 1
    equality rows and bounds only; -inf when the solver fails."""
    from scipy.optimize import linprog

    m, n = points.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.empty((n + 1, m + 1))
    a_eq[:n, :m] = points.T
    a_eq[:n, m] = points.sum(axis=0)
    a_eq[n, :m] = 1.0
    a_eq[n, m] = m
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * m + [(None, 1.0)], method="highs",
                  options=HIGHS_TIGHT)
    return float(-res.fun) if res.success else -np.inf


def dwell_lengths_linprog(a_eq, b_eq, a_ub, b_ub, ell_min):
    """min sum(ell) s.t. a_eq ell = b_eq, a_ub ell <= b_ub, ell >= ell_min:
    the optimum, or None when the solver fails."""
    from scipy.optimize import linprog

    res = linprog(np.ones(a_eq.shape[1]),
                  A_ub=a_ub if len(a_ub) else None,
                  b_ub=b_ub if len(a_ub) else None, A_eq=a_eq, b_eq=b_eq,
                  bounds=(ell_min, None), method="highs", options=HIGHS_TIGHT)
    return float(res.fun) if res.success else None


def segment_moments_loop(cfun, params, k):
    """(prev, moment) of the moving segments prev[i] -> params[i] of the
    tangent image ``cfun``: each segment's ramp is a closure over
    ``smoothstep(k)``, its 16 Gauss-Legendre panels are doubled (up to
    4096) until a doubling moves its integral by at most MOMENT_TOL, and
    the segments are summed in order."""
    poly = smoothstep(k)
    prev = np.concatenate([[params[-1] - C_PERIOD], params[:-1]])
    moment = np.zeros(cfun(np.array([0.0])).shape[-1])
    for lo, hi in zip(prev, params):
        f = lambda y: cfun(lo + (hi - lo) * poly((y - lo) / (hi - lo)))
        seg = None
        for n in 16 * 2 ** np.arange(9):
            edges = np.linspace(lo, hi, n + 1)
            finer = _panel_gl(f, edges[:-1], edges[1:]).sum(axis=0)
            if seg is not None and np.linalg.norm(finer - seg) <= MOMENT_TOL:
                break
            seg = finer
        moment += seg
    return prev, moment


def sampled_hausdorff(a_pts, b_pts):
    """Symmetric Hausdorff distance between two point samples."""
    from scipy.spatial import cKDTree

    ta, tb = cKDTree(a_pts), cKDTree(b_pts)
    d_ab = ta.query(b_pts)[0].max()
    d_ba = tb.query(a_pts)[0].max()
    return float(max(d_ab, d_ba))


def near_pairs_kdtree(s, sigma, period, radius):
    """Index pairs i < j of torus points whose embeddings lie within
    radius, as an (m, 2) array from ``cKDTree.query_pairs``."""
    from scipy.spatial import cKDTree

    embed = _torus_embed(np.asarray(s, dtype=float),
                         np.asarray(sigma, dtype=float), period)
    return cKDTree(embed).query_pairs(radius, output_type="ndarray")


def nms_ball_point(s, sigma, period, order, radius):
    """Greedy suppression over one batched ``cKDTree.query_ball_point``:
    visit ``order``, keep a point not yet suppressed and suppress every
    point within radius of it."""
    from scipy.spatial import cKDTree

    embed = _torus_embed(np.asarray(s, dtype=float),
                         np.asarray(sigma, dtype=float), period)
    near = cKDTree(embed).query_ball_point(embed, radius)
    kept = []
    suppressed = np.zeros(len(embed), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        suppressed[near[i]] = True
    return np.array(kept, dtype=int)


def components_csgraph(n, pairs):
    """Connected-component labels of the graph on n points with edges
    ``pairs``, from ``scipy.sparse.csgraph.connected_components``."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)[1]


def pair_points(g, s, sigma):
    """The (m, 1 + n) rows (t, gamma(g, t, x)) of the pairs (s, sigma),
    one pair at a time."""
    rows = []
    for s0, sig0 in zip(s.tolist(), sigma.tolist()):
        t, x = 0.5 * (s0 - sig0), 0.5 * (s0 + sig0)
        rows.append(np.concatenate([[t], gamma(g, t, x)]))
    return np.array(rows).reshape(-1, 1 + g.dim)


def oscillation_votes(g, component, spacing):
    """(sing_star, tangent_gap) of an n >= 3 component: for every voter
    and each of 4 shrinking radii, the largest angle between unit tangents
    on a 16-point circle, skipping points with |gamma_x| <= 1e-9."""
    worst = 0.0
    finest = []
    step = max(1, len(component.s) // 64)
    for t0, x0 in zip(component.t[::step], component.x[::step]):
        radii = [4.0 * spacing / 2 ** j for j in range(4)]
        osc_per_radius = []
        for r in radii:
            ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            ts = t0 + r * np.cos(ang)
            xs = x0 + r * np.sin(ang)
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
    if not finest:
        return "undetermined", worst
    if worst >= OSC_YES:
        return "yes", worst
    if worst <= OSC_NO:
        return "no", worst
    return "undetermined", worst


def embed_planar(g):
    """The copy of a planar gauge in R^3: tangents and basepoints padded
    by a zero third coordinate."""
    def padded(curve):
        rep = curve.rep
        return UnitSpeedCurve(
            CallableTangent(lambda x, order: np.pad(
                rep(x, order), [(0, 0)] * np.ndim(x) + [(0, 1)]),
                rep.period, 3, breakpoints=rep.breakpoints),
            np.append(curve.basepoint, 0.0))

    return OrthogonalGauge(padded(g.a), padded(g.b))


def time_extent_scan(g, t_samples=512, x_samples=2048):
    """The times of the rows t of a t_samples x x_samples grid on which
    F(t, .) of a planar gauge changes sign strictly (|F| > 1e-9 on both
    sides) at a point, or across an interval of near-zeros (|F| below
    1e-9 max |F|) that fails the one-sided matching rule."""
    st = _gauge_angle_state(g)
    E0 = g.E0
    ts = np.linspace(0.0, E0, t_samples, endpoint=False)
    xs = np.linspace(0.0, E0, x_samples, endpoint=False)
    marked = np.zeros(t_samples, dtype=bool)
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
            width = 0
            j = (ci + 1) % x_samples
            while abs(F[j]) < 1e-9 * scale and width < x_samples:
                width += 1
                j = (j + 1) % x_samples
            if width <= 1:
                marked[i] = True
                break
            s0 = xs[(ci + 1) % x_samples]
            s1 = xs[(ci + width) % x_samples]
            if not _half_g_jump_ok(st, t, s0, s1):
                marked[i] = True
                break
    return ts[marked]


def csv_per_cell(path, header, rows):
    """``rows`` (an array of rows, or a structured array of records) as CSV
    through ``csv.writer``, a float cell as repr(float(v)) and any other
    cell as ``csv`` writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def json_plain(obj):
    """``obj`` with numpy scalars and arrays, tuples and nested containers
    converted to plain Python dicts, lists, ints, floats and bools."""
    if isinstance(obj, dict):
        return {k: json_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return json_plain(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj
