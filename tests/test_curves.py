import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from worldsheet import catalog, constructions, curves
from worldsheet.curves import (CallableTangent, PeriodicCubicSpline,
                               PlateauSpline, SphereSamplesTangent,
                               UnitSpeedCurve, _hull_interior_lp,
                               from_tangent_image, smoothstep)
from worldsheet.errors import PreconditionError
from oracles import (adaptive_simpson, dwell_lengths_linprog,
                     hull_interior_lp_bounds, hull_interior_lp_dense,
                     sampled_hausdorff, segment_moments_loop)
from worldsheet.quadrature import _panel_gl

TWO_PI = 2.0 * np.pi


# the great circle in the xy-plane
equator = catalog.wavy_circle_path(wave=0.0)


def test_circle_eval_at_pi():
    c = catalog.circle_curve()
    assert np.abs(c.position(np.pi) - np.array([-1.0, 0.0])).max() < 1e-9


def test_eval_at_zero_is_basepoint():
    c = catalog.circle_curve(basepoint=(0.3, -2.0))
    assert np.abs(c.position(0.0) - np.array([0.3, -2.0])).max() < 1e-15


def test_sphere_path_eval_against_simpson_oracle():
    # dense samples of the circle tangent; compare position with the
    # independent quadrature oracle and the analytic point
    xs = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    samples = np.stack([np.cos(xs + np.pi / 2), np.sin(xs + np.pi / 2)], axis=1)
    rep = SphereSamplesTangent(samples, TWO_PI)
    curve = UnitSpeedCurve(rep, np.array([1.0, 0.0]))
    p = curve.position(np.pi / 2)
    assert np.abs(p - np.array([0.0, 1.0])).max() < 1e-6
    oracle = np.array([1.0, 0.0]) + adaptive_simpson(rep, 0.0, np.pi / 2,
                                                     tol=1e-12)
    assert np.abs(p - oracle).max() < 1e-9


def test_eval_additivity_against_quadrature():
    c = catalog.circle_curve()
    rng = np.random.default_rng(5)
    x1 = rng.uniform(0, TWO_PI, 100)
    x2 = x1 + rng.uniform(0, TWO_PI, 100)
    diff = c.position(x2) - c.position(x1)
    for j in range(100):
        oracle = adaptive_simpson(c.rep, x1[j], x2[j], tol=1e-12)
        assert np.abs(diff[j] - oracle).max() < 1e-8 * max(1, x2[j] - x1[j])


def test_eval_periodic_consistency():
    c = catalog.circle_curve()
    xs = np.linspace(0, TWO_PI, 37)
    d = c.position(xs + TWO_PI) - c.position(xs)
    assert np.abs(d - d[0]).max() < 1e-12
    # the oval's basepoint makes it centrally symmetric: a(x + pi) = -a(x)
    for wobble in (0.2, 0.7):
        oval = catalog.symmetric_oval_curve(wobble)
        assert np.abs(oval.position(xs + np.pi) + oval.position(xs)).max() < 1e-12


def test_closure_circle():
    rep = catalog.circle_curve().closure_defect()
    assert rep.closed
    assert rep.defect < 1e-12


def test_closure_straight_tangent_open():
    rep_t = lambda x, order: np.stack([np.full_like(x, 1.0 - order),
                                       np.zeros_like(x)], axis=-1)
    c = UnitSpeedCurve(CallableTangent(rep_t, 1.0, 2), np.zeros(2))
    rep = c.closure_defect()
    assert not rep.closed
    assert abs(rep.defect - 1.0) < 1e-12


def test_unit_norm_invariant_dense():
    for curve in (catalog.circle_curve(),
                  catalog.symmetric_oval_curve(0.2),
                  from_tangent_image(equator, k=2)):
        norm_err, per_err = curve.validate(10000)
        assert norm_err <= 1e-9
        assert per_err <= 1e-9


def test_smoothstep_boundary_derivatives():
    for k in (1, 2, 3, 5):
        p = smoothstep(k)
        assert abs(p(0.0)) < 1e-15 and abs(p(1.0) - 1.0) < 1e-14
        d = p
        for _ in range(k):
            d = d.deriv()
            assert abs(d(0.0)) < 1e-12 and abs(d(1.0)) < 1e-10


# from_tangent_image ------------------------------------------------------

def test_equator_realizes_itself():
    a = from_tangent_image(equator, k=2)
    assert a.closure_defect().defect < 1e-10
    xs = np.linspace(0, a.period, 4096, endpoint=False)
    pos = a.position(xs)
    r = np.linalg.norm(pos - pos.mean(axis=0), axis=1)
    assert np.abs(r - 1.0).max() < 1e-9
    assert np.abs(pos[:, 2]).max() < 1e-12


def test_tangent_image_hausdorff_meridian_oval():
    path = catalog.meridian_oval_path(lon=0.0, width=0.25, overshoot=0.18)
    a = from_tangent_image(path, k=3)
    assert a.closure_defect().defect <= 1e-6
    m = 1 << 16
    img = a.tangent(np.linspace(0, a.period, m, endpoint=False))
    tgt = path(np.linspace(0, TWO_PI, m, endpoint=False))
    assert sampled_hausdorff(img, tgt) <= 1e-3


def test_from_tangent_image_rejects_hemisphere():
    def north(u):
        u = np.asarray(u, dtype=float)
        lat = 0.5 + 0.2 * np.sin(u)
        return np.stack([np.cos(lat) * np.cos(u), np.cos(lat) * np.sin(u),
                         np.sin(lat)], axis=-1)

    with pytest.raises(PreconditionError, match="convex hull"):
        from_tangent_image(north, k=1)


def test_latitude_circle_hull_lp_infeasible():
    # every point has z = 1/2, so no combination with unit sum is 0 and
    # the hull LP has no feasible point at all
    u = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    lat = np.stack([0.5 * np.sqrt(3.0) * np.cos(u),
                    0.5 * np.sqrt(3.0) * np.sin(u), np.full_like(u, 0.5)],
                   axis=1)
    assert _hull_interior_lp(lat) == -np.inf
    with pytest.raises(PreconditionError,
                       match="convex hull does not contain origin"):
        from_tangent_image(lat, k=2)


def _hull_point_sets():
    rng = np.random.default_rng(7)

    def sphere(m, dim):
        v = rng.normal(size=(m, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    shifted = sphere(256, 3) + [0.0, 0.0, 0.3]
    cap = sphere(256, 3)
    cap[:, 2] = np.abs(cap[:, 2]) + 0.1            # 0 outside the hull
    edge = sphere(256, 3)
    edge[:, 2] = np.abs(edge[:, 2])
    edge[:8, 2] = 0.0                               # 0 on a hull facet
    return {"s2": sphere(256, 3), "s3": sphere(256, 4), "s1": sphere(64, 2),
            "shifted": shifted, "cap": cap, "edge": edge}


def test_hull_interior_lp_matches_dense_formulation():
    for name, pts in _hull_point_sets().items():
        t_star = _hull_interior_lp(pts)
        assert abs(t_star - hull_interior_lp_dense(pts)) <= 1e-12, name
        assert (t_star > 1e-9) == (name not in ("cap", "edge")), name
    assert _hull_interior_lp(_hull_point_sets()["cap"]) < 0.0


def _random_hull_points(seed):
    """m unit vectors in R^dim; seed mod 3 picks the kind: on the sphere,
    shifted along the last axis, or flat in a plane missing 0 (then no
    affine combination is 0 and the hull program is infeasible)."""
    rng = np.random.default_rng(seed)
    m, dim = int(rng.integers(4, 257)), int(rng.integers(2, 5))
    v = rng.normal(size=(m, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if seed % 3 == 1:
        v[:, -1] += rng.uniform(0.0, 1.0)
    elif seed % 3 == 2:
        v[:, -1] = rng.choice([0.5, -0.3])
    return v


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
# at its default tolerances HiGHS stops 1.7e-10 (1795, dense form) and
# 7.4e-10 (2155, bounds form) short of these optima
@example(1795)
@example(2155)
def test_hull_lp_matches_linprog(seed):
    pts = _random_hull_points(seed)
    t_star = _hull_interior_lp(pts)
    for ref in (hull_interior_lp_bounds(pts), hull_interior_lp_dense(pts)):
        if np.isinf(ref) or np.isinf(t_star):
            assert t_star == ref
        else:
            assert abs(t_star - ref) <= 1e-12


def _random_dwell_program(seed):
    """Dwell points, moment target and at most one pinned-fraction row;
    odd seeds put the target in the cone of the points."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(4, 13))
    pts = rng.normal(size=(q, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    target = (pts.T @ rng.uniform(0.0, 3.0, q) if seed % 2
              else 3.0 * rng.normal(size=3))
    n_pin = int(rng.integers(0, 2))
    a_ub, b_ub = np.empty((n_pin, q)), np.empty(n_pin)
    for i in range(n_pin):
        frac = rng.uniform(0.05, 0.3)
        a_ub[i] = frac
        a_ub[i, rng.integers(q)] -= 1.0
        b_ub[i] = -frac * TWO_PI
    return pts.T, target, a_ub, b_ub


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(0)
@example(1)
def test_dwell_lp_matches_linprog(seed):
    program = _random_dwell_program(seed)
    ell = curves._dwell_lengths(*program)
    ref = dwell_lengths_linprog(*program, curves.ELL_MIN)
    assert (ell is None) == (ref is None)
    if ell is not None:
        assert abs(ell.sum() - ref) <= 1e-12 * max(1.0, abs(ref))
        assert ell.min() >= curves.ELL_MIN
        a_eq, b_eq, a_ub, b_ub = program
        assert np.abs(a_eq @ ell - b_eq).max() <= 1e-12 * max(1.0, ref)
        assert np.all(a_ub @ ell <= b_ub + 1e-12 * max(1.0, ref))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(0)
@example(1)
def test_nnls_matches_scipy(seed):
    from scipy.optimize import nnls
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 40))
    a = rng.normal(size=(m, n))
    # even seeds: b in the cone of the columns, so the residual is 0 and
    # the solution is one of many; the two must take the same path to it
    b = (a @ np.maximum(rng.normal(size=n), 0.0) if seed % 2 == 0
         else rng.normal(size=m))
    x, ref = curves._nnls(a, b), nnls(a, b)[0]
    assert np.abs(x - ref).max() <= 1e-12
    assert np.array_equal(x > 1e-9, ref > 1e-9)


def test_simplex_redundant_rows_and_unbounded():
    # x0 - x1 = 0 twice over (once negated): phase 1 ends at once with both
    # artificials basic at level 0; the first is pivoted out, the second
    # row is then all zero and is dropped
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(curves._simplex(np.array([1.0, 2.0]), a,
                                          np.zeros(2)), np.zeros(2))
    with pytest.raises(PreconditionError, match="unbounded"):
        curves._simplex(np.array([-1.0, -1.0]), a, np.zeros(2))


def test_nnls_matches_scipy_on_dwell_support():
    # the dwell search's own shape: 1024 image samples of a meridian oval
    # against the negated moment of a few of them
    from scipy.optimize import nnls
    path = catalog.meridian_oval_path(lon=0.0, width=0.3, overshoot=0.45)
    image = path(np.linspace(0.0, TWO_PI, curves.IMAGE_SAMPLES,
                             endpoint=False))
    b = -image[[3, 200, 611, 900]].sum(axis=0)
    x, ref = curves._nnls(image.T, b), nnls(image.T, b)[0]
    assert np.abs(x - ref).max() <= 1e-12
    assert np.array_equal(np.flatnonzero(x > 1e-9), np.flatnonzero(ref > 1e-9))
    assert np.abs(image.T @ x - b).max() <= 1e-12


def test_from_tangent_image_sampled_input():
    us = np.linspace(0, TWO_PI, 2048, endpoint=False)
    path = catalog.meridian_oval_path(lon=0.0, width=0.3, overshoot=0.2)
    a = from_tangent_image(path(us), k=2)
    assert a.closure_defect().defect <= 1e-6
    # the sampled tangent is renormalized on every read, so it meets the
    # one norm tolerance of every representation
    a.validate(4096)


def test_dwell_solve_retries_after_infeasible_lp(monkeypatch):
    # normalize(c0 + sum_m cc_m cos mu + ss_m sin mu): the first point set
    # leaves the dwell LP infeasible, and a larger one solves it; a moving
    # segment there needs more than 16 panels for its moment to close
    rng = np.random.default_rng(182)
    cc, ss = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    c0 = 0.3 * rng.normal(size=3)
    ms = np.arange(1, 5)

    def path(u, order=0):
        mu = np.multiply.outer(np.asarray(u, dtype=float), ms)
        v = c0 + np.cos(mu) @ cc + np.sin(mu) @ ss
        r = np.linalg.norm(v, axis=-1, keepdims=True)
        if order == 0:
            return v / r
        dv = (-ms * np.sin(mu)) @ cc + (ms * np.cos(mu)) @ ss
        return dv / r - v * (v * dv).sum(-1, keepdims=True) / r ** 3

    simplex, solved = curves._simplex, []

    def counted(*args, **kwargs):
        x = simplex(*args, **kwargs)
        solved.append(x is not None)
        return x

    monkeypatch.setattr(curves, "_simplex", counted)
    a = from_tangent_image(path, k=3)
    assert solved == [True, False, True]        # hull LP, then two dwell LPs
    assert a.closure_defect().closed
    assert a.closure_defect().defect <= 1e-12


def test_from_tangent_image_requested_period():
    path = catalog.wavy_circle_path(wave=0.2)
    a = from_tangent_image(path, k=3, period=2.5)
    assert abs(a.period - 2.5) < 1e-15
    assert a.closure_defect().defect < 1e-10
    assert a.validate(4096)[0] < 1e-12


def test_pinned_dwell_fraction():
    path = catalog.meridian_oval_path(lon=0.0, width=0.3, overshoot=0.45,
                                      pinched=True)
    a = from_tangent_image(path, k=3, period=1.0,
                           pinned=[(np.pi / 2, 0.2)])
    spans = [(d1 - d0) for d0, d1, cp in a.metadata["dwells"]
             if abs(cp - np.pi / 2) < 1e-9]
    assert spans and max(spans) >= 0.2 - 1e-9
    # the dwell really sits at e1
    d0, d1, _ = [d for d in a.metadata["dwells"]
                 if abs(d[2] - np.pi / 2) < 1e-9][0]
    mid = 0.5 * (d0 + d1)
    assert np.abs(a.tangent(mid) - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_pinned_dwell_replaces_a_close_junction():
    # pinned at 2 pi / 64, one junction spacing after the junction at 0:
    # the merge drops that junction and keeps the pinned one
    path = catalog.meridian_oval_path(lon=0.0, width=0.3, overshoot=0.45,
                                      pinched=True)
    u0 = TWO_PI / 64.0
    a = from_tangent_image(path, k=3, period=1.0, pinned=[(u0, 0.2)])
    params = np.array([cp for _, _, cp in a.metadata["dwells"]])
    assert params[0] == u0 and 0.0 not in params
    assert np.diff(np.r_[params, params[0] + TWO_PI]).min() >= TWO_PI / 64.0
    d0, d1, _ = a.metadata["dwells"][0]
    assert d1 - d0 >= 0.2 - 1e-9
    assert np.abs(a.tangent(0.5 * (d0 + d1)) - path(u0)).max() < 1e-12
    assert a.closure_defect().defect <= 1e-12


def test_dwell_lp_infeasible_when_moment_leaves_dwell_span():
    # the equator with a narrow up and down bump just after u = 0: the
    # junction merge drops every bump point, the dwell points all lie on
    # the equator, and the moment's z part stays out of their span
    w, h = 0.005, 0.5

    def path(u, order=0):
        u = np.asarray(u, dtype=float)
        g1, g2 = (np.exp(-((u - c) / w) ** 2) for c in (0.04, 0.06))
        v = np.stack([np.cos(u), np.sin(u), h * (g1 - g2)], axis=-1)
        r = np.linalg.norm(v, axis=-1, keepdims=True)
        if order == 0:
            return v / r
        dz = 2.0 * h / w ** 2 * ((0.04 - u) * g1 - (0.06 - u) * g2)
        dv = np.stack([-np.sin(u), np.cos(u), dz], axis=-1)
        return dv / r - v * (v * dv).sum(-1, keepdims=True) / r ** 3

    with pytest.raises(PreconditionError,
                       match="dwell-length solve failed: linear program infeasible"):
        from_tangent_image(path, k=3)


@pytest.fixture(scope="module")
def realized():
    """Every curve that catalog and constructions realize through
    from_tangent_image, and the (cfun, params, k) of every segment-moment
    call made while realizing them."""
    made, calls = [], []
    build, moments = curves.from_tangent_image, curves._segment_moments

    def built(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    def recorded(cfun, params, k):
        calls.append((cfun, params.copy(), k))
        return moments(cfun, params, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "from_tangent_image", built)
        mp.setattr(constructions, "from_tangent_image", built)
        mp.setattr(curves, "_segment_moments", recorded)
        catalog.meridian_loops_gauge()
        catalog.wavy_pair_gauge()
        constructions.nonuniqueness_pair()
        constructions.same_surface_family()
    return made, calls


def test_realized_catalog_and_construction_curves_close(realized):
    made, _ = realized
    # meridian loops and wavy pair: 2 + 2; nonuniqueness pieces: 6; the
    # same-surface family: 1 + 3
    assert len(made) == 14
    for curve in made:
        assert curve.closure_defect().defect <= 1e-12


def test_segment_moments_match_per_segment_loop(realized):
    # the junction sets of the meridian-oval, swing and nonuniqueness-piece
    # builds (two per dwell build), then random sorted junction sets
    calls = list(realized[1])
    assert len(calls) == 24
    rng = np.random.default_rng(7)
    paths = [catalog.meridian_oval_path(lon=0.0, width=0.25, overshoot=0.18),
             catalog.swing_path(swing=2.0, lat_max=-0.9, lon_center=0.0)]
    us = np.linspace(0.0, TWO_PI, curves.IMAGE_SAMPLES, endpoint=False)
    for trial in range(12):
        params = np.sort(rng.choice(us, int(rng.integers(3, 20)),
                                    replace=False))
        calls.append((paths[trial % 2], params, int(rng.integers(1, 4))))
    for cfun, params, k in calls:
        prev, moment = curves._segment_moments(cfun, params, k)
        ref_prev, ref_moment = segment_moments_loop(cfun, params, k)
        assert np.array_equal(prev, ref_prev)
        assert np.array_equal(moment, ref_moment)


def test_plateau_reparametrization_junction_smoothness():
    # tangent derivative of the realized curve vanishes where dwells meet
    # moving segments (order-k contact)
    path = catalog.meridian_oval_path(lon=0.0, width=0.25, overshoot=0.18)
    a = from_tangent_image(path, k=3)
    for d0, d1, _ in a.metadata["dwells"][:4]:
        for edge in (d0, d1):
            dv = a.tangent_derivative(np.array([edge - 1e-9, edge + 1e-9]))
            assert np.abs(dv).max() < 1e-5


# exact tangent derivatives ------------------------------------------------

def _five_point(f, x, h):
    """Fourth-order central difference of x -> f(x)."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


_PATHS = {
    "meridian-oval": catalog.meridian_oval_path(lon=0.3, width=0.25,
                                                overshoot=0.18),
    "meridian-pinched": catalog.meridian_oval_path(
        width=0.2, overshoot=0.4, bottom=-0.1, pinched=True),
    "swing": catalog.swing_path(swing=2.0, lat_max=-0.9, lon_center=0.4),
    "wavy-circle": catalog.wavy_circle_path(wave=0.3, phase=0.7),
}


@pytest.mark.parametrize("name", list(_PATHS))
def test_catalog_path_derivative_exact(name):
    path = _PATHS[name]
    us = np.random.default_rng(3).uniform(0.0, TWO_PI, 2000)
    assert np.abs(path(us, 1) - _five_point(path, us, 1e-4)).max() <= 1e-8


_OVAL_SAMPLES = catalog.meridian_oval_path(lon=0.0, width=0.3, overshoot=0.2)(
    np.linspace(0.0, TWO_PI, 2048, endpoint=False))


def _probe_perturbed(curve):
    """A genericity-probe perturbation of ``curve`` (closed-form tangent)."""
    from worldsheet.topology import _ProbeBasis, _perturb_curve
    return _perturb_curve(_ProbeBasis(curve), np.random.default_rng(5),
                          0.05)[0].rep


# name -> rep, built from a fixture getter
_TANGENT_FIELDS = {
    "angle-oval": lambda fx: catalog.symmetric_oval_curve(0.2).rep,
    "angle-nonconvex": lambda fx: catalog.nonconvex_gauge().b.rep,
    "sphere-samples": lambda fx: SphereSamplesTangent(_OVAL_SAMPLES, TWO_PI),
    "hopf": lambda fx: fx("hopf").a.rep,
    "mirrored-hopf": lambda fx: catalog.mirrored_hopf_gauge().b.rep,
    "image-fast-path": lambda fx: from_tangent_image(
        _PATHS["wavy-circle"], k=3, period=2.5).rep,
    "image-dwell-path": lambda fx: fx("meridian_loops").b.rep,
    "image-sampled": lambda fx: from_tangent_image(_OVAL_SAMPLES, k=2).rep,
    "shifted": lambda fx: fx("meridian_loops").a.shifted(0.9).rep,
    "period3-assembly": lambda fx: fx("nonuniq")[1].b.rep,
    "embedded-n4": lambda fx: constructions._embed(fx("nonuniq")[0].a, 4).rep,
    "probe-hopf": lambda fx: _probe_perturbed(fx("hopf").a),
    "probe-image-dwell": lambda fx: _probe_perturbed(fx("meridian_loops").b),
}


@pytest.mark.parametrize("name", list(_TANGENT_FIELDS))
def test_tangent_derivative_exact(name, request):
    # the steepest ramps of the nonuniqueness assemblies turn at |T'| ~ 300,
    # where the difference itself is only good to ~1e-8 relative, so the
    # tolerance is 1e-7 relative to max(1, |T'|)
    rep = _TANGENT_FIELDS[name](request.getfixturevalue)
    h = 2e-6
    x = np.random.default_rng(4).uniform(0.0, rep.period, 4000)
    if rep.breakpoints:
        d = np.subtract.outer(x, np.asarray(rep.breakpoints, dtype=float))
        d = np.abs(np.mod(d + 0.5 * rep.period, rep.period) - 0.5 * rep.period)
        x = x[d.min(axis=1) > 4 * h]
    assert len(x) > 1000
    exact = rep(x, 1)
    err = np.abs(exact - _five_point(rep, x, h)).max(axis=1)
    assert np.all(err <= 1e-7 * np.maximum(1.0, np.abs(exact).max(axis=1)))


# PlateauSpline ------------------------------------------------------------

@st.composite
def plateau_chains(draw):
    """Continuous chain of ramps and dwells: (spline, starts, widths, v0,
    dv, k), with piece j running from knot j to knot j + 1."""
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 8))
    value = st.floats(-10.0, 10.0, allow_nan=False)
    widths = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n,
                                    max_size=n)))
    starts = draw(value) + np.concatenate([[0.0], np.cumsum(widths[:-1])])
    knots = [draw(value)]
    for _ in range(n):
        knots.append(knots[-1] if draw(st.booleans()) else draw(value))
    knots = np.array(knots)
    v0, dv = knots[:-1], np.diff(knots)
    return PlateauSpline(starts, widths, v0, dv, k), starts, widths, v0, dv, k


def _plateau_reference(x, order, starts, widths, v0, dv, k):
    """The same definition evaluated by a loop over the pieces."""
    s_r = smoothstep(k).deriv(order)
    owner = np.clip((x[:, None] >= starts[None, :]).sum(axis=1) - 1,
                    0, len(starts) - 1)
    out = np.zeros(len(x))
    for j in range(len(starts)):
        m = owner == j
        u = np.clip((x[m] - starts[j]) / widths[j], 0.0, 1.0)
        if dv[j] == 0.0:
            out[m] = v0[j] if order == 0 else 0.0
        elif order == 0:
            out[m] = v0[j] + dv[j] * s_r(u)
        else:
            # array power: a scalar ** can round differently
            out[m] = dv[j] * s_r(u) / np.full(len(u), widths[j]) ** order
    return out


@settings(max_examples=150, deadline=None)
@given(plateau_chains(), st.lists(st.floats(0.0, 1.0), min_size=1,
                                  max_size=6))
def test_plateau_spline_properties(chain, us):
    spline, starts, widths, v0, dv, k = chain
    us = np.array(us)
    inside = (starts[:, None] + widths[:, None] * us[None, :]).ravel()
    ends = starts + widths
    x = np.concatenate([inside, starts, ends, [starts[0] - 1.0,
                                               ends[-1] + 1.0]])
    piece = np.repeat(np.arange(len(starts)), len(us))

    # values stay between v0 and v0 + dv on each piece (up to rounding)
    val = spline(inside)
    lo = np.minimum(v0, v0 + dv)[piece]
    hi = np.maximum(v0, v0 + dv)[piece]
    slack = 1e-12 * (1.0 + np.abs(val))
    assert np.all(val >= lo - slack) and np.all(val <= hi + slack)

    for order in range(2 * k + 2):
        got = spline(x, order)
        # bit-identical to the per-piece reference
        ref = _plateau_reference(x, order, starts, widths, v0, dv, k)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        if order > 0:
            # every derivative on a dwell is exactly +0.0
            on_dwell = dv[spline.index(x)] == 0.0
            assert np.all(got[on_dwell] == 0.0)
            assert not np.signbit(got[on_dwell]).any()

    # one-sided limits at the interior junctions agree for orders 0..k
    junctions = starts[1:]
    left = np.nextafter(junctions, -np.inf)
    right = np.nextafter(junctions, np.inf)
    for order in range(k + 1):
        scale = (1.0 + np.abs(v0).max() + np.abs(dv).max()) \
            / widths.min() ** order
        gap = np.abs(spline(left, order) - spline(right, order))
        assert np.all(gap <= 1e-9 * scale)


def test_plateau_spline_end_pieces_extend():
    spline = PlateauSpline([0.0, 1.0], [1.0, 2.0], [2.0, 5.0], [3.0, 0.0], 2)
    x = np.array([-3.0, -0.0, 0.5, 1.0, 2.0, 3.0, 10.0])
    assert np.array_equal(spline(x), [2.0, 2.0, 3.5, 5.0, 5.0, 5.0, 5.0])
    d = spline(x, 1)
    assert d[0] == 0.0 and d[2] == 3.0 * smoothstep(2).deriv()(0.5)
    assert np.all(d[3:] == 0.0) and not np.signbit(d[3:]).any()


@pytest.mark.parametrize("m", [3, 7, 64, 4096])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_periodic_cubic_spline_matches_scipy(m, d):
    from scipy.interpolate import CubicSpline
    period = 2.7
    rng = np.random.default_rng(10 * m + d)
    nodes = np.arange(m) * (period / m)
    phase = np.outer(nodes, 2.0 * np.pi / period * np.arange(1, 6))
    y = (np.cos(phase) @ rng.normal(size=(5, d))
         + np.sin(phase) @ rng.normal(size=(5, d)) + rng.normal(size=d))
    spline = PeriodicCubicSpline(y, period)
    ref = CubicSpline(np.linspace(0.0, period, m + 1),
                      np.vstack([y, y[:1]]), axis=0, bc_type="periodic")
    x = rng.uniform(-3.0 * period, 3.0 * period, 2000)
    scale = [np.abs(y).max(), np.abs(ref(np.mod(x, period), 1)).max()]
    for order in (0, 1):
        got = spline(x, order)
        assert got.shape == x.shape + (d,)
        tol = 1e-12 * scale[order]     # a derivative on its own scale
        assert np.abs(got - ref(np.mod(x, period), order)).max() <= tol
        assert np.abs(spline(x + period, order) - got).max() <= tol
    assert np.abs(spline(nodes) - y).max() <= 1e-12 * scale[0]
    # scalar values give scalar-shaped results
    flat = PeriodicCubicSpline(y[:, 0], period)
    assert np.array_equal(flat(x.reshape(40, 50)),
                          spline(x)[:, 0].reshape(40, 50))


def _dwell_realizations():
    yield "meridian-oval", from_tangent_image(
        catalog.meridian_oval_path(lon=0.0, width=0.25, overshoot=0.18), k=3)
    for w, o in constructions.PINCHED_PARAMS:
        yield f"pinched-{w}", from_tangent_image(
            catalog.meridian_oval_path(lon=0.0, width=w, overshoot=o,
                                       pinched=True),
            k=3, period=1.0, pinned=[(0.5 * np.pi,
                                      constructions.DWELL_FRACTION)])
    for s, m in constructions.SWING_PARAMS:
        yield f"swing-{s}", from_tangent_image(
            catalog.swing_path(swing=s, lat_max=-m, lon_center=0.0),
            k=3, period=1.0, pinned=[(0.0, constructions.DWELL_FRACTION)])


def _assert_exact_dwells(curve):
    assert curve.metadata["dwells"]
    for d0, d1, cp in curve.metadata["dwells"]:
        xs = np.linspace(d0, d1, 203)[1:-1]
        t = curve.tangent(xs)
        assert np.array_equal(t, np.broadcast_to(t[0], t.shape))
        dt = curve.tangent_derivative(xs)
        assert np.all(dt == 0.0) and not np.signbit(dt).any()


@pytest.mark.parametrize("name,curve", list(_dwell_realizations()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_tangent_image_dwells_exactly_constant(name, curve):
    _assert_exact_dwells(curve)


def test_meridian_loops_dwells_exactly_constant(meridian_loops):
    _assert_exact_dwells(meridian_loops.a)
    _assert_exact_dwells(meridian_loops.b)


def _subdivided_position(curve, x, sub=32):
    """Reference positions from fresh Gauss-Legendre rules: the uniform
    2048-panel grid cut at the tangent's breakpoints, each panel cut again
    into ``sub`` equal sub-panels.  Sub-panels are summed inside their panel
    first, so the running sum over the period sees 2048 terms."""
    P = curve.period
    edges = np.unique(np.concatenate([np.linspace(0.0, P, 2049),
                                      np.mod(np.asarray(curve.rep.breakpoints, float), P)]))
    width = np.diff(edges)
    lo = edges[:-1, None] + width[:, None] * (np.arange(sub) / sub)
    hi = np.concatenate([lo[:, 1:], edges[1:, None]], axis=1)
    parts = _panel_gl(curve.rep, lo.ravel(), hi.ravel()).reshape(len(width), sub, -1)
    within = np.concatenate([np.zeros((len(width), 1, curve.dim)),
                             np.cumsum(parts, axis=1)], axis=1)
    prefix = np.vstack([np.zeros(curve.dim), np.cumsum(within[:, -1], axis=0)])
    wraps = np.floor(x / P)
    y = x - wraps * P
    i = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, len(width) - 1)
    k = np.clip((lo[i] <= y[:, None]).sum(axis=1) - 1, 0, sub - 1)
    return (curve.basepoint + prefix[i] + within[i, k] + _panel_gl(curve.rep, lo[i, k], y)
            + wraps[:, None] * prefix[-1])


POSITION_GAUGES = {
    "circle": lambda fx: [fx("circle")],
    "hopf": lambda fx: [fx("hopf")],
    "meridian_loops": lambda fx: [fx("meridian_loops")],
    "wavy_pair": lambda fx: [fx("wavy_pair")],
    "random_planar_0": lambda fx: [catalog.random_planar_gauge(0)],
    "nonuniq_n3": lambda fx: list(fx("nonuniq")[:2]),
    "nonuniq_n4": lambda fx: list(constructions.nonuniqueness_pair(n=4)[:2]),
    "same_surface": lambda fx: list(constructions.same_surface_family()),
    "cantor_k1": lambda fx: [fx("cantor_k1")[0]],
    "cantor_k2": lambda fx: [fx("cantor_k2")[0]],
}


@pytest.mark.parametrize("name", sorted(POSITION_GAUGES))
def test_positions_match_subdivided_reference(name, request):
    rng = np.random.default_rng(sorted(POSITION_GAUGES).index(name))
    for g in POSITION_GAUGES[name](request.getfixturevalue):
        for curve in (g.a, g.b):
            P = curve.period
            x = np.concatenate([rng.uniform(0.0, P, 48), rng.uniform(-4 * P, 0.0, 16),
                                rng.uniform(2 * P, 7 * P, 16)])
            err = np.abs(curve.position(x) - _subdivided_position(curve, x)).max()
            assert err < 1e-12, (name, err)


def test_position_makes_no_tangent_calls_after_construction():
    calls = []
    circle = catalog.circle_curve().rep

    def tangent(x, order):
        calls.append(len(x))
        return circle(x, order)

    curve = UnitSpeedCurve(CallableTangent(tangent, TWO_PI, 2), np.array([1.0, 0.0]))
    curve.drift()
    built = len(calls)
    assert built > 0
    x = np.linspace(-3 * TWO_PI, 3 * TWO_PI, 1001)
    p = curve.position(x)
    assert len(calls) == built
    assert np.abs(p - np.stack([np.cos(x), np.sin(x)], axis=-1)).max() < 1e-13
