import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from worldsheet import catalog, singular
from worldsheet.curves import PAIR_TOL, UnitSpeedCurve
from worldsheet.errors import PreconditionError
from worldsheet.gauge import OrthogonalGauge
from worldsheet.singular import (_sublevel_minima, angle_state,
                                 classify_sing_star, find_antipodal_pairs,
                                 grid_residuals, is_global_immersion,
                                 null_tangent_check, sing_star_time_extent,
                                 tangent_formula)
from worldsheet.surface import derivatives, metric_det
from oracles import (components_csgraph, embed_planar, near_pairs_kdtree,
                     nms_ball_point, oscillation_votes, pair_points,
                     roll_minimum_mask, time_extent_scan)

TWO_PI = 2.0 * np.pi


def test_circle_full_slice_detection(circle):
    rep = find_antipodal_pairs(circle)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.kind == "full_time_slice"
    assert min(abs(t - np.pi / 2) for t in comp.slice_times) < 2 * TWO_PI / 512
    assert min(abs(t - 3 * np.pi / 2) for t in comp.slice_times) < 2 * TWO_PI / 512


def test_circle_pairs_satisfy_antipodal_relation(circle):
    comp = find_antipodal_pairs(circle).components[0]
    s, sigma, t, x = comp.s[:50], comp.sigma[:50], comp.t[:50], comp.x[:50]
    # a'(s) = -b'(sigma) happens exactly at s - sigma = pi mod 2pi
    assert np.all(np.abs((s - sigma - np.pi + np.pi) % TWO_PI - np.pi) < 1e-7)
    assert np.all(comp.residual[:50] <= 1e-8)
    # round trip (t, x) -> (s, sigma) is the exact algebraic inverse
    # (no modular adjustment), up to one rounding of the half-sums
    tol = 4 * np.finfo(float).eps * np.maximum(1, s)
    assert np.all(np.abs((x + t) - s) <= tol)
    assert np.all(np.abs((x - t) - sigma) <= tol)


@pytest.mark.parametrize("gauge", ["census0", "census1", "census2",
                                   "census3", "cantor_k1"])
def test_component_points_match_per_pair_gamma(gauge, request):
    g = (request.getfixturevalue("cantor_k1")[0] if gauge == "cantor_k1"
         else catalog.random_planar_gauge(seed=int(gauge[-1])))
    comps = find_antipodal_pairs(g).components
    assert comps
    for comp in comps:
        assert np.array_equal(comp.points(g),
                              pair_points(g, comp.s, comp.sigma))


def test_hopf_immersion_margin(hopf):
    ok, margin = is_global_immersion(hopf)
    assert ok
    assert abs(margin - np.sqrt(2)) < 1e-9


def test_degenerate_gauge_full_slice():
    d = catalog.degenerate_slice_gauge()
    rep = find_antipodal_pairs(d)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.kind == "full_time_slice"
    assert min(abs(t - np.pi / 4) for t in comp.slice_times) < 2 * TWO_PI / 512


def test_meridian_loops_immersion(meridian_loops):
    ok, margin = is_global_immersion(meridian_loops)
    assert ok
    assert margin > 0.05


def test_random_planar_always_singular():
    for seed in range(6):
        g = catalog.random_planar_gauge(seed=seed)
        rep = find_antipodal_pairs(g)
        assert not rep.empty, seed


def test_detected_pairs_have_degenerate_metric():
    g = catalog.random_planar_gauge(seed=9)
    s, sigma = find_antipodal_pairs(g).pairs[:100].T
    assert np.all(np.abs(metric_det(g, 0.5 * (s - sigma),
                                    0.5 * (s + sigma))) <= 1e-6)


def test_brute_force_oracle_agreement():
    # refined detection vs the plain grid: no sub-threshold grid cell
    # without a reported pair, and every reported pair is a true zero
    for seed in (1, 3, 8):
        g = catalog.random_planar_gauge(seed=seed)
        rep = find_antipodal_pairs(g, grid_n=512)
        res, grid = grid_residuals(g, 512)
        hot = np.argwhere(res < PAIR_TOL / 10)
        pairs = rep.pairs
        spacing = g.E0 / 512
        for i, j in hot:
            d = np.abs(pairs - np.array([grid[i], grid[j]]))
            d = np.minimum(d, g.E0 - d).max(axis=1)
            assert d.min() <= 2 * spacing
        for comp in rep.components:
            assert np.all(comp.residual <= 10 * PAIR_TOL)


def test_tangent_formula_quarter_offset_gauge():
    a = catalog.angle_curve(lambda x: x + 0.5 * np.pi,
                            lambda x: np.ones_like(x))
    # beta = alpha - pi/2 so that F(0, 0) = pi/2 is regular
    b = catalog.angle_curve(lambda x: x + np.pi, lambda x: np.ones_like(x))
    g = OrthogonalGauge(a, b)
    st = angle_state(g)
    tau = tangent_formula(st, 0.0, 0.0)
    gx, _ = derivatives(g, 0.0, 0.0)
    direct = gx / np.linalg.norm(gx)
    assert np.abs(np.asarray(tau) - direct).max() < 1e-12


def test_tangent_formula_random_gauge_seed5():
    g = catalog.random_planar_gauge(seed=5)
    st = angle_state(g)
    rng = np.random.default_rng(5)
    count = 0
    while count < 1000:
        t = rng.uniform(0, g.E0)
        x = rng.uniform(0, g.E0)
        gx, _ = derivatives(g, t, x)
        nrm = np.linalg.norm(gx)
        if nrm < 1e-3:
            continue
        tau = np.asarray(tangent_formula(st, t, x))
        direct = gx / nrm
        mism = np.arccos(np.clip(np.abs(tau @ direct), -1, 1))
        assert np.abs(tau - direct).max() < 1e-8 or mism < 1e-8
        count += 1


def test_tangent_formula_reflection_antisymmetry():
    a = catalog.angle_curve(lambda x: x + 0.5 * np.pi,
                            lambda x: np.ones_like(x))
    b = catalog.angle_curve(lambda x: x + np.pi, lambda x: np.ones_like(x))
    st = angle_state(OrthogonalGauge(a, b))
    tau1 = np.asarray(tangent_formula(st, 0.1, 0.3))

    class Flipped:
        E0 = st.E0

        def F(self, t, x):
            return -st.F(t, x)

        def G(self, t, x):
            return st.G(t, x)

    tau2 = np.asarray(tangent_formula(Flipped(), 0.1, 0.3))
    assert np.abs(tau1 + tau2).max() < 1e-12


def test_tangent_formula_rejects_singular_point(circle):
    st = angle_state(circle)
    with pytest.raises(PreconditionError):
        tangent_formula(st, np.pi / 2, 0.3)


def test_classify_circle_full_slice_not_strict(circle):
    rep = find_antipodal_pairs(circle)
    cc = classify_sing_star(circle, rep.components[0])
    assert cc.sing_star == "no"


def test_classify_generic_crossing_strict():
    g = catalog.random_planar_gauge(seed=3)
    rep = find_antipodal_pairs(g)
    flags = {classify_sing_star(g, c).sing_star for c in rep.components}
    assert "yes" in flags


def test_classify_lifts_planar_angles_once_per_gauge(monkeypatch):
    g = catalog.random_planar_gauge(seed=0)
    rep = find_antipodal_pairs(g)
    calls = []
    lift = singular.angle_state
    monkeypatch.setattr(singular, "angle_state",
                        lambda *a, **k: calls.append(1) or lift(*a, **k))

    def verdicts():
        out = []
        for comp in rep.components:
            try:
                out.append(classify_sing_star(g, comp).sing_star)
            except PreconditionError:
                out.append("failed")
        return out

    cached = verdicts()
    assert len(rep.components) > 1
    assert len(calls) == 1
    singular._LIFTS[g] = (g.a, g.b, lift(g))      # a fresh lift of g
    assert verdicts() == cached
    sing_star_time_extent(g)                       # shares the lift
    assert len(calls) == 1
    g.b = UnitSpeedCurve(g.b.rep, g.b.basepoint)   # a new curve: lift again
    try:
        classify_sing_star(g, rep.components[0])
    except PreconditionError:
        pass
    assert len(calls) == 2


def _reference_sign_pattern(state, t0, x0, radius, n=48):
    """Sign content of F on the full n x n grid of a square of radius r,
    rotated onto the characteristics, as the classifier once sampled it."""
    d = np.linspace(-radius, radius, n)
    ds, do = np.meshgrid(d, d, indexing="ij")
    F = state.F(t0 + 0.5 * (ds - do), x0 + 0.5 * (ds + do))
    thresh = 1e-9 * max(1.0, np.abs(F).max())
    return bool((F > thresh).any()), bool((F < -thresh).any())


def _reference_votes(state, comp, spacing):
    votes = []
    step = max(1, len(comp.s) // 64)
    for t0, x0 in zip(comp.t[::step], comp.x[::step]):
        radii = [4.0 * spacing / 2 ** j for j in range(4)]
        has_both = [all(_reference_sign_pattern(state, t0, x0, r))
                    for r in radii]
        votes.append("yes" if all(has_both)
                     else "no" if not any(has_both) else "undetermined")
    if "yes" in votes:
        return "yes", np.pi
    if all(v == "no" for v in votes):
        return "no", 0.0
    return "undetermined", None


def _counting_state(g):
    """angle_state(g) whose alpha and beta record the size of each call."""
    st = angle_state(g)
    calls = {"alpha": [], "beta": []}

    def counted(name, fn):
        return lambda x: calls[name].append(np.size(x)) or fn(x)

    st.alpha = counted("alpha", st.alpha)
    st.beta = counted("beta", st.beta)
    return st, calls


@pytest.mark.parametrize("gauge", ["random0", "random1", "random3",
                                   "circle", "cantor_k1"])
def test_sign_votes_match_full_grid_reference(gauge, request):
    if gauge.startswith("random"):
        g = catalog.random_planar_gauge(seed=int(gauge[-1]))
    else:
        g = request.getfixturevalue(gauge)
        g = g[0] if gauge == "cantor_k1" else g
    spacing = g.E0 / singular.DEFAULT_GRID
    st, calls = _counting_state(g)
    singular._LIFTS[g] = (g.a, g.b, st)
    voted = 0
    for comp in find_antipodal_pairs(g).components:
        calls["alpha"].clear()
        try:
            cc = classify_sing_star(g, comp)
        except PreconditionError:
            continue
        if comp.kind == "full_time_slice":
            assert (cc.sing_star, cc.tangent_gap) == ("no", 0.0)
        elif calls["alpha"] and calls["alpha"][0] > 1:   # the voting path
            assert (cc.sing_star, cc.tangent_gap) == \
                _reference_votes(st, comp, spacing)
            voted += 1
    assert voted > 0 or gauge == "circle"


def test_sign_votes_evaluate_two_lifts_per_component():
    g = catalog.random_planar_gauge(seed=0)
    st, calls = _counting_state(g)
    singular._LIFTS[g] = (g.a, g.b, st)
    voted = 0
    for comp in find_antipodal_pairs(g).components:
        calls["alpha"].clear()
        calls["beta"].clear()
        try:
            classify_sing_star(g, comp)
        except PreconditionError:
            continue
        voters = len(comp.s[::max(1, len(comp.s) // 64)])
        for name in ("alpha", "beta"):
            assert len(calls[name]) <= 1
            assert sum(calls[name]) <= 4 * 48 * voters
        voted += len(calls["alpha"])
    assert voted > 5


def _scaled_vector(draw, pool=()):
    scale = draw(hst.sampled_from([1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1.0, 1e3]))
    unit = hst.one_of(hst.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5]),
                      hst.floats(-1.0, 1.0))
    elems = unit.map(lambda u: u * scale)
    if pool:
        elems = hst.one_of(elems, hst.sampled_from(pool))  # ties with A
    return np.array(draw(hst.lists(elems, min_size=1, max_size=12)))


@hst.composite
def _vector_pair(draw):
    A = _scaled_vector(draw)
    B = _scaled_vector(draw, pool=tuple(A.tolist()))
    shift = draw(hst.sampled_from([0.0, 1e-12, -1e-9, 1e-3]))
    return A + shift, B                     # shifts straddle the threshold


@settings(max_examples=400, deadline=None)
@given(_vector_pair())
def test_sign_content_matches_outer_difference(pair):
    A, B = pair
    F = A[:, None] - B[None, :]
    thresh = 1e-9 * max(1.0, np.abs(F).max())
    has_pos, has_neg = singular._sign_content(A, B)
    assert (bool(has_pos), bool(has_neg)) == \
        (bool((F > thresh).any()), bool((F < -thresh).any()))


def test_null_tangent_circle(circle):
    comp = find_antipodal_pairs(circle).components[0]
    vals = null_tangent_check(circle, comp.t[0], comp.x[0])
    assert np.nanmax(vals) < 1e-7


def test_null_tangent_decay_perturbed_circle():
    g = catalog.random_planar_gauge(seed=9)
    rep = find_antipodal_pairs(g)
    comp = min(rep.components, key=lambda c: len(c.s))
    i = np.argmin(comp.residual)
    radii = (2e-2, 1e-2, 5e-3, 2.5e-3)
    vals = null_tangent_check(g, comp.t[i], comp.x[i], radii=radii)
    good = np.isfinite(vals)
    vals = vals[good]
    for a, b in zip(vals[:-1], vals[1:]):
        assert b <= 0.5 * a + 1e-7


def _counting_derivatives(monkeypatch):
    """Patch singular.derivatives to record the shape of each call."""
    calls = []
    monkeypatch.setattr(singular, "derivatives",
                        lambda g, t, x: calls.append(np.shape(t))
                        or derivatives(g, t, x))
    return calls


def test_null_tangent_check_reads_approach_points_once(monkeypatch):
    g = catalog.random_planar_gauge(seed=9)
    comp = min(find_antipodal_pairs(g).components, key=lambda c: len(c.s))
    t0, x0 = comp.t[0], comp.x[0]
    radii = (2e-2, 1e-2, 5e-3, 2.5e-3)
    calls = _counting_derivatives(monkeypatch)
    vals = null_tangent_check(g, t0, x0, radii=radii)
    assert calls == [(), (4, 2)]
    # one approach point at a time
    _, gt0 = derivatives(g, t0, x0)
    ref = [max(abs(float(gx @ gt0)) / float(np.linalg.norm(gx))
               for gx in (derivatives(g, t0 - r, x0)[0],
                          derivatives(g, t0 + r, x0)[0])) for r in radii]
    assert np.allclose(vals, ref, rtol=1e-12, atol=0.0)


def _r3_gauges(request):
    """wavy_pair with its own components, and the R^3 copies of census
    gauges 0-2 and Cantor k = 1 with the planar gauges' components."""
    yield request.getfixturevalue("wavy_pair"), None
    planar = [catalog.random_planar_gauge(seed=s) for s in range(3)]
    for p in planar + [request.getfixturevalue("cantor_k1")[0]]:
        yield embed_planar(p), p


def test_n3_classifier_matches_per_voter_oracle(request, monkeypatch):
    checked = 0
    for g, planar in _r3_gauges(request):
        spacing = g.E0 / singular.DEFAULT_GRID
        for comp in find_antipodal_pairs(planar or g).components:
            calls = _counting_derivatives(monkeypatch)
            cc = classify_sing_star(g, comp)
            assert len(calls) == 1
            verdict, gap = oscillation_votes(g, comp, spacing)
            assert cc.sing_star == verdict
            assert abs(cc.tangent_gap - gap) <= 1e-12
            checked += 1
    assert checked == 58


def test_lift_free_census_verdicts():
    # the n >= 3 classifier needs no angle lift: on the R^3 copy of each
    # census gauge, every planar component carries a tangent jump
    gaps = []
    for seed in range(8):
        g = catalog.random_planar_gauge(seed=seed)
        g3 = embed_planar(g)
        for comp in find_antipodal_pairs(g).components:
            cc = classify_sing_star(g3, comp)
            assert cc.sing_star == "yes"
            gaps.append(cc.tangent_gap)
    assert len(gaps) == 123
    assert min(gaps) >= 3.1


def test_time_extent_nonconvex_nonempty():
    g = catalog.nonconvex_gauge()
    iv = sing_star_time_extent(g)
    assert iv
    assert sum(b - a for a, b in iv) > 0.05


def test_time_extent_degenerate_cases_empty(circle):
    assert sing_star_time_extent(circle) == []
    d = catalog.degenerate_slice_gauge()
    assert sing_star_time_extent(d) == []


def _covered(intervals, t, period):
    """Whether each time of ``t`` lies in one of ``intervals``, a seam
    interval reaching below 0."""
    t = np.mod(np.asarray(t, dtype=float), period)
    return np.array([any(lo <= v <= hi or lo <= v - period <= hi
                         for lo, hi in intervals) for v in t.ravel()])


@pytest.mark.parametrize("seed", range(8))
def test_time_extent_covers_scan_rows(seed):
    # every row of the 512 x 2048 sign-change scan lies in the projection
    g = catalog.random_planar_gauge(seed=seed)
    rows = time_extent_scan(g)
    assert len(rows)
    assert _covered(sing_star_time_extent(g), rows, g.E0).all()


def test_time_extent_nonconvex_scan_rows_outside_near_slices():
    # the detection seeds no zero within a few spacings of the degenerate
    # slices t = pi / 2, 3 pi / 2, so the scan rows there lie outside
    g = catalog.nonconvex_gauge()
    rows = time_extent_scan(g)
    out = rows[~_covered(sing_star_time_extent(g), rows, g.E0)]
    slices = [t for c in find_antipodal_pairs(g).components
              if c.kind == "full_time_slice" for t in c.slice_times]
    assert slices
    half = 0.5 * g.E0
    near = np.abs(np.mod(out[:, None] - np.array(slices) + half, g.E0)
                  - half).min(axis=1)
    assert np.all(near <= singular.CHAIN_GAP * g.E0 / 512)


# census seeds 0-79 each build, detect and classify without a warning
@settings(max_examples=6, deadline=None)
@given(seed=hst.integers(0, 79))
@example(seed=0)
@example(seed=11)   # a component takes the interval path's one-sided rule
def test_time_extent_holds_every_yes_component(seed):
    g = catalog.random_planar_gauge(seed=seed)
    iv = sing_star_time_extent(g)
    for comp in find_antipodal_pairs(g).components:
        try:
            verdict = classify_sing_star(g, comp).sing_star
        except PreconditionError:
            continue
        if verdict == "yes":
            # (t, x) and (t + E0 / 2, x + E0 / 2) are the same pair
            assert _covered(iv, comp.t, g.E0).all()
            assert _covered(iv, comp.t + 0.5 * g.E0, g.E0).all()


def test_time_extent_merges_across_the_seam():
    # shifting a by c moves the surface's times by -c / 2
    g = catalog.nonconvex_gauge()
    h = OrthogonalGauge(g.a.shifted(2.0), g.b)
    iv = sing_star_time_extent(h)
    assert iv == sorted(iv)
    assert iv[0][0] < 0.0 < iv[0][1]
    assert all(0.0 <= lo < hi <= h.E0 for lo, hi in iv[1:])
    # on a coarse grid the padded arcs cover every time
    wide = catalog.nonconvex_gauge(1.2)
    assert sing_star_time_extent(wide, grid_n=64) == [(0.0, wide.E0)]


def test_coarse_grid_warning():
    import warnings
    fast = catalog.angle_curve(lambda x: 20 * x + 0.5 * np.pi,
                               lambda x: 20 * np.ones_like(x))
    mate = catalog.angle_curve(lambda x: 20 * x + 1.5 * np.pi,
                               lambda x: 20 * np.ones_like(x))
    g = OrthogonalGauge(fast, mate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_antipodal_pairs(g, grid_n=64)
    assert any("suggest grid_n" in str(w.message) for w in caught)


def test_search_above_seed_level_builds_no_minimum_mask(hopf, circle,
                                                        monkeypatch):
    # every hopf grid cell lies above SEED_LEVEL (margin sqrt 2), so the
    # search returns before the wrap-padded copy of the local-minimum test;
    # circle builds that copy once, and no search rolls the grid
    pads, rolls = [], []
    pad, roll = np.pad, np.roll
    monkeypatch.setattr(np, "pad",
                        lambda *a, **k: pads.append(1) or pad(*a, **k))
    monkeypatch.setattr(np, "roll",
                        lambda *a, **k: rolls.append(1) or roll(*a, **k))
    assert find_antipodal_pairs(hopf).empty
    assert pads == []
    assert not find_antipodal_pairs(circle).empty
    assert len(pads) == 1
    assert rolls == []


def _roll_seeds(r2, level):
    return np.argwhere(roll_minimum_mask(r2) & (r2 < level))


def test_sublevel_minima_match_roll_mask_on_gauges(equality_gauges):
    for name, g in equality_gauges.items():
        res, _ = grid_residuals(g)
        r2 = res ** 2
        seeds = _sublevel_minima(r2, singular.SEED_LEVEL)
        assert np.array_equal(seeds, _roll_seeds(r2, singular.SEED_LEVEL)), name
        assert (len(seeds) == 0) == (name == "hopf")


@hst.composite
def plateau_grids(draw):
    """Small grids over a few levels: ties, plateaus and minima on the seam."""
    rows, cols = draw(hst.integers(1, 7)), draw(hst.integers(1, 7))
    values = draw(hst.lists(hst.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 1.0]),
                            min_size=rows * cols, max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(plateau_grids(), hst.sampled_from([0.02, 0.1, 0.5, 2.0]))
# minima tied across the wrap seam in both axes
@example(np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                   [0.0, 1.0, 1.0, 0.0]]), 0.1)
# a plateau whose edge cell has a lower neighbour across the seam
@example(np.array([[0.05, 0.05, 0.05, 0.02], [0.3, 0.3, 0.3, 0.3]]), 0.1)
def test_sublevel_minima_match_roll_mask(r2, level):
    assert np.array_equal(_sublevel_minima(r2, level), _roll_seeds(r2, level))


def _sorted_pairs(pairs):
    pairs = np.asarray(pairs).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


@hst.composite
def torus_clouds(draw):
    """Points (s, sigma) in clusters a few radii wide, one of them on the
    0/period seam in both axes, with some points repeated; radii run from
    1e-4 period past period / 3, where one cell holds every point."""
    period = draw(hst.sampled_from([1.0, TWO_PI, 7.3]))
    radius = period * draw(hst.floats(1e-4, 0.6))
    n = draw(hst.one_of(hst.integers(0, 2), hst.integers(3, 300)))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    centres = rng.uniform(0.0, period, (draw(hst.integers(1, 6)), 2))
    centres[0] = 0.0
    pts = (centres[rng.integers(len(centres), size=n)]
           + rng.uniform(-2.0 * radius, 2.0 * radius, (n, 2)))
    repeat = rng.random(n) < 0.2
    pts[repeat] = pts[rng.integers(n, size=int(repeat.sum()))]
    pts = np.mod(pts, period)
    return pts[:, 0], pts[:, 1], period, radius


@settings(max_examples=200, deadline=None)
@given(torus_clouds(), hst.integers(0, 2 ** 32 - 1))
def test_near_pairs_nms_components_match_scipy(cloud, seed):
    s, sig, period, radius = cloud
    pairs = singular._near_pairs(s, sig, period, radius)
    assert np.array_equal(_sorted_pairs(pairs),
                          _sorted_pairs(near_pairs_kdtree(s, sig, period, radius)))
    assert np.array_equal(singular._components(len(s), pairs),
                          components_csgraph(len(s), pairs))
    order = np.random.default_rng(seed).permutation(len(s))
    assert np.array_equal(singular._nms(s, sig, period, order, radius),
                          nms_ball_point(s, sig, period, order, radius))


@settings(max_examples=200, deadline=None)
@given(hst.integers(1, 40).flatmap(lambda n: hst.tuples(
    hst.just(n), hst.lists(hst.tuples(hst.integers(0, n - 1),
                                      hst.integers(0, n - 1)), max_size=60))))
def test_components_match_csgraph(graph):
    n, edges = graph
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    assert np.array_equal(singular._components(n, pairs),
                          components_csgraph(n, pairs))


def test_near_pairs_match_kdtree_on_census_links():
    for seed in range(8):
        g = catalog.random_planar_gauge(seed)
        rep = find_antipodal_pairs(g)
        s, sig = rep.pairs.T
        link = 8.0 * g.E0 / singular.DEFAULT_GRID
        assert np.array_equal(
            _sorted_pairs(singular._near_pairs(s, sig, g.E0, link)),
            _sorted_pairs(near_pairs_kdtree(s, sig, g.E0, link))), seed


def test_cantor_nms_and_components_match_scipy(cantor_k1, monkeypatch):
    # the k = 1 search suppresses its 24,006 refined seeds to 4269 points
    g, _ = cantor_k1
    calls = []
    nms = singular._nms
    monkeypatch.setattr(singular, "_nms",
                        lambda *args: calls.append(args) or nms(*args))
    find_antipodal_pairs(g)
    (s, sig, period, order, radius), = calls
    assert np.array_equal(
        _sorted_pairs(singular._near_pairs(s, sig, period, radius)),
        _sorted_pairs(near_pairs_kdtree(s, sig, period, radius)))
    kept = nms(s, sig, period, order, radius)
    assert len(kept) < len(s)
    assert np.array_equal(kept, nms_ball_point(s, sig, period, order, radius))
    s, sig = s[kept], sig[kept]
    link = singular._near_pairs(s, sig, period, 8.0 * period / singular.DEFAULT_GRID)
    assert np.array_equal(singular._components(len(s), link),
                          components_csgraph(len(s), link))
