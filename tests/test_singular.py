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
from oracles import roll_minimum_mask

TWO_PI = 2.0 * np.pi


def test_circle_full_slice_detection(circle):
    rep = find_antipodal_pairs(circle)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.kind == "full_time_slice"
    assert min(abs(t - np.pi / 2) for t in comp.slice_times) < 2 * TWO_PI / 512
    assert min(abs(t - 3 * np.pi / 2) for t in comp.slice_times) < 2 * TWO_PI / 512


def test_circle_pairs_satisfy_antipodal_relation(circle):
    rep = find_antipodal_pairs(circle)
    for p in rep.components[0].pairs[:50]:
        # a'(s) = -b'(sigma) happens exactly at s - sigma = pi mod 2pi
        assert abs((p.s - p.sigma - np.pi + np.pi) % TWO_PI - np.pi) < 1e-7
        assert p.residual <= 1e-8
        # round trip (t, x) -> (s, sigma) is the exact algebraic inverse
        # (no modular adjustment), up to one rounding of the half-sums
        assert abs((p.x + p.t) - p.s) <= 4 * np.finfo(float).eps * max(1, p.s)
        assert abs((p.x - p.t) - p.sigma) <= 4 * np.finfo(float).eps * max(1, p.s)


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
    rep = find_antipodal_pairs(g)
    for p in rep.pairs[:100]:
        assert abs(metric_det(g, p.t, p.x)) <= 1e-6


def test_brute_force_oracle_agreement():
    # refined detection vs the plain grid: no sub-threshold grid cell
    # without a reported pair, and every reported pair is a true zero
    for seed in (1, 3, 8):
        g = catalog.random_planar_gauge(seed=seed)
        rep = find_antipodal_pairs(g, grid_n=512)
        res, grid = grid_residuals(g, 512)
        hot = np.argwhere(res < PAIR_TOL / 10)
        pairs = np.array([[p.s, p.sigma] for p in rep.pairs])
        spacing = g.E0 / 512
        for i, j in hot:
            d = np.abs(pairs - np.array([grid[i], grid[j]]))
            d = np.minimum(d, g.E0 - d).max(axis=1)
            assert d.min() <= 2 * spacing
        for p in rep.pairs:
            assert p.residual <= 10 * PAIR_TOL


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
    cached, explicit = [], []
    for comp in rep.components:
        for out, state in ((cached, None), (explicit, lift(g))):
            try:
                out.append(classify_sing_star(g, comp, state=state).sing_star)
            except PreconditionError:
                out.append("failed")
    assert len(rep.components) > 1
    assert len(calls) == 1
    assert cached == explicit
    sing_star_time_extent(g, t_samples=16, x_samples=256)   # shares the lift
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
    for p in comp.pairs[::max(1, len(comp.pairs) // 64)]:
        radii = [4.0 * spacing / 2 ** j for j in range(4)]
        has_both = [all(_reference_sign_pattern(state, p.t, p.x, r))
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
    voted = 0
    for comp in find_antipodal_pairs(g).components:
        calls["alpha"].clear()
        try:
            cc = classify_sing_star(g, comp, state=st)
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
    voted = 0
    for comp in find_antipodal_pairs(g).components:
        calls["alpha"].clear()
        calls["beta"].clear()
        try:
            classify_sing_star(g, comp, state=st)
        except PreconditionError:
            continue
        voters = len(comp.pairs[::max(1, len(comp.pairs) // 64)])
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
    rep = find_antipodal_pairs(circle)
    vals = null_tangent_check(circle, rep.components[0].pairs[0])
    assert np.nanmax(vals) < 1e-7


def test_null_tangent_decay_perturbed_circle():
    g = catalog.random_planar_gauge(seed=9)
    rep = find_antipodal_pairs(g)
    comp = min(rep.components, key=lambda c: len(c.pairs))
    p = min(comp.pairs, key=lambda q: q.residual)
    radii = (2e-2, 1e-2, 5e-3, 2.5e-3)
    vals = null_tangent_check(g, p, radii=radii)
    good = np.isfinite(vals)
    vals = vals[good]
    for a, b in zip(vals[:-1], vals[1:]):
        assert b <= 0.5 * a + 1e-7


def test_null_tangent_requires_pair(hopf):
    rep = find_antipodal_pairs(hopf)
    pair = rep.pairs[0] if rep.pairs else None
    with pytest.raises(PreconditionError, match="no singular pairs"):
        null_tangent_check(hopf, pair)


def test_time_extent_nonconvex_nonempty():
    g = catalog.nonconvex_gauge()
    iv = sing_star_time_extent(g, t_samples=256, x_samples=1024)
    assert iv
    assert sum(b - a for a, b in iv) > 0.05


def test_time_extent_degenerate_cases_empty(circle):
    assert sing_star_time_extent(circle, t_samples=128, x_samples=512) == []
    d = catalog.degenerate_slice_gauge()
    assert sing_star_time_extent(d, t_samples=128, x_samples=512) == []


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
