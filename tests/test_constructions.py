import numpy as np
import pytest

from worldsheet import catalog, constructions as C
from worldsheet.errors import PreconditionError
from worldsheet.singular import (angle_state, classify_sing_star,
                                 find_antipodal_pairs, is_global_immersion)
from worldsheet.surface import gamma, slice_set_distance

TWO_PI = 2.0 * np.pi


# Cantor construction ------------------------------------------------------

def test_depth_one_hand_enumerable():
    spec = C.CantorSpec.single_mode(1, m=8, depth=1)
    f = C.cantor_function(spec)
    assert len(f.values) == 2            # two intervals
    assert len(f.gap_signs) == 1         # one monotone join
    assert len(f.sigma_full) == 2        # level-1 cover of the limit set


def test_plateau_values_land_in_alpha_intervals():
    spec = C.CantorSpec.single_mode(1, m=8, depth=6)
    f = C.cantor_function(spec)
    # value of interval i is the left endpoint of the alpha-interval i*,
    # scaled; recompute the i* endpoints independently
    L = spec.depth
    idx = np.arange(2 ** L)
    bits = (idx[:, None] >> np.arange(L - 1, -1, -1)) & 1
    flip = np.arange(1, L + 1) % 2 == 0
    bits_star = np.where(flip[None, :], 1 - bits, bits)
    w = (spec.r_alpha ** np.arange(L)) * (1.0 - spec.r_alpha)
    expect = (bits_star @ w) * f.scale
    lefts = f.breakpoints[0::2]
    assert np.abs(f(lefts) - expect).max() < 1e-15


def test_derivative_vanishes_on_intervals_and_alternation():
    spec = C.CantorSpec.single_mode(1, m=8, depth=7)
    f = C.cantor_function(spec)
    assert np.abs(f.deriv(f.sigma_full)).max() == 0.0
    # sign of f' across consecutive gaps follows the parity of the first
    # differing index coordinate
    L = spec.depth
    for i in range(2 ** L - 1):
        j0 = L - int(np.log2((i + 1) ^ i))
        assert f.gap_signs[i] == (1 if j0 % 2 == 1 else -1)


def test_max_slope_is_half():
    for k in (1, 2):
        spec = C.CantorSpec.single_mode(k, m=8, depth=6)
        f = C.cantor_function(spec)
        xs = np.linspace(0, 1, 400001)
        assert np.abs(f.deriv(xs)).max() <= 0.5 + 1e-12


def test_junction_derivative_continuity():
    spec = C.CantorSpec.single_mode(2, m=8, depth=5)
    f = C.cantor_function(spec)
    # one-sided limits of f', f'' agree at every junction; evaluating the
    # flanking pieces at float-adjacent points isolates the limits
    for edge in f.breakpoints[1:40]:
        lo = np.nextafter(edge, -np.inf)
        hi = np.nextafter(edge, np.inf)
        for order in (1, 2):
            left = f.deriv(np.array([lo]), order=order)[0]
            right = f.deriv(np.array([hi]), order=order)[0]
            assert abs(left - right) < 1e-9


def test_depth_resolution_guard():
    with pytest.raises(PreconditionError, match="resolvable"):
        C.CantorSpec.single_mode(1, m=8, depth=40)


# sharp-dimension gauge ----------------------------------------------------

def test_sharp_gauge_unit_speed(cantor_k1):
    g, _ = cantor_k1
    assert g.a.validate(8192)[0] <= 1e-9
    assert g.b.validate(8192)[0] <= 1e-9


def test_sharp_gauge_membership_and_immersed_start(cantor_k1):
    g, _ = cantor_k1
    assert g.validate(8192) > 0.2
    assert g.periodicity_defect() < 1e-6


def test_predicted_points_are_detected(cantor_k1):
    g, pred = cantor_k1
    rep = find_antipodal_pairs(g, grid_n=512)
    spacing = g.E0 / 512
    pairs = rep.pairs
    for s in pred["sigma_star"]:
        res = np.linalg.norm(g.a.tangent(np.array([s]))
                             + g.b.tangent(np.array([0.5])))
        assert res <= 1e-5
        d = np.abs(pairs - np.array([s, 0.5]))
        d = np.minimum(d, g.E0 - d).max(axis=1)
        assert d.min() <= 2 * spacing


def test_cantor_strict_points_oscillate(cantor_k1):
    g, pred = cantor_k1
    st = angle_state(g)
    # F changes sign arbitrarily close to alternation-flanked points, and
    # the tangent flips by ~pi there
    for s in pred["sigma_alt"][::16]:
        t = 0.5 * (s - 0.5)
        x = 0.5 * (s + 0.5)
        span = 0.02
        u = np.linspace(-span, span, 4001)
        F = st.F(np.full_like(u, t), x + u)
        assert (F > 1e-12).any() and (F < -1e-12).any()


def test_cantor_same_sign_points_do_not_flip(cantor_k1):
    g, pred = cantor_k1
    st = angle_state(g)
    spec = g.metadata["spec"]
    f = C.cantor_function(spec)
    shift = 4.0
    same_idx = [j for j in range(1, len(f.sigma_full) - 1)
                if f.gap_signs[j - 1] * f.gap_signs[j] > 0]
    for j in same_idx[:8]:
        s = shift + f.sigma_full[j]
        t = 0.5 * (s - 0.5)
        x = 0.5 * (s + 0.5)
        # window spanning the plateau plus half of each immediate flank
        left_gap = f.breakpoints[2 * j] - f.breakpoints[2 * j - 1]
        right_gap = f.breakpoints[2 * j + 2] - f.breakpoints[2 * j + 1]
        width = f.breakpoints[2 * j + 1] - f.breakpoints[2 * j]
        u = np.linspace(-(0.5 * width + 0.5 * left_gap),
                        0.5 * width + 0.5 * right_gap, 2001)
        F = st.F(np.full_like(u, t), x + u)
        pos = (F > 1e-12).any()
        neg = (F < -1e-12).any()
        assert not (pos and neg)


def test_cantor_classifier_flags_strict_points(cantor_k1):
    g, pred = cantor_k1
    rep = find_antipodal_pairs(g, grid_n=512)
    # the characteristic band is one fat component at this resolution;
    # classification must find strict singular behavior inside it
    band = [c for c in rep.components
            if np.any((3.9 <= c.s) & (c.s <= 5.1))]
    assert band
    flags = {classify_sing_star(g, c, grid_n=512).sing_star for c in band}
    assert "yes" in flags


# nonuniqueness ------------------------------------------------------------

def test_nonuniq_straight_segment(nonuniq):
    g_id, g_pi, delta = nonuniq
    xs = np.linspace(-delta, delta, 64)
    target = np.stack([xs, 0 * xs, 0 * xs], axis=1)
    for curve in (g_id.a, g_id.b, g_pi.a, g_pi.b):
        assert np.abs(curve.position(xs) - target).max() < 1e-10


def test_nonuniq_slices_coincide_then_split(nonuniq):
    g_id, g_pi, delta = nonuniq
    for t in np.linspace(0, delta, 4):
        assert slice_set_distance(g_id, g_pi, t, m_sparse=256) <= 1e-6
    assert slice_set_distance(g_id, g_pi, 0.5, m_sparse=512) >= 0.01


def test_nonuniq_globally_immersed(nonuniq):
    g_id, g_pi, _ = nonuniq
    for g in (g_id, g_pi):
        ok, margin = is_global_immersion(g)
        assert ok
        assert margin > 0.1


def test_nonuniq_time_period_three(nonuniq):
    g_id, _, _ = nonuniq
    ts = np.array([0.1, 0.9, 1.7])
    xs = np.array([0.3, 1.2, 2.8])
    assert np.abs(gamma(g_id, ts + 3.0, xs) - gamma(g_id, ts, xs)).max() < 1e-9


def test_nonuniq_tiny_negative_x_uses_last_piece(nonuniq):
    # mod(x, 3) rounds to 3.0 just below 0; those rows must still be
    # evaluated (on piece 2, which ends on the shared straight segment)
    g_id, g_pi, _ = nonuniq
    xs = np.array([-5e-324, -1e-17])
    for curve in (g_id.a, g_id.b, g_pi.a, g_pi.b):
        for method in ("tangent", "tangent_derivative"):
            fn = getattr(curve, method)
            v = fn(xs)
            assert np.isfinite(v).all()
            assert np.array_equal(v, fn(xs))
        assert np.abs(curve.tangent(xs) - curve.tangent(0.0)).max() <= 1e-12


def test_nonuniq_embedding_dimension():
    g_id, g_pi, _ = C.nonuniqueness_pair(n=4)
    assert g_id.dim == 4
    # the uncertified search warns that 256 is coarse for this gauge
    with pytest.warns(RuntimeWarning, match="coarse for tangent turning rate"):
        ok, _ = is_global_immersion(g_id, grid_n=256)
    assert ok


def test_same_surface_family_all_times():
    h_id, h_pi = C.same_surface_family()
    for t in np.linspace(0, 3, 8, endpoint=False):
        assert slice_set_distance(h_id, h_pi, t, m_sparse=256) <= 1e-6
    xs = np.linspace(0, 3, 512, endpoint=False)
    point_dev = np.abs(gamma(h_id, np.full(512, 0.5), xs)
                       - gamma(h_pi, np.full(512, 0.5), xs)).max()
    assert point_dev >= 0.01


def test_same_surface_gauges_inequivalent():
    from worldsheet.gauge import equivalent_gauges
    h_id, h_pi = C.same_surface_family()
    best = np.inf
    for x0 in np.linspace(0, 3, 64, endpoint=False):
        for sigma0 in (1, -1):
            z0 = h_pi.a.position(0.0) - h_id.a.position(sigma0 * 0.0 + x0)
            best = min(best, equivalent_gauges(h_id, h_pi, x0, z0, sigma0,
                                               samples=128))
    assert best > 1e-3


# extinction ---------------------------------------------------------------

def test_extinction_circle_circle_identity_map():
    pair = C.extinction_pair(catalog.circle_curve(), catalog.circle_curve())
    xs = np.linspace(0, TWO_PI, 200)
    assert np.abs(pair.s_map(xs) - xs).max() < 1e-12


def test_extinction_collapse_and_gluing():
    pair = C.extinction_pair(catalog.circle_curve(),
                             catalog.symmetric_oval_curve(0.2))
    xs = np.linspace(0, TWO_PI, 500)
    assert np.abs(gamma(pair.gauge1, pair.tbar, xs)).max() <= 1e-8
    assert np.abs(gamma(pair.gauge2, pair.tbar, xs)).max() <= 1e-8
    gam = C.glued_evolution(pair)
    h = 1e-5
    x_test = np.linspace(0, TWO_PI, 64)
    left = (gam(pair.tbar, x_test) - gam(pair.tbar - h, x_test)) / h
    right = (gam(pair.tbar + h, x_test) - gam(pair.tbar, x_test)) / h
    assert np.abs(left - right).max() <= 1e-6
    # x-derivatives vanish on both sides of the extinction slice
    dx = 1e-6
    for tt in (pair.tbar - 1e-4, pair.tbar + 1e-4):
        d = (gam(np.full_like(x_test, tt), x_test + dx)
             - gam(np.full_like(x_test, tt), x_test)) / dx
        assert np.abs(d).max() < 1e-3


def test_extinction_rejects_asymmetric():
    skew = catalog.angle_curve(
        lambda x: x + 0.5 * np.pi + 0.2 * np.sin(x),
        lambda x: 1.0 + 0.2 * np.cos(x))
    with pytest.raises(PreconditionError):
        C.extinction_pair(catalog.circle_curve(), skew)


def test_extinction_rejects_nonconvex():
    wavy = catalog.symmetric_oval_curve(0.7)
    with pytest.raises(PreconditionError, match="convex"):
        C.extinction_pair(catalog.circle_curve(), wavy)
