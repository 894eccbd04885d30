"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured figures (run with -s to see them)."""

import time

import numpy as np
import pytest

from worldsheet import catalog, constructions
from worldsheet.curves import PAIR_TOL, from_tangent_image
from worldsheet.dimension import box_count, singstar_cloud
from worldsheet.gauge import OrthogonalGauge
from worldsheet.singular import (angle_state, find_antipodal_pairs,
                                 grid_residuals, is_global_immersion,
                                 sing_star_time_extent, tangent_formula)
from worldsheet.surface import (constraint_residuals, derivatives, gamma,
                                metric_det, slice_set_distance)
from worldsheet.topology import (diagram, genericity_probe, linking_number,
                                 synthetic_diagram, transversal_count,
                                 winding_number)
from oracles import sampled_hausdorff

TWO_PI = 2.0 * np.pi


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_constraint_fidelity(circle, hopf):
    t0 = time.perf_counter()
    gauges = [circle, hopf] + [catalog.random_planar_gauge(seed=s)
                               for s in range(10)]
    worst_gauge = worst_ortho = 0.0
    ratios = []
    for g in gauges:
        rep = constraint_residuals(g, n_t=200, n_x=200, h=1e-3, wave_grid=24)
        worst_gauge = max(worst_gauge, rep.gauge_residual)
        worst_ortho = max(worst_ortho, rep.ortho_residual)
        ratios.append(rep.wave_ratio)
        assert rep.gauge_residual <= 1e-9
        assert rep.ortho_residual <= 1e-9
        assert 3.5 <= rep.wave_ratio <= 4.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"constraint residuals <= {max(worst_gauge, worst_ortho):.1e}, "
               f"wave ratios {min(ratios):.2f}-{max(ratios):.2f}, "
               f"{elapsed:.1f}s")


def test_criterion_02_circle_extinction(circle):
    t0 = time.perf_counter()
    xs = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    extinction = np.abs(gamma(circle, np.full_like(xs, np.pi / 2), xs)).max()
    assert extinction <= 1e-9
    rep = find_antipodal_pairs(circle)
    slices = [c for c in rep.components if c.kind == "full_time_slice"]
    assert slices
    t_err = min(abs(t - np.pi / 2) for c in slices for t in c.slice_times)
    assert t_err <= 2 * TWO_PI / 512
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"|gamma(E0/4)| <= {extinction:.1e}, full slice at "
               f"E0/4 +- {t_err:.1e}, {elapsed:.1f}s")


def test_criterion_03_planar_always_singular_with_oracle(circle):
    t0 = time.perf_counter()
    spacing_checked = 0

    def oracle_check(g, rep):
        nonlocal spacing_checked
        res, grid = grid_residuals(g, 512)
        hot = np.argwhere(res < PAIR_TOL / 10)
        if len(hot) == 0:
            return
        pairs = rep.pairs
        spacing = g.E0 / 512
        for i, j in hot:
            d = np.abs(pairs - np.array([grid[i], grid[j]]))
            d = np.minimum(d, g.E0 - d).max(axis=1)
            assert d.min() <= 2 * spacing, "missed a brute-force zero"
            spacing_checked += 1

    for seed in range(100):
        g = catalog.random_planar_gauge(seed=seed)
        rep = find_antipodal_pairs(g, grid_n=512)
        assert not rep.empty, f"seed {seed} produced no antipodal pairs"
        oracle_check(g, rep)
    # gauges whose zero set passes exactly through grid points keep the
    # brute-force direction non-vacuous
    for g in (circle, catalog.degenerate_slice_gauge()):
        oracle_check(g, find_antipodal_pairs(g, grid_n=512))
    assert spacing_checked > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, f"100 planar gauges all singular; {spacing_checked} "
               f"brute-force zeros matched, {elapsed:.0f}s")


def test_criterion_04_smooth_side(hopf, meridian_loops):
    rng = np.random.default_rng(17)
    ok_h, margin_h = is_global_immersion(hopf)
    ok_m, margin_m = is_global_immersion(meridian_loops)
    assert ok_h and ok_m
    assert abs(margin_h - np.sqrt(2)) <= 1e-9
    for g in (hopf, meridian_loops):
        ts = rng.uniform(0, g.E0, 10000)
        xs = rng.uniform(0, g.E0, 10000)
        assert metric_det(g, ts, xs).max() < 0
    _report(4, f"hopf margin sqrt2 +- {abs(margin_h - np.sqrt(2)):.1e}, "
               f"meridian-loops margin {margin_m:.3f}, metric < 0 at 1e4 pts")


def test_criterion_05_tangent_formula():
    worst = 0.0
    for seed in range(10):
        g = catalog.random_planar_gauge(seed=100 + seed)
        st = angle_state(g)
        rng = np.random.default_rng(seed)
        count = 0
        while count < 1000:
            t = rng.uniform(0, g.E0)
            x = rng.uniform(0, g.E0)
            gx, _ = derivatives(g, t, x)
            nrm = np.linalg.norm(gx)
            if nrm < 1e-3:
                continue
            tau = np.asarray(tangent_formula(st, t, x))
            worst = max(worst, float(np.abs(tau - gx / nrm).max()))
            count += 1
    assert worst <= 1e-8
    _report(5, f"formula vs direct tangent mismatch <= {worst:.1e} "
               f"over 10 x 1000 points")


def test_criterion_06_tangent_image_builder():
    targets = [
        ("equator", catalog.wavy_circle_path(wave=0.0), 2),
        ("wavy-025", catalog.wavy_circle_path(wave=0.25), 3),
        ("wavy-035", catalog.wavy_circle_path(wave=0.35, phase=0.7), 3),
        ("oval", catalog.meridian_oval_path(lon=0.0, width=0.25,
                                            overshoot=0.18), 3),
        ("swing", catalog.swing_path(swing=2.0, lat_max=0.9), 3),
    ]
    m = 1 << 16
    stats = []
    for name, path, k in targets:
        a = from_tangent_image(path, k=k)
        defect = a.closure_defect().defect
        unit = a.validate(20000)[0]
        img = a.tangent(np.linspace(0, a.period, m, endpoint=False))
        tgt = path(np.linspace(0, TWO_PI, m, endpoint=False))
        haus = sampled_hausdorff(img, tgt)
        assert defect <= 1e-6, name
        assert unit <= 1e-9, name
        assert haus <= 1e-3, name
        stats.append(haus)
    _report(6, f"5 targets realized; worst closure within tolerance, "
               f"hausdorff <= {max(stats):.1e}")


def test_criterion_07_nonuniqueness(nonuniq):
    g_id, g_pi, delta = nonuniq
    worst = 0.0
    for t in np.linspace(0.0, delta, 8):
        d = slice_set_distance(g_id, g_pi, float(t), m_sparse=256)
        worst = max(worst, d)
        assert d <= 1e-6
    split = slice_set_distance(g_id, g_pi, 0.5, m_sparse=512)
    assert split >= 0.01
    for g in (g_id, g_pi):
        ok, _ = is_global_immersion(g)
        assert ok
    h_id, h_pi = constructions.same_surface_family()
    worst_same = 0.0
    for t in np.linspace(0.0, 3.0, 32, endpoint=False):
        d = slice_set_distance(h_id, h_pi, float(t), m_sparse=192)
        worst_same = max(worst_same, d)
        assert d <= 1e-6
    _report(7, f"coincidence <= {worst:.1e} on [0,{delta}], split "
               f"{split:.3f} at t=1/2, same-surface <= {worst_same:.1e} "
               f"over 32 times")


@pytest.mark.parametrize("k,window", [(1, (1.75, 2.05)), (2, (1.35, 1.6))])
def test_criterion_08_sharp_dimension(k, window, cantor_k1, cantor_k2):
    t0 = time.perf_counter()
    g, pred = cantor_k1 if k == 1 else cantor_k2
    spec = g.metadata["spec"]
    f = constructions.cantor_function(spec)
    y1_extent = 0.5 * np.ptp(f(np.linspace(0, 1, 100000)))
    dscale = 2.0 * y1_extent
    if k == 1:
        # ladder aligned with the alpha-set self-similarity ratio
        scales = [dscale * spec.r_alpha ** j for j in range(1, 8)]
    else:
        scales = [dscale * 0.5 ** j for j in range(3, 10)]
    w = pred["t_window"][1] - pred["t_window"][0]
    resolution = int(np.ceil(6 * w * 1.5 / scales[-1]))
    cloud = singstar_cloud(g, resolution=resolution)
    est = box_count(cloud, scales)
    elapsed = time.perf_counter() - t0
    assert window[0] <= est.slope <= window[1], est.slope
    assert est.r2 >= 0.98
    assert elapsed < 300.0
    _report(8, f"k={k}: slope {est.slope:.3f} in {window}, "
               f"r2 {est.r2:.4f}, {elapsed:.0f}s")


def test_criterion_09_both_alternatives(circle):
    nonconvex = catalog.nonconvex_gauge()
    iv = sing_star_time_extent(nonconvex)
    assert iv
    total = sum(b - a for a, b in iv)
    assert total > 0.0

    degenerate = catalog.degenerate_slice_gauge()
    assert sing_star_time_extent(degenerate) == []
    rep = find_antipodal_pairs(degenerate)
    assert any(c.kind == "full_time_slice" for c in rep.components)
    _report(9, f"strict-singular time extent {total:.3f} (nonconvex); "
               f"degenerate gauge shows only full slices")


def test_criterion_10_genericity(hopf, wavy_pair):
    t0 = time.perf_counter()
    rep_h = genericity_probe(hopf, 0.05, 50, seed=11)
    assert rep_h.n_smooth == 50 and rep_h.n_singular == 0

    planar = catalog.random_planar_gauge(seed=2)
    rep_p = genericity_probe(planar, 0.05, 50, seed=13)
    assert rep_p.n_singular == 50 and rep_p.n_smooth == 0

    assert transversal_count(wavy_pair) == 2
    from worldsheet.topology import _ProbeBasis, _perturb_curve
    rng = np.random.default_rng(29)
    for _ in range(3):
        pa = _perturb_curve(_ProbeBasis(wavy_pair.a), rng, 1e-3)
        pb = _perturb_curve(_ProbeBasis(wavy_pair.b), rng, 1e-3)
        pert = OrthogonalGauge(pa[0], pb[0])
        assert transversal_count(pert) == 2
    elapsed = time.perf_counter() - t0
    _report(10, f"hopf 50/50 smooth, planar 50/50 singular, "
                f"transversal count 2 stable at eps=1e-3, {elapsed:.0f}s")


def test_criterion_11_topological_invariants(hopf, meridian_loops):
    lk = linking_number(diagram(hopf, m=512))
    assert abs(lk.value) == 1
    assert lk.residual <= 0.1

    th = np.linspace(0, TWO_PI, 400, endpoint=False)
    ones = np.ones_like(th)
    c1 = np.stack([np.cos(0.5) * ones, np.sin(0.5) * np.cos(th),
                   np.sin(0.5) * np.sin(th), 0 * ones], axis=1)
    c2 = np.stack([-np.cos(0.6) * ones, 0 * ones, np.sin(0.6) * np.cos(th),
                   np.sin(0.6) * np.sin(th)], axis=1)
    assert linking_number(synthetic_diagram(c1, c2)).value == 0

    d = diagram(meridian_loops, m=1024)
    w = winding_number(d)
    assert w == 0
    _report(11, f"hopf linking {lk.value} (residual {lk.residual:.1e}), "
                f"unlinked control 0, meridian-loops winding 0 "
                f"(center re-selection stable)")
