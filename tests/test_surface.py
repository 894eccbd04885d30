import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from worldsheet import catalog, constructions
from worldsheet.curves import CallableTangent, UnitSpeedCurve
from worldsheet.gauge import OrthogonalGauge, couple_from_gauge
from worldsheet.quadrature import _GL_NODES
from worldsheet.surface import (SEED_CANDIDATES, SEED_SAMPLES,
                                _grid_sample, _nearest_samples, _read_once,
                                _row_dot,
                                constraint_residuals,
                                derivatives, gamma, metric_det, sample,
                                slice_curve, slice_set_distance)
from oracles import full_grid_constraint_residuals

TWO_PI = 2.0 * np.pi


def test_circle_extinction_slice(circle):
    xs = np.linspace(0, TWO_PI, 1000)
    vals = gamma(circle, np.full_like(xs, np.pi / 2), xs)
    assert np.abs(vals).max() < 1e-12


def test_initial_slice_is_gamma0(circle):
    c = couple_from_gauge(circle)
    xs = np.linspace(0, TWO_PI, 50)
    assert np.abs(gamma(circle, 0.0, xs[:, None]).squeeze()
                  - c.gamma0(xs[:, None]).squeeze()).max() < 1e-12


def test_hopf_constant_radius(hopf):
    tt, xx = np.meshgrid(np.linspace(0, TWO_PI, 100),
                         np.linspace(0, TWO_PI, 100))
    vals = gamma(hopf, tt, xx)
    r = np.linalg.norm(vals, axis=-1)
    assert np.abs(r - 1 / np.sqrt(2)).max() < 1e-9


def test_circle_derivatives_at_zero(circle):
    gx, gt = derivatives(circle, 0.0, 0.0)
    assert np.abs(gx - np.array([0.0, 1.0])).max() < 1e-12
    assert np.abs(gt).max() < 1e-12


def test_circle_derivatives_at_quarter(circle):
    xs = np.linspace(0, TWO_PI, 17)
    gx, gt = derivatives(circle, np.full_like(xs, np.pi / 2), xs)
    assert np.abs(gx).max() < 1e-12
    assert np.abs(np.linalg.norm(gt, axis=1) - 1.0).max() < 1e-12


def test_hopf_half_gradient(hopf):
    tt, xx = np.meshgrid(np.linspace(0, TWO_PI, 32),
                         np.linspace(0, TWO_PI, 32))
    gx, _ = derivatives(hopf, tt, xx)
    assert np.abs((gx * gx).sum(-1) - 0.5).max() < 1e-12


def test_metric_circle_values(circle):
    assert abs(metric_det(circle, 0.0, 0.3) + 1.0) < 1e-12
    assert abs(metric_det(circle, np.pi / 2, 0.3)) < 1e-12


def test_metric_hopf(hopf):
    tt, xx = np.meshgrid(np.linspace(0, TWO_PI, 32),
                         np.linspace(0, TWO_PI, 32))
    assert np.abs(metric_det(hopf, tt, xx) + 0.25).max() < 1e-12


def test_metric_equals_minus_gx_fourth():
    g = catalog.random_planar_gauge(seed=4)
    rng = np.random.default_rng(0)
    ts = rng.uniform(0, g.E0, 10000)
    xs = rng.uniform(0, g.E0, 10000)
    det = metric_det(g, ts, xs)
    gx, _ = derivatives(g, ts, xs)
    gx2 = (gx * gx).sum(-1)
    assert np.abs(det + gx2 ** 2).max() < 1e-9
    assert det.max() <= 1e-15


def test_sample_timelike_flag(circle):
    s = sample(circle, 0.1, 0.2)
    assert s.timelike
    s2 = sample(circle, np.pi / 2, 0.2)
    assert not s2.timelike


def test_constraint_residuals_circle(circle):
    rep = constraint_residuals(circle, n_t=200, n_x=200, h=1e-3, wave_grid=24)
    assert rep.gauge_residual <= 1e-12
    assert rep.ortho_residual <= 1e-12
    assert 3.5 <= rep.wave_ratio <= 4.5


def test_constraint_residuals_fourier_seed3():
    g = catalog.random_planar_gauge(seed=3)
    rep = constraint_residuals(g, n_t=64, n_x=64, h=1e-3, wave_grid=24)
    assert rep.gauge_residual <= 1e-9
    assert rep.ortho_residual <= 1e-9
    assert 3.5 <= rep.wave_ratio <= 4.5
    assert rep.wave_residual <= rep.wave_constant * 1e-3 ** 2 * (1 + 1e-12)


def test_constraint_residuals_hopf_orthogonality(hopf):
    rep = constraint_residuals(hopf, n_t=100, n_x=100, h=1e-3, wave_grid=16)
    assert rep.ortho_residual <= 1e-12


def test_slice_square(circle):
    sl = slice_curve(circle, 0.0, m=4)
    expect = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.abs(sl.points - expect).max() < 1e-12


def test_slice_shrinks_like_cosine(circle):
    sl = slice_curve(circle, np.pi / 3, m=64)
    r = np.linalg.norm(sl.points, axis=1)
    assert np.abs(r - 0.5).max() < 1e-12
    assert sl.closure_gap < 1e-12


def test_time_periodicity(circle, hopf):
    for g in (circle, hopf):
        ts = np.array([0.2, 1.0, 2.2])
        xs = np.array([0.1, 3.0, 5.5])
        dev = np.abs(gamma(g, ts + g.E0, xs) - gamma(g, ts, xs)).max()
        assert dev < 1e-9


def test_finite_propagation_bit_identical():
    # perturbing the tangent strictly above the dependence interval leaves
    # gamma(t, x) bit-identical (prefix integrals below are untouched)
    base = catalog.circle_curve()

    def bump_tan(x, order):
        assert order == 0  # gamma reads no tangent derivative
        out = base.tangent(x).copy()
        y = np.mod(x, TWO_PI)
        w = np.exp(-1.0 / np.maximum((y - 5.0) * (6.0 - y), 1e-12))
        w = np.where((y > 5.0) & (y < 6.0), w, 0.0)
        ang = 0.3 * w
        rot = np.stack([
            np.cos(ang) * out[..., 0] - np.sin(ang) * out[..., 1],
            np.sin(ang) * out[..., 0] + np.cos(ang) * out[..., 1]], axis=-1)
        return rot

    pert = UnitSpeedCurve(CallableTangent(bump_tan, TWO_PI, 2,
                                          breakpoints=(5.0, 6.0)),
                          base.basepoint.copy())
    g1 = OrthogonalGauge(catalog.circle_curve(), catalog.circle_curve())
    g2 = OrthogonalGauge(pert, catalog.circle_curve())
    # gamma(t, x) with x + t <= 5 depends on a only through [0, x + t]
    t, x = 0.4, 1.1
    v1 = gamma(g1, t, x)
    v2 = gamma(g2, t, x)
    assert (v1 == v2).all()


# slice set distance ----------------------------------------------------------

def polyline_set_distance(g1, g2, t, m_sparse, m_dense):
    """Reference slice distance: each sparse sample against the closed
    polyline through m_dense samples of the other slice, around its 6
    nearest samples.  Its error is quadratic in the dense spacing."""
    d = 0.0
    for ga, gb in ((g1, g2), (g2, g1)):
        sparse = slice_curve(ga, t, m=m_sparse).points
        dense = slice_curve(gb, t, m=m_dense).points
        _, knn = cKDTree(dense).query(sparse, k=6)
        best = np.full(len(sparse), np.inf)
        for col in range(knn.shape[1]):
            for off in (-1, 0):
                seg_a = dense[(knn[:, col] + off) % m_dense]
                seg_b = dense[(knn[:, col] + off + 1) % m_dense]
                ab = seg_b - seg_a
                denom = np.maximum((ab * ab).sum(axis=1), np.finfo(float).tiny)
                u = np.clip(((sparse - seg_a) * ab).sum(axis=1) / denom,
                            0.0, 1.0)
                best = np.minimum(best, np.linalg.norm(
                    sparse - seg_a - u[:, None] * ab, axis=1))
        d = max(d, float(best.max()))
    return d


def test_slice_distance_matches_dense_polyline(nonuniq):
    g_id, g_pi, _ = nonuniq
    for t in (0.3, 0.5, 1.7):
        ref = polyline_set_distance(g_id, g_pi, t, m_sparse=256,
                                    m_dense=2 ** 20)
        assert abs(slice_set_distance(g_id, g_pi, t, m_sparse=256) - ref) <= 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_slice_distance_exact_at_coincidence(n):
    g_id, g_pi, delta = constructions.nonuniqueness_pair(n=n)
    for t in np.linspace(0.0, delta, 4):
        assert slice_set_distance(g_id, g_pi, t, m_sparse=256) <= 1e-12


def test_slice_distance_exact_on_same_surface():
    h_id, h_pi = constructions.same_surface_family()
    for t in np.linspace(0.0, 3.0, 8, endpoint=False):
        assert slice_set_distance(h_id, h_pi, t, m_sparse=256) <= 1e-12


@pytest.fixture(scope="module")
def projection_gauges():
    return {"hopf": catalog.hopf_gauge(), "nonconvex": catalog.nonconvex_gauge(),
            "circle": catalog.circle_gauge()}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["hopf", "nonconvex", "circle"]),
       shift=st.floats(0.0, 1.0), time=st.floats(0.0, 1.0))
# three arcs of the slice within 1e-4 of each other: the 4 nearest coarse
# samples all lie on the two wrong ones
@example(name="nonconvex", shift=0.7432841596377239, time=0.7421875)
# a foot 0.05 coarse spacings from a cusp, where Newton converges linearly
@example(name="nonconvex", shift=0.9916861960144647, time=0.7264246392278)
def test_slice_distance_reparametrization_invariant(projection_gauges, name,
                                                    shift, time):
    # h is the same surface with the parameter origin moved by c
    g = projection_gauges[name]
    c, t = shift * g.E0, time * g.E0
    h = OrthogonalGauge(g.a.shifted(c), g.b.shifted(c))
    d = slice_set_distance(g, h, t, m_sparse=256)
    assert d <= 1e-12
    assert d == slice_set_distance(h, g, t, m_sparse=256)


def test_read_once_keeps_signed_zeros_and_order():
    y = np.array([0.5, -0.0, 0.0, 0.5, np.nan, -0.0, 2.0])
    seen = []

    def read(u):
        seen.append(u.copy())
        return np.stack([u, np.copysign(1.0, u)], axis=1)

    out = _read_once(read, y)
    assert len(seen[0]) == 5             # 0.5, -0.0, 0.0, nan, 2.0
    assert np.array_equal(out, read(y), equal_nan=True)
    assert np.array_equal(np.signbit(out[:, 0]), np.signbit(y))


def test_constraint_residuals_match_full_grid_reference(equality_gauges):
    for name, g in equality_gauges.items():
        for args in ((200, 200, 1e-3, 24), (60, 90, 2e-3, 48)):
            assert (constraint_residuals(g, *args)
                    == full_grid_constraint_residuals(g, *args)), (name, args)


def test_constraint_residuals_read_each_characteristic_once(equality_gauges,
                                                            monkeypatch):
    # the census call: a 200^2 derivative grid and a 24^2 wave grid, the
    # latter at h and h/2, two steps each, 2 * len(_GL_NODES) points a step
    g = equality_gauges["census0"]
    expected = constraint_residuals(g, 200, 200, 1e-3, 24)
    reads = {"a": 0, "b": 0}
    for name in reads:
        curve = getattr(g, name)

        def counted(x, _name=name, _tangent=curve.tangent):
            reads[_name] += np.size(x)
            return _tangent(x)

        monkeypatch.setattr(curve, "tangent", counted)
    assert constraint_residuals(g, 200, 200, 1e-3, 24) == expected

    def distinct(n, shift):
        ts = np.linspace(0.0, g.E0, n, endpoint=False)
        tt, xx = np.meshgrid(ts, ts + shift, indexing="ij")
        return {"a": len(np.unique(xx + tt)), "b": len(np.unique(xx - tt))}

    grid, wave = distinct(200, 0.0), distinct(24, 0.37 * g.E0 / 24)
    per_wave_value = 2 * 2 * 2 * len(_GL_NODES)
    for name in reads:
        assert reads[name] <= grid[name] + per_wave_value * wave[name]
    # the full grids read 2 * (200^2 + 2 * 2 * 2 * 8 * 24^2) = 153,728 points
    assert reads["a"] + reads["b"] < 20_000


def test_grid_sample_matches_pointwise_surface(equality_gauges):
    for name in ("circle", "hopf", "census1", "nonuniq_pi"):
        g = equality_gauges[name]
        tt, xx = np.meshgrid(np.linspace(0.0, g.E0, 32, endpoint=False),
                             np.linspace(0.0, g.E0, 64, endpoint=False),
                             indexing="ij")
        pts, gx, gt, det = _grid_sample(g, tt, xx)
        gx_ref, gt_ref = derivatives(g, tt, xx)
        assert np.array_equal(pts, gamma(g, tt, xx).reshape(-1, g.dim)), name
        assert np.array_equal(gx, gx_ref.reshape(-1, g.dim)), name
        assert np.array_equal(gt, gt_ref.reshape(-1, g.dim)), name
        assert np.array_equal(det, metric_det(g, tt, xx).ravel()), name


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_row_dot_matches_numpy_row_sums(dim):
    rng = np.random.default_rng(dim)
    u = rng.normal(size=(2000, dim))
    v = rng.normal(size=(2000, dim))
    u[rng.random(u.shape) < 0.2] = 0.0
    v[rng.random(v.shape) < 0.2] = -0.0
    for a, b in ((u, v), (u, u), (u[0], v[0])):
        ref = np.asarray((a * b).sum(-1))
        got = np.asarray(_row_dot(a, b))
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _brute_nearest(samples, pts, k):
    """The k nearest samples of each point by a full scan: squared
    distances summed in coordinate order, ordered by (distance, index)."""
    diff = pts[:, None, :] - samples[None]
    d2 = diff[..., 0] * diff[..., 0]
    for j in range(1, diff.shape[-1]):
        d2 += diff[..., j] * diff[..., j]
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.sqrt(np.take_along_axis(d2, idx, axis=1)), idx


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(0)
@example(1)
@example(3)
def test_nearest_samples_match_kdtree_and_scan(seed):
    # samples of a random closed Fourier curve (or, for seeds 0 mod 3, of
    # an unstructured cloud), queried at random points, at samples and
    # halfway between consecutive samples (ties of equal distance)
    rng = np.random.default_rng(seed)
    dim, n = int(rng.integers(2, 5)), 16 * int(rng.integers(2, 129))
    if seed % 3:
        u = np.linspace(0.0, TWO_PI, n, endpoint=False)[:, None]
        modes = np.arange(1, 5)
        samples = (np.cos(u * modes) @ rng.normal(size=(4, dim))
                   + np.sin(u * modes) @ rng.normal(size=(4, dim)))
    else:
        samples = rng.normal(size=(n, dim))
    i = rng.integers(n, size=60)
    pts = np.vstack([rng.normal(size=(60, dim)), samples[i],
                     0.5 * (samples[i] + samples[(i + 1) % n])])
    k = min(SEED_CANDIDATES, n)
    dist, idx = _nearest_samples(samples, pts, k)
    assert np.array_equal(dist, cKDTree(samples).query(pts, k=k)[0])
    ref_dist, ref_idx = _brute_nearest(samples, pts, k)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(idx, ref_idx)


def test_nearest_samples_ties_by_lower_index():
    # the nonuniqueness pair at t = 0, as slice_set_distance queries it:
    # several rows hold equal distances among their 32 nearest samples,
    # and those come in increasing sample index
    from worldsheet.cli import _nonuniq_pair
    g1, g2, _, _ = _nonuniq_pair()
    tied = 0
    for ga, gb in ((g1, g2), (g2, g1)):
        pts = slice_curve(ga, 0.0, m=256).points
        coarse = gamma(gb, np.zeros(SEED_SAMPLES),
                       np.linspace(0.0, gb.E0, SEED_SAMPLES, endpoint=False))
        dist, idx = _nearest_samples(coarse, pts, SEED_CANDIDATES)
        assert np.array_equal(
            dist, cKDTree(coarse).query(pts, k=SEED_CANDIDATES)[0])
        ref_dist, ref_idx = _brute_nearest(coarse, pts, SEED_CANDIDATES)
        assert np.array_equal(dist, ref_dist) and np.array_equal(idx, ref_idx)
        same = dist[:, 1:] == dist[:, :-1]
        assert np.all(idx[:, 1:][same] > idx[:, :-1][same])
        tied += int(same.any(axis=1).sum())
    assert tied > 0
