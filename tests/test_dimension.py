import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from worldsheet.dimension import (PointCloud, _row_groups, box_count,
                                  singstar_cloud)
from worldsheet.errors import PreconditionError


def middle_thirds(depth):
    pts = np.array([0.0])
    for _ in range(depth):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    return pts


def test_segment_slope():
    rng = np.random.default_rng(0)
    pts = np.stack([rng.uniform(0, 1, 10000), np.zeros(10000)], axis=1)
    est = box_count(PointCloud(pts))
    assert 0.95 <= est.slope <= 1.05
    assert est.reliable


def test_square_slope():
    # 1e4 samples fill boxes only down to ~1e-2, so the ladder stops there
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(10000, 2))
    est = box_count(PointCloud(pts), scales=[2.0 ** -j for j in range(2, 7)])
    assert 1.9 <= est.slope <= 2.1
    assert est.reliable


def test_middle_thirds_slope():
    # ladder aligned with the construction ratio; depth-10 sample
    pts = middle_thirds(10)
    cloud = PointCloud(np.stack([pts, np.zeros_like(pts)], axis=1))
    est = box_count(cloud, scales=[3.0 ** -j for j in range(2, 9)])
    assert 0.58 <= est.slope <= 0.68
    assert abs(est.slope - np.log(2) / np.log(3)) < 0.02
    assert est.r2 >= 0.98


def test_counts_monotone():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(5000, 3))
    est = box_count(PointCloud(pts))
    assert (np.diff(est.counts) >= 0).all()


def test_scale_ladder_validation():
    pts = np.random.default_rng(3).uniform(0, 1, size=(100, 2))
    cloud = PointCloud(pts)
    with pytest.raises(PreconditionError, match="5 scales"):
        box_count(cloud, scales=[0.1, 0.05, 0.02])
    with pytest.raises(PreconditionError, match="diameter"):
        box_count(cloud, scales=[10, 5, 2.5, 1.25, 0.6])


def test_duplicate_points_removed():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    assert len(PointCloud(pts).points) == 2


def test_far_away_points_stay_distinct():
    # 1e7 / 1e-12 overflows int64; distinct rows must not be merged
    pts = np.array([[1e7, 0.0], [2e7, 0.0], [3e7, 1.0]])
    assert np.array_equal(PointCloud(pts).points, pts)


@st.composite
def integer_clouds(draw):
    """Small integer clouds, d in 1..4, with forced duplicate rows."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 24))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                         min_size=m, max_size=m))
    repeats = draw(st.lists(st.integers(0, m - 1), max_size=m))
    rows = rows + [rows[i] for i in repeats]
    perm = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in perm], dtype=np.int64)


def _first_occurrences(rows):
    seen, keep = set(), []
    for i, row in enumerate(map(tuple, rows)):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return np.array(keep)


@settings(max_examples=200, deadline=None)
@given(integer_clouds(), st.sampled_from([1e-3, 1.0, 1e8]))
def test_row_groups_and_dedup_match_unique(keys, scale):
    order, first = _row_groups(keys)
    assert np.array_equal(np.sort(order), np.arange(len(keys)))
    assert np.count_nonzero(first) == len(np.unique(keys, axis=0))
    keep = _first_occurrences(keys)
    assert np.array_equal(np.sort(order[first]), keep)
    pts = keys * scale
    assert np.array_equal(PointCloud(pts).points, pts[keep])


@settings(max_examples=100, deadline=None)
@given(integer_clouds())
def test_box_count_matches_unique_per_scale(keys):
    cloud = PointCloud(keys.astype(float))
    diam = cloud.diameter
    if diam == 0.0:
        with pytest.raises(PreconditionError, match="diameter"):
            box_count(cloud, scales=[2.0 ** -j for j in range(5)])
        return
    scales = [0.25 * diam * 0.6 ** j for j in range(6)]
    est = box_count(cloud, scales)
    lo = cloud.points.min(axis=0)
    ref = []
    for eps in scales:
        cells = np.floor((cloud.points - lo) / eps + 1e-9).astype(np.int64)
        ref.append(len(np.unique(cells, axis=0)))
    assert est.counts.tolist() == ref


def test_unreliable_flag():
    # two clusters: the log-log curve has a hard knee, so the fit is bad
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.uniform(0, 1e-4, size=(500, 2)),
                          rng.uniform(0, 1e-4, size=(500, 2)) + 10.0])
    est = box_count(PointCloud(pts), scales=[2.0 ** -j for j in range(0, 7)])
    assert not est.reliable


def test_singstar_cloud_errors_on_smooth_gauge(hopf):
    with pytest.raises(PreconditionError, match="no strict singular"):
        singstar_cloud(hopf, resolution=128)


def test_subset_monotonicity_cantor(cantor_k1):
    g, _ = cantor_k1
    c_star = singstar_cloud(g, resolution=512, which="sing_star")
    c_sing = singstar_cloud(g, resolution=512, which="sing")
    y1 = c_star.points[:, 1]
    d = 2.0 * float(y1.max() - y1.min())
    scales = [d * 0.5 ** j for j in range(3, 8)]
    s_star = box_count(c_star, scales).slope
    s_sing = box_count(c_sing, scales).slope
    assert s_star <= s_sing + 0.1


def test_generic_gauge_cloud_from_classifier(wavy_pair):
    cloud = singstar_cloud(wavy_pair, which="sing")
    # two transversal crossings: finitely many image points
    assert 1 <= len(cloud.points) <= 64


def test_random_transversal_gauges_have_finite_singular_sets():
    # smooth gauges with transversal diagrams carry finitely many singular
    # components per fundamental domain; the ladder degenerates, so the
    # cardinality is the report
    from worldsheet.curves import from_tangent_image
    from worldsheet.gauge import OrthogonalGauge
    from worldsheet import catalog
    from worldsheet.topology import transversal_count
    rng = np.random.default_rng(77)
    cards = []
    for _ in range(10):
        ha, hb = rng.uniform(0.15, 0.3, 2)
        phase = rng.uniform(0.5, np.pi - 0.5)
        a = from_tangent_image(catalog.wavy_circle_path(wave=ha), k=3)
        b = from_tangent_image(catalog.wavy_circle_path(wave=hb, phase=phase),
                               k=3, period=a.period)
        g = OrthogonalGauge(a, b)
        cards.append(transversal_count(g))
    assert all(1 <= c <= 8 for c in cards)
