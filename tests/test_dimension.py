import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import count_boxes_dense
from worldsheet import dimension, surface
from worldsheet.dimension import (PointCloud, _count_boxes, _row_groups,
                                  box_count, singstar_cloud)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite(bad):
    # one bad coordinate would make the diameter nan or inf and let
    # box_count fit a slope to a 2-D square that is far from 2
    pts = np.random.default_rng(4).uniform(0, 1, size=(1000, 2))
    pts[17, 1] = bad
    with pytest.raises(PreconditionError, match="finite"):
        PointCloud(pts)


def test_duplicate_points_removed():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    assert len(PointCloud(pts).points) == 2


def test_cloud_without_duplicates_holds_the_given_array():
    # no copy: the cloud keeps the float64 array it is given, both when a
    # column's keys are distinct and when the rows need grouping
    for pts in (np.array([[0.0, 1.0], [2.0, 3.0], [-1.0, 0.5]]),
                np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0]])):
        assert PointCloud(pts).points is pts


def test_far_away_points_stay_distinct():
    # 1e7 / 1e-12 overflows int64; distinct rows must not be merged
    pts = np.array([[1e7, 0.0], [2e7, 0.0], [3e7, 1.0]])
    assert np.array_equal(PointCloud(pts).points, pts)


def _dedup_by_row_groups(pts):
    order, first = _row_groups(np.round(pts / 1e-12))
    return pts[np.sort(order[first])]


def test_column_with_distinct_keys_skips_row_grouping():
    pts = np.random.default_rng(5).uniform(0, 1, size=(1000, 3))
    pts[:, 0] = np.repeat(np.arange(10.0), 100)
    with mock.patch.object(dimension, "_row_groups",
                           wraps=dimension._row_groups) as spy:
        cloud = PointCloud(pts)
    assert not spy.called
    assert np.array_equal(cloud.points, pts)


def test_distinct_rows_without_a_distinct_column_are_grouped():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with mock.patch.object(dimension, "_row_groups",
                           wraps=dimension._row_groups) as spy:
        cloud = PointCloud(pts)
    assert spy.call_count == 1
    assert np.array_equal(cloud.points, pts)


@pytest.mark.parametrize("pts", [
    [[0.0, 1.0], [-0.0, 1.0], [1.0, 2.0]],
    [[0.0, 1.0], [-0.0, 2.0]],
    [[-0.0, 3.0], [0.0, 3.0]],
    [[1e-13, 0.0], [-1e-13, 0.0], [0.0, 0.0]],
    [[-0.0], [0.0], [2.0]],
])
def test_signed_zero_keys_dedup_as_row_groups(pts):
    # -0.0 and 0.0 compare equal, in the column sort as in the lexsort
    pts = np.array(pts)
    assert np.array_equal(PointCloud(pts).points, _dedup_by_row_groups(pts))


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


@settings(max_examples=200, deadline=None)
@given(integer_clouds(), st.data())
def test_column_and_row_dedup_keep_first_occurrences(keys, data):
    # half the clouds get an all-distinct column at a drawn position, so
    # the column test ends the dedup; in the rest no column may be distinct
    pts = keys.astype(float)
    if data.draw(st.booleans()):
        col = data.draw(st.permutations(range(len(pts))))
        at = data.draw(st.integers(0, pts.shape[1]))
        pts = np.insert(pts, at, np.array(col) * 0.5, axis=1)
    distinct = any(len(np.unique(c)) == len(c) for c in pts.T)
    with mock.patch.object(dimension, "_row_groups",
                           wraps=dimension._row_groups) as spy:
        cloud = PointCloud(pts)
    assert spy.called != distinct
    assert np.array_equal(cloud.points, pts[_first_occurrences(pts)])


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


@st.composite
def box_cells(draw):
    """Integer cells, d in 1..4, that come in runs of equal consecutive rows
    and repeat across runs; the corners 0 and ext - 1 pin the extents, whose
    product is either small or within one last-column step of 2**62."""
    d = draw(st.integers(1, 4))
    if d > 1 and draw(st.booleans()):
        ext = draw(st.lists(st.integers(2 ** 10, 2 ** 20), min_size=d - 1,
                            max_size=d - 1))
        ext.append(2 ** 62 // math.prod(ext) + draw(st.integers(-1, 1)))
    else:
        ext = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    pool = [[0] * d, [e - 1 for e in ext]] + draw(st.lists(
        st.tuples(*[st.integers(0, e - 1) for e in ext]).map(list), max_size=6))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                   st.integers(1, 40)), min_size=1, max_size=12))
    rows = [pool[0], pool[1]] + [pool[i] for i, n in runs for _ in range(n)]
    return np.array(rows, dtype=np.int64), ext


@settings(max_examples=200, deadline=None)
@given(box_cells())
@example((np.array([[0, 0], [2 ** 31 - 1, 2 ** 31 - 2]] * 3), [2 ** 31, 2 ** 31 - 1]))
@example((np.array([[0, 0], [2 ** 31 - 1, 2 ** 31 - 1]] * 3), [2 ** 31, 2 ** 31]))
def test_packed_box_count_matches_row_groups(drawn):
    cells, ext = drawn
    # integer coordinates at eps = 1 land in exactly their own cells
    pts = cells.astype(float)
    with mock.patch.object(dimension, "_row_groups",
                           wraps=dimension._row_groups) as spy:
        count = _count_boxes(pts, pts.min(axis=0), pts.max(axis=0), 1.0)
    assert count == np.count_nonzero(_row_groups(cells)[1])
    # the packed key is used below 2**62, the row grouping from there on
    assert spy.called == (math.prod(ext) >= 2 ** 62)


@settings(max_examples=200, deadline=None)
@given(box_cells(), st.integers(1, 7))
def test_blocked_box_count_matches_dense(drawn, block):
    # blocks of 1-7 rows cut the runs of equal cells at block edges
    cells, _ = drawn
    pts = cells.astype(float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    with mock.patch.object(dimension, "BOX_BLOCK", block):
        count = _count_boxes(pts, lo, hi, 1.0)
    assert count == count_boxes_dense(pts, lo, hi, 1.0)


@pytest.fixture(scope="module")
def cantor_k1_cloud(cantor_k1):
    """The dimension task's k = 1 cloud (resolution 2048) and its scales."""
    g, _ = cantor_k1
    cloud = singstar_cloud(g, resolution=2048)
    y1 = cloud.points[:, 1]
    dscale = 2.0 * float(y1.max() - y1.min())
    return cloud, [dscale * g.metadata["spec"].r_alpha ** j for j in range(1, 8)]


def test_cantor_box_counts_match_dense(cantor_k1_cloud):
    cloud, scales = cantor_k1_cloud
    pts = cloud.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    dense = [count_boxes_dense(pts, lo, hi, eps) for eps in scales]
    assert dense == [43, 167, 882, 3565, 15753, 60833, 200090]
    assert box_count(cloud, scales).counts.tolist() == dense


def test_box_count_peak_memory(cantor_k1_cloud):
    # the keys of one block are packed at a time into one int64 array of
    # the cloud's length: the traced peak is about that array (4 MiB for
    # 524,288 rows), not three full-length key arrays (12 MiB)
    cloud, scales = cantor_k1_cloud
    box_count(cloud, scales)
    tracemalloc.start()
    try:
        box_count(cloud, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20


@pytest.mark.parametrize("which", ["sing_star", "sing"])
@pytest.mark.parametrize("fixture", ["cantor_k1", "cantor_k2"])
def test_singstar_cloud_is_gamma_on_product_grid(request, fixture, which):
    g, _ = request.getfixturevalue(fixture)
    resolution = 256
    cloud = singstar_cloud(g, resolution=resolution, which=which)
    pred = g.metadata["cantor_prediction"]
    ts = np.linspace(*pred["t_window"], resolution)
    ref = np.vstack([np.column_stack([ts, surface.gamma(g, ts, s - ts)])
                     for s in pred["sigma_sing" if which == "sing" else "sigma_star"]])
    assert np.array_equal(cloud.points, PointCloud(ref).points)


def test_singstar_cloud_peak_memory(cantor_k1):
    # the cloud is filled in place, deduplicated by one sort of its last
    # column and stored without a copy: the traced peak is the filled
    # array plus one key column, not a list of blocks, their stacked copy
    # and full key arrays
    g, _ = cantor_k1
    singstar_cloud(g, resolution=512)
    tracemalloc.start()
    try:
        cloud = singstar_cloud(g, resolution=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * cloud.points.nbytes


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
