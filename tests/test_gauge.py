import numpy as np
import pytest

from worldsheet import catalog, gauge
from worldsheet.curves import CallableTangent, UnitSpeedCurve
from worldsheet.errors import PreconditionError
from worldsheet.gauge import (AdmissibleCouple, OrthogonalGauge,
                              couple_from_gauge, equivalent_gauges,
                              gauge_from_couple, normalize, period_E0)
from oracles import adaptive_simpson

TWO_PI = 2.0 * np.pi


def circle_couple(radius=1.0, v_scale=0.0):
    def fields(x):
        x = np.asarray(x, dtype=float)
        tangent = np.stack([-np.sin(x), np.cos(x)], axis=-1)
        inward = -np.stack([np.cos(x), np.sin(x)], axis=-1)
        return radius * tangent, v_scale * inward

    return AdmissibleCouple(fields, TWO_PI, 2, np.array([radius, 0.0]))


def test_period_unit_circle():
    assert abs(period_E0(circle_couple()) - TWO_PI) < 1e-10


def test_period_radius_two():
    assert abs(period_E0(circle_couple(radius=2.0)) - 2 * TWO_PI) < 1e-10


def test_period_with_velocity_half():
    # E0 = integral 1/sqrt(1-1/4) = 2pi * 2/sqrt(3); also via the oracle
    c = circle_couple(v_scale=0.5)
    expect = adaptive_simpson(
        lambda x: np.ones_like(x) / np.sqrt(1 - 0.25), 0.0, TWO_PI, tol=1e-12)
    got = period_E0(c)
    assert abs(got - expect) < 1e-10
    assert abs(got - TWO_PI * 2.0 / np.sqrt(3.0)) < 1e-9


def test_normalize_already_normalized_unchanged():
    c = circle_couple()
    assert c.is_normalized()[0]
    assert normalize(c) is c


def test_normalize_radius_two_gives_arclength():
    nc = normalize(circle_couple(radius=2.0))
    ok, resid = nc.is_normalized()
    assert ok and resid < 1e-9
    assert abs(nc.period - 2 * TWO_PI) < 1e-9
    # reparametrized curve traces the same circle at unit speed
    xs = np.linspace(0, nc.period, 64)
    pos = nc.gamma0(xs)
    assert np.abs(np.linalg.norm(pos, axis=1) - 2.0).max() < 1e-8


def test_normalize_with_velocity():
    nc = normalize(circle_couple(v_scale=0.5))
    ok, resid = nc.is_normalized()
    assert ok and resid < 1e-9
    assert abs(nc.period - TWO_PI * 2 / np.sqrt(3)) < 1e-9


def test_normalize_idempotent():
    couple = catalog.fourier_couple(seed=13)
    nc = normalize(couple)
    xs = np.linspace(0, nc.period, 512)
    again = normalize(nc)
    assert again is nc or np.abs(
        again.fields(xs)[0] - nc.fields(xs)[0]).max() < 1e-9


def test_subluminal_rejection():
    c = circle_couple(v_scale=1.0 - 1e-12)
    with pytest.raises(PreconditionError, match="subluminal"):
        normalize(c)


def test_gauge_from_couple_zero_velocity_halves_coincide():
    g = gauge_from_couple(circle_couple())
    xs = np.linspace(0, TWO_PI, 256)
    assert np.abs(g.a.tangent(xs) - g.b.tangent(xs)).max() < 1e-12


def test_gauge_requires_normalized_couple():
    with pytest.raises(PreconditionError, match="normalize"):
        gauge_from_couple(circle_couple(radius=2.0))


def test_gauge_from_random_couple_membership_seed7():
    couple = normalize(catalog.fourier_couple(seed=7, modes=3))
    g = gauge_from_couple(couple)
    xs = np.linspace(0, g.E0, 10000, endpoint=False)
    s = np.linalg.norm(g.a.tangent(xs) + g.b.tangent(xs), axis=1)
    assert s.min() > 1e-6
    norms_a = np.linalg.norm(g.a.tangent(xs), axis=1)
    norms_b = np.linalg.norm(g.b.tangent(xs), axis=1)
    assert np.abs(norms_a - 1).max() < 1e-9
    assert np.abs(norms_b - 1).max() < 1e-9


def test_couple_from_gauge_circle(circle):
    c = couple_from_gauge(circle)
    xs = np.linspace(0, TWO_PI, 128)
    _, v = c.fields(xs)
    assert np.abs(v).max() < 1e-12
    ok, _ = c.is_normalized()
    assert ok


def test_couple_from_gauge_hopf_half_energies(hopf):
    c = couple_from_gauge(hopf)
    xs = np.linspace(0, TWO_PI, 256)
    gp, v = c.fields(xs)
    assert np.abs((gp * gp).sum(1) - 0.5).max() < 1e-12
    assert np.abs((v * v).sum(1) - 0.5).max() < 1e-12


def test_round_trip_identity_seed11():
    couple = normalize(catalog.fourier_couple(seed=11, modes=3))
    g = gauge_from_couple(couple)
    back = couple_from_gauge(g)
    g2 = gauge_from_couple(back)
    xs = np.linspace(0, g.E0, 999)
    assert np.abs(g2.a.tangent(xs) - g.a.tangent(xs)).max() < 1e-9
    # positions agree after basepoint alignment
    shift = g2.a.basepoint - g.a.basepoint
    assert np.abs((g2.a.position(xs) - shift) - g.a.position(xs)).max() < 1e-9


def test_couple_from_gauge_reads_each_tangent_once(monkeypatch):
    # g.validate() evaluates the source tangents 4 times (each curve at x
    # and x + E0); each of the 2 field reads in gauge_from_couple then
    # costs one a' and one b'.
    g = catalog.random_planar_gauge(seed=3)
    calls = []
    tangent = UnitSpeedCurve.tangent

    def counted(self, x):
        if self is g.a or self is g.b:
            calls.append(1)
        return tangent(self, x)

    monkeypatch.setattr(UnitSpeedCurve, "tangent", counted)
    gauge_from_couple(couple_from_gauge(g))
    assert len(calls) == 8


def test_validate_reads_each_tangent_twice(hopf, monkeypatch):
    # each curve is read at x and at x + E0; min |a' + b'| reuses the
    # reads at x
    calls = []
    call = CallableTangent.__call__

    def counted(self, x, order=0):
        if self is hopf.a.rep or self is hopf.b.rep:
            calls.append(order)
        return call(self, x, order)

    monkeypatch.setattr(CallableTangent, "__call__", counted)
    hopf.validate()
    assert calls == [0, 0, 0, 0]


def test_equivalence_predicate_detects_shift():
    g = catalog.circle_gauge()
    # shifted witness: a(x + x0) differs from a(x) unless x0 = 0 mod 2pi
    dev_true = equivalent_gauges(g, g, x0=0.0, z0=np.zeros(2), sigma0=1)
    dev_false = equivalent_gauges(g, g, x0=0.5, z0=np.zeros(2), sigma0=1)
    assert dev_true < 1e-12
    assert dev_false > 0.1


def test_immersion_rejected():
    def fields(x):
        x = np.asarray(x, dtype=float)
        # speed vanishes at x = 0
        gp = (1 - np.cos(x))[..., None] * np.stack(
            [-np.sin(x), np.cos(x)], axis=-1)
        return gp, np.zeros_like(gp)

    c = AdmissibleCouple(fields, TWO_PI, 2, np.zeros(2))
    with pytest.raises(PreconditionError, match="immersion"):
        c.validate()


def test_bake_reparametrizes_each_node_set_once(monkeypatch):
    # normalize reads the couple's fields 2 times (one check grid for
    # validation and the normalization residual, and the mu build);
    # gauge_from_couple reads the fields on 2 node sets, the bake nodes
    # and their midpoints, at 4 reads each (3 Newton steps plus the
    # field read).  A separate normalization grid costs one more node set.
    calls = []
    make = catalog.fourier_couple

    def counted(*args, **kwargs):
        couple = make(*args, **kwargs)
        fields = couple.fields
        couple.fields = lambda x: calls.append(1) or fields(x)
        return couple

    monkeypatch.setattr(catalog, "fourier_couple", counted)
    g = catalog.random_planar_gauge(seed=0)
    assert g.metadata["baked_nodes"] == 4096
    assert len(calls) <= 2 + 2 * 4


def test_baked_nodes_is_the_larger_node_count():
    # a' needs 8192 nodes to resample within tolerance, b' only 4096
    wiggly = catalog.angle_curve(
        lambda x: x + 0.5 * np.pi + 0.3 * np.sin(20 * x),
        lambda x: 1 + 6 * np.cos(20 * x))
    g = OrthogonalGauge(wiggly, catalog.circle_curve())
    baked = gauge_from_couple(couple_from_gauge(g))
    assert len(baked.a.rep.samples) == 8192
    assert len(baked.b.rep.samples) == 4096
    assert baked.metadata["baked_nodes"] == 8192


def test_normalized_couple_never_serves_stale_node_set():
    couple = normalize(catalog.fourier_couple(seed=3))
    fresh = normalize(catalog.fourier_couple(seed=3))
    xs = np.linspace(0.0, couple.period, 64, endpoint=False)
    for j in range(8):                      # more node sets than are kept
        couple.fields(xs + 0.01 * j)
        couple.fields(xs[: 8 + j])
    probes = [xs, xs + 0.03, xs[:8], xs.reshape(8, 8), xs[5], xs[:1]]
    for x in probes:
        for arr in couple.fields(x):        # callers may scribble on results
            arr[...] = 0.0
        for got, want in zip(couple.fields(x), fresh.fields(x)):
            assert np.array_equal(got, want)


def test_normalize_carries_breakpoints(nonuniq, monkeypatch):
    # the nonuniqueness couple run in y = 2x with both fields halved:
    # normalize keeps its 90 breakpoints, at their images mu(2 x_j) in the
    # new parameter, so gauge_from_couple does not try to bake the fields
    source = couple_from_gauge(nonuniq[0])
    breaks = 2.0 * np.asarray(source.metadata["breakpoints"])
    assert len(breaks) == 90

    def fields(y):
        gp, v = source.fields(0.5 * np.asarray(y, dtype=float))
        return 0.5 * gp, 0.5 * v

    slow = AdmissibleCouple(fields, 2.0 * source.period, source.dim,
                            source.basepoint,
                            metadata={"breakpoints": tuple(breaks)})
    assert slow.is_normalized()[1] == pytest.approx(0.75)
    couple = normalize(slow)
    got = np.asarray(couple.metadata["breakpoints"])
    assert got.shape == (90,)

    def density(y):
        gp, v = fields(y)
        return np.linalg.norm(gp, axis=-1) / np.sqrt(1.0 - (v * v).sum(axis=-1))

    # mu, the integral of the density, by the oracle between breakpoints
    order = np.argsort(breaks)
    ends = np.r_[0.0, breaks[order]]
    mu = np.cumsum([adaptive_simpson(density, lo, hi, tol=1e-12)
                    for lo, hi in zip(ends[:-1], ends[1:])])
    assert np.abs(got[order] - mu).max() <= 1e-10

    def no_bake(*args, **kwargs):
        raise AssertionError("gauge_from_couple tried to bake")

    monkeypatch.setattr(gauge, "SphereSamplesTangent", no_bake)
    g = gauge_from_couple(couple)
    assert g.a.rep.breakpoints == couple.metadata["breakpoints"]


@pytest.mark.parametrize("source", ["nonuniq", "cantor_k1"])
def test_unbaked_couple_fallback(source, request):
    # piecewise gauges (with breakpoints) are never baked: the round trip
    # reads the couple's fields directly, and its tangent derivative is
    # the central difference with step 1e-6 * max(E0, 1)
    g = request.getfixturevalue(source)[0]
    h = gauge_from_couple(couple_from_gauge(g))
    assert "baked_nodes" not in h.metadata
    xs = np.random.default_rng(13).uniform(0.0, g.E0, 2000)
    step = 1e-6 * max(g.E0, 1.0)
    for src, curve in ((g.a, h.a), (g.b, h.b)):
        assert np.abs(curve.tangent(xs) - src.tangent(xs)).max() <= 1e-14
        fd = (curve.tangent(xs + step) - curve.tangent(xs - step)) / (2.0 * step)
        assert np.array_equal(curve.tangent_derivative(xs), fd)
