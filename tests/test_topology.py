import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from worldsheet import catalog, serialize, topology
from worldsheet.errors import PreconditionError, UnderResolvedError
from worldsheet.gauge import OrthogonalGauge
from worldsheet.singular import find_antipodal_pairs
from worldsheet.topology import (_ProbeBasis, _crossing_linking,
                                 _gauss_linking_polylines, _perturb_curve,
                                 _rotation_to_pole,
                                 diagram, genericity_probe, linking_number,
                                 synthetic_diagram, transversal_count,
                                 winding_number)

TWO_PI = 2.0 * np.pi


def test_hopf_diagram_margin(hopf):
    d = diagram(hopf, m=512)
    assert d.disjoint
    assert abs(d.min_distance - np.sqrt(2)) < 1e-9


def test_planar_gauge_in_three_dims_not_disjoint():
    # the circle gauge embedded as an equator doubles its own diagram
    def tan3(x, order):
        c, s = np.cos(x), np.sin(x)
        d = (-s, c) if order == 0 else (-c, -s)
        return np.stack([*d, np.zeros_like(x)], axis=-1)

    from worldsheet.curves import CallableTangent, UnitSpeedCurve
    from worldsheet.gauge import OrthogonalGauge
    a = UnitSpeedCurve(CallableTangent(tan3, TWO_PI, 3), np.array([1., 0., 0.]))
    b = UnitSpeedCurve(CallableTangent(tan3, TWO_PI, 3), np.array([1., 0., 0.]))
    d = diagram(OrthogonalGauge(a, b), m=512)
    assert not d.disjoint
    assert d.min_distance < 1e-9


def test_meridian_loops_diagram_and_winding(meridian_loops):
    d = diagram(meridian_loops, m=1024)
    assert d.disjoint
    assert d.min_distance > 0.05
    w = winding_number(d)
    assert w == 0


def test_winding_equator_around_polar_loop():
    th = np.linspace(0, TWO_PI, 600, endpoint=False)
    # equator oriented so the projected loop from the far component winds +1
    eq = np.stack([np.cos(-th), np.sin(-th), np.zeros_like(th)], axis=1)
    lat = 80 * np.pi / 180
    loop = np.stack([np.cos(lat) * np.cos(th), np.cos(lat) * np.sin(th),
                     np.full_like(th, np.sin(lat))], axis=1)
    d = synthetic_diagram(eq, loop)
    w = winding_number(d)
    assert w == 1
    # reversing the equator's orientation negates the winding
    d2 = synthetic_diagram(eq[::-1], loop)
    assert winding_number(d2) == -1


def test_winding_stable_under_doubling(meridian_loops):
    d1 = diagram(meridian_loops, m=512)
    d2 = diagram(meridian_loops, m=1024)
    w1 = winding_number(d1)
    w2 = winding_number(d2)
    assert w1 == w2


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rotation_to_pole_at_the_poles(dim, sign):
    # q = -e_n takes the pi-rotation branch, q = e_n the identity
    e = np.eye(dim)[-1]
    R = _rotation_to_pole(sign * e, dim)
    assert np.allclose(R @ R.T, np.eye(dim), rtol=0.0, atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(R @ (sign * e), e)


def test_linking_hopf(hopf):
    lk = linking_number(diagram(hopf, m=512))
    assert abs(lk.value) == 1
    assert lk.residual <= 0.1


def test_linking_mirrored_product(hopf):
    lk1 = linking_number(diagram(hopf, m=512))
    lk2 = linking_number(diagram(catalog.mirrored_hopf_gauge(), m=512))
    assert lk1.value * lk2.value == -1


def test_linking_unlinked_control():
    th = np.linspace(0, TWO_PI, 400, endpoint=False)
    r1, r2 = 0.5, 0.6
    ones = np.ones_like(th)
    c1 = np.stack([np.cos(r1) * ones, np.sin(r1) * np.cos(th),
                   np.sin(r1) * np.sin(th), 0 * ones], axis=1)
    c2 = np.stack([-np.cos(r2) * ones, 0 * ones, np.sin(r2) * np.cos(th),
                   np.sin(r2) * np.sin(th)], axis=1)
    lk = linking_number(synthetic_diagram(c1, c2))
    assert lk.value == 0


def test_linking_orientation_reversal():
    th = np.linspace(0, TWO_PI, 400, endpoint=False)
    ones = np.ones_like(th)
    c1 = np.stack([np.cos(th), np.sin(th), 0 * ones, 0 * ones], axis=1)
    c2 = np.stack([0 * ones, 0 * ones, np.cos(th), np.sin(th)], axis=1)
    lk_f = linking_number(synthetic_diagram(c1, c2))
    lk_r = linking_number(synthetic_diagram(c1, c2[::-1]))
    assert lk_f.value == -lk_r.value != 0


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 40), st.integers(5, 40), st.integers(0, 2**32 - 1),
       st.floats(0.0, 2.0))
def test_crossing_linking_matches_gauss(n_p, n_q, seed, shift):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n_p, 3))
    Q = rng.normal(size=(n_q, 3)) + shift * rng.normal(size=3)
    lk = _crossing_linking(P, Q)
    gauss = _gauss_linking_polylines(P, Q)
    if abs(gauss - round(gauss)) < 1e-6:
        assert lk == round(gauss)
    assert _crossing_linking(P, Q[::-1]) == -lk
    assert _crossing_linking(Q, P) == lk


def test_crossing_linking_rerotates_non_generic_projection(monkeypatch):
    # In the frame of the first rotation, vertex (1, 0.3, 0.5) of the
    # quadrilateral projects onto the edge x = 1 of the unit square, whose
    # disk the quadrilateral pierces once.
    square = np.array([[-1., -1., 0.], [1., -1., 0.], [1., 1., 0.],
                       [-1., 1., 0.]])
    quad = np.array([[0., 0., 1.], [0.3, 0.2, -1.], [2., 0.1, -1.],
                     [1., 0.3, 0.5]])
    R0 = topology._generic_rotation(0)
    P, Q = quad @ R0, square @ R0
    used = []
    rotation = topology._generic_rotation
    monkeypatch.setattr(topology, "_generic_rotation",
                        lambda k: used.append(k) or rotation(k))
    lk = _crossing_linking(P, Q)
    assert used[:2] == [0, 1]
    assert topology._signed_crossings(P @ R0.T, Q @ R0.T) is None
    assert abs(lk) == 1
    assert lk == round(_gauss_linking_polylines(P, Q))


def test_linking_evaluates_gauss_integral_once(hopf, monkeypatch):
    calls = []
    gauss = topology._gauss_linking_polylines
    monkeypatch.setattr(topology, "_gauss_linking_polylines",
                        lambda P, Q: calls.append(1) or gauss(P, Q))
    lk = linking_number(diagram(hopf, m=512))
    assert abs(lk.value) == 1
    assert len(calls) == 1


def _signed_crossings_all_pairs(P, Q):
    """Reference for ``_signed_crossings``: every segment pair is tested,
    256 P segments at a time."""
    dp = np.roll(P, -1, axis=0) - P
    dq = np.roll(Q, -1, axis=0) - Q
    nq = np.hypot(dq[:, 0], dq[:, 1])
    q_lo = np.minimum(Q, Q + dq)[:, :2]
    q_hi = np.maximum(Q, Q + dq)[:, :2]
    tol = topology.CROSSING_TOL
    over = under = 0
    block = 256
    for i0 in range(0, len(P), block):
        p = P[i0:i0 + block, None, :]
        d = dp[i0:i0 + block, None, :]
        rx = Q[:, 0] - p[..., 0]
        ry = Q[:, 1] - p[..., 1]
        den = d[..., 0] * dq[:, 1] - d[..., 1] * dq[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rx * dq[:, 1] - ry * dq[:, 0]) / den
            u = (rx * d[..., 1] - ry * d[..., 0]) / den
        near = ((t > -tol) & (t < 1.0 + tol) & (u > -tol) & (u < 1.0 + tol))
        ii, jj = np.nonzero(near)
        ti, uj = t[ii, jj], u[ii, jj]
        if np.any(np.abs(np.concatenate([ti, 1.0 - ti, uj, 1.0 - uj]))
                  < tol):
            return None
        pi, pj = np.nonzero(np.abs(den) <= 1e-12 * nq
                            * np.hypot(d[..., 0], d[..., 1]))
        pa = P[i0 + pi, :2]
        pb = pa + dp[i0 + pi, :2]
        if np.any(np.all((np.maximum(pa, pb) >= q_lo[pj])
                         & (np.minimum(pa, pb) <= q_hi[pj]), axis=1)):
            return None
        zp = P[i0 + ii, 2] + ti * dp[i0 + ii, 2]
        zq = Q[jj, 2] + uj * dq[jj, 2]
        if np.any(np.abs(zp - zq) < 1e-12):
            return None
        sign = np.sign(den[ii, jj])
        over += int(sign[zp > zq].sum())
        under -= int(sign[zp < zq].sum())
    return over if over == under else None


def _force_degeneracy(P, Q, kind, rng):
    """Make P meet Q non-generically in the xy-plane (kind 1: a vertex on
    an edge, 2: collinear overlapping edges, 3: a crossing at equal
    heights) or everywhere (kind 4: small-integer vertices; kind 5: the
    same, P nudged by 1e-11, so that axis-parallel edges just miss)."""
    i, j = rng.integers(len(P)), rng.integers(len(Q))
    q0, q1 = Q[j], Q[(j + 1) % len(Q)]
    f = rng.uniform(0.1, 0.9)
    if kind == 1:
        P[i, :2] = q0[:2] + f * (q1[:2] - q0[:2])
    elif kind == 2:
        i1 = (i + 1) % len(P)
        P[i, :2] = q0[:2] + rng.uniform(-0.5, 0.5) * (q1[:2] - q0[:2])
        P[i1, :2] = q0[:2] + rng.uniform(0.5, 1.5) * (q1[:2] - q0[:2])
    elif kind == 3:
        x = q0 + f * (q1 - q0)
        v = rng.normal(size=3)
        P[i], P[(i + 1) % len(P)] = x + v, x - rng.uniform(0.2, 5.0) * v
    elif kind >= 4:
        P[:], Q[:] = rng.integers(-2, 3, size=P.shape), rng.integers(
            -2, 3, size=Q.shape)
        if kind == 5:
            P += 1e-11 * rng.integers(-1, 2, size=P.shape)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1),
       st.integers(0, 5))
# integer points with a parallel segment pair whose boxes meet, so the
# sweep's parallel-pair branch runs on every run, not only on some draws
@example(3, 3, 17, 4)
def test_signed_crossings_sweep_matches_all_pairs(n_p, n_q, seed, kind):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n_p, 3))
    Q = rng.normal(size=(n_q, 3)) + rng.normal(size=3)
    _force_degeneracy(P, Q, kind, rng)
    frames = [np.eye(3)] + [topology._generic_rotation(k)
                            for k in range(topology.CROSSING_ROTATIONS)]
    for R in frames:
        Pr, Qr = P @ R.T, Q @ R.T
        assert (topology._signed_crossings(Pr, Qr)
                == _signed_crossings_all_pairs(Pr, Qr))


def test_signed_crossings_tests_few_pairs(hopf, monkeypatch):
    _, A, MB = topology._diagram_samples(hopf, 2048)
    center = topology._candidate_centers(4, 8192)[0]
    P = topology._stereographic(A, center)
    Q = topology._stereographic(MB, center)
    pairs = []
    overlaps = topology._box_overlaps

    def counted(*args):
        ii, jj = overlaps(*args)
        pairs.append(len(ii))
        return ii, jj

    monkeypatch.setattr(topology, "_box_overlaps", counted)
    assert abs(_crossing_linking(P, Q)) == 1
    assert pairs and max(pairs) < 64


def _gauss_linking_reference(P, Q):
    """Reference for ``_gauss_linking_polylines``: every difference,
    norm and dot product is formed per segment pair."""
    p1 = np.roll(P, -1, axis=0)
    q1 = np.roll(Q, -1, axis=0)
    total = 0.0
    for i0 in range(0, len(P), 256):
        a0 = P[i0:i0 + 256][:, None, :]
        a1 = p1[i0:i0 + 256][:, None, :]
        a, b = a0 - Q[None], a0 - q1[None]
        c, dd = a1 - q1[None], a1 - Q[None]
        p = (a * np.cross(b, c)).sum(-1)
        na, nb, nc, nd = (np.linalg.norm(v, axis=-1) for v in (a, b, c, dd))
        ab, bc, ca = (a * b).sum(-1), (b * c).sum(-1), (c * a).sum(-1)
        ad, dc = (a * dd).sum(-1), (dd * c).sum(-1)
        d1 = na * nb * nc + ab * nc + bc * na + ca * nb
        d2 = na * nd * nc + ad * nc + dc * na + ca * nd
        total += (np.arctan2(p, d1) + np.arctan2(p, d2)).sum()
    return total / (2.0 * np.pi)


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 600), st.integers(5, 600), st.integers(0, 2**32 - 1))
@example(5, 600, 0)
@example(256, 257, 1)
@example(513, 255, 2)
def test_gauss_linking_planes_bit_identical(n_p, n_q, seed):
    rng = np.random.default_rng(seed)
    t_p = np.linspace(0.0, TWO_PI, n_p, endpoint=False)
    t_q = np.linspace(0.0, TWO_PI, n_q, endpoint=False)
    P = np.stack([np.cos(t_p), np.sin(t_p), 0 * t_p], axis=1)
    Q = np.stack([1 + np.cos(t_q), 0 * t_q, np.sin(t_q)], axis=1)
    P += 0.1 * rng.normal(size=P.shape)
    Q += 0.1 * rng.normal(size=Q.shape)
    assert _gauss_linking_polylines(P, Q) == _gauss_linking_reference(P, Q)


def test_gauss_linking_traced_peak_below_8mb():
    t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    P = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
    Q = np.stack([1 + np.cos(t), 0 * t, np.sin(t)], axis=1)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lk = _gauss_linking_polylines(P, Q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert abs(abs(lk) - 1.0) < 1e-6
    assert peak < 8e6


def _reference_probe(g, epsilon, trials, seed, nodes=4096, n_modes=8,
                     steps=6):
    """Reference for ``genericity_probe``: fresh mode evaluations, a
    Newton re-closure and a closed-form tangent for every perturbed
    curve."""
    from worldsheet.curves import CallableTangent, UnitSpeedCurve

    def modes(x, omega):
        e = np.exp(1j * omega * x)[..., None]
        return np.cumprod(np.repeat(e, n_modes, axis=-1), axis=-1)

    def norms(v):
        return np.sqrt(np.einsum("...i,...i->...", v, v))

    def bump(x, P, order):
        arg = 2.0 * np.pi * (x / P - 0.5)
        return ((1.0 + np.cos(arg)) / P if order == 0
                else -2.0 * np.pi * np.sin(arg) / P ** 2)

    def tangent(curve, amp, c):
        P, omega = curve.period, 2.0 * np.pi / curve.period
        damp = 1j * omega * np.arange(1, n_modes + 1)[:, None] * amp

        def fn(x, order):
            e = modes(x, omega)
            v = curve.rep(x) + (e @ amp).real + bump(x, P, 0)[..., None] * c
            r = norms(v)[..., None]
            if order == 0:
                return v / r
            dv = (curve.rep(x, 1) + (e @ damp).real
                  + bump(x, P, 1)[..., None] * c)
            return dv / r - v * (v * dv).sum(axis=-1, keepdims=True) / r ** 3

        return CallableTangent(fn, P, curve.dim, breakpoints=curve.rep.breakpoints)

    def perturb(curve, rng):
        P, dim = curve.period, curve.dim
        ms = np.arange(1, n_modes + 1)
        cc = rng.normal(size=(n_modes, dim)) / ms[:, None]
        ss = rng.normal(size=(n_modes, dim)) / ms[:, None]
        xs = np.linspace(0.0, P, nodes, endpoint=False)
        dx = np.full(nodes, P / nodes)
        omega = 2.0 * np.pi / P
        base = curve.tangent(xs)
        e = modes(xs, omega)
        amp = cc - 1j * ss
        dv = (e @ amp).real
        dvd = (e @ (1j * omega * ms[:, None] * amp)).real
        scale = epsilon / max(norms(dv).max(), norms(dvd).max())
        w = base + scale * dv
        b = bump(xs, P, 0)
        c = np.zeros(dim)
        for step in range(steps + 1):
            v = w + b[:, None] * c
            r = norms(v)
            u = v / r[:, None]
            defect = dx @ u - dx @ base
            if np.linalg.norm(defect) <= 1e-12 or step == steps:
                break
            q = dx * b / r
            c = c - np.linalg.solve(q.sum() * np.eye(dim)
                                    - (u * q[:, None]).T @ u, defect)
        new = UnitSpeedCurve(tangent(curve, scale * amp, c),
                             curve.basepoint.copy())
        return new, float(norms(u - base).max()), float(np.linalg.norm(defect))

    rng = np.random.default_rng(seed)
    counts, margins, achieved, defects = [0, 0], [], [], []
    for _ in range(trials):
        (ca, ea, da), (cb, eb, db) = perturb(g.a, rng), perturb(g.b, rng)
        pert = OrthogonalGauge(ca, cb)
        pert.validate(samples=1024)
        report = find_antipodal_pairs(pert, grid_n=256)
        counts[report.empty] += 1
        margins.append(report.min_grid_residual)
        achieved.append(max(ea, eb))
        defects.append(max(da, db))
    return counts, margins, achieved, defects


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("name", ["hopf", "meridian_loops"])
def test_probe_basis_matches_per_trial_fields(name, seed, request):
    g = request.getfixturevalue(name)
    rep = genericity_probe(g, 0.05, 3, seed=seed)
    (n_singular, n_smooth), margins, achieved, defects = _reference_probe(
        g, 0.05, 3, seed)
    assert rep.n_discarded == 0
    assert (rep.n_smooth, rep.n_singular) == (n_smooth, n_singular)
    assert rep.margins == margins
    assert rep.achieved == achieved
    assert rep.closure_defects == defects


_PROBED = {
    "hopf": catalog.hopf_gauge,
    "meridian_loops": catalog.meridian_loops_gauge,
    "planar": lambda: catalog.random_planar_gauge(seed=2),
    "wavy_pair": catalog.wavy_pair_gauge,
}


@functools.cache
def _probe_basis(name, which):
    return _ProbeBasis(getattr(_probed_gauge(name), which))


@functools.cache
def _probed_gauge(name):
    return _PROBED[name]()


def _check_closed_perturbation(basis, seed, epsilon):
    """The perturbed curve's drift() (prefix quadrature, not the nodal
    sum) is the original curve's to 1e-12 max(1, P), and its tangent is a
    unit, periodic field."""
    curve = basis.curve
    out = _perturb_curve(basis, np.random.default_rng(seed), epsilon)
    assert out is not None
    new, achieved, defect = out
    tol = 1e-12 * max(1.0, curve.period)
    assert defect <= tol
    assert np.linalg.norm(new.drift() - curve.drift()) <= tol
    new.validate()
    assert 0.0 < achieved <= 2.0 * epsilon


@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize("name", list(_PROBED))
def test_perturbation_closes(name, which):
    basis = _probe_basis(name, which)
    for seed in range(3):
        for epsilon in (1e-3, 0.05, 0.1):
            _check_closed_perturbation(basis, seed, epsilon)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(_PROBED)), st.sampled_from("ab"),
       st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_perturbation_closes_property(name, which, seed, epsilon):
    _check_closed_perturbation(_probe_basis(name, which), seed, epsilon)


def test_doubling_checks_see_twice_the_samples(hopf, meridian_loops,
                                               monkeypatch):
    # m = 4096 is the cap of diagram(), whose Gram matrix is O(m^2); the
    # diagrams are resampled there without it, and the doubling checks
    # must still see 8192 samples per curve
    def resampled(g):
        _, A, MB = topology._diagram_samples(g, 4096)
        return dataclasses.replace(diagram(g, m=512), curve_a=A,
                                   curve_mb=MB, m=4096)

    seen = []
    winding, crossing = topology._planar_winding, topology._crossing_linking
    monkeypatch.setattr(topology, "_planar_winding",
                        lambda loop, z: seen.append(len(loop))
                        or winding(loop, z))
    monkeypatch.setattr(topology, "_crossing_linking",
                        lambda P, Q: seen.append((len(P), len(Q)))
                        or crossing(P, Q))
    assert winding_number(resampled(meridian_loops)) == 0
    assert 8192 in seen
    seen.clear()
    assert abs(linking_number(resampled(hopf)).value) == 1
    assert (8192, 8192) in seen


def test_probe_hopf_all_smooth(hopf):
    rep = genericity_probe(hopf, 0.05, 10, seed=42)
    assert rep.n_smooth == 10
    assert rep.n_singular == 0
    assert min(rep.margins) > 1.0


def test_probe_planar_all_singular():
    g = catalog.random_planar_gauge(seed=1)
    rep = genericity_probe(g, 0.05, 10, seed=42)
    assert rep.n_singular == 10
    assert rep.n_smooth == 0


def test_probe_quantitative_openness(meridian_loops):
    # perturbations below half the diagram margin never flip the verdict
    d = diagram(meridian_loops, m=1024)
    eps = 0.25 * d.min_distance
    rep = genericity_probe(meridian_loops, eps, 8, seed=7)
    assert rep.n_smooth == 8


def test_probe_achieved_epsilon_close_to_requested(hopf):
    rep = genericity_probe(hopf, 0.05, 6, seed=3)
    assert all(a <= 0.06 for a in rep.achieved)
    assert max(rep.achieved) > 0.01


def test_probe_discards_unclosed_perturbations(hopf, monkeypatch):
    # with no Newton step the re-closure defect stays far above tolerance
    monkeypatch.setattr(topology, "PROBE_NEWTON_STEPS", 0)
    rep = genericity_probe(hopf, 0.05, 3, seed=1)
    assert (rep.n_discarded, rep.n_smooth, rep.n_singular) == (3, 0, 0)
    assert rep.margins == rep.achieved == rep.closure_defects == []


def test_probe_discards_invalid_perturbed_gauges(hopf, monkeypatch):
    def invalid(self, samples=None):
        raise PreconditionError("tangent not periodic")

    monkeypatch.setattr(OrthogonalGauge, "validate", invalid)
    rep = genericity_probe(hopf, 0.05, 3, seed=1)
    assert (rep.n_discarded, rep.n_smooth, rep.n_singular) == (3, 0, 0)
    assert rep.margins == rep.achieved == rep.closure_defects == []


def test_transversal_count_wavy_pair(wavy_pair):
    assert transversal_count(wavy_pair) == 2


def test_transversal_count_rejects_extended_components(circle):
    def tan3(x, order):
        c, s = np.cos(x), np.sin(x)
        d = (-s, c) if order == 0 else (-c, -s)
        return np.stack([*d, np.zeros_like(x)], axis=-1)

    from worldsheet.curves import CallableTangent, UnitSpeedCurve
    from worldsheet.gauge import OrthogonalGauge
    a = UnitSpeedCurve(CallableTangent(tan3, TWO_PI, 3), np.array([1., 0., 0.]))
    b = UnitSpeedCurve(CallableTangent(tan3, TWO_PI, 3), np.array([1., 0., 0.]))
    with pytest.raises(PreconditionError, match="non-transversal"):
        transversal_count(OrthogonalGauge(a, b))


def test_winding_reads_each_center_once(meridian_loops, monkeypatch):
    d = diagram(meridian_loops, m=512)
    q1, q2 = topology._projection_centers(d, 4096)
    rows = []
    winding = topology._planar_winding
    monkeypatch.setattr(topology, "_planar_winding",
                        lambda loop, z: rows.append(len(z)) or winding(loop, z))
    assert winding_number(d) == 0
    # primary center, its sample doubling, and the second center if any
    assert rows == [9] * (2 + (q2 is not None))


def test_projection_centers_single_clear_cap():
    # two interleaved spirals wind down from polar angle 0.4, so every
    # candidate 0.5 rad away from the best one lies too close to a curve
    u = np.linspace(0.0, 1.0, 2000)
    polar = 0.4 + (np.pi - 0.4) * u

    def spiral(phase):
        az = 20 * TWO_PI * u + phase
        return np.stack([np.sin(polar) * np.cos(az),
                         np.sin(polar) * np.sin(az), np.cos(polar)], axis=1)

    q1, q2 = topology._projection_centers(
        synthetic_diagram(spiral(0.0), spiral(np.pi)), 4096)
    assert q1[2] > np.cos(0.4)
    assert q2 is None


def test_planar_winding_rows_match_one_point_at_a_time():
    u = np.linspace(0.0, TWO_PI, 400, endpoint=False)
    loop = np.column_stack([np.cos(u), np.sin(2 * u)])   # a figure eight
    z = np.array([[0.5, 0.0], [-0.5, 0.0], [2.0, 0.0], [0.5, 0.3]])
    w, resid = topology._planar_winding(loop, z)
    for k in range(len(z)):
        wk, rk = topology._planar_winding(loop, z[k:k + 1])
        assert (w[k], resid[k]) == (wk[0], rk[0])
    assert w.tolist() == [1, -1, 0, 1]
    assert resid.max() < 1e-12


def test_transversal_count_reads_curvature_once(wavy_pair, monkeypatch):
    rep = find_antipodal_pairs(wavy_pair)
    monkeypatch.setattr(topology, "find_antipodal_pairs", lambda g: rep)
    calls = []
    for curve in (wavy_pair.a, wavy_pair.b):
        monkeypatch.setattr(curve, "tangent_derivative",
                            lambda x, _f=curve.tangent_derivative:
                            calls.append(len(x)) or _f(x))
    assert transversal_count(wavy_pair) == 2
    assert calls == [2, 2]


def test_transversal_count_dropped_component_raises(wavy_pair, monkeypatch):
    rep = find_antipodal_pairs(wavy_pair)
    dropped = dataclasses.replace(rep, components=rep.components[1:])
    monkeypatch.setattr(topology, "find_antipodal_pairs", lambda g: dropped)
    with pytest.raises(UnderResolvedError, match="signed intersection sum"):
        transversal_count(wavy_pair)


def _fourier_loop_couple(seed, count):
    """An n = 3 fourier_loop couple drawn from default_rng(seed): modes
    2 .. count + 1 with coefficients of size 0.3 / m^2, and a normal
    velocity of scale 0.5."""
    rng = np.random.default_rng(seed)
    modes = [[m] + [(rng.uniform(-1, 1, 3) * 0.3 / m ** 2).tolist()
                    for _ in range(2)]
             for m in range(2, count + 2)]
    return {"gamma0": {"kind": "fourier_loop", "n": 3, "modes": modes},
            "v0": {"kind": "normal_scale", "scale": 0.5, "wobble": 0.3,
                   "phase": float(rng.uniform(0.0, TWO_PI))}}


@st.composite
def _fourier_loop_couples(draw):
    return _fourier_loop_couple(draw(st.integers(0, 2**32 - 1)),
                                draw(st.integers(3, 8)))


@settings(max_examples=12, deadline=None)
@given(_fourier_loop_couples())
def test_transversal_count_signed_sum_vanishes(couple):
    g = serialize.gauge_from_spec({"couple": couple})
    try:
        count = transversal_count(g)       # raises if the sum is not 0
    except PreconditionError:
        assume(False)           # extended or non-transversal: no count
    assert count % 2 == 0


def _known_miss(seed, raises):
    return pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, raises=raises,
        reason="the default search misses or merges close zeros"))


# falsifying draws of the strategy among rng seeds 0-999 (count = 3 +
# seed mod 6): three miss one of two crossings in a grid basin, and at
# seed 77 two close crossings link into one extended component
@pytest.mark.parametrize("seed", [
    _known_miss(77, PreconditionError),
    _known_miss(177, UnderResolvedError),
    _known_miss(358, UnderResolvedError),
    _known_miss(460, UnderResolvedError)])
def test_transversal_count_known_misses(seed):
    g = serialize.gauge_from_spec(
        {"couple": _fourier_loop_couple(seed, 3 + seed % 6)})
    assert transversal_count(g) % 2 == 0


def test_transversal_count_perturbation_invariant(wavy_pair):
    from worldsheet.gauge import OrthogonalGauge
    from worldsheet.topology import _ProbeBasis, _perturb_curve
    rng = np.random.default_rng(11)
    for _ in range(3):
        pa = _perturb_curve(_ProbeBasis(wavy_pair.a), rng, 1e-3)
        pb = _perturb_curve(_ProbeBasis(wavy_pair.b), rng, 1e-3)
        assert pa is not None and pb is not None
        pert = OrthogonalGauge(pa[0], pb[0])
        assert transversal_count(pert) == 2


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(0)
@example(5)
def test_nearest_distance_matches_kdtree(seed):
    # points on the sphere or off it, queries drawn at random, on points
    # and halfway between two points (ties); 8192 points make blocks of 64
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    n = int(rng.choice([7, 300, 8192]))
    points = rng.normal(size=(n, dim))
    if seed % 2:
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    i, j = rng.integers(n, size=(2, 100))
    queries = np.vstack([rng.normal(size=(300, dim)), points[i],
                         0.5 * (points[i] + points[j])])
    assert np.array_equal(topology._nearest_distance(points, queries),
                          cKDTree(points).query(queries)[0])


@pytest.mark.parametrize("name", ["hopf", "meridian_loops"])
def test_projection_clearances_match_kdtree(name, request):
    from scipy.spatial import cKDTree
    d = diagram(request.getfixturevalue(name), m=1024)
    points = np.vstack([d.curve_a, d.curve_mb])
    cands = topology._candidate_centers(d.dim, 8192 if d.dim == 4 else 4096)
    assert np.array_equal(topology._nearest_distance(points, cands),
                          cKDTree(points).query(cands)[0])
