import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from worldsheet import catalog, topology
from worldsheet.errors import PreconditionError
from worldsheet.topology import (_crossing_linking, _gauss_linking_polylines,
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
    def tan3(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-np.sin(x), np.cos(x), np.zeros_like(x)], axis=-1)

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


def test_transversal_count_wavy_pair(wavy_pair):
    assert transversal_count(wavy_pair) == 2


def test_transversal_count_rejects_extended_components(circle):
    def tan3(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-np.sin(x), np.cos(x), np.zeros_like(x)], axis=-1)

    from worldsheet.curves import CallableTangent, UnitSpeedCurve
    from worldsheet.gauge import OrthogonalGauge
    a = UnitSpeedCurve(CallableTangent(tan3, TWO_PI, 3), np.array([1., 0., 0.]))
    b = UnitSpeedCurve(CallableTangent(tan3, TWO_PI, 3), np.array([1., 0., 0.]))
    with pytest.raises(PreconditionError, match="non-transversal"):
        transversal_count(OrthogonalGauge(a, b))


def test_transversal_count_perturbation_invariant(wavy_pair):
    from worldsheet.gauge import OrthogonalGauge
    from worldsheet.topology import _perturb_curve
    rng = np.random.default_rng(11)
    for _ in range(3):
        pa = _perturb_curve(wavy_pair.a, rng, 1e-3)
        pb = _perturb_curve(wavy_pair.b, rng, 1e-3)
        assert pa is not None and pb is not None
        pert = OrthogonalGauge(pa[0], pb[0])
        assert transversal_count(pert) == 2
