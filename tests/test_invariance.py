"""Invariance properties of detection and of the sphere-diagram invariants.

A rotation Q of R^n applied to both tangents rotates the sphere diagram,
so it keeps the linking and winding numbers and the detection margin; an
improper Q mirrors the diagram and negates the Hopf linking.  A common
parameter shift x0 moves every antipodal pair (s, sigma) to
(s - x0, sigma - x0), and swapping a and b moves it to (sigma, s), so
it negates every slice time t = (s - sigma)/2 modulo E0.  The
``gauge_to_spec`` -> ``gauge_from_spec`` round trip resamples both
tangents into ``SphereSamplesTangent`` splines, keeps every verdict and
refines each antipodal pair as tightly as the analytic tangents do.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from worldsheet import catalog, serialize
from worldsheet.curves import CallableTangent, UnitSpeedCurve
from worldsheet.gauge import OrthogonalGauge
from worldsheet.singular import find_antipodal_pairs
from worldsheet.topology import (diagram, linking_number, transversal_count,
                                 winding_number)

SEEDS = st.integers(0, 2 ** 32 - 1)
FRACTIONS = st.floats(0.0, 1.0, exclude_max=True)


def _orthogonal(seed, n, proper):
    """A random orthogonal n x n matrix of determinant +1 (proper) or -1."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) > 0) != proper:
        q[:, 0] = -q[:, 0]
    return q


def _rotated(g, q):
    """The gauge with both tangents (and basepoints) mapped by q."""
    def curve(c):
        rep = c.rep
        new = CallableTangent(lambda x, order: rep(x, order) @ q.T,
                              rep.period, rep.dim, breakpoints=rep.breakpoints)
        return UnitSpeedCurve(new, q @ c.basepoint)
    return OrthogonalGauge(curve(g.a), curve(g.b))


def _shifted(g, x0):
    return OrthogonalGauge(g.a.shifted(x0), g.b.shifted(x0))


def _pairs(g):
    return np.array([(p.s, p.sigma) for p in find_antipodal_pairs(g).pairs])


def _same_pairs(got, want, period):
    """Whether two pair sets agree up to order, to 1e-9 on the torus."""
    if got.shape != want.shape:
        return False
    d = np.abs(got[:, None, :] - want[None, :, :]) % period
    d = np.minimum(d, period - d).max(axis=2)
    return bool(np.all(d.min(axis=1) <= 1e-9) and np.all(d.min(axis=0) <= 1e-9))


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_rotation_keeps_hopf_linking_and_margin(hopf, seed):
    h = _rotated(hopf, _orthogonal(seed, 4, proper=True))
    assert (linking_number(diagram(h, m=512)).value
            == linking_number(diagram(hopf, m=512)).value)
    assert abs(find_antipodal_pairs(h).min_grid_residual
               - find_antipodal_pairs(hopf).min_grid_residual) <= 1e-12


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_improper_rotation_negates_hopf_linking(hopf, seed):
    h = _rotated(hopf, _orthogonal(seed, 4, proper=False))
    lk = linking_number(diagram(hopf, m=512)).value
    assert lk != 0
    assert linking_number(diagram(h, m=512)).value == -lk


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_rotation_keeps_meridian_loops_winding(meridian_loops, seed):
    h = _rotated(meridian_loops, _orthogonal(seed, 3, proper=True))
    assert winding_number(diagram(h)) == winding_number(diagram(meridian_loops))


@settings(max_examples=4, deadline=None)
@given(frac=FRACTIONS)
def test_shift_moves_wavy_pair_components(wavy_pair, frac):
    E0 = wavy_pair.E0
    x0 = frac * E0
    h = _shifted(wavy_pair, x0)
    assert transversal_count(h) == 2
    assert _same_pairs(_pairs(h), _pairs(wavy_pair) - x0, E0)


@settings(max_examples=4, deadline=None)
@given(frac=st.floats(0.05, 0.45))
def test_swap_transposes_pairs(wavy_pair, frac):
    # wavy_pair's own pairs are symmetric, (s, sigma) and (sigma, s);
    # advancing a alone by x0 in (0, pi) breaks that symmetry
    h = OrthogonalGauge(wavy_pair.a.shifted(frac * wavy_pair.E0), wavy_pair.b)
    pairs = _pairs(h)
    assert len(pairs) == 2
    assert not _same_pairs(pairs, pairs[:, ::-1], h.E0)
    assert _same_pairs(_pairs(OrthogonalGauge(h.b, h.a)), pairs[:, ::-1],
                       h.E0)


def _slice_times(g):
    return np.array(sorted(t for comp in find_antipodal_pairs(g).components
                           for t in comp.slice_times))


@pytest.mark.parametrize("name,want", [
    ("circle", (0.5 * np.pi, 1.5 * np.pi)),
    ("degenerate_slice", (0.75 * np.pi, 1.75 * np.pi))])
def test_swap_negates_slice_times(name, want):
    g = getattr(catalog, f"{name}_gauge")()
    times = _slice_times(g)
    swapped = _slice_times(OrthogonalGauge(g.b, g.a))
    assert np.allclose(swapped, want, rtol=0.0, atol=1e-12)
    assert np.allclose(np.sort(np.mod(-times, g.E0)), swapped,
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name,invariant", [
    ("hopf", lambda g: linking_number(diagram(g, m=512)).value),
    ("meridian_loops", lambda g: winding_number(diagram(g)))])
def test_spec_round_trip_keeps_verdicts(request, name, invariant):
    g = request.getfixturevalue(name)
    h = serialize.gauge_from_spec(serialize.gauge_to_spec(g))
    assert invariant(h) == invariant(g) == {"hopf": 1,
                                            "meridian_loops": 0}[name]
    want, got = find_antipodal_pairs(g), find_antipodal_pairs(h)
    assert want.empty and got.empty
    assert abs(got.min_grid_residual - want.min_grid_residual) <= 1e-6


@pytest.mark.parametrize("name", ["random_planar_0", "wavy_pair", "nonconvex",
                                  "cantor_k1"])
def test_spec_round_trip_refines_pairs_tightly(request, name):
    # one pair tolerance serves sampled and analytic tangents alike: the
    # round trip's renormalized splines refine every pair far below it
    g = {"random_planar_0": lambda: catalog.random_planar_gauge(0),
         "wavy_pair": lambda: request.getfixturevalue("wavy_pair"),
         "nonconvex": catalog.nonconvex_gauge,
         "cantor_k1": lambda: request.getfixturevalue("cantor_k1")[0]}[name]()
    h = serialize.gauge_from_spec(serialize.gauge_to_spec(g))
    # the known grid-coarseness warning of the uncertified search
    coarse = (pytest.warns(RuntimeWarning, match="coarse for tangent turning")
              if name == "cantor_k1" else contextlib.nullcontext())
    with coarse:
        pairs = find_antipodal_pairs(h).pairs
    assert pairs
    assert max(p.residual for p in pairs) <= 1e-12
