import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import QuadratureError, adaptive_simpson
from worldsheet.quadrature import PrefixIntegrator


def test_adaptive_simpson_polynomial_exact():
    val = adaptive_simpson(lambda x: 3 * x ** 2, 0.0, 2.0, tol=1e-12)
    assert abs(val - 8.0) < 1e-12


def test_adaptive_simpson_trig():
    val = adaptive_simpson(np.sin, 0.0, np.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-11


def test_adaptive_simpson_vector_valued():
    val = adaptive_simpson(lambda x: np.stack([np.cos(x), np.sin(x)], axis=-1),
                           0.0, np.pi / 2, tol=1e-12)
    assert np.allclose(val, [1.0, 1.0], atol=1e-11)


def test_adaptive_simpson_reports_failure():
    # a discontinuity the subdivision cannot settle at extreme tolerance
    f = lambda x: np.where(np.sin(1.0 / np.maximum(np.abs(x - 0.5), 1e-300)) > 0,
                           1.0, 0.0)
    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(f, 0.0, 1.0, tol=1e-14, max_depth=12)
    assert info.value.achieved is not None


def test_prefix_integrator_matches_simpson_oracle():
    f = lambda x: np.stack([np.cos(3 * x), np.sin(x) ** 2 + 0.5], axis=-1)
    pre = PrefixIntegrator(f, 2 * np.pi, n_panels=256)
    for x in (0.3, 1.7, 4.0, 6.2):
        oracle = adaptive_simpson(f, 0.0, x, tol=1e-12)
        assert np.abs(pre.integral([x])[0] - oracle).max() < 1e-11


def test_prefix_integrator_periodic_wrap():
    f = lambda x: np.stack([np.cos(x), np.sin(x)], axis=-1)
    pre = PrefixIntegrator(f, 2 * np.pi, n_panels=128)
    x = np.array([0.7])
    a = pre.integral(x + 2 * np.pi)
    b = pre.integral(x) + pre.per_period
    assert np.abs(a - b).max() < 1e-13
    assert np.abs(pre.per_period).max() < 1e-13


def test_prefix_integrator_breakpoints_exact_on_pieces():
    # piecewise-quadratic integrand integrates panel-exactly when the
    # breakpoint is honored
    brk = 0.37

    def f(x):
        x = np.asarray(x)
        return np.where(x < brk, x ** 2, (x - 1.0) ** 2)[..., None]

    pre = PrefixIntegrator(f, 1.0, n_panels=8, breakpoints=[brk])
    exact = brk ** 3 / 3 + ((1 - 1.0) ** 3 - (brk - 1.0) ** 3) / 3
    assert abs(pre.per_period[0] - exact) < 1e-15


def test_prefix_integrator_breakpoint_just_below_period():
    # a breakpoint within the width filter of the period replaces no panel
    # edge by a sliver: the last edge stays the period itself
    P = 2.0 * np.pi
    pre = PrefixIntegrator(lambda x: np.cos(x)[..., None], P, n_panels=8,
                           breakpoints=[P * (1.0 - 1e-15)])
    assert pre.edges[-1] == P
    assert np.all(pre.widths > 1e-13 * P)


@st.composite
def piecewise_polynomials(draw):
    """Period, sorted breakpoints and per-piece local coefficients (degree <= 7)."""
    period = draw(st.floats(0.5, 8.0))
    cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=6, unique=True))
    starts = np.concatenate([[0.0], np.sort(cuts) * period])
    degree = draw(st.integers(0, 7))
    coefs = draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=2 * (degree + 1), max_size=2 * (degree + 1)),
        min_size=len(starts), max_size=len(starts)))
    return period, starts, np.array(coefs).reshape(len(starts), degree + 1, 2)


def _piece_of(starts, x):
    return np.searchsorted(starts, x, side="right") - 1


def _piecewise(starts, coefs):
    def f(x):
        j = _piece_of(starts, x)
        u = (x - starts[j])[:, None]
        return sum(coefs[j, k] * u ** k for k in range(coefs.shape[1]))
    return f


def _exact_integral(period, starts, coefs, x):
    """Integral from 0 of the piecewise polynomial, by its exact antiderivative."""
    powers = np.arange(1, coefs.shape[1] + 1)[:, None]
    ends = np.append(starts[1:], period)

    def anti(j, u):
        return (coefs[j] / powers * u[:, None, None] ** powers).sum(axis=1)

    pieces = anti(np.arange(len(starts)), ends - starts)
    prefix = np.vstack([np.zeros(2), np.cumsum(pieces, axis=0)])
    wraps = np.floor(x / period)
    y = x - wraps * period
    j = _piece_of(starts, y)
    return prefix[j] + anti(j, y - starts[j]) + wraps[:, None] * prefix[-1]


@settings(max_examples=60, deadline=None)
@given(piecewise_polynomials(), st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=24),
       st.integers(1, 64))
def test_prefix_integrator_exact_on_piecewise_polynomials(poly, fracs, n_panels):
    period, starts, coefs = poly
    pre = PrefixIntegrator(_piecewise(starts, coefs), period, n_panels=n_panels,
                           breakpoints=starts)
    x = np.array(fracs) * period
    # relative to the integral of |f| over the queried range
    widths = np.diff(np.append(starts, period))[:, None, None]
    bound = (np.abs(coefs) * widths ** np.arange(coefs.shape[1])[None, :, None]).sum(axis=1).max()
    scale = bound * (period + np.abs(x).max())
    got = pre.integral(x)
    assert np.abs(got - _exact_integral(period, starts, coefs, x)).max() <= 1e-13 * scale
    # dense output hits the full-panel table exactly at every edge
    assert np.array_equal(pre.integral(pre.edges), pre.prefix)
    # whole periods come from the per-period total
    for k in (-3, 1, 5):
        shifted = pre.integral(x + k * period) - k * pre.per_period
        assert np.abs(shifted - got).max() <= 1e-13 * scale
