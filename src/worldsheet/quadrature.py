"""Quadrature kernels used throughout the package.

One rule serves every integral: panelized 8-point Gauss-Legendre,
either as a cached prefix table with dense output (curve positions, and
``normalize``, whose total is the gauge period E0) or as batched panel
sums for one-off moments.  The tests check it against an independent
adaptive Simpson oracle kept in ``tests/oracles.py``.

Dense output follows chebfun (Battles & Trefethen 2004): the integrand
is sampled once, at the 8 Gauss-Legendre nodes of every panel, and a
query integrates the panel's degree-7 interpolant instead of calling it.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as leg

# 8-point Gauss-Legendre rule on [-1, 1]; node values -> Legendre
# coefficients of the degree-7 interpolant (exact: the rule has degree 15),
# and -> those of its running mean q(t) = int_{-1}^t p / (1 + t)
_GL_NODES, _GL_WEIGHTS = leg.leggauss(8)
_TO_LEG = leg.legvander(_GL_NODES, 7).T * _GL_WEIGHTS * (np.arange(8) + 0.5)[:, None]
_TO_MEAN = _TO_LEG @ (leg.legvander(_GL_NODES, 8) @ leg.legint(_TO_LEG, lbnd=-1)
                      / (1.0 + _GL_NODES)[:, None])
# the same rule on [0, 1]
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def sorted_distinct(x):
    """The sorted distinct values of the 1-D array x by one sort and a mask
    of the first of each run: a plain ``np.unique(x)`` for x without NaN or
    -0.0, which unlike ``np.unique`` does not import ``numpy.ma``."""
    x = np.sort(x)
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return x[first]


def _gl_values(f, starts, ends):
    """Values of ``f`` at the Gauss-Legendre nodes of each interval, (m, 8, d)."""
    starts = np.asarray(starts, dtype=float)
    width = np.asarray(ends, dtype=float) - starts
    nodes = starts[:, None] + width[:, None] * _GL_NODES[None, :]
    return np.asarray(f(nodes.ravel()), dtype=float).reshape(len(starts), 8, -1)


def _panel_gl(f, starts, ends):
    """Gauss-Legendre integrals of ``f`` over a batch of intervals.

    starts/ends: (m,).  Returns (m, d).
    """
    width = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    vals = _gl_values(f, starts, ends)
    return (vals * _GL_WEIGHTS[None, :, None]).sum(axis=1) * width[:, None]


class PrefixIntegrator:
    """Cached prefix integrals of a periodic vector field over one period.

    Panels are a uniform grid refined by any supplied breakpoints, so
    piecewise-smooth integrands are integrated panel-exactly, and then
    halved (up to 16 rounds) while their interpolant has a large Legendre
    tail.  ``f`` is called only here.  Queries are vectorized:
    ``integral(x)`` returns the integral of ``f`` from 0 to each entry of
    ``x``, with whole periods handled through the per-period total.
    """

    def __init__(self, f, period, n_panels=2048, breakpoints=()):
        self.period = float(period)
        edges = np.linspace(0.0, self.period, int(n_panels) + 1)
        extra = np.mod(np.asarray(breakpoints, dtype=float), self.period)
        edges = sorted_distinct(np.concatenate([edges, extra]))
        # drop panels of negligible width produced by near-duplicates
        edges = edges[np.concatenate([[True], np.diff(edges) > 1e-13 * self.period])]
        edges[-1] = self.period
        vals = _gl_values(f, edges[:-1], edges[1:])
        # queries see the interpolant, which unlike the rule is exact only to degree 7
        for _ in range(16):
            tail = np.abs(np.einsum("jk,pkd->pjd", _TO_LEG[6:], vals)).sum(axis=1)
            at = np.flatnonzero(np.diff(edges) * tail.max(axis=1) > 1e-14 * self.period)
            if not len(at):
                break
            edges = np.insert(edges, at + 1, 0.5 * (edges[at] + edges[at + 1]))
            halves = np.concatenate([at, at + 1]) + np.tile(np.arange(len(at)), 2)
            vals = np.insert(vals, at + 1, 0.0, axis=0)
            vals[halves] = _gl_values(f, edges[halves], edges[halves + 1])
        self.edges = edges
        self.widths = np.diff(edges)
        panel_ints = (vals * _GL_WEIGHTS[None, :, None]).sum(axis=1) * self.widths[:, None]
        self.dim = panel_ints.shape[1]
        self.prefix = np.vstack([np.zeros(self.dim), np.cumsum(panel_ints, axis=0)])
        self.per_period = self.prefix[-1].copy()
        # (8, panels, d) Legendre coefficients of each panel's running mean
        self._mean = np.einsum("jk,pkd->jpd", _TO_MEAN, vals)

    def integral(self, x):
        """Integral of f from 0 to x (x array-like, any real values): the
        prefix to x's panel + (x - panel start) * the interpolant's mean."""
        x = np.asarray(x, dtype=float)
        shape = x.shape
        x = np.ravel(x)
        # the whole periods floor(x / period) are recomputed at the end, in
        # t's buffer, rather than kept through the recurrence
        y = x - np.floor(x / self.period) * self.period
        # guard against y == period from rounding
        y = np.clip(y, 0.0, self.period)
        idx = np.searchsorted(self.edges, y, side="right") - 1
        idx = np.clip(idx, 0, len(self.edges) - 2)
        y -= self.edges[idx]
        t = (2.0 * y / self.widths[idx] - 1.0)[:, None]
        # b_j = c_j + (2j+1)/(j+1) t b_{j+1} - (j+1)/(j+2) b_{j+2}; sum = b_0
        # (idx is in range, and take with mode "clip" writes out unbuffered)
        b1, b2, tmp = (np.zeros((len(y), self.dim)) for _ in range(3))
        for j in range(7, -1, -1):
            b2 *= -(j + 1) / (j + 2)
            b2 += np.take(self._mean[j], idx, axis=0, out=tmp, mode="clip")
            np.multiply(b1, t * ((2 * j + 1) / (j + 1)), out=tmp)
            b2 += tmp
            b1, b2 = b2, b1
        # at a panel start this is exactly prefix[idx]
        b1 *= y[:, None]
        b1 += np.take(self.prefix, idx, axis=0, out=tmp, mode="clip")
        wraps = np.divide(x[:, None], self.period, out=t)
        np.floor(wraps, out=wraps)
        b1 += np.multiply(wraps, self.per_period, out=tmp)
        return b1.reshape(shape + (self.dim,))
