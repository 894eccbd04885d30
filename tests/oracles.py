"""Independent reference computations for the tests.

``adaptive_simpson`` shares no code with the package's Gauss-Legendre
quadrature, so tests compare positions, prefix integrals and gauge
periods against it.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(Exception):
    """Adaptive Simpson failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48):
    """Integrate a vectorized function over [a, b] by adaptive Simpson.

    ``f`` maps an array of abscissae (m,) to values of shape (m,) or
    (m, d).  Subdivision is carried out in batches so the function is
    always called on arrays.  Raises :class:`QuadratureError` with the
    achieved residual if the tolerance cannot be met.
    """
    a = float(a)
    b = float(b)
    if a == b:
        probe = np.asarray(f(np.array([a])))
        return np.zeros(probe.shape[1:])

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo)[..., None] / 6.0 * (flo + 4.0 * fmid + fhi)

    lo = np.array([a])
    hi = np.array([b])
    flo = np.atleast_2d(np.asarray(f(lo), dtype=float).reshape(1, -1))
    fhi = np.atleast_2d(np.asarray(f(hi), dtype=float).reshape(1, -1))
    mid = 0.5 * (lo + hi)
    fmid = np.asarray(f(mid), dtype=float).reshape(1, -1)

    total = np.zeros(flo.shape[1])
    worst = 0.0
    for depth in range(max_depth):
        coarse = simpson(lo, hi, flo, fmid, fhi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = np.asarray(f(lmid), dtype=float).reshape(len(lmid), -1)
        frmid = np.asarray(f(rmid), dtype=float).reshape(len(rmid), -1)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        fine = left + right
        err = np.abs(fine - coarse).max(axis=1) / 15.0
        # local acceptance, proportional to interval share of [a, b]
        budget = tol * np.abs(hi - lo) / abs(b - a)
        done = err <= np.maximum(budget, 1e-300)
        if depth == max_depth - 1:
            worst = float(err[~done].sum()) if (~done).any() else 0.0
            total += (fine[done].sum(axis=0) if done.any() else 0.0)
            if (~done).any():
                total += fine[~done].sum(axis=0)
                raise QuadratureError(
                    f"adaptive Simpson did not converge; residual {worst:.3e}",
                    achieved=worst,
                )
            break
        total += fine[done].sum(axis=0) if done.any() else 0.0
        keep = ~done
        if not keep.any():
            break
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flmid[keep], frmid[keep]])
        mid = 0.5 * (lo + hi)
    result = total
    if result.shape == (1,):
        return result[0]
    return result
