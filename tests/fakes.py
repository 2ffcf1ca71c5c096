"""Fakes that exercise the generic code paths of the package.

``TableYoung`` is a Young function with no closed form of its own, so it
runs the base-class inverse bisection and numeric conjugate.
``CallableDensity`` wraps any function of the image point, including ones
the density gate must reject.  ``csr_from_dense`` builds the oracle's
sparse matrix from a dense one, for matrices no mesh produces.
"""

import numpy as np

from neumann_bounds.cholesky import CSRMatrix, Pattern
from neumann_bounds.densities import DensityField
from neumann_bounds.errors import ParameterError
from neumann_bounds.youngfn import YoungFunction


class TableYoung(YoungFunction):
    """Young function given by a sampled table, linearly interpolated.

    The table must start at (0, 0), be nondecreasing and discretely convex;
    evaluation beyond the last sample extrapolates the final slope.
    """

    def __init__(self, u_table, m_table):
        u = np.asarray(u_table, dtype=float)
        m = np.asarray(m_table, dtype=float)
        if u.ndim != 1 or u.shape != m.shape or len(u) < 3:
            raise ParameterError("table needs matching 1-D arrays, >= 3 points")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(m))):
            raise ParameterError("table entries must be finite")
        if u[0] != 0.0 or m[0] != 0.0:
            raise ParameterError("table must start at (0, 0)")
        if np.any(np.diff(u) <= 0) or np.any(np.diff(m) < 0):
            raise ParameterError("table must be strictly increasing in u")
        slopes = np.diff(m) / np.diff(u)
        if np.any(np.diff(slopes) < -1e-10 * max(1.0, m[-1])):
            raise ParameterError("table is not convex")
        self._u = u
        self._m = m
        self._final_slope = slopes[-1]
        self.name = f"table({len(u)} pts)"

    def _eval(self, u):
        out = np.interp(u, self._u, self._m)
        beyond = u > self._u[-1]
        return np.where(beyond, self._m[-1] + self._final_slope * (u - self._u[-1]), out)


class CallableDensity(DensityField):
    """Wrap an arbitrary positive function of the image point."""

    def __init__(self, fn, name="callable"):
        self.fn = fn
        self.name = name

    def on_domain(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=complex)), dtype=float)


def csr_from_dense(dense):
    """The oracle's CSR matrix of the nonzero entries of a square array."""
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(len(dense) + 1))
    return CSRMatrix(dense[rows, cols], Pattern(indptr, cols))
