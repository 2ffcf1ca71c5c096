"""Luxemburg and Orlicz norms of functions sampled on a discrete measure.

All norms live on weighted quadrature measures: a SampledFunction is an
array of values plus the weights of the measure it was sampled on.  Image-
domain integrals enter by pulling the integrand back to the disk and folding
the Jacobian into the weights, so nothing here ever meshes the image domain.

The Orlicz norm is never computed from its dual-sup definition; the
guaranteed two-sided bracket [luxemburg, 2 * luxemburg] is used wherever it
is needed, which is all the proofs require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SampledFunction",
    "luxemburg_norm",
    "orlicz_norm_bracket",
    "holder_pairing",
    "weighted_median",
]

_LUXEMBURG_RTOL = 1e-12  # relative width at which the norm bisection stops


@dataclass(frozen=True)
class SampledFunction:
    """Values aligned with the nodes of a discrete measure."""

    values: np.ndarray
    weights: np.ndarray
    measure_id: str = "anonymous"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise DomainError(
                f"values/weights must be matching 1-D arrays, got "
                f"{values.shape} vs {weights.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("sampled values must be finite")
        if not np.all(weights > 0):
            raise DomainError("measure weights must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def total_measure(self):
        return float(self.weights.sum())

    def scaled(self, c):
        return SampledFunction(c * self.values, self.weights, self.measure_id)


def _same_measure(f, g):
    if f.measure_id != g.measure_id or f.values.shape != g.values.shape:
        raise DomainError(
            f"functions live on different measures: {f.measure_id} vs {g.measure_id}"
        )


def _modular(young, distinct, back, weights, lam):
    """Integral of Y(|f|/lambda) against the measure (may be inf).

    |f| = distinct[back]: Y is evaluated once per distinct value and the
    weighted terms are summed in node order, as if Y ran on every node.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sum(weights * np.asarray(young.eval(distinct / lam))[back])
    return np.inf if np.isnan(out) else out


def luxemburg_norm(f, young):
    """inf{lambda > 0 : integral of Y(|f|/lambda) <= 1} by bisection.

    Returns 0 for the zero function.  For continuous strictly increasing Y
    the defining integral at the returned lambda lies in [1 - 1e-8, 1].
    Each modular evaluates Y once per distinct value of |f|; the sum keeps
    node order, so the result is that of evaluating Y at every node.
    """
    absvals = np.abs(f.values)
    fmax = absvals.max() if len(absvals) else 0.0
    if fmax == 0.0:
        return 0.0
    w = f.weights
    distinct, back = np.unique(absvals, return_inverse=True)
    # harmonic starting bracket: at hi the modular is <= 1 by construction,
    # at lo the heaviest node alone already pushes it to >= 1
    hi = fmax / float(young.inverse(1.0 / f.total_measure))
    lo = fmax / float(young.inverse(1.0 / w.min()))
    for _ in range(2048):
        if _modular(young, distinct, back, w, hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("luxemburg bisection: no upper bracket")
    for _ in range(2048):
        if lo < hi and _modular(young, distinct, back, w, lo) > 1.0:
            break
        lo *= 0.5
        if lo < 1e-300:
            # tiny support and flat Y: the infimum is effectively hi
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _modular(young, distinct, back, w, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _LUXEMBURG_RTOL * hi:
            break
    return hi


def orlicz_norm_bracket(f, young):
    """Guaranteed bracket (luxemburg, 2*luxemburg) for the Orlicz norm."""
    lux = luxemburg_norm(f, young)
    return lux, 2.0 * lux


def holder_pairing(f, g, young):
    """(lhs, rhs) of the Orlicz Holder inequality with factor 2.

    lhs is the integral of |f g|; rhs is 2 ||f||_Y ||g||_Y* with the
    complementary function Y*.  The contract lhs <= rhs (up to 1e-6
    relative) holds for any pair on a common measure.
    """
    _same_measure(f, g)
    lhs = float(np.sum(f.weights * np.abs(f.values * g.values)))
    conj = young.complementary()
    rhs = 2.0 * luxemburg_norm(f, young) * luxemburg_norm(g, conj)
    return lhs, rhs


def weighted_median(f):
    """Smallest sampled value t with measure{f > t} <= total/2."""
    order = np.argsort(f.values, kind="stable")
    values = f.values[order]
    weights = f.weights[order]
    total = weights.sum()
    # measure of {f > values[i]} counting ties correctly
    above = total - np.cumsum(weights)
    distinct = np.r_[values[1:] != values[:-1], True]
    ok = distinct & (above <= total / 2.0 + 1e-15 * total)
    return float(values[np.argmax(ok)])
