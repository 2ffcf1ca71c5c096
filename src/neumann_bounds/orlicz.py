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

import math
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

_LUXEMBURG_RTOL = 1e-12  # relative width at which the norm's root search stops
# each trial lies at least this far inside the bracket, in log lambda
_LUXEMBURG_MARGIN = 0.4 * _LUXEMBURG_RTOL


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


def _same_measure(f, g):
    if f.measure_id != g.measure_id or f.values.shape != g.values.shape:
        raise DomainError(
            f"functions live on different measures: {f.measure_id} vs {g.measure_id}"
        )


def _modular(young, absvals, weights, lam):
    """Integral of Y(|f|/lambda) against the measure (may be inf).

    The weights multiply ``young.eval``'s own output in place, so a
    modular holds two node-sized arrays: |f|/lambda and Y of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.asarray(young.eval(absvals / lam))
        m *= weights
        out = np.sum(m)
    return np.inf if np.isnan(out) else out


def luxemburg_norm(f, young):
    """inf{lambda > 0 : integral of Y(|f|/lambda) <= 1}.

    Returns 0 for the zero function.  The root of the log modular in
    log lambda is bracketed from the harmonic estimates and found by
    regula falsi with the Illinois rule, bisecting where the log modular
    is not finite.  Each trial lies at least a relative 0.4e-12 inside the
    bracket, so a trial that lands on the root from one side is followed
    by one on its other side.  The search stops once the bracket is within
    a relative 1e-12, or after 200 trials, and returns its upper end, where
    the modular is <= 1: the result never lies below the norm, and for
    continuous strictly increasing Y its modular lies in [1 - 1e-8, 1].
    Each modular evaluates Y at every node, beside |f| in two node-sized
    arrays (see ``_modular``).
    """
    absvals = np.abs(f.values)
    fmax = absvals.max() if len(absvals) else 0.0
    if fmax == 0.0:
        return 0.0
    w = f.weights

    def log_modular(lam):
        m = _modular(young, absvals, w, lam)
        return math.log(m) if m > 0.0 else -math.inf

    # harmonic starting bracket: at hi the modular is <= 1 by construction,
    # at lo the heaviest node alone already pushes it to >= 1
    hi = fmax / float(young.inverse(1.0 / f.total_measure))
    lo = fmax / float(young.inverse(1.0 / w.min()))
    for _ in range(2048):
        g_hi = log_modular(hi)
        if g_hi <= 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("luxemburg norm: no upper bracket")
    for _ in range(2048):
        if lo < hi:
            g_lo = log_modular(lo)
            if g_lo > 0.0:
                break
        lo *= 0.5
        if lo < 1e-300:
            # tiny support and flat Y: the infimum is effectively hi
            return hi
    a, b = math.log(lo), math.log(hi)
    kept = 0  # +1 when lo moved last, -1 when hi did
    for _ in range(200):
        if hi - lo <= _LUXEMBURG_RTOL * hi:
            break
        c = 0.5 * (a + b)
        if math.isfinite(g_lo) and math.isfinite(g_hi):
            c = b - g_hi * (b - a) / (g_hi - g_lo)
        c = min(max(c, a + _LUXEMBURG_MARGIN), b - _LUXEMBURG_MARGIN)
        lam = math.exp(c)
        g = log_modular(lam)
        if g > 0.0:
            lo, a, g_lo = lam, c, g
            g_hi = 0.5 * g_hi if kept == 1 else g_hi
            kept = 1
        else:
            hi, b, g_hi = lam, c, g
            g_lo = 0.5 * g_lo if kept == -1 else g_lo
            kept = -1
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
