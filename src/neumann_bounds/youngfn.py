"""Young functions and their numerics.

A Young function is a non-decreasing convex function M on [0, inf) with
M(0) = 0 and M(u) -> inf.  This module provides the concrete families used
by the eigenvalue bounds (power functions, exponential types, the
``u log(u+e)`` family and its powered variant, and the conjugate-power
compositions built from them), together with

* numerical inverses: for the ``u log^eps(u+e)`` family, Newton's method,
  in u for ``inverse`` and in log u for ``inverse_log``, whose targets may
  lie far outside double range, and a bracketed bisection for kinds without
  a closed form; each entry stops at its own tolerance, so an inverse
  depends on its target alone,
* complementary (convex conjugate) functions, closed-form where registered
  and a one-sided numeric fallback otherwise,
* probes for the submultiplicativity / supermultiplicativity growth
  conditions.

``YoungFunction.eval``, ``log_eval`` and ``inverse`` are the one argument
gate: they reject a negative or non-finite argument with ``DomainError``,
hand the kind a float array of at least one dimension, and return a float
for a scalar argument and an array of the argument's shape otherwise.  A
kind implements ``_eval``, ``_log_eval`` (default: the log of ``eval``)
and ``_inverse`` (default: zero at zero, bisection elsewhere) on that
array, and its constructor rejects parameters out of range, non-finite
ones included, with ``ParameterError``.  Instances are
immutable after construction; ``NumericComplement`` only fills a cache of
fixed grids, so its value at v depends on v alone.
Exponential kinds carry a log-space twin (``log_eval``) because downstream
constants are composed entirely in log space.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "YoungFunction",
    "PowerP",
    "ExpSquare",
    "LogLinear",
    "LogPow",
    "LogLinearTilde",
    "ExpMinusOne",
    "PsiAlpha",
    "SignedExp",
    "NumericComplement",
    "default_probe_grid",
    "probe_delta_prime",
    "probe_nabla_prime",
]

_E = float(np.e)
_INVERSE_RTOL = 1e-10  # relative width at which the inverse bisection stops
_INVERSE_LEVELS = 200  # the inverse bisection stops at this level in any case
_NEWTON_RTOL = 1e-13  # step in log u at which LogPow's Newton inverses stop
_NEWTON_STEPS = 100  # LogPow's Newton inverses raise after this many steps
_INVERSE_BLOCK = 8192  # targets per block of LogPow's Newton inverse
# the inflection of x -> log log(e^x + e) lies at u = e^x = _U_BEND, where
# log(u + e) = u / e
_U_BEND = 5.833958031974924
_CONJ_U_LO, _CONJ_U_HI = 1e-8, 1e4  # the span of NumericComplement's level 0


def _gate(method, x, name):
    """The one argument gate of ``eval``, ``log_eval`` and ``inverse``.

    ``x`` must be nonnegative and finite.  ``method`` gets it as a float
    array of at least one dimension and returns an array of that shape; a
    scalar argument gets a float back.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if np.any(arr < 0):
        raise DomainError(f"{name} must be nonnegative, got {x!r}")
    out = method(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def _log_expm1(y):
    """log(e^y - 1), stable for both tiny and large y (elementwise)."""
    y = np.asarray(y, dtype=float)
    small = y < 33.0
    out = np.empty_like(y)
    with np.errstate(divide="ignore"):
        out[small] = np.log(np.expm1(y[small]))
    ys = y[~small]
    out[~small] = ys + np.log1p(-np.exp(-ys))
    return out


def _log_log_exp_plus_e(x):
    """log log(e^x + e) for any float x (elementwise): the log1p of
    max(x - 1, 0) + log1p(e^-|x - 1|), which keeps its digits near x = 1."""
    x = np.asarray(x, dtype=float)
    return np.log1p(np.maximum(x - 1.0, 0.0) + np.log1p(np.exp(-np.abs(x - 1.0))))


@functools.total_ordering
@dataclass(frozen=True)
class SignedExp:
    """The real number sign * e^log_abs, for values beyond double range.

    The quasidisk chain's log Psi(T) is such a value: its log, not the
    value, is a double.  ``float()`` gives the value, +-inf beyond double
    range.  Negation, ordering against floats and adding a float stay in
    log space: log |v + f| = log_abs + log1p(sign f e^-log_abs), which holds
    while |f| < e^log_abs, and so for every float once log_abs > 710.  mpmath converts an instance through
    ``_mpmath_``; the package itself never imports mpmath.
    """

    sign: float  # +1.0 or -1.0
    log_abs: float

    def __float__(self):
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf

    def __neg__(self):
        return SignedExp(-self.sign, self.log_abs)

    def __add__(self, other):
        if not isinstance(other, _REALS):
            return NotImplemented
        r = self.sign * float(other) * math.exp(-self.log_abs)
        return SignedExp(self.sign, self.log_abs + math.log1p(r))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, _REALS) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __lt__(self, other):
        # against a float; total_ordering gives the other three
        if not isinstance(other, _REALS):
            return NotImplemented
        f = float(other)
        if f == 0.0 or (f > 0.0) != (self.sign > 0.0):
            return self.sign < 0.0
        return self.sign * self.log_abs < self.sign * math.log(abs(f))

    def __str__(self):
        """Six significant digits in mantissa-exponent form, e.g. -6.31894e+127510."""
        log10 = self.log_abs / math.log(10.0)
        exponent = math.floor(log10)
        mantissa = f"{10.0 ** (log10 - exponent):.6g}"
        if mantissa == "10":
            mantissa, exponent = "1", exponent + 1
        return f"{'-' if self.sign < 0 else ''}{mantissa}e{exponent:+d}"

    def _mpmath_(self, prec, rounding):
        mp = sys.modules["mpmath"]  # loaded: only mpmath calls this hook
        with mp.workprec(prec):
            return self.sign * mp.exp(self.log_abs)


_REALS = (int, float, np.integer, np.floating)


class YoungFunction:
    """Base class: a convex growth function with numeric helpers.

    ``eval``, ``log_eval`` and ``inverse`` gate their argument (see
    ``_gate``) and call ``_eval``, ``_log_eval`` and ``_inverse``, which a
    kind overrides.
    """

    name = "young"

    def eval(self, u):
        """M(u)."""
        return _gate(self._eval, u, "u")

    def log_eval(self, u):
        """log M(u)."""
        return _gate(self._log_eval, u, "u")

    def inverse(self, t):
        """Solve M(u) = t for u >= 0.

        ``inverse(0) == 0``.  Without a closed form this is a bracketed
        bisection, which raises ``ConvergenceError`` when M(2^1023), the
        last bracket doubling short of overflow, is still below ``t``.
        Each entry stops at its own relative width, so its value depends on
        its target alone.
        """
        return _gate(self._inverse, t, "inverse target")

    def _eval(self, u):
        raise NotImplementedError

    def _log_eval(self, u):
        # the log of ``eval`` (overflow -> +inf)
        with np.errstate(divide="ignore", over="ignore"):
            return np.log(self.eval(u))

    # -- inversion ---------------------------------------------------------

    def _inverse(self, t):
        out = np.zeros_like(t)
        pos = t > 0
        if pos.any():
            out[pos] = self._bisect_inverse(t[pos])
        return out

    def _bisect_inverse(self, t):
        lo = np.zeros_like(t)
        hi = np.ones_like(t)
        with np.errstate(over="ignore"):
            need = self.eval(hi) < t
            for _ in range(1023):  # 2^1023 is the last power of two below overflow
                if not need.any():
                    break
                hi[need] *= 2.0
                need = self.eval(hi) < t
            if need.any():
                raise ConvergenceError(f"{self.name}: no bracket for inverse below 2^1023")
            todo = np.arange(len(t))  # entries wider than their own stop
            for _ in range(_INVERSE_LEVELS):
                mid = 0.5 * (lo[todo] + hi[todo])
                high = self.eval(mid) >= t[todo]
                hi[todo[high]] = mid[high]
                lo[todo[~high]] = mid[~high]
                todo = todo[hi[todo] - lo[todo] > _INVERSE_RTOL * np.maximum(hi[todo], 1e-300)]
                if not len(todo):
                    break
        return 0.5 * (lo + hi)

    # -- conjugation -------------------------------------------------------

    def complementary(self):
        """Convex conjugate sup{uv - M(u)}; numeric unless a closed form exists.

        The numeric fallback is memoized per instance.  Its value at v
        depends on v alone, not on what was evaluated before or with it.
        """
        memo = self.__dict__.get("_numeric_complement")
        if memo is None:
            memo = NumericComplement(self)
            self.__dict__["_numeric_complement"] = memo
        return memo

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"


class PowerP(YoungFunction):
    """M(u) = coef * u^p.  ``coef=1/p`` gives the normalized pairing variant."""

    def __init__(self, p, coef=None, normalized=False):
        if not 1 <= p < np.inf:  # NaN fails too
            raise ParameterError(f"power exponent must satisfy 1 <= p < inf, got {p}")
        if coef is None:
            coef = 1.0 / p if normalized else 1.0
        if not 0 < coef < np.inf:
            raise ParameterError(f"power coefficient must be positive and finite, got {coef}")
        self.p = float(p)
        self.coef = float(coef)
        self.name = f"power(p={self.p:g},coef={self.coef:g})"

    def _eval(self, u):
        with np.errstate(over="ignore"):
            return self.coef * u**self.p

    def _log_eval(self, u):
        with np.errstate(divide="ignore"):
            return np.log(self.coef) + self.p * np.log(u)

    def _inverse(self, t):
        return (t / self.coef) ** (1.0 / self.p)

    def complementary(self):
        if self.p == 1.0:
            raise ParameterError("conjugate of a linear function is degenerate")
        q = self.p / (self.p - 1.0)
        coef_star = ((self.p - 1.0) / self.p) * (self.coef * self.p) ** (
            -1.0 / (self.p - 1.0)
        )
        return PowerP(q, coef=coef_star)


class ExpSquare(YoungFunction):
    """M(u) = exp(u^2) - 1, the optimal-embedding target function."""

    name = "exp_square"

    def _eval(self, u):
        with np.errstate(over="ignore"):
            return np.expm1(u * u)

    def _log_eval(self, u):
        with np.errstate(over="ignore"):
            return _log_expm1(u * u)

    def _inverse(self, t):
        return np.sqrt(np.log1p(t))


class LogPow(YoungFunction):
    """M(u) = u * log(u+e)^eps.  ``eps=1`` is the submultiplicative
    companion of exp(u)-1 used throughout the Jacobian functionals."""

    def __init__(self, eps=1.0):
        if not 1 <= eps < np.inf:  # NaN fails too
            raise ParameterError(f"log power must satisfy 1 <= eps < inf, got {eps}")
        self.eps = float(eps)
        self.name = f"log_pow(eps={self.eps:g})"

    def _eval(self, u):
        # u * log(u + e)^eps, formed in place on its one output array:
        # ``**=`` takes the same scalar power as ``**``, and the product's
        # order does not move its bits
        with np.errstate(over="ignore"):
            out = np.add(u, _E, out=np.empty_like(u))
            np.log(out, out=out)
            out **= self.eps
            out *= u
        return out

    def _log_eval(self, u):
        with np.errstate(divide="ignore"):
            return np.log(u) + self.eps * np.log(np.log(u + _E))

    def _inverse(self, t):
        # Newton's method on log M(e^x) = log t in x = log u: each step
        # is x += log(t / M(u)) / (d log M / d log u).  log M(e^x) is convex
        # in x below u = _U_BEND and concave above it, whatever eps, so the
        # steps reach the root without crossing it from a start on the
        # matching side: from the left, max(t / log(t+e)^eps, _U_BEND), when
        # M(_U_BEND) <= t, and from the right, min(t, _U_BEND), otherwise.
        # log(t / M(u)) is the log of a ratio, so M never overflows; only at
        # a large eps can that ratio leave double range, and then it is a
        # sum of logs.  An entry stops once its own step falls below a
        # relative _NEWTON_RTOL, or turns back, which only rounding can do.
        # Each entry's path depends on its own target alone, so the targets
        # run in blocks of _INVERSE_BLOCK, which bounds the temporaries.
        out = np.empty_like(t)
        m_bend = self._eval(np.array(_U_BEND))
        for start in range(0, len(t), _INVERSE_BLOCK):
            block = slice(start, start + _INVERSE_BLOCK)
            out[block] = self._newton_inverse(t[block], m_bend)
        return out

    def _newton_inverse(self, t, m_bend):
        eps = self.eps
        up = m_bend <= t
        todo = t > 0
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            u = np.where(up, np.maximum(t / np.log(t + _E) ** eps, _U_BEND), np.minimum(t, _U_BEND))
            for _ in range(_NEWTON_STEPS):
                if not todo.any():
                    return u
                log_u = np.log(u + _E)
                g = np.log(t / u / log_u**eps)
                far = todo & ~np.isfinite(g)
                if far.any():
                    g[far] = np.log(t[far]) - np.log(u[far]) - eps * np.log(log_u[far])
                dx = g / (1.0 + eps * (u / (u + _E)) / log_u)
                u = np.where(todo, u * np.exp(dx), u)
                todo &= np.where(up, dx, -dx) > _NEWTON_RTOL
        raise ConvergenceError(f"{self.name}: inverse did not settle in {_NEWTON_STEPS} steps")

    # log-domain twin: x = log u  ->  log M(u) = x + eps*log(log(e^x + e))

    def log_eval_from_log(self, x):
        """log M(e^x) for unrestricted float x (no overflow)."""
        x = np.asarray(x, dtype=float)
        return x + self.eps * _log_log_exp_plus_e(x)

    def inverse_log(self, log_t):
        """log of the inverse: solve log M(e^x) = log_t for x.

        ``_inverse``'s Newton step, start and stop, taken in x = log u so
        that targets far outside double range stay usable (``_inverse``
        stays in u, which x ~ 700 would resolve only to 1e-13).  Accepts a
        float or float array, where +-inf map to +-inf and NaN raises
        ``DomainError``, or a ``SignedExp``: read as its float in double
        range, and below -746 returned as it is, since the correction
        eps log(1 + e^(x-1)) to log M(e^x) = x underflows there.  An entry
        also stops once a step leaves x as it was.
        """
        if isinstance(log_t, SignedExp):
            if float(log_t) < -746.0:
                return log_t
            log_t = float(log_t)
        out = np.array(log_t, dtype=float)  # log M(e^x) -> +-inf as x -> +-inf
        if np.isnan(out).any():
            raise DomainError(f"inverse_log target must not be NaN, got {log_t!r}")
        fin = np.isfinite(out)
        t = out[fin]
        eps, x_bend = self.eps, math.log(_U_BEND)
        up = self.log_eval_from_log(x_bend) <= t
        x = np.where(up, np.maximum(t - eps * _log_log_exp_plus_e(t), x_bend), np.minimum(t, x_bend))
        todo = np.ones_like(up)
        with np.errstate(over="ignore"):
            for _ in range(_NEWTON_STEPS):
                if not todo.any():
                    out[fin] = x
                    return out[()]
                # slope 1 + eps / ((1 + e^(1-x)) log(e^x + e)); x goes last,
                # where the residual's subtraction is exact near the root
                log_log = _log_log_exp_plus_e(x)
                slope = 1.0 + eps * np.exp(-log_log) / (1.0 + np.exp(1.0 - x))
                dx = (t - eps * log_log - x) / slope
                stepped = np.where(todo, x + dx, x)
                todo &= (np.where(up, dx, -dx) > _NEWTON_RTOL) & (stepped != x)
                x = stepped
        raise ConvergenceError(f"{self.name}: inverse_log did not settle in {_NEWTON_STEPS} steps")


class LogLinear(LogPow):
    """M(u) = u * log(u+e), submultiplicative with constant 2."""

    def __init__(self):
        super().__init__(eps=1.0)
        self.name = "log_linear"


class LogLinearTilde(YoungFunction):
    """M(u) = (1+u) log(1+u) - u, the closed-form conjugate of exp(u)-1."""

    name = "log_linear_tilde"

    def _eval(self, u):
        return (1.0 + u) * np.log1p(u) - u

    def complementary(self):
        return ExpMinusOne()


class ExpMinusOne(YoungFunction):
    """M(u) = exp(u) - 1; conjugate pair of (1+u)log(1+u) - u."""

    name = "exp_minus_one"

    def _eval(self, u):
        with np.errstate(over="ignore"):
            return np.expm1(u)

    def _log_eval(self, u):
        return _log_expm1(u)

    def _inverse(self, t):
        return np.log1p(t)

    def complementary(self):
        return LogLinearTilde()


class PsiAlpha(YoungFunction):
    """The conjugate-power composition

        Psi(u) = (2/alpha) * (w * (e^y - e))^((alpha-2)/2),
        w = Minv(u),   y = w^(1/eps),

    where Minv is the inverse of u log^eps(u+e).  ``eps=1`` is Psi_alpha,
    built on u log(u+e), and eps > 1 the variant Psi_{eps,alpha}.  Vanishes
    where e^y <= e, and at eps = 1 satisfies
    Psi(M(u / Minv(u))) = (2/alpha) u^((alpha-2)/2).
    """

    def __init__(self, alpha, eps=1.0):
        if not 2 < alpha < np.inf:
            raise ParameterError(f"alpha must satisfy 2 < alpha < inf, got {alpha}")
        self.alpha = float(alpha)
        self._phi = LogPow(eps)
        self.eps = self._phi.eps
        tag = "" if self.eps == 1.0 else f",eps={self.eps:g}"
        self.name = f"psi(alpha={self.alpha:g}{tag})"

    def _eval(self, u):
        w = self._phi.inverse(u)
        y = w ** (1.0 / self.eps)
        with np.errstate(over="ignore", invalid="ignore"):
            inner = w * _E * np.expm1(y - 1.0)
            inner = np.maximum(inner, 0.0)
            out = (2.0 / self.alpha) * inner ** ((self.alpha - 2.0) / 2.0)
        return np.where(w <= 0, 0.0, out)

    def _log_eval(self, u):
        w = self._phi.inverse(u)
        y = w ** (1.0 / self.eps)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_inner = np.log(w) + 1.0 + _log_expm1(y - 1.0)
            out = np.log(2.0 / self.alpha) + 0.5 * (self.alpha - 2.0) * log_inner
        return np.where(y <= 1.0, -np.inf, out)

    def log_eval_from_log(self, log_u):
        """log Psi(u) from a float log u of any magnitude.

        With x = log Minv(u) and y = e^(x/eps), log Psi is a float while y
        and log Psi fit in a double.  Beyond that it is the ``SignedExp``
        of log log Psi = log h + x/eps + log1p(r), h = (alpha-2)/2 and
        r = (x + log(2/alpha) / h) e^(-x/eps), where the log(1 - e^(1-y))
        of the inner factor has long underflowed.  log(2/alpha) is taken as
        -log1p(h), which keeps its digits as alpha nears 2.
        """
        x = float(self._phi.inverse_log(log_u))  # x = log w
        half = 0.5 * (self.alpha - 2.0)
        log_two_over_alpha = -math.log1p(half)
        with np.errstate(over="ignore"):
            y = np.exp(x / self.eps)
            if y <= 1.0:
                return -np.inf
            out = log_two_over_alpha + half * (x + 1.0 + float(_log_expm1(y - 1.0)))
        if np.isfinite(out):
            return float(out)
        r = (x + log_two_over_alpha / half) * math.exp(-x / self.eps)
        return SignedExp(1.0, math.log(half) + x / self.eps + math.log1p(r))


class _ConjugateGrid(NamedTuple):
    """One level of a ``NumericComplement`` grid ladder."""

    u: np.ndarray  # geometric grid on [_CONJ_U_LO, 1e4 * 64^k], top exact
    m: np.ndarray  # M on the grid (may hold inf at the top)
    slopes: np.ndarray  # running maximum of the secant slopes, inf once steep


def _grid_max(grid, v):
    """First index of max_j v*u_j - M(u_j) and that max, for each v.

    The objective rises across the cell [u_j, u_{j+1}] exactly when v
    exceeds the cell's secant slope, and M is convex, so its first maximum
    sits at the first j whose slope is at least v.  ``grid.slopes`` is a
    running maximum, so the search stays sorted where rounding is not.
    """
    idx = np.searchsorted(grid.slopes, v)
    with np.errstate(over="ignore"):
        return idx, v * grid.u[idx] - grid.m[idx]


class NumericComplement(YoungFunction):
    """One-sided numeric convex conjugate sup_u {uv - M(u)}.

    The supremum is taken over a geometric grid, optionally refined by
    golden-section ascent (the objective is concave in u).  The result never
    exceeds the true conjugate; the deficit is controlled by the grid density
    and refinement.

    The grids form a fixed ladder: level k spans [1e-8, 1e4 * 64^k] with
    2048 points, is built on first use and then kept.  Each v starts on
    level 0 and climbs while its maximiser sits on one of the top two
    points of its level, up to level 12 or to the first level whose top
    reaches 1e120; a maximiser beyond that stays one-sided low.  A level
    depends only on M and k, so a grid value depends on v alone, not on
    the other entries of the call or on earlier calls, and threads sharing
    an instance can only build equal levels.
    Refinement runs from each v's own bracket, and every kind's eval is
    entry by entry, so a refined value depends on v alone too.

    The grid maximum is M's discrete Legendre transform (Y. Lucet, *Numer.
    Algorithms* 16 (1997)): a binary search for v among each level's
    running maximum of secant slopes (inf where too steep for float64)
    finds the maximiser, O(log G) per v (``_grid_max``).  For a strictly
    convex M that is the full scan's maximum up to rounding of the
    objective; the tests check it bit for bit on the registered kinds.
    Where M is linear, rounding scatters the slopes, and a v within that
    scatter may stop early on the line, a few eps * (v*u + M(u)) / h below
    the scan's maximum (h the level's relative spacing): still one-sided low.
    """

    _n = 2048  # points per level; bench/tracing.py reads it too

    def __init__(self, of, refine=True):
        self.of = of
        self.name = f"conjugate({of.name})"
        self._refine = bool(refine)
        self._levels = {}  # ladder level k -> _ConjugateGrid

    def _level(self, k):
        grid = self._levels.get(k)
        if grid is None:
            top = _CONJ_U_HI * 64.0**k
            u = np.geomspace(_CONJ_U_LO, top, self._n)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                m = np.asarray(self.of.eval(u))
                slopes = np.diff(m) / np.diff(u)
            slopes = np.maximum.accumulate(np.where(np.isfinite(slopes), slopes, np.inf))
            grid = self._levels[k] = _ConjugateGrid(u, m, slopes)
        return grid

    def _objective(self, u, v):
        with np.errstate(over="ignore", invalid="ignore"):
            val = u * v - np.asarray(self.of.eval(u))
        return np.where(np.isnan(val), -np.inf, val)

    # bound in this class body as well: bench/tracing.py times this
    # attribute as the conjugate and counts YoungFunction.eval separately,
    # so without it every conjugate call would count as both
    eval = YoungFunction.eval

    def _eval(self, v):
        out = np.zeros_like(v)
        pos = v > 0
        if pos.any():
            out[pos] = self._sup(v[pos])
        return out

    def _sup(self, v):
        best, lo, hi = np.empty_like(v), np.empty_like(v), np.empty_like(v)
        rows = np.arange(len(v))  # entries still climbing the ladder
        for k in range(13):
            grid = self._level(k)
            idx, best[rows] = _grid_max(grid, v[rows])
            lo[rows] = grid.u[np.maximum(idx - 1, 0)]
            hi[rows] = grid.u[np.minimum(idx + 1, self._n - 1)]
            rows = rows[idx >= self._n - 2]
            if not len(rows) or grid.u[-1] >= 1e120:
                break
        if not self._refine:
            return np.maximum(best, 0.0)
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc = self._objective(c, v)
        fd = self._objective(d, v)
        for _ in range(48):
            left = fc >= fd
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            fc = self._objective(c, v)
            fd = self._objective(d, v)
        best = np.maximum(best, np.maximum(fc, fd))
        return np.maximum(best, 0.0)


# ---------------------------------------------------------------------------
# growth-condition probes
# ---------------------------------------------------------------------------


def default_probe_grid():
    """Log-uniform grid of 48 points on [1e-3, 1e3] used for the growth probes."""
    return np.geomspace(1e-3, 1e3, 48)


def probe_delta_prime(young, grid=None):
    """Empirical submultiplicativity constant sup M(uv) / (M(u) M(v)).

    Evaluated in log space over the tensor grid; points where the ratio is
    indeterminate (both sides vanish) are skipped with a counter.  Returns
    None if every point was skipped; the result may be ``inf`` for kinds
    whose ratio grows without bound.
    """
    g = default_probe_grid() if grid is None else np.asarray(grid, dtype=float)
    uu, vv = np.meshgrid(g, g)
    lr = (
        np.asarray(young.log_eval(uu * vv))
        - np.asarray(young.log_eval(uu))
        - np.asarray(young.log_eval(vv))
    )
    bad = np.isnan(lr)
    if bad.any():
        import logging  # here, so that no process that never probes loads it

        logging.getLogger(__name__).warning(
            "probe_delta_prime(%s): skipped %d grid points", young.name, bad.sum()
        )
    if bad.all():
        return None
    with np.errstate(over="ignore"):
        return float(np.exp(np.nanmax(lr)))


def probe_nabla_prime(young, grid=None, c_max=1e6):
    """Smallest C in [1, c_max] with M(C u v) >= M(u) M(v) on the grid.

    Bisection on log C against the worst grid point; returns None when even
    ``c_max`` fails.  Comparisons run in log space so exponential kinds do
    not overflow.
    """
    g = default_probe_grid() if grid is None else np.asarray(grid, dtype=float)
    uu, vv = np.meshgrid(g, g)
    rhs = np.asarray(young.log_eval(uu)) + np.asarray(young.log_eval(vv))
    prod = uu * vv

    def feasible(c):
        lhs = np.asarray(young.log_eval(c * prod))
        with np.errstate(invalid="ignore"):
            ok = lhs >= rhs - 1e-12 * np.abs(rhs)
        # -inf rhs imposes no constraint
        return bool(np.all(ok | np.isneginf(rhs)))

    if not feasible(c_max):
        return None
    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, np.log(c_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(np.exp(mid)):
            hi = mid
        else:
            lo = mid
    return float(np.exp(hi))
