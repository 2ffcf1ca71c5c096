"""Conformal map families on the unit disk and quadrature over it.

Every registered family is analytic with a closed-form derivative, so the
Jacobian J(z) = |phi'(z)|^2 is exact at quadrature nodes.  Identity and
perturbed power are the polynomial maps with coefficients (1) and
(1, 0, ..., 0, c/k).  Construction runs a univalence certificate (Re phi' > 0
on a boundary-refined grid, a sufficient criterion for injectivity); maps
failing it are rejected.  The routes read every sample from a ``Pullback``,
the log density samples included; its density samples pass
``DensityField.on_disk``, the one density gate.

The quadrature is a tensor rule: Gauss-Legendre in the r^2 variable times a
uniform (trapezoidal) angular grid.  It integrates polynomials in (x, y) of
radial degree up to 2*n_radial - 1 and trigonometric degree up to
n_angular - 1 exactly, weights sum to pi, and no node touches |z| = 1.

The Gauss-Legendre rule comes from ``gauss_legendre``: Newton's method on
the three-term recurrence of P_n, in plain numpy elementwise arithmetic
(N. Hale and A. Townsend, SIAM J. Sci. Comput. 35 (2013)).  No process
calls LAPACK to build a rule, so a rule costs the same in a forked worker
as in a warm loop, and its bits do not depend on the LAPACK build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, ParameterError
from .spec import parse_spec
from .youngfn import LogPow

__all__ = [
    "ConformalMap",
    "IdentityMap",
    "PerturbedPowerMap",
    "PolynomialMap",
    "MoebiusDiskMap",
    "DiskQuadrature",
    "gauss_legendre",
    "build_disk_quadrature",
    "build_disk_quadrature_graded",
    "Pullback",
    "image_area",
    "MAP_KINDS",
    "map_from_spec",
]


@dataclass(frozen=True)
class DiskQuadrature:
    """Nodes and weights for integrals over the unit disk."""

    nodes: np.ndarray  # complex, strictly inside the disk
    weights: np.ndarray  # positive, sum to pi
    n_radial: int
    n_angular: int

    @property
    def measure_id(self):
        return f"disk:{self.n_radial}x{self.n_angular}"

    def __len__(self):
        return len(self.nodes)


def _tensor_rule(t, a, n_angular):
    """The disk rule of the r^2-rule (t, a) on (0, 1) times n_angular
    uniform angles; its arrays are read-only."""
    if n_angular < 8:
        raise ConfigError(f"n_angular must be >= 8, got {n_angular}")
    r = np.sqrt(t)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.repeat(a * np.pi / n_angular, n_angular)
    z.flags.writeable = False
    w.flags.writeable = False
    return DiskQuadrature(nodes=z, weights=w, n_radial=len(t), n_angular=int(n_angular))


_NEWTON_STEPS = 20  # Newton steps allowed per rule; 3 or 4 settle it


def gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], for n >= 1.

    Newton's method runs on P_n, vectorised over the positive roots, from
    Tricomi's asymptotic guesses (1 - (n-1)/(8n^3) - (39 - 28/sin^2 th)/(384n^4))
    cos th, th = pi (4i - 1)/(4n + 2), and stops after the first step of at
    most four ulp of 1; quadratic convergence leaves the nodes at rounding
    level.  P_n and P_{n-1} come from the three-term recurrence, scaled as
    q_k = 2^k P_k / (leading coefficient of P_k), which stays O(sqrt k) on
    [-1, 1]; P_n' follows from n (x P_n - P_{n-1}) / (x^2 - 1).  The
    weights are 2 / ((1 - x^2) P_n'(x)^2) at the final nodes; the scaling
    leaves a common factor, which sum(w) = 2 fixes.  The positive half is
    mirrored, so nodes and weights are symmetric bit for bit, and an odd n
    gets the node 0 exactly.  Only elementwise numpy runs: no LAPACK.
    """
    n = int(n)
    half = (n + 1) // 2  # the roots in [0, 1), descending
    theta = np.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    if n % 2:
        x[-1] = 0.0  # P_n is odd: exactly 0 there, so Newton never moves it
    c = [4.0 * k * k / (4.0 * k * k - 1.0) for k in range(n)]
    r = 2.0 * n / (2.0 * n - 1.0)  # P_{n-1} = r q_{n-1} in the units where P_n = q_n
    prev, cur, tmp = np.empty(half), np.empty(half), np.empty(half)
    settled = False
    for _ in range(_NEWTON_STEPS + 1):
        two_x = 2.0 * x
        prev.fill(1.0)
        cur[:] = two_x
        for k in range(1, n):  # q_{k+1} = 2x q_k - c_k q_{k-1}, in place
            np.multiply(two_x, cur, out=tmp)
            prev *= c[k]
            np.subtract(tmp, prev, out=prev)
            prev, cur = cur, prev
        slope = x * cur - r * prev  # (x^2 - 1) P_n' / n in q units
        if settled:
            break
        step = (x * x - 1.0) * cur / (n * slope)
        x = x - step
        settled = bool(np.all(np.abs(step) <= 4.0 * np.finfo(float).eps))
    else:
        raise ConvergenceError(f"Gauss-Legendre n={n}: Newton did not settle")
    w = (1.0 - x * x) / (slope * slope)
    nodes = np.concatenate([-x[: n // 2], x[::-1]])
    weights = np.concatenate([w[: n // 2], w[::-1]])
    weights *= 2.0 / weights.sum()
    return nodes, weights


@lru_cache(maxsize=None)
def build_disk_quadrature(n_radial, n_angular):
    """Tensor Gauss-Legendre (in r^2) x uniform-angle rule on the disk.

    The radial rule is ``gauss_legendre``'s, by Newton's method on the
    Legendre recurrence: no LAPACK call, so no BLAS thread pool to wake or
    stall, and the same bits whatever LAPACK numpy links.  The rule
    depends on the two orders alone, so it is cached and shared by every
    caller; its arrays are read-only for that reason.
    """
    if n_radial < 4:
        raise ConfigError(f"n_radial must be >= 4, got {n_radial}")
    t, a = gauss_legendre(n_radial)
    # Gauss-Legendre nodes in t = r^2 on (0, 1)
    return _tensor_rule(0.5 * (t + 1.0), 0.5 * a, n_angular)


_GRADED_PER_PANEL = 48  # Gauss-Legendre nodes per radial panel
_GRADED_PANELS = 24  # panels [2^-j-1, 2^-j], the last one down to 0


def build_disk_quadrature_graded(n_angular):
    """Disk rule with geometrically graded radial panels toward the origin.

    Same tensor structure as ``build_disk_quadrature`` but the r^2 variable
    is integrated with composite Gauss-Legendre on panels [2^-j-1, 2^-j],
    which keeps near-machine accuracy for integrands sharply concentrated at
    the center (Gaussian densities with large sharpness).
    """
    x, a = gauss_legendre(_GRADED_PER_PANEL)
    ts, ws = [], []
    edges = [1.0] + [2.0**-j for j in range(1, _GRADED_PANELS)] + [0.0]
    for hi, lo in zip(edges[:-1], edges[1:]):
        ts.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * a)
    return _tensor_rule(np.concatenate(ts), np.concatenate(ws), n_angular)


class ConformalMap:
    """Analytic map of the unit disk with exact derivative."""

    name = "conformal"
    #: exact image area when the family has one (None otherwise)
    closed_form_area = None
    #: analytic bound for sup |phi'| on the disk, when available
    derivative_sup_bound = None

    def map(self, z):
        raise NotImplementedError

    def derivative(self, z):
        raise NotImplementedError

    def _certify_univalence(self):
        """Reject construction unless Re phi' > 0 on a boundary-refined grid
        of 34 radii x 720 angles.  The grid is taken one radius at a time,
        so the check holds one ring of samples; the running minimum, NaN
        when any sample is NaN, decides and is reported."""
        radii = np.concatenate(
            [np.linspace(0.0, 0.9, 10), 1.0 - np.geomspace(1e-12, 0.1, 24)]
        )
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
        low = np.inf
        for r in radii:
            low = np.minimum(low, np.real(self.derivative(r * ring)).min())
        if not low > 0.0:
            raise ParameterError(
                f"{self.name}: univalence certificate failed "
                f"(min Re phi' = {low:.3e} on the check grid)"
            )

    def jacobian(self, z):
        """J(z) = |phi'(z)|^2 for z strictly inside the disk."""
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("jacobian requires |z| < 1")
        d = self.derivative(z)
        out = (d * d.conjugate()).real
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"


class PolynomialMap(ConformalMap):
    """phi(z) = sum_j coeffs[j-1] z^j (no constant term).

    Image area has the closed form pi * sum_j j |a_j|^2 by orthogonality of
    powers on the disk.  phi and phi' come from Horner's rule, in place.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ParameterError("polynomial needs a 1-D nonempty coefficient list")
        if coeffs[0] == 0:
            raise ParameterError("leading (z^1) coefficient must be nonzero")
        self.coeffs = coeffs
        # a subclass names its family first, for the certificate's message
        vars(self).setdefault("name", f"polynomial(deg={len(coeffs)})")
        j = np.arange(1, len(coeffs) + 1)
        self._slopes = j * coeffs  # the coefficients of phi'
        self.closed_form_area = float(np.pi * np.sum(j * np.abs(coeffs) ** 2))
        self.derivative_sup_bound = float(np.sum(j * np.abs(coeffs)))
        self._certify_univalence()

    def map(self, z):
        out = np.zeros_like(z, dtype=complex)
        for a in self.coeffs[::-1]:
            out += a
            out *= z
        return out

    def derivative(self, z):
        out = np.zeros_like(z, dtype=complex)
        for a in self._slopes[::-1]:
            out *= z
            out += a
        return out


class IdentityMap(PolynomialMap):
    """phi(z) = z, coefficients (1): phi(z) is z and J is 1, exactly."""

    def __init__(self):
        self.name = "identity"
        super().__init__([1.0])


class PerturbedPowerMap(PolynomialMap):
    """phi(z) = z + (c/k) z^k with k >= 2, the polynomial with coefficients
    (1, 0, ..., 0, c/k); univalent whenever |c| < 1."""

    def __init__(self, c, k):
        k = int(k)
        if k < 2:
            raise ParameterError(f"power index k must be >= 2, got {k}")
        self.c = complex(c)
        self.k = k
        self.name = f"perturbed_power(c={self.c:g},k={k})"
        super().__init__([1.0] + [0.0] * (k - 2) + [self.c / k])


class MoebiusDiskMap(ConformalMap):
    """Disk automorphism phi(z) = (z + a)/(1 + conj(a) z), |a| < 1.

    The Re phi' > 0 certificate is sufficient, not necessary; it admits this
    family only for |a| < 1/sqrt(2) and construction is rejected beyond that.
    """

    def __init__(self, a):
        self.a = complex(a)
        if abs(self.a) >= 1.0:
            raise ParameterError(f"moebius parameter needs |a| < 1, got |a|={abs(a):g}")
        self.name = f"moebius(a={self.a:g})"
        self.closed_form_area = np.pi
        self.derivative_sup_bound = (1.0 + abs(self.a)) / (1.0 - abs(self.a))
        self._certify_univalence()

    def map(self, z):
        z = np.asarray(z, dtype=complex)
        return (z + self.a) / (1.0 + np.conj(self.a) * z)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - abs(self.a) ** 2) / (1.0 + np.conj(self.a) * z) ** 2


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Pullback:
    """The samples of one (map, density, quadrature) that the bound routes
    share, each computed on first use and then kept, read-only.

    Map-side samples, which depend on (map, quadrature) alone:

    * ``image``: the image points phi(z_i);
    * ``jacobian``: J(z_i);
    * ``log_pow_inverse(eps)``: PhiInv(J(z_i)) for Phi = u log^eps(u+e),
      kept per eps;
    * ``area``: the image area, sum of w_i * J(z_i).

    Density-side samples:

    * ``density``: rho(phi(z_i)) from ``rho.on_disk``, the one density gate,
      which forms it from the map-side samples;
    * ``log_density``: the log of ``density``, or the density's log-space
      twin ``log_on_disk`` where it has one (a Gaussian's can underflow).

    A sample whose evaluation raises is not kept, so it raises again at its
    next use: a density that underflows linear evaluation fails only the
    routes that need it.  ``rho`` may be None when only the map's samples
    are used.  ``for_density`` gives the pull-back of another density that
    shares this one's map-side samples, those computed so far and those
    computed later by either, so each is computed once for all of them.
    Nothing else holds the samples: they are freed with the last pull-back
    that shares them.
    """

    def __init__(self, cmap, rho, quad):
        self.cmap = cmap
        self.rho = rho
        self.quad = quad
        self._kept = {}  # density-side samples
        self._on_map = {}  # map-side samples, shared with for_density's pull-backs

    @staticmethod
    def _once(kept, name, compute):
        if name not in kept:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            kept[name] = value
        return kept[name]

    @property
    def image(self):
        return self._once(self._on_map, "image", lambda: self.cmap.map(self.quad.nodes))

    @property
    def jacobian(self):
        return self._once(self._on_map, "jacobian", lambda: self.cmap.jacobian(self.quad.nodes))

    def log_pow_inverse(self, eps):
        return self._once(
            self._on_map, ("log_pow_inverse", eps), lambda: LogPow(eps).inverse(self.jacobian)
        )

    @property
    def area(self):
        return self._once(
            self._on_map, "area", lambda: float(np.sum(self.quad.weights * self.jacobian))
        )

    @property
    def density(self):
        return self._once(
            self._kept,
            "density",
            lambda: self.rho.on_disk(self.cmap, self.quad.nodes, pullback=self),
        )

    @property
    def log_density(self):
        twin = getattr(self.rho, "log_on_disk", None)  # the kind's own, if it has one
        return self._once(
            self._kept,
            "log_density",
            lambda: np.log(self.density) if twin is None else twin(self.cmap, self.quad.nodes, self),
        )

    @property
    def mass_density(self):
        """rho(phi(z_i)) * J(z_i) at the nodes, the disk-side
        density-to-inverse-Jacobian ratio of the esssup and Lq functionals.
        Not kept: one product costs less than holding it for the scenario."""
        return self.density * self.jacobian

    def for_density(self, rho):
        """The pull-back of ``rho`` through the same map and nodes, sharing
        this one's map-side samples."""
        other = Pullback(self.cmap, rho, self.quad)
        other._on_map = self._on_map
        return other


def image_area(cmap, quad):
    """Area of the image domain: sum of w_i * J(z_i)."""
    return Pullback(cmap, None, quad).area


def _complex_list(text):
    return [complex(t) for t in text.split(",")]


#: config-grammar kind -> (constructor, {parameter: cast of its value text})
MAP_KINDS = {
    "identity": (IdentityMap, {}),
    "perturbed_power": (PerturbedPowerMap, {"c": complex, "k": int}),
    "polynomial": (PolynomialMap, {"coeffs": _complex_list}),
    "moebius": (MoebiusDiskMap, {"a": complex}),
}


def map_from_spec(spec):
    """Construct a map from config text such as ``perturbed_power c=0.5 k=2``."""
    return parse_spec(MAP_KINDS, spec, "map")
