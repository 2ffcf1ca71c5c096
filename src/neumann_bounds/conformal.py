"""Conformal map families on the unit disk and quadrature over it.

Every registered family is analytic with a closed-form derivative, so the
Jacobian J(z) = |phi'(z)|^2 is exact at quadrature nodes.  Construction runs
a univalence certificate (Re phi' > 0 on a boundary-refined grid, a
sufficient criterion for injectivity); maps failing it are rejected.

The quadrature is a tensor rule: Gauss-Legendre in the r^2 variable times a
uniform (trapezoidal) angular grid.  It integrates polynomials in (x, y) of
radial degree up to 2*n_radial - 1 and trigonometric degree up to
n_angular - 1 exactly, weights sum to pi, and no node touches |z| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .spec import parse_spec
from .youngfn import LogPow

__all__ = [
    "ConformalMap",
    "IdentityMap",
    "PerturbedPowerMap",
    "PolynomialMap",
    "MoebiusDiskMap",
    "DiskQuadrature",
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

    @property
    def total_measure(self):
        return float(self.weights.sum())

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


@lru_cache(maxsize=None)
def build_disk_quadrature(n_radial, n_angular):
    """Tensor Gauss-Legendre (in r^2) x uniform-angle rule on the disk.

    The rule depends on the two orders alone, so it is cached and shared by
    every caller; its arrays are read-only for that reason.
    """
    if n_radial < 4:
        raise ConfigError(f"n_radial must be >= 4, got {n_radial}")
    t, a = np.polynomial.legendre.leggauss(int(n_radial))
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
    x, a = np.polynomial.legendre.leggauss(_GRADED_PER_PANEL)
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
        """Reject construction unless Re phi' > 0 on a boundary-refined grid."""
        radii = np.concatenate(
            [np.linspace(0.0, 0.9, 10), 1.0 - np.geomspace(1e-12, 0.1, 24)]
        )
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        z = radii[:, None] * np.exp(1j * theta)[None, :]
        re = np.real(self.derivative(z))
        if not np.all(re > 0.0):
            raise ParameterError(
                f"{self.name}: univalence certificate failed "
                f"(min Re phi' = {re.min():.3e} on the check grid)"
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


class IdentityMap(ConformalMap):
    name = "identity"
    closed_form_area = np.pi
    derivative_sup_bound = 1.0

    def map(self, z):
        return np.asarray(z, dtype=complex)

    def derivative(self, z):
        return np.ones_like(np.asarray(z, dtype=complex))


class PerturbedPowerMap(ConformalMap):
    """phi(z) = z + (c/k) z^k with k >= 2; univalent whenever |c| < 1."""

    def __init__(self, c, k):
        k = int(k)
        if k < 2:
            raise ParameterError(f"power index k must be >= 2, got {k}")
        self.c = complex(c)
        self.k = k
        self.name = f"perturbed_power(c={self.c:g},k={k})"
        self.closed_form_area = np.pi * (1.0 + abs(self.c) ** 2 / k)
        self.derivative_sup_bound = 1.0 + abs(self.c)
        self._certify_univalence()

    def map(self, z):
        z = np.asarray(z, dtype=complex)
        return z + (self.c / self.k) * z**self.k

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return 1.0 + self.c * z ** (self.k - 1)


class PolynomialMap(ConformalMap):
    """phi(z) = sum_j coeffs[j-1] z^j (no constant term).

    Image area has the closed form pi * sum_j j |a_j|^2 by orthogonality of
    powers on the disk.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ParameterError("polynomial needs a 1-D nonempty coefficient list")
        if coeffs[0] == 0:
            raise ParameterError("leading (z^1) coefficient must be nonzero")
        self.coeffs = coeffs
        j = np.arange(1, len(coeffs) + 1)
        self.name = f"polynomial(deg={len(coeffs)})"
        self.closed_form_area = float(np.pi * np.sum(j * np.abs(coeffs) ** 2))
        self.derivative_sup_bound = float(np.sum(j * np.abs(coeffs)))
        self._certify_univalence()

    def map(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for j in range(len(self.coeffs), 0, -1):
            out = (out + self.coeffs[j - 1]) * z
        return out

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for j in range(len(self.coeffs), 0, -1):
            out = out * z + j * self.coeffs[j - 1]
        return out


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
    share, each computed on first use and then kept, read-only:

    * ``jacobian``: J(z_i);
    * ``log_pow_inverse(eps)``: PhiInv(J(z_i)) for Phi = u log^eps(u+e),
      kept per eps;
    * ``density``: rho(phi(z_i)), which the pullback-defined densities
      form from the two above;
    * ``log_density``: log rho(phi(z_i)), from the density's log-space twin;
    * ``area``: the image area, sum of w_i * J(z_i).

    A sample whose evaluation raises is not kept, so it raises again at its
    next use: a density that underflows linear evaluation fails only the
    routes that need it.  ``rho`` may be None when only the map's samples
    are used.  The object holds no reference to itself, so its arrays go
    with it.
    """

    def __init__(self, cmap, rho, quad):
        self.cmap = cmap
        self.rho = rho
        self.quad = quad
        self._kept = {}

    def _once(self, name, compute):
        if name not in self._kept:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._kept[name] = value
        return self._kept[name]

    @property
    def jacobian(self):
        return self._once("jacobian", lambda: self.cmap.jacobian(self.quad.nodes))

    def log_pow_inverse(self, eps):
        return self._once(("log_pow_inverse", eps), lambda: LogPow(eps).inverse(self.jacobian))

    @property
    def density(self):
        return self._once(
            "density",
            lambda: np.asarray(
                self.rho.on_disk(self.cmap, self.quad.nodes, pullback=self), dtype=float
            ),
        )

    @property
    def log_density(self):
        return self._once(
            "log_density",
            lambda: np.asarray(self.rho.log_on_disk(self.cmap, self.quad.nodes), dtype=float),
        )

    @property
    def area(self):
        return self._once("area", lambda: float(np.sum(self.quad.weights * self.jacobian)))

    @property
    def mass_density(self):
        """rho(phi(z_i)) * J(z_i) on the disk measure, the disk-side
        density-to-inverse-Jacobian ratio of the esssup and Lq functionals.
        Not kept: one product costs less than holding it for the scenario."""
        from .orlicz import SampledFunction

        values = self.density * self.jacobian
        return SampledFunction(values, self.quad.weights, self.quad.measure_id)

    def for_density(self, rho):
        """The pull-back of ``rho`` through the same map and nodes, sharing
        this one's Jacobian and image area."""
        other = Pullback(self.cmap, rho, self.quad)
        other._kept.update(jacobian=self.jacobian, area=self.area)
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
