"""Positive density fields on the image domain.

Densities come in two flavors.  Direct ones (constant, Gaussian, callable)
are functions of the image point x and can be evaluated anywhere in the
domain.  Pullback-defined ones are specified through the conformal map and
only make sense composed with it; they exist because several bounds become
exact for densities that cancel the Jacobian.

Every density exposes ``on_disk(cmap, z)`` returning rho(phi(z)) at disk
points z, which is the only access path the norm and bound pipelines use.
The FEM oracle also evaluates densities through disk preimages, so pullback
kinds work there without inverting the map.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DensityError
from .spec import parse_spec
from .youngfn import LogPow

__all__ = [
    "DensityField",
    "ConstantDensity",
    "GaussianDensity",
    "PullbackJacobianPower",
    "PullbackOrliczCanceling",
    "CallableDensity",
    "SampledDensity",
    "DENSITY_KINDS",
    "density_from_spec",
]


class DensityField:
    """Base class; subclasses implement ``on_domain`` or override ``on_disk``."""

    name = "density"

    def on_domain(self, x):
        """rho(x) at image points x (complex array)."""
        raise DensityError(
            f"{self.name} is defined via pullback; evaluate through the map"
        )

    def on_disk(self, cmap, z):
        """rho(phi(z)) at disk points z."""
        values = np.asarray(self.on_domain(cmap.map(z)), dtype=float)
        self._check(values)
        return values

    def log_on_disk(self, cmap, z):
        """log rho(phi(z)); override when rho underflows linear evaluation."""
        return np.log(self.on_disk(cmap, z))

    def _check(self, values):
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise DensityError(f"{self.name}: density samples must be positive and finite")

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"


class ConstantDensity(DensityField):
    def __init__(self, c=1.0):
        if not (c > 0 and np.isfinite(c)):
            raise ConfigError(f"constant density must be positive, got {c}")
        self.c = float(c)
        self.name = f"constant(c={self.c:g})"

    def on_domain(self, x):
        return np.full(np.shape(x), self.c, dtype=float)


class GaussianDensity(DensityField):
    """rho(x) = exp(-n |x|^2); the mass-concentration family."""

    def __init__(self, n):
        if not (n > 0 and np.isfinite(n)):
            raise ConfigError(f"gaussian sharpness must be positive, got {n}")
        self.n = float(n)
        self.name = f"gaussian(n={self.n:g})"

    def on_domain(self, x):
        x = np.asarray(x, dtype=complex)
        return np.exp(-self.n * (x.real**2 + x.imag**2))

    def log_on_disk(self, cmap, z):
        x = np.asarray(cmap.map(z), dtype=complex)
        return -self.n * (x.real**2 + x.imag**2)


class PullbackJacobianPower(DensityField):
    """rho such that rho(phi(z)) = J(z)^(-exponent).

    exponent=1 is the inverse-Jacobian density that makes the esssup
    functional identically one; exponent=2/q plays the same role for the
    Lq functional.
    """

    def __init__(self, exponent=1.0):
        self.exponent = float(exponent)
        self.name = f"pullback_jacobian_power(exponent={self.exponent:g})"

    def on_disk(self, cmap, z):
        values = cmap.jacobian(z) ** (-self.exponent)
        values = np.asarray(values, dtype=float)
        self._check(values)
        return values


class PullbackOrliczCanceling(DensityField):
    """rho such that rho(phi(z)) = Yinv(J(z)) / J(z) for Y = u log^eps(u+e).

    Cancels the Orlicz Jacobian functional exactly: the pulled-back
    integrand of that functional becomes identically one.
    """

    def __init__(self, eps):
        self.eps = float(eps)
        self._phi = LogPow(eps)
        self.name = f"pullback_orlicz_canceling(eps={self.eps:g})"

    def on_disk(self, cmap, z):
        jac = np.atleast_1d(cmap.jacobian(z))
        values = self._phi.inverse(jac) / jac
        values = values.reshape(np.shape(z)) if np.ndim(z) else float(values[0])
        values = np.asarray(values, dtype=float)
        self._check(values)
        return values


class CallableDensity(DensityField):
    """Wrap an arbitrary positive function of the image point."""

    def __init__(self, fn, name="callable"):
        self.fn = fn
        self.name = name

    def on_domain(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=complex)), dtype=float)


class SampledDensity(DensityField):
    """Density given by a table of pullback samples aligned with a quadrature.

    The table must match the node count of the quadrature the scenario uses;
    it cannot be evaluated at other points (the FEM oracle rejects it).
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.name = f"sampled({len(self.values)} pts)"
        self._check(self.values)

    def on_disk(self, cmap, z):
        z = np.asarray(z)
        if z.size != self.values.size:
            raise DensityError(
                f"sampled density has {self.values.size} entries, "
                f"quadrature has {z.size} nodes"
            )
        return self.values.reshape(z.shape)


def _load_samples(path):
    return np.loadtxt(path, dtype=float).ravel()


#: config-grammar kind -> (constructor, {parameter: cast of its value text})
DENSITY_KINDS = {
    "constant": (ConstantDensity, {"c": float}),
    "gaussian": (GaussianDensity, {"n": float}),
    "pullback_jacobian_power": (PullbackJacobianPower, {"exponent": float}),
    "pullback_orlicz_canceling": (PullbackOrliczCanceling, {"eps": float}),
    # a text file with one value per quadrature node
    "samples": (lambda file: SampledDensity(file), {"file": _load_samples}),
}


def density_from_spec(spec):
    """Construct a density from config text such as ``gaussian n=4``."""
    return parse_spec(DENSITY_KINDS, spec, "density")
