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

``DensityField.on_disk`` is the one gate for samples: it converts what the
kind's ``_sample(cmap, z, pullback)`` returns to a float array and raises
``DensityError`` unless every sample is positive and finite.  A kind
supplies only ``_sample``; the default evaluates ``on_domain`` at phi(z).
``pullback``, when given, is the ``Pullback`` whose nodes z are; the
pullback-defined kinds take J(z), and PhiInv(J(z)), from it.
A constructor rejects parameters out of range, non-finite ones included,
with ``ConfigError`` (``ParameterError`` where a Young function does).
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
    "SampledDensity",
    "DENSITY_KINDS",
    "density_from_spec",
]


class DensityField:
    """Base class; subclasses implement ``on_domain`` or override ``_sample``."""

    name = "density"

    def on_domain(self, x):
        """rho(x) at image points x (complex array)."""
        raise DensityError(
            f"{self.name} is defined via pullback; evaluate through the map"
        )

    def on_disk(self, cmap, z, pullback=None):
        """rho(phi(z)) at disk points z; every sample is positive and finite.

        ``pullback`` may share the samples of the map at the nodes z.
        """
        values = np.asarray(self._sample(cmap, z, pullback), dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise DensityError(f"{self.name}: density samples must be positive and finite")
        return values

    def _sample(self, cmap, z, pullback):
        return self.on_domain(cmap.map(z))

    def log_on_disk(self, cmap, z):
        """log rho(phi(z)); override when rho underflows linear evaluation."""
        return np.log(self.on_disk(cmap, z))

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
        if not np.isfinite(exponent):
            raise ConfigError(f"jacobian exponent must be finite, got {exponent}")
        self.exponent = float(exponent)
        self.name = f"pullback_jacobian_power(exponent={self.exponent:g})"

    def _sample(self, cmap, z, pullback):
        jac = cmap.jacobian(z) if pullback is None else pullback.jacobian
        return jac ** (-self.exponent)


class PullbackOrliczCanceling(DensityField):
    """rho such that rho(phi(z)) = Yinv(J(z)) / J(z) for Y = u log^eps(u+e).

    Cancels the Orlicz Jacobian functional exactly: the pulled-back
    integrand of that functional becomes identically one.
    """

    def __init__(self, eps):
        self.eps = float(eps)
        self._phi = LogPow(eps)  # range-checks eps
        self.name = f"pullback_orlicz_canceling(eps={self.eps:g})"

    def _sample(self, cmap, z, pullback):
        if pullback is None:
            jac = cmap.jacobian(z)
            return self._phi.inverse(jac) / jac
        return pullback.log_pow_inverse(self.eps) / pullback.jacobian


class SampledDensity(DensityField):
    """Density given by a table of pullback samples aligned with a quadrature.

    The table must match the node count of the quadrature the scenario uses;
    it cannot be evaluated at other points (the FEM oracle rejects it).
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.name = f"sampled({len(self.values)} pts)"
        # the table is its own samples: a bad value fails here, not in a route
        self.on_disk(None, self.values)

    def _sample(self, cmap, z, pullback):
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
