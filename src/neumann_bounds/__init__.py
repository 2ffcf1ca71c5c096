"""Analytic lower bounds for the first nonzero Neumann eigenvalue of the
planar Laplacian with density, on conformal images of the unit disk, with an
independent finite-element oracle for validation.

Modules
-------
youngfn     Young functions, conjugates, growth-condition probes
orlicz      Luxemburg/Orlicz norms on discrete quadrature measures
conformal   analytic map families, disk quadrature, pullbacks
densities   positive density fields (direct and pullback-defined)
spec        the ``kind key=value`` grammar of map and density specs
bounds      the eigenvalue lower-bound formulas and their constants
fem_oracle  P1 finite elements and the Bessel-root disk reference
cholesky    the oracle's sparse matrices and grounded sparse Cholesky
cli         batch driver (``neumann-bounds`` command)
"""

import importlib

__version__ = "0.1.0"

# Nothing loads on ``import neumann_bounds``: a submodule or re-exported name
# loads its module on first access (PEP 562), so the command's entry point
# runs before numpy loads (see "Parallel runs" in ``cli``).
_SUBMODULES = ("bounds", "cholesky", "conformal", "densities", "fem_oracle", "orlicz", "youngfn")
_EXPORTS = {
    "BoundReport": "bounds",
    "ScenarioParams": "bounds",
    "DiskQuadrature": "conformal",
    "IdentityMap": "conformal",
    "MoebiusDiskMap": "conformal",
    "PerturbedPowerMap": "conformal",
    "PolynomialMap": "conformal",
    "build_disk_quadrature": "conformal",
    "build_disk_quadrature_graded": "conformal",
    "ConstantDensity": "densities",
    "GaussianDensity": "densities",
    "PullbackJacobianPower": "densities",
    "PullbackOrliczCanceling": "densities",
    "SampledFunction": "orlicz",
}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
