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
cli         batch driver (``neumann-bounds`` command)
"""

__version__ = "0.1.0"

from . import bounds, conformal, densities, fem_oracle, orlicz, youngfn  # noqa: F401
from .bounds import BoundReport, ScenarioParams  # noqa: F401
from .conformal import (  # noqa: F401
    DiskQuadrature,
    IdentityMap,
    MoebiusDiskMap,
    PerturbedPowerMap,
    PolynomialMap,
    build_disk_quadrature,
    build_disk_quadrature_graded,
)
from .densities import (  # noqa: F401
    ConstantDensity,
    GaussianDensity,
    PullbackJacobianPower,
    PullbackOrliczCanceling,
)
from .orlicz import SampledFunction  # noqa: F401
