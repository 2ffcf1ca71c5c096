import numpy as np
import pytest

from neumann_bounds import conformal as cf
from neumann_bounds import densities as dn


@pytest.fixture(scope="session")
def quad64():
    return cf.build_disk_quadrature(64, 64)


@pytest.fixture(scope="session")
def quad32():
    return cf.build_disk_quadrature(32, 32)


@pytest.fixture(scope="session")
def identity_map():
    return cf.IdentityMap()


@pytest.fixture(scope="session")
def pp_map():
    return cf.PerturbedPowerMap(0.5, 2)


@pytest.fixture(scope="session")
def rho_one():
    return dn.ConstantDensity(1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(711)


@pytest.fixture()
def stalled_lanczos(monkeypatch):
    """Make every shift-invert Lanczos call reach its step cap unconverged."""
    from neumann_bounds import fem_oracle

    monkeypatch.setattr(fem_oracle, "_LANCZOS_MAX_STEPS", 1)


@pytest.fixture()
def traced_peak():
    """The peak, in MiB, that a call of ``fn()`` allocates above its start,
    as ``tracemalloc`` sees it; numpy reports its buffers to it."""
    import tracemalloc

    def peak(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - start) / 2**20
        finally:
            tracemalloc.stop()

    return peak
