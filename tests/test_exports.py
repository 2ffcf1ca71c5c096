import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["bounds", "cholesky", "conformal", "densities", "fem_oracle", "orlicz", "youngfn"]
)
def test_every_exported_name_exists(module):
    # a stale ``__all__`` entry breaks ``from neumann_bounds.<module> import *``
    mod = importlib.import_module(f"neumann_bounds.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
