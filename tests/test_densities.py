import numpy as np
import pytest

from neumann_bounds import densities as dn
from neumann_bounds import youngfn as yf
from neumann_bounds.errors import ConfigError, DensityError


def test_constant(identity_map, quad64):
    rho = dn.ConstantDensity(2.5)
    assert np.all(rho.on_disk(identity_map, quad64.nodes) == 2.5)
    with pytest.raises(ConfigError):
        dn.ConstantDensity(0.0)


def test_gaussian_log_twin(identity_map, pp_map, quad64):
    rho = dn.GaussianDensity(4.0)
    expected = np.exp(-4.0 * np.abs(quad64.nodes) ** 2)
    assert np.max(np.abs(rho.on_disk(identity_map, quad64.nodes) - expected)) < 1e-15
    lin = rho.on_disk(pp_map, quad64.nodes)
    logv = rho.log_on_disk(pp_map, quad64.nodes)
    assert np.max(np.abs(np.log(lin) - logv)) < 1e-12
    # sharp variant underflows linear evaluation but the log twin stays exact
    sharp = dn.GaussianDensity(1e6)
    logs = sharp.log_on_disk(pp_map, quad64.nodes)
    assert np.all(np.isfinite(logs))


def test_jacobian_power_cancellation(pp_map, quad64):
    rho = dn.PullbackJacobianPower(1.0)
    jac = pp_map.jacobian(quad64.nodes)
    assert np.max(np.abs(rho.on_disk(pp_map, quad64.nodes) * jac - 1.0)) < 1e-12
    # the domain-side evaluation is undefined without the map
    with pytest.raises(DensityError):
        rho.on_domain(np.array([0.1 + 0.1j]))


def test_orlicz_canceling(pp_map, quad64):
    eps = 2.0
    rho = dn.PullbackOrliczCanceling(eps)
    jac = pp_map.jacobian(quad64.nodes)
    phi = yf.LogPow(eps)
    g = rho.on_disk(pp_map, quad64.nodes) * jac / phi.inverse(jac)
    assert np.max(np.abs(g - 1.0)) < 1e-12


def test_sampled_density(identity_map, quad64):
    rho = dn.SampledDensity(np.ones(len(quad64)))
    assert np.all(rho.on_disk(identity_map, quad64.nodes) == 1.0)
    with pytest.raises(DensityError):
        rho.on_disk(identity_map, quad64.nodes[:5])
    with pytest.raises(DensityError, match=r"^sampled\(2 pts\):"):
        dn.SampledDensity(np.array([1.0, -2.0]))


def test_density_from_spec(tmp_path):
    assert dn.density_from_spec("constant").c == 1.0
    assert dn.density_from_spec("constant c=2").c == 2.0
    assert dn.density_from_spec("Gaussian n=3").n == 3.0
    assert dn.density_from_spec("pullback_jacobian_power").exponent == 1.0
    assert dn.density_from_spec("pullback_jacobian_power exponent=0.5").exponent == 0.5
    assert dn.density_from_spec("pullback_orlicz_canceling eps=2").eps == 2.0
    path = tmp_path / "vals.txt"
    path.write_text("1.0 2.0\n3.0 4.0\n")
    rho = dn.density_from_spec(f"samples file={path}")
    assert list(rho.values) == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize(
    "spec, match",
    [
        ("fog", "unknown density kind 'fog'"),
        ("constant n=5", "unknown parameter 'n'"),
        ("gaussian", "missing parameter 'n'"),
        ("gaussian n=abc", "bad value 'abc' for n"),
        ("samples file=/nonexistent/vals.txt", "bad value .* for file"),
    ],
)
def test_density_spec_errors(spec, match):
    with pytest.raises(ConfigError, match=match):
        dn.density_from_spec(spec)

