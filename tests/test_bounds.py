import math

import mpmath as mp
import numpy as np
import pytest

from neumann_bounds import bounds as bd
from neumann_bounds import conformal as cf
from neumann_bounds import densities as dn
from neumann_bounds import fem_oracle as fo
from neumann_bounds import youngfn as yf
from neumann_bounds.errors import ParameterError


class TestDiskConstants:
    def test_b_qp_values(self):
        assert bd.b_qp_disk(2.0, 2.0) == pytest.approx(4.0, rel=1e-14)
        assert bd.b_qp_disk(2.0, 4.0) == pytest.approx(
            2.0 * 3.0**0.75 / np.pi**0.25, rel=1e-14
        )

    def test_b_qp_boundary_excluded(self):
        with pytest.raises(ParameterError):
            bd.b_qp_disk(1.0, 2.0)  # kappa = 1/2
        with pytest.raises(ParameterError):
            bd.b_qp_disk(4.0, 3.0)  # kappa < 0

    def test_mu_bracket(self):
        lo, hi = bd.mu_pq_disk_bracket(2.0, 2.0)
        assert (lo, hi) == (pytest.approx(1.0 / 16), pytest.approx(1.0 / 4))
        lo, hi = bd.mu_pq_disk_bracket(2.0, 4.0)
        assert lo < hi
        assert lo == pytest.approx(bd.b_qp_disk(2.0, 4.0) ** -2, rel=1e-14)


class TestEsssup:
    def test_identity_constant(self, identity_map, rho_one, quad64):
        assert bd.k_esssup(identity_map, rho_one, quad64) == 1.0

    def test_perturbed_grid_max_converges(self, pp_map, rho_one, quad64):
        for _ in range(2):  # the second pass reads the doubled grids from the cache
            values = [
                bd.k_esssup(pp_map, rho_one, cf.build_disk_quadrature(n, n)) for n in (16, 32, 64)
            ]
            assert values[0] <= values[1] <= values[2] <= 2.25
            assert values[2] == pytest.approx(2.25, rel=1e-3)
            assert values == [2.246021830657997, 2.2489737140817634, 2.2497393755555737]

    def test_canceling_density_exact_one(self, pp_map, quad64):
        k = bd.k_esssup(pp_map, dn.PullbackJacobianPower(1.0), quad64)
        assert k == pytest.approx(1.0, abs=1e-12)

    def test_bound_identity(self, identity_map, rho_one, quad64):
        r = bd.mu_lower_esssup(identity_map, rho_one, quad64)
        assert r.bound == pytest.approx(fo.mu_disk_reference(), rel=1e-12)
        assert r.validity_flags == []
        assert r.bound_log == pytest.approx(math.log(r.bound), rel=1e-12)

    def test_bound_perturbed(self, pp_map, rho_one, quad64):
        r = bd.mu_lower_esssup(pp_map, rho_one, quad64)
        assert r.bound == pytest.approx(
            fo.mu_disk_reference() / r.intermediates["k_esssup"], rel=1e-12
        )
        assert r.bound == pytest.approx(3.3899577 / 2.25, rel=1e-3)

    def test_tightness_all_maps(self, quad64):
        rho = dn.PullbackJacobianPower(1.0)
        for cmap in (
            cf.IdentityMap(),
            cf.PerturbedPowerMap(0.5, 2),
            cf.PerturbedPowerMap(0.3, 3),
            cf.PolynomialMap([1.0, 0.05, 0.1]),
        ):
            r = bd.mu_lower_esssup(cmap, rho, quad64)
            assert r.bound == pytest.approx(fo.mu_disk_reference(), rel=1e-9)


class TestKq:
    def test_identity_value(self, identity_map, rho_one, quad64):
        assert bd.k_q(identity_map, rho_one, 4.0, quad64) == pytest.approx(
            np.sqrt(np.pi), rel=1e-12
        )

    def test_cancellation_reduces_to_area(self, pp_map, quad64):
        # rho canceling the Jacobian power: K_q = area^((q-2)/q)
        q = 4.0
        rho = dn.PullbackJacobianPower(2.0 / q)
        area = cf.image_area(pp_map, quad64)
        assert bd.k_q(pp_map, rho, q, quad64) == pytest.approx(
            area ** ((q - 2.0) / q), rel=1e-10
        )

    def test_monotone_in_q_closed_form(self, identity_map, rho_one, quad64):
        qs = [2.5, 3.0, 4.0, 6.0, 10.0]
        vals = [bd.k_q(identity_map, rho_one, q, quad64) for q in qs]
        for q, v in zip(qs, vals):
            assert v == pytest.approx(np.pi ** ((q - 2.0) / q), rel=1e-12)
        assert np.all(np.diff(vals) > 0)

    def test_homogeneity(self, pp_map, quad64):
        base = bd.k_q(pp_map, dn.ConstantDensity(1.0), 4.0, quad64)
        assert bd.k_q(pp_map, dn.ConstantDensity(3.0), 4.0, quad64) == pytest.approx(
            3.0 * base, rel=1e-12
        )

    def test_q_range(self, identity_map, rho_one, quad64):
        with pytest.raises(ParameterError):
            bd.k_q(identity_map, rho_one, 2.0, quad64)


def _log_norm_cases():
    # (log f, log w) pairs; the last has r log f above 709, where exp overflows
    rng = np.random.default_rng(2024)
    cases = {f"normal-{n}": rng.standard_normal(n) for n in (1, 2, 7, 65536)}
    cases["spread-700"] = rng.uniform(-700.0, 700.0, 1000)
    ties = rng.standard_normal(50)
    ties[[3, 17, 41]] = ties.max() + 1.0
    cases["ties-at-max"] = ties
    cases["all-tied"] = np.full(9, -2.5)
    cases["beyond-exp-range"] = rng.uniform(280.0, 300.0, 100)
    return {k: (v, np.log(rng.uniform(0.5, 2.0, v.size))) for k, v in cases.items()}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("log_f,log_w", _log_norm_cases().values(), ids=_log_norm_cases())
def test_log_norm_matches_mpmath(log_f, log_w):
    # log (sum w f^r)^(1/r) within two ulps of the 40-digit sum of the same doubles
    r = 2.5
    got = bd._log_norm(log_f, log_w, r)
    with mp.workdps(40):
        terms = (mp.exp(r * mp.mpf(a) + mp.mpf(b)) for a, b in zip(log_f, log_w))
        want = mp.log(mp.fsum(terms)) / r
    assert abs(got - want) <= 2 * math.ulp(float(want))


class TestMuLowerKq:
    def test_composition(self, identity_map, rho_one, quad64):
        p, q = 1.5, 4.0
        r = bd.mu_lower_kq(identity_map, rho_one, p, q, quad64)
        b = bd.b_qp_disk(p, q)
        kq = np.sqrt(np.pi)
        sharper = 1.0 / (np.pi ** (2 * (2 - p) / p) * b * b * kq)
        assert r.bound == pytest.approx(sharper, rel=1e-12)
        theorem = bd.mu_pq_disk_bracket(p, q)[0] / (
            2.0 ** (2 * p) * np.pi ** (2 * (2 - p) / p) * kq
        )
        assert r.intermediates["bound_log_theorem_form"] == pytest.approx(
            math.log(theorem), rel=1e-12
        )
        assert r.bound >= theorem  # the default is the sharper form

    def test_special_case_display(self, identity_map, quad64):
        # canceling density on the identity: K_q = pi^((q-2)/q) and the
        # theorem form reduces to bracket.lo / (2^2p pi^(2(2-p)/p) pi^((q-2)/q))
        p, q = 1.5, 4.0
        rho = dn.PullbackJacobianPower(2.0 / q)
        r = bd.mu_lower_kq(identity_map, rho, p, q, quad64)
        expected_thm = bd.mu_pq_disk_bracket(p, q)[0] / (
            2.0 ** (2 * p) * np.pi ** (2 * (2 - p) / p) * np.pi ** ((q - 2) / q)
        )
        assert math.exp(r.intermediates["bound_log_theorem_form"]) == pytest.approx(
            expected_thm, rel=1e-10
        )

    def test_range_validation(self, identity_map, rho_one, quad64):
        with pytest.raises(ParameterError):
            bd.mu_lower_kq(identity_map, rho_one, 1.5, 6.0, quad64)  # q = 2p/(2-p)
        with pytest.raises(ParameterError):
            bd.mu_lower_kq(identity_map, rho_one, 2.0, 4.0, quad64)


class TestLogCJ:
    def test_linear_in_area(self):
        v1, _, i1 = bd.log_c_j(3.0, 1.05, 1.0)
        v2, _, i2 = bd.log_c_j(3.0, 1.05, 2.0)
        # the area-free part is bit-identical, so the identity holds exactly
        # through the decomposition; the raw difference of the ~5e4-magnitude
        # floats resolves only to a couple of ulps (~1.5e-11)
        assert i1["log_c_j_area_free"] == i2["log_c_j_area_free"]
        assert i2["ln_area"] - i1["ln_area"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert v2 - v1 == pytest.approx(math.log(2.0), abs=4.0 * np.spacing(v1))

    def test_exp_term_value(self):
        _, _, inter = bd.log_c_j(3.0, 1.05, np.pi)
        expected = 1.05**2 * np.pi**2 * (2 + np.pi**4) ** 2 / (2 * math.log(3.0))
        assert inter["exp_term"] == pytest.approx(expected, rel=1e-14)
        assert inter["exp_term"] == pytest.approx(4.894e4, rel=1e-3)

    def test_nu_flag(self):
        _, flags, inter = bd.log_c_j(3.0, 1.05, np.pi)
        assert flags == [bd.FLAG_NU_GE_ONE]
        # nu = 10^12 * (1/2) * (24 pi^2 1.1025)^3 >> 1
        nu = 1e12 * 0.5 * (24 * np.pi**2 * 1.05**2) ** 3
        assert inter["ln_nu"] == pytest.approx(math.log(nu), rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.0 + 1e-14, 2.0 + 1e-13])
    def test_nu_below_one(self, alpha):
        # within about 1.9e-13 of alpha = 2, nu < 1 (ln nu = -2.86 and -0.58
        # here): no flag, and the docstring formula at 40 digits, taken at
        # the same double alpha
        value, flags, inter = bd.log_c_j(alpha, 1.0, np.pi)
        assert flags == [] and inter["ln_nu"] < 0.0
        with mp.workdps(40):
            a, pi = mp.mpf(alpha), mp.pi
            nu = mp.mpf(10) ** (4 * a) * (a - 2) / (a - 1) * (24 * pi**2) ** a
            c_alpha = mp.mpf(10) ** 6 / ((a - 1) * (1 - nu)) ** (1 / a)
            want = (
                2 * mp.log(c_alpha)
                + (2 / a - 1) * mp.log(pi)
                - mp.log(4)
                + pi**2 * (2 + pi**4) ** 2 / (2 * mp.log(3))
                + mp.log(np.pi)
            )
            assert abs(inter["ln_abs_one_minus_nu"] - mp.log(1 - nu)) <= 1e-14 * abs(mp.log(1 - nu))
        assert abs(value - want) <= 1e-15 * want

    def test_recomposition(self):
        value, _, inter = bd.log_c_j(4.0, 1.2, 1.7)
        recomposed = (
            2.0 * inter["ln_c_alpha"]
            + 2.0 * math.log(1.2)
            + (2.0 / 4.0 - 1.0) * math.log(np.pi)
            - math.log(4.0)
            + inter["exp_term"]
            + inter["ln_area"]
        )
        assert recomposed == pytest.approx(value, rel=1e-12)

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            bd.log_c_j(2.0, 1.05, 1.0)
        with pytest.raises(ParameterError):
            bd.log_c_j(50.0, 1.05, 1.0)  # above 2K^2/(K^2-1) ~ 21.5
        with pytest.raises(ParameterError):
            bd.log_c_j(3.0, 0.9, 1.0)
        with pytest.raises(ParameterError):
            bd.log_c_j(3.0, 1.05, -1.0)


class TestQuasidisc:
    def test_exponent(self):
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05)
        assert params.lebesgue_exponent() == pytest.approx(2.5, rel=1e-14)

    def test_report(self, identity_map, rho_one, quad64):
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05, eps=2.0)
        r = bd.mu_lower_quasidisc(identity_map, rho_one, params, quad64)
        assert np.isfinite(r.bound_log)
        assert bd.FLAG_NU_GE_ONE in r.validity_flags
        assert bd.FLAG_UNDERFLOW in r.validity_flags
        assert r.bound == 0.0
        # recompose the bound log from the logged intermediates
        kappa = params.kappa
        recomposed = (
            -math.log(4.0)
            - (2.0 * (1.5 - 2.0) / 1.5 - 2.0 * kappa) * math.log(np.pi)
            - (2.0 - 2.0 * kappa) * math.log((1.0 - kappa) / (0.5 - kappa))
            - (4.0 - 2.0) / 4.0 * r.intermediates["log_rho_norm_s"]
            - (2.0 * 12.0 / (4.0 * 10.0)) * r.intermediates["log_c_j"]
        )
        assert recomposed == pytest.approx(float(r.bound_log), rel=1e-12)

    def test_alpha_range(self, identity_map, rho_one, quad64):
        with pytest.raises(ParameterError):
            bd.mu_lower_quasidisc(
                identity_map, rho_one, bd.ScenarioParams(p=1.5, q=4.0, alpha=3.5), quad64
            )  # alpha <= 2q/(q-2) = 4


class TestGaussianSweep:
    def test_slope_and_domination(self, identity_map):
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05, eps=2.0)
        quad = cf.build_disk_quadrature_graded(16)
        ns = [10, 100, 1000, 10000]
        reports = bd.gaussian_sweep(ns, params, identity_map, quad)
        slope = bd.fit_loglog_slope(ns, reports)
        assert slope == pytest.approx(0.2, rel=0.05)
        for r in reports:
            assert (
                r.intermediates["log_rho_norm_s"]
                <= r.intermediates["log_rho_norm_dominated"] + 1e-12
            )

    def test_slope_closed_form(self):
        # the least-squares line through (log n, bound_log), against
        # LAPACK's fit, used here as a reference only; one distinct n leaves
        # the slope undefined
        ns = [10, 100, 1000, 10000]
        y = [0.2 * math.log(n) - 3.0 + 1e-3 * (-1) ** i for i, n in enumerate(ns)]
        reports = [bd.BoundReport(method="x", bound_log=v, bound=math.exp(v)) for v in y]
        expected = np.polyfit(np.log(ns), y, 1)[0]
        assert bd.fit_loglog_slope(ns, reports) == pytest.approx(expected, rel=1e-13)
        assert math.isnan(bd.fit_loglog_slope([10, 10], reports[:2]))

    def test_analytic_norm_value(self, identity_map):
        # n = 1 on the unit disk: quadrature must not exceed (pi/s)^(1/s)
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05)
        s = params.lebesgue_exponent()
        quad = cf.build_disk_quadrature_graded(16)
        (report,) = bd.gaussian_sweep([1], params, identity_map, quad)
        dom = (math.log(math.pi) - math.log(s)) / s
        assert report.intermediates["log_rho_norm_dominated"] == pytest.approx(dom, rel=1e-14)
        assert report.intermediates["log_rho_norm_s"] <= dom


class TestKPhi:
    def test_identity_constant(self, identity_map, rho_one, quad64):
        phi = yf.LogLinear()
        got = bd.k_phi(identity_map, rho_one, phi, quad64)
        expected = (1.0 / phi.inverse(1.0)) / phi.inverse(1.0 / np.pi)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_canceling_density(self, pp_map, quad64):
        eps = 2.0
        phi_eps = yf.LogPow(eps)
        rho = dn.PullbackOrliczCanceling(eps)
        got = bd.k_phi(pp_map, rho, phi_eps, quad64)
        area = cf.image_area(pp_map, quad64)
        assert got == pytest.approx(1.0 / phi_eps.inverse(1.0 / area), rel=1e-8)

    def test_homogeneity(self, pp_map, quad64):
        phi = yf.LogPow(2.0)
        base = bd.k_phi(pp_map, dn.ConstantDensity(1.0), phi, quad64)
        got = bd.k_phi(pp_map, dn.ConstantDensity(2.0), phi, quad64)
        assert got == pytest.approx(2.0 * base, rel=1e-9)

    @pytest.mark.parametrize("map_spec", ["identity", "perturbed_power c=0.5 k=3"])
    @pytest.mark.parametrize(
        "rho", [dn.ConstantDensity(1.0), dn.GaussianDensity(4.0)], ids=["one", "gauss4"]
    )
    def test_power_two_is_a_weighted_l2_norm(self, map_spec, rho, quad64):
        # Phi(u) = u^2 has PhiInv(J) = sqrt(J), so k_phi = sqrt(sum w rho^2 J^2),
        # to the Luxemburg search's 1e-12 relative stop
        cmap = cf.map_from_spec(map_spec)
        got = bd.k_phi(cmap, rho, yf.PowerP(2.0), quad64)
        pb = cf.Pullback(cmap, rho, quad64)
        want = math.sqrt(np.sum(quad64.weights * pb.density**2 * pb.jacobian**2))
        assert got == pytest.approx(want, rel=1e-12)


class TestMuLowerOrlicz:
    def test_canceling_special_case(self, identity_map, quad64):
        eps = 2.0
        rho = dn.PullbackOrliczCanceling(eps)
        r = bd.mu_lower_orlicz(identity_map, rho, eps, b_m_eps=1.0, quad=quad64)
        phi_eps = yf.LogPow(eps)
        expected = phi_eps.inverse(1.0 / np.pi) / 18.0
        assert r.bound == pytest.approx(expected, rel=1e-8)
        assert bd.FLAG_CONSTANT_CONVENTION in r.validity_flags

    def test_conservative_convention(self, identity_map, rho_one, quad64):
        r = bd.mu_lower_orlicz(identity_map, rho_one, 2.0, b_m_eps=0.8, quad=quad64)
        # the alternative (12) convention is larger; 18 is the safe default
        assert r.intermediates["bound_log_alt_convention"] > float(r.bound_log)
        assert math.exp(r.intermediates["bound_log_alt_convention"]) == pytest.approx(
            r.bound * 1.5, rel=1e-12
        )
        # both Poincare-constant conventions carried
        assert r.intermediates["poincare_upper_proof"] == pytest.approx(
            2.0 * math.sqrt(3.0) * 0.8 * math.sqrt(r.intermediates["k_phi"]), rel=1e-12
        )

    def test_rho_scaling(self, identity_map, quad64):
        r1 = bd.mu_lower_orlicz(identity_map, dn.ConstantDensity(1.0), 2.0, 1.0, quad64)
        r2 = bd.mu_lower_orlicz(identity_map, dn.ConstantDensity(2.0), 2.0, 1.0, quad64)
        assert r2.bound == pytest.approx(r1.bound / 2.0, rel=1e-9)

    def test_default_b_source(self, identity_map, rho_one, quad32):
        r = bd.mu_lower_orlicz(identity_map, rho_one, 2.0, quad=quad32)
        assert r.intermediates["b_m_eps_source"] == "trial_estimate"
        assert r.intermediates["b_m_eps"] > 0

    def test_default_b_is_the_trial_estimate_bit_for_bit(self):
        # the default is pinned as a double; a fresh run of the estimate,
        # past its cache, must still give exactly that double
        assert bd.embedding_constant(None) == (bd._B_M2_DISK_ESTIMATE, "trial_estimate")
        assert bd._B_M2_DISK_ESTIMATE.hex() == fo.b_m2_disk_estimate.__wrapped__().hex()

    @pytest.mark.parametrize("eps, b_m_eps", [(math.nan, 1.0), (2.0, math.nan), (2.0, math.inf)])
    def test_non_finite_parameters(self, identity_map, rho_one, quad32, eps, b_m_eps):
        with pytest.raises(ParameterError):
            bd.mu_lower_orlicz(identity_map, rho_one, eps, b_m_eps, quad32)


@pytest.fixture(scope="module")
def report(pp_map, rho_one):
    params = bd.ScenarioParams(p=1.5, q=4.0, alpha=4.0, K=1.2, eps=2.0)
    return bd.mu_lower_orlicz_quasidisc(
        pp_map, rho_one, params, b_m_eps=0.6, quad=cf.build_disk_quadrature(48, 32)
    )


class TestOrliczQuasidisc:
    @pytest.mark.parametrize("b_m_eps", [0.0, -1.0])
    def test_nonpositive_embedding_constant(self, pp_map, rho_one, b_m_eps):
        # the chain takes the log of the constant, so it must be positive
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=4.0, K=1.2, eps=2.0)
        with pytest.raises(ParameterError):
            bd.mu_lower_orlicz_quasidisc(
                pp_map, rho_one, params, b_m_eps=b_m_eps, quad=cf.build_disk_quadrature(48, 32)
            )

    def test_log_c_tilde_finite(self, report):
        lct = report.intermediates["log_c_tilde_j"]
        assert mp.isfinite(lct)
        assert lct > 0
        assert mp.isfinite(report.bound_log)

    def test_positive_in_extended_arithmetic(self, report):
        assert mp.exp(report.bound_log) > 0
        assert report.bound == 0.0
        assert bd.FLAG_UNDERFLOW in report.validity_flags
        assert bd.FLAG_NU_GE_ONE in report.validity_flags

    def test_recomposition(self, report):
        inter = report.intermediates
        recomposed = mp.log(288.0) + mp.log(inter["c_psi"]) - inter["log_phi_inv_of_inv_psi"]
        assert abs(recomposed - inter["log_c_tilde_j"]) <= 1e-12 * abs(recomposed)
        bound_recomposed = (
            mp.mpf(inter["log_phi_eps_inv_of_inv_norm"])
            - inter["log_c_tilde_j"]
            - 2 * mp.log(inter["b_m_eps"])
        )
        assert abs(bound_recomposed - report.bound_log) <= 1e-12 * abs(bound_recomposed)

    def test_log_t_composition(self, report):
        inter = report.intermediates
        alpha = 4.0
        expected = 0.5 * (alpha - 2) * math.log(alpha / (alpha - 2)) + 0.5 * alpha * inter[
            "log_c_j"
        ]
        assert inter["log_t"] == pytest.approx(expected, rel=1e-14)


def _mp_log_log_psi(alpha, x):
    """log log Psi at log w = x, from the full formula at 40 digits, with
    y = e^x:  log Psi = log(2/alpha) + (alpha-2)/2 (x + y + log1p(-e^(1-y))).
    The last term is below e^-40000 wherever this is called, far below 40
    digits, and mpmath would take seconds for its exp."""
    with mp.workdps(40):
        y = mp.exp(mp.mpf(x))
        assert y > 1e4
        return mp.log(mp.log(mp.mpf(2) / alpha) + mp.mpf(alpha - 2) / 2 * (x + y))


def _mp_log_abs(value):
    """log |value| at 40 digits, for a float or a SignedExp."""
    with mp.workdps(40):
        return mp.log(abs(mp.mpf(value)))


class TestLogLogChain:
    """The chain's doubles against 40-digit mpmath references."""

    @pytest.mark.parametrize("wrap", ["float", "signed_exp"])
    @pytest.mark.parametrize("eps_exponent", [1.0, 2.0])
    def test_inverse_log_of_a_tiny_target(self, wrap, eps_exponent):
        # across where the correction eps log(1 + e^(x-1)) underflows: a
        # SignedExp below -746 comes back as it is, one in range as its
        # float's root, and each root is within three ulps of 40 digits
        phi = yf.LogPow(eps_exponent)
        for log_s in np.arange(-800.0, -1.0, 0.125):
            arg = float(log_s) if wrap == "float" else yf.SignedExp(-1.0, math.log(-log_s))
            got = phi.inverse_log(arg)
            if wrap == "signed_exp":
                if float(arg) < -746.0:
                    assert got is arg
                    got = float(arg)
                else:
                    assert log_s >= -746.5
                    assert got == phi.inverse_log(float(arg))
            with mp.workdps(40):
                f = lambda x: x + eps_exponent * mp.log(mp.log(mp.exp(x) + mp.e)) - float(arg)
                root = mp.findroot(f, mp.mpf(got))
                assert abs(got - root) <= 3 * math.ulp(float(root)), log_s

    def test_finish_underflow(self):
        # across the subnormal range, for a float or a SignedExp bound_log:
        # the bound is within an ulp of the 40-digit exp of its float, 0.0
        # exactly where that exp rounds to 0.0, and flagged exactly then
        grid = [*np.arange(-760.0, -730.0, 0.0625), -745.13, -745.1, -745.05, -745.0]
        values = [*grid, *(yf.SignedExp(-1.0, math.log(-x)) for x in grid)]
        values += [yf.SignedExp(-1.0, 1e3), yf.SignedExp(-1.0, 293604.46875859057764)]
        for bound_log in values:
            rep = bd._finish("m", bound_log, {}, [], {})
            if isinstance(bound_log, yf.SignedExp):
                assert rep.bound_log is bound_log
            else:
                assert type(rep.bound_log) is float and rep.bound_log == bound_log
            with mp.workdps(40):
                want = float(mp.exp(mp.mpf(float(bound_log))))
            assert abs(rep.bound - want) <= math.ulp(want), bound_log
            assert (rep.bound == 0.0) == (want == 0.0), bound_log
            assert (bd.FLAG_UNDERFLOW in rep.validity_flags) == (rep.bound == 0.0)
        # the window the old -745.0 cut sent to 0.0 keeps its subnormal
        assert bd._finish("m", -745.1, {}, [], {}).bound == 5e-324

    def test_chain_runs_in_log_log_doubles(self):
        # at alpha=12, K=1.05, log Psi(T) ~ 6e127510: each chain value is
        # +-e^l for the one l of log Psi(T), whose O(10) addends fall below
        # its last bit, and l is the full formula's to 1e-10
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05, eps=2.0)
        rep = bd.mu_lower_orlicz_quasidisc(
            cf.PerturbedPowerMap(0.3, 2),
            dn.GaussianDensity(4.0),
            params,
            b_m_eps=0.6,
            quad=cf.build_disk_quadrature(48, 32),
        )
        inter = rep.intermediates
        ell = inter["log_psi_of_t"].log_abs
        assert ell > 127510 * math.log(10.0)
        assert inter["log_psi_of_t"] == yf.SignedExp(1.0, ell)
        assert inter["log_phi_inv_of_inv_psi"] == yf.SignedExp(-1.0, ell)
        assert inter["log_c_tilde_j"] == yf.SignedExp(1.0, ell)
        assert rep.bound_log == yf.SignedExp(-1.0, ell)
        assert rep.bound == 0.0
        x = float(yf.LogLinear().inverse_log(inter["log_t"]))
        want = _mp_log_log_psi(12.0, x)
        assert abs(ell - want) <= 1e-10 * want

    def test_every_admissible_log_t_lies_beyond_double_range(self):
        # K in [1.0001, 10], alpha across (2, 2K^2/(K^2-1)), area in
        # [1e-6, 1e3]: log_c_j >= 4.4e4, so Psi(T) takes the SignedExp path,
        # whose l is the full formula's to 1e-10, and the chain's float
        # additions are mpmath's to one ulp of l
        for K in np.geomspace(1.0001, 10.0, 7):
            asup = bd.ScenarioParams(K=K).alpha_sup()
            for frac in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6):
                alpha = 2.0 + frac * (asup - 2.0)
                psi = yf.PsiAlpha(alpha)
                for area in (1e-6, 1.0, 1e3):
                    lcj = bd.log_c_j(alpha, K, area)[0]
                    log_t = 0.5 * (alpha - 2.0) * math.log(alpha / (alpha - 2.0)) + 0.5 * alpha * lcj
                    log_psi_t = psi.log_eval_from_log(log_t)
                    assert isinstance(log_psi_t, yf.SignedExp), (K, alpha, area)
                    x = float(yf.LogLinear().inverse_log(log_t))
                    want = _mp_log_log_psi(alpha, x)
                    assert abs(log_psi_t.log_abs - want) <= 1e-10 * want, (K, alpha, area)
                    log_phi_inv = yf.LogLinear().inverse_log(-log_psi_t)
                    log_c_tilde = math.log(288.0) + math.log(2.5) - log_phi_inv
                    bound_log = -1.2 - log_c_tilde - 2.0 * math.log(0.6)
                    with mp.workdps(40):
                        mp_c_tilde = math.log(288.0) + math.log(2.5) - mp.mpf(log_phi_inv)
                        mp_bound_log = -1.2 - mp_c_tilde - 2.0 * math.log(0.6)
                    for got, ref in ((log_c_tilde, mp_c_tilde), (bound_log, mp_bound_log)):
                        assert got.sign == mp.sign(ref)
                        assert abs(got.log_abs - _mp_log_abs(ref)) <= math.ulp(got.log_abs)


class TestHomogeneityAcrossMethods:
    def test_minus_one_homogeneity_of_bounds(self, pp_map, quad64):
        c = 4.2
        for build in (
            lambda rho: bd.mu_lower_esssup(pp_map, rho, quad64),
            lambda rho: bd.mu_lower_kq(pp_map, rho, 1.5, 4.0, quad64),
            lambda rho: bd.mu_lower_orlicz(pp_map, rho, 2.0, 1.0, quad64),
        ):
            b1 = build(dn.ConstantDensity(1.0)).bound
            bc = build(dn.ConstantDensity(c)).bound
            assert bc == pytest.approx(b1 / c, rel=1e-9)

    def test_quasidisc_scaling_in_log(self, identity_map, quad64):
        # the jacobian-free route carries the density norm to the power
        # (q-2)/q, so its bound scales as c^(-(q-2)/q) rather than c^-1
        # (see the decisions ledger); assert the formula's own scaling
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05)
        c = 3.0
        r1 = bd.mu_lower_quasidisc(identity_map, dn.ConstantDensity(1.0), params, quad64)
        rc = bd.mu_lower_quasidisc(identity_map, dn.ConstantDensity(c), params, quad64)
        assert float(r1.bound_log) - float(rc.bound_log) == pytest.approx(
            (params.q - 2.0) / params.q * math.log(c), rel=1e-9
        )


def test_flags_empty_implies_finite_log(identity_map, pp_map, rho_one, quad64):
    reports = [
        bd.mu_lower_esssup(identity_map, rho_one, quad64),
        bd.mu_lower_esssup(pp_map, dn.GaussianDensity(2.0), quad64),
        bd.mu_lower_kq(pp_map, rho_one, 1.5, 4.0, quad64),
    ]
    for r in reports:
        assert r.validity_flags == []
        assert np.isfinite(float(r.bound_log))
