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
            val, diag = bd.k_esssup_refined(pp_map, rho_one, cf.build_disk_quadrature(16, 16))
            assert val <= 2.25
            assert not diag["stalled"]
            assert diag["values"][0] <= diag["values"][1] <= diag["values"][2]
            assert diag["values"][2] == pytest.approx(2.25, rel=1e-3)
            assert diag["values"] == [2.246021830657997, 2.2489737140817634, 2.2497393755555737]
            assert diag["aitken"] == 2.25000752650543

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


def _logsumexp_cases():
    rng = np.random.default_rng(2024)
    cases = {f"normal-{n}": rng.standard_normal(n) for n in (1, 2, 7, 65536)}
    cases["spread-700"] = rng.uniform(-700.0, 700.0, 1000)
    ties = rng.standard_normal(50)
    ties[[3, 17, 41]] = ties.max() + 1.0
    cases["ties-at-max"] = ties
    cases["all-tied"] = np.full(9, -2.5)
    with_ninf = rng.standard_normal(20)
    with_ninf[[0, 5]] = -np.inf
    cases["with-neg-inf"] = with_ninf
    cases["all-neg-inf"] = np.full(4, -np.inf)
    with_pinf = rng.standard_normal(6)
    with_pinf[2] = np.inf
    cases["with-pos-inf"] = with_pinf
    return cases


@pytest.mark.parametrize("a", _logsumexp_cases().values(), ids=_logsumexp_cases())
def test_logsumexp_matches_scipy_bit_for_bit(a):
    from scipy.special import logsumexp

    assert bd._logsumexp(a) == float(logsumexp(a))


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
        # mp.log of a negative constant is complex, of zero -inf: both rejected
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


class TestMpmathShortcuts:
    """Each huge-argument shortcut returns the full formula's exact mpf."""

    @pytest.mark.parametrize("prec", [53, 120])
    @pytest.mark.parametrize("eps_exponent", [1.0, 2.0])
    def test_log_phi_inv_tiny(self, exp_args, prec, eps_exponent):
        grid = np.arange(-100.0, -20.0, 0.125)
        skipped = 0
        with mp.workprec(prec):
            for log_s in grid:
                calls = len(exp_args)
                got = yf.LogPow(eps_exponent).inverse_log_tiny(log_s)
                skipped += len(exp_args) == calls
                s = mp.mpf(log_s)
                full = s - eps_exponent * mp.log(1 + mp.log1p(mp.exp(s - 1)))
                assert got._mpf_ == full._mpf_, log_s
        assert 0 < skipped < len(grid)

    def test_finish_underflow(self, exp_args):
        grid = np.arange(-760.0, -730.0, 0.0625)
        skipped = 0
        for bound_log in grid:
            calls = len(exp_args)
            rep = bd._finish("m", mp.mpf(bound_log), {}, [], {})
            skipped += len(exp_args) == calls
            assert rep.bound == float(mp.exp(mp.mpf(bound_log))), bound_log
            assert (bd.FLAG_UNDERFLOW in rep.validity_flags) == (rep.bound == 0.0)
        assert 0 < skipped < len(grid)

    def test_chain_passes_no_huge_exp_argument(self, exp_args):
        # the full chain at alpha=12, K=1.05 has log Psi(T) ~ 6e127510; an
        # exp of such an argument costs seconds, and none may come back
        params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05, eps=2.0)
        rep = bd.mu_lower_orlicz_quasidisc(
            cf.PerturbedPowerMap(0.3, 2),
            dn.GaussianDensity(4.0),
            params,
            b_m_eps=0.6,
            quad=cf.build_disk_quadrature(48, 32),
        )
        assert exp_args
        huge = [abs(x) > 2**64 for x in exp_args]
        assert not any(huge)
        double_exponential = rep.intermediates["log_psi_of_t"] > mp.mpf(10) ** 127510
        assert double_exponential
        assert rep.bound == 0.0


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
