import inspect
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from neumann_bounds import bounds as bnd
from neumann_bounds import conformal as cf
from neumann_bounds import densities as dn
from neumann_bounds import youngfn as yf
from neumann_bounds.errors import ConfigError, DensityError, DomainError, ParameterError

from fakes import CallableDensity


class TestQuadrature:
    def test_weights_sum_to_pi(self):
        quad = cf.build_disk_quadrature(8, 16)
        assert quad.weights.sum() == pytest.approx(np.pi, rel=1e-12)
        assert np.all(quad.weights > 0)
        assert np.abs(quad.nodes).max() < 1.0

    def test_polynomial_moments(self, quad64):
        r2 = np.abs(quad64.nodes) ** 2
        assert np.sum(quad64.weights * r2) == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert np.sum(quad64.weights * quad64.nodes.real) == pytest.approx(0.0, abs=1e-14)
        # x^2 y^2: closed form pi/24
        x, y = quad64.nodes.real, quad64.nodes.imag
        assert np.sum(quad64.weights * x**2 * y**2) == pytest.approx(np.pi / 24.0, rel=1e-12)

    def test_radial_exactness_at_order_boundary(self):
        # Gauss-Legendre in t = r^2 with n nodes is exact for t^(2n-1),
        # i.e. r^(4n-2): integral of r^(2m) over the disk is pi/(m+1)
        quad = cf.build_disk_quadrature(4, 8)
        m = 2 * 4 - 1  # t^7 integrates exactly
        got = np.sum(quad.weights * np.abs(quad.nodes) ** (2 * m))
        assert got == pytest.approx(np.pi / (m + 1), rel=1e-13)

    def test_radial_exactness_at_order_boundary_256(self):
        # the same boundary at the benchmark's order: t^511 on the 256-node
        # rule, whose largest node carries 511 times its rounding
        quad = cf.build_disk_quadrature(256, 8)
        m = 2 * 256 - 1
        got = np.sum(quad.weights * np.abs(quad.nodes) ** (2 * m))
        assert got == pytest.approx(np.pi / (m + 1), rel=1e-13)

    def test_invalid_orders(self):
        with pytest.raises(ConfigError):
            cf.build_disk_quadrature(3, 16)
        with pytest.raises(ConfigError):
            cf.build_disk_quadrature(8, 4)

    def test_rule_is_cached_and_read_only(self):
        quad = cf.build_disk_quadrature(12, 20)
        assert cf.build_disk_quadrature(12, 20) is quad
        assert cf.build_disk_quadrature(12, 24) is not quad
        assert cf.build_disk_quadrature(16, 20) is not quad
        with pytest.raises(ValueError):
            quad.nodes[0] = 0.0
        with pytest.raises(ValueError):
            quad.weights *= 2.0
        assert quad.weights.sum() == pytest.approx(np.pi, rel=1e-12)

    def test_rule_shared_by_racing_threads(self):
        # concurrent first calls may each build the rule; every caller must
        # still see the same read-only values
        cf.build_disk_quadrature.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(cf.build_disk_quadrature, 32, 48) for _ in range(32)]
                quads = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        first = quads[0]
        for quad in quads:
            assert not quad.nodes.flags.writeable and not quad.weights.flags.writeable
            assert np.array_equal(quad.nodes, first.nodes)
            assert np.array_equal(quad.weights, first.weights)
        cached = cf.build_disk_quadrature(32, 48)
        assert any(quad is cached for quad in quads)

    def test_graded_rule_matches_plain(self, pp_map):
        plain = cf.build_disk_quadrature(64, 16)
        graded = cf.build_disk_quadrature_graded(16)
        assert graded.weights.sum() == pytest.approx(np.pi, rel=1e-14)
        a1 = cf.image_area(pp_map, plain)
        a2 = cf.image_area(pp_map, graded)
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_graded_rule_peaked_integrand(self):
        # exp(-c r^2) with c = 25000: exact value pi (1 - e^-c) / c
        graded = cf.build_disk_quadrature_graded(16)
        c = 25000.0
        got = np.sum(graded.weights * np.exp(-c * np.abs(graded.nodes) ** 2))
        assert got == pytest.approx(np.pi / c, rel=1e-13)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [7, 8, 9, 47, 48, 96, 256])
    def test_even_moments(self, n):
        # sum w x^(2k) = 2/(2k+1) for every k < n: the rule is exact to
        # degree 2n - 1, and the odd moments vanish by symmetry
        x, w = cf.gauss_legendre(n)
        k = np.arange(n)
        moments = np.sum(w * x ** (2 * k[:, None]), axis=1)
        assert np.max(np.abs(moments - 2.0 / (2 * k + 1))) <= 1e-14

    @pytest.mark.parametrize("n", [7, 9, 47])
    def test_odd_order_has_an_exact_center(self, n):
        x, w = cf.gauss_legendre(n)
        assert len(x) == len(w) == n
        center = x[n // 2]
        assert center == 0.0 and not np.signbit(center)

    @pytest.mark.parametrize("n", [4, 7, 8, 47, 48, 96, 256])
    def test_symmetric_bit_for_bit(self, n):
        x, w = cf.gauss_legendre(n)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)

    @pytest.mark.parametrize("n", [4, 7, 8, 47, 48, 96, 256])
    def test_nodes_match_leggauss(self, n):
        # leggauss runs LAPACK's eigvalsh; it serves here as a reference only
        ref, _ = np.polynomial.legendre.leggauss(n)
        x, _ = cf.gauss_legendre(n)
        assert np.max(np.abs(x - ref)) <= 2e-16


class TestMaps:
    def test_identity(self, identity_map, quad64):
        assert identity_map.jacobian(0.3 + 0.1j) == pytest.approx(1.0)
        assert cf.image_area(identity_map, quad64) == pytest.approx(np.pi, rel=1e-12)

    def test_jacobian_examples(self, pp_map):
        assert pp_map.jacobian(0.0) == pytest.approx(1.0, rel=1e-14)
        # |1 + c z|^2 at z -> 1 approaches |1.5|^2
        assert pp_map.jacobian(1.0 - 1e-12) == pytest.approx(2.25, rel=1e-9)
        # ... which the analytic sup |phi'| = 1 + |c| attains
        assert pp_map.derivative_sup_bound == pytest.approx(1.5, rel=1e-14)

    def test_jacobian_domain(self, pp_map):
        with pytest.raises(DomainError):
            pp_map.jacobian(1.0)
        with pytest.raises(DomainError):
            pp_map.jacobian(1.2 + 0.1j)

    def test_image_area_closed_forms(self, quad64):
        pp = cf.PerturbedPowerMap(0.5, 2)
        assert cf.image_area(pp, quad64) == pytest.approx(1.125 * np.pi, rel=1e-10)
        assert pp.closed_form_area == pytest.approx(1.125 * np.pi, rel=1e-14)
        poly = cf.PolynomialMap([1.0, 0.0, 0.1])
        assert cf.image_area(poly, quad64) == pytest.approx(
            poly.closed_form_area, rel=1e-10
        )
        assert poly.closed_form_area == pytest.approx(np.pi * (1.0 + 3 * 0.01), rel=1e-14)
        moeb = cf.MoebiusDiskMap(0.4 + 0.2j)
        assert cf.image_area(moeb, quad64) == pytest.approx(np.pi, rel=1e-10)

    def test_quadrature_refinement_stability(self):
        pp = cf.PerturbedPowerMap(0.3, 3)
        a1 = cf.image_area(pp, cf.build_disk_quadrature(32, 32))
        a2 = cf.image_area(pp, cf.build_disk_quadrature(64, 64))
        assert abs(a2 - a1) < 1e-10

    def test_univalence_certificate_rejects(self):
        # Moebius with |a| >= 1/sqrt(2) fails the sufficient Re phi' > 0 test
        with pytest.raises(ParameterError):
            cf.MoebiusDiskMap(0.75)
        with pytest.raises(ParameterError):
            cf.PerturbedPowerMap(1.2, 2)
        with pytest.raises(ParameterError):
            cf.PolynomialMap([1.0, 0.0, 0.5])

    def test_identity_and_perturbed_power_are_polynomial_maps(self, quad32, rng):
        # coefficients (1) and (1, 0, ..., 0, c/k), evaluated by Horner's rule
        r, t = rng.uniform(0.0, 0.999, 400), rng.uniform(size=400)
        z = np.concatenate([quad32.nodes, r * np.exp(2j * np.pi * t)])
        ident = cf.IdentityMap()
        assert isinstance(ident, cf.PolynomialMap) and list(ident.coeffs) == [1.0]
        assert ident.map(z).tobytes() == z.tobytes()
        assert np.all(ident.jacobian(z) == 1.0)

        def exact(w, c, k):
            # z + (c/k) z^k and |1 + c z^(k-1)|^2 in rationals, rounded once
            def mul(u, v):
                return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

            zz, cc = (Fraction(w.real), Fraction(w.imag)), (Fraction(c.real), Fraction(c.imag))
            cw = cc
            for _ in range(k - 1):
                cw = mul(cw, zz)  # c z^(k-1)
            phi = mul(cw, zz)
            phi = complex(float(zz[0] + phi[0] / k), float(zz[1] + phi[1] / k))
            return phi, float((1 + cw[0]) ** 2 + cw[1] ** 2)

        c = 0.4 + 0.3j
        for k in (2, 3, 5):
            pp = cf.PerturbedPowerMap(c, k)
            assert isinstance(pp, cf.PolynomialMap) and (pp.c, pp.k) == (c, k)
            assert list(pp.coeffs) == [1.0] + [0.0] * (k - 2) + [c / k]
            phi, jac = (np.array(v) for v in zip(*(exact(w, c, k) for w in z)))
            assert np.all(np.abs(pp.map(z) - phi) <= 4 * np.spacing(np.abs(phi)))
            assert np.all(np.abs(pp.jacobian(z) - jac) <= 4 * np.spacing(jac))
        with pytest.raises(ParameterError, match=r"^perturbed_power\(c=1.2\+0j,k=2\): univ"):
            cf.PerturbedPowerMap(1.2, 2)

        # the in-place loops keep the bits of the out-of-place Horner loop
        poly = cf.PolynomialMap([1.0, 0.05 - 0.02j, 0.1j, 0.01])
        phi, dphi = np.zeros_like(z), np.zeros_like(z)
        for j in range(len(poly.coeffs), 0, -1):
            phi = (phi + poly.coeffs[j - 1]) * z
            dphi = dphi * z + j * poly.coeffs[j - 1]
        assert poly.map(z).tobytes() == phi.tobytes()
        assert poly.derivative(z).tobytes() == dphi.tobytes()

    def test_certified_maps_injective_on_samples(self, rng):
        maps = [
            cf.PerturbedPowerMap(0.5, 2),
            cf.PerturbedPowerMap(0.3, 3),
            cf.PolynomialMap([1.0, 0.05, 0.1]),
            cf.MoebiusDiskMap(0.3 + 0.3j),
        ]
        z1 = (rng.uniform(0, 0.999, 10**4) * np.exp(2j * np.pi * rng.uniform(size=10**4)))
        z2 = (rng.uniform(0, 0.999, 10**4) * np.exp(2j * np.pi * rng.uniform(size=10**4)))
        keep = np.abs(z1 - z2) > 1e-9
        z1, z2 = z1[keep], z2[keep]
        for cmap in maps:
            assert np.all(np.abs(cmap.map(z1) - cmap.map(z2)) > 0)

    def test_change_of_variables_identities(self, pp_map, quad64):
        # disk mass pi equals the image integral of the inverse-map Jacobian,
        # pulled back: integral over disk of (1/J) * J dy
        jac = pp_map.jacobian(quad64.nodes)
        back = np.sum(quad64.weights * (1.0 / jac) * jac)
        assert back == pytest.approx(np.pi, rel=1e-8)
        # image area as the disk integral of J
        assert np.sum(quad64.weights * jac) == pytest.approx(
            pp_map.closed_form_area, rel=1e-8
        )

    def test_map_from_spec(self):
        assert isinstance(cf.map_from_spec("identity"), cf.IdentityMap)
        pp = cf.map_from_spec("Perturbed_Power c=0.5 k=2")
        assert isinstance(pp, cf.PerturbedPowerMap)
        assert (pp.c, pp.k) == (0.5, 2)
        poly = cf.map_from_spec("polynomial coeffs=1,0,0.1j")
        assert list(poly.coeffs) == [1.0, 0.0, 0.1j]
        assert cf.map_from_spec("moebius a=0.3+0.2j").a == 0.3 + 0.2j

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("", "empty map spec"),
            ("spiral", "unknown map kind 'spiral'"),
            ("identity x", "expected key=value"),
            ("perturbed_power c=0.5 k=2 kk=3", "unknown parameter 'kk'"),
            ("perturbed_power c=0.5 k=2 c=0.3", "'c' given twice"),
            ("perturbed_power c=0.5", "missing parameter 'k'"),
            ("perturbed_power c=0.5 k=2.5", "bad value '2.5' for k"),
            ("moebius a=abc", "bad value 'abc' for a"),
            ("polynomial coeffs=1,,2", "bad value '1,,2' for coeffs"),
        ],
    )
    def test_map_spec_errors(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            cf.map_from_spec(spec)

    def test_spec_range_errors_pass_through(self):
        with pytest.raises(ParameterError):
            cf.map_from_spec("moebius a=0.9")

    @pytest.mark.parametrize("table", [cf.MAP_KINDS, dn.DENSITY_KINDS], ids=["map", "density"])
    def test_kind_schemas_match_constructors(self, table):
        for ctor, schema in table.values():
            assert set(schema) == set(inspect.signature(ctor).parameters)


class TestPullback:
    def test_canceling_density(self, pp_map, quad64):
        rho = dn.PullbackJacobianPower(1.0)
        g = cf.Pullback(pp_map, rho, quad64).mass_density
        assert np.max(np.abs(g - 1.0)) < 1e-12

    def test_samples_are_kept_and_shared(self, pp_map, quad32):
        calls = []
        rho = CallableDensity(lambda x: calls.append(1) or np.exp(-np.abs(x) ** 2))
        pb = cf.Pullback(pp_map, rho, quad32)
        bnd.mu_lower_esssup(pp_map, rho, quad32, pullback=pb)
        bnd.mu_lower_kq(pp_map, rho, 1.5, 4.0, quad32, pullback=pb)
        bnd.mu_lower_orlicz(pp_map, rho, 2.0, 1.0, quad32, pullback=pb)
        assert len(calls) == 1
        assert not pb.jacobian.flags.writeable and not pb.density.flags.writeable
        other = pb.for_density(dn.ConstantDensity(2.0))
        assert other.jacobian is pb.jacobian and other.area == pb.area
        assert np.all(other.density == 2.0)

    @pytest.mark.parametrize("eps", [2.0, 3.0])
    def test_pullback_densities_share_the_map_samples(self, pp_map, quad32, monkeypatch, eps):
        # the densities defined through J take it, and PhiInv(J), from the
        # pull-back, which gives the samples on_disk computes on its own
        jacobians, inverses = [], []
        jacobian, inverse = cf.PerturbedPowerMap.jacobian, yf.LogPow.inverse
        monkeypatch.setattr(
            cf.PerturbedPowerMap, "jacobian", lambda *a: jacobians.append(1) or jacobian(*a)
        )
        monkeypatch.setattr(
            yf.LogPow, "inverse", lambda phi, t: inverses.append(np.size(t)) or inverse(phi, t)
        )
        for rho in (dn.PullbackJacobianPower(0.5), dn.PullbackOrliczCanceling(2.0)):
            alone = rho.on_disk(pp_map, quad32.nodes)
            jacobians.clear(), inverses.clear()
            pb = cf.Pullback(pp_map, rho, quad32)
            kphi = bnd.k_phi(pp_map, rho, yf.LogPow(eps), quad32, pullback=pb)
            assert np.array_equal(pb.density, alone)
            assert len(jacobians) == 1
            # the norm's own bracket inverts two scalars
            assert inverses.count(len(quad32)) == 1 + (eps != getattr(rho, "eps", eps))
            assert kphi == bnd.k_phi(pp_map, rho, yf.LogPow(eps), quad32)

    def test_gaussian_maps_the_nodes_once(self, pp_map, quad32, monkeypatch):
        # a Gaussian's samples and its log twin both read phi(z) off the
        # pull-back: one map evaluation per (map, quadrature), whichever
        # Gaussian and routes share it
        maps = []
        polynomial_map = cf.PolynomialMap.map
        monkeypatch.setattr(
            cf.PolynomialMap, "map", lambda cmap, z: maps.append(np.size(z)) or polynomial_map(cmap, z)
        )
        params = bnd.ScenarioParams(K=1.05)
        expected = {}
        for quad in (quad32, cf.build_disk_quadrature(16, 8)):
            pb = cf.Pullback(pp_map, None, quad)
            for n in (2.0, 4.0):
                rho = dn.GaussianDensity(n)
                shared = pb.for_density(rho)
                reports = [
                    bnd.mu_lower_esssup(pp_map, rho, quad, pullback=shared),
                    bnd.mu_lower_quasidisc(pp_map, rho, params, quad, pullback=shared),
                    bnd.mu_lower_orlicz_quasidisc(pp_map, rho, params, None, quad, pullback=shared),
                ]
                expected[len(quad), n] = [(r.bound, r.bound_log) for r in reports]
        assert maps == [len(quad32), 128]
        # the same numbers as routes that map the nodes on their own
        for quad in (quad32, cf.build_disk_quadrature(16, 8)):
            for n in (2.0, 4.0):
                rho = dn.GaussianDensity(n)
                alone = [
                    bnd.mu_lower_esssup(pp_map, rho, quad),
                    bnd.mu_lower_quasidisc(pp_map, rho, params, quad),
                    bnd.mu_lower_orlicz_quasidisc(pp_map, rho, params, None, quad),
                ]
                assert [(r.bound, r.bound_log) for r in alone] == expected[len(quad), n]

    def test_failed_sample_is_not_kept(self, identity_map, quad32):
        pb = cf.Pullback(identity_map, dn.GaussianDensity(5000.0), quad32)
        for _ in range(2):
            with pytest.raises(DensityError):
                pb.density
        assert np.isfinite(pb.log_density).all()

    def test_route_rejects_another_pullback(self, pp_map, identity_map, rho_one, quad32, quad64):
        pb = cf.Pullback(pp_map, rho_one, quad32)
        for cmap, quad in ((identity_map, quad32), (pp_map, quad64)):
            with pytest.raises(ParameterError, match="another map"):
                bnd.k_esssup(cmap, rho_one, quad, pullback=pb)
