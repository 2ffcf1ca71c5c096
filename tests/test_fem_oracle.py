import numpy as np
import pytest

from neumann_bounds import conformal as cf
from neumann_bounds import densities as dn
from neumann_bounds import fem_oracle as fo
from neumann_bounds import orlicz as ol
from neumann_bounds.errors import MeshError, ParameterError, SolverError

from fakes import CallableDensity


class TestMesh:
    def test_euler_characteristic(self, identity_map):
        for level in (1, 2, 3):
            mesh = fo.mesh_from_map(identity_map, level)
            assert mesh.euler_characteristic() == 1

    def test_disk_area_converges(self, identity_map):
        mesh3 = fo.mesh_from_map(identity_map, 3)
        assert mesh3.area() == pytest.approx(np.pi, abs=1e-2)
        # inscribed-polygon area is exactly 3R sin(pi / 3R)
        rings = 2**3
        assert mesh3.area() == pytest.approx(
            3 * rings * np.sin(np.pi / (3 * rings)), rel=1e-12
        )
        # O(h^2): deficit shrinks by ~4 per level
        d3 = np.pi - mesh3.area()
        d4 = np.pi - fo.mesh_from_map(identity_map, 4).area()
        assert d3 / d4 == pytest.approx(4.0, rel=0.05)

    def test_mapped_area_converges(self, pp_map):
        mesh4 = fo.mesh_from_map(pp_map, 4)
        assert mesh4.area() == pytest.approx(1.125 * np.pi, abs=5e-3)

    def test_level_range(self, identity_map):
        with pytest.raises(ParameterError):
            fo.mesh_from_map(identity_map, 0)
        with pytest.raises(ParameterError):
            fo.mesh_from_map(identity_map, 9)

    def test_positive_areas_and_boundary(self, pp_map):
        mesh = fo.mesh_from_map(pp_map, 3)
        assert np.all(mesh.triangle_areas() > 0)
        assert mesh.boundary.sum() == 6 * 2**3
        assert np.all(np.abs(mesh.disk_vertices[mesh.boundary]) == pytest.approx(1.0))

    def test_degenerate_rejected(self):
        class Collapse(cf.ConformalMap):
            name = "collapse"

            def map(self, z):
                z = np.asarray(z, dtype=complex)
                return z.real + 0j  # squashes onto the real axis

            def derivative(self, z):
                return np.full(np.shape(z), 0.5 + 0.0j)

        with pytest.raises(MeshError):
            fo.mesh_from_map(Collapse(), 2)

    def test_shared_triangulation_read_only(self, identity_map, pp_map):
        mesh = fo.mesh_from_map(pp_map, 3)
        assert mesh.triangles is fo.mesh_from_map(identity_map, 3).triangles
        with pytest.raises(ValueError):
            mesh.triangles[0, 0] = 1


class TestAssembly:
    def test_stiffness_kernel(self, identity_map, rho_one):
        mesh = fo.mesh_from_map(identity_map, 3)
        a_mat, _ = fo.assemble(mesh, rho_one)
        ones = np.ones(mesh.num_vertices)
        assert np.abs(a_mat @ ones).max() < 1e-10
        sym = a_mat - a_mat.T
        assert sym.nnz == 0 or np.abs(sym.data).max() < 1e-12

    def test_mass_total(self, identity_map, pp_map, rho_one):
        mesh = fo.mesh_from_map(identity_map, 3)
        _, m_mat = fo.assemble(mesh, rho_one)
        assert m_mat.sum() == pytest.approx(mesh.area(), rel=1e-12)
        mesh_pp = fo.mesh_from_map(pp_map, 3)
        _, m_pp = fo.assemble(mesh_pp, rho_one)
        assert m_pp.sum() == pytest.approx(mesh_pp.area(), rel=1e-12)

    def test_rayleigh_quotient_coordinate(self, identity_map, rho_one):
        # u = x: grad-energy pi, mass integral pi/4, quotient ~ 4 and always
        # at least the FEM minimum
        mesh = fo.mesh_from_map(identity_map, 5)
        a_mat, m_mat = fo.assemble(mesh, rho_one)
        u = mesh.vertices[:, 0].copy()
        ones = np.ones_like(u)
        u -= (u @ (m_mat @ ones)) / (ones @ (m_mat @ ones)) * ones
        quotient = (u @ (a_mat @ u)) / (u @ (m_mat @ u))
        assert quotient == pytest.approx(4.0, rel=1e-2)
        mu, _ = fo.first_nonzero_neumann(a_mat, m_mat)
        assert quotient >= mu

    def test_density_positivity_enforced(self, identity_map):
        mesh = fo.mesh_from_map(identity_map, 2)
        from neumann_bounds.errors import DensityError

        with pytest.raises(DensityError):
            fo.assemble(mesh, CallableDensity(lambda x: x.real, name="signed"))


class TestEigenvalue:
    def test_disk_reference_convergence(self, identity_map, rho_one):
        mus = {lvl: fo.mu_fem(identity_map, rho_one, lvl) for lvl in (3, 4, 5)}
        ref = fo.mu_disk_reference()
        # monotone from above, factor ~4 per level
        assert mus[3] > mus[4] > mus[5] > ref
        assert (mus[3] - mus[4]) / (mus[4] - mus[5]) == pytest.approx(4.0, abs=1.0)
        rich = fo.mu_fem_richardson(identity_map, rho_one, 5)
        assert rich == pytest.approx(ref, rel=5e-3)

    def test_density_scaling_exact(self, identity_map):
        mesh = fo.mesh_from_map(identity_map, 3)
        a1, m1 = fo.assemble(mesh, dn.ConstantDensity(1.0))
        a2, m2 = fo.assemble(mesh, dn.ConstantDensity(2.0))
        mu1, r1 = fo.first_nonzero_neumann(a1, m1)
        mu2, r2 = fo.first_nonzero_neumann(a2, m2)
        assert mu1 / mu2 == pytest.approx(2.0, rel=1e-12)
        assert r1 < 1e-8 and r2 < 1e-8

    def test_residual_and_orthogonality(self, pp_map):
        mesh = fo.mesh_from_map(pp_map, 4)
        a_mat, m_mat = fo.assemble(mesh, dn.GaussianDensity(1.0))
        mu, resid = fo.first_nonzero_neumann(a_mat, m_mat)
        assert resid <= 1e-8
        # recompute the eigenvector for the orthogonality check
        import scipy.linalg

        w, v = scipy.linalg.eigh(a_mat.toarray(), m_mat.toarray())
        u = v[:, 1]
        ones = np.ones(mesh.num_vertices)
        assert abs(u @ (m_mat @ ones)) <= 1e-8 * np.linalg.norm(u) * np.linalg.norm(ones)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "cmap",
        [cf.IdentityMap(), cf.PerturbedPowerMap(0.5, 3), cf.MoebiusDiskMap(0.3 + 0.2j)],
        ids=lambda m: m.name,
    )
    @pytest.mark.parametrize(
        "rho", [dn.ConstantDensity(1.0), dn.GaussianDensity(1.0)], ids=lambda r: r.name
    )
    def test_lanczos_matches_dense_reference(self, cmap, rho, level):
        import scipy.linalg

        a_mat, m_mat = fo.assemble(fo.mesh_from_map(cmap, level), rho)
        mu, resid = fo.first_nonzero_neumann(a_mat, m_mat)
        w = scipy.linalg.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
        assert mu == pytest.approx(w[1], rel=1e-10)
        assert resid <= 1e-8

    def test_no_convergence_raises_solver_error(self, identity_map, rho_one, stalled_eigsh):
        a_mat, m_mat = fo.assemble(fo.mesh_from_map(identity_map, 2), rho_one)
        with pytest.raises(SolverError, match="failed to converge"):
            fo.first_nonzero_neumann(a_mat, m_mat)

    def test_pullback_density_on_mesh(self, pp_map):
        # canceling density: mu equals the disk reference up to O(h^2)
        mu = fo.mu_fem_richardson(pp_map, dn.PullbackJacobianPower(1.0), 5)
        assert mu == pytest.approx(fo.mu_disk_reference(), rel=2e-2)


class TestBesselReference:
    def test_root_value(self):
        # frozen 12-digit oracle value for the first positive root of J1'
        assert fo.bessel_j1prime_root() == pytest.approx(1.84118378134066, abs=2e-14)
        assert fo.mu_disk_reference() == pytest.approx(3.38995771667189, abs=2e-13)

    def test_defining_equation(self):
        assert abs(fo.j1_prime(fo.bessel_j1prime_root())) < 1e-12

    def test_series_against_scipy(self):
        import scipy.special as sps

        x = np.linspace(0.05, 3.8, 60)
        assert np.max(np.abs(fo._bessel_j0_series(x) - sps.j0(x))) < 1e-14
        assert np.max(np.abs(fo._bessel_j1_series(x) - sps.j1(x))) < 1e-14
        assert fo.bessel_j1prime_root() == pytest.approx(sps.jnp_zeros(1, 1)[0], abs=1e-13)

    def test_fem_cross_check(self, identity_map, rho_one):
        rich = fo.mu_fem_richardson(identity_map, rho_one, 5)
        assert rich == pytest.approx(fo.mu_disk_reference(), rel=5e-3)


class TestEmbeddingConstantEstimate:
    def test_positive_and_monotone(self):
        v8 = fo.b_m2_disk_estimate(8)
        v12 = fo.b_m2_disk_estimate(12)
        assert 0.0 < v8 <= v12
        assert np.isfinite(v12)

    def test_family_size_floor(self):
        with pytest.raises(ParameterError):
            fo.b_m2_disk_estimate(4)

    def test_coordinate_trial_median_zero(self, quad64):
        f = ol.SampledFunction(quad64.nodes.real, quad64.weights, quad64.measure_id)
        assert ol.weighted_median(f) == pytest.approx(0.0, abs=1e-12)
