import dataclasses

import numpy as np
import pytest

from neumann_bounds import cholesky
from neumann_bounds import conformal as cf
from neumann_bounds import densities as dn
from neumann_bounds import fem_oracle as fo
from neumann_bounds import orlicz as ol
from neumann_bounds.cholesky import CSRMatrix
from neumann_bounds.errors import MeshError, ParameterError, SolverError

from fakes import CallableDensity, csr_from_dense


def _scipy_csr(mat):
    """The oracle's matrix as a scipy CSR matrix, for scipy's matrix API."""
    import scipy.sparse as sp

    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


class TestMesh:
    def test_euler_characteristic(self, identity_map):
        for level in (1, 2, 3):
            mesh = fo.mesh_from_map(identity_map, level)
            edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
            num_edges = len(np.unique(edges, axis=0))
            assert mesh.num_vertices - num_edges + len(mesh.triangles) == 1

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
        assert np.all(mesh.triangle_areas > 0)
        # the outer ring, the one on the unit circle, has 6 * 2^level vertices
        assert np.isclose(np.abs(mesh.disk_vertices), 1.0).sum() == 6 * 2**3

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
        a_mat = _scipy_csr(a_mat)
        sym = a_mat - a_mat.T
        assert sym.nnz == 0 or np.abs(sym.data).max() < 1e-12

    def test_mass_total(self, identity_map, pp_map, rho_one):
        mesh = fo.mesh_from_map(identity_map, 3)
        m_mat = _scipy_csr(fo.assemble(mesh, rho_one)[1])
        assert m_mat.sum() == pytest.approx(mesh.area(), rel=1e-12)
        mesh_pp = fo.mesh_from_map(pp_map, 3)
        m_pp = _scipy_csr(fo.assemble(mesh_pp, rho_one)[1])
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

    def test_matrices_exactly_symmetric(self, pp_map):
        # (i, j) and (j, i) sum the same symmetric element entries in the
        # same triangle order
        a_mat, m_mat = fo.assemble(fo.mesh_from_map(pp_map, 4), dn.GaussianDensity(2.0))
        for mat in map(_scipy_csr, (a_mat, m_mat)):
            assert mat.has_canonical_format and (mat != mat.T).nnz == 0

    def test_own_triangles_get_their_own_plan(self, pp_map):
        # a mesh whose triangles are not its level's shared array gets a CSR
        # plan of its own, with the bits of the level plan's matrices
        rho = dn.GaussianDensity(2.0)
        mesh = fo.mesh_from_map(pp_map, 3)
        own = dataclasses.replace(mesh, triangles=mesh.triangles.copy())
        assert own.triangles is not fo._disk_rings(3)[1]
        for want, got in zip(fo.assemble(mesh, rho), fo.assemble(own, rho)):
            for attr in ("indptr", "indices", "data"):
                want_arr, got_arr = getattr(want, attr), getattr(got, attr)
                assert want_arr.dtype == got_arr.dtype
                assert want_arr.tobytes() == got_arr.tobytes(), attr

    def test_density_positivity_enforced(self, identity_map):
        mesh = fo.mesh_from_map(identity_map, 2)
        from neumann_bounds.errors import DensityError

        with pytest.raises(DensityError):
            fo.assemble(mesh, CallableDensity(lambda x: x.real, name="signed"))


class TestEigenvalue:
    def test_start_vector_is_splitmix64(self):
        # the numpy uint64 lanes against Python's unbounded integers, wrapped
        # by hand; the vector depends on n alone, and a prefix on nothing else
        mask = 2**64 - 1

        def splitmix64(i):
            z = (i * 0x9E3779B97F4A7C15 + fo._EIG_SEED) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            return (z >> 11) * 2.0**-53 - 0.5

        v = fo._start_vector(1000)
        assert v.dtype == np.float64
        assert v.tolist() == [splitmix64(i) for i in range(1000)]
        assert np.array_equal(fo._start_vector(10), v[:10])
        assert -0.5 <= v.min() and v.max() < 0.5 and abs(v.mean()) < 0.05

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
        # the stiffness depends on the mesh alone: built once, shared, read-only
        assert a1 is a2 and not a1.data.flags.writeable
        mu1, r1 = fo.first_nonzero_neumann(a1, m1)
        mu2, r2 = fo.first_nonzero_neumann(a2, m2)
        assert mu1 / mu2 == pytest.approx(2.0, rel=1e-12)
        assert r1 < 1e-8 and r2 < 1e-8

    def test_stiffness_factored_once_and_two_kept(self, monkeypatch, rho_one):
        factored, real_init = [], cholesky.Factor.__init__
        monkeypatch.setattr(
            cholesky.Factor, "__init__",
            lambda self, plan, data: factored.append(data) or real_init(self, plan, data),
        )
        meshes = [fo.mesh_from_map(cf.PerturbedPowerMap(0.3, 2), level) for level in (2, 3, 4)]
        for mesh in meshes:
            for rho in (rho_one, dn.GaussianDensity(2.0), rho_one):
                fo.first_nonzero_neumann(*fo.assemble(mesh, rho))
        assert len(factored) == 3
        kept = [a for a, _ in fo._factors]
        assert len(kept) == 2 and all(a is m.stiffness for a, m in zip(kept, meshes[1:]))

    def test_writeable_stiffness_is_factored_per_call(self, identity_map, rho_one):
        # a matrix that can change keeps no factor: mu follows the change
        a_ro, m_mat = fo.assemble(fo.mesh_from_map(identity_map, 3), rho_one)
        a_mat = CSRMatrix(a_ro.data.copy(), a_ro.pattern)
        mu, _ = fo.first_nonzero_neumann(a_mat, m_mat)
        a_mat.data *= 2.0
        mu2, resid = fo.first_nonzero_neumann(a_mat, m_mat)
        assert mu2 == pytest.approx(2.0 * mu, rel=1e-12) and resid < 1e-8
        assert all(a is not a_mat for a, _ in fo._factors)

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

    def test_no_convergence_raises_solver_error(self, identity_map, rho_one, stalled_lanczos):
        a_mat, m_mat = fo.assemble(fo.mesh_from_map(identity_map, 2), rho_one)
        with pytest.raises(SolverError, match="failed to converge"):
            fo.first_nonzero_neumann(a_mat, m_mat)

    @pytest.mark.parametrize(
        "cmap, rho",
        [(cf.IdentityMap(), dn.ConstantDensity(1.0)),  # mu_1 is double
         (cf.PerturbedPowerMap(0.5, 3), dn.GaussianDensity(4.0))],
        ids=["identity-constant", "pp-gaussian"],
    )
    def test_one_eigensolver_path(self, monkeypatch, cmap, rho):
        # the oracle runs its own Lanczos loop and never reaches ARPACK
        import scipy.sparse.linalg as spla

        def no_arpack(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(spla, "eigsh", no_arpack)
        solves, real_solve = [], fo.first_nonzero_neumann
        monkeypatch.setattr(
            fo, "first_nonzero_neumann", lambda a, m: solves.append(real_solve(a, m)) or solves[-1]
        )
        mu = fo.mu_fem_richardson(cmap, rho, 4)
        (mu3, r3), (mu4, r4) = solves
        assert mu == mu4 + (mu4 - mu3) / 3.0 and 0.0 < mu4 < mu3
        assert r3 <= 1e-8 and r4 <= 1e-8

    def test_growing_basis_keeps_the_bits(self, monkeypatch, pp_map):
        a_mat, m_mat = fo.assemble(fo.mesh_from_map(pp_map, 3), dn.GaussianDensity(2.0))
        expected = fo.first_nonzero_neumann(a_mat, m_mat)
        monkeypatch.setattr(fo, "_LANCZOS_ROWS", 1)  # doubled at steps 1, 2, 4, 8, ...
        assert fo.first_nonzero_neumann(a_mat, m_mat) == expected

    def test_disconnected_stiffness_raises_solver_error(self):
        # two components: A[1:, 1:] keeps the second one's constant kernel
        path = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        a_mat = csr_from_dense(np.kron(np.eye(2), path))
        with pytest.raises(SolverError, match="factorization failed"):
            fo.first_nonzero_neumann(a_mat, csr_from_dense(np.eye(6)))

    def test_pullback_density_on_mesh(self, pp_map):
        # canceling density: mu equals the disk reference up to O(h^2)
        mu = fo.mu_fem_richardson(pp_map, dn.PullbackJacobianPower(1.0), 5)
        assert mu == pytest.approx(fo.mu_disk_reference(), rel=2e-2)


class TestBesselReference:
    def test_root_value(self):
        # frozen 12-digit oracle value for the first positive root of J1'
        assert fo.bessel_j1prime_root() == pytest.approx(1.84118378134066, abs=2e-14)
        assert fo.mu_disk_reference() == pytest.approx(3.38995771667189, abs=2e-13)

    def test_root_bits(self):
        # the bisection runs the series on floats, which give the bits the
        # same series gives on arrays
        assert fo.bessel_j1prime_root() == 1.8411837813406593
        x = np.linspace(1.5, 2.2, 29)
        assert [fo.j1_prime(float(v)) for v in x] == list(fo.j1_prime(x))

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
