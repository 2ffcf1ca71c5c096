import dataclasses

import numpy as np
import pytest

from neumann_bounds import cholesky
from neumann_bounds import conformal as cf
from neumann_bounds import densities as dn
from neumann_bounds import fem_oracle as fo
from neumann_bounds.errors import SolverError

from fakes import csr_from_dense

MAPS = [cf.IdentityMap(), cf.PerturbedPowerMap(0.5, 3), cf.MoebiusDiskMap(0.3 + 0.2j)]


def _agrees_with_dense(a_mat):
    """The grounded factor's solve against a dense solve of A[1:, 1:], for
    two right-hand sides; the largest relative difference."""
    factor = cholesky.Factor(a_mat.pattern.plan, a_mat.data)
    dense = a_mat.toarray()[1:, 1:]
    rhs = np.random.default_rng(7).standard_normal((len(dense), 2))
    want = np.linalg.solve(dense, rhs)
    got = np.column_stack([factor.solve(col) for col in rhs.T])
    return np.abs(got - want).max() / np.abs(want).max()


class TestSolve:
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cmap", MAPS, ids=lambda m: m.name)
    def test_mesh_stiffness_matches_dense_solve(self, cmap, level):
        a_mat = fo.mesh_from_map(cmap, level).stiffness
        assert _agrees_with_dense(a_mat) <= 1e-12

    @pytest.mark.parametrize("level", [3, 4])
    def test_mesh_with_its_own_triangles(self, level):
        # the same ordering path for a pattern no level shares
        mesh = fo.mesh_from_map(MAPS[1], level)
        own = dataclasses.replace(mesh, triangles=mesh.triangles.copy())
        a_mat = own.stiffness
        assert a_mat.pattern is not mesh.stiffness.pattern
        assert _agrees_with_dense(a_mat) <= 1e-12

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 3), (3, 4)],  # a path, pinned at one end
            [(2, 0), (2, 1), (2, 3), (2, 4), (2, 5)],  # a star, pinned at a leaf
            [(i, (i + 1) % 40) for i in range(40)] + [(i, (7 * i + 3) % 40) for i in range(0, 40, 3)],
        ],
        ids=["path", "star", "ring-and-chords"],
    )
    def test_graph_laplacians(self, edges):
        # patterns from no mesh: weighted graph Laplacians, whose grounded
        # block is positive definite on a connected graph
        n = 1 + max(max(e) for e in edges)
        dense = np.zeros((n, n))
        weights = 1.0 + np.arange(len(edges)) % 3
        for (i, j), w in zip(edges, weights):
            dense[[i, j], [j, i]] -= w
        dense[np.diag_indices(n)] -= dense.sum(axis=1)
        assert _agrees_with_dense(csr_from_dense(dense)) <= 1e-12

    def test_disconnected_pattern_raises(self):
        path = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        pattern = csr_from_dense(np.kron(np.eye(2), path)).pattern
        with pytest.raises(SolverError, match="factorization failed: the matrix graph is not connected"):
            pattern.plan

    def test_solve_is_repeatable(self, pp_map):
        a_mat = fo.mesh_from_map(pp_map, 4).stiffness
        rhs = np.random.default_rng(3).standard_normal(a_mat.shape[0] - 1)
        first = cholesky.Factor(a_mat.pattern.plan, a_mat.data).solve(rhs)
        again = cholesky.Factor(fo._csr_plan(fo._disk_rings(4)[1], a_mat.shape[0])[0].plan, a_mat.data)
        assert first.tobytes() == again.solve(rhs).tobytes()


class TestMatrix:
    def test_product_and_dense_form(self, pp_map, rho_one):
        a_mat, m_mat = fo.assemble(fo.mesh_from_map(pp_map, 3), dn.GaussianDensity(2.0))
        x = np.random.default_rng(5).standard_normal(a_mat.shape[0])
        for mat in (a_mat, m_mat):
            dense = mat.toarray()
            assert mat.shape == dense.shape == (217, 217)
            assert np.allclose(mat @ x, dense @ x, rtol=0, atol=1e-13 * np.abs(dense).max())

    def test_writeable_data_products_follow_changes(self, pp_map):
        a_ro = fo.mesh_from_map(pp_map, 3).stiffness
        a_mat = cholesky.CSRMatrix(a_ro.data.copy(), a_ro.pattern)
        x = np.ones(a_mat.shape[0]) + np.arange(a_mat.shape[0])
        before = a_mat @ x
        a_mat.data *= 2.0
        assert np.array_equal(a_mat @ x, 2.0 * before)

    def test_level_pattern_and_plan_are_shared(self, identity_map, pp_map, rho_one):
        # every matrix of a level has the level's pattern object, so the
        # plan is built once per level
        matrices = [m for cmap in (identity_map, pp_map)
                    for m in fo.assemble(fo.mesh_from_map(cmap, 3), rho_one)]
        assert all(m.pattern is fo._level_plan(3)[0] for m in matrices)
        assert matrices[0].pattern.plan is matrices[3].pattern.plan
        assert all(not m.data.flags.writeable for m in matrices)


def _pattern_keys(level):
    """The 9T entry keys row * n + column of a disk level's P1 matrices."""
    disk_verts, tris = fo._disk_rings(level)
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    return rows * len(disk_verts) + np.tile(tris, (1, 3)).reshape(-1)


@pytest.mark.parametrize(
    "keys",
    [_pattern_keys(level) for level in range(1, 7)]
    + [np.empty(0, dtype=np.intp), np.random.default_rng(11).integers(0, 500, 2000)],
    ids=[f"level{level}" for level in range(1, 7)] + ["empty", "random-repeats"],
)
def test_sorted_unique_matches_np_unique(keys):
    want, got = np.unique(keys), cholesky.sorted_unique(keys)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
