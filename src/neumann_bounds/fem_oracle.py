"""Independent eigenvalue reference: P1 finite elements plus Bessel roots.

The oracle answers one question: what is the first nonzero Neumann
eigenvalue of  -div grad u = mu * rho * u  on the image domain?  It is kept
deliberately independent of the bound pipeline: the mesh is a structured
concentric-ring triangulation of the disk pushed through the conformal map,
the matrices are exact P1 stiffness and centroid-sampled mass, and the
generalized eigenproblem is solved at every level by shift-invert Lanczos
from a fixed seeded start vector, so repeated runs give identical numbers.

scipy serves only this oracle, and ``assemble`` and
``first_nonzero_neumann`` import it on first use, so the bound routes and
the ``bound``, ``sweep`` and ``norms`` commands never load it.

For the unit disk itself the exact answer is the squared first positive
root of J1', which ``mu_disk_reference`` computes from scratch with series
Bessel evaluation and bisection, so the two references cross-check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import orlicz
from .conformal import ConformalMap, build_disk_quadrature
from .errors import DensityError, MeshError, ParameterError, SolverError

__all__ = [
    "TriMesh",
    "mesh_from_map",
    "assemble",
    "first_nonzero_neumann",
    "mu_fem",
    "check_richardson_level",
    "mu_fem_richardson",
    "mu_disk_reference",
    "bessel_j1prime_root",
    "b_m2_disk_estimate",
]

_EIG_SEED = 20240615
_MAX_LEVEL = 8  # finest mesh level


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of the mapped disk.

    The generating map and the disk preimages travel with the mesh, so
    densities defined through the map stay evaluable without inverting it.
    """

    vertices: np.ndarray  # (V, 2) mapped coordinates
    triangles: np.ndarray  # (T, 3) vertex indices, counterclockwise
    boundary: np.ndarray  # (V,) bool
    disk_vertices: np.ndarray  # (V,) complex preimages
    cmap: ConformalMap
    level: int

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def edge_count(self):
        e = set()
        for tri in self.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                e.add((min(tri[a], tri[b]), max(tri[a], tri[b])))
        return len(e)

    def euler_characteristic(self):
        return self.num_vertices - self.edge_count() + self.num_triangles

    def triangle_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self):
        return float(self.triangle_areas().sum())

    def centroids_disk(self):
        """Centroids of the disk-side triangles (complex)."""
        z = self.disk_vertices[self.triangles]
        return z.mean(axis=1)


@lru_cache(maxsize=None)
def _disk_rings(level):
    """Structured triangulation of the unit disk: ring k has 6k vertices.

    ``level`` controls 2^level concentric rings, so each level quarters the
    triangle count of the next (24 triangles at level 1, 4x per level) and
    the mesh size h halves.  The result depends on ``level`` alone, so it is
    cached and shared by every mesh; the arrays are read-only for that
    reason.
    """
    rings = 2**level
    verts = [0.0 + 0.0j]
    ring_start = [None]  # index of first vertex of ring k
    for k in range(1, rings + 1):
        ring_start.append(len(verts))
        angles = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        verts.extend((k / rings) * np.exp(1j * angles))
    verts = np.asarray(verts, dtype=complex)

    tris = []
    for s in range(6):  # six sectors around the center vertex
        tris.append((1 + s, 1 + (s + 1) % 6, 0))
    for k in range(2, rings + 1):
        outer0, inner0 = ring_start[k], ring_start[k - 1]
        n_out, n_in = 6 * k, 6 * (k - 1)
        for s in range(6):
            out = [outer0 + (s * k + i) % n_out for i in range(k + 1)]
            inn = [inner0 + (s * (k - 1) + i) % n_in for i in range(k)]
            for i in range(k):
                tris.append((out[i], out[i + 1], inn[i]))
            for i in range(k - 1):
                tris.append((out[i + 1], inn[i + 1], inn[i]))
    tris = np.asarray(tris, dtype=int)
    boundary = np.zeros(len(verts), dtype=bool)
    boundary[ring_start[rings]:] = True
    for arr in (verts, tris, boundary):
        arr.flags.writeable = False
    return verts, tris, boundary


def mesh_from_map(cmap, level):
    """Push the structured disk triangulation through the map.

    Mesh size halves per level (6 * 4^(level-1) triangles).  Raises when a
    mapped triangle degenerates.
    """
    if not 1 <= level <= _MAX_LEVEL:
        raise ParameterError(f"mesh level must be in [1, {_MAX_LEVEL}], got {level}")
    disk_verts, tris, boundary = _disk_rings(level)
    mapped = cmap.map(disk_verts)
    vertices = np.column_stack([mapped.real, mapped.imag])
    mesh = TriMesh(
        vertices=vertices,
        triangles=tris,
        boundary=boundary,
        disk_vertices=disk_verts,
        cmap=cmap,
        level=level,
    )
    areas = mesh.triangle_areas()
    if np.any(areas <= 0.0):
        raise MeshError(
            f"{cmap.name}: {np.sum(areas <= 0)} mapped triangles degenerate at level {level}"
        )
    return mesh


def assemble(mesh, rho):
    """P1 stiffness and rho-weighted mass matrices (both CSR, symmetric).

    The stiffness uses exact per-triangle gradients; the mass samples rho at
    the disk-side centroid of each triangle (midpoint rule, second order,
    matching the P1 eigenvalue error) and uses the consistent element mass.
    """
    import scipy.sparse as sp

    rho_c = np.asarray(rho.on_disk(mesh.cmap, mesh.centroids_disk()), dtype=float)
    if np.any(rho_c <= 0.0) or not np.all(np.isfinite(rho_c)):
        raise DensityError("density must be positive and finite at all centroids")

    p = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    x, y = p[..., 0], p[..., 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = mesh.triangle_areas()

    ke = (bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = rho_c[:, None, None] * area[:, None, None] * me_ref[None, :, :]

    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    a_mat = sp.coo_matrix((ke.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    m_mat = sp.coo_matrix((me.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    a_mat = 0.5 * (a_mat + a_mat.T)
    m_mat = 0.5 * (m_mat + m_mat.T)
    return a_mat, m_mat


def first_nonzero_neumann(a_mat, m_mat):
    """Smallest nonzero eigenvalue of A u = mu M u, with solver residual.

    The Neumann kernel (constants) is skipped rather than projected out:
    shift-invert Lanczos around a negative shift, from a deterministic
    seeded start vector, retrieves the zero mode and the first nonzero mode
    together, and the larger of the two is returned.
    """
    import scipy.sparse.linalg as spla

    v0 = np.random.default_rng(_EIG_SEED).standard_normal(a_mat.shape[0])
    try:
        w, v = spla.eigsh(a_mat, k=2, M=m_mat, sigma=-1.0, which="LM", v0=v0, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert Lanczos failed to converge: {exc}") from exc
    order = np.argsort(w)
    mu, u = float(w[order[1]]), v[:, order[1]]
    resid = np.linalg.norm(a_mat @ u - mu * (m_mat @ u)) / np.linalg.norm(u)
    if not np.isfinite(mu) or mu <= 0:
        raise SolverError(f"eigensolver returned mu={mu}")
    return mu, float(resid)


def mu_fem(cmap, rho, level):
    """FEM eigenvalue at one refinement level."""
    mesh = mesh_from_map(cmap, level)
    a_mat, m_mat = assemble(mesh, rho)
    mu, _ = first_nonzero_neumann(a_mat, m_mat)
    return mu


def check_richardson_level(level):
    """Raise ParameterError unless level - 1 and level are both mesh levels."""
    if not 2 <= level <= _MAX_LEVEL:
        raise ParameterError(f"richardson level must be in [2, {_MAX_LEVEL}], got {level}")


def mu_fem_richardson(cmap, rho, level):
    """Richardson-extrapolated eigenvalue from levels (level-1, level).

    P1 eigenvalues converge at O(h^2), so the extrapolation removes the
    leading error term: mu = mu_L + (mu_L - mu_{L-1}) / 3.
    """
    check_richardson_level(level)
    mu_coarse = mu_fem(cmap, rho, level - 1)
    mu_fine = mu_fem(cmap, rho, level)
    return mu_fine + (mu_fine - mu_coarse) / 3.0


# ---------------------------------------------------------------------------
# Bessel reference for the unit disk
# ---------------------------------------------------------------------------


def _bessel_j0_series(x):
    """J0 by power series; full double accuracy for |x| <= 4."""
    x = np.asarray(x, dtype=float)
    q = -0.25 * x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for m in range(1, 40):
        term = term * q / (m * m)
        acc = acc + term
        if np.all(np.abs(term) < 1e-19 * np.abs(acc)):
            break
    return acc


def _bessel_j1_series(x):
    """J1 by power series; full double accuracy for |x| <= 4."""
    x = np.asarray(x, dtype=float)
    q = -0.25 * x * x
    term = 0.5 * x
    acc = np.asarray(term).copy()
    for m in range(1, 40):
        term = term * q / (m * (m + 1))
        acc = acc + term
        if np.all(np.abs(term) < 1e-19 * np.abs(acc)):
            break
    return acc


def j1_prime(x):
    """J1'(x) = J0(x) - J1(x)/x (series evaluation, |x| <= 4)."""
    return _bessel_j0_series(x) - _bessel_j1_series(x) / x


@lru_cache(maxsize=1)
def bessel_j1prime_root():
    """First positive root of J1', by bisection on [1.5, 2.2] to 12+ digits."""
    lo, hi = 1.5, 2.2
    if not (j1_prime(lo) > 0 > j1_prime(hi)):
        raise SolverError("J1' bracket invalid")  # pragma: no cover
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if j1_prime(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def mu_disk_reference():
    """Exact first nonzero Neumann eigenvalue of the unit disk (rho = 1)."""
    r = bessel_j1prime_root()
    return r * r


# ---------------------------------------------------------------------------
# variational lower estimate for the exponential-class embedding constant
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def b_m2_disk_estimate(trial_family_size=12):
    """Trial-function lower estimate of the disk embedding constant
    sup ||u - med(u)||_{L^M} / ||grad u||_{L^2} with M(u) = exp(u^2) - 1.

    The family is nested (so the estimate is non-decreasing in the family
    size): both coordinate functions plus truncated radial logarithms
    u_d = min(log(1/r), log(1/d)) with d = 2^{-j}.  Everything is evaluated
    on the 96 x 32 disk quadrature; the result is a numerical lower bound for the
    true constant and is reported as a diagnostic, not a certified value.
    """
    from .youngfn import ExpSquare

    if trial_family_size < 8:
        raise ParameterError("trial family needs at least 8 members")
    quad = build_disk_quadrature(96, 32)
    m_young = ExpSquare()
    r = np.abs(quad.nodes)
    trials = [(quad.nodes.real, np.ones_like(r)), (quad.nodes.imag, np.ones_like(r))]
    for j in range(1, trial_family_size - 1):
        d = 2.0**-j
        trials.append((np.minimum(np.log(1.0 / r), np.log(1.0 / d)), (r > d) / r**2))
    best = 0.0
    for u_vals, grad_sq in trials:
        f = orlicz.SampledFunction(u_vals, quad.weights, quad.measure_id)
        med = orlicz.weighted_median(f)
        centered = orlicz.SampledFunction(u_vals - med, quad.weights, quad.measure_id)
        num = orlicz.luxemburg_norm(centered, m_young)
        den = np.sqrt(np.sum(quad.weights * grad_sq))
        best = max(best, num / den)
    return float(best)
