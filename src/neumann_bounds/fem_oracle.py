"""Independent eigenvalue reference: P1 finite elements plus Bessel roots.

The oracle answers one question: what is the first nonzero Neumann
eigenvalue of  -div grad u = mu * rho * u  on the image domain?  It is kept
deliberately independent of the bound pipeline: the mesh is a structured
concentric-ring triangulation of the disk pushed through the conformal map,
the matrices are exact P1 stiffness and centroid-sampled mass, and the
generalized eigenproblem is solved at every level by shift-invert Lanczos
from a fixed start vector, so repeated runs give identical numbers.  The
start vector is a hash of the vertex index (``_start_vector``), a pure
function of the vertex count in a few integer operations of numpy; Lanczos
needs only its nonzero component along the wanted eigenvector, and the
module never loads ``numpy.random``, whose import would map OpenSSL into
every process that solves.

Both matrices are scattered with ``np.bincount`` into one CSR pattern per
level, which depends on the disk triangulation alone.  The shift-invert
operator is the grounded inverse of the singular Neumann stiffness: A with
vertex 0 pinned is factored, and projections on both sides of that solve
send the constants to 0 (see ``first_nonzero_neumann``), so the Lanczos
iteration never retrieves the zero mode, and the factor does not depend
on rho.  The Lanczos loop is the module's own, in numpy, with full
reorthogonalisation in the M inner product.

The matrices, their products and the factorization are the package's own,
in numpy (``cholesky``): a CSR matrix, a nested-dissection plan of the
pattern, a multifrontal Cholesky on the plan, and a triangular solve.  The
plan depends on the pattern alone, so each level's pattern object carries
it, built on first use and shared by every matrix of the level; the
``verify`` command builds the plans of its levels before it forks workers,
so that they inherit them (see ``cli``, "Parallel runs").  The module
imports the solver on first use, so the bound routes and the ``bound``,
``sweep`` and ``norms`` commands never load it, and no command loads scipy.

The mesh, its triangle areas and disk-side centroids, the P1 stiffness
matrix and its factor depend on (map, level) alone: each mesh computes its
areas, centroids and stiffness once, ``mu_fem`` keeps the meshes of the
last two (map, level) pairs, a Richardson pair, keyed on the map object,
and ``first_nonzero_neumann`` keeps the factors of the last two read-only
stiffness matrices.  Calls for other densities on the same map then
assemble only the rho-weighted mass matrix and run the Lanczos iteration,
with the same arithmetic, so the eigenvalues do not depend on what was
kept.

For the unit disk itself the exact answer is the squared first positive
root of J1', which ``mu_disk_reference`` computes from scratch with series
Bessel evaluation and bisection, so the two references cross-check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import orlicz
from .conformal import ConformalMap, build_disk_quadrature
from .errors import MeshError, ParameterError, SolverError

__all__ = [
    "TriMesh",
    "mesh_from_map",
    "assemble",
    "first_nonzero_neumann",
    "mu_fem",
    "check_richardson_level",
    "mu_fem_richardson",
    "plan_levels",
    "mu_disk_reference",
    "bessel_j1prime_root",
    "b_m2_disk_estimate",
]

_EIG_SEED = 20240615
_LANCZOS_TOL = 1e-12  # stop at Ritz residual <= tol * theta
_LANCZOS_MAX_STEPS = 300
_LANCZOS_ROWS = 32  # first basis size, doubled when full; covers every battery solve
_MAX_LEVEL = 8  # finest mesh level


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of the mapped disk.

    The generating map and the disk preimages travel with the mesh, so
    densities defined through the map stay evaluable without inverting it.
    """

    vertices: np.ndarray  # (V, 2) mapped coordinates
    triangles: np.ndarray  # (T, 3) vertex indices, counterclockwise
    disk_vertices: np.ndarray  # (V,) complex preimages
    cmap: ConformalMap
    level: int

    @property
    def num_vertices(self):
        return len(self.vertices)

    @cached_property
    def triangle_areas(self):
        """Signed triangle areas; computed once, kept read-only."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return _read_only(0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))

    def area(self):
        return float(self.triangle_areas.sum())

    @cached_property
    def centroids_disk(self):
        """Centroids of the disk-side triangles (complex); computed once,
        kept read-only."""
        z = self.disk_vertices[self.triangles]
        return _read_only(z.mean(axis=1))

    @cached_property
    def stiffness(self):
        """P1 stiffness matrix from exact per-triangle gradients (CSR,
        symmetric); built on first use and kept with the mesh.  Every
        ``assemble`` call on the mesh returns it, so its arrays are
        read-only."""
        p = self.vertices[self.triangles]  # (T, 3, 2)
        x, y = p[..., 0], p[..., 1]
        bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        area = self.triangle_areas
        ke = (bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]) / (
            4.0 * area[:, None, None]
        )
        return _symmetric_csr(self, ke)


def _read_only(*arrays):
    """Mark the arrays read-only; return the first."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0]


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
    _read_only(verts, tris)
    return verts, tris


def mesh_from_map(cmap, level):
    """Push the structured disk triangulation through the map.

    Mesh size halves per level (6 * 4^level triangles).  Raises when a
    mapped triangle degenerates.
    """
    if not 1 <= level <= _MAX_LEVEL:
        raise ParameterError(f"mesh level must be in [1, {_MAX_LEVEL}], got {level}")
    disk_verts, tris = _disk_rings(level)
    mapped = cmap.map(disk_verts)
    vertices = np.column_stack([mapped.real, mapped.imag])
    mesh = TriMesh(
        vertices=vertices,
        triangles=tris,
        disk_vertices=disk_verts,
        cmap=cmap,
        level=level,
    )
    areas = mesh.triangle_areas
    if np.any(areas <= 0.0):
        raise MeshError(
            f"{cmap.name}: {np.sum(areas <= 0)} mapped triangles degenerate at level {level}"
        )
    return mesh


def _csr_plan(triangles, n):
    """The CSR pattern of a triangulation's P1 matrices, a ``cholesky.Pattern``
    with read-only arrays, and the data slot of each of its 9T element
    entries in (triangle, row, column) order."""
    from .cholesky import Pattern

    rows = np.repeat(triangles, 3, axis=1).reshape(-1)
    cols = np.tile(triangles, (1, 3)).reshape(-1)
    entries = rows * n + cols
    keys = np.unique(entries)
    slots = np.searchsorted(keys, entries)  # return_inverse peaks higher
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    arrays = [arr.astype(np.int32) for arr in (indptr, keys % n)]
    _read_only(*arrays)
    return Pattern(*arrays), slots


@lru_cache(maxsize=None)
def _level_plan(level):
    """``_csr_plan`` of ``_disk_rings(level)``, shared by every mesh of the
    level, and with it the pattern's factor plan, built on first use."""
    disk_verts, tris = _disk_rings(level)
    return _csr_plan(tris, len(disk_verts))


def plan_levels(levels):
    """The factor plans of the given mesh levels' patterns, built now if
    not yet: a process about to fork workers shares them this way."""
    return [_level_plan(level)[0].plan for level in levels]


def _symmetric_csr(mesh, elements):
    """The global matrix of the (T, 3, 3) symmetric element matrices, a
    read-only ``cholesky.CSRMatrix``.

    Each entry sums its triangles' contributions in triangle order, and
    (i, j) and (j, i) sum the same triangles, so the result is exactly
    symmetric.  The pattern is the level's, shared with its factor plan.
    """
    from .cholesky import CSRMatrix

    if mesh.triangles is _disk_rings(mesh.level)[1]:
        pattern, slots = _level_plan(mesh.level)
    else:  # a mesh that mesh_from_map did not build
        pattern, slots = _csr_plan(mesh.triangles, mesh.num_vertices)
    data = np.bincount(slots, weights=elements.reshape(-1), minlength=len(pattern.indices))
    return CSRMatrix(_read_only(data), pattern)


def assemble(mesh, rho):
    """P1 stiffness and rho-weighted mass matrices (both read-only
    ``cholesky.CSRMatrix``, symmetric).

    The stiffness uses exact per-triangle gradients and depends on the mesh
    alone, so it is the mesh's ``stiffness``, built once per mesh.  The mass
    samples rho at the disk-side centroid of each triangle (midpoint rule,
    second order, matching the P1 eigenvalue error) and uses the consistent
    element mass.
    """
    rho_c = rho.on_disk(mesh.cmap, mesh.centroids_disk)  # positive and finite
    area = mesh.triangle_areas
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = rho_c[:, None, None] * area[:, None, None] * me_ref[None, :, :]
    return mesh.stiffness, _symmetric_csr(mesh, me)


# (stiffness, factor) of the last two read-only stiffness matrices factored,
# oldest first: one map's Richardson pair, like ``_mesh``
_factors = []


def _grounded_factor(a_mat):
    """Cholesky factor of the stiffness with vertex 0 pinned, A[1:, 1:].

    A is symmetric positive semi-definite with the constants as kernel on a
    connected mesh, so A[1:, 1:] is symmetric positive definite.  The
    factor runs on the plan of A's pattern (``cholesky``).  A read-only
    matrix, such as a mesh's ``stiffness``, cannot change, so its factor is
    kept; any other matrix is factored on every call.
    """
    from .cholesky import Factor

    kept = not any(arr.flags.writeable for arr in (a_mat.data, a_mat.indices, a_mat.indptr))
    if kept:
        for a, factor in _factors:
            if a is a_mat:
                return factor
        del _factors[: len(_factors) - 1]  # evict before factoring: two at most
    factor = Factor(a_mat.pattern.plan, a_mat.data)
    if kept:
        _factors.append((a_mat, factor))
    return factor


def _start_vector(n):
    """n values in [-0.5, 0.5), the SplitMix64 finaliser of the Weyl sequence
    i * 0x9E3779B97F4A7C15 + _EIG_SEED (Steele, Lea and Flood, OOPSLA 2014)
    in wrapping uint64 arithmetic, top 53 bits as a fraction."""
    z = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(_EIG_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def first_nonzero_neumann(a_mat, m_mat):
    """Smallest nonzero eigenvalue of A u = mu M u, with solver residual;
    A and M are CSR matrices, as ``assemble`` returns them.

    Shift-invert Lanczos at sigma = 0 from the hashed start vector
    ``_start_vector(n)``, with the grounded inverse of the singular A in
    place of (A - sigma M)^-1: op(b) = P G P^T b, where G solves with vertex 0
    pinned (x[0] = 0), P^T b = b - (1.b / 1.M1) M1 removes the part of b
    outside the range of A, and P x = x - (M1.x / 1.M1) 1 is the
    M-orthogonal projection off the constants.  op M sends the constants to
    0 and every other eigenvector u to u / mu, so the largest eigenvalue of
    op M is 1 / mu_1 and the zero mode never appears; a double mu_1 needs
    no special case.  G depends on A alone, so a mesh's stiffness is
    factored once for all its densities (``_grounded_factor``).

    op M is self-adjoint in the M inner product, so Lanczos in that inner
    product builds an M-orthonormal basis q_1..q_j and a tridiagonal T.
    Each new vector is orthogonalised twice against the whole basis,
    through the stored M q, which keeps the basis orthonormal to rounding.
    After step j the largest eigenvalue theta of T, with eigenvector s, is
    a Ritz value with residual beta_j |s_j|; the loop stops once that is at
    most 1e-12 theta.  The Ritz value is then within (beta_j s_j)^2 / gap
    of 1 / mu_1, gap being the distance to the rest of the spectrum, so
    mu = 1 / theta is exact to rounding.  A battery solve takes 12 to 18
    steps; not converging in ``_LANCZOS_MAX_STEPS`` raises SolverError.
    """
    n = a_mat.shape[0]
    factor = _grounded_factor(a_mat)
    m1 = m_mat @ np.ones(n)
    mass = m1.sum()

    def op(b):
        x = np.zeros(n)
        x[1:] = factor.solve(b[1:] - (b.sum() / mass) * m1[1:])
        return x - (m1 @ x) / mass

    w = _start_vector(n)
    w -= (m1 @ w) / mass  # P v0: the start vector, off the constants
    qs, mqs = np.empty((_LANCZOS_ROWS, n)), np.empty((_LANCZOS_ROWS, n))  # q_i and M q_i
    alphas, betas = [], []
    mw = m_mat @ w
    beta = np.sqrt(w @ mw)
    for j in range(_LANCZOS_MAX_STEPS):
        if j == len(qs):
            qs, mqs = (np.concatenate([arr, np.empty_like(arr)]) for arr in (qs, mqs))
        qs[j], mqs[j] = w / beta, mw / beta
        w = op(mqs[j])
        alpha = 0.0
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = mqs[: j + 1] @ w
            w -= c @ qs[: j + 1]
            alpha += c[j]
        alphas.append(alpha)
        mw = m_mat @ w
        beta = np.sqrt(max(w @ mw, 0.0))
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if beta * abs(s[-1, -1]) <= _LANCZOS_TOL * theta[-1]:
            break
        betas.append(beta)
    else:
        raise SolverError(f"shift-invert Lanczos failed to converge in {_LANCZOS_MAX_STEPS} steps")
    mu, u = 1.0 / float(theta[-1]), s[:, -1] @ qs[: j + 1]
    resid = np.linalg.norm(a_mat @ u - mu * (m_mat @ u)) / np.linalg.norm(u)
    if not np.isfinite(mu) or mu <= 0:
        raise SolverError(f"eigensolver returned mu={mu}")
    return mu, float(resid)


@lru_cache(maxsize=2)
def _mesh(cmap, level):
    """``mesh_from_map``, kept for the last two (map, level) pairs, one
    map's Richardson pair; the key is the map object."""
    return mesh_from_map(cmap, level)


def mu_fem(cmap, rho, level):
    """FEM eigenvalue at one refinement level; the mesh and its stiffness
    are shared with the last calls on the same map object."""
    mesh = _mesh(cmap, level)
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


def _negligible(term, acc):
    """True when ``term`` is below 1e-19 |acc| everywhere (floats or arrays)."""
    small = abs(term) < 1e-19 * abs(acc)
    return small if isinstance(small, bool) else bool(small.all())


def _bessel_j0_series(x):
    """J0 by power series; full double accuracy for |x| <= 4.

    ``x`` is a float or a float array; the root bisection passes floats,
    which give the same bits as 0-d arrays without numpy's per-call cost.
    """
    q = -0.25 * x * x
    term = acc = 1.0 + 0.0 * x  # ones, shaped like x
    for m in range(1, 40):
        term = term * q / (m * m)
        acc = acc + term
        if _negligible(term, acc):
            break
    return acc


def _bessel_j1_series(x):
    """J1 by power series; full double accuracy for |x| <= 4 (float or
    float array ``x``, as in ``_bessel_j0_series``)."""
    q = -0.25 * x * x
    term = acc = 0.5 * x
    for m in range(1, 40):
        term = term * q / (m * (m + 1))
        acc = acc + term
        if _negligible(term, acc):
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
