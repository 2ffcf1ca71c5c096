"""The simplest eigenvalue bound: disk eigenvalue over a density supremum.

For a conformal image of the disk, the first nonzero Neumann eigenvalue
with density rho is at least mu(disk) divided by the essential supremum of
rho over the inverse-map Jacobian.  Pulling that ratio back to the disk
turns it into max of rho(phi(z)) * |phi'(z)|^2, which a quadrature grid
approximates from below.

Two things are worth seeing concretely:

* for the inverse-Jacobian density the ratio is identically one, so the
  bound collapses to mu(disk) exactly - the bound is tight;
* for other densities the bound sits below the FEM value with room to
  spare, and the grid maximum converges under refinement.
"""

from neumann_bounds import (
    ConstantDensity,
    GaussianDensity,
    IdentityMap,
    PerturbedPowerMap,
    PullbackJacobianPower,
    build_disk_quadrature,
)
from neumann_bounds import bounds as bd
from neumann_bounds import fem_oracle as fo

quad = build_disk_quadrature(64, 64)
maps = [IdentityMap(), PerturbedPowerMap(0.5, 2), PerturbedPowerMap(0.3, 3)]
densities = [ConstantDensity(1.0), GaussianDensity(4.0), PullbackJacobianPower(1.0)]

print(f"{'map':<24} {'density':<36} {'bound':>10} {'mu_fem':>10} {'ratio':>7}")
for cmap in maps:
    for rho in densities:
        rep = bd.mu_lower_esssup(cmap, rho, quad)
        mu = fo.mu_fem_richardson(cmap, rho, 5)
        print(
            f"{cmap.name:<24} {rho.name:<36} {rep.bound:>10.5f} {mu:>10.5f} "
            f"{rep.bound / mu:>7.4f}"
        )

print("\nthe inverse-Jacobian rows have ratio ~ 1: that special density makes")
print("the bound coincide with the disk reference (tight case).")

print("\ngrid-max convergence of the supremum for |1 + 0.5 z|^2 (true sup 2.25):")
pp = PerturbedPowerMap(0.5, 2)
for n in (16, 32, 64):
    v = bd.k_esssup(pp, ConstantDensity(1.0), build_disk_quadrature(n, n))
    print(f"  grid {n:>3} x {n:<3}: {v:.8f}")
