"""The two independent references for the unit disk, side by side.

The first nonzero Neumann eigenvalue of the unit disk is the square of the
first positive root of J1'.  The package computes that root from scratch
(series Bessel evaluation + bisection) and, independently, approximates the
same eigenvalue with P1 finite elements on successively refined meshes.
Watching the FEM column march toward the Bessel value is the basic sanity
check for everything else in the package.
"""

from neumann_bounds import IdentityMap, ConstantDensity
from neumann_bounds import fem_oracle as fo

root = fo.bessel_j1prime_root()
ref = fo.mu_disk_reference()
print(f"first positive root of J1'    : {root:.12f}")
print(f"disk eigenvalue reference     : {ref:.12f}")
print(f"residual of defining equation : {fo.j1_prime(root):+.2e}")
print()

ident = IdentityMap()
rho = ConstantDensity(1.0)

# one meshes dict for the map: mu_fem fills it, and the Richardson call
# below reuses its level-5 and level-6 meshes and their factors
meshes = {}
print(f"{'level':>5} {'vertices':>9} {'mu_fem':>14} {'rel error':>11} {'ratio':>7}")
prev_mu, prev_err = None, None
for level in range(2, 7):
    mu = fo.mu_fem(ident, rho, level, meshes)
    err = (mu - ref) / ref
    ratio = f"{prev_err / err:5.2f}" if prev_err else "    -"
    print(f"{level:>5} {meshes[level].num_vertices:>9} {mu:>14.9f} {err:>11.2e} {ratio:>7}")
    prev_mu, prev_err = mu, err

rich = fo.mu_fem_richardson(ident, rho, 6, meshes)
print(f"\nrichardson(5,6): {rich:.10f}   rel error {abs(rich - ref) / ref:.2e}")
print("P1 eigenvalues converge from above at O(h^2): the ratio column sits near 4.")
