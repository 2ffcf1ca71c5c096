"""The enormous quasidisk constants, tamed in log space.

The map-independent bounds pay for their generality with constants beyond
any floating-point range: the Jacobian-norm constant contains
exp(K^2 pi^2 (2+pi^4)^2 / (2 log 3)), whose logarithm is around 5e4, and
the Orlicz-route refinement applies a doubly-exponential composition on
top of that, so even the *logarithm* of the final constant leaves double
range.  The package composes the first chain in plain log space and the
second in log-log space: each of its values is +-e^l for a double l (a
``SignedExp``), and it flags two caveats in every report:

* NuGeOne - the printed formula's auxiliary quantity nu exceeds one for all
  usable parameters, so |1 - nu| is substituted (see the decisions ledger);
* BoundUnderflow - the bound is a positive real whose float64 value is 0.0.
"""

import numpy as np

from neumann_bounds import ConstantDensity, PerturbedPowerMap, build_disk_quadrature
from neumann_bounds import bounds as bd

quad = build_disk_quadrature(48, 32)
cmap = PerturbedPowerMap(0.5, 2)
rho = ConstantDensity(1.0)

print("log of the Jacobian-norm constant, term by term (alpha=4, K=1.2, |Omega|=1.125 pi):")
value, flags, inter = bd.log_c_j(4.0, 1.2, 1.125 * np.pi)
for key in ("ln_nu", "ln_abs_one_minus_nu", "ln_c_alpha", "exp_term", "ln_area"):
    print(f"  {key:<22} {inter[key]:>16.6f}")
print(f"  {'log_c_j':<22} {value:>16.6f}   flags: {flags}\n")

params = bd.ScenarioParams(p=1.5, q=4.0, alpha=12.0, K=1.05, eps=2.0)
rep = bd.mu_lower_quasidisc(cmap, rho, params, quad)
print(f"map-independent bound (alpha=12, K=1.05):")
print(f"  bound_log = {float(rep.bound_log):.2f}   bound (float64) = {rep.bound}")
print(f"  flags: {rep.validity_flags}\n")

params4 = bd.ScenarioParams(p=1.5, q=4.0, alpha=4.0, K=1.2, eps=2.0)
rep = bd.mu_lower_orlicz_quasidisc(cmap, rho, params4, b_m_eps=0.6, quad=quad)
inter = rep.intermediates
print("the doubly-exponential Orlicz refinement (alpha=4, K=1.2, eps=2):")
print(f"  log C_J                 = {inter['log_c_j']:.2f}")
print(f"  log of the inner arg    = {inter['log_t']:.2f}")
print(f"  log Psi(that)           = {inter['log_psi_of_t']}")
print(f"  log C~ (log-log double) = {inter['log_c_tilde_j']}")
print(f"  bound_log               = {rep.bound_log}")
print(f"  flags: {rep.validity_flags}")
print("\nfor comparison, the map-dependent Orlicz route on the same scenario:")
rep2 = bd.mu_lower_orlicz(cmap, rho, 2.0, b_m_eps=0.6, quad=quad)
print(f"  bound = {rep2.bound:.6f}  (the quasidisk refinement discards that much)")
