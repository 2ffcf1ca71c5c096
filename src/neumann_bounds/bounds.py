"""Lower bounds for the first nonzero Neumann eigenvalue with density.

Each ``mu_lower_*`` operation assembles one analytic lower bound for the
eigenvalue of  -div grad u = mu * rho * u  on the conformal image of the
unit disk, and returns a BoundReport carrying the bound, its natural log,
every named intermediate constant, and validity flags.  All image-domain
integrals are pulled back to the disk (no meshing), and every constant that
can leave double range is composed in log space; the one chain that leaves
even *log* range (the jacobian-free Orlicz route, whose inner constant is a
double exponential) carries log log |value| as a double, in ``SignedExp``.

Flags used in reports:

* ``NuGeOne`` - the auxiliary quantity nu in the quasidisk Jacobian-norm
  constant exceeds one for essentially all admissible (alpha, K), which
  makes the printed constant formula meaningless as-is; |1 - nu| is
  substituted and the flag is raised (see the decisions ledger).
* ``ConstantConventionConservative`` - the Orlicz-route prefactor is stated
  inconsistently at two places in the source chain (18 vs 12); the report
  carries both and ``bound`` uses the smaller, always-safe one.
* ``BoundUnderflow`` - ``bound_log`` is finite but exp underflows float64;
  ``bound`` is reported as 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import Pullback, build_disk_quadrature
from .errors import ConvergenceError, ParameterError
from .orlicz import SampledFunction, luxemburg_norm
from .youngfn import (
    LogLinear,
    LogPow,
    NumericComplement,
    PsiAlpha,
    SignedExp,
    probe_nabla_prime,
)

__all__ = [
    "ScenarioParams",
    "BoundReport",
    "b_qp_disk",
    "mu_pq_disk_bracket",
    "k_esssup",
    "mu_lower_esssup",
    "k_q",
    "mu_lower_kq",
    "log_c_j",
    "mu_lower_quasidisc",
    "validate_sweep",
    "gaussian_sweep",
    "fit_loglog_slope",
    "k_phi",
    "embedding_constant",
    "mu_lower_orlicz",
    "mu_lower_orlicz_quasidisc",
]

FLAG_NU_GE_ONE = "NuGeOne"
FLAG_CONSTANT_CONVENTION = "ConstantConventionConservative"
FLAG_UNDERFLOW = "BoundUnderflow"

_LN_PI = math.log(math.pi)

# fem_oracle.b_m2_disk_estimate() as its exact double, 0.570906962169809
_B_M2_DISK_ESTIMATE = float.fromhex("0x1.244dead727f4bp-1")
# fem_oracle.mu_disk_reference() as its exact double, 3.389957716671889
_MU_DISK = float.fromhex("0x1.b1ea226bf6dc4p+1")


@dataclass(frozen=True)
class ScenarioParams:
    """Exponent bundle (p, q, alpha, K, eps) with the range checks.

    kappa = 1/p - 1/q.  The quasidisk constant K is supplied by the scenario
    (K = 1 for the identity map); only the admissibility inequalities are
    validated here, estimating K itself is out of scope.
    """

    p: float = 1.5
    q: float = 4.0
    alpha: float = 12.0
    K: float = 1.0
    eps: float = 2.0

    @property
    def kappa(self):
        return 1.0 / self.p - 1.0 / self.q

    def validate_pq(self):
        if not 1.0 <= self.p < 2.0:
            raise ParameterError(f"p must lie in [1, 2), got {self.p}")
        q_sup = 2.0 * self.p / (2.0 - self.p)
        if not 2.0 < self.q < q_sup:
            raise ParameterError(
                f"q={self.q} violates 2 < q < 2p/(2-p) = {q_sup:g} "
                "(compact embedding range)"
            )

    def validate_q(self):
        """q > 2, the range of the L^(q/(q-2)) functional ``k_q``."""
        if not self.q > 2:  # NaN fails too
            raise ParameterError(f"q must exceed 2, got {self.q}")

    def alpha_sup(self):
        if self.K < 1.0:
            raise ParameterError(f"quasidisk constant must satisfy K >= 1, got {self.K}")
        if self.K == 1.0:
            return math.inf
        return 2.0 * self.K**2 / (self.K**2 - 1.0)

    def validate_quasidisc(self):
        asup = self.alpha_sup()
        if not 2.0 < self.alpha < asup:
            raise ParameterError(
                f"alpha={self.alpha} violates 2 < alpha < 2K^2/(K^2-1) = {asup:g}"
            )

    def validate_jacobian_free(self):
        """Range for the map-independent route: 2q/(q-2) < alpha as well."""
        self.validate_pq()
        self.validate_quasidisc()
        alo = 2.0 * self.q / (self.q - 2.0)
        if not self.alpha > alo:
            raise ParameterError(
                f"alpha={self.alpha} violates alpha > 2q/(q-2) = {alo:g}"
            )

    def validate_eps(self):
        """eps > 1, the compact class exp(u^(2/eps)) - 1 of the Orlicz routes."""
        if not self.eps > 1:  # NaN fails too
            raise ParameterError(f"eps must exceed 1, got {self.eps}")

    def lebesgue_exponent(self):
        """The density-norm exponent s = q(alpha-2)/(q alpha - 2q - 2 alpha)."""
        denom = self.q * self.alpha - 2.0 * self.q - 2.0 * self.alpha
        if denom <= 0:
            raise ParameterError(
                f"(q, alpha) = ({self.q}, {self.alpha}) give a nonpositive "
                "density-norm exponent; need alpha > 2q/(q-2)"
            )
        return self.q * (self.alpha - 2.0) / denom

    def as_dict(self):
        return {"p": self.p, "q": self.q, "alpha": self.alpha, "K": self.K, "eps": self.eps}


@dataclass
class BoundReport:
    """One analytic lower bound with its provenance.

    ``bound_log`` is a ``SignedExp`` when it leaves double range, as on
    the ``orlicz_quasidisc`` route, and a float otherwise; ``bound`` is
    always a float64 (0.0 with ``BoundUnderflow`` when exp underflows).
    """

    method: str
    bound_log: object
    bound: float
    intermediates: dict = field(default_factory=dict)
    validity_flags: list = field(default_factory=list)
    params: dict = field(default_factory=dict)


def _log_norm(log_f, log_w, r, out=None):
    """log (sum_i w_i f_i^r)^(1/r) from finite log f and log w, without
    overflow: (top + log sum exp(a - top)) / r, a = r log f + log w and
    top = max a.  a is formed in ``out``, which may be ``log_f`` itself,
    and in a new array when ``out`` is None."""
    a = np.multiply(log_f, r, out=out)
    a += log_w
    top = a.max()
    a -= top
    np.exp(a, out=a)
    return float((top + np.log(np.sum(a))) / r)


def _finish(method, bound_log, intermediates, flags, params):
    # a SignedExp bound_log stays one; its float() is -inf when negative
    # beyond double range, and math.exp gives 0.0 below the least subnormal
    log_value = float(bound_log)
    if not isinstance(bound_log, SignedExp):
        bound_log = log_value
    bound = math.exp(log_value)
    flags = list(flags)
    if bound == 0.0:
        flags.append(FLAG_UNDERFLOW)
    return BoundReport(
        method=method,
        bound_log=bound_log,
        bound=bound,
        intermediates=intermediates,
        validity_flags=flags,
        params=params,
    )


def _pullback(cmap, rho, quad, pullback):
    """The route's pull-back: ``pullback`` when the caller shares one, which
    must sample ``rho`` through ``cmap`` on ``quad``, else a new one."""
    if pullback is None:
        return Pullback(cmap, rho, quad)
    if pullback.cmap is not cmap or pullback.rho is not rho or pullback.quad is not quad:
        raise ParameterError("the pull-back samples another map, density or quadrature")
    return pullback


# ---------------------------------------------------------------------------
# disk Sobolev-Poincare constants
# ---------------------------------------------------------------------------


def b_qp_disk(p, q):
    """Upper estimate of the disk (q,p)-Poincare-Sobolev constant:
    2/pi^kappa * ((1-kappa)/(1/2-kappa))^(1-kappa), kappa = 1/p - 1/q."""
    kappa = 1.0 / p - 1.0 / q
    if not 0.0 <= kappa < 0.5:
        raise ParameterError(
            f"kappa = 1/p - 1/q = {kappa:g} outside [0, 1/2); the constant "
            "blows up at the excluded endpoint"
        )
    return 2.0 / math.pi**kappa * ((1.0 - kappa) / (0.5 - kappa)) ** (1.0 - kappa)


def mu_pq_disk_bracket(p, q):
    """Two-sided bracket for the disk (p,q)-eigenvalue: [B^-p, 2^p B^-p].

    The lower end is the value used in every eigenvalue lower bound.
    """
    b = b_qp_disk(p, q)
    lo = b**-p
    return lo, 2.0**p * lo


# ---------------------------------------------------------------------------
# esssup route
# ---------------------------------------------------------------------------


def k_esssup(cmap, rho, quad, pullback=None):
    """Grid maximum of the mass-weighted pullback rho(phi(z)) J(z).

    This under-estimates the true essential supremum (continuous fixtures,
    so the grid max converges under refinement).
    """
    return float(_pullback(cmap, rho, quad, pullback).mass_density.max())


def mu_lower_esssup(cmap, rho, quad, pullback=None):
    """Eigenvalue bound mu(disk) / esssup(rho / inverse-Jacobian).

    mu(disk) is the exact Bessel-root reference, not the Poincare bracket:
    ``fem_oracle.mu_disk_reference()``, kept here as its exact double, so
    no bound run loads the oracle; a test recomputes it bit for bit.
    """
    kval = k_esssup(cmap, rho, quad, pullback)
    mu_disk = _MU_DISK
    bound_log = math.log(mu_disk) - math.log(kval)
    inter = {"k_esssup": kval, "mu_disk": mu_disk}
    return _finish("esssup", bound_log, inter, [], {})


# ---------------------------------------------------------------------------
# Lq route
# ---------------------------------------------------------------------------


def k_q(cmap, rho, q, quad, pullback=None):
    """The q/(q-2)-norm functional of the mass-weighted pullback:

        ( sum_i w_i (rho(phi(z_i)) J(z_i))^(q/(q-2)) )^((q-2)/q)

    computed with a log-space sum so large Jacobians cannot overflow.  The
    sum is formed in place on the product rho J, which is this call's own.
    """
    ScenarioParams(q=q).validate_q()
    g = _pullback(cmap, rho, quad, pullback).mass_density
    log_g = np.log(g, out=g)
    return math.exp(_log_norm(log_g, np.log(quad.weights), q / (q - 2.0), out=log_g))


def mu_lower_kq(cmap, rho, p, q, quad, pullback=None):
    """Eigenvalue bound through the disk (p,q)-eigenvalue and the Lq
    functional.  The report carries both the composed theorem form

        bracket.lo / (2^(2p) pi^(2(2-p)/p) K_q)

    and the sharper direct proof-chain form

        1 / (pi^(2(2-p)/p) B_qp^2 K_q),

    which is the default ``bound``.
    """
    params = ScenarioParams(p=p, q=q)
    params.validate_pq()
    b = b_qp_disk(p, q)
    kq = k_q(cmap, rho, q, quad, pullback)
    pi_exp = 2.0 * (2.0 - p) / p
    sharper_log = -pi_exp * _LN_PI - 2.0 * math.log(b) - math.log(kq)
    lo, hi = mu_pq_disk_bracket(p, q)
    theorem_log = math.log(lo) - 2.0 * p * math.log(2.0) - pi_exp * _LN_PI - math.log(kq)
    inter = {
        "k_q": kq,
        "b_qp": b,
        "mu_pq_lo": lo,
        "mu_pq_hi": hi,
        "bound_log_theorem_form": theorem_log,
        "bound_log_sharper_form": sharper_log,
    }
    return _finish("lq", sharper_log, inter, [], {"p": p, "q": q})


# ---------------------------------------------------------------------------
# quasidisk (map-independent) route
# ---------------------------------------------------------------------------


def log_c_j(alpha, K, area):
    """log of the quasidisk Jacobian-norm constant, assembled in log space:

        log C_J = 2 log C_alpha + 2 log K + (2/alpha - 1) log pi - log 4
                  + K^2 pi^2 (2 + pi^4)^2 / (2 log 3) + log area,

    with C_alpha = 10^6 / [(alpha-1)(1-nu)]^(1/alpha) and
    nu = 10^(4 alpha) (alpha-2)/(alpha-1) (24 pi^2 K^2)^alpha.

    nu exceeds one for essentially every admissible (alpha, K); |1 - nu| is
    substituted and the NuGeOne flag raised.  Returns
    (log_value, flags, intermediates); the intermediates reproduce the
    composition term by term.
    """
    ScenarioParams(alpha=alpha, K=K).validate_quasidisc()
    if area <= 0:
        raise ParameterError(f"area must be positive, got {area}")

    flags = []
    ln_nu = (
        4.0 * alpha * math.log(10.0)
        + math.log((alpha - 2.0) / (alpha - 1.0))
        + alpha * math.log(24.0 * math.pi**2 * K**2)
    )
    if ln_nu == 0.0:
        raise ParameterError("nu = 1 exactly; the constant is undefined there")
    if ln_nu > 0.0:
        flags.append(FLAG_NU_GE_ONE)
        ln_abs_one_minus_nu = ln_nu + math.log1p(-math.exp(-ln_nu))
    else:
        ln_abs_one_minus_nu = math.log1p(-math.exp(ln_nu))
    ln_c_alpha = 6.0 * math.log(10.0) - (
        math.log(alpha - 1.0) + ln_abs_one_minus_nu
    ) / alpha
    exp_term = K**2 * math.pi**2 * (2.0 + math.pi**4) ** 2 / (2.0 * math.log(3.0))
    # exactly-rounded sums; the area-free part is bit-identical across areas,
    # which carries the linear-in-area identity at full precision (the final
    # float sum itself resolves only to one ulp of the ~5e4 magnitude)
    area_free = math.fsum(
        [
            2.0 * ln_c_alpha,
            2.0 * math.log(K),
            (2.0 / alpha - 1.0) * _LN_PI,
            -math.log(4.0),
            exp_term,
        ]
    )
    value = area_free + math.log(area)
    inter = {
        "ln_nu": ln_nu,
        "ln_abs_one_minus_nu": ln_abs_one_minus_nu,
        "ln_c_alpha": ln_c_alpha,
        "exp_term": exp_term,
        "ln_area": math.log(area),
        "log_c_j_area_free": area_free,
        "log_c_j": value,
    }
    return value, flags, inter


def _log_rho_norm_pullback(pullback, s):
    """log of the L^s(image) norm of rho, by pullback quadrature.

    Uses the density's log-space twin, so sharply concentrated densities
    whose tails underflow linear evaluation stay usable.
    """
    log_w = np.log(pullback.jacobian)
    log_w += np.log(pullback.quad.weights)
    return _log_norm(pullback.log_density, log_w, s)


def mu_lower_quasidisc(cmap, rho, params, quad, pullback=None):
    """Map-independent eigenvalue bound for quasidisk images.

    Assembled fully in log space; the resulting bound is astronomically
    small (the Jacobian-norm constant dominates), so ``bound`` generally
    underflows to 0.0 while ``bound_log`` stays finite.
    """
    params.validate_jacobian_free()
    pb = _pullback(cmap, rho, quad, pullback)
    s = params.lebesgue_exponent()
    area = pb.area
    lcj, flags, inter_cj = log_c_j(params.alpha, params.K, area)
    log_rho_s = _log_rho_norm_pullback(pb, s)
    kappa = params.kappa
    p, q, alpha = params.p, params.q, params.alpha
    bound_log = (
        -math.log(4.0)
        - (2.0 * (p - 2.0) / p - 2.0 * kappa) * _LN_PI
        - (2.0 - 2.0 * kappa) * math.log((1.0 - kappa) / (0.5 - kappa))
        - (q - 2.0) / q * log_rho_s
        - (2.0 * alpha / (q * (alpha - 2.0))) * lcj
    )
    inter = {
        "s": s,
        "area": area,
        "log_rho_norm_s": log_rho_s,
        "kappa": kappa,
        **inter_cj,
    }
    return _finish("quasidisc", bound_log, inter, flags, params.as_dict())


def validate_sweep(n_list, params):
    """Range of ``gaussian_sweep``: the map-independent range, sharpness n >= 1."""
    params.validate_jacobian_free()
    low = [n for n in n_list if not n >= 1]
    if low:
        raise ParameterError(f"gaussian sharpness must be >= 1, got {low[0]}")


def gaussian_sweep(n_list, params, cmap, quad, pullback=None):
    """Map-independent bounds for the Gaussian density family e^(-n|x|^2).

    For each sharpness n the density norm is computed by pullback quadrature
    and checked against the closed-form domination (pi/(n s))^(1/s); the
    check allows a 1e-12 relative quadrature slack and raises on violation.
    The map-side samples, phi(z), J and the image area, are computed once
    for the whole sweep, or taken from ``pullback`` when the caller shares
    one of ``cmap`` on ``quad``; its density is not used.  The emitted
    bound reports grow like n^((q-2)/(q s)); fit the log-log slope with
    ``fit_loglog_slope``.
    """
    from .densities import GaussianDensity

    validate_sweep(n_list, params)
    s = params.lebesgue_exponent()
    if pullback is None:
        on_map = Pullback(cmap, None, quad)
    elif pullback.cmap is not cmap or pullback.quad is not quad:
        raise ParameterError("the pull-back samples another map or quadrature")
    else:
        on_map = pullback
    reports = []
    for n in n_list:
        pb = on_map.for_density(GaussianDensity(n))
        report = mu_lower_quasidisc(cmap, pb.rho, params, quad, pullback=pb)
        log_quad_norm = report.intermediates["log_rho_norm_s"]
        log_dominated = (math.log(math.pi) - math.log(n * s)) / s
        if log_quad_norm > log_dominated + 1e-12:
            raise ConvergenceError(
                f"quadrature norm exceeds the closed-form domination at n={n}: "
                f"{log_quad_norm} > {log_dominated}"
            )
        report.intermediates["n"] = float(n)
        report.intermediates["log_rho_norm_dominated"] = log_dominated
        report.method = "gaussian_sweep"
        reports.append(report)
    return reports


def fit_loglog_slope(n_list, reports):
    """Least-squares slope of bound_log against log n, in closed form:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, with no LAPACK call.
    NaN when fewer than two distinct n leave the slope undefined."""
    x = np.log(np.asarray(n_list, dtype=float))
    y = np.asarray([float(r.bound_log) for r in reports])
    dx = x - x.mean()
    spread = float(np.sum(dx * dx))
    if not spread > 0.0:
        return math.nan
    return float(np.sum(dx * (y - y.mean())) / spread)


# ---------------------------------------------------------------------------
# Orlicz route
# ---------------------------------------------------------------------------


def k_phi(cmap, rho, phi_young, quad, pullback=None):
    """Luxemburg-norm functional of rho against the Jacobian profile:

    the image-domain norm of rho / (Jinv * PhiInv(1/Jinv)) pulled back to
    the disk, where the integrand at node z is
    g(z) = rho(phi(z)) J(z) / PhiInv(J(z)) on the Jacobian-weighted measure.
    For Phi = u log^eps(u+e), PhiInv(J) comes from the pull-back, which
    shares it with the density that cancels this functional.
    """
    pb = _pullback(cmap, rho, quad, pullback)
    jac = pb.jacobian
    if isinstance(phi_young, LogPow):
        phi_inv = pb.log_pow_inverse(phi_young.eps)
    else:
        phi_inv = np.asarray(phi_young.inverse(jac))
    g = pb.density * jac
    g /= phi_inv
    pushed = SampledFunction(g, quad.weights * jac, quad.measure_id + ":image")
    return luxemburg_norm(pushed, phi_young)


def embedding_constant(b_m_eps):
    """(b_m_eps, source) for the Orlicz routes.

    ``None`` gives the variational lower estimate of the disk embedding
    constant, ``fem_oracle.b_m2_disk_estimate()``, source
    ``trial_estimate``.  Its value depends on that function's code alone,
    so it is kept here as the exact double, and no run builds the estimate's
    rule and twelve Luxemburg norms; a test recomputes it bit for bit.  A
    pinned value must be positive and finite, source ``pinned``.
    """
    if b_m_eps is None:
        return _B_M2_DISK_ESTIMATE, "trial_estimate"
    if not 0 < b_m_eps < math.inf:
        raise ParameterError(f"embedding constant must be positive and finite, got {b_m_eps}")
    return b_m_eps, "pinned"


def mu_lower_orlicz(cmap, rho, eps, b_m_eps=None, quad=None, pullback=None):
    """Orlicz-route eigenvalue bound 1 / (18 B^2 K_phi).

    ``b_m_eps`` is the disk embedding constant for the compact exponential
    class; it has no known closed form, so it is either pinned by the
    caller or defaulted to the variational lower estimate (which makes the
    reported bound an optimistic version of the analytic one; the report
    records which source was used).  The prefactor 18 is the conservative
    one of the two stated conventions (18 vs 12); both forms are carried.
    """
    ScenarioParams(eps=eps).validate_eps()
    if quad is None:
        quad = build_disk_quadrature(64, 64)
    b_m_eps, b_source = embedding_constant(b_m_eps)
    phi_eps = LogPow(eps)
    kphi = k_phi(cmap, rho, phi_eps, quad, pullback)
    bound_log = -math.log(18.0) - 2.0 * math.log(b_m_eps) - math.log(kphi)
    inter = {
        "k_phi": kphi,
        # Luxemburg value; the Orlicz-norm reading lies within [k_phi, 2 k_phi]
        "k_phi_bracket_hi": 2.0 * kphi,
        "b_m_eps": b_m_eps,
        "b_m_eps_source": b_source,
        "bound_log_alt_convention": -math.log(12.0)
        - 2.0 * math.log(b_m_eps)
        - math.log(kphi),
        "poincare_upper_proof": 2.0 * math.sqrt(3.0) * b_m_eps * math.sqrt(kphi),
        "poincare_upper_statement": 3.0 * math.sqrt(2.0) * b_m_eps * math.sqrt(kphi),
    }
    return _finish(
        "orlicz", bound_log, inter, [FLAG_CONSTANT_CONVENTION], {"eps": eps}
    )


def mu_lower_orlicz_quasidisc(cmap, rho, params, b_m_eps=None, quad=None, pullback=None):
    """Map-independent Orlicz-route bound (the double-exponential chain).

    Builds the conjugate-power composition for (eps, alpha), probes its
    supermultiplicativity constant, computes the conjugate-norm of the
    transformed density by pullback, and assembles

        log C~ = log 288 + log C_psi - log PhiInv(1 / Psi(T)),
        T = (alpha/(alpha-2))^((alpha-2)/2) * C_J^(alpha/2),

    in log-log doubles: Psi(T) is a double exponential, so even its log
    leaves double range, and log Psi(T), log C~ and bound_log are
    ``SignedExp`` values, each +-e^l for a double l.  Adding the O(1)
    terms to them is float arithmetic on l; ``bound`` underflows to 0.0 by
    construction.
    """
    if quad is None:
        quad = build_disk_quadrature(48, 32)
    params.validate_quasidisc()
    params.validate_eps()
    b_m_eps, b_source = embedding_constant(b_m_eps)
    alpha, eps = params.alpha, params.eps

    phi_eps = LogPow(eps)
    psi_eps = PsiAlpha(alpha, eps)
    psi = PsiAlpha(alpha)
    c_psi = probe_nabla_prime(psi_eps)
    if c_psi is None:
        raise ConvergenceError(
            "no supermultiplicativity constant found for the conjugate-power "
            "composition on the probe grid"
        )

    # conjugate-norm of the transformed density, by pullback
    pb = _pullback(cmap, rho, quad, pullback)
    transformed = SampledFunction(
        np.asarray(phi_eps.eval(pb.density)),
        quad.weights * pb.jacobian,
        quad.measure_id + ":image",
    )
    psi_eps_star = NumericComplement(psi_eps, refine=False)
    norm_psi_star = luxemburg_norm(transformed, psi_eps_star)

    area = pb.area
    lcj, flags, inter_cj = log_c_j(alpha, params.K, area)

    log_t = 0.5 * (alpha - 2.0) * math.log(alpha / (alpha - 2.0)) + 0.5 * alpha * lcj
    log_psi_t = psi.log_eval_from_log(log_t)  # SignedExp, astronomically large
    # log PhiInv(1/Psi(T)): -log Psi(T) is its own root, far below double range
    log_phi_inv = LogLinear().inverse_log(-log_psi_t)
    log_c_tilde = math.log(288.0) + math.log(c_psi) - log_phi_inv

    # bound_log = log PhiEpsInv(1/norm) - log C~ - 2 log B
    log_phi_eps_inv = float(phi_eps.inverse_log(math.log(1.0 / norm_psi_star)))
    bound_log = log_phi_eps_inv - log_c_tilde - 2.0 * math.log(b_m_eps)

    inter = {
        "c_psi": c_psi,
        "norm_phi_rho_psi_star": norm_psi_star,
        "area": area,
        "log_t": log_t,
        "log_psi_of_t": log_psi_t,
        "log_phi_inv_of_inv_psi": log_phi_inv,
        "log_c_tilde_j": log_c_tilde,
        "log_phi_eps_inv_of_inv_norm": log_phi_eps_inv,
        "b_m_eps": b_m_eps,
        "b_m_eps_source": b_source,
        **inter_cj,
    }
    return _finish(
        "orlicz_quasidisc", bound_log, inter, flags, params.as_dict()
    )
