"""Seeded scenario configs for the benchmark workloads.

Seed 0 is the default: ``verify-battery`` and ``fine-quadrature`` then use
exactly the 25 acceptance fixtures of ``tests/test_acceptance.py`` (5 maps x
5 densities).  Any other seed draws fresh parameters inside the ranges the
CLI validates: perturbed-power c in [0.2, 0.5] with k in {2, 3}, Moebius
|a| <= 0.5 and Gaussian sharpness n in [1, 8].  Every seed keeps the same
shape (scenario count, method lists, quadrature and FEM sizes), so the work
differs between seeds only through the parameter values.

The CLI receives only the generated config text.  Print one with
``python3 bench/workloads.py <workload> [seed]``.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass

DEFAULT_SEED = 0
# the CLI's default sweep_n, which the expected gaussian_sweep rows follow
SWEEP_N = (10, 100, 1000, 10000)

_ACCEPTANCE_MAPS = [
    ("identity", "identity"),
    ("pp0.3k2", "perturbed_power c=0.3 k=2"),
    ("pp0.5k2", "perturbed_power c=0.5 k=2"),
    ("pp0.3k3", "perturbed_power c=0.3 k=3"),
    ("pp0.5k3", "perturbed_power c=0.5 k=3"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    jobs: int  # the CLI's --jobs for the timed runs


WORKLOADS = {
    w.name: w
    for w in (
        # FEM does about 80 % of the work here, so eigensolver, mesh-cache
        # and process-pool changes all show on this workload.
        Workload("verify-battery", "verify", 2),
        # No FEM: pull-backs, the per-node LogPow.inverse bisection and the
        # Luxemburg k_phi dominate, and the thread pool helps measurably.
        Workload("fine-quadrature", "bound", 2),
        # The numeric conjugate and the mpmath chain, with neither FEM nor
        # the big pull-backs; at --jobs 2 its spread was too wide to time.
        Workload("quasidisk-chain", "bound", 1),
    )
}


@dataclass(frozen=True)
class Scenario:
    sid: str
    map_spec: str
    density_spec: str
    methods: tuple = ()  # empty: the shared default method list


def _density_slots(n1, n2):
    return [
        ("one", "constant"),
        (f"gauss{n1:g}", f"gaussian n={n1:g}"),
        (f"gauss{n2:g}", f"gaussian n={n2:g}"),
        ("cancel-esssup", "pullback_jacobian_power exponent=1"),
        ("cancel-orlicz", "pullback_orlicz_canceling eps=2"),
    ]


def _draw_pp(rng):
    c = round(rng.uniform(0.2, 0.5), 4)
    k = rng.choice([2, 3])
    return f"pp{c:g}k{k}", f"perturbed_power c={c:g} k={k}"


def _draw_moebius(rng):
    a = cmath.rect(round(rng.uniform(0.0, 0.5), 4), rng.uniform(0.0, 2.0 * math.pi))
    literal = f"{round(a.real, 4):g}{round(a.imag, 4):+g}j"
    return f"moebius{literal}", f"moebius a={literal}"


def _draw_gauss(rng):
    return round(rng.uniform(1.0, 8.0), 4)


def _battery(seed):
    if seed == DEFAULT_SEED:
        maps, densities = _ACCEPTANCE_MAPS, _density_slots(1, 4)
    else:
        rng = random.Random(seed)
        maps = [("identity", "identity")] + [_draw_pp(rng) for _ in range(3)]
        maps.append(_draw_moebius(rng))
        densities = _density_slots(_draw_gauss(rng), _draw_gauss(rng))
    return [
        Scenario(f"{mid}/{did}", mspec, dspec) for mid, mspec in maps for did, dspec in densities
    ]


def _quasidisk(seed):
    if seed == DEFAULT_SEED:
        pp, n = _ACCEPTANCE_MAPS[1], 4.0
        moebius = ("moebius0.3", "moebius a=0.3")
    else:
        rng = random.Random(seed)
        pp, n, moebius = _draw_pp(rng), _draw_gauss(rng), _draw_moebius(rng)
    # The Gaussian sweep runs on the perturbed-power scenario only: on a
    # Moebius image the Gaussian peak sits off the disk centre, where the
    # 48x32 quadrature over-estimates its norm and the sweep's closed-form
    # domination check turns the sweep into an error row.
    return [
        Scenario(
            f"{pp[0]}/gauss{n:g}",
            pp[1],
            f"gaussian n={n:g}",
            ("quasidisc", "orlicz_quasidisc", "gaussian_sweep"),
        ),
        Scenario(f"{moebius[0]}/one", moebius[1], "constant", ("quasidisc", "orlicz_quasidisc")),
    ]


_SHARED = {
    "verify-battery": ["methods = esssup, lq, orlicz", "quad_nr = 64", "quad_ntheta = 64", "fem_level = 5"],
    "fine-quadrature": ["methods = esssup, lq, orlicz", "quad_nr = 256", "quad_ntheta = 256"],
    "quasidisk-chain": ["K = 1.05", "quad_nr = 48", "quad_ntheta = 32"],
}
_DEFAULT_METHODS = ("esssup", "lq", "orlicz")


def scenarios(workload, seed=DEFAULT_SEED):
    if workload == "quasidisk-chain":
        return _quasidisk(seed)
    if workload in WORKLOADS:
        return _battery(seed)
    raise KeyError(f"unknown workload {workload!r}")


def config_text(workload, seed=DEFAULT_SEED):
    """The config file text of ``workload`` at ``seed`` (deterministic)."""
    lines = [f"# benchmark workload {workload}, seed {seed}", "p = 1.5", "q = 4", "alpha = 12", "eps = 2"]
    lines += _SHARED[workload]
    for sc in scenarios(workload, seed):
        lines += ["", "[scenario]", f"id = {sc.sid}", f"map = {sc.map_spec}", f"density = {sc.density_spec}"]
        if sc.methods:
            lines.append(f"methods = {', '.join(sc.methods)}")
    return "\n".join(lines) + "\n"


def expected_rows(workload, seed=DEFAULT_SEED):
    """(scenario, method) keys of the CSV rows the CLI should write, in order."""
    keys = []
    for sc in scenarios(workload, seed):
        for method in sc.methods or _DEFAULT_METHODS:
            if method == "gaussian_sweep":  # bound rows; verify would drop the slope
                keys += [(sc.sid, f"gaussian_sweep[n={n}]") for n in SWEEP_N]
                keys.append((sc.sid, "gaussian_sweep[slope]"))
            else:
                keys.append((sc.sid, method))
    return keys


if __name__ == "__main__":
    sys.stdout.write(config_text(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_SEED))
