"""Batch driver: scenario configs in, CSV rows out.

Commands
--------
bound   compute the requested analytic lower bounds per scenario
verify  bounds plus the FEM reference; flags unsound rows, exit 1 on any
sweep   Gaussian-density sweep with a log-log slope summary row
norms   standalone norm/functional values (luxemburg, kq, kphi)

Flags
-----
all four      --config PATH (required), --out PATH (default stdout),
              --jobs N (scenarios run on N threads, default 1)
verify only   --fem-level L (overrides every scenario's fem_level),
              --tol X (soundness tolerance, default 0.02)
bound, verify --corrupt-bounds F (hidden from --help: multiplies every
              bound by F, so a test can check that verify flags it)

A flag given to a command that does not read it is a usage error (exit 2).

The config is a flat, line-oriented ``key = value`` format with
``[scenario]`` section headers and ``#`` comments; no external config
language.  Keys before the first section set global defaults.  Recognized
keys:

    id         scenario name (default scenario-<index>)
    map        identity | perturbed_power c=<complex> k=<int>
               | polynomial coeffs=<c1,c2,...> | moebius a=<complex>
    density    constant [c=..] | gaussian n=.. | pullback_jacobian_power
               [exponent=..] | pullback_orlicz_canceling eps=..
               | samples file=<path with one value per quadrature node>
    methods    comma list of keys of ``BOUNDS`` for bound/verify (esssup,
               lq, quasidisc, orlicz, orlicz_quasidisc, gaussian_sweep) or
               of ``NORMS`` for norms (luxemburg, kq, kphi)
    p q alpha K eps        exponent parameters
    quad_nr quad_ntheta    disk quadrature orders (default 64 x 64)
    fem_level              FEM refinement level for verify, 2 to 8 (default 5)
    b_m_eps                pinned embedding constant (default: trial estimate)
    sweep_n                comma list of Gaussian sharpness values
    young                  Young function for the luxemburg norm (norms
                           command): log_linear | log_pow:<eps> |
                           exp_square | power:<p>

The map and density kinds and their parameters are the rows of
``conformal.MAP_KINDS`` and ``densities.DENSITY_KINDS``; parameters in
``[..]`` are optional.  A spec with an unknown kind, an unknown, repeated,
missing or uncastable parameter is a config error, and so is a ``samples``
file that cannot be read, holds a non-positive value or does not have one
value per quadrature node.

The method tables ``BOUNDS`` and ``NORMS`` hold one row per method: its
range check, which calls the validator its route calls, and its call.

Exit codes: 0 success; 1 only when verify writes an unsound or ``error:``
row (``sound`` is ``false``); 2 usage or config errors, with the config line
number.  The parameter ranges of the requested methods and verify's FEM
level are config errors.  Numeric failures inside a scenario become a
row-level ``error:`` flag; bound and sweep keep exit code 0.

Output determinism: identical configs produce byte-identical CSV (fixed
17-significant-digit formatting, rows in config order, seeded solvers).
``#`` comment lines carry provenance (artifact version, config hash).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import bounds as bnd
from . import fem_oracle
from .conformal import Pullback, build_disk_quadrature, map_from_spec
from .densities import SampledDensity, density_from_spec
from .errors import ConfigError, DensityError, NeumannBoundsError, ParameterError
from .orlicz import SampledFunction, luxemburg_norm
from .youngfn import ExpSquare, LogLinear, LogPow, PowerP


def fmt(x):
    """Fixed 17-significant-digit formatting; mpmath values supported."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    try:
        return f"{float(x):.17g}"
    except (OverflowError, TypeError):
        import mpmath as mp

        return mp.nstr(mp.mpf(x), 17)


def _fmt_intermediates(inter):
    return "|".join(f"{key}={fmt(inter[key])}" for key in sorted(inter))


@dataclass
class Scenario:
    sid: str
    map_spec: str = "identity"
    density_spec: str = "constant"
    methods: list = field(default_factory=list)
    params: bnd.ScenarioParams = bnd.ScenarioParams()
    quad_nr: int = 64
    quad_ntheta: int = 64
    fem_level: int = 5
    b_m_eps: float = None
    sweep_n: list = field(default_factory=lambda: [10, 100, 1000, 10000])
    young: str = "log_linear"
    line: int = 0  # config line of the section header

    def build(self):
        """(map, density, quadrature); a bad spec or range is a ConfigError."""
        try:
            cmap = map_from_spec(self.map_spec)
            quad = build_disk_quadrature(self.quad_nr, self.quad_ntheta)
            rho = density_from_spec(self.density_spec)
            if isinstance(rho, SampledDensity) and rho.values.size != len(quad):
                raise ConfigError(
                    f"samples file has {rho.values.size} values, "
                    f"quadrature has {len(quad)} nodes"
                )
        except (ConfigError, ParameterError, DensityError) as exc:
            raise ConfigError(f"line {self.line}: scenario {self.sid!r}: {exc}") from exc
        return cmap, rho, quad


_PARAM_KEYS = {f.name.lower(): f.name for f in fields(bnd.ScenarioParams)}  # "k" -> "K"
_FLOAT_KEYS = {*_PARAM_KEYS, "b_m_eps"}
_INT_KEYS = {"quad_nr", "quad_ntheta", "fem_level"}


def _apply_key(sc, key, value, line):
    lk = key.lower()
    if lk == "id":
        sc.sid = value
    elif lk == "map":
        sc.map_spec = value
    elif lk == "density":
        sc.density_spec = value
    elif lk == "methods":
        sc.methods = [m.strip() for m in value.split(",") if m.strip()]
    elif lk == "sweep_n":
        try:
            sc.sweep_n = [int(float(t)) for t in value.split(",")]
        except ValueError as exc:
            raise ConfigError(f"line {line}: bad number list for {key}: {value!r}") from exc
    elif lk == "young":
        sc.young = value.strip()
    elif lk in _FLOAT_KEYS:
        try:
            number = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {line}: bad number for {key}: {value!r}") from exc
        if not math.isfinite(number):
            raise ConfigError(f"line {line}: {key} must be finite, got {value!r}")
        if lk in _PARAM_KEYS:
            sc.params = replace(sc.params, **{_PARAM_KEYS[lk]: number})
        else:
            sc.b_m_eps = number
    elif lk in _INT_KEYS:
        try:
            setattr(sc, lk, int(value))
        except ValueError as exc:
            raise ConfigError(f"line {line}: bad integer for {key}: {value!r}") from exc
    else:
        raise ConfigError(f"line {line}: unknown key {key!r}")


def parse_config(text):
    """Parse config text into a list of scenarios (with line-numbered errors)."""
    defaults = Scenario(sid="defaults")
    scenarios = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if stripped.lower() != "[scenario]":
                raise ConfigError(f"line {lineno}: unknown section {stripped!r}")
            current = replace(
                defaults, sid=f"scenario-{len(scenarios) + 1}", methods=list(defaults.methods),
                sweep_n=list(defaults.sweep_n), line=lineno,
            )
            scenarios.append(current)
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        _apply_key(current if current is not None else defaults, key, value, lineno)
    if not scenarios:
        raise ConfigError("config defines no [scenario] sections")
    return scenarios


def _young_from_name(name, line):
    name = name.strip().lower()
    try:
        if name == "log_linear":
            return LogLinear()
        if name == "exp_square":
            return ExpSquare()
        if name.startswith(("log_pow:", "power:")):
            kind, text = name.split(":", 1)
            return (LogPow if kind == "log_pow" else PowerP)(float(text))
    except ValueError as exc:
        raise ConfigError(f"line {line}: bad young function {name!r}: {exc}") from exc
    raise ConfigError(f"line {line}: unknown young function {name!r}")


# ---------------------------------------------------------------------------
# method tables
# ---------------------------------------------------------------------------


def _check_orlicz(sc):
    sc.params.validate_eps()
    if sc.b_m_eps is not None:  # the default needs no check and costs a solve
        bnd.embedding_constant(sc.b_m_eps)


def _check_sweep(sc):
    bnd.validate_sweep(sc.sweep_n, sc.params)


def _sweep(sc, cmap, quad):
    """Gaussian-sweep reports, their log-log slope and the predicted slope
    (q-2)/(q s), with s the density-norm exponent."""
    reports = bnd.gaussian_sweep(sc.sweep_n, sc.params, cmap, quad)
    predicted = (sc.params.q - 2.0) / (sc.params.q * sc.params.lebesgue_exponent())
    return reports, bnd.fit_loglog_slope(sc.sweep_n, reports), predicted


def _sweep_reports(sc, pb):
    """One row per sharpness n, then the slope summary."""
    reports, slope, predicted = _sweep(sc, pb.cmap, pb.quad)
    pairs = [(f"[n={n}]", rep) for n, rep in zip(sc.sweep_n, reports)]
    return pairs + [("[slope]", {"slope": slope, "predicted": predicted})]


def _luxemburg(sc, pb):
    young = _young_from_name(sc.young, sc.line)
    f = SampledFunction(pb.density, pb.quad.weights, pb.quad.measure_id)
    return f"luxemburg({young.name})", luxemburg_norm(f, young)


# Method tables, method -> (check, run).  check(sc) raises ParameterError or
# ConfigError when the scenario lies outside the method's range.  run(sc, pb)
# gets the scenario's one ``Pullback``, shared by all its rows, and returns a
# bound method's BoundReport, or (label suffix, report) pairs when the method
# writes several rows, and a norm method's (label, value).  Rows look each
# route up on its module when they run.
BOUNDS = {
    "esssup": (
        lambda sc: None,
        lambda sc, pb: bnd.mu_lower_esssup(pb.cmap, pb.rho, pb.quad, pullback=pb),
    ),
    "lq": (
        lambda sc: sc.params.validate_pq(),
        lambda sc, pb: bnd.mu_lower_kq(
            pb.cmap, pb.rho, sc.params.p, sc.params.q, pb.quad, pullback=pb
        ),
    ),
    "quasidisc": (
        lambda sc: sc.params.validate_jacobian_free(),
        lambda sc, pb: bnd.mu_lower_quasidisc(pb.cmap, pb.rho, sc.params, pb.quad, pullback=pb),
    ),
    "gaussian_sweep": (_check_sweep, _sweep_reports),
    "orlicz": (
        _check_orlicz,
        lambda sc, pb: bnd.mu_lower_orlicz(
            pb.cmap, pb.rho, sc.params.eps, sc.b_m_eps, pb.quad, pullback=pb
        ),
    ),
    "orlicz_quasidisc": (
        lambda sc: (sc.params.validate_quasidisc(), _check_orlicz(sc)),
        lambda sc, pb: bnd.mu_lower_orlicz_quasidisc(
            pb.cmap, pb.rho, sc.params, sc.b_m_eps, pb.quad, pullback=pb
        ),
    ),
}

NORMS = {
    "luxemburg": (lambda sc: _young_from_name(sc.young, sc.line), _luxemburg),
    "kq": (
        lambda sc: sc.params.validate_q(),
        lambda sc, pb: (
            f"kq(q={fmt(sc.params.q)})",
            bnd.k_q(pb.cmap, pb.rho, sc.params.q, pb.quad, pullback=pb),
        ),
    ),
    "kphi": (
        lambda sc: LogPow(sc.params.eps),  # the constructor range-checks eps
        lambda sc, pb: (
            f"kphi(eps={fmt(sc.params.eps)})",
            bnd.k_phi(pb.cmap, pb.rho, LogPow(sc.params.eps), pb.quad, pullback=pb),
        ),
    ),
}


def _validate_scenario(sc, command):
    """Range-check everything the requested methods will need (before work)
    and return the scenario's (map, density, quadrature)."""
    if command == "sweep":
        checks = [_check_sweep]
    else:
        table = NORMS if command == "norms" else BOUNDS
        if not sc.methods:
            raise ConfigError(
                f"line {sc.line}: scenario {sc.sid!r} has an empty method list"
            )
        for m in sc.methods:
            if m not in table:
                raise ConfigError(
                    f"line {sc.line}: unknown method {m!r} for {command} "
                    f"(valid: {', '.join(sorted(table))})"
                )
        checks = [table[m][0] for m in sc.methods]
    try:
        for check in checks:
            check(sc)
        if command == "verify":
            fem_oracle.check_richardson_level(sc.fem_level)
    except ParameterError as exc:
        raise ConfigError(f"line {sc.line}: scenario {sc.sid!r}: {exc}") from exc
    return sc.build()  # surfaces bad map/density specs now


# ---------------------------------------------------------------------------
# per-scenario work
# ---------------------------------------------------------------------------


def _bound_reports(sc, cmap, rho, quad):
    """(label, result) pairs in method order; a result is a BoundReport, a
    sweep slope summary dict or an ``error:`` string.  The rows share one
    pull-back, which goes with this call."""
    pb = Pullback(cmap, rho, quad)
    out = []
    for method in sc.methods:
        try:
            rep = BOUNDS[method][1](sc, pb)
        except NeumannBoundsError as exc:
            rep = f"error:{exc}"
        if isinstance(rep, list):
            out += [(method + suffix, r) for suffix, r in rep]
        else:
            out.append((method, rep))
    return out


def _rows_bound(sc, built, corrupt=1.0):
    rows = []
    for method, rep in _bound_reports(sc, *built):
        if isinstance(rep, str):
            rows.append([sc.sid, method, "nan", "nan", "", rep])
            continue
        if isinstance(rep, dict):  # sweep slope summary
            rows.append([sc.sid, method, fmt(rep["slope"]), fmt(rep["predicted"]), "", ""])
            continue
        inter, flags = _fmt_intermediates(rep.intermediates), ";".join(rep.validity_flags)
        rows.append([sc.sid, method, fmt(corrupt * rep.bound), fmt(rep.bound_log), inter, flags])
    return rows


def _rows_verify(sc, built, tol, corrupt=1.0):
    cmap, rho, quad = built
    try:
        mu_ref = fem_oracle.mu_fem_richardson(cmap, rho, sc.fem_level)
    except NeumannBoundsError as exc:
        return [[sc.sid, m, "nan", "nan", "nan", "false", f"error:{exc}"] for m in sc.methods]
    rows = []
    for method, rep in _bound_reports(sc, cmap, rho, quad):
        if isinstance(rep, str):
            rows.append([sc.sid, method, "nan", fmt(mu_ref), "nan", "false", rep])
            continue
        if isinstance(rep, dict):  # slope summaries carry no soundness claim
            continue
        bound = corrupt * rep.bound
        ratio = bound / mu_ref
        sound, flags = "true" if ratio <= 1.0 + tol else "false", ";".join(rep.validity_flags)
        rows.append([sc.sid, method, fmt(bound), fmt(mu_ref), fmt(ratio), sound, flags])
    return rows


def _rows_sweep(sc, built):
    cmap, _, quad = built
    try:
        reports, slope, predicted = _sweep(sc, cmap, quad)
    except NeumannBoundsError as exc:
        return [[sc.sid, "sweep", "nan", "nan", "nan", "nan", f"error:{exc}"]]
    rows = []
    for n, rep in zip(sc.sweep_n, reports):
        rows.append(
            [
                sc.sid,
                f"n={n}",
                fmt(rep.bound),
                fmt(rep.bound_log),
                fmt(rep.intermediates["log_rho_norm_s"]),
                fmt(rep.intermediates["log_rho_norm_dominated"]),
                ";".join(rep.validity_flags),
            ]
        )
    rows.append([sc.sid, "slope", fmt(slope), fmt(predicted), "", "", ""])
    return rows


def _rows_norms(sc, built):
    pb = Pullback(*built)
    rows = []
    for method in sc.methods:
        label, value = NORMS[method][1](sc, pb)
        rows.append([sc.sid, label, fmt(value), ""])
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# command -> (CSV header, worker(scenario, built, args) -> rows), where
# ``built`` is the (map, density, quadrature) the validation built; the
# workers look the row functions up on this module when they run
_COMMANDS = {
    "bound": (
        ["scenario", "method", "bound", "bound_log", "intermediates", "flags"],
        lambda sc, built, args: _rows_bound(sc, built, args.corrupt_bounds),
    ),
    "verify": (
        ["scenario", "method", "bound", "mu_fem", "ratio", "sound", "flags"],
        lambda sc, built, args: _rows_verify(sc, built, args.tol, args.corrupt_bounds),
    ),
    "sweep": (
        ["scenario", "point", "bound", "bound_log_or_predicted_slope", "log_rho_norm",
         "log_rho_norm_dominated", "flags"],
        lambda sc, built, args: _rows_sweep(sc, built),
    ),
    "norms": (
        ["scenario", "quantity", "value", "details"],
        lambda sc, built, args: _rows_norms(sc, built),
    ),
}


def _emit(out_path, config_text, header, rows):
    lines = [
        f"# artifact-version: {__version__}",
        f"# config-sha256: {hashlib.sha256(config_text.encode()).hexdigest()}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(row))
    payload = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(payload)
    else:
        with open(out_path, "w") as fh:
            fh.write(payload)


def _run_parallel(items, worker, jobs):
    if jobs <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="neumann-bounds",
        description="analytic eigenvalue lower bounds with FEM verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="scenario config path")
        cmd.add_argument("--out", default="-", help="output CSV path (default stdout)")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel scenarios")
        if name == "verify":
            cmd.add_argument("--fem-level", type=int, default=None, help="override FEM level")
            cmd.add_argument("--tol", type=float, default=0.02, help="soundness tolerance")
        if name in ("bound", "verify"):
            cmd.add_argument(
                "--corrupt-bounds",
                type=float,
                default=1.0,
                help=argparse.SUPPRESS,  # detector self-test hook: multiply bounds
            )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config_text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    fem_level = getattr(args, "fem_level", None)
    try:
        scenarios = parse_config(config_text)
        built = []
        for sc in scenarios:
            if fem_level is not None:
                sc.fem_level = fem_level
            built.append(_validate_scenario(sc, args.command))
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header, worker = _COMMANDS[args.command]
    blocks = _run_parallel(list(zip(scenarios, built)), lambda item: worker(*item, args), args.jobs)
    rows = [row for block in blocks for row in block]
    _emit(args.out, config_text, header, rows)
    unsound = "sound" in header and any(row[header.index("sound")] == "false" for row in rows)
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
