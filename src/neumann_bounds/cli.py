"""Batch driver: scenario configs in, CSV rows out.

Commands
--------
bound   compute the requested analytic lower bounds per scenario
verify  bounds plus the FEM reference; flags unsound rows, exit 1 on any;
        a gaussian_sweep[n=..] row bounds mu for e^(-n|x|^2), not for the
        scenario's density, so its mu_fem and ratio are nan and its sound
        is unchecked
sweep   Gaussian-density sweep with a log-log slope summary row
norms   standalone norm/functional values (luxemburg, kq, kphi)

Flags
-----
all four      --config PATH (required), --out PATH (default stdout),
              --jobs N (scenarios run on up to N worker processes, default 1)
verify only   --fem-level L (overrides every scenario's fem_level),
              --tol X (soundness tolerance, default 0.02)
bound, verify --corrupt-bounds F (hidden from --help: multiplies every
              bound by F, so a test can check that verify flags it)

A flag given to a command that does not read it is a usage error (exit 2),
and so are --jobs below 1 and a --tol that is not finite and at least 0.

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
range check, which calls the validator its route calls, and its call; sweep
runs the ``gaussian_sweep`` row.  One runner runs a scenario's methods for
all four commands.

Exit codes: 0 success; 1 only when verify writes an unsound or ``error:``
row (``sound`` is ``false``); 2 usage or config errors, with the config line
number, and an --out that cannot be written; 3 a crashed run: an uncaught
exception, a worker's or a worker's death among them.  The parameter
ranges of the requested methods and verify's FEM level are config errors.
A numeric failure (``NeumannBoundsError``) becomes its method's ``error:``
row under all four commands, and a failed FEM reference one per verify
method; bound, sweep and norms keep exit code 0.  verify computes no FEM
reference for a scenario whose methods are all ``gaussian_sweep``, since no
row checks it.

Process entry: ``python -m neumann_bounds.cli`` and the ``neumann-bounds``
script call ``run()``, which returns ``main()``'s exit code, or 3 with the
traceback when ``main()`` raises, after ``gc.freeze()``.  The interpreter's
teardown then leaves the run's objects out of its last collection, which
would otherwise visit every object numpy created.  ``main()`` is the
in-process API: it raises what a crashed run raises, and never freezes,
since a caller's heap is not the run's to keep.  The process exits
normally, so atexit handlers, such as those of coverage and of
``python -m cProfile``, still run.

Output determinism: identical configs produce byte-identical CSV (fixed
17-significant-digit formatting, rows in config order, seeded solvers),
whatever --jobs is.  ``#`` comment lines carry provenance (artifact
version, config hash).

Parallel runs: the parent parses, validates and builds every scenario,
cuts the scenario indices into contiguous chunks of ceil(scenarios / N),
and forks one worker per chunk with ``os.fork``, so no worker idles; with
one chunk the scenarios run in-process.  A worker inherits the built
scenarios, so none is pickled.  It runs its chunk, writes the pickled rows,
or the exception a scenario raised, to its own pipe, and leaves through
``os._exit``, which runs none of the parent's exit handlers and flushes
none of its buffers.  The parent reads the pipes in chunk order, reaps each
worker with ``waitpid`` and re-raises a worker's exception; a worker that
exits nonzero or is killed raises ChildProcessError.  On either error the
parent kills and reaps the workers still running, writes no CSV, and the
process exits 3 with the traceback, as on any uncaught error.  No process
of a run loads ``multiprocessing`` or ``concurrent.futures``, whose pool
would add its modules and helper threads to each worker.
The chunks are contiguous, so the scenarios of a map, consecutive in a
config, are split between workers only where a chunk ends, and a worker
builds a map's meshes and factors once per chunk.
verify's parent builds the factor plans of the FEM levels its scenarios
use (``fem_oracle.plan_levels``) before it forks, so each worker inherits
them and its peak resident set leaves out the plans' temporaries.  A run on
one worker builds each plan when it first factors.  No command loads
scipy, and no process loads ``numpy.ma``: the patterns and plans take
their unique keys with ``cholesky.sorted_unique``, where ``np.unique``
would load it in the parent and hand it to every worker.  Only verify
loads ``fem_oracle``: importing this module does not, and the bound
routes keep the oracle's two constants they use, mu_disk and the default
embedding constant, as doubles.
Every process of a run uses one BLAS thread.  OpenBLAS starts one thread
per core by default, so N workers would oversubscribe the cores N times
over, and a bare ``import numpy`` would pay for starting the pool.  Importing
this module sets OPENBLAS_NUM_THREADS to 1 unless the environment already
sets it, before it imports numpy, whose OpenBLAS reads the variable once as
it loads; the package's ``__init__`` imports nothing, so the command's
process has not loaded numpy before then.  Forked workers inherit the
variable.
numpy's BLAS and LAPACK serve only the oracle: the batched dense fronts of
its factorization and solve, the Lanczos loop's products with a few dozen
basis vectors, and the ``eigh`` of its small tridiagonal matrix.  The
quadrature rules and the bound routes call no LAPACK, in the parent or in a
worker.  A program that imports numpy before this module keeps numpy's own
thread pool.

Shared work: the scenarios of a config hold one ``Shared`` object.  It
builds and certifies each distinct map spec text once, and owns, per
process, the current map's ``MapWork``: the map-side samples (phi(z), J,
PhiInv(J) per eps, image area) on the last quadrature used, and the FEM
meshes with their stiffness matrices and factorizations.  The work is kept
for the current map, dropped when a scenario on another map object starts,
and freed with the config's scenarios.  A scenario's methods share its
density-side samples, rho(phi(z)) and log rho(phi(z)), on one pull-back.
Workers receive contiguous chunks of tasks in config order, so each
computes a map's share once per run of consecutive scenarios on it.  The
CSV bytes do not depend on what is shared.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import pickle
import sys
from dataclasses import dataclass, field, fields, replace

# CPython's builtin SHA-256 for the config hash: hashlib would map OpenSSL's
# libcrypto into every process for one digest
try:
    from _sha2 import sha256
except ImportError:  # before Python 3.12
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the builtin module
        from hashlib import sha256

# before numpy loads its OpenBLAS, which reads this once (see "Parallel runs")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from . import bounds as bnd
from .conformal import Pullback, build_disk_quadrature, map_from_spec
from .densities import SampledDensity, density_from_spec
from .errors import ConfigError, DensityError, NeumannBoundsError, ParameterError
from .orlicz import SampledFunction, luxemburg_norm
from .youngfn import ExpSquare, LogLinear, LogPow, PowerP


def fmt(x):
    """Fixed 17-significant-digit formatting; a ``SignedExp`` beyond double
    range prints as its float, +-inf."""
    return x if isinstance(x, str) else f"{float(x):.17g}"


@dataclass
class MapWork:
    """The current map's work: its map-side pull-back on the last
    quadrature used, and its FEM meshes by level, which carry their
    stiffness matrices and those matrices' factors."""

    pullback: Pullback
    meshes: dict = field(default_factory=dict)


class Shared:
    """The work the scenarios of one config share (see "Shared work")."""

    def __init__(self):
        self._maps = {}
        self._current = None  # the current map's MapWork

    def map(self, spec):
        """One map object per distinct spec text."""
        if spec not in self._maps:
            self._maps[spec] = map_from_spec(spec)
        return self._maps[spec]

    def on_map(self, cmap, quad):
        """The ``MapWork`` of ``cmap`` on ``quad``; a new one, which drops
        the previous map's, when ``cmap`` is not the current map."""
        if self._current is None or self._current.pullback.cmap is not cmap:
            self._current = MapWork(Pullback(cmap, None, quad))
        elif self._current.pullback.quad is not quad:
            self._current.pullback = Pullback(cmap, None, quad)
        return self._current


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
    # parse_config gives every scenario of a config the defaults' object
    shared: Shared = field(default_factory=Shared, repr=False, compare=False)

    def build(self):
        """(map, density, quadrature); a bad spec or range is a ConfigError.

        The map is ``shared``'s, so the scenarios that spell their map the
        same way get one map object."""
        try:
            cmap = self.shared.map(self.map_spec)
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
    bnd.embedding_constant(sc.b_m_eps)


def _check_sweep(sc):
    bnd.validate_sweep(sc.sweep_n, sc.params)


def _sweep(sc, pb):
    """One report per Gaussian sharpness n, then the slope summary: the
    reports' log-log slope and the predicted slope (q-2)/(q s), with s the
    density-norm exponent."""
    reports = bnd.gaussian_sweep(sc.sweep_n, sc.params, pb.cmap, pb.quad, pullback=pb)
    slope = bnd.fit_loglog_slope(sc.sweep_n, reports)
    predicted = (sc.params.q - 2.0) / (sc.params.q * sc.params.lebesgue_exponent())
    pairs = [(f"n={n}", rep) for n, rep in zip(sc.sweep_n, reports)]
    return pairs + [("slope", {"slope": slope, "predicted": predicted})]


def _luxemburg(sc, pb):
    young = _young_from_name(sc.young, sc.line)
    f = SampledFunction(pb.density, pb.quad.weights, pb.quad.measure_id)
    return [(f"luxemburg({young.name})", luxemburg_norm(f, young))]


# Method tables, method -> (check, run).  check(sc) raises ParameterError or
# ConfigError when the scenario lies outside the method's range.  run(sc, pb)
# gets the scenario's one ``Pullback``, shared by all its rows, and returns
# one result, or a list of (label, result) pairs when the method writes
# several rows or names its row.  A result is a BoundReport, the sweep's
# slope summary dict or a norm's value.  Rows look each route up on its
# module when they run.
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
    "gaussian_sweep": (_check_sweep, _sweep),
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
        lambda sc, pb: [(
            f"kq(q={fmt(sc.params.q)})",
            bnd.k_q(pb.cmap, pb.rho, sc.params.q, pb.quad, pullback=pb),
        )],
    ),
    "kphi": (
        lambda sc: LogPow(sc.params.eps),  # the constructor range-checks eps
        lambda sc, pb: [(
            f"kphi(eps={fmt(sc.params.eps)})",
            bnd.k_phi(pb.cmap, pb.rho, LogPow(sc.params.eps), pb.quad, pullback=pb),
        )],
    ),
}


def _method_table(sc, command):
    """The command's method table and the methods of it that ``sc`` runs;
    sweep runs one method, the gaussian_sweep row, whatever ``sc.methods``."""
    if command == "sweep":
        return {"sweep": BOUNDS["gaussian_sweep"]}, ["sweep"]
    return (NORMS if command == "norms" else BOUNDS), sc.methods


def _validate_scenario(sc, command):
    """Range-check everything the requested methods will need (before work)
    and return the scenario's (map, density, quadrature)."""
    table, methods = _method_table(sc, command)
    if not methods:
        raise ConfigError(f"line {sc.line}: scenario {sc.sid!r} has an empty method list")
    for m in methods:
        if m not in table:
            raise ConfigError(
                f"line {sc.line}: unknown method {m!r} for {command} "
                f"(valid: {', '.join(sorted(table))})"
            )
    try:
        for m in methods:
            table[m][0](sc)
        if command == "verify":
            from . import fem_oracle  # only verify loads the oracle

            fem_oracle.check_richardson_level(sc.fem_level)
    except ParameterError as exc:
        raise ConfigError(f"line {sc.line}: scenario {sc.sid!r}: {exc}") from exc
    return sc.build()  # surfaces bad map/density specs now


# ---------------------------------------------------------------------------
# per-scenario work
# ---------------------------------------------------------------------------


def _attempt(call, *args):
    """call(*args), or its NeumannBoundsError as an ``error:`` result."""
    try:
        return call(*args)
    except NeumannBoundsError as exc:
        return f"error:{exc}"


def _run_methods(sc, built, command, failure=None):
    """The runner of every command: (method, label, result) per row, in
    method order; ``label`` is None on a method's one unlabelled row.  A
    method that fails, or every method when ``failure`` (an ``error:`` result
    of work they all need) is given, has one row with the ``error:`` result.
    The rows share one pull-back, whose density-side samples go with this call."""
    table, methods = _method_table(sc, command)
    pb = sc.shared.on_map(built[0], built[2]).pullback.for_density(built[1])
    rows = []
    for method in methods:
        result = failure or _attempt(table[method][1], sc, pb)
        pairs = result if isinstance(result, list) else [(None, result)]
        rows += [(method, label, value) for label, value in pairs]
    return rows


def _rows_bound(sc, built, corrupt=1.0):
    rows = []
    for method, label, rep in _run_methods(sc, built, "bound"):
        name = method if label is None else f"{method}[{label}]"
        if isinstance(rep, str):
            rows.append([sc.sid, name, "nan", "nan", "", rep])
        elif isinstance(rep, dict):  # sweep slope summary
            rows.append([sc.sid, name, fmt(rep["slope"]), fmt(rep["predicted"]), "", ""])
        else:
            inter = "|".join(f"{k}={fmt(v)}" for k, v in sorted(rep.intermediates.items()))
            flags = ";".join(rep.validity_flags)
            rows.append([sc.sid, name, fmt(corrupt * rep.bound), fmt(rep.bound_log), inter, flags])
    return rows


def _checks_fem(sc):
    """Whether a verify row of ``sc`` checks the FEM reference: a
    gaussian_sweep row bounds another density's mu."""
    return set(sc.methods) != {"gaussian_sweep"}


def _rows_verify(sc, built, tol, corrupt=1.0):
    """The FEM reference comes first, unless only gaussian_sweep rows, which
    it does not check, are asked for; its failure is every method's row.
    Taking the map's work first drops the previous map's meshes before
    this map's are built."""
    from . import fem_oracle

    meshes = sc.shared.on_map(built[0], built[2]).meshes
    failure, mu_ref = None, math.nan
    if _checks_fem(sc):
        mu_ref = _attempt(fem_oracle.mu_fem_richardson, *built[:2], sc.fem_level, meshes)
        failure, mu_ref = (mu_ref, math.nan) if isinstance(mu_ref, str) else (None, mu_ref)
    rows = []
    for method, label, rep in _run_methods(sc, built, "verify", failure):
        name = method if label is None else f"{method}[{label}]"
        if isinstance(rep, str):
            rows.append([sc.sid, name, "nan", fmt(mu_ref), "nan", "false", rep])
        elif not isinstance(rep, dict):  # slope summaries carry no soundness claim
            bound, flags = corrupt * rep.bound, ";".join(rep.validity_flags)
            if method == "gaussian_sweep":  # a bound for e^(-n|x|^2), not for this density
                rows.append([sc.sid, name, fmt(bound), "nan", "nan", "unchecked", flags])
            else:
                ratio = bound / mu_ref
                sound = "true" if ratio <= 1.0 + tol else "false"
                rows.append([sc.sid, name, fmt(bound), fmt(mu_ref), fmt(ratio), sound, flags])
    return rows


def _rows_sweep(sc, built):
    rows = []
    for method, label, rep in _run_methods(sc, built, "sweep"):
        if isinstance(rep, str):
            rows.append([sc.sid, method, "nan", "nan", "nan", "nan", rep])
        elif isinstance(rep, dict):
            rows.append([sc.sid, label, fmt(rep["slope"]), fmt(rep["predicted"]), "", "", ""])
        else:
            inter, flags = rep.intermediates, ";".join(rep.validity_flags)
            norms = fmt(inter["log_rho_norm_s"]), fmt(inter["log_rho_norm_dominated"])
            rows.append([sc.sid, label, fmt(rep.bound), fmt(rep.bound_log), *norms, flags])
    return rows


def _rows_norms(sc, built):
    rows = []
    for method, label, value in _run_methods(sc, built, "norms"):
        if isinstance(value, str):
            rows.append([sc.sid, method, "nan", value])
        else:
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
        f"# config-sha256: {sha256(config_text.encode()).hexdigest()}",
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


def _check_writable(out_path):
    """Raise the OSError ``open(out_path, "w")`` would, in the common cases
    (missing or unwritable directory, unwritable file, a directory), without
    creating or truncating anything."""
    if out_path == "-":
        return
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    if not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out_path)


def _run_parallel(task, count, jobs):
    """[task(0), ..., task(count - 1)], on one forked worker per contiguous
    chunk of ceil(count / jobs) indices, or in-process when that is one
    chunk (see "Parallel runs").  ``task`` reaches the workers through the
    fork; only their results and exceptions are pickled."""
    size = max(1, -(-count // jobs))
    chunks = [range(start, min(start + size, count)) for start in range(0, count, size)]
    if len(chunks) <= 1:
        return [task(index) for index in range(count)]
    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for chunk in chunks:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _work(task, chunk, write)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        results = []
        for chunk in chunks:
            pid, pipe = workers[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise ChildProcessError(f"worker for tasks {chunk.start}-{chunk.stop - 1} {how}")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results += value
        return results
    except BaseException:
        from signal import SIGKILL  # only an error leaves workers unreaped

        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        raise


def _work(task, chunk, write):
    """A forked worker's whole life: run the chunk, pickle (True, results) or
    (False, exception) into the pipe, and leave through ``os._exit``."""
    code = 1
    try:
        try:
            outcome = True, [task(index) for index in chunk]
        except Exception as exc:
            import traceback

            traceback.print_exc()  # the parent re-raises the exception without it
            outcome = False, exc
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe)
        code = 0
    finally:
        os._exit(code)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="neumann-bounds",
        description="analytic eigenvalue lower bounds with FEM verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _COMMANDS}
    for name, cmd in commands.items():
        cmd.add_argument("--config", required=True, help="scenario config path")
        cmd.add_argument("--out", default="-", help="output CSV path (default stdout)")
        cmd.add_argument("--jobs", type=int, default=1, help="worker processes")
        if name == "verify":
            cmd.add_argument("--fem-level", type=int, default=None, help="override FEM level")
            cmd.add_argument("--tol", type=float, default=0.02, help="soundness tolerance")
        if name in ("bound", "verify"):
            # detector self-test hook: multiply bounds
            cmd.add_argument("--corrupt-bounds", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    usage_error = commands[args.command].error  # its usage line shows the command's flags
    if args.jobs < 1:
        usage_error(f"--jobs must be at least 1, got {args.jobs}")
    if args.command == "verify" and not 0 <= args.tol < math.inf:  # NaN fails too
        usage_error(f"--tol must be finite and at least 0, got {args.tol}")

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
    items = list(zip(scenarios, built))
    try:
        _check_writable(args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify" and min(args.jobs, len(items)) > 1:  # see "Parallel runs"
        from . import fem_oracle

        fem_oracle.plan_levels(
            {level for sc in scenarios if _checks_fem(sc) for level in (sc.fem_level - 1, sc.fem_level)}
        )
    blocks = _run_parallel(lambda index: worker(*items[index], args), len(items), args.jobs)
    rows = [row for block in blocks for row in block]
    try:
        _emit(args.out, config_text, header, rows)
    except OSError as exc:  # the output became unwritable during the run
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    unsound = "sound" in header and any(row[header.index("sound")] == "false" for row in rows)
    return 1 if unsound else 0


def run():
    """``main()``'s exit code, or 3 with the traceback on stderr when it
    raises, then ``gc.freeze()``: the process entry (see "Process entry")."""
    try:
        return main()
    except Exception:
        import traceback  # only a crashed run needs it

        traceback.print_exc()
        return 3
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
