"""Layer spans for one CLI invocation, recorded from outside the package.

Run as a script, this file imports ``neumann_bounds.cli`` in a fresh
interpreter, wraps the functions at each module's boundary (and the aliases
other modules imported), runs ``cli.main`` once and writes the spans as
JSON::

    PYTHONPATH=src python3 bench/tracing.py spans.json verify --config c.ini --jobs 1

No file of the package changes.  The recorder keeps one stack of open
spans, so the traced invocation must run with ``--jobs 1``.  Imported as a
module, it turns the spans into the per-layer metrics (``layer_metrics``).

Each span is ``[name, start, end, parent, scenario, notes]``; ``parent`` is
the index of the enclosing span and ``notes`` holds values taken from the
arguments or the return value (node counts, eigensolver residuals, FEM
levels).  High-frequency calls (Young-function ``eval`` and the Luxemburg
modular) are counted, not spanned.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from functools import wraps

_clock = time.perf_counter
LAYERS = ("cli", "conformal", "densities", "youngfn", "orlicz", "bounds", "fem_oracle", "trace")


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def span(self, name, fn, note=None, scenario=None):
        """Wrap ``fn`` so that each call records a span.

        ``note(args, result)`` returns a dict kept with the span;
        ``scenario(args)`` names the scenario the span's subtree belongs to.
        """

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            sid = scenario(args) if scenario else (self.spans[parent][4] if parent is not None else None)
            rec = [name, _clock(), None, parent, sid, None]
            self.spans.append(rec)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                rec[2] = _clock()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _size(x):
    import numpy as np

    return int(np.size(x))


def _replace_function(original, wrapper):
    """Point every package module attribute bound to ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "neumann_bounds" or mod_name.startswith("neumann_bounds.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _own_methods(base, name):
    """Classes in ``base``'s hierarchy that define ``name`` themselves."""
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if name in vars(cls):
            seen.append(cls)
        todo += cls.__subclasses__()
    return seen


def install(rec):
    """Wrap the layer boundaries of the imported package."""
    from neumann_bounds import bounds, cli, conformal, densities, fem_oracle, orlicz, youngfn

    def fn(name, original, **kw):
        _replace_function(original, rec.span(name, original, **kw))

    def method(name, base, attr, **kw):
        for cls in _own_methods(base, attr):
            setattr(cls, attr, rec.span(name, vars(cls)[attr], **kw))

    by_scenario = {"scenario": lambda args: args[0].sid}

    # cli
    fn("cli.parse_config", cli.parse_config)
    fn("cli.validate", cli._validate_scenario, **by_scenario)
    fn("cli.scenario", cli._rows_bound, **by_scenario)
    fn("cli.scenario", cli._rows_verify, **by_scenario)
    fn("cli.emit", cli._emit)
    method("cli.scenario_build", cli.Scenario, "build")
    # conformal
    fn("conformal.build_disk_quadrature", conformal.build_disk_quadrature)
    fn("conformal.map_from_spec", conformal.map_from_spec)
    method("conformal.jacobian", conformal.ConformalMap, "jacobian")
    # densities
    method("densities.on_disk", densities.DensityField, "on_disk",
           note=lambda args, _: {"nodes": _size(args[2])})
    # youngfn
    method("youngfn.inverse", youngfn.YoungFunction, "inverse",
           note=lambda args, _: {"nodes": _size(args[1])})
    for cls in _own_methods(youngfn.YoungFunction, "eval"):
        if cls is not youngfn.NumericComplement:
            cls.eval = rec.count("youngfn.eval", vars(cls)["eval"])
    youngfn.NumericComplement.eval = rec.span(
        "youngfn.conjugate",
        youngfn.NumericComplement.eval,
        # computed from the arguments: len(v) x grid size, not measured inside
        note=lambda args, _: {"cells": _size(args[1]) * args[0]._n},
    )
    method("youngfn.psi_log_eval", youngfn.PsiAlpha, "log_eval_from_log")
    fn("youngfn.probe_nabla_prime", youngfn.probe_nabla_prime)
    # orlicz
    fn("orlicz.luxemburg_norm", orlicz.luxemburg_norm)
    orlicz._modular = rec.count("orlicz.modular", orlicz._modular)
    # bounds: the routes the CLI calls, and the Luxemburg functional
    for route, function in (
        ("esssup", bounds.mu_lower_esssup),
        ("lq", bounds.mu_lower_kq),
        ("quasidisc", bounds.mu_lower_quasidisc),
        ("orlicz", bounds.mu_lower_orlicz),
        ("orlicz_quasidisc", bounds.mu_lower_orlicz_quasidisc),
        ("gaussian_sweep", bounds.gaussian_sweep),
        ("k_phi", bounds.k_phi),
    ):
        fn(f"bounds.{route}", function)
    # fem_oracle
    fn("fem_oracle.richardson", fem_oracle.mu_fem_richardson)
    fn("fem_oracle.mu_fem", fem_oracle.mu_fem, note=lambda args, mu: {"level": args[2], "mu": mu})
    fn("fem_oracle.mesh_from_map", fem_oracle.mesh_from_map,
       note=lambda args, _: {"key": f"{args[0].name}@{args[1]}"})
    fn("fem_oracle.assemble", fem_oracle.assemble)
    fn("fem_oracle.eigensolve", fem_oracle.first_nonzero_neumann,
       note=lambda args, res: {"unknowns": args[0].shape[0], "residual": res[1]})
    fn("fem_oracle.b_m2_disk_estimate", fem_oracle.b_m2_disk_estimate)


def traced_main(out_path, argv):
    """Import the CLI, install the wrappers, run it once, write the spans."""
    rec = Recorder()
    start = _clock()
    from neumann_bounds import cli

    rec.spans.append(["cli.import", start, _clock(), None, None, None])
    install(rec)
    try:
        return rec.span("cli.main", cli.main)(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(trace, process_wall_s):
    """Per-layer metrics (name -> (value, unit)) from one traced invocation."""
    spans, counts = trace["spans"], Counter(trace["counts"])
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield p
            p = spans[p][3]

    def idx(name):
        return [i for i, n in enumerate(names) if n == name]

    def calls(name):
        return len(idx(name))

    def seconds(name, nested_in=()):
        """Inclusive time of the spans called ``name`` that run inside no
        span of the same name, nor of a name in ``nested_in``."""
        outer = {name, *nested_in}
        return sum(dur[i] for i in idx(name) if not any(names[a] in outer for a in ancestors(i)))

    def noted(name, key):
        # a call that raised has no notes
        return [spans[i][5][key] for i in idx(name) if spans[i][5] is not None]

    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def self_seconds(name):
        return sum(dur[i] - sum(dur[c] for c in children.get(i, [])) for i in idx(name))

    scenario_s = [dur[i] for i in idx("cli.scenario")]
    n_scenarios = len(scenario_s)
    n_norms = calls("orlicz.luxemburg_norm")
    meshes = noted("fem_oracle.mesh_from_map", "key")
    levels = {}
    for i in idx("fem_oracle.eigensolve"):
        level = (spans[spans[i][3]][5] or {}).get("level")
        levels[level] = levels.get(level, 0.0) + dur[i]
    increments = []
    for i in idx("fem_oracle.richardson"):
        mus = [
            spans[c][5]["mu"]
            for c in children.get(i, [])
            if names[c] == "fem_oracle.mu_fem" and spans[c][5] is not None
        ]
        if len(mus) == 2:
            increments.append(abs(mus[1] - mus[0]) / mus[1])
    # spans nest on one thread, so the spans just below the root cover
    # everything any span below the root covers
    root = set(idx("cli.main"))
    covered = sum(d for i, d in enumerate(dur) if i not in root and (spans[i][3] is None or spans[i][3] in root))

    routes = ("esssup", "lq", "orlicz", "quasidisc", "orlicz_quasidisc", "gaussian_sweep")

    def calls_and_seconds(name):
        return {f"{name}.calls": (calls(name), "count"), f"{name}.s": (seconds(name), "s")}

    m = {
        "cli.import_s": (seconds("cli.import"), "s"),
        "cli.parse_config_s": (seconds("cli.parse_config"), "s"),
        "cli.scenario_builds_per_scenario": (calls("cli.scenario_build") / max(n_scenarios, 1), "1"),
        "cli.scenario_s.p50": (statistics.median(scenario_s) if scenario_s else 0.0, "s"),
        "cli.scenario_s.max": (max(scenario_s, default=0.0), "s"),
        **calls_and_seconds("conformal.build_disk_quadrature"),
        **calls_and_seconds("conformal.jacobian"),
        "conformal.map_from_spec.s": (seconds("conformal.map_from_spec"), "s"),
        **calls_and_seconds("densities.on_disk"),
        "densities.on_disk.nodes": (sum(noted("densities.on_disk", "nodes")), "count"),
        **calls_and_seconds("youngfn.inverse"),
        "youngfn.inverse.nodes": (sum(noted("youngfn.inverse", "nodes")), "count"),
        "youngfn.eval.calls": (counts["youngfn.eval"], "count"),
        **calls_and_seconds("youngfn.conjugate"),
        "youngfn.conjugate.cells": (sum(noted("youngfn.conjugate", "cells")), "count"),
        "youngfn.psi_log_eval.s": (seconds("youngfn.psi_log_eval"), "s"),
        "youngfn.probe_nabla_prime.s": (seconds("youngfn.probe_nabla_prime"), "s"),
        **calls_and_seconds("orlicz.luxemburg_norm"),
        "orlicz.modular_evals_per_norm": (counts["orlicz.modular"] / max(n_norms, 1), "1"),
        # the sweep calls the quasidisc route; that time counts as the sweep's
        **{
            f"bounds.{r}.s": (seconds(f"bounds.{r}", [f"bounds.{o}" for o in routes]), "s")
            for r in routes
        },
        "bounds.k_phi.s": (seconds("bounds.k_phi"), "s"),
        "bounds.orlicz_quasidisc.self_s": (self_seconds("bounds.orlicz_quasidisc"), "s"),
        **calls_and_seconds("fem_oracle.mesh_from_map"),
        "fem_oracle.mesh_from_map.distinct_ratio": (len(set(meshes)) / max(len(meshes), 1), "1"),
        "fem_oracle.assemble.s": (seconds("fem_oracle.assemble"), "s"),
        **calls_and_seconds("fem_oracle.eigensolve"),
        "fem_oracle.eigensolve.s.level4": (levels.get(4, 0.0), "s"),
        "fem_oracle.eigensolve.s.level5": (levels.get(5, 0.0), "s"),
        "fem_oracle.unknowns_total": (sum(noted("fem_oracle.eigensolve", "unknowns")), "count"),
        "fem_oracle.eigensolve.residual_max": (
            max(noted("fem_oracle.eigensolve", "residual"), default=0.0),
            "1",
        ),
        "fem_oracle.richardson_increment_max": (max(increments, default=0.0), "1"),
        "fem_oracle.b_m2_disk_estimate.s": (seconds("fem_oracle.b_m2_disk_estimate"), "s"),
        "trace.uncovered_frac": (1.0 - covered / process_wall_s, "1"),
    }
    return m


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
