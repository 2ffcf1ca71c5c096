"""Benchmark of the neumann-bounds CLI on seeded batch workloads.

    python3 bench/run.py --workload verify-battery --seed 0 --seconds 44 --trace 0
    python3 bench/run.py --workload all

Run it from the root of a checkout; it runs the package from ``src/``.
Every CLI invocation runs in a fresh interpreter, one after another, so each
pays the per-process costs a user pays: the import, the cached embedding
constant and the one-time mpmath set-up of the quasidisk chain.

``--trace 0`` times the CLI end to end at the workload's ``--jobs``:

    wall_s        median wall time of one invocation
    setup_s       median time for a fresh interpreter to import the CLI and
                  parse the workload config
    peak_rss_mb   median peak resident set of one invocation (wait4 rusage)
    rows_ok_frac  CSV rows that passed the checks in ``score.py`` over rows
                  attempted; 1 when nothing failed

``--trace 1`` runs one invocation at ``--jobs 1`` with layer spans
(``tracing.py``), then alternates untraced ``--jobs 1`` and ``--jobs N``
invocations, and reports the per-layer metrics.

Each phase starts invocations while the next one should end within
``--seconds`` (at least three timed invocations in ``--trace 0``, and at
least one pair in ``--trace 1``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every sample, outliers included, goes to the run record
``.bench_runs/BENCH_<n>.json`` in the checkout.  ``--workload all`` runs both
phases of every workload and prints one table of all metrics.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import score as scoring
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, config_text, expected_rows

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
MIN_INVOCATIONS = 3
MIN_SETUP_SAMPLES = 7
SETUP_CODE = "import sys; import neumann_bounds.cli as cli; cli.parse_config(open(sys.argv[1]).read())"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _median(values):
    return statistics.median(values) if values else float("nan")


class Runner:
    """Runs CLI invocations of one workload and scores every CSV they write."""

    def __init__(self, workload, seed, tmp):
        self.workload = WORKLOADS[workload]
        self.tmp = tmp
        self.config = tmp / "config.ini"
        self.config.write_text(config_text(workload, seed))
        self.expected = expected_rows(workload, seed)
        ref = BENCH / "reference" / f"{workload}.csv"
        self.reference = ref.read_text() if seed == DEFAULT_SEED else None
        self.score = scoring.Score()
        self.csvs = set()
        self.trace = None  # spans and counts of the traced invocation
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def spawn(self, argv):
        """Run ``argv``; return (wall seconds, peak RSS MiB, exit code)."""
        with open(self.tmp / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, code

    def setup(self):
        return self.spawn([sys.executable, "-c", SETUP_CODE, str(self.config)])[0]

    def cli(self, jobs, spans=None):
        """One CLI invocation (traced when ``spans`` names an output file)."""
        out = self.tmp / "out.csv"
        out.unlink(missing_ok=True)
        args = [self.workload.command, "--config", str(self.config), "--jobs", str(jobs), "--out", str(out)]
        if spans is None:
            argv = [sys.executable, "-m", "neumann_bounds.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), *args]
        wall, rss, code = self.spawn(argv)
        text = out.read_text() if out.exists() else ""
        self.score.add(scoring.score(text, self.expected, code, self.reference))
        self.csvs.add(text)
        return wall, rss


def _repeat(deadline, step, minimum):
    """Call ``step`` ``minimum`` times, then while one more call, at the
    median duration so far, still ends before the deadline."""
    durations = []
    while len(durations) < minimum or time.perf_counter() + _median(durations) <= deadline:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)


def measure_end_to_end(runner, seconds):
    deadline = time.perf_counter() + seconds
    setup, walls, rss = [], [], []

    def step():
        # setup samples interleave with the CLI runs, so both see the
        # machine over the same stretch of time
        setup.append(runner.setup())
        wall, mb = runner.cli(runner.workload.jobs)
        walls.append(wall)
        rss.append(mb)

    _repeat(deadline, step, MIN_INVOCATIONS)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.setup())
    s = runner.score
    metrics = {
        "wall_s": (_median(walls), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (_median(rss), "MiB"),
        "rows_ok_frac": (1.0 - s.failed / s.attempted, "1"),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples


def measure_layers(runner, seconds):
    deadline = time.perf_counter() + seconds
    spans = runner.tmp / "spans.json"
    traced_wall, _ = runner.cli(1, spans=spans)
    trace = runner.trace = json.loads(spans.read_text()) if spans.exists() else None
    serial, parallel = [], []

    def step():
        serial.append(runner.cli(1)[0])
        if runner.workload.jobs > 1:
            parallel.append(runner.cli(runner.workload.jobs)[0])

    _repeat(deadline, step, 1)
    if trace is None:
        return {}, {"traced_wall_s": [traced_wall]}
    serial_s = _median(serial)
    metrics = {
        **tracing.layer_metrics(trace, traced_wall),
        "cli.serial_wall_s": (serial_s, "s"),
        "cli.jobs_speedup": (serial_s / _median(parallel) if parallel else 1.0, "1"),
        "trace.overhead_frac": (traced_wall / serial_s - 1.0, "1"),
    }
    metrics = dict(sorted(metrics.items(), key=lambda kv: tracing.LAYERS.index(kv[0].split(".")[0])))
    samples = {"cli.serial_wall_s": serial, "parallel_wall_s": parallel, "traced_wall_s": [traced_wall]}
    return metrics, samples


def _outliers(samples):
    """Samples more than 1.5x their median; kept in every statistic."""
    found = {}
    for name, values in samples.items():
        high = [v for v in values if v > 1.5 * _median(values)]
        if high:
            found[name] = high
    return found


def _machine():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_workload(workload, seed, seconds, trace):
    """Measure one phase of one workload; return its run record."""
    tmp = RUNS / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, tmp)
        load_before = os.getloadavg()
        started = time.time()
        measure = measure_layers if trace else measure_end_to_end
        metrics, samples = measure(runner, seconds)
        s = runner.score
        csv_identical = len(runner.csvs) == 1
        return {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "started": started,
            "elapsed_s": time.time() - started,
            "cli": f"{runner.workload.command} --jobs {runner.workload.jobs}",
            "correct": s.failed == 0 and s.unexpected_rows == 0 and csv_identical and bool(metrics),
            "attempted": s.attempted,
            "failed": s.failed,
            "failures": s.failures[:20],
            "stderr_tail": (tmp / "stderr.txt").read_text()[-2000:] if s.failed else "",
            "unexpected_rows": s.unexpected_rows,
            "log_out_of_range_rows": s.log_out_of_range,
            # one CSV from every invocation, --jobs 1, --jobs N and traced alike
            "csv_identical_across_invocations": csv_identical,
            "csv_identical_to_reference": (
                None if runner.reference is None else runner.csvs == {runner.reference}
            ),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "samples": samples,
            # per-layer metrics not listed come from the one traced invocation
            "sample_counts": {k: len(samples[k]) for k in metrics if k in samples},
            "outliers": _outliers(samples),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "machine": _machine(),
            "src_lines": _src_lines(),
            "trace_spans": runner.trace,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_record(record):
    taken = [int(p.stem.split("_")[1]) for p in RUNS.glob("BENCH_*.json") if p.stem.split("_")[1].isdigit()]
    path = RUNS / f"BENCH_{max(taken, default=0) + 1}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def _print_record(rec):
    print(f"{rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  (cli {rec['cli']})")
    counts = rec["sample_counts"]
    for name, m in rec["metrics"].items():
        n = counts.get(name)
        extra = ""
        if n:
            vals = rec["samples"][name]
            extra = f"  median of {n} [{min(vals):.4g} .. {max(vals):.4g}]"
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:<6s}{extra}")
    print(
        f"  rows: {rec['attempted']} attempted, {rec['failed']} failed, "
        f"{rec['log_out_of_range_rows']} bound_log beyond double range (printed -inf)"
    )
    print(
        f"  csv identical across invocations: {rec['csv_identical_across_invocations']}; "
        f"to reference: {rec['csv_identical_to_reference']}"
    )
    for failure in rec["failures"][:5]:
        print("  failed:", " ".join(map(str, failure))[:200])
    if rec["outliers"]:
        print("  outliers (kept):", rec["outliers"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neumann_bounds" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'neumann_bounds'}; run from a checkout", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception, so the running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("bench: another benchmark run is in flight in this checkout", file=sys.stderr)
            return 3
        if args.workload == "all":
            records = [
                run_workload(w, args.seed, args.seconds, trace) for trace in (0, 1) for w in WORKLOADS
            ]
        else:
            records = [run_workload(args.workload, args.seed, args.seconds, args.trace)]
        for rec in records:
            rec["record"] = str(_write_record(rec).relative_to(ROOT))
            _print_record(rec)
        if args.workload == "all":
            _print_table(records)

    prefix = (lambda r: f"{r['workload']}/") if args.workload == "all" else (lambda r: "")
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {prefix(r) + k: v for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def _print_table(records):
    """Every metric of every workload: end to end first, then per layer."""
    names = list(WORKLOADS)
    for trace, title in ((0, "end to end"), (1, "per layer (traced run, --jobs 1)")):
        rows = {r["workload"]: r["metrics"] for r in records if r["trace"] == trace}
        metrics = list(next(iter(rows.values()), {}))
        print(f"\n{title:52s}" + "".join(f"{n:>18s}" for n in names))
        for m in metrics:
            unit = rows[names[0]][m]["unit"]
            cells = "".join(f"{rows[n][m]['value']:>18.6g}" for n in names)
            print(f"  {m + ' [' + unit + ']':50s}{cells}")


if __name__ == "__main__":
    sys.exit(main())
