"""Self-tests of the benchmark: workload generator, failure counter, trace.

    python3 -m pytest -q bench/test_bench.py
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import score  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from neumann_bounds import cli  # noqa: E402
from neumann_bounds.conformal import MoebiusDiskMap, PerturbedPowerMap  # noqa: E402
from neumann_bounds.densities import GaussianDensity  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

SMALL_VERIFY = """\
methods = esssup, lq
quad_nr = 16
quad_ntheta = 16
fem_level = 3

[scenario]
id = disk
map = identity
density = constant

[scenario]
id = pp
map = perturbed_power c=0.3 k=2
density = gaussian n=2
"""
SMALL_KEYS = [("disk", "esssup"), ("disk", "lq"), ("pp", "esssup"), ("pp", "lq")]


def run_cli(tmp_path, *extra):
    cfg = tmp_path / "c.ini"
    cfg.write_text(SMALL_VERIFY)
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "neumann_bounds.cli", "verify", "--config", str(cfg), "--out", str(out), *extra],
        env=ENV,
        capture_output=True,
    )
    return proc.returncode, out.read_text()


def test_default_seed_is_the_acceptance_battery():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    want = [(m.name, d.name) for m in acceptance.MAPS.values() for d in acceptance.DENSITIES.values()]
    for name in ("verify-battery", "fine-quadrature"):
        built = []
        for sc in cli.parse_config(workloads.config_text(name)):
            cmap, rho, _ = sc.build()
            built.append((cmap.name, rho.name))
        assert built == want


@pytest.mark.parametrize("seed", range(1, 21))
def test_other_seeds_draw_inside_the_validated_ranges(seed):
    for name, workload in workloads.WORKLOADS.items():
        text = workloads.config_text(name, seed)
        assert text == workloads.config_text(name, seed)
        scenarios = cli.parse_config(text)
        for sc in scenarios:
            cli._validate_scenario(sc, workload.command)
            cmap, rho, _ = sc.build()
            if isinstance(cmap, PerturbedPowerMap):
                assert 0.2 <= cmap.c.real <= 0.5 and cmap.c.imag == 0 and cmap.k in (2, 3)
            if isinstance(cmap, MoebiusDiskMap):
                assert abs(cmap.a) <= 0.5
            if isinstance(rho, GaussianDensity):
                assert 1.0 <= rho.n <= 8.0
        assert len(workloads.expected_rows(name, seed)) == len(workloads.expected_rows(name))


def test_corrupted_bounds_are_counted_as_failed(tmp_path):
    code, clean = run_cli(tmp_path)
    assert code == 0
    assert score.score(clean, SMALL_KEYS, code).failed == 0

    code, text = run_cli(tmp_path, "--corrupt-bounds", "100")
    assert code == 1
    _, rows = score.parse_csv(text)
    unsound = {key for key, row in rows.items() if row["sound"] == "false"}
    assert unsound
    # scored on its rows alone, exactly the unsound rows fail ...
    result = score.score(text, SMALL_KEYS, 0)
    assert {(s, m) for s, m, _ in result.failures} == unsound
    # ... and the exit code of the run fails every row
    assert score.score(text, SMALL_KEYS, code).failed == len(SMALL_KEYS)


def test_reference_mismatch_is_counted():
    ref = (BENCH / "reference" / "quasidisk-chain.csv").read_text()
    keys = workloads.expected_rows("quasidisk-chain")
    assert score.score(ref, keys, 0, ref).failed == 0

    lines = ref.splitlines(keepends=True)
    header = lines[2].rstrip("\n").split(",")
    fields = lines[3].split(",", len(header) - 1)
    assert fields[1] == "quasidisc"
    bound_log = fields[3]
    fields[3] = repr(float(bound_log) * (1 + 1e-6))  # beyond REL_TOL
    lines[3] = ",".join(fields)
    lines[-1] = lines[-1].rstrip("\n") + ";ExtraFlag\n"
    perturbed = "".join(lines)
    result = score.score(ref, keys, 0, perturbed)
    assert result.failed == 2
    assert [m for _, m, _ in result.failures] == ["quasidisc", "orlicz_quasidisc"]

    within = ref.replace(bound_log, repr(float(bound_log) * (1 + 1e-12)), 1)
    assert score.score(ref, keys, 0, within).failed == 0
    assert score.score(ref, keys[:-1] + [("nowhere", "esssup")], 0).failures[-1][2] == "missing"


def test_rules_without_a_reference():
    head = "scenario,method,bound,bound_log,intermediates,flags\n"
    rows = [
        "a,m1,0,-6.3e+127510,,",  # mpmath string beyond double range: finite
        "a,m2,0,-inf,,NuGeOne;BoundUnderflow",  # printed -inf of such a value
        "a,m3,0,-inf,,",
        "a,m4,0,nan,,",
        "a,m5,nan,nan,,error:no convergence, at all",
    ]
    keys = [("a", f"m{i}") for i in range(1, 6)]
    result = score.score(head + "\n".join(rows) + "\n", keys, 0)
    assert [m for _, m, _ in result.failures] == ["m3", "m4", "m5"]
    assert result.log_out_of_range == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert f"{score.REL_TOL:g} relative" in w["why"]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb", "rows_ok_frac"}


def test_trace_counts_a_small_verify(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(SMALL_VERIFY)
    spans = tmp_path / "spans.json"
    out = tmp_path / "out.csv"
    args = ["verify", "--config", str(cfg), "--jobs", "1", "--out", str(out)]
    proc = subprocess.run([sys.executable, str(BENCH / "tracing.py"), str(spans), *args], env=ENV)
    assert proc.returncode == 0
    assert out.read_text() == run_cli(tmp_path)[1]  # tracing leaves the CSV unchanged
    metrics = tracing.layer_metrics(json.loads(spans.read_text()), 10.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    added_by_runner = {"cli.serial_wall_s", "cli.jobs_speedup", "trace.overhead_frac"}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] not in added_by_runner}
    assert {k: u for k, (_, u) in metrics.items()} == declared
    value = {k: v for k, (v, _) in metrics.items()}
    assert value["cli.scenario_builds_per_scenario"] == 3.0  # validate, verify, bound reports
    assert value["fem_oracle.eigensolve.calls"] == 4  # two levels per scenario
    assert value["fem_oracle.mesh_from_map.distinct_ratio"] == 1.0
    assert value["fem_oracle.eigensolve.residual_max"] > 0
    assert value["fem_oracle.richardson_increment_max"] > 0
    assert value["youngfn.conjugate.calls"] == 0
