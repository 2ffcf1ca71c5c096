import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neumann_bounds import cli, fem_oracle
from neumann_bounds.errors import ConfigError

BASIC = """\
# shared defaults
p = 1.5
q = 4
alpha = 12
K = 1.05
eps = 2
quad_nr = 48
quad_ntheta = 32

[scenario]
id = disk-one
map = identity
density = constant c=1
methods = esssup, lq

[scenario]
id = pp-tight
map = perturbed_power c=0.5 k=2
density = pullback_jacobian_power exponent=1
methods = esssup
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    return cli.main(argv)


@pytest.mark.parametrize(
    "argv",
    [["bound"], ["verify", "--fem-level", "3"], ["sweep"], ["norms"]],
    ids=lambda argv: argv[0],
)
def test_determinism_across_jobs(tmp_path, argv):
    text = BASIC
    if argv[0] == "norms":
        text = re.sub(r"methods = .*", "methods = luxemburg, kq, kphi", BASIC)
    cfg = write(tmp_path, text)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run([*argv, "--config", cfg, "--out", str(out1)]) == 0
    # forked workers inherit this process's caches: clear the disk
    # triangulations the serial run filled, so the workers build their own
    # (the per-map meshes and pull-backs are keyed on the run's own maps)
    fem_oracle._disk_rings.cache_clear()
    assert run([*argv, "--config", cfg, "--jobs", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


class RecordingPool:
    """Stand-in for ProcessPoolExecutor that runs the tasks in-process and
    records each pool's worker count and start method."""

    pools = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.pools.append((max_workers, mp_context.get_start_method()))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "jobs, scenarios, pools",
    [("64", 2, [(2, "fork")]), ("2", 3, [(2, "fork")]), ("4", 1, []), ("1", 2, [])],
)
def test_pool_is_bounded_by_the_work(tmp_path, monkeypatch, jobs, scenarios, pools):
    # a fork-context pool starts every worker up front; a single worker runs in-process
    import concurrent.futures.process

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "pools", [])
    monkeypatch.setattr(cli, "_worker_task", None)  # the in-process workers set it
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    text = "quad_nr = 16\nquad_ntheta = 16\nmethods = esssup\n" + "[scenario]\n" * scenarios
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", write(tmp_path, text), "--jobs", jobs, "--out", str(out)]) == 0
    assert RecordingPool.pools == pools
    assert len(out.read_text().splitlines()) == 3 + scenarios
    # the worker start-up gives each worker one BLAS thread by default
    assert os.environ.get("OPENBLAS_NUM_THREADS") == ("1" if pools else None)


def test_worker_keeps_a_set_blas_thread_count(monkeypatch):
    monkeypatch.setattr(cli, "_worker_task", None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    cli._start_worker(str)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert cli._run_in_worker(7) == "7"


def _csv_rows(path):
    """Header and rows (dicts) of a CLI CSV, comment lines dropped."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    # the last column (flags) may hold an error message with commas
    return header, [dict(zip(header, line.split(",", len(header) - 1))) for line in lines[1:]]


def _fields(row):
    """A CSV row's (name, text) pairs, each intermediate under its key."""
    fields = [(column, text) for column, text in row.items() if column != "intermediates"]
    return fields + [tuple(kv.split("=", 1)) for kv in row.get("intermediates", "").split("|") if kv]


def assert_matches_reference(path, reference, rel):
    """``path`` holds the rows of ``reference`` in its order: scenario,
    method, sound, flags and text values byte for byte, and each number,
    each intermediate included, within ``rel(row, name)`` relative, where
    an intermediate's name is its key.  Non-finite numbers must match."""
    header, got = _csv_rows(path)
    ref_header, want = _csv_rows(reference)
    assert header == ref_header and len(got) == len(want)
    for row, expected in zip(got, want):
        fields, ref_fields = _fields(row), _fields(expected)
        assert [name for name, _ in fields] == [name for name, _ in ref_fields]
        for (name, text), (_, ref_text) in zip(fields, ref_fields):
            where = (row["scenario"], row["method"], name, text, ref_text)
            try:
                a, b = float(text), float(ref_text)
            except ValueError:
                a = b = None
            if name in ("scenario", "method", "sound", "flags") or a is None:
                assert text == ref_text, where
            elif math.isfinite(a) and math.isfinite(b):
                assert abs(a - b) <= rel(row, name) * max(abs(a), abs(b)), where
            else:
                assert text == ref_text, where


def _workload_csv(tmp_path, monkeypatch, workload, command, jobs, name="out.csv"):
    """Run the CLI on a benchmark workload's seed-0 config; the CSV path and
    the committed reference path."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    cfg = write(tmp_path, workloads.config_text(workload, 0))
    out = tmp_path / name
    assert run([command, "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 0
    return out, bench / "reference" / f"{workload}.csv"


def test_quasidisk_chain_matches_reference(tmp_path, monkeypatch):
    # end to end over the numeric conjugate and the mpmath chain
    out, reference = _workload_csv(tmp_path, monkeypatch, "quasidisk-chain", "bound", "1")
    assert_matches_reference(out, reference, lambda row, column: 1e-10)


def test_fine_quadrature_matches_reference(tmp_path, monkeypatch):
    # end to end over the shared pull-backs, the inverse and the Luxemburg
    # norm at 256x256; the pool must not change a byte
    out, reference = _workload_csv(tmp_path, monkeypatch, "fine-quadrature", "bound", "2")
    assert_matches_reference(out, reference, lambda row, column: 1e-10)
    serial, _ = _workload_csv(tmp_path, monkeypatch, "fine-quadrature", "bound", "1", "1.csv")
    assert serial.read_bytes() == out.read_bytes()


def test_verify_battery_fem_matches_reference(tmp_path, monkeypatch):
    # the live FEM oracle on the 25 acceptance fixtures: every mu_fem within
    # 1e-12 relative of the committed reference, but for the cancel-orlicz
    # density, whose pull-back runs LogPow's inverse; bounds within 1e-10
    out, reference = _workload_csv(tmp_path, monkeypatch, "verify-battery", "verify", "1")

    def rel(row, column):
        if column == "mu_fem" and not row["scenario"].endswith("/cancel-orlicz"):
            return 1e-12
        return 1e-10

    assert len(_csv_rows(out)[1]) == 75
    assert_matches_reference(out, reference, rel)


def _two_maps(spellings):
    """Two maps with three densities each; the i-th scenario of a map spells
    the map's parameters as ``spellings[i]``."""
    text = (
        "quad_nr = 24\nquad_ntheta = 20\np = 1.5\nq = 4\neps = 2\nb_m_eps = 1\n"
        "fem_level = 3\nmethods = esssup, lq, orlicz\n"
    )
    densities = ("constant", "gaussian n=2", "pullback_orlicz_canceling eps=2")
    for c, k in (("0.3", "2"), ("0.5", "3")):
        for i, (spelling, density) in enumerate(zip(spellings, densities)):
            text += (
                f"[scenario]\nid = c{c}/{i}\nmap = perturbed_power {spelling.format(c=c, k=k)}\n"
                f"density = {density}\n"
            )
    return text


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_scenarios_share_their_maps_work(tmp_path, monkeypatch, command):
    # scenarios with the same map spec text share the map, J, PhiInv(J), and
    # the FEM meshes with their stiffness and its grounded factor; spelling
    # each scenario's map differently shares nothing, and the rows must not
    # tell the two apart
    import scipy.sparse.linalg as spla

    from neumann_bounds import conformal, youngfn

    nodes = 24 * 20  # no FEM level has as many triangles
    counts, stiffness, factored = {}, [], []
    real_spec, real_jacobian = cli.map_from_spec, conformal.ConformalMap.jacobian
    real_inverse, real_solve = youngfn.LogPow.inverse, fem_oracle.first_nonzero_neumann
    real_splu = spla.splu

    def count(name, size=nodes):
        counts[name] = counts.get(name, 0) + (size == nodes)

    monkeypatch.setattr(cli, "map_from_spec", lambda spec: count("map") or real_spec(spec))
    monkeypatch.setattr(
        conformal.ConformalMap, "jacobian",
        lambda cmap, z: count("jacobian", np.size(z)) or real_jacobian(cmap, z),
    )
    monkeypatch.setattr(
        youngfn.LogPow, "inverse", lambda phi, t: count("inverse", np.size(t)) or real_inverse(phi, t)
    )
    monkeypatch.setattr(
        fem_oracle, "first_nonzero_neumann", lambda a, m: stiffness.append(a) or real_solve(a, m)
    )
    monkeypatch.setattr(spla, "splu", lambda a, **kw: factored.append(a) or real_splu(a, **kw))
    csv = {}
    for name, spellings in (
        ("shared", ["c={c} k={k}"] * 3),
        ("unshared", ["c={c} k={k}", "k={k} c={c}", "c={c}0 k={k}"]),
    ):
        counts.clear(), stiffness.clear(), factored.clear()
        out = tmp_path / f"{name}.csv"
        cfg = write(tmp_path, _two_maps(spellings), f"{name}.ini")
        assert run([command, "--config", cfg, "--jobs", "1", "--out", str(out)]) == 0
        # the second line hashes the config text, which differs
        csv[name] = out.read_bytes().split(b"\n", 2)[2]
        distinct = 2 if name == "shared" else 6
        assert counts == {"map": distinct, "jacobian": distinct, "inverse": distinct}
        if command == "verify":  # a Richardson pair of levels per scenario
            assert len(stiffness) == 12
            assert len({id(a) for a in stiffness}) == 2 * distinct
            assert len(factored) == 2 * distinct  # one per (map, level)
    assert csv["shared"] == csv["unshared"]
    out = tmp_path / "jobs.csv"
    assert run([command, "--config", cfg, "--jobs", "2", "--out", str(out)]) == 0
    assert out.read_bytes().split(b"\n", 2)[2] == csv["unshared"]


def test_density_failure_stays_with_its_rows(tmp_path):
    # e^(-5000|x|^2) underflows linear samples: the rows that need them are
    # error rows, and quasidisc, which reads the log-space twin, still runs
    cfg = write(
        tmp_path,
        "[scenario]\nid = g5000\nmap = identity\ndensity = gaussian n=5000\nK = 1.05\n"
        "quad_nr = 48\nquad_ntheta = 32\nmethods = esssup, quasidisc, orlicz\n",
    )
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    error = "error:gaussian(n=5000): density samples must be positive and finite"
    assert [row[1] for row in rows] == ["esssup", "quasidisc", "orlicz"]
    assert rows[0][2:] == ["nan", "nan", "", error]
    assert rows[2][2:] == ["nan", "nan", "", error]
    assert rows[1][2:4] == ["0", "-29360.769004905593"]


def test_norms_failure_stays_with_its_rows(tmp_path, capsys):
    # every norm reads the underflowing linear samples: three error rows,
    # the same at --jobs 2, and no traceback
    cfg = write(
        tmp_path,
        "[scenario]\nid = g5000\nmap = identity\ndensity = gaussian n=5000\nK = 1.05\n"
        "quad_nr = 48\nquad_ntheta = 32\nmethods = luxemburg, kq, kphi\n",
    )
    out = {jobs: tmp_path / f"out{jobs}.csv" for jobs in ("1", "2")}
    for jobs, path in out.items():
        assert run(["norms", "--config", cfg, "--jobs", jobs, "--out", str(path)]) == 0
    rows = [line.split(",") for line in out["1"].read_text().splitlines()[3:]]
    error = "error:gaussian(n=5000): density samples must be positive and finite"
    assert rows == [["g5000", m, "nan", error] for m in ("luxemburg", "kq", "kphi")]
    assert out["1"].read_bytes() == out["2"].read_bytes()
    assert "Traceback" not in capsys.readouterr().err


class TestConfigParsing:
    def test_defaults_inherited(self):
        scenarios = cli.parse_config(BASIC)
        assert [s.sid for s in scenarios] == ["disk-one", "pp-tight"]
        assert scenarios[0].params.p == 1.5 and scenarios[1].params.K == 1.05
        assert scenarios[0].quad_nr == 48
        assert scenarios[1].methods == ["esssup"]

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match="line 3"):
            cli.parse_config("[scenario]\nid = a\nwhat = 1\n")
        with pytest.raises(ConfigError, match="line 2"):
            cli.parse_config("[scenario]\nnonsense without equals\n")
        with pytest.raises(ConfigError, match="no \\[scenario\\]"):
            cli.parse_config("p = 1.5\n")

    def test_map_and_density_grammar(self):
        text = (
            "[scenario]\nid = x\nmap = polynomial coeffs=1,0,0.1j\n"
            "density = gaussian n=2\nmethods = esssup\n"
        )
        (sc,) = cli.parse_config(text)
        cmap, rho, quad = sc.build()
        assert cmap.name.startswith("polynomial")
        assert rho.name == "gaussian(n=2)"

    def test_scenario_param_validation(self, tmp_path):
        bad = "[scenario]\nid = b\nmap = identity\ndensity = constant\nmethods = lq\np = 1.5\nq = 6\n"
        assert run(["bound", "--config", write(tmp_path, bad)]) == 2

    def test_unknown_method(self, tmp_path):
        bad = "[scenario]\nid = b\nmap = identity\ndensity = constant\nmethods = magic\n"
        assert run(["bound", "--config", write(tmp_path, bad)]) == 2

    def test_empty_methods(self, tmp_path):
        bad = "[scenario]\nid = b\nmap = identity\ndensity = constant\n"
        assert run(["norms", "--config", write(tmp_path, bad)]) == 2

    def test_missing_config(self):
        assert run(["bound", "--config", "/nonexistent/path.ini"]) == 2


# lines appended to a valid scenario (a later key overrides an earlier one)
MALFORMED = {
    "map-k-not-int": ("bound", "map = perturbed_power c=0.5 k=2.5"),
    "gaussian-n-not-float": ("bound", "density = gaussian n=abc"),
    "exponent-not-float": ("bound", "density = pullback_jacobian_power exponent=abc"),
    "exponent-nan": ("bound", "density = pullback_jacobian_power exponent=nan"),
    "exponent-inf": ("bound", "density = pullback_jacobian_power exponent=inf"),
    "canceling-eps-inf": (
        "bound",
        "map = perturbed_power c=0.5 k=2\nquad_nr = 16\nquad_ntheta = 16\n"
        "density = pullback_orlicz_canceling eps=inf",
    ),
    "empty-map": ("bound", "map ="),
    "missing-samples-file": ("bound", "density = samples file=/nonexistent.txt"),
    "negative-samples": ("bound", "density = samples file={negative}"),
    "sweep_n-not-numbers": ("bound", "sweep_n = 10,abc"),
    "sweep_n-zero-sweep": ("sweep", "sweep_n = 0,10"),
    "sweep_n-zero-gaussian_sweep": ("bound", "methods = gaussian_sweep\nsweep_n = 0,10"),
    "sweep_n-half-truncates-to-zero": ("sweep", "sweep_n = 0.5"),
    "unknown-density-parameter": ("bound", "density = constant n=5"),
    "unknown-map-parameter": ("bound", "map = perturbed_power c=0.5 k=2 kk=3"),
    "moebius-not-certified": ("bound", "map = moebius a=0.9"),
    "unknown-young": ("norms", "methods = luxemburg\nyoung = nosuch"),
    "young-not-number": ("norms", "methods = luxemburg\nyoung = log_pow:abc"),
    "kphi-eps-below-one": ("norms", "methods = kphi\neps = 0.5"),
    "eps-nan": ("bound", "methods = orlicz\neps = nan"),
    "young-nan": ("norms", "methods = luxemburg\nyoung = power:nan"),
    "young-inf": ("norms", "methods = luxemburg\nyoung = log_pow:inf"),
    "b_m_eps-nan": ("bound", "methods = orlicz\nb_m_eps = nan"),
    "b_m_eps-inf": ("bound", "methods = orlicz\nb_m_eps = inf"),
    "b_m_eps-zero": ("bound", "methods = orlicz\nb_m_eps = 0"),
    "b_m_eps-negative": ("bound", "methods = orlicz\nb_m_eps = -1"),
    "b_m_eps-zero-quasidisc": ("bound", "methods = orlicz_quasidisc\nK = 1.05\nb_m_eps = 0"),
    "b_m_eps-negative-quasidisc": ("bound", "methods = orlicz_quasidisc\nK = 1.05\nb_m_eps = -1"),
    "eps-one-orlicz": ("bound", "methods = esssup, orlicz\neps = 1"),
    "eps-half-orlicz_quasidisc": ("bound", "methods = orlicz_quasidisc\neps = 0.5\nK = 1.05"),
    "fem_level-one-verify": ("verify", "fem_level = 1"),
    "fem_level-nine-verify": ("verify", "fem_level = 9"),
}


@pytest.mark.parametrize("command, lines", MALFORMED.values(), ids=MALFORMED)
def test_malformed_config_exits_2_with_line(tmp_path, capsys, command, lines):
    negative = tmp_path / "negative.txt"
    negative.write_text("-1.0\n" * 4096)  # one value per node of the 64x64 default
    text = "[scenario]\nid = bad\nmap = identity\ndensity = constant\nmethods = esssup\n"
    cfg = write(tmp_path, text + lines.format(negative=negative) + "\n")
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: line \d+: ", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["bound", "--tol", "0.5"], ["sweep", "--fem-level", "3"], ["norms", "--corrupt-bounds", "2"]],
    ids=lambda argv: argv[0],
)
def test_flag_of_another_command_exits_2(tmp_path, capsys, argv):
    # each command takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--config", write(tmp_path, BASIC)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--config", write(tmp_path, BASIC), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--jobs must be at least 1, got {jobs}" in err
    assert err.startswith("usage: neumann-bounds bound ")  # the command's own flags


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_tol_not_finite_and_nonnegative_exits_2(tmp_path, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--config", write(tmp_path, BASIC), f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol must be finite and at least 0" in err
    assert err.startswith("usage: neumann-bounds verify ")


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert run(["bound", "--config", write(tmp_path, BASIC), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("out", ["missing/out.csv", "."])
def test_unwritable_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys, command, out):
    # a missing directory or a directory as the target is found before any
    # scenario runs, and nothing is created
    ran = []
    monkeypatch.setattr(cli, f"_rows_{command}", lambda *args: ran.append(args) or [])
    argv = [command, "--config", write(tmp_path, BASIC), "--out", str(tmp_path / out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: [Errno ")
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


@pytest.mark.parametrize("command", ["bound", "verify", "sweep", "norms"])
def test_each_scenario_is_built_once(tmp_path, monkeypatch, command):
    builds = []
    real_build = cli.Scenario.build

    def build(sc):
        builds.append(sc.sid)
        return real_build(sc)

    monkeypatch.setattr(cli.Scenario, "build", build)
    methods = "kq" if command == "norms" else "esssup"
    text = (
        "quad_nr = 16\nquad_ntheta = 16\nq = 4\nsweep_n = 1,2\nfem_level = 2\n"
        f"methods = {methods}\n[scenario]\nid = a\nmap = identity\ndensity = constant\n"
        "[scenario]\nid = b\nmap = perturbed_power c=0.3 k=2\ndensity = gaussian n=2\n"
    )
    out = tmp_path / "out.csv"
    assert run([command, "--config", write(tmp_path, text), "--out", str(out), "--jobs", "2"]) == 0
    assert sorted(builds) == ["a", "b"]


def test_fem_level_flag_out_of_range_exits_2(tmp_path, capsys):
    argv = ["verify", "--config", write(tmp_path, BASIC), "--fem-level", "0"]
    assert run([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: line \d+: ", err), err
    assert "Traceback" not in err


class TestBoundCommand:
    def test_rows_and_flags(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run(["bound", "--config", write(tmp_path, BASIC), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# artifact-version:")
        assert lines[1].startswith("# config-sha256:")
        assert lines[2] == "scenario,method,bound,bound_log,intermediates,flags"
        rows = [line.split(",") for line in lines[3:]]
        assert [r[0] for r in rows] == ["disk-one", "disk-one", "pp-tight"]
        by_method = {(r[0], r[1]): r for r in rows}
        assert float(by_method[("disk-one", "esssup")][2]) == pytest.approx(
            3.3899577166718888, rel=1e-12
        )
        tight = by_method[("pp-tight", "esssup")]
        assert float(tight[2]) == pytest.approx(3.3899577166718888, rel=1e-9)

    def test_gaussian_sweep_method_rows(self, tmp_path):
        text = (
            "[scenario]\nid = g\nmap = identity\ndensity = gaussian n=1\n"
            "methods = gaussian_sweep\np = 1.5\nq = 4\nalpha = 12\nK = 1.05\n"
            "quad_nr = 256\nquad_ntheta = 16\nsweep_n = 10,100,1000\n"
        )
        out = tmp_path / "g.csv"
        assert run(["bound", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        methods = [r[1] for r in rows]
        assert methods == [
            "gaussian_sweep[n=10]",
            "gaussian_sweep[n=100]",
            "gaussian_sweep[n=1000]",
            "gaussian_sweep[slope]",
        ]
        assert float(rows[-1][2]) == pytest.approx(0.2, rel=0.05)

    def test_flags_appear_verbatim(self, tmp_path):
        text = (
            "[scenario]\nid = q\nmap = identity\ndensity = constant\n"
            "methods = quasidisc\np = 1.5\nq = 4\nalpha = 12\nK = 1.05\n"
        )
        out = tmp_path / "out.csv"
        assert run(["bound", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1]
        assert last.endswith("NuGeOne;BoundUnderflow")


class TestVerifyCommand:
    def test_all_sound(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run(
            [
                "verify",
                "--config",
                write(tmp_path, BASIC),
                "--fem-level",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert all(r[5] == "true" for r in rows)
        tight = [r for r in rows if r[0] == "pp-tight"][0]
        assert float(tight[4]) == pytest.approx(1.0, abs=1e-3)

    def test_corruption_hook_detected(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run(
            [
                "verify",
                "--config",
                write(tmp_path, BASIC),
                "--fem-level",
                "4",
                "--corrupt-bounds",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert any(r[5] == "false" for r in rows)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_solver_failure_becomes_error_rows(self, tmp_path, stalled_lanczos, capsys, jobs):
        # at --jobs 2 the SolverError is raised in a forked worker
        out = tmp_path / "v.csv"
        argv = ["verify", "--config", write(tmp_path, BASIC), "--fem-level", "3", "--jobs", jobs]
        assert run([*argv, "--out", str(out)]) == 1
        rows = [line.split(",", 6) for line in out.read_text().splitlines()[3:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("disk-one", "esssup"),
            ("disk-one", "lq"),
            ("pp-tight", "esssup"),
        ]
        assert all(r[5] == "false" and r[6].startswith("error:") for r in rows)
        assert "Traceback" not in capsys.readouterr().err


class TestSweepCommand:
    def test_slope_row(self, tmp_path):
        text = (
            "[scenario]\nid = sweep1\nmap = identity\ndensity = gaussian n=1\n"
            "methods = esssup\np = 1.5\nq = 4\nalpha = 12\nK = 1.05\n"
            "quad_nr = 256\nquad_ntheta = 16\nsweep_n = 10,100,1000\n"
        )
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert [r[1] for r in rows] == ["n=10", "n=100", "n=1000", "slope"]
        slope_row = rows[-1]
        assert float(slope_row[2]) == pytest.approx(float(slope_row[3]), rel=0.05)
        assert float(slope_row[3]) == pytest.approx(0.2, rel=1e-12)


    def test_numeric_failure_becomes_error_row(self, tmp_path, capsys):
        # the 48x32 rule over-estimates the off-centre Gaussian norm at n=10,
        # so the sweep's domination check raises ConvergenceError
        text = (
            "quad_nr = 48\nquad_ntheta = 32\nK = 1.05\n\n[scenario]\nid = off-centre\n"
            "map = moebius a=0.4+0.1j\ndensity = gaussian n=1\nsweep_n = 1,10,100\n"
        )
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        rows = [line.split(",", 6) for line in out.read_text().splitlines()[3:]]
        assert len(rows) == 1
        assert rows[0][:2] == ["off-centre", "sweep"]
        assert rows[0][6].startswith("error:quadrature norm exceeds")
        assert "Traceback" not in capsys.readouterr().err


class TestNormsCommand:
    def test_values(self, tmp_path):
        text = (
            "[scenario]\nid = n1\nmap = identity\ndensity = constant\n"
            "methods = luxemburg, kq, kphi\nq = 4\neps = 2\nyoung = log_linear\n"
        )
        out = tmp_path / "n.csv"
        assert run(["norms", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        values = {r[1]: float(r[2]) for r in rows}
        assert values["luxemburg(log_linear)"] == pytest.approx(3.4591048179, rel=1e-8)
        assert values["kq(q=4)"] == pytest.approx(np.sqrt(np.pi), rel=1e-10)
        assert values["kphi(eps=2)"] > 0

    def test_samples_density(self, tmp_path):
        sample_file = tmp_path / "vals.txt"
        # constant table aligned with the default 64x64 quadrature
        sample_file.write_text("\n".join(["1.0"] * (64 * 64)))
        text = (
            "[scenario]\nid = s\nmap = identity\n"
            f"density = samples file={sample_file}\nmethods = luxemburg\n"
        )
        out = tmp_path / "sm.csv"
        assert run(["norms", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert float(rows[0][2]) == pytest.approx(3.4591048179, rel=1e-8)


def fresh_python(script):
    """Run ``script`` in a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bound_run_never_imports_scipy(tmp_path):
    # scipy serves only the FEM oracle; a top-level import anywhere on the
    # bound path would cost every run its import time
    cfg = write(
        tmp_path,
        "quad_nr = 16\nquad_ntheta = 16\nK = 1.05\n[scenario]\nid = pp\n"
        "map = perturbed_power c=0.3 k=2\ndensity = gaussian n=2\n"
        "methods = esssup, lq, orlicz, quasidisc\n",
    )
    script = (
        "import sys\n"
        "from neumann_bounds import cli\n"
        f"assert cli.main(['bound', '--config', {cfg!r}, '--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert fresh_python(script) == "[]"
    assert (tmp_path / "out.csv").read_text().count("\npp,") == 4


def test_float_routes_never_import_mpmath(tmp_path):
    # mpmath serves the quasidisc chain only; bound and verify runs over the
    # float routes would otherwise pay its import in every process
    cfg = write(
        tmp_path,
        "quad_nr = 16\nquad_ntheta = 16\nq = 4\neps = 2\nfem_level = 3\n"
        "methods = esssup, lq, orlicz\n[scenario]\nid = pp\n"
        "map = perturbed_power c=0.3 k=2\ndensity = gaussian n=2\n",
    )
    out = str(tmp_path / "out.csv")
    script = (
        "import sys\n"
        "from neumann_bounds import cli\n"
        f"assert cli.main(['bound', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
        f"assert cli.main(['verify', '--config', {cfg!r}, '--jobs', '1', '--out', {out!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    assert fresh_python(script) == "[]"
    assert (tmp_path / "out.csv").read_text().count("\npp,") == 3


def test_cli_import_loads_no_process_pool():
    # the pool's modules are imported only when a run forks workers
    script = (
        "import sys\n"
        "import neumann_bounds.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    assert fresh_python(script) == "[]"


def test_pooled_verify_leaves_the_parent_as_it_was(tmp_path):
    # the workers, not the parent, load scipy, so each reads its own
    # OPENBLAS_NUM_THREADS default after the fork; none outlives main
    out = tmp_path / "out.csv"
    script = (
        "import multiprocessing, os, sys\n"
        "from neumann_bounds import cli\n"
        "env = dict(os.environ)\n"
        f"argv = ['verify', '--config', {write(tmp_path, BASIC)!r}, '--fem-level', '3']\n"
        f"assert cli.main([*argv, '--jobs', '2', '--out', {str(out)!r}]) == 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert dict(os.environ) == env\n"
        "assert multiprocessing.active_children() == []\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no children')\n"
    )
    assert fresh_python(script) == "no children"
    assert out.read_text().count("\ndisk-one,") == 2
