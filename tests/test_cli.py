import errno
import gc
import hashlib
import importlib
import math
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from neumann_bounds import cli, conformal, fem_oracle
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
    # (the per-map meshes and pull-backs belong to the run's own scenarios)
    fem_oracle._disk_rings.cache_clear()
    assert run([*argv, "--config", cfg, "--jobs", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def count_forks(monkeypatch):
    """The list that each ``os.fork`` of this process appends to, from now
    to the end of the test; the forks themselves still happen."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize(
    "jobs, scenarios, workers",
    [("64", 2, 2), ("2", 3, 2), ("4", 5, 3), ("4", 1, 0), ("1", 2, 0)],
)
def test_pool_is_bounded_by_the_work(tmp_path, monkeypatch, jobs, scenarios, workers):
    # one worker per non-empty contiguous chunk of ceil(scenarios / jobs),
    # so 5 scenarios at --jobs 4 fork 3 workers, not 4; a single chunk runs
    # in-process
    forks = count_forks(monkeypatch)
    text = "quad_nr = 16\nquad_ntheta = 16\nmethods = esssup\n" + "[scenario]\n" * scenarios
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", write(tmp_path, text), "--jobs", jobs, "--out", str(out)]) == 0
    assert forks == [os.getpid()] * workers
    assert len(out.read_text().splitlines()) == 3 + scenarios


def test_worker_exception_reaches_the_parent_with_its_type(monkeypatch):
    # a task's exception is pickled through the worker's pipe and re-raised
    # in the parent, which kills and reaps the other workers
    forks = count_forks(monkeypatch)

    def task(index):
        if index == 2:
            raise LookupError(f"planted in task {index}")
        return index * index

    assert cli._run_parallel(lambda index: index * index, 5, 2) == [0, 1, 4, 9, 16]
    with pytest.raises(LookupError) as excinfo:
        cli._run_parallel(task, 5, 2)  # chunks 0-2 and 3-4
    assert excinfo.type is LookupError and str(excinfo.value) == "planted in task 2"
    assert len(forks) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no worker is left, running or unreaped


def test_failed_fork_leaves_no_worker_or_pipe(monkeypatch):
    # the second fork fails: the parent kills and reaps the first worker,
    # which would otherwise sleep on, and closes every pipe it opened
    real_fork, forks = os.fork, []

    def fork():
        if forks:
            raise BlockingIOError(errno.EAGAIN, "planted")
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="planted"):
        cli._run_parallel(lambda index: time.sleep(60), 2, 2)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_cli_import_sets_one_blas_thread_before_numpy(monkeypatch, preset, want):
    # numpy's OpenBLAS reads the variable once, as it loads, so the CLI
    # module sets it first (see test_package_import_loads_no_numpy), and
    # forked workers inherit it.  A value already set stays.
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    script = (
        "import os\n"
        "import neumann_bounds.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert fresh_python(script) == want


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


def test_bound_calls_no_lapack(tmp_path, monkeypatch):
    # every bound method, with the default b_m_eps and rules built afresh,
    # runs on elementwise numpy alone: no LAPACK routine and no leggauss
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on the bound path")

    for name in ("eigvalsh", "eigh", "eig", "lstsq", "solve", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    conformal.build_disk_quadrature.cache_clear()
    text = (
        "p = 1.5\nq = 4\nalpha = 12\neps = 2\nK = 1.05\nquad_nr = 48\nquad_ntheta = 32\n"
        "methods = esssup, lq, quasidisc, gaussian_sweep, orlicz, orlicz_quasidisc\n"
        "[scenario]\nid = pp\nmap = perturbed_power c=0.3 k=2\ndensity = gaussian n=4\n"
    )
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", write(tmp_path, text), "--jobs", "1", "--out", str(out)]) == 0
    _, rows = _csv_rows(out)
    methods = {row["method"].split("[")[0] for row in rows}
    assert methods == {"esssup", "lq", "quasidisc", "gaussian_sweep", "orlicz", "orlicz_quasidisc"}
    assert not [row for row in rows if row["flags"].startswith("error:")]


def _two_maps(spellings):
    """Two maps with three densities each; the i-th scenario of a map spells
    the map's parameters as ``spellings[i]``."""
    text = (
        "quad_nr = 24\nquad_ntheta = 20\np = 1.5\nq = 4\neps = 2\nb_m_eps = 1\n"
        "fem_level = 3\nmethods = esssup, lq, quasidisc, orlicz\n"
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
    from neumann_bounds import cholesky, conformal, youngfn

    nodes = 24 * 20  # no FEM level has as many triangles
    counts, stiffness, factored = {}, [], []
    real_spec, real_jacobian = cli.map_from_spec, conformal.ConformalMap.jacobian
    real_inverse, real_solve = youngfn.LogPow.inverse, fem_oracle.first_nonzero_neumann
    real_factor = cholesky.Factor.__init__

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
    monkeypatch.setattr(
        cholesky.Factor, "__init__",
        lambda self, plan, data: factored.append(data) or real_factor(self, plan, data),
    )
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


def test_a_maps_fem_work_is_freed_when_the_next_map_starts(tmp_path, monkeypatch):
    # the current map owns its meshes and their factors: map A's are dead
    # by the time map B's first mesh is built, and nothing of the run is
    # alive once main returns
    from neumann_bounds import cholesky

    meshes, factors, at_b = [], [], []
    real_mesh, real_factor = fem_oracle.mesh_from_map, cholesky.Factor.__init__

    def mesh_from_map(cmap, level):
        if meshes and cmap is not meshes[0][0] and not at_b:
            at_b.append([ref() is None for _, ref in meshes] + [ref() is None for ref in factors])
        mesh = real_mesh(cmap, level)
        meshes.append((cmap, weakref.ref(mesh)))
        return mesh

    def init(self, plan, data):
        factors.append(weakref.ref(self))
        real_factor(self, plan, data)

    monkeypatch.setattr(fem_oracle, "mesh_from_map", mesh_from_map)
    monkeypatch.setattr(cholesky.Factor, "__init__", init)
    text = "quad_nr = 16\nquad_ntheta = 16\nfem_level = 3\nmethods = esssup\n" + "".join(
        f"[scenario]\nmap = {cmap}\ndensity = gaussian n={n}\n"
        for cmap in ("identity", "perturbed_power c=0.3 k=2") for n in (1, 2)
    )
    out = tmp_path / "out.csv"
    assert run(["verify", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert len(meshes) == len(factors) == 4  # levels 2 and 3 of each map
    assert at_b == [[True] * 4]  # map A's two meshes and two factors are dead
    gc.collect()
    assert [ref() is None for _, ref in meshes] + [ref() is None for ref in factors] == [True] * 8


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


def test_sweep_shares_the_scenarios_pullback(tmp_path, monkeypatch):
    # gaussian_sweep takes phi(z) and J from the scenario's pull-back, so a
    # scenario that runs it beside other routes maps its nodes once
    nodes, maps, jacobians = 16 * 16, [], []
    real_map, real_jacobian = conformal.PolynomialMap.map, conformal.ConformalMap.jacobian
    monkeypatch.setattr(
        conformal.PolynomialMap, "map", lambda cmap, z: maps.append(np.size(z)) or real_map(cmap, z)
    )
    monkeypatch.setattr(
        conformal.ConformalMap, "jacobian",
        lambda cmap, z: jacobians.append(np.size(z)) or real_jacobian(cmap, z),
    )
    text = (
        "quad_nr = 16\nquad_ntheta = 16\nK = 1.05\nsweep_n = 1,10\n"
        "methods = esssup, quasidisc, gaussian_sweep\n[scenario]\nid = pp\n"
        "map = perturbed_power c=0.3 k=2\ndensity = gaussian n=4\n"
    )
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert maps.count(nodes) == 1 and jacobians.count(nodes) == 1
    assert [r["method"] for r in _csv_rows(out)[1]] == [
        "esssup", "quasidisc", "gaussian_sweep[n=1]", "gaussian_sweep[n=10]", "gaussian_sweep[slope]"
    ]


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
        digest = hashlib.sha256(BASIC.encode()).hexdigest()
        assert lines[1] == f"# config-sha256: {digest}"
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

    def test_sweep_rows_are_unchecked(self, tmp_path):
        # a gaussian_sweep[n=...] row bounds mu for e^(-n|x|^2), not for the
        # scenario's density, so the FEM value of that density checks nothing
        text = BASIC.replace("methods = esssup\n", "methods = esssup, gaussian_sweep\nsweep_n = 1,10\n")
        out = tmp_path / "v.csv"
        argv = ["verify", "--config", write(tmp_path, text), "--fem-level", "3", "--out", str(out)]
        assert run(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert [r[1] for r in rows[3:]] == ["gaussian_sweep[n=1]", "gaussian_sweep[n=10]"]
        assert [r[3:6] for r in rows[3:]] == [["nan", "nan", "unchecked"]] * 2
        assert [r[5] for r in rows[:3]] == ["true"] * 3

    def test_sweep_only_scenario_solves_no_fem(self, tmp_path, monkeypatch):
        # no row of a scenario whose methods are all gaussian_sweep reads the
        # FEM reference, so it is not computed
        solves = []
        richardson = fem_oracle.mu_fem_richardson
        monkeypatch.setattr(
            fem_oracle, "mu_fem_richardson", lambda *a: solves.append(a[2]) or richardson(*a)
        )
        text = BASIC + "[scenario]\nid = g\nmethods = gaussian_sweep\nsweep_n = 1,10\n"
        out = tmp_path / "v.csv"
        argv = ["verify", "--config", write(tmp_path, text), "--fem-level", "3", "--out", str(out)]
        assert run(argv) == 0
        assert solves == [3, 3]  # disk-one and pp-tight
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert [r[0] for r in rows] == ["disk-one", "disk-one", "pp-tight", "g", "g"]
        assert [r[3:6] for r in rows[3:]] == [["nan", "nan", "unchecked"]] * 2

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


def package_env():
    """The environment of a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def fresh_python(script, *flags):
    """Run ``script`` in a new interpreter, started with ``flags``, that
    imports this checkout's package."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "argv", [["bound"], ["verify", "--fem-level", "3"], ["sweep"], ["norms"]], ids=lambda a: a[0]
)
def test_commands_run_clean_under_warnings_as_errors(tmp_path, argv):
    # every method on every map family, in a fresh interpreter where any
    # numpy RuntimeWarning (overflow, divide by zero, invalid value) fails
    methods = "luxemburg, kq, kphi" if argv[0] == "norms" else ", ".join(cli.BOUNDS)
    text = (
        "p = 1.5\nq = 4\nalpha = 12\nK = 1.05\neps = 2\nquad_nr = 24\nquad_ntheta = 20\n"
        f"sweep_n = 1,10\nyoung = log_pow:2\nmethods = {methods}\n"
    )
    for cmap, rho in [
        ("identity", "constant"),
        ("perturbed_power c=0.3 k=2", "gaussian n=2"),
        ("polynomial coeffs=1,0.05,0.1j", "pullback_orlicz_canceling eps=2"),
        ("moebius a=0.2+0.1j", "pullback_jacobian_power exponent=1"),
    ]:
        text += f"[scenario]\nmap = {cmap}\ndensity = {rho}\n"
    out = tmp_path / "out.csv"
    argv = [*argv, "--config", write(tmp_path, text), "--out", str(out)]
    fresh_python(f"from neumann_bounds import cli\nassert cli.main({argv!r}) == 0\n", "-W", "error")
    assert "error:" not in out.read_text()


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_orlicz_runs_never_compute_the_embedding_estimate(tmp_path, monkeypatch, command):
    # the default b_m_eps is the estimate's value, pinned in bounds, so no
    # run builds its rule and twelve Luxemburg norms; a call would raise
    # and turn the Orlicz rows into error rows
    def refuse(*args, **kwargs):
        raise AssertionError("b_m2_disk_estimate called")

    monkeypatch.setattr(fem_oracle, "b_m2_disk_estimate", refuse)
    cfg = write(
        tmp_path,
        "alpha = 12\nK = 1.05\neps = 2\nquad_nr = 24\nquad_ntheta = 20\nfem_level = 3\n"
        "methods = orlicz, orlicz_quasidisc\n[scenario]\nid = pp\n"
        "map = perturbed_power c=0.3 k=2\ndensity = gaussian n=2\n",
    )
    out = tmp_path / "out.csv"
    assert run([command, "--config", cfg, "--jobs", "1", "--out", str(out)]) == 0
    _, rows = _csv_rows(out)
    assert [row["method"].split("[")[0] for row in rows] == ["orlicz", "orlicz_quasidisc"]
    assert not [row for row in rows if row["flags"].startswith("error:")]


@pytest.mark.parametrize(
    "command, methods, rows",
    [("bound", "esssup, lq, orlicz, quasidisc", 4), ("sweep", "esssup", 3), ("norms", "kq, kphi", 2),
     ("verify", "esssup, lq", 2)],
    ids=["bound", "sweep", "norms", "verify"],
)
def test_runs_without_fem_load_no_scipy_or_openssl(tmp_path, command, methods, rows):
    # the FEM oracle factors its stiffness with the package's own solver,
    # which only verify loads, and hashlib would map OpenSSL's libcrypto for
    # the one config digest; a top-level import of any of them on these
    # commands' path would cost every run its import.  verify loads no
    # scipy either, and its Lanczos start is a hash in numpy, not a draw of
    # numpy.random, whose import loads hashlib through secrets, and its
    # unique keys load no numpy.ma, as np.unique would.  No command loads
    # logging, which only youngfn.probe_delta_prime uses
    cfg = write(
        tmp_path,
        "quad_nr = 16\nquad_ntheta = 16\nK = 1.05\nsweep_n = 1,10\nfem_level = 3\n[scenario]\n"
        f"id = pp\nmap = perturbed_power c=0.3 k=2\ndensity = gaussian n=2\nmethods = {methods}\n",
    )
    script = (
        "import sys\n"
        "from neumann_bounds import cli\n"
        f"argv = [{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'out.csv')!r}]\n"
        "assert cli.main([*argv, '--jobs', '1']) in (0, 1)\n"
        "checked = ('scipy', 'hashlib', '_hashlib', 'numpy.random', 'numpy.ma', 'logging')\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == c or m.startswith(c + '.') for c in checked) or 'cholesky' in m))\n"
    )
    loaded = ["neumann_bounds.cholesky"] if command == "verify" else []
    assert fresh_python(script) == str(loaded)
    assert (tmp_path / "out.csv").read_text().count("\npp,") == rows


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


def test_quasidisk_routes_never_import_mpmath(tmp_path):
    # the double-exponential chain runs in log-log doubles, so no route of a
    # bound run needs mpmath
    cfg = write(
        tmp_path,
        "quad_nr = 16\nquad_ntheta = 16\nK = 1.05\nalpha = 12\neps = 2\n"
        "methods = quasidisc, orlicz_quasidisc, gaussian_sweep\n[scenario]\nid = pp\n"
        "map = perturbed_power c=0.3 k=2\ndensity = gaussian n=4\n",
    )
    out = str(tmp_path / "out.csv")
    script = (
        "import sys\n"
        "from neumann_bounds import cli\n"
        f"assert cli.main(['bound', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    assert fresh_python(script) == "[]"
    assert [r["method"] for r in _csv_rows(out)[1]][:2] == ["quasidisc", "orlicz_quasidisc"]
    assert "error:" not in Path(out).read_text()


def test_package_import_loads_no_numpy():
    # the package __init__ is lazy, so the CLI can set the BLAS thread
    # count before numpy loads; a re-exported name still loads its module
    script = (
        "import sys\n"
        "import neumann_bounds\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy', 'mpmath')))\n"
        "from neumann_bounds import IdentityMap, bounds\n"
        "print(IdentityMap.__module__, bounds.__name__)\n"
    )
    assert fresh_python(script) == "[]\nneumann_bounds.conformal neumann_bounds.bounds"


def test_cli_import_loads_no_process_pool():
    # the workers are plain forks, so no process of a run loads a process
    # pool's modules (see test_pooled_verify_loads_no_scipy), and importing
    # the CLI does not either
    script = (
        "import sys\n"
        "import neumann_bounds.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    assert fresh_python(script) == "[]"


def test_pooled_verify_loads_no_scipy(tmp_path):
    # the FEM oracle factors with the package's own solver and hashes its
    # Lanczos start, and the workers are plain forks, so neither the parent
    # nor a worker imports scipy, numpy.random, numpy.ma, hashlib, logging
    # or a process pool's modules; importing cli adds the one key
    # OPENBLAS_NUM_THREADS=1 (unset here), which the workers inherit, and
    # the run changes the environment no further; no worker outlives main.
    # Warnings are errors, so a fork from a parent that runs threads, which
    # Python 3.12 warns of, fails
    out, log = tmp_path / "out.csv", str(tmp_path / "workers.txt")
    script = (
        "import os, sys\n"
        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "env = {**os.environ, 'OPENBLAS_NUM_THREADS': '1'}\n"
        "from neumann_bounds import cli\n"
        "checked = ('scipy', 'numpy.random', 'numpy.ma', 'hashlib', '_hashlib', 'logging',\n"
        "           'multiprocessing', 'concurrent')\n"
        "def matches(name):\n"
        "    return any(name == c or name.startswith(c + '.') for c in checked)\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if matches(m))\n"
        "def note(line):\n"
        f"    with open({log!r}, 'a') as fh:\n"
        "        fh.write(line + '\\n')\n"
        "class CheckedImports:  # any process's imports of the checked modules\n"
        "    @staticmethod\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        if matches(name):\n"
        "            note('imported ' + name)\n"
        "sys.meta_path.insert(0, CheckedImports)\n"
        "real_fork, real_exit = os.fork, os._exit\n"
        "def fork():  # in the parent, before each worker\n"
        "    note(f'parent {loaded()}')\n"
        "    return real_fork()\n"
        "def leave(code):  # in each worker, after its last task\n"
        "    note(f'worker {loaded()} {code}')\n"
        "    real_exit(code)\n"
        "os.fork, os._exit = fork, leave\n"
        f"argv = ['verify', '--config', {write(tmp_path, BASIC)!r}, '--fem-level', '3']\n"
        f"assert cli.main([*argv, '--jobs', '2', '--out', {str(out)!r}]) == 0\n"
        "assert loaded() == []\n"
        "assert dict(os.environ) == env\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no children')\n"
    )
    assert fresh_python(script, "-W", "error") == "no children"
    assert sorted(Path(log).read_text().splitlines()) == [
        "parent []", "parent []", "worker [] 0", "worker [] 0"
    ]
    assert out.read_text().count("\ndisk-one,") == 2


def test_pooled_verify_factors_each_map_on_at_most_two_workers(tmp_path):
    # the pool hands each worker one contiguous chunk of scenarios, so the
    # scenarios of a map, consecutive in the config, meet at most two
    # workers: at most (maps + 1) x 2 factorizations, one per (map, level)
    # and worker, where handing out one scenario at a time gives each
    # worker every map; the parent builds the two levels' plans before it
    # forks, so no worker builds one
    log, plans = str(tmp_path / "factors.txt"), str(tmp_path / "plans.txt")
    maps = ["identity", "perturbed_power c=0.3 k=2", "perturbed_power c=0.5 k=3"]
    text = "quad_nr = 16\nquad_ntheta = 16\nfem_level = 3\nmethods = esssup\n" + "".join(
        f"[scenario]\nmap = {cmap}\ndensity = gaussian n={n}\n" for cmap in maps for n in (1, 2, 3)
    )
    script = (
        "import os\n"
        "from neumann_bounds import cholesky, cli\n"
        "real_init = cholesky.Factor.__init__\n"
        "def init(self, plan, data):\n"
        f"    with open({log!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()} {len(data)}\\n')\n"
        "    real_init(self, plan, data)\n"
        "cholesky.Factor.__init__ = init\n"
        "real_plan = cholesky.Plan.__init__\n"
        "def plan(self, indptr, indices):\n"
        f"    with open({plans!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    real_plan(self, indptr, indices)\n"
        "cholesky.Plan.__init__ = plan\n"
        f"argv = ['verify', '--config', {write(tmp_path, text)!r}, '--out', {str(tmp_path / 'out.csv')!r}]\n"
        "assert cli.main([*argv, '--jobs', '2']) == 0\n"
        "print(os.getpid())\n"
    )
    parent = fresh_python(script)
    factored = Path(log).read_text().splitlines()
    assert len({line.split()[0] for line in factored}) == 2  # both workers ran
    assert len(factored) <= (len(maps) + 1) * 2
    assert Path(plans).read_text().split() == [parent, parent]


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the factor runs on numpy's batched LAPACK and BLAS; a level-5 fixture
    # in fresh processes with one and with two OpenBLAS threads writes the
    # same bytes
    cfg = write(
        tmp_path,
        "quad_nr = 16\nquad_ntheta = 16\nq = 4\nfem_level = 5\nmethods = esssup, lq\n[scenario]\n"
        "id = pp\nmap = perturbed_power c=0.5 k=3\ndensity = gaussian n=4\n",
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**package_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "neumann_bounds.cli", "verify", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\npp,") == 2


def test_process_entry_exit_codes_and_output(tmp_path):
    # ``python -m neumann_bounds.cli`` runs ``cli.run``, which freezes the
    # heap before the interpreter exits; each run is its own process group,
    # so a worker that outlived the run would still be found in it
    cfg = write(tmp_path, BASIC)
    out = tmp_path / "out.csv"

    def cli_process(*argv):
        with subprocess.Popen(
            [sys.executable, "-m", "neumann_bounds.cli", *argv], env=package_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as proc:
            stdout, stderr = proc.communicate(timeout=120)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # signal 0 only asks whether the group exists
        return proc.returncode, stdout, stderr

    verify = ["verify", "--config", cfg, "--fem-level", "3", "--jobs", "2"]
    assert cli_process(*verify, "--out", str(out)) == (0, "", "")
    code, piped, _ = cli_process(*verify, "--out", "-")
    assert code == 0 and piped == out.read_text()
    lines = piped.splitlines()
    assert len(lines) == 6 and [r.split(",")[5] for r in lines[3:]] == ["true"] * 3
    assert cli_process(*verify, "--corrupt-bounds", "100", "--out", str(out))[0] == 1
    sound = [r.split(",")[5] for r in out.read_text().splitlines()[3:]]
    assert len(sound) == 3 and "false" in sound
    code, stdout, stderr = cli_process("bound", "--config", cfg, "--tol", "1")
    assert code == 2 and "--tol" in stderr and not stdout


@pytest.mark.parametrize(
    "failure, last_line",
    [
        ("raise LookupError('planted')", "LookupError: planted"),
        ("os._exit(3)", "ChildProcessError: worker for tasks 0-0 exited with code 3"),
        ("os.kill(os.getpid(), signal.SIGKILL)",
         "ChildProcessError: worker for tasks 0-0 was killed by signal 9"),
    ],
    ids=["raise", "exit", "kill"],
)
def test_failed_worker_fails_the_run_and_leaves_no_process(tmp_path, failure, last_line):
    # the first worker fails while the second is still at work: the parent
    # re-raises the task's exception, or raises for a worker that died,
    # kills and reaps the second worker, writes no CSV and exits 3, the
    # crash code, which no unsound row shares; the run is its own process
    # group, and that group is empty afterwards
    text = "quad_nr = 16\nquad_ntheta = 16\nmethods = esssup\n[scenario]\nid = first\n[scenario]\n"
    out = tmp_path / "out.csv"
    script = (
        "import os, signal, sys, time\n"
        "from neumann_bounds import cli\n"
        "real_rows = cli._rows_bound\n"
        "def rows(sc, built, corrupt=1.0):\n"
        "    if sc.sid == 'first':\n"
        f"        {failure}\n"
        "    time.sleep(60)  # the second worker, still at work when the first fails\n"
        "    return real_rows(sc, built, corrupt)\n"
        "cli._rows_bound = rows\n"
        f"sys.argv[1:] = ['bound', '--config', {write(tmp_path, text)!r}, '--jobs', '2', '--out', {str(out)!r}]\n"
        "sys.exit(cli.run())\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", script], env=package_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=30)  # the parent does not wait out the sleep
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert proc.returncode == 3 and not stdout and not out.exists()
    assert stderr.splitlines()[-1] == last_line
