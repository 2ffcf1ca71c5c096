import importlib
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
    "argv", [["bound"], ["verify", "--fem-level", "3"]], ids=lambda argv: argv[0]
)
def test_determinism_across_jobs(tmp_path, argv):
    cfg = write(tmp_path, BASIC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run([*argv, "--config", cfg, "--out", str(out1)]) == 0
    fem_oracle._disk_rings.cache_clear()  # the threads fill the shared cache
    assert run([*argv, "--config", cfg, "--jobs", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_quasidisk_chain_matches_reference(tmp_path, monkeypatch):
    # end to end over the numeric conjugate and the mpmath chain: the CSV
    # must stay byte-identical to the committed benchmark reference
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    cfg = write(tmp_path, workloads.config_text("quasidisk-chain", 0))
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", cfg, "--jobs", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (bench / "reference" / "quasidisk-chain.csv").read_bytes()


def test_fine_quadrature_matches_reference(tmp_path, monkeypatch):
    # end to end over the shared pull-backs, the inverse and the Luxemburg
    # norm at 256x256: the CSV must stay byte-identical to the reference
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    cfg = write(tmp_path, workloads.config_text("fine-quadrature", 0))
    out = tmp_path / "out.csv"
    assert run(["bound", "--config", cfg, "--jobs", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == (bench / "reference" / "fine-quadrature.csv").read_bytes()


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

    def test_solver_failure_becomes_error_rows(self, tmp_path, stalled_eigsh, capsys):
        out = tmp_path / "v.csv"
        argv = ["verify", "--config", write(tmp_path, BASIC), "--fem-level", "3"]
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "out.csv").read_text().count("\npp,") == 4
