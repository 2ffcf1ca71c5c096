"""``bench/tracing.py`` finds the functions it times by name.

A rename, or a call path that no longer passes through a wrapped function,
would silently read zero in the benchmark's per-layer metrics; this test
makes it fail here instead.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one scenario that runs every bound method
CONFIG = """\
p = 1.5
q = 4
alpha = 12
K = 1.05
eps = 2
quad_nr = 16
quad_ntheta = 16
fem_level = 2
sweep_n = 1,2
methods = esssup, lq, quasidisc, orlicz, orlicz_quasidisc, gaussian_sweep

[scenario]
id = pp
map = perturbed_power c=0.3 k=2
density = gaussian n=2
"""

TRACED = [
    "youngfn.inverse",
    "youngfn.eval",
    "youngfn.conjugate",
    "youngfn.psi_log_eval",
    "densities.on_disk",
    *(
        f"bounds.{route}"
        for route in ("esssup", "lq", "quasidisc", "orlicz", "orlicz_quasidisc", "gaussian_sweep", "k_phi")
    ),
]


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_every_traced_name_records_calls(tmp_path, command):
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG)
    spans = tmp_path / "spans.json"
    argv = [
        sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans),
        command, "--config", str(cfg), "--jobs", "1", "--out", str(tmp_path / "out.csv"),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    counts = Counter(span[0] for span in trace["spans"]) + Counter(trace["counts"])
    assert [name for name in TRACED if counts[name] == 0] == []
