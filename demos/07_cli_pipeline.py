"""End-to-end batch run through the command-line interface.

Writes a scenario config that uses the esssup, lq, orlicz and quasidisc
bound methods, runs the ``bound``, ``verify``, ``sweep`` and ``norms``
commands programmatically, and shows the resulting CSV.  The same
artifacts come from the installed script:

    neumann-bounds verify --config scenarios.ini --fem-level 5
"""

import tempfile
from pathlib import Path

from neumann_bounds import cli

CONFIG = """\
# shared parameter defaults
p = 1.5
q = 4
alpha = 12
K = 1.05
eps = 2
quad_nr = 48
quad_ntheta = 32
fem_level = 4

[scenario]
id = disk-uniform
map = identity
density = constant c=1
methods = esssup, lq, orlicz, quasidisc

[scenario]
id = bumpy-tight
map = perturbed_power c=0.5 k=2
density = pullback_jacobian_power exponent=1
methods = esssup

[scenario]
id = bumpy-gaussian
map = perturbed_power c=0.3 k=3
density = gaussian n=4
methods = esssup, lq, orlicz
sweep_n = 10,100,1000
"""

workdir = Path(tempfile.mkdtemp(prefix="neumann-bounds-demo-"))
cfg = workdir / "scenarios.ini"
cfg.write_text(CONFIG)

for command in ("bound", "verify", "sweep", "norms"):
    out = workdir / f"{command}.csv"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "norms":
        # the norms command reads its quantities from the methods key;
        # reuse the config with norm quantities for the first scenario
        norm_cfg = workdir / "norms.ini"
        norm_cfg.write_text(CONFIG.replace(
            "methods = esssup, lq, orlicz, quasidisc", "methods = luxemburg, kq, kphi"
        ).replace("methods = esssup, lq, orlicz\n", "methods = kq\n").replace(
            "methods = esssup\n", "methods = luxemburg\n"
        ))
        argv = [command, "--config", str(norm_cfg), "--out", str(out)]
    code = cli.main(argv)
    print(f"$ neumann-bounds {command} --config {cfg.name}   (exit {code})")
    print(out.read_text())
