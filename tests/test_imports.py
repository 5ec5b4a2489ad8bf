"""Which commands load scipy, checked in fresh interpreters.

scipy costs about half a second of start-up, so the layers import it inside
the functions that call it.  pytest has already imported scipy by the time
these tests run, so each check starts its own interpreter and reports the
``scipy`` modules it saw as JSON on its last line of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Commands that must run without loading any scipy module.
SCIPY_FREE = [
    ["steady"],
    ["steady", "--t0", "1"],
    ["attached", "--kappa0-count", "3", "--t0-count", "3"],
    ["sweep-A"],
    ["rabi"],
]

# Commands whose deferred scipy imports must resolve on first use.
SCIPY_USING = [
    ["chain-profile"],
    ["scaling", "--n-max", "5"],
    ["oracle", "--max-rel-dev", "10"],
]

_PRELUDE = """
import json, os, sys, warnings
warnings.simplefilter("ignore")

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(argv, out_dir):
    from nhcool.cli import main
    name = "_".join(argv).replace("-", "") + ".csv"
    return main([*argv, "--output", os.path.join(out_dir, name)])
"""

_SCIPY_FREE_SCRIPT = _PRELUDE + """
import nhcool, nhcool.cli
report = {"import": scipy_modules(), "commands": []}
for argv in json.loads(sys.argv[1]):
    code = run(argv, sys.argv[2])
    report["commands"].append([argv, code, scipy_modules()])
print(json.dumps(report))
"""

_DEFERRED_SCRIPT = _PRELUDE + """
import numpy as np
from nhcool import (
    build_hopping_matrix, covariance_rhs, diagonalize, make_uniform_chain,
    oracle_steady, steady_from_dynamics,
)
spec = make_uniform_chain(3, 1.0, 0.5, 0.1, 1.0)
report = {
    "diagonalize": diagonalize(build_hopping_matrix(spec)).eigenvalues.tolist(),
    "steady_from_dynamics": steady_from_dynamics(spec).occupations.tolist(),
    "covariance_rhs": covariance_rhs(spec, np.eye(3)).real.diagonal().tolist(),
    "oracle_steady": oracle_steady(make_uniform_chain(2, 1.0, 0.5, 0.1, 0.01), 3).tolist(),
    "commands": [[argv, run(argv, sys.argv[2])] for argv in json.loads(sys.argv[1])],
    "scipy": scipy_modules(),
}
print(json.dumps(report))
"""


def _run_fresh(script: str, commands: list[list[str]], out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), str(out_dir)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_and_numpy_only_commands_load_no_scipy(tmp_path):
    report = _run_fresh(_SCIPY_FREE_SCRIPT, SCIPY_FREE, tmp_path)
    assert report["import"] == []
    for argv, code, loaded in report["commands"]:
        assert code == 0, argv
        assert loaded == [], f"{argv} loaded {loaded[:3]}"
    assert len(list(tmp_path.glob("*.csv"))) == len(SCIPY_FREE)


def test_deferred_scipy_imports_resolve(tmp_path):
    report = _run_fresh(_DEFERRED_SCRIPT, SCIPY_USING, tmp_path)
    assert len(report["diagonalize"]) == 3
    assert len(report["steady_from_dynamics"]) == 3
    assert len(report["covariance_rhs"]) == 3
    assert len(report["oracle_steady"]) == 2
    for argv, code in report["commands"]:
        assert code == 0, argv
    assert {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"} <= set(report["scipy"])
    assert len(list(tmp_path.glob("*.csv"))) == len(SCIPY_USING)
