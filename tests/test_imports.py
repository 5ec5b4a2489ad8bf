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
    ["chain-profile"],
    ["scaling", "--n-max", "5"],
]

# Commands whose deferred scipy imports must resolve on first use.
SCIPY_USING = [
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
    covariance_rhs, evolve_covariance,
    evolve_master_equation, make_uniform_chain, oracle_steady, steady_from_dynamics,
    thermal_state,
)
spec = make_uniform_chain(3, 1.0, 0.5, 0.1, 1.0)
pair = make_uniform_chain(2, 1.0, 0.5, 0.1, 0.01)
report = {
    "steady_from_dynamics": steady_from_dynamics(spec).occupations.tolist(),
    "covariance_rhs": covariance_rhs(spec, np.eye(3)).real.diagonal().tolist(),
    "oracle_steady": oracle_steady(pair, 3).tolist(),
    "evolve_covariance": evolve_covariance(spec, np.eye(3), 1.0).occupations[-1].tolist(),
    "evolve_master_equation": evolve_master_equation(
        pair, thermal_state(pair, 3), 1.0).occupations().tolist(),
    "commands": [[argv, run(argv, sys.argv[2])] for argv in json.loads(sys.argv[1])],
    "scipy": scipy_modules(),
}
print(json.dumps(report))
"""

_SPECTRAL_SCRIPT = _PRELUDE + """
from nhcool import (
    build_hopping_matrix, diagonalize, localization_profile,
    make_uniform_chain, spectral_occupations,
)
report = {"occupations": [], "scipy": []}
for n in (1, 2, 7, 40):
    dec = diagonalize(build_hopping_matrix(make_uniform_chain(n, 1.0, 0.5, 0.0, 1.0)))
    report["occupations"].append(spectral_occupations(dec, 1.0).tolist())
    localization_profile(dec), dec.hermitian_eigenvectors, dec.right_eigenvectors
report["scipy"] = scipy_modules()
print(json.dumps(report))
"""

_ORACLE_SCRIPT = _PRELUDE + """
from nhcool import evolve_master_equation, make_uniform_chain, oracle_steady, thermal_state
pair = make_uniform_chain(2, 1.0, 0.5, 0.1, 0.01)
report = {
    "oracle_steady": oracle_steady(pair, 3).tolist(),
    "evolve_master_equation": evolve_master_equation(
        pair, thermal_state(pair, 3), 1.0).occupations().tolist(),
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


def test_spectral_layer_loads_no_scipy(tmp_path):
    # the eigensolve is numpy's SVD; no layer of the spectral path needs scipy
    report = _run_fresh(_SPECTRAL_SCRIPT, [], tmp_path)
    assert [len(occ) for occ in report["occupations"]] == [1, 2, 7, 40]
    assert report["scipy"] == []


def test_deferred_scipy_imports_resolve(tmp_path):
    report = _run_fresh(_DEFERRED_SCRIPT, SCIPY_USING, tmp_path)
    assert len(report["steady_from_dynamics"]) == 3
    assert len(report["covariance_rhs"]) == 3
    assert len(report["oracle_steady"]) == 2
    assert len(report["evolve_covariance"]) == 3
    assert len(report["evolve_master_equation"]) == 2
    for argv, code in report["commands"]:
        assert code == 0, argv
    assert {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"} <= set(report["scipy"])
    # both trajectories are exact propagations; no integrator is loaded
    assert not [m for m in report["scipy"] if m.startswith("scipy.integrate")]
    assert len(list(tmp_path.glob("*.csv"))) == len(SCIPY_USING)


def test_oracle_is_dense(tmp_path):
    # both oracle solves are dense: scipy.linalg, and no scipy.sparse module
    report = _run_fresh(_ORACLE_SCRIPT, [], tmp_path)
    assert len(report["oracle_steady"]) == 2
    assert len(report["evolve_master_equation"]) == 2
    assert "scipy.linalg" in report["scipy"]
    assert not [m for m in report["scipy"] if m.startswith("scipy.sparse")]
