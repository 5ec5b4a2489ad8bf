"""Which commands load scipy, checked in a fresh interpreter.

scipy costs about half a second of start-up, so the layers import it inside
the functions that call it.  pytest has already imported scipy by the time
these tests run, so the checks start one interpreter of their own, which
reports the ``scipy`` modules it saw as JSON on its last line of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# One fresh interpreter runs three phases in this order, recording the scipy
# modules after each: the commands that must load none; the library calls
# that run on numpy alone (the moment and master-equation trajectories use
# the moment layer's numpy Taylor exponential, and the spectral eigensolve
# is numpy's SVD); then the stationary solves that load scipy.linalg, and
# the commands that call them.  Each test checks only what its own phase
# loaded.
_SCRIPT = """
import json, os, sys, warnings
warnings.simplefilter("ignore")

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(argv, out_dir):
    from nhcool.cli import main
    name = "_".join(argv).replace("-", "") + ".csv"
    return main([*argv, "--output", os.path.join(out_dir, name)])

scipy_free, scipy_using, free_dir, using_dir = json.loads(sys.argv[1])

import nhcool, nhcool.cli
free = {"import": scipy_modules(), "commands": []}
for argv in scipy_free:
    code = run(argv, free_dir)
    free["commands"].append([argv, code, scipy_modules()])

import numpy as np
from nhcool import (
    build_hopping_matrix, covariance_rhs, diagonalize, evolve_covariance,
    evolve_master_equation, localization_profile, make_uniform_chain,
    spectral_occupations, thermal_state,
)
spec = make_uniform_chain(3, 1.0, 0.5, 0.1, 1.0)
pair = make_uniform_chain(2, 1.0, 0.5, 0.1, 0.01)
numpy_only = {
    "covariance_rhs": covariance_rhs(spec, np.eye(3)).real.diagonal().tolist(),
    "evolve_covariance": evolve_covariance(
        spec, np.eye(3), 200.0, t_eval=[0.5, 20.0, 200.0]).occupations.tolist(),
}
numpy_only["after_covariance"] = scipy_modules()
numpy_only["spectral_occupations"] = []
for n in (1, 2, 7, 40):
    dec = diagonalize(build_hopping_matrix(make_uniform_chain(n, 1.0, 0.5, 0.0, 1.0)))
    numpy_only["spectral_occupations"].append(spectral_occupations(dec, 1.0).tolist())
    localization_profile(dec), dec.hermitian_eigenvectors, dec.right_eigenvectors
numpy_only["after_spectral"] = scipy_modules()
numpy_only["evolve_master_equation"] = evolve_master_equation(
    pair, thermal_state(pair, 3), 1.0).occupations().tolist()
numpy_only["after_master_equation"] = scipy_modules()

from nhcool import oracle_steady, steady_from_dynamics
deferred = {"steady_from_dynamics": steady_from_dynamics(spec).occupations.tolist()}
deferred["after_steady_from_dynamics"] = scipy_modules()
deferred["oracle_steady"] = oracle_steady(pair, 3).tolist()
deferred["after_oracle_steady"] = scipy_modules()
deferred["commands"] = [[argv, run(argv, using_dir)] for argv in scipy_using]
deferred["scipy"] = scipy_modules()
print(json.dumps([free, numpy_only, deferred]))
"""


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The three phase reports of one fresh interpreter, the command phases
    each with the directory of their CSVs."""
    free_dir, using_dir = (tmp_path_factory.mktemp(name) for name in ("free", "using"))
    args = json.dumps([SCIPY_FREE, SCIPY_USING, str(free_dir), str(using_dir)])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    free, numpy_only, deferred = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"free": (free, free_dir), "numpy_only": numpy_only, "deferred": (deferred, using_dir)}


@pytest.fixture(scope="module")
def numpy_only_report(fresh_run):
    return fresh_run["numpy_only"]


@pytest.fixture(scope="module")
def deferred_run(fresh_run):
    return fresh_run["deferred"]


def test_package_and_numpy_only_commands_load_no_scipy(fresh_run):
    report, out_dir = fresh_run["free"]
    assert report["import"] == []
    for argv, code, loaded in report["commands"]:
        assert code == 0, argv
        assert loaded == [], f"{argv} loaded {loaded[:3]}"
    assert len(list(out_dir.glob("*.csv"))) == len(SCIPY_FREE)


def test_covariance_propagation_loads_no_sparse_linalg(numpy_only_report):
    # the generator is a triplet list and the exponential is numpy's; no
    # scipy module loads, sparse or otherwise
    assert len(numpy_only_report["covariance_rhs"]) == 3
    assert [len(occ) for occ in numpy_only_report["evolve_covariance"]] == [3, 3, 3]
    assert numpy_only_report["after_covariance"] == []


def test_spectral_layer_loads_no_scipy(numpy_only_report):
    # the eigensolve is numpy's SVD; no layer of the spectral path needs scipy
    occupations = numpy_only_report["spectral_occupations"]
    assert [len(occ) for occ in occupations] == [1, 2, 7, 40]
    assert numpy_only_report["after_spectral"] == []


def test_master_equation_trajectory_loads_no_scipy(numpy_only_report):
    # the exponential is the moment layer's numpy Taylor series
    assert len(numpy_only_report["evolve_master_equation"]) == 2
    assert numpy_only_report["after_master_equation"] == []


def test_deferred_scipy_imports_resolve(deferred_run):
    report, out_dir = deferred_run
    assert len(report["steady_from_dynamics"]) == 3
    for argv, code in report["commands"]:
        assert code == 0, argv
    # the moment solve is LAPACK's band LU: scipy.linalg, and no sparse
    # module or integrator, also once the commands have run
    assert "scipy.linalg" in report["after_steady_from_dynamics"]
    assert not [m for m in report["scipy"] if m.startswith(("scipy.sparse", "scipy.integrate"))]
    assert len(list(out_dir.glob("*.csv"))) == len(SCIPY_USING)


def test_oracle_is_dense(deferred_run):
    # the oracle's stationary solve is dense: scipy.linalg, and no scipy.sparse module
    report, _ = deferred_run
    assert len(report["oracle_steady"]) == 2
    assert "scipy.linalg" in report["after_oracle_steady"]
    assert not [m for m in report["after_oracle_steady"] if m.startswith("scipy.sparse")]
