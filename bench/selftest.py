"""Self-test of the benchmark's own arithmetic and checks.

    python3 bench/selftest.py

Exits 0 when self-time arithmetic is right on synthetic nested spans, the
span recorder nests and restores real bindings, and every reference check
accepts a correct output and flags a deliberately perturbed one.  Correct
outputs come from the program where that is cheap and from the reference
itself where the program call takes seconds.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in run.py

import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nhcool as nh  # noqa: E402
import nhcool.cli  # noqa: E402,F401

import cases as workloads  # noqa: E402
import refs  # noqa: E402
from spans import Patched, Recorder, Span, covered, per_pass_totals, self_times  # noqa: E402

PERTURB = 1e-2
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def test_self_time_arithmetic() -> None:
    # a [0,10] holds b [1,4] (which holds d [2,3]) and c [5,7]; e is a root
    # in another pass whose child f runs past its end.
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0), Span(1, "b", 1.0, 4.0, 0, 0),
        Span(2, "c", 5.0, 7.0, 0, 0), Span(3, "d", 2.0, 3.0, 1, 0),
        Span(4, "e", 20.0, 22.0, None, 1), Span(5, "f", 21.0, 25.0, 4, 1),
    ]
    own = self_times(spans)
    expect(own == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 4.0},
           f"self times of nested spans {own}")
    expect(covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7, "union of overlapping children")
    totals = per_pass_totals(spans + [Span(6, "b", 8.0, 9.0, 0, 0)])
    expect(totals[0]["b"] == {"self_s": 3.0, "calls": 2, "nbytes": 0}
           and totals[0]["a"]["self_s"] == 4.0 and set(totals) == {0, 1},
           "per-pass sums of self time and calls")


def test_recorder_bindings() -> None:
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "nhcool"}
    original = nh.solve_steady_chain
    recorder = Recorder()
    recorder.pass_id = 7
    with Patched(recorder, modules):
        nh.solve_steady_chain(nh.make_uniform_chain(4, 1.0, 0.5, 0.01, 1.0))
    names = {s.name: s for s in recorder.spans}
    top = names.get("steady.solve_steady_chain")
    expect(top is not None and top.parent is None and top.pass_id == 7,
           "package binding traced as a root span")
    expect(names.get("model.build_rate_matrix") is not None
           and names["model.build_rate_matrix"].parent == top.id
           and names["model.build_rate_matrix"].nbytes == 4 * 4 * 8,
           "steady.build_rate_matrix binding traced as a child, with its array size")
    expect(names.get("steady.solve_steady_rates") is not None
           and names["steady.solve_steady_rates"].parent == top.id,
           "module-internal call traced as a child")
    expect(nh.solve_steady_chain is original and nh.steady.build_rate_matrix is nh.build_rate_matrix,
           "bindings restored after the traced region")


def _perturbed(value):
    """A copy of a workload output with one component moved by ``PERTURB``."""
    if isinstance(value, str):  # CSV: scale the last column
        header, *rows = value.strip().split("\n")
        scaled = []
        for row in rows:
            cells = row.split(",")
            cells[-1] = format(float(cells[-1]) * (1 + PERTURB), ".17g")
            scaled.append(",".join(cells))
        return "\n".join([header, *scaled]) + "\n"
    if isinstance(value, nh.Trajectory):
        covs = value.covariances.copy()
        covs[-1] *= 1 + PERTURB
        return nh.Trajectory(value.times, value.occupations, covs)
    if isinstance(value, nh.FockDensityMatrix):
        rho = value.rho.copy()
        rho[0, 1] += PERTURB
        return nh.FockDensityMatrix(rho, value.cutoff, value.n_modes)
    out = np.array(value, dtype=float)
    out.flat[int(np.argmax(out))] *= 1 + PERTURB
    return out


def _stand_in(case, ref):
    """A correct output for a case whose program call is too slow for a self-test."""
    if case.name.startswith("evolve_covariance"):
        cov0 = np.diag(np.ones(10)).astype(complex)
        times = np.linspace(0.0, 200.0, 12)
        covs = refs.affine_flow(ref, cov0, times)
        return nh.Trajectory(times, np.real(np.diagonal(covs, axis1=1, axis2=2)), covs)
    if case.name.startswith("evolve_master_equation"):
        return nh.FockDensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex), 2, 2)
    return ref


def check_cases(label: str, cases, run_for_real) -> None:
    for case in cases:
        ref = case.reference()
        good = case.run() if run_for_real(case) else _stand_in(case, ref)
        why = case.check(good, ref)
        expect(why is None, f"{label} {case.name}: correct output accepted"
               + (f" ({why})" if why else ""))
        expect(case.check(_perturbed(good), ref) is not None,
               f"{label} {case.name}: perturbed output flagged")


def test_checks() -> None:
    chains = [c for c in workloads.chains(nh, 0) if c.name.split()[1] in ("N=10", "N=100")]
    check_cases("chains", chains, lambda c: True)
    # Moving mass between two sites keeps the sum rule; the exact solve must see it.
    steady = chains[0]
    occ = steady.run()
    shifted = occ.copy()
    shifted[0] += 1e-9 * occ[0]
    shifted[-1] -= 1e-9 * occ[0]
    expect(steady.check(shifted, steady.reference()) is not None,
           "chains: sum-preserving shift flagged by the exact solve")
    expect(refs.check_sum_rule(-occ, 1.0) is not None, "chains: negative occupation flagged")

    cross = workloads.crosscheck(nh, 0)
    check_cases("crosscheck", cross,
                lambda c: c.name in ("single_excitation_trace N=2",))

    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        check_cases("sweeps", workloads.sweeps(nh, 0, ROOT, workdir, in_process=True),
                    lambda c: True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n1 = refs.two_mode_occupations(1.0, math.log(2), 0.01, 1.0)[0]
    expect(abs(n1 - 25001 / 62501) < 1e-15, "two-mode closed form at the canonical point")


if __name__ == "__main__":
    test_self_time_arithmetic()
    test_recorder_bindings()
    test_checks()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
