"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Two sub-checks are expected to fail and are left failing on purpose; both
compare the exact solvers against closed-form approximations that the exact
equations contradict:

* criterion 5 pins the long-chain floor to the hard-wall closed form
  ``plateau_limit``, but the balance equations settle a factor
  (e^{2A}+1)/(e^{2A}-e^{-2A}) = 4/3 higher at exp(A) = 2;
* criterion 9 demands the trace-corrected master equation land within 10% of
  the rate equations, but that equation re-weights the ensemble towards
  amplified sectors and settles roughly twice as high at these parameters,
  however small n_th is.

The README's "Install and test" section gives the full analysis of both.
"""

import math
import time
import warnings

import numpy as np
from scipy.optimize import brentq

import nhcool as nh

LN2 = math.log(2.0)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number:02d} ({name}): {status}{tail}")


def best_time(func, repeats):
    func()  # warm caches
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_two_mode_cooling():
    spec = nh.make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
    n1 = nh.solve_steady_chain(spec).occupations[0]
    runtime = best_time(lambda: nh.solve_steady_chain(spec), 50)
    ok = abs(n1 - 0.4000) <= 0.001 and runtime < 1e-3
    report(1, "two-mode cooling", ok,
           f"n_1 = {n1:.6f}, solve time {runtime * 1e6:.0f} us")
    assert abs(n1 - 0.4000) <= 0.001
    assert runtime < 1e-3


def test_criterion_02_hermitian_null():
    worst = 0.0
    for n in range(1, 21):
        occ = nh.solve_steady_chain(nh.make_uniform_chain(n, 1.0, 0.0, 0.01, 1.0)).occupations
        worst = max(worst, float(np.abs(occ - 1.0).max()))
    ok = worst <= 1e-12
    report(2, "Hermitian null test", ok, f"worst |n_i/n_th - 1| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_03_conservation():
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        rates = nh.RateMatrix(rng.uniform(0.0, 10.0, n - 1), rng.uniform(0.0, 10.0, n - 1))
        n_th = float(rng.uniform(0.1, 2.0))
        kappa = float(rng.uniform(1e-4, 0.5))
        total = nh.solve_steady_rates(
            rates, np.full(n, kappa), np.full(n, n_th)
        ).occupations.sum()
        worst = max(worst, abs(total / (n * n_th) - 1.0))
    for n in range(2, 13):
        for kappa in (1e-6, 0.01):
            total = nh.solve_steady_chain(
                nh.make_uniform_chain(n, 1.0, LN2, kappa, 1.0)
            ).occupations.sum()
            worst = max(worst, abs(total / n - 1.0))
    ok = worst <= 1e-10
    report(3, "conservation law", ok, f"worst relative defect = {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_04_exponential_regime():
    spec = nh.make_uniform_chain(10, 1.0, LN2, 0.01, 1.0)
    occ = nh.solve_steady_chain(spec).occupations
    floor = nh.plateau_limit(1.0, LN2, 0.01, 1.0)
    # the geometric regime holds away from the plateau crossover
    clear = occ >= 100.0 * floor
    ratios = [
        occ[i] / occ[i + 1]
        for i in range(9)
        if clear[i] and clear[i + 1]
    ]
    runtime = best_time(lambda: nh.solve_steady_chain(spec), 20)
    in_band = all(0.24 <= r <= 0.26 for r in ratios)
    ok = in_band and len(ratios) >= 4 and runtime < 10e-3
    report(4, "exponential regime", ok,
           f"{len(ratios)} interior ratios in [{min(ratios):.4f}, {max(ratios):.4f}], "
           f"solve time {runtime * 1e3:.2f} ms")
    assert len(ratios) >= 4
    assert in_band
    assert runtime < 10e-3


def test_criterion_05_plateau():
    n1 = {
        n: nh.solve_steady_chain(nh.make_uniform_chain(n, 1.0, LN2, 0.01, 1.0)).occupations[0]
        for n in range(2, 31)
    }
    values = [n1[n] for n in range(2, 31)]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))
    formula = nh.plateau_limit(1.0, LN2, 0.01, 1.0)
    rel = abs(n1[30] - formula) / formula
    ok = monotone and rel <= 0.05
    report(5, "plateau", ok,
           f"n_1(30) = {n1[30]:.4e} vs closed form {formula:.4e} "
           f"(rel dev {rel:.3f}); monotone: {monotone}")
    assert monotone
    # Expected failure: the hard-wall closed form undershoots the exact
    # balance-equation floor by (e^{2A}+1)/(e^{2A}-e^{-2A}) = 4/3 at exp(A)=2,
    # so the exact n_1(30) sits 33% above it.  Left failing on purpose.
    assert rel <= 0.05, (
        f"n_1(30) = {n1[30]:.6e} is {rel:.1%} above the closed-form floor "
        f"{formula:.6e}; the exact limit is (e^2A+1)/(e^2A-e^-2A) = 4/3 of it"
    )


def test_criterion_06_spectral_rate_consistency():
    devs = {}
    for n in range(2, 9):
        bare = nh.make_uniform_chain(n, 1.0, LN2, 0.0, 1.0)
        n_spec = nh.spectral_occupations(
            nh.diagonalize(nh.build_hopping_matrix(bare)), 1.0
        )[0]
        n_rate = nh.solve_steady_chain(
            nh.make_uniform_chain(n, 1.0, LN2, 1e-6, 1.0)
        ).occupations[0]
        devs[n] = abs(n_spec - n_rate) / n_rate
    ok = max(devs.values()) <= 0.15 and devs[2] <= 1e-6
    report(6, "spectral-rate consistency", ok,
           f"max rel dev {max(devs.values()):.4f} (N={max(devs, key=devs.get)}), "
           f"N=2 dev {devs[2]:.2e}")
    assert max(devs.values()) <= 0.15
    assert devs[2] <= 1e-6


def test_criterion_07_rabi_oscillation():
    spec = nh.make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
    tau = np.linspace(0.0, 2.0 * math.pi, 1001)
    traj = nh.single_excitation_trace(spec, 0, tau)
    closed = np.cos(tau) ** 2 / (np.cos(tau) ** 2 + 4.0 * np.sin(tau) ** 2)
    worst = float(np.abs(traj.occupations[:, 0] - closed).max())

    def imbalance(t):
        occ = nh.single_excitation_trace(spec, 0, np.array([t])).occupations[0]
        return occ[0] - occ[1]

    crossing = brentq(imbalance, 0.1, 0.6, xtol=1e-13)
    fraction = 2.0 * crossing / math.pi
    target = 2.0 * math.atan(0.5) / math.pi
    ok = worst <= 1e-8 and abs(fraction - target) <= 1e-6
    report(7, "Rabi oscillation", ok,
           f"closed-form dev {worst:.2e}, crossing fraction {fraction:.7f}")
    assert worst <= 1e-8
    assert abs(fraction - target) <= 1e-6


def test_criterion_08_attached_mode():
    spec = nh.make_uniform_chain(15, 1.0, LN2, 0.01, 1.0)
    kappa0_grid = np.geomspace(1e-4, 1e-1, 20)
    t0_grid = np.linspace(0.05, 2.0, 20)

    def run_grid():
        worst = 0.0
        cooled = True
        for k0 in kappa0_grid:
            for t0 in t0_grid:
                mode = nh.ModeParams(float(k0), 1.0)
                occ = nh.solve_with_attached(spec, mode, float(t0)).occupations
                est = nh.attached_mode_estimate(mode, float(t0), 0.01, occ[1])
                worst = max(worst, abs(est - occ[0]) / occ[0])
                cooled = cooled and occ[0] < 1.0
        return worst, cooled

    start = time.perf_counter()
    worst, cooled = run_grid()
    runtime = time.perf_counter() - start
    ok = worst <= 0.02 and cooled and runtime < 1.0
    report(8, "attached mode", ok,
           f"worst closed-form dev {worst:.2e}, all cooled: {cooled}, "
           f"grid time {runtime:.2f} s")
    assert worst <= 0.02
    assert cooled
    assert runtime < 1.0


def test_criterion_09_oracle_agreement():
    start = time.perf_counter()
    devs = {}
    for n_th in (0.2, 0.1, 0.05):
        spec = nh.make_uniform_chain(2, 1.0, LN2, 0.05, n_th)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", nh.TruncationWarning)
            occ = nh.oracle_steady(spec, 5, tol=1e-7)
        n1, n2 = nh.closed_form_two_mode(1.0, LN2, 0.05, 0.05, n_th)
        devs[n_th] = max(abs(occ[0] - n1) / n1, abs(occ[1] - n2) / n2)
    spec = nh.make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", nh.TruncationWarning)
        state = nh.evolve_master_equation(spec, nh.thermal_state(spec, 5), 200.0)
    runtime = time.perf_counter() - start
    trace_err = state.trace_error()
    herm_err = state.hermiticity_error()
    monotone = devs[0.2] > devs[0.1] > devs[0.05]
    ok = (devs[0.1] <= 0.10 and trace_err <= 1e-8 and herm_err <= 1e-8
          and monotone and runtime < 60.0)
    report(9, "oracle agreement", ok,
           f"rel devs {{0.2: {devs[0.2]:.3f}, 0.1: {devs[0.1]:.3f}, "
           f"0.05: {devs[0.05]:.3f}}}, trace err {trace_err:.1e}, "
           f"herm err {herm_err:.1e}, time {runtime:.1f} s")
    assert trace_err <= 1e-8
    assert herm_err <= 1e-8
    assert monotone
    assert runtime < 60.0
    # Expected failure: the trace-corrected master equation re-weights the
    # ensemble towards amplified sectors (d<N>/dt = -2 Cov(N, Gamma) with
    # Gamma the anti-Hermitian part), settling well above the conserving rate
    # equations at exp(A) = 2 however small n_th is: the README's measured
    # oracle/rate ratio table gives 1.56-1.60 at 2 modes and 2.7-3.5 at
    # 3 modes.  Left failing on purpose.
    assert devs[0.1] <= 0.10, (
        f"master-equation occupations deviate from the rate equations by "
        f"{devs[0.1]:.1%} at n_th = 0.1 (the gap persists as n_th -> 0)"
    )


def test_criterion_10_spectral_correctness():
    worst_eig = 0.0
    worst_resid = 0.0
    worst_sum = 0.0
    for n in range(2, 13):
        spec = nh.make_uniform_chain(n, 1.0, LN2, 0.0, 1.0)
        hop = nh.build_hopping_matrix(spec)
        dec = nh.diagonalize(hop)
        alpha = np.arange(1, n + 1)
        closed = np.sort(2.0 * np.cos(alpha * np.pi / (n + 1)))
        worst_eig = max(worst_eig, float(np.abs(np.sort(dec.eigenvalues) - closed).max()))
        assert np.isrealobj(dec.eigenvalues)  # exactly real by construction
        hnorm = np.linalg.norm(hop.matrix, 2)
        for k in range(n):
            psi = dec.right_eigenvectors[:, k]
            resid = np.linalg.norm(hop.matrix @ psi - dec.eigenvalues[k] * psi)
            worst_resid = max(worst_resid, float(resid / hnorm))
        occ = nh.spectral_occupations(dec, 1.0)
        worst_sum = max(worst_sum, abs(occ.sum() / n - 1.0))
    ok = worst_eig <= 1e-10 and worst_resid <= 1e-10 and worst_sum <= 1e-12
    report(10, "spectral correctness", ok,
           f"eig dev {worst_eig:.2e}, residual {worst_resid:.2e}, "
           f"sum-rule defect {worst_sum:.2e}")
    assert worst_eig <= 1e-10
    assert worst_resid <= 1e-10
    assert worst_sum <= 1e-12
