"""Seeded inputs of the three workloads, as lists of checked cases.

A case is one operation: ``run`` is the call the benchmark times,
``reference`` is computed once outside the timed region, and ``check``
compares one output with it.  The seed jitters each bond's ``t`` and ``A``
(and the CLI's ``--config`` values) around the stated operating point;
``kappa`` and ``n_th`` stay uniform within a chain so the sum rules hold.
The program only ever receives the generated ``ChainSpec`` or argv.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refs

LN2 = math.log(2.0)
JITTER = 0.02  # relative half-width of the uniform jitter on t and A
CLI_TIMEOUT_S = 120


@dataclass
class Case:
    name: str
    layer: str  # layer whose failure count a wrong output feeds
    run: Callable[[], object]
    check: Callable[[object, object], str | None]
    reference: Callable[[], object] = lambda: None


class CommandFailed(Exception):
    """A CLI command exited with a nonzero status."""


def _jittered(rng, value: float, size: int) -> list[float]:
    return [value * (1 + JITTER * u) for u in rng.uniform(-1.0, 1.0, size)]


def jittered_chain(nh, rng, n: int, asym, kappa: float, n_th: float):
    """Chain with per-bond jittered ``t ~ 1`` and ``A ~ asym`` (a scalar or per-bond list)."""
    ts = _jittered(rng, 1.0, n - 1)
    signs = asym if isinstance(asym, list) else [asym] * (n - 1)
    amps = [a * (1 + JITTER * u) for a, u in zip(signs, rng.uniform(-1.0, 1.0, n - 1))]
    bonds = tuple(nh.Bond(t * math.exp(a), t * math.exp(-a)) for t, a in zip(ts, amps))
    return nh.ChainSpec(modes=(nh.ModeParams(kappa, n_th),) * n, bonds=bonds)


def _bond_arrays(spec):
    fwd = [b.t_fwd for b in spec.bonds]
    bwd = [b.t_bwd for b in spec.bonds]
    return fwd, bwd, spec.kappa_vector(), spec.n_th_vector()


def _exact(spec) -> np.ndarray:
    return np.array([float(v) for v in refs.exact_chain_occupations(*_bond_arrays(spec))])


# --- chains ---------------------------------------------------------------------

CHAIN_SIZES = (10, 100, 300, 1000)
EXACT_MAX_N = 100  # largest chain the Fraction reference solves within a run


def chains(nh, seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for n in CHAIN_SIZES:
        specs = [
            (f"N={n} kappa={kappa:g} A={asym:.3g}", jittered_chain(nh, rng, n, asym, kappa, 1.0))
            for kappa in (1e-2, 1e-6) for asym in (LN2, 3.0)
        ]
        alternating = [LN2 if k % 2 == 0 else -LN2 for k in range(n - 1)]
        specs.append((f"N={n} kappa=0.01 A=+-ln2", jittered_chain(nh, rng, n, alternating, 1e-2, 1.0)))
        for label, spec in specs:
            cases.append(_steady_case(nh, label, spec))
            cases.append(_spectral_case(nh, label, spec))
    return cases


def _steady_case(nh, label, spec) -> Case:
    n_th = spec.modes[0].n_th

    def check(occ, exact):
        return refs.check_sum_rule(occ, n_th) or (
            None if exact is None else refs.check_componentwise(occ, exact, 1e-12, "vs exact")
        )

    return Case(
        name=f"steady {label}",
        layer="steady",
        run=lambda: nh.solve_steady_chain(spec).occupations,
        reference=lambda: _exact(spec) if spec.n_modes <= EXACT_MAX_N else None,
        check=check,
    )


def _spectral_case(nh, label, spec) -> Case:
    n_th = spec.modes[0].n_th
    return Case(
        name=f"spectral {label}",
        layer="spectral",
        run=lambda: nh.spectral_occupations(
            nh.diagonalize(nh.build_hopping_matrix(spec)), n_th),
        check=lambda occ, _ref: refs.check_sum_rule(occ, n_th),
    )


# --- crosscheck -------------------------------------------------------------------

# N = 60 is left out: there the eigendecomposition propagation is off by
# about 1.0 (a known defect), and a benchmark workload must not fail.
TRACE_SIZES = (2, 30)
TRACE_GRID = np.linspace(0.0, 2 * math.pi, 1000)


def crosscheck(nh, seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for n in (2, 10):
        spec = jittered_chain(nh, rng, n, LN2, 0.01, 1.0)
        cases.append(Case(
            name=f"steady_from_dynamics N={n}",
            layer="dynamics",
            run=lambda spec=spec: nh.steady_from_dynamics(spec, tol=1e-6).occupations,
            reference=lambda spec=spec: nh.solve_steady_chain(spec).occupations,
            check=lambda occ, ref: refs.check_componentwise(occ, ref, 1e-3, "vs steady"),
        ))
    for n_modes, cutoff in ((2, 5), (3, 3)):
        spec = jittered_chain(nh, rng, n_modes, LN2, 0.05, 0.1)
        cases.append(Case(
            name=f"oracle_steady {n_modes}x{cutoff}",
            layer="oracle",
            run=lambda spec=spec, cutoff=cutoff: nh.oracle_steady(spec, cutoff),
            reference=lambda spec=spec, cutoff=cutoff: refs.liouvillian_occupations(
                nh.build_hopping_matrix(spec).matrix, spec.kappa_vector(),
                spec.n_th_vector(), cutoff),
            check=lambda occ, ref: refs.check_componentwise(occ, ref, 1e-5, "vs Liouvillian"),
        ))
    cases.append(_covariance_case(nh, jittered_chain(nh, rng, 10, LN2, 0.01, 1.0)))
    cases.append(_master_equation_case(nh, jittered_chain(nh, rng, 2, LN2, 0.05, 0.1)))
    for n in TRACE_SIZES:
        spec = jittered_chain(nh, rng, n, LN2, 0.0, 0.0)
        cases.append(Case(
            name=f"single_excitation_trace N={n}",
            layer="dynamics",
            run=lambda spec=spec: nh.single_excitation_trace(spec, 0, TRACE_GRID).occupations,
            reference=lambda spec=spec: refs.normalized_expm_trace(
                nh.build_hopping_matrix(spec).matrix, 0, TRACE_GRID),
            check=lambda occ, ref: refs.check_absolute(occ, ref, 1e-8, "vs expm"),
        ))
    return cases


def _covariance_case(nh, spec) -> Case:
    n = spec.n_modes
    cov0 = np.diag(spec.n_th_vector()).astype(complex)

    def check(traj, gen):
        # Compare at nine of the returned times, always including the last.
        picks = np.unique(np.linspace(0, len(traj.times) - 1, 9).astype(int))
        want = refs.affine_flow(gen, cov0, traj.times[picks])
        got = traj.covariances[picks]
        err = float(np.abs(got - want).max() / np.abs(want).max())
        if not err <= 1e-4:
            return f"vs expm of the affine map: off by {err:.2e} relative (limit 1e-4)"
        return None

    return Case(
        name="evolve_covariance N=10 tau=200",
        layer="dynamics",
        run=lambda: nh.evolve_covariance(spec, cov0, 200.0),
        reference=lambda: refs.affine_generator(lambda c: nh.covariance_rhs(spec, c), n),
        check=check,
    )


def _master_equation_case(nh, spec) -> Case:
    rho0 = nh.thermal_state(spec, 5)

    def check(state, _ref):
        rho = state.rho
        trace_err = abs(np.trace(rho) - 1.0)
        herm_err = float(np.abs(rho - rho.conj().T).max())
        if not (trace_err <= 1e-8 and herm_err <= 1e-8):
            return f"trace error {trace_err:.2e}, Hermiticity error {herm_err:.2e} (limit 1e-8)"
        return None

    return Case(
        name="evolve_master_equation 2x5 tau=100",
        layer="oracle",
        run=lambda: nh.evolve_master_equation(spec, rho0, 100.0),
        check=check,
    )


# --- sweeps ---------------------------------------------------------------------


def _parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().split("\n")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _csv_check(header: list[str], body: Callable[[np.ndarray, object], str | None]):
    def check(text, ref):
        got_header, rows = _parse_csv(text)
        if got_header != header:
            return f"header {got_header} != {header}"
        return body(rows, ref)
    return check


def _first(*results):
    return next((r for r in results if r is not None), None)


def sweeps(nh, seed: int, root: Path, workdir: Path, in_process: bool) -> list[Case]:
    """The seven CLI commands, each as a fresh process or (traced) through ``cli.main``."""
    rng = np.random.default_rng(seed)
    t, a = _jittered(rng, 1.0, 1)[0], _jittered(rng, LN2, 1)[0]
    kappa, n_th = 0.01, 1.0
    base = {"t": t, "A": a, "kappa": kappa, "n_th": n_th}
    bond_t, bond_a = _jittered(rng, 1.0, 9), _jittered(rng, LN2, 9)
    per_bond = dict(base, bonds=[
        {"index": k, "t": bond_t[k], "A": bond_a[k]} for k in range(9)])
    workdir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for name, cfg in (("uniform", base), ("bonds", per_bond)):
        configs[name] = workdir / f"config-{name}.json"
        configs[name].write_text(json.dumps(cfg))

    def chain10(extra_modes=(), extra_bonds=()):
        bonds = tuple(nh.Bond(bt * math.exp(ba), bt * math.exp(-ba))
                      for bt, ba in zip(bond_t, bond_a))
        return nh.ChainSpec(modes=tuple(extra_modes) + (nh.ModeParams(kappa, n_th),) * 10,
                            bonds=tuple(extra_bonds) + bonds)

    plain = chain10()
    with_attached = chain10((nh.ModeParams(kappa, n_th),), (nh.Bond(1.0, 1.0),))

    def steady_body(spec, first_site):
        def body(rows, exact):
            return _first(
                refs.check_absolute(rows[:, 0], np.arange(spec.n_modes) + first_site, 0, "sites"),
                refs.check_sum_rule(rows[:, 1], n_th),
                refs.check_componentwise(rows[:, 1], exact, 1e-12, "vs exact"))
        return body

    commands = [
        ("steady", ["steady", "--n-modes", "10"], "bonds",
         lambda: _exact(plain), _csv_check(["site", "n"], steady_body(plain, 1))),
        ("steady-attached", ["steady", "--n-modes", "10", "--t0", "1", "--kappa0", "0.01"], "bonds",
         lambda: _exact(with_attached), _csv_check(["site", "n"], steady_body(with_attached, 0))),
        ("attached", ["attached", "--kappa0-count", "40", "--t0-count", "40"], "uniform",
         *_attached_check(t, a, kappa, n_th, rng)),
        ("scaling", ["scaling", "--n-max", "100"], "uniform",
         *_scaling_check(t, a, n_th)),
        ("chain-profile", ["chain-profile", "--sizes", "5,10,15,50,100"], "uniform",
         *_profile_check(t, a, kappa, n_th)),
        ("sweep-A", ["sweep-A", "--ea-count", "1000"], "uniform",
         *_sweep_a_check(t, kappa, n_th)),
        ("rabi", ["rabi", "--grid", "1000"], "uniform",
         *_rabi_check(t, a)),
    ]
    cases = []
    for name, argv, config, reference, check in commands:
        out = workdir / f"{name}.csv"
        argv = argv + ["--config", str(configs[config]), "-o", str(out)]
        run = _in_process(nh, argv, out) if in_process else _subprocess(root, argv, out)
        cases.append(Case(name=f"cli {name}", layer="cli", run=run,
                          reference=reference, check=check))
    return cases


def _subprocess(root: Path, argv: list[str], out: Path):
    # The BLAS thread pins set by run.py are inherited through os.environ.
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run():
        proc = subprocess.run([sys.executable, "-m", "nhcool.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise CommandFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return out.read_text()
    return run


def _in_process(nh, argv: list[str], out: Path):
    def run():
        code = nh.cli.main(argv)
        if code != 0:
            raise CommandFailed(f"exit {code}")
        return out.read_text()
    return run


def _attached_check(t, a, kappa, n_th, rng):
    k_grid = np.geomspace(1e-4, 1e-1, 40)
    t_grid = np.linspace(0.05, 2.0, 40)
    sample = sorted(rng.choice(1600, size=64, replace=False).tolist())

    def reference():
        exact = []
        for idx in sample:
            k0, t0 = k_grid[idx // 40], t_grid[idx % 40]
            fwd = [t0] + [t * math.exp(a)] * 14
            bwd = [t0] + [t * math.exp(-a)] * 14
            kap = [k0] + [kappa] * 15
            exact.append(float(refs.exact_chain_occupations(fwd, bwd, kap, [n_th] * 16)[0]))
        return np.array(exact)

    def body(rows, exact):
        if rows.shape != (1600, 3):
            return f"grid shape {rows.shape} != (1600, 3)"
        return _first(
            refs.check_componentwise(rows[:, 0], np.repeat(k_grid, 40), 1e-15, "kappa_0 grid"),
            refs.check_componentwise(rows[:, 1], np.tile(t_grid, 40), 1e-15, "t_0 grid"),
            None if np.all((rows[:, 2] >= 0) & (rows[:, 2] <= 16 * n_th))
            else "n_0 outside [0, 16 n_th]",
            refs.check_componentwise(rows[sample, 2], exact, 1e-12, "sampled n_0 vs exact"))

    return reference, _csv_check(["kappa_0", "t_0", "n_0"], body)


SCALING_EXACT_N = (2, 3, 10, 30, 100)


def _scaling_check(t, a, n_th):
    kappas = (1e-4, 1e-3, 1e-2)
    sizes = np.arange(2, 101)

    def reference():
        exact = {}
        for kappa in kappas:
            for n in SCALING_EXACT_N:
                occ = refs.exact_chain_occupations(
                    [t * math.exp(a)] * (n - 1), [t * math.exp(-a)] * (n - 1),
                    [kappa] * n, [n_th] * n)
                exact[(kappa, n)] = float(occ[0])
        edge = np.array([refs.uniform_spectral_edge(int(n), a, n_th) for n in sizes])
        return exact, edge

    def body(rows, ref):
        exact, edge = ref
        if rows.shape != (len(kappas) * len(sizes), 5):
            return f"table shape {rows.shape}"
        kappa_col = np.repeat(kappas, len(sizes))
        plat = np.array([refs.plateau(t, a, k, n_th) for k in kappa_col])
        picks = [i for i, n in enumerate(np.tile(sizes, 3)) if n in SCALING_EXACT_N]
        want = [exact[(kappa_col[i], int(rows[i, 0]))] for i in picks]
        return _first(
            refs.check_absolute(rows[:, 0], np.tile(sizes, 3), 0, "N column"),
            refs.check_componentwise(rows[:, 1], kappa_col, 1e-15, "kappa column"),
            refs.check_componentwise(rows[:, 3], plat, 1e-12, "plateau vs closed form"),
            None if np.all(rows[:, 2] > rows[:, 3]) else "n_1 below the plateau lower bound",
            refs.check_componentwise(rows[picks, 2], want, 1e-12, "n_1 vs exact"),
            refs.check_componentwise(rows[:, 4], np.tile(edge, 3), 1e-8, "n_1_spectral vs closed form"))

    return reference, _csv_check(["N", "kappa", "n_1", "plateau", "n_1_spectral"], body)


PROFILE_SIZES = (5, 10, 15, 50, 100)


def _profile_check(t, a, kappa, n_th):
    def reference():
        return {n: np.array([float(v) for v in refs.exact_chain_occupations(
            [t * math.exp(a)] * (n - 1), [t * math.exp(-a)] * (n - 1), [kappa] * n, [n_th] * n)])
            for n in PROFILE_SIZES}

    def body(rows, exact):
        if rows.shape != (sum(PROFILE_SIZES), 4):
            return f"table shape {rows.shape}"
        problems = []
        start = 0
        for n in PROFILE_SIZES:
            block = rows[start:start + n]
            start += n
            problems += [
                refs.check_absolute(block[:, 0], np.full(n, n), 0, "N column"),
                refs.check_absolute(block[:, 1], np.arange(1, n + 1), 0, "site column"),
                refs.check_sum_rule(block[:, 2], n_th),
                refs.check_sum_rule(block[:, 3], n_th),
                refs.check_componentwise(block[:, 2], exact[n], 1e-12, f"N={n} vs exact"),
            ]
        return _first(*problems)

    return reference, _csv_check(["N", "site", "n_i", "n_i_spectral"], body)


def _sweep_a_check(t, kappa, n_th):
    grid = np.linspace(1.0, 5.0, 1000)

    def reference():
        return np.array([refs.two_mode_occupations(t, math.log(ea), kappa, n_th) for ea in grid])

    def body(rows, want):
        return _first(
            refs.check_componentwise(rows[:, 0], grid, 1e-15, "exp_asymmetry grid"),
            refs.check_componentwise(rows[:, 1:], want, 1e-12, "vs two-mode closed form"))

    return reference, _csv_check(["exp_asymmetry", "n_1", "n_2"], body)


def _rabi_check(t, a):
    tau = np.linspace(0.0, 2 * math.pi / t, 1000)

    def body(rows, want):
        return _first(
            refs.check_absolute(rows[:, 0], tau, 1e-12, "tau grid"),
            refs.check_absolute(rows[:, 1], want, 1e-10, "n_1 vs closed form"),
            refs.check_absolute(rows[:, 1] + rows[:, 2], np.ones(len(tau)), 1e-12,
                                "n_1 + n_2"))

    return lambda: refs.rabi_first_site(t, a, tau), _csv_check(["tau", "n_1", "n_2"], body)
