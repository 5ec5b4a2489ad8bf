"""Command-line front end: single solves, parameter sweeps, CSV output.

Subcommands map one-to-one onto the solver layers; every command writes a
CSV with a header row, rows in deterministic grid order and floats at full
double precision, so repeated runs are byte-identical.  ``--output -``
writes to standard output.

Values are resolved in the order: command-line flag, then ``--config`` JSON
file, then built-in default.  The config file is a flat JSON object with
keys ``n_modes, t, A, kappa, n_th, t0, kappa0, cutoff, tol`` plus any
command-specific key named like its flag (dashes become underscores), and an
optional ``bonds`` list of per-bond overrides ``{"index": k, "t": ..,
"A": ..}``.  Any other key is a usage error.

Exit status: 0 on success, 2 on usage errors, 3 on solver errors, 4 when a
cross-layer validation fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dynamics, oracle, spectral, steady
from .errors import CoolingError
from .model import build_hopping_matrix, chain_from_config, make_uniform_chain

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

DEFAULTS = {
    "n_modes": 2,
    "t": 1.0,
    "A": math.log(2.0),
    "kappa": 0.01,
    "n_th": 1.0,
    "t0": 1.0,
    "kappa0": 0.01,
    "cutoff": 5,
    "tol": 1e-8,
}


class ValidationFailure(Exception):
    """Raised when a cross-layer comparison exceeds its tolerance."""


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


class _Resolver:
    """Flag > config file > default, per key."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = {}
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                self.config = json.load(fh)
            if not isinstance(self.config, dict):
                raise ValueError("config file must hold a JSON object")
        allowed = set(DEFAULTS) | {"bonds"} | (set(vars(args)) - {"command", "func"})
        unknown = sorted(set(self.config) - allowed)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    def get(self, key: str, default=None, cast=float):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            return cast(self.config[key])
        if default is not None:
            return cast(default)
        return cast(DEFAULTS[key]) if key in DEFAULTS else None

    def chain(self, n_modes=None):
        n = self.get("n_modes", n_modes, cast=int)
        cfg = {
            "n_modes": n,
            "t": self.get("t"),
            "A": self.get("A"),
            "kappa": self.get("kappa"),
            "n_th": self.get("n_th"),
        }
        if "bonds" in self.config:
            cfg["bonds"] = self.config["bonds"]
        return chain_from_config(cfg)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


# --- subcommands -------------------------------------------------------------


def cmd_rabi(args) -> int:
    res = _Resolver(args)
    spec = res.chain(n_modes=2)
    periods = res.get("periods", 2.0)
    grid = res.get("grid", 400, cast=int)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    site = res.get("start_site", 1, cast=int)  # sites are 1-based here
    if not 1 <= site <= spec.n_modes:
        raise ValueError(f"start_site must be in 1..{spec.n_modes}, got {site}")
    t_ref = spec.reference_coupling
    tau = np.linspace(0.0, periods * math.pi / t_ref, grid)
    traj = dynamics.single_excitation_trace(spec, site - 1, tau)
    header = ["tau"] + [f"n_{i + 1}" for i in range(spec.n_modes)]
    rows = [(tau[k], *traj.occupations[k]) for k in range(len(tau))]
    _write_csv(args.output, header, rows)
    return EXIT_OK


def cmd_sweep_a(args) -> int:
    res = _Resolver(args)
    lo = res.get("ea_min", 1.0)
    hi = res.get("ea_max", 5.0)
    count = res.get("ea_count", 100, cast=int)
    kappa = res.get("kappa")
    n_th = res.get("n_th")
    t = res.get("t")
    rows = []
    for ea in np.linspace(lo, hi, count):
        n1, n2 = steady.closed_form_two_mode(t, math.log(ea), kappa, kappa, n_th)
        rows.append((ea, n1, n2))
    _write_csv(args.output, ["exp_asymmetry", "n_1", "n_2"], rows)
    return EXIT_OK


def cmd_chain_profile(args) -> int:
    res = _Resolver(args)
    sizes = res.get("sizes", None, cast=str)
    sizes = _int_list(sizes) if sizes else [5, 10, 15]
    rows = []
    for n in sizes:
        spec = make_uniform_chain(
            n, res.get("t"), res.get("A"), res.get("kappa"), res.get("n_th"),
        )
        occ = steady.solve_steady_chain(spec).occupations
        hn = spectral.spectral_occupations(
            spectral.diagonalize(build_hopping_matrix(spec)), spec.modes[0].n_th
        )
        rows.extend((n, i + 1, occ[i], hn[i]) for i in range(n))
    _write_csv(args.output, ["N", "site", "n_i", "n_i_spectral"], rows)
    return EXIT_OK


def cmd_scaling(args) -> int:
    res = _Resolver(args)
    n_min = res.get("n_min", 2, cast=int)
    n_max = res.get("n_max", 30, cast=int)
    kappas = res.get("kappas", None, cast=str)
    kappas = _float_list(kappas) if kappas else [1e-4, 1e-3, 1e-2]
    t = res.get("t")
    a = res.get("A")
    n_th = res.get("n_th")
    sizes = list(range(n_min, n_max + 1))
    spectral_edge = {}
    for n in sizes:
        bare = make_uniform_chain(n, t, a, 0.0, n_th)
        decomp = spectral.diagonalize(build_hopping_matrix(bare))
        spectral_edge[n] = spectral.spectral_occupations(decomp, n_th)[0]
    rows = []
    for kappa in kappas:
        plateau = steady.plateau_limit(t, a, kappa, n_th)
        for n in sizes:
            spec = make_uniform_chain(n, t, a, kappa, n_th)
            n1 = steady.solve_steady_chain(spec).occupations[0]
            rows.append((n, kappa, n1, plateau, spectral_edge[n]))
    _write_csv(args.output, ["N", "kappa", "n_1", "plateau", "n_1_spectral"], rows)
    return EXIT_OK


def cmd_attached(args) -> int:
    res = _Resolver(args)
    n = res.get("n_modes", 15, cast=int)
    spec = make_uniform_chain(
        n, res.get("t"), res.get("A"), res.get("kappa"), res.get("n_th"),
    )
    k_lo = res.get("kappa0_min", 1e-4)
    k_hi = res.get("kappa0_max", 1e-1)
    k_count = res.get("kappa0_count", 20, cast=int)
    t_lo = res.get("t0_min", 0.05)
    t_hi = res.get("t0_max", 2.0)
    t_count = res.get("t0_count", 20, cast=int)
    kappa0_grid = np.geomspace(k_lo, k_hi, k_count)
    t0_grid = np.linspace(t_lo, t_hi, t_count)
    rows = []
    for k0 in kappa0_grid:
        for t0 in t0_grid:
            att = steady.AttachedModeSpec(coupling=t0, kappa=k0)
            rows.append((k0, t0, steady.solve_with_attached(spec, att).occupations[0]))
    _write_csv(args.output, ["kappa_0", "t_0", "n_0"], rows)
    return EXIT_OK


def _max_rel_dev(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest ``|values - reference| / |reference|``; 0 against 0 agrees, and
    nonzero against 0 deviates infinitely."""
    diff = np.abs(values - reference)
    scale = np.abs(reference)
    rel = np.where(diff == 0, 0.0, np.inf)
    np.divide(diff, scale, out=rel, where=scale != 0)
    return float(rel.max())


def cmd_oracle(args) -> int:
    res = _Resolver(args)
    spec = res.chain(n_modes=2)
    cutoff = res.get("cutoff", cast=int)
    tol = res.get("tol")
    max_dev = res.get("max_rel_dev", 0.10)
    dyn_dev = res.get("dyn_rel_dev", 1e-3)
    n_rate = steady.solve_steady_chain(spec).occupations
    n_dyn = dynamics.steady_from_dynamics(spec, tol=1e-6).occupations
    n_orc = oracle.oracle_steady(spec, cutoff, tol=tol)
    rows = [
        (i + 1, n_rate[i], n_dyn[i], n_orc[i]) for i in range(spec.n_modes)
    ]
    _write_csv(args.output, ["mode", "n_rate", "n_dynamics", "n_oracle"], rows)
    rate_vs_orc = _max_rel_dev(n_orc, n_rate)
    rate_vs_dyn = _max_rel_dev(n_dyn, n_rate)
    if rate_vs_orc > max_dev:
        raise ValidationFailure(
            f"rate equations deviate from the master equation by "
            f"{rate_vs_orc:.3%} (limit {max_dev:.3%})"
        )
    if rate_vs_dyn > dyn_dev:
        raise ValidationFailure(
            f"moment dynamics deviate from the rate equations by "
            f"{rate_vs_dyn:.3e} (limit {dyn_dev:.3e})"
        )
    return EXIT_OK


def cmd_steady(args) -> int:
    res = _Resolver(args)
    spec = res.chain()
    t0 = res.get("t0", 0.0) if (args.t0 is not None or "t0" in res.config) else None
    if t0 is not None:
        att = steady.AttachedModeSpec(coupling=t0, kappa=res.get("kappa0"))
        occ = steady.solve_with_attached(spec, att).occupations
        rows = [(i, occ[i]) for i in range(len(occ))]  # attached mode is site 0
    else:
        occ = steady.solve_steady_chain(spec).occupations
        rows = [(i + 1, occ[i]) for i in range(len(occ))]
    _write_csv(args.output, ["site", "n"], rows)
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--output", "-o", default="-", help="output CSV path, '-' for stdout")
    p.add_argument("--n-modes", dest="n_modes", type=int)
    p.add_argument("--t", type=float, help="reference coupling")
    p.add_argument("--A", type=float, help="asymmetry exponent")
    p.add_argument("--kappa", type=float)
    p.add_argument("--n-th", dest="n_th", type=float)
    p.add_argument("--tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhcool",
        description="Occupation solvers for dissipative non-reciprocal chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rabi", help="normalized single-excitation oscillation")
    _add_common(p)
    p.add_argument("--grid", type=int, help="number of sample times")
    p.add_argument("--periods", type=float, help="number of oscillation periods")
    p.add_argument("--start-site", dest="start_site", type=int, help="1-based site")
    p.set_defaults(func=cmd_rabi)

    p = sub.add_parser("sweep-A", help="two-mode occupations vs exp(A)")
    _add_common(p)
    p.add_argument("--ea-min", dest="ea_min", type=float)
    p.add_argument("--ea-max", dest="ea_max", type=float)
    p.add_argument("--ea-count", dest="ea_count", type=int)
    p.set_defaults(func=cmd_sweep_a)

    p = sub.add_parser("chain-profile", help="per-site occupations, rate vs spectral")
    _add_common(p)
    p.add_argument("--sizes", help="comma list of chain lengths")
    p.set_defaults(func=cmd_chain_profile)

    p = sub.add_parser("scaling", help="cold-edge occupation vs chain length")
    _add_common(p)
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--kappas", help="comma list of dissipation rates")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("attached", help="attached-mode occupation over a 2-D grid")
    _add_common(p)
    p.add_argument("--kappa0-min", dest="kappa0_min", type=float)
    p.add_argument("--kappa0-max", dest="kappa0_max", type=float)
    p.add_argument("--kappa0-count", dest="kappa0_count", type=int)
    p.add_argument("--t0-min", dest="t0_min", type=float)
    p.add_argument("--t0-max", dest="t0_max", type=float)
    p.add_argument("--t0-count", dest="t0_count", type=int)
    p.set_defaults(func=cmd_attached)

    p = sub.add_parser("oracle", help="cross-validate the three solver layers")
    _add_common(p)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--max-rel-dev", dest="max_rel_dev", type=float,
                   help="allowed rate-vs-master-equation deviation")
    p.add_argument("--dyn-rel-dev", dest="dyn_rel_dev", type=float,
                   help="allowed rate-vs-moment-dynamics deviation")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("steady", help="single stationary solve")
    _add_common(p)
    p.add_argument("--t0", type=float, help="attach an extra mode with this coupling")
    p.add_argument("--kappa0", type=float)
    p.set_defaults(func=cmd_steady)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoolingError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
