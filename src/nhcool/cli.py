"""Command-line front end: single solves, parameter sweeps, CSV output.

Subcommands map one-to-one onto the solver layers.  Every command hands
``_write_csv`` its columns, one mapping from header to column: grid axes
through ``np.repeat``/``np.tile``, stacked results raveled, site and mode
labels as ranges.  The header row follows the mapping's order, the rows
follow the grid's C order, integer columns print as integers and float
columns at 17 significant digits, so repeated runs are byte-identical.
``--output -`` writes to standard output.

Each subcommand declares exactly the flags it reads, with their defaults.
The values of a ``--config`` JSON object become the command's defaults
before a second parse, so argparse applies flag > config > default and
converts a config value with its flag's type.  Every command accepts the
shared keys ``n_modes, t, A, kappa, n_th, t0, kappa0, cutoff, tol`` (those
it has no flag for are ignored), its own flags spelled with underscores
(``kappa0_count``) and a ``bonds`` list of per-bond overrides ``{"index": k,
"t": .., "A": ..}``, applied by every command that builds a chain.  Any
other key is a usage error.

Exit status: 0 on success, 2 on usage errors, 3 on solver and i/o errors,
4 when a cross-layer validation fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dynamics, oracle, spectral, steady
from .errors import CoolingError
from .model import ChainSpec, ModeParams, build_hopping_matrix, chain_from_config

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

# The uniform-chain flags: key -> (type, default, help).
CHAIN_FLAGS = {
    "n_modes": (int, 2, "number of chain modes"),
    "t": (float, 1.0, "reference coupling"),
    "A": (float, math.log(2.0), "asymmetry exponent"),
    "kappa": (float, 0.01, "dissipation rate of every mode"),
    "n_th": (float, 1.0, "bath occupation of every mode"),
}
# Keys any command's config file may hold, whether or not the command reads them.
SHARED_CONFIG_KEYS = frozenset({*CHAIN_FLAGS, "t0", "kappa0", "cutoff", "tol", "bonds"})


class ValidationFailure(Exception):
    """Raised when a cross-layer comparison exceeds its tolerance."""


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, columns: dict) -> None:
    """Write ``columns``, a mapping from header to column, as one CSV.

    The header row lists the keys in the mapping's order.  Each column (an
    array, list or range; all of one length) is converted once to Python
    values with ``tolist()``, and ``_fmt`` prints an integer as an integer
    and a float at 17 significant digits.  An empty grid is a usage error.
    """
    rows = list(zip(*(np.asarray(column).tolist() for column in columns.values()), strict=True))
    if not rows:
        raise ValueError("the requested grid is empty")
    text = "\n".join([",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _chain(args: argparse.Namespace, **overrides) -> ChainSpec:
    """The chain of the command's flags and config ``bonds``, with ``overrides``."""
    config = {key: getattr(args, key) for key in CHAIN_FLAGS if hasattr(args, key)}
    return chain_from_config({**config, "bonds": args.bonds, **overrides})


def _spectral_occupations(spec: ChainSpec) -> np.ndarray:
    """The spectral-gauge occupations of ``spec`` at its first mode's bath."""
    decomp = spectral.diagonalize(build_hopping_matrix(spec))
    return spectral.spectral_occupations(decomp, spec.modes[0].n_th)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


# --- subcommands -------------------------------------------------------------


def cmd_rabi(args) -> int:
    spec = _chain(args)
    if args.grid < 1:
        raise ValueError("grid must be >= 1")
    if not 1 <= args.start_site <= spec.n_modes:  # sites are 1-based here
        raise ValueError(f"start_site must be in 1..{spec.n_modes}, got {args.start_site}")
    if not args.periods >= 0:  # also rejects nan
        raise ValueError(f"--periods must be >= 0, got {args.periods}")
    if args.periods == 0 and args.grid > 1:
        raise ValueError(f"--periods 0 gives one time, not --grid {args.grid}; use --grid 1")
    t_end = args.periods * math.pi / args.t  # the chain has checked --t
    if not math.isfinite(t_end):  # numpy would warn before the trace rejects it
        raise ValueError(f"--periods * pi / --t must be finite, got {t_end}")
    tau = np.linspace(0.0, t_end, args.grid)
    occ = dynamics.single_excitation_trace(spec, args.start_site - 1, tau).occupations
    _write_csv(args.output, {"tau": tau, **{f"n_{i}": n for i, n in enumerate(occ.T, 1)}})
    return EXIT_OK


def cmd_sweep_a(args) -> int:
    for flag, ea in (("--ea-min", args.ea_min), ("--ea-max", args.ea_max)):
        if not 0 < ea < math.inf:  # exp(A) of a real A; also rejects nan
            raise ValueError(f"{flag} is exp(A) and must be positive and finite, got {ea}")
    grid = np.linspace(args.ea_min, args.ea_max, args.ea_count)
    n1, n2 = steady.closed_form_two_mode(
        args.t, [math.log(ea) for ea in grid], args.kappa, args.kappa, args.n_th)
    _write_csv(args.output, {"exp_asymmetry": grid, "n_1": n1, "n_2": n2})
    return EXIT_OK


def cmd_chain_profile(args) -> int:
    occ, spectral_occ = [], []
    for n in args.sizes:
        spec = _chain(args, n_modes=n)
        occ += steady.solve_steady_chain(spec).occupations.tolist()
        spectral_occ += _spectral_occupations(spec).tolist()
    sites = [site for n in args.sizes for site in range(1, n + 1)]
    _write_csv(args.output, {"N": np.repeat(args.sizes, args.sizes), "site": sites,
                             "n_i": occ, "n_i_spectral": spectral_occ})
    return EXIT_OK


def cmd_scaling(args) -> int:
    sizes = range(args.n_min, args.n_max + 1)
    spectral_edge = [_spectral_occupations(_chain(args, n_modes=n, kappa=0.0))[0] for n in sizes]
    plateaus = []
    try:
        for kappa in args.kappas:
            plateaus.append(steady.plateau_limit(args.t, args.A, kappa, args.n_th))
    finally:
        # The chains of every kappa before a failing plateau come first in the
        # grid, so an error of theirs is raised in place of the plateau's.
        chains = [_chain(args, n_modes=n, kappa=kappa)
                  for kappa in args.kappas[:len(plateaus)] for n in sizes]
        edge = steady.solve_steady_chain(chains).occupations[:, 0]
    _write_csv(args.output, {
        "N": np.tile(sizes, len(plateaus)), "kappa": np.repeat(args.kappas, len(sizes)),
        "n_1": edge, "plateau": np.repeat(plateaus, len(sizes)),
        "n_1_spectral": np.tile(spectral_edge, len(plateaus))})
    return EXIT_OK


def cmd_attached(args) -> int:
    spec = _chain(args)
    for flag, value in (("--kappa0-min", args.kappa0_min), ("--kappa0-max", args.kappa0_max)):
        if not 0 < value < math.inf:  # also rejects nan
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    for flag, value in (("--t0-min", args.t0_min), ("--t0-max", args.t0_max),
                        ("--t0-max - --t0-min", args.t0_max - args.t0_min)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    kappa0_grid = np.geomspace(args.kappa0_min, args.kappa0_max, args.kappa0_count)
    t0_grid = np.linspace(args.t0_min, args.t0_max, args.t0_count)
    modes = np.array([ModeParams(k0, spec.modes[0].n_th) for k0 in kappa0_grid], dtype=object)
    n0 = steady.solve_with_attached(spec, modes[:, None], t0_grid).occupations[..., 0]
    _write_csv(args.output, {"kappa_0": np.repeat(kappa0_grid, len(t0_grid)),
                             "t_0": np.tile(t0_grid, len(kappa0_grid)), "n_0": n0.ravel()})
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
    for flag, limit in (("--max-rel-dev", args.max_rel_dev), ("--dyn-rel-dev", args.dyn_rel_dev)):
        if not limit >= 0:  # also rejects nan; inf turns the check off
            raise ValueError(f"{flag} must be >= 0, got {limit}")
    spec = _chain(args)
    n_rate = steady.solve_steady_chain(spec).occupations
    n_dyn = dynamics.steady_from_dynamics(spec, tol=1e-6).occupations
    n_orc = oracle.oracle_steady(spec, args.cutoff, tol=args.tol)
    _write_csv(args.output, {"mode": range(1, spec.n_modes + 1), "n_rate": n_rate,
                             "n_dynamics": n_dyn, "n_oracle": n_orc})
    rate_vs_orc = _max_rel_dev(n_orc, n_rate)
    rate_vs_dyn = _max_rel_dev(n_dyn, n_rate)
    if rate_vs_orc > args.max_rel_dev:
        raise ValidationFailure(
            f"rate equations deviate from the master equation by "
            f"{rate_vs_orc:.3%} (limit {args.max_rel_dev:.3%})"
        )
    if rate_vs_dyn > args.dyn_rel_dev:
        raise ValidationFailure(
            f"moment dynamics deviate from the rate equations by "
            f"{rate_vs_dyn:.3e} (limit {args.dyn_rel_dev:.3e})"
        )
    return EXIT_OK


def cmd_steady(args) -> int:
    spec = _chain(args)
    if args.t0 is not None:
        mode = ModeParams(args.kappa0, spec.modes[0].n_th)
        n = steady.solve_with_attached(spec, mode, args.t0).occupations
    else:
        n = steady.solve_steady_chain(spec).occupations
    # the chain's sites are 1..N, after the attached mode's site 0
    _write_csv(args.output, {"site": range(spec.n_modes + 1 - len(n), spec.n_modes + 1), "n": n})
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _command(sub, name: str, func, text: str) -> argparse.ArgumentParser:
    # no prefix matching: a removed or misspelt flag must not bind to a longer one
    p = sub.add_parser(name, help=text, allow_abbrev=False)
    p.add_argument("--config", help="JSON file whose values replace the defaults")
    p.add_argument("--output", "-o", default="-", help="output CSV path, '-' for stdout")
    p.set_defaults(func=func, subparser=p, bonds=None)
    return p


def _add_chain_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        kind, default, text = CHAIN_FLAGS[key]
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhcool",
        description="Occupation solvers for dissipative non-reciprocal chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "rabi", cmd_rabi, "normalized single-excitation oscillation")
    _add_chain_flags(p, "n_modes", "t", "A")
    p.add_argument("--grid", type=int, default=400, help="number of sample times")
    p.add_argument("--periods", type=float, default=2.0, help="number of oscillation periods")
    p.add_argument("--start-site", type=int, default=1, help="1-based site")

    p = _command(sub, "sweep-A", cmd_sweep_a, "two-mode occupations vs exp(A)")
    _add_chain_flags(p, "t", "kappa", "n_th")
    p.add_argument("--ea-min", type=float, default=1.0)
    p.add_argument("--ea-max", type=float, default=5.0)
    p.add_argument("--ea-count", type=int, default=100)

    p = _command(sub, "chain-profile", cmd_chain_profile, "per-site rate and spectral occupations")
    _add_chain_flags(p, "t", "A", "kappa", "n_th")
    p.add_argument("--sizes", type=_int_list, default="5,10,15", help="comma list of lengths")

    p = _command(sub, "scaling", cmd_scaling, "cold-edge occupation vs chain length")
    _add_chain_flags(p, "t", "A", "n_th")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--kappas", type=_float_list, default="1e-4,1e-3,1e-2", help="comma list")

    p = _command(sub, "attached", cmd_attached, "attached-mode occupation over a 2-D grid")
    _add_chain_flags(p, "n_modes", "t", "A", "kappa", "n_th")
    p.set_defaults(n_modes=15)
    p.add_argument("--kappa0-min", type=float, default=1e-4)
    p.add_argument("--kappa0-max", type=float, default=1e-1)
    p.add_argument("--kappa0-count", type=int, default=20)
    p.add_argument("--t0-min", type=float, default=0.05)
    p.add_argument("--t0-max", type=float, default=2.0)
    p.add_argument("--t0-count", type=int, default=20)

    p = _command(sub, "oracle", cmd_oracle, "cross-validate the three solver layers")
    _add_chain_flags(p, "n_modes", "t", "A", "kappa", "n_th")
    p.add_argument("--cutoff", type=int, default=5, help="Fock levels per mode")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="master-equation residual limit, in units of max(kappa) max(n_th)")
    p.add_argument("--max-rel-dev", type=float, default=0.10, help="rate vs master-equation limit")
    p.add_argument("--dyn-rel-dev", type=float, default=1e-3, help="rate vs moment-dynamics limit")

    p = _command(sub, "steady", cmd_steady, "single stationary solve")
    _add_chain_flags(p, "n_modes", "t", "A", "kappa", "n_th")
    p.add_argument("--t0", type=float, help="attach an extra mode with this coupling")
    p.add_argument("--kappa0", type=float, default=0.01, help="kappa of the attached mode")

    return parser


def _use_config(args: argparse.Namespace) -> None:
    """Make the ``--config`` file's values the defaults of the command's parser."""
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    flags = set(vars(args)) - {"command", "func", "subparser", "config", "output", "bonds"}
    unknown = sorted(set(config) - flags - SHARED_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    # argparse converts a string default with the flag's type; str() of a float is exact
    defaults = {key: str(value) for key, value in config.items() if key in flags}
    args.subparser.set_defaults(bonds=config.get("bonds"), **defaults)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _use_config(args)
            args = parser.parse_args(argv)
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
