"""Compare the bits that two checkouts' library functions return on seeded inputs.

    python tools/lib_bits.py OLD_ROOT NEW_ROOT [--seed 1] [--count 100]

Runs the same seeded inputs, ``--count`` per function, in a fresh ``-B``
interpreter against each checkout's ``src``.  The inputs come from this
file, so both sides see the same calls: random chains of 1 to 11 modes in
the normal range, complex gauge copies of their bonds (product still real
and positive), bonds that the rate and moment layers reject (a complex
product or a negative rate numerator) and modes without a bath, half of
them with every amplitude and kappa multiplied by ``2**j``, ``j`` drawn from
``[-1000, 1000]``.  The closed forms take scalars in one such unit, a
fifth of them spread over the whole double range instead, and the oracle
chains of at most 3 modes at cutoff 2 or 3.  The master-equation trajectory
starts from the thermal state, from a random Hermitian matrix on the
number-diagonal sector or from the vacuum plus one boson, the last two
at cutoff 2 on 3 modes.  Each call is recorded as the ``float.hex`` of every
output, complex parts in turn, or as its error's type and message.  Prints
the identical and different counts per function and the first differing
inputs, and exits 1 on any difference, else 0.  This is the library's
counterpart of ``tools/cli_bytes.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

SHOWN = 5  # differing inputs listed per function


# --- inputs ------------------------------------------------------------------


def _unit(rng: np.random.Generator, largest: float) -> int:
    """``j`` of the unit ``2**j``: 0 half of the time, else drawn from
    ``[-1000, 1000]`` and capped where ``largest * 2**j`` would overflow."""
    if rng.random() < 0.5:
        return 0
    j = int(rng.integers(-1000, 1001))
    return min(j, 1020 - math.frexp(largest)[1]) if largest > 0 else j


def _chain(rng: np.random.Generator, max_modes: int = 11) -> dict:
    """A random chain as plain numbers, and the exponent ``j`` of its unit ``2**j``."""
    n = int(rng.integers(1, max_modes + 1))
    t = 10.0 ** rng.uniform(-2, 2, n - 1)
    a = rng.uniform(-3, 3, n - 1)
    fwd, bwd = (t * np.exp(a)).astype(complex), (t * np.exp(-a)).astype(complex)
    kappa, n_th = 10.0 ** rng.uniform(-4, 0, n), rng.uniform(0, 2, n)
    kind = rng.choice(["normal", "gauge", "rejected", "bathless"], p=[0.4, 0.3, 0.2, 0.1])
    if kind == "gauge":
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi, n - 1))
        fwd, bwd = fwd * phase, bwd * np.conj(phase)
    elif kind == "rejected" and n > 1:
        k = int(rng.integers(n - 1))
        if rng.random() < 0.5:
            fwd[k] *= 1j  # the product is not real
        else:
            fwd[k], bwd[k] = -3 * abs(bwd[k]), abs(bwd[k])  # a negative rate numerator
    elif kind == "bathless":
        kappa[int(rng.integers(n))] = 0.0
    j = _unit(rng, float(np.abs(np.concatenate((fwd, bwd))).max(initial=kappa.max()) * 2))
    return {"fwd": _scaled(fwd, j), "bwd": _scaled(bwd, j), "kappa": np.ldexp(kappa, j).tolist(),
            "n_th": n_th.tolist(), "unit": j}


def _scaled(band: np.ndarray, j: int) -> list:
    return [complex(math.ldexp(z.real, j), math.ldexp(z.imag, j)) for z in band.tolist()]


def _spec(nh, chain: dict):
    modes = tuple(nh.ModeParams(k, n) for k, n in zip(chain["kappa"], chain["n_th"]))
    return nh.ChainSpec(modes=modes, bonds=tuple(map(nh.Bond, chain["fwd"], chain["bwd"])))


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


def _fock_start(nh, n_modes: int, cutoff: int, chain: dict, kind: str, seed: int):
    """The start state of a trajectory: ``thermal``, a random Hermitian
    matrix on the states of equal total boson number, or ``coherent``, the
    vacuum plus one boson in the last mode."""
    if kind == "thermal":
        return nh.thermal_state(_spec(nh, chain), cutoff)
    dim = cutoff**n_modes
    if kind == "coherent":
        psi = np.zeros(dim)
        psi[[0, 1]] = math.sqrt(0.5)
        rho = np.outer(psi, psi).astype(complex)
    else:
        total = np.indices((cutoff,) * n_modes).reshape(n_modes, -1).sum(axis=0)
        rho = _hermitian(np.random.default_rng(seed), dim) * (total[:, None] == total)
    return nh.FockDensityMatrix(rho, cutoff=cutoff, n_modes=n_modes)


def _scalars(rng: np.random.Generator) -> tuple[float, float, float, float, float]:
    """``t, A, kappa_1, kappa_2, n_th`` of a closed form in one unit ``2**j``;
    a fifth of them spread over the whole double range instead."""
    if rng.random() < 0.2:
        t, k1, k2, n_th = 10.0 ** rng.uniform(-300, 300, 4)
        return float(t), float(rng.uniform(-5, 5)), float(k1), float(k2), float(n_th)
    t, (k1, k2) = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-4, 0, 2)
    j = _unit(rng, t * 150)
    return (math.ldexp(t, j), float(rng.uniform(-5, 5)), math.ldexp(k1, j), math.ldexp(k2, j),
            float(10.0 ** rng.uniform(-3, 1)))


def _calls(nh, rng: np.random.Generator) -> dict:
    """One seeded call per function, ``name: (input, thunk)``; the inputs are
    drawn before anything is called."""
    chain, small, oracle_chain = _chain(rng), _chain(rng, 6), _chain(rng, 3)
    chains = [_chain(rng) for _ in range(3)]
    cov, cov0 = _hermitian(rng, len(chain["kappa"])), _hermitian(rng, len(small["kappa"]))
    t_end = float(rng.uniform(0, 50))
    t_eval = np.sort(rng.uniform(0, t_end, 3)).tolist()
    attached = [math.ldexp(rng.uniform(0, 1), chain["unit"]), float(rng.uniform(0, 2)),
                math.ldexp(rng.uniform(-2, 2), chain["unit"])]
    two, (t, a, kappa, _, n_th) = _scalars(rng), _scalars(rng)
    plateau = (t, abs(a), kappa, n_th)
    cutoff, fill = int(rng.integers(2, 4)), float(rng.uniform(0, 2))
    fock_chain = _chain(rng, 3)
    fock_kind = str(rng.choice(["thermal", "hermitian", "coherent"]))
    fock_seed, fock_end = int(rng.integers(2**32)), float(rng.uniform(0, 50))
    fock_modes = len(fock_chain["kappa"])
    fock_cutoff = 2 if fock_kind != "thermal" and fock_modes == 3 else cutoff

    def trajectory():
        start = _fock_start(nh, fock_modes, fock_cutoff, fock_chain, fock_kind, fock_seed)
        return nh.evolve_master_equation(_spec(nh, fock_chain), start, fock_end).rho

    def spectral():
        decomp = nh.diagonalize(nh.build_hopping_matrix(_spec(nh, chain)))
        return decomp.eigenvalues, nh.spectral_occupations(decomp, fill)

    return {
        "solve_steady_chain": (chain, lambda: nh.solve_steady_chain(_spec(nh, chain))),
        "solve_steady_chain[list]": (chains, lambda: nh.solve_steady_chain(
            [_spec(nh, c) for c in chains])),
        "solve_with_attached": ([chain, attached], lambda: nh.solve_with_attached(
            _spec(nh, chain), nh.ModeParams(*attached[:2]), attached[2])),
        "closed_form_two_mode": (two, lambda: nh.closed_form_two_mode(*two)),
        "plateau_limit": (plateau, lambda: nh.plateau_limit(*plateau)),
        "steady_from_dynamics": (chain, lambda: nh.steady_from_dynamics(_spec(nh, chain))),
        "covariance_rhs": ([chain, cov.tolist()], lambda: nh.covariance_rhs(_spec(nh, chain), cov)),
        "evolve_covariance": ([small, cov0.tolist(), t_end, t_eval], lambda: nh.evolve_covariance(
            _spec(nh, small), cov0, t_end, t_eval=t_eval)),
        "diagonalize+spectral_occupations": ([chain, fill], spectral),
        "oracle_steady": ([oracle_chain, cutoff], lambda: nh.oracle_steady(
            _spec(nh, oracle_chain), cutoff)),
        "evolve_master_equation": ([fock_chain, fock_cutoff, fock_kind, fock_seed, fock_end],
                                   trajectory),
    }


# --- recording ---------------------------------------------------------------


def _bits(value) -> list[str]:
    """``float.hex`` of every number in ``value``, complex parts in turn."""
    if hasattr(value, "occupations") and hasattr(value, "residual"):
        return _bits(value.occupations) + _bits(value.residual)
    if hasattr(value, "occupations"):  # a Trajectory
        return _bits(value.times) + _bits(value.occupations) + _bits(value.covariances)
    if isinstance(value, tuple):
        return [bit for part in value for bit in _bits(part)]
    flat = np.asarray(value).ravel()
    if np.iscomplexobj(flat):
        flat = np.stack((flat.real, flat.imag), axis=-1).ravel()
    return [float(x).hex() for x in flat.tolist()]


def record(root: Path, seed: int, count: int) -> dict[str, list[list]]:
    """``[input, result]`` of each call against the checkout ``root``, per function."""
    sys.path.insert(0, str(root / "src"))
    import nhcool as nh

    out: dict[str, list[list]] = {}
    rng = np.random.default_rng(seed)
    warnings.simplefilter("ignore")
    for _ in range(count):
        for name, (given, call) in _calls(nh, rng).items():
            try:
                result = _bits(call())
            except Exception as exc:  # the error is the recorded outcome
                result = f"{type(exc).__name__}: {exc}"
            out.setdefault(name, []).append([repr(given), result])
    return out


def _run(root: Path, seed: int, count: int) -> dict[str, list[list]]:
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--record", str(root), "--seed", str(seed),
         "--count", str(count)],
        capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"recording against {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path, nargs="?")
    parser.add_argument("new_root", type=Path, nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)  # one side, in its own process
    args = parser.parse_args(argv)
    if args.record:
        json.dump(record(args.record.resolve(), args.seed, args.count), sys.stdout)
        return 0
    if args.old_root is None or args.new_root is None:
        parser.error("OLD_ROOT and NEW_ROOT are required")

    old, new = (_run(root.resolve(), args.seed, args.count) for root in (args.old_root, args.new_root))
    differ = False
    for name in old:
        diffs = [(o[0], o[1], n[1]) for o, n in zip(old[name], new[name]) if o != n]
        differ |= bool(diffs)
        print(f"{name:<34} identical {len(old[name]) - len(diffs):>5}  different {len(diffs):>5}")
        for given, was, now in diffs[:SHOWN]:
            print(f"    input {given}\n      old {was}\n      new {now}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
