"""Chain descriptions and the derived single-particle and transition-rate matrices.

The central object is a :class:`ChainSpec`: an open chain of bosonic modes,
each damped by its own thermal bath, with nearest-neighbour hopping that may
be non-reciprocal.  Bond ``k`` carries amplitude ``t_fwd`` for hops from site
``k`` to site ``k + 1`` and ``t_bwd`` for the reverse direction; the canonical
non-reciprocal parameterization is ``t_fwd = t * exp(A)`` and
``t_bwd = t * exp(-A)`` with real asymmetry ``A``.

Conventions used throughout the package:

* the hopping matrix ``h`` has ``h[k + 1, k] = t_fwd`` and ``h[k, k + 1] =
  t_bwd``, so a single-excitation amplitude vector evolves under
  ``i dc/dtau = h c`` and the forward amplitude transports excitations toward
  higher site index;
* energies and rates are measured in units of a reference coupling that the
  caller picks, time in units of its inverse;
* the rotating frame removes all on-site energies, so ``h`` has zero diagonal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentRate

__all__ = [
    "ModeParams",
    "Bond",
    "ChainSpec",
    "HoppingMatrix",
    "RateMatrix",
    "make_uniform_chain",
    "build_hopping_matrix",
    "build_rate_matrix",
    "chain_from_config",
]


@dataclass(frozen=True)
class ModeParams:
    """Dissipation rate and thermal bath occupation of one mode."""

    kappa: float
    n_th: float

    def __post_init__(self) -> None:
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0 <= self.n_th < math.inf:
            raise ValueError(f"n_th must be finite and >= 0, got {self.n_th}")


@dataclass(frozen=True)
class Bond:
    """Directed coupling amplitudes of one nearest-neighbour bond.

    ``t_fwd`` moves an excitation toward higher site index, ``t_bwd`` toward
    lower.  Both must be finite; they may be complex, and individual solvers
    may impose stricter requirements (see :mod:`nhcool.spectral`).
    """

    t_fwd: complex
    t_bwd: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.t_fwd) and cmath.isfinite(self.t_bwd)):
            raise ValueError(f"bond amplitudes must be finite, got {self.t_fwd}, {self.t_bwd}")


@dataclass(frozen=True)
class ChainSpec:
    """Full physical description of an open-boundary chain.

    ``bonds`` must have exactly one entry fewer than ``modes``; the list
    simply ending encodes the open boundary.  A chain carries no energy unit:
    amplitudes and rates are in the caller's unit.
    """

    modes: tuple[ModeParams, ...]
    bonds: tuple[Bond, ...]

    def __post_init__(self) -> None:
        if len(self.modes) < 1:
            raise ValueError("a chain needs at least one mode")
        if len(self.bonds) != len(self.modes) - 1:
            raise ValueError(
                f"open chain with {len(self.modes)} modes needs "
                f"{len(self.modes) - 1} bonds, got {len(self.bonds)}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def kappa_vector(self) -> np.ndarray:
        return np.array([m.kappa for m in self.modes], dtype=float)

    def n_th_vector(self) -> np.ndarray:
        return np.array([m.n_th for m in self.modes], dtype=float)


@dataclass(frozen=True)
class HoppingMatrix:
    """Tridiagonal single-particle hopping matrix, stored as its two bands.

    ``fwd[k] = h[k + 1, k] = t_fwd`` and ``bwd[k] = h[k, k + 1] = t_bwd`` of
    bond ``k``; the diagonal is zero.  The bands are complex.
    """

    fwd: np.ndarray
    bwd: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``n_modes x n_modes`` matrix ``h``, built on each access."""
        return np.diag(self.fwd, -1) + np.diag(self.bwd, 1)


@dataclass(frozen=True)
class RateMatrix:
    """Nonnegative nearest-neighbour transition rates, stored as two bands.

    ``fwd[k]`` is the rate at which excitations hop from mode ``k`` to mode
    ``k + 1`` and ``bwd[k]`` the rate of the reverse hop.
    """

    fwd: np.ndarray
    bwd: np.ndarray

    @property
    def rates(self) -> np.ndarray:
        """Dense ``rates[i, j]``, the rate from mode ``i`` to ``j``; built on each access."""
        return np.diag(self.fwd, 1) + np.diag(self.bwd, -1)


def _canonical_bond(coupling: float, asymmetry: float) -> Bond:
    """The bond ``t * exp(+-A)``, whose amplitudes must be finite and nonzero."""
    if not 0 < coupling < math.inf:
        raise ValueError(f"coupling must be finite and positive, got {coupling}")
    if not abs(math.log(coupling)) + abs(asymmetry) < 709.0:  # exp(709.8) overflows
        raise ValueError(f"amplitudes t exp(+-A) overflow or are not finite at A = {asymmetry}")
    return Bond(coupling * math.exp(asymmetry), coupling * math.exp(-asymmetry))


def make_uniform_chain(
    n_modes: int,
    coupling: float = 1.0,
    asymmetry: float = 0.0,
    kappa: float = 0.0,
    n_th: float = 0.0,
) -> ChainSpec:
    """Build a uniform non-reciprocal chain.

    Parameters
    ----------
    n_modes : int
        Number of modes, at least 1.
    coupling : float
        Geometric-mean hopping amplitude ``t`` (positive).
    asymmetry : float
        Real asymmetry exponent; each bond carries ``t * exp(+-asymmetry)``.
    kappa, n_th : float
        Dissipation rate and bath occupation, identical for every mode.
    """
    modes = (ModeParams(kappa, n_th),) * n_modes
    bonds = (_canonical_bond(coupling, asymmetry),) * (n_modes - 1)
    return ChainSpec(modes=modes, bonds=bonds)


def build_hopping_matrix(spec: ChainSpec) -> HoppingMatrix:
    """The bands of a chain's tridiagonal single-particle matrix, one entry per bond."""
    fwd = np.array([bond.t_fwd for bond in spec.bonds], dtype=complex)
    bwd = np.array([bond.t_bwd for bond in spec.bonds], dtype=complex)
    return HoppingMatrix(fwd=fwd, bwd=bwd)


def build_rate_matrix(spec: ChainSpec) -> RateMatrix:
    """Compute the non-reciprocal transition rates of a chain.

    For the bond joining modes ``i`` and ``j = i + 1`` the rates are::

        g[i, j] = 2 * (|t_fwd|**2 + Re(t_fwd * t_bwd)) / (kappa_i + kappa_j)
        g[j, i] = 2 * (|t_bwd|**2 + Re(t_fwd * t_bwd)) / (kappa_i + kappa_j)

    Raises
    ------
    DivergentRate
        If a bond with nonzero amplitude joins two modes without dissipation.
    ValueError
        If a bond produces a rate that is not finite (``t**2 exp(2 A)``
        overflows), or a (necessarily non-canonical) bond a negative rate.
    """
    hop = build_hopping_matrix(spec)
    kappa = spec.kappa_vector()
    # a bond with both amplitudes zero has zero rates, whatever its kappas
    ksum = np.where((hop.fwd != 0) | (hop.bwd != 0), kappa[:-1] + kappa[1:], 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cross = (hop.fwd * hop.bwd).real
        # libm pow rounds as Python's float ``**``; numpy's ``** 2`` (x * x) can differ by 1 ulp
        fwd, bwd = 2.0 * (np.float_power(np.abs([hop.fwd, hop.bwd]), 2) + cross) / ksum
    finite = np.isfinite(fwd) & np.isfinite(bwd)
    bad = np.flatnonzero((ksum == 0.0) | ~finite | (fwd < 0) | (bwd < 0))
    if bad.size:
        k = bad[0]
        if ksum[k] == 0.0:
            raise DivergentRate(
                f"bond {k} couples modes {k} and {k + 1} but kappa_{k} + "
                f"kappa_{k + 1} = 0; the transition rate diverges"
            )
        if not finite[k]:
            raise ValueError(
                f"bond {k} produces a transition rate that is not finite; "
                f"2 (|t|^2 + Re(t_fwd t_bwd)) / (kappa_{k} + kappa_{k + 1}) overflows"
            )
        raise ValueError(
            f"bond {k} produces a negative transition rate; the rate "
            "description only applies when |t|^2 + Re(t_fwd t_bwd) >= 0"
        )
    return RateMatrix(fwd=fwd, bwd=bwd)


# --- configuration mapping -------------------------------------------------
#
# A chain is read from a flat mapping with keys n_modes, t, A, kappa, n_th
# and an optional "bonds" list of per-bond overrides, each entry
# {"index": k, "t": ..., "A": ...}.  Every mode shares one bath, and every
# bond is canonical, t exp(+-A).


def chain_from_config(config: dict) -> ChainSpec:
    """Build a chain from the flat configuration mapping."""
    n_modes = int(config["n_modes"])
    t = float(config.get("t", 1.0))
    a = float(config.get("A", 0.0))
    kappa = float(config.get("kappa", 0.0))
    n_th = float(config.get("n_th", 0.0))
    spec = make_uniform_chain(n_modes, t, a, kappa, n_th)
    overrides = config.get("bonds") or []
    if not isinstance(overrides, list):
        raise ValueError("bonds must be a list of overrides")
    bonds = list(spec.bonds)
    for entry in overrides:
        # a misspelled key would otherwise leave the bond silently unchanged
        if not isinstance(entry, dict) or "index" not in entry or set(entry) - {"index", "t", "A"}:
            raise ValueError(f"bond override {entry!r} needs an index and only t, A besides")
        k = int(entry["index"])
        if not 0 <= k < len(bonds):
            raise ValueError(f"bond override index {k} out of range")
        bonds[k] = _canonical_bond(float(entry.get("t", t)), float(entry.get("A", a)))
    return ChainSpec(modes=spec.modes, bonds=tuple(bonds))
