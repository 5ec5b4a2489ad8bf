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

from .errors import DivergentRate, InvalidRegime

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

    def bond_domain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The bond products, which of them are real, and the two rate numerators.

        This is the one place where ``p = t_fwd t_bwd`` is formed, and the one
        rule for which bonds each layer accepts.  Returns ``p`` per bond, the
        mask of bonds whose ``p`` is real (``|Im p| <= 8 eps |p|``), and the
        ``(2, N - 1)`` numerators ``|t_fwd|**2 + Re p`` and
        ``|t_bwd|**2 + Re p`` of the forward and backward rates as
        ``numerators * 2**exponents``.  The rates see only ``Re p``: a
        product that is not real makes the moment fixed point complex and can
        give the chain gain, and a negative numerator makes a rate negative,
        so :func:`build_rate_matrix` and
        :func:`~nhcool.dynamics.steady_from_dynamics` accept a bond only
        where ``p`` is real and neither numerator is negative (else
        ``InvalidRegime``), and :func:`~nhcool.spectral.diagonalize` only
        where ``p`` is real and positive.

        The exponents are 0, and the numerators the plain doubles, except on a
        nonzero bond whose squares, product or numerators leave the normal
        range: there the mask and the numerators are evaluated on the binary
        fractions of its amplitudes, so that a chain in a tiny or a huge unit
        is judged as in any other.  Only there, because ``float_power`` of a
        fraction scaled back is not always ``float_power`` of the amplitude.
        An amplitude that is not finite leaves NaN entries, and each layer
        checks finiteness first.
        """
        amps, eps, tiny = np.abs([self.fwd, self.bwd]), np.finfo(float).eps, np.finfo(float).tiny
        exponents = np.zeros(amps.shape, dtype=int)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            product = self.fwd * self.bwd
            real = ~(np.abs(product.imag) > 8 * eps * np.abs(product))
            # libm pow rounds as Python's float ``**``; numpy's ``** 2`` (x * x) can differ by 1 ulp
            squares = np.float_power(amps, 2)
            numerators = squares + product.real
            # nonzero bonds whose squares or numerators left the normal range; an
            # infinite square leaves its numerator so, and the product leaves it only with a square
            odd = (((squares < tiny) & (amps > 0)) | ~np.isfinite(numerators)).any(axis=0)
            if odd.any():
                (f, e_f), (b, e_b) = _binary_split(self.fwd[odd]), _binary_split(self.bwd[odd])
                # a zero amplitude takes the other's exponent, so the other's square keeps its scale
                e_f, e_b = np.where(f == 0, e_b, e_f), np.where(b == 0, e_f, e_b)
                top = np.maximum(e_f, e_b)
                frac = f * b
                real[odd] = ~(np.abs(frac.imag) > 8 * eps * np.abs(frac))
                sq_f, sq_b = np.float_power(np.abs([f, b]), 2)
                # |t_fwd|**2 = sq_f 2**(2 e_f) and Re p = Re frac 2**(e_f + e_b), over 2**(e_f + top)
                numerators[:, odd] = (np.ldexp(sq_f, e_f - top) + np.ldexp(frac.real, e_b - top),
                                      np.ldexp(sq_b, e_b - top) + np.ldexp(frac.real, e_f - top))
                exponents[:, odd] = e_f + top, e_b + top
        return product, real, numerators, exponents

    def rate_bands(self, kappa: np.ndarray) -> tuple[RateMatrix, np.ndarray]:
        """The transition rates of the bands, and the bonds outside their formula.

        Bond ``k`` joins modes ``k`` and ``k + 1`` with the rates
        ``2 n / (kappa_k + kappa_{k+1})``, ``n`` the two numerators of
        :meth:`bond_domain`; a bond with both amplitudes zero has zero rates
        whatever its kappas.  Each rate is divided on the binary fractions of
        ``n`` and of the kappa sum and scaled back, which rounds as the plain
        quotient wherever that is a normal double, so only a rate that itself
        leaves the double range is lost.  The bands and ``kappa`` may carry
        leading axes, one chain per index, which broadcast.  Nothing is
        raised: ``outside[..., k]`` marks a nonzero bond between two modes
        without dissipation, a rate that is not finite, a product that is
        not real and a negative numerator, and the rates of such a bond mean
        nothing.  :func:`build_rate_matrix` raises for the first one of a
        chain.
        """
        _, real, numerators, exponents = self.bond_domain()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ksum = np.where((self.fwd != 0) | (self.bwd != 0), kappa[..., :-1] + kappa[..., 1:], 1.0)
            (n, e_n), (k, e_k) = np.frexp(numerators), np.frexp(ksum)
            fwd, bwd = np.ldexp(2.0 * n / k, e_n + exponents - e_k)
        outside = ((ksum == 0.0) | ~(np.isfinite(fwd) & np.isfinite(bwd)) | ~real
                   | (numerators < 0).any(axis=0))
        return RateMatrix(fwd=fwd, bwd=bwd), outside


def _binary_split(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``band = frac * 2**e`` exactly, with ``max(|Re frac|, |Im frac|)`` in [1/2, 1)."""
    e = np.frexp(np.maximum(np.abs(band.real), np.abs(band.imag)))[1]
    frac = np.empty(np.shape(band), complex)
    frac.real, frac.imag = np.ldexp(band.real, -e), np.ldexp(band.imag, -e)
    return frac, e


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

    They come from :meth:`HoppingMatrix.rate_bands`, the numerators and
    the domain from :meth:`HoppingMatrix.bond_domain`: the formula holds
    only where every product ``t_fwd t_bwd`` is real and both numerators
    are nonnegative.  The first bond that breaks a rule below is named.

    Raises
    ------
    DivergentRate
        If a bond with nonzero amplitude joins two modes without dissipation.
    ValueError
        If a bond produces a rate that is not finite (``t**2 exp(2 A)``
        overflows).
    InvalidRegime
        If a (necessarily non-canonical) bond's product ``t_fwd t_bwd`` is
        not real, whose imaginary part the rates cannot see, or makes one of
        its rates negative.
    """
    hop = build_hopping_matrix(spec)
    kappa = spec.kappa_vector()
    rates, outside = hop.rate_bands(kappa)
    if outside.any():
        k = int(np.argmax(outside))
        if kappa[k] + kappa[k + 1] == 0.0:  # an outside bond is never all zero
            raise DivergentRate(
                f"bond {k} couples modes {k} and {k + 1} but kappa_{k} + "
                f"kappa_{k + 1} = 0; the transition rate diverges"
            )
        if not (np.isfinite(rates.fwd[k]) and np.isfinite(rates.bwd[k])):
            raise ValueError(
                f"bond {k} produces a transition rate that is not finite; "
                f"2 (|t|^2 + Re(t_fwd t_bwd)) / (kappa_{k} + kappa_{k + 1}) overflows"
            )
        product, real, *_ = hop.bond_domain()
        raise _outside_rates(k, product, real)
    return rates


def _outside_rates(k: int, product: np.ndarray, real: np.ndarray) -> InvalidRegime:
    """The error for bond ``k``, outside the domain of :meth:`HoppingMatrix.bond_domain`'s rates."""
    if real[k]:
        return InvalidRegime(f"bond {k} produces a negative transition rate; the rate "
                             "description only applies when |t|^2 + Re(t_fwd t_bwd) >= 0")
    return InvalidRegime(f"bond {k} has t_fwd t_bwd = {product[k]:.6g}, which is not real; "
                         "a transition rate sees only its real part")


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
