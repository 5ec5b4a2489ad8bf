"""Steady-state occupations of dissipative non-reciprocal chains.

The stationary balance equations form a linear system ``M n = b`` where
``M[i, i] = sum_j g[i, j] + kappa_i``, ``M[i, j] = -g[j, i]`` and
``b_i = kappa_i * n_th_i``.  Every column of ``M`` sums to the dissipation
rate of its mode, which makes ``M`` an M-matrix that turns nearly singular as
``kappa -> 0``: a generic LU solve then loses all significant digits (the
condition number grows like ``t**2 / kappa**2``).  The solver below performs
a GTH-style subtraction-free elimination that carries the dissipation slack
explicitly, so every intermediate quantity is a sum, product or quotient of
nonnegative numbers.  Each occupation therefore comes out with componentwise
relative accuracy of a few ulps regardless of how small ``kappa`` is, and is
nonnegative by construction.  Rates are nearest-neighbour only, so ``M``
is tridiagonal and the elimination takes O(N) time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegime, SingularSystem
from .model import Bond, ChainSpec, ModeParams, RateMatrix, _canonical_bond, build_rate_matrix

__all__ = [
    "SteadyState",
    "solve_steady_rates",
    "solve_steady_chain",
    "closed_form_two_mode",
    "plateau_limit",
    "solve_with_attached",
    "attached_mode_estimate",
]


@dataclass(frozen=True)
class SteadyState:
    """Stationary occupations together with the residual of their equations.

    From :func:`solve_steady_chain` and its relatives ``residual`` is the
    balance residual: the max-norm of ``M n - b`` evaluated in extended
    precision on the returned occupations.  Because the occupations are
    stored as doubles it cannot drop below roughly ``eps * max_i sum_j
    |M[i, j]| n_j``, which exceeds ``1e-10 * |b|`` once ``kappa`` is small;
    the occupations themselves remain componentwise accurate there.  From
    :func:`nhcool.dynamics.steady_from_dynamics` it is ``max |dC/dtau|`` of
    the moment equations at the returned state.
    """

    occupations: np.ndarray
    residual: float


def _gth_solve(up: np.ndarray, down: np.ndarray, slack: np.ndarray,
               rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal balance system by subtraction-free elimination.

    ``up[k], down[k] >= 0`` are the transition rates k -> k+1 and k+1 -> k,
    ``slack[k] >= 0`` the dissipation of mode k and ``rhs[k] >= 0`` the bath
    injection.  Factors the transposed system (no fill-in) and keeps the
    row-sum slack through the elimination, so no cancellation ever occurs.
    """
    up, down, s, rhs = up.tolist(), down.tolist(), slack.tolist(), rhs.tolist()
    n = len(s)
    x, mult = [0.0] * n, [0.0] * (n - 1)
    inflow = -0.0  # up[k - 1] * x[k - 1]; -0.0 + r is r bitwise, also for r = -0.0
    for k in range(n - 1):
        pivot = up[k] + s[k]
        if pivot == 0.0:
            raise SingularSystem(
                f"mode {k} has neither outgoing transitions nor dissipation"
            )
        mult[k] = down[k] / pivot
        s[k + 1] += mult[k] * s[k]
        x[k] = (rhs[k] + inflow) / pivot
        inflow = up[k] * x[k]
    if s[n - 1] == 0.0:
        raise SingularSystem("chain carries no dissipation at all")
    x[n - 1] = (rhs[n - 1] + inflow) / s[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] += mult[k] * x[k + 1]
    return np.array(x)


def _residual(up: np.ndarray, down: np.ndarray, kappa: np.ndarray,
              injection: np.ndarray, occupations: np.ndarray) -> float:
    # Evaluated in extended precision so the reported number reflects the
    # solution, not the evaluation.
    up, down, k, b, x = (
        v.astype(np.longdouble) for v in (up, down, kappa, injection, occupations)
    )
    outflow = np.append(0.0, down) + np.append(up, 0.0) + k
    inflow = np.append(0.0, up * x[:-1]) + np.append(down * x[1:], 0.0)
    return float(np.abs(outflow * x - inflow - b).max())


def solve_steady_rates(
    rates: RateMatrix, kappa: np.ndarray, n_th: np.ndarray
) -> SteadyState:
    """Stationary occupations for nonnegative nearest-neighbour rate bands.

    Mode ``k`` passes excitations to mode ``k + 1`` at rate ``rates.fwd[k]``
    and back at rate ``rates.bwd[k]`` (the bands of
    :func:`nhcool.model.build_rate_matrix`), and relaxes toward ``n_th[k]``
    at rate ``kappa[k]``.  For uniform ``kappa`` and ``n_th`` the solution
    satisfies ``sum_i n_i = n_modes * n_th`` whatever the rates are.

    Raises
    ------
    ValueError
        If the bands do not have one entry fewer than ``kappa`` and ``n_th``,
        some rate, ``kappa`` or ``n_th`` is negative or NaN, or an occupation
        overflows the double range.
    SingularSystem
        If no mode carries dissipation, or some modes are disconnected from
        every bath.
    """
    up, down, kappa, n_th = (
        np.asarray(v, dtype=float) for v in (rates.fwd, rates.bwd, kappa, n_th)
    )
    n = kappa.size
    shapes = (up.shape, down.shape, kappa.shape, n_th.shape)
    if n < 1 or shapes != ((n - 1,), (n - 1,), (n,), (n,)):
        raise ValueError(f"need n >= 1 modes and bands of length n - 1, got shapes {shapes}")
    if not (np.concatenate((up, down, kappa, n_th)) >= 0).all():
        raise ValueError("rates, kappa and n_th must all be nonnegative")
    # Solve for an injection of order one and scale back: a tiny bath would
    # otherwise push the elimination into subnormal floats, which lose
    # relative accuracy.  Powers of two scale every operation exactly, so in
    # the normal range the result is bitwise that of the unscaled solve.
    with np.errstate(over="ignore"):
        injection = kappa * n_th
        _, exponent = math.frexp(float(injection.max()))
        occ = np.ldexp(_gth_solve(up, down, kappa, np.ldexp(injection, -exponent)), exponent)
    if not np.isfinite(occ).all():
        raise ValueError("an occupation overflows the double range")
    return SteadyState(occupations=occ, residual=_residual(up, down, kappa, injection, occ))


def solve_steady_chain(spec: ChainSpec) -> SteadyState:
    """Stationary occupations of a chain, from its transition-rate bands."""
    return solve_steady_rates(build_rate_matrix(spec), spec.kappa_vector(), spec.n_th_vector())


def closed_form_two_mode(
    coupling: float,
    asymmetry: float,
    kappa_1: float,
    kappa_2: float,
    n_th: float,
) -> tuple[float, float]:
    """Exact stationary occupations of the canonical two-mode system.

    Solves the 2 x 2 balance system in closed form; for ``kappa_1 == kappa_2
    == kappa`` this reduces to ``n_1 = (2 g_21 + kappa) n_th / (g_12 + g_21 +
    kappa)``.
    """
    if not (kappa_1 > 0 and kappa_2 > 0):
        raise ValueError("both dissipation rates must be positive")
    two_mode = ChainSpec(
        modes=(ModeParams(kappa_1, n_th), ModeParams(kappa_2, n_th)),
        bonds=(_canonical_bond(coupling, asymmetry),),
    )
    g = build_rate_matrix(two_mode)
    g12, g21 = g.fwd[0], g.bwd[0]
    det = g12 * kappa_2 + kappa_1 * g21 + kappa_1 * kappa_2
    n1 = n_th * (kappa_1 * g21 + kappa_1 * kappa_2 + g21 * kappa_2) / det
    n2 = n_th * (kappa_2 * g12 + kappa_1 * kappa_2 + g12 * kappa_1) / det
    return n1, n2


def plateau_limit(
    coupling: float, asymmetry: float, kappa: float, n_th: float
) -> float:
    """Long-chain floor of the cold-edge occupation at fixed dissipation.

    Returns ``kappa**2 * n_th / (kappa**2 + t_fwd**2 - t_bwd**2)`` with
    ``t_fwd = t exp(A)`` and ``t_bwd = t exp(-A)``; only meaningful for
    positive asymmetry, where the denominator is positive.  Raises
    ``ValueError`` where ``t`` or ``kappa`` is not positive, ``n_th`` is not
    finite and >= 0 or ``t**2 exp(2 A)`` is not finite, as the chain would.
    """
    if asymmetry <= 0:
        raise InvalidRegime(
            f"the plateau formula needs asymmetry > 0, got {asymmetry}"
        )
    if not coupling > 0 or not kappa > 0:
        raise ValueError("coupling and kappa must be positive")
    ModeParams(kappa, n_th)  # kappa and n_th finite and >= 0
    k2 = kappa * kappa
    try:
        gap = coupling * coupling * (math.exp(2 * asymmetry) - math.exp(-2 * asymmetry))
    except OverflowError:  # math.exp raises where numpy would return inf
        gap = math.inf
    if not math.isfinite(gap):
        raise ValueError(f"t**2 exp(2 A) is not finite at t = {coupling}, A = {asymmetry}")
    return k2 * n_th / (k2 + gap)


def solve_with_attached(spec: ChainSpec, mode: ModeParams, coupling: float) -> SteadyState:
    """Stationary occupations with an extra reciprocal mode on the cold edge.

    ``mode`` couples Hermitianly, with the real amplitude ``coupling``, to
    the chain's first mode, forming an ``n_modes + 1`` chain that is solved
    exactly; the result lists the attached mode first.
    """
    if not math.isfinite(coupling):  # ModeParams checks the rest
        raise ValueError(f"coupling must be finite, got {coupling}")
    bonds = (Bond(coupling, coupling),) + spec.bonds
    return solve_steady_chain(ChainSpec(modes=(mode,) + spec.modes, bonds=bonds))


def attached_mode_estimate(mode: ModeParams, coupling: float, kappa_edge: float,
                           n_1: float) -> float:
    """Closed-form estimate of the attached mode's occupation.

    Uses the reciprocal rate ``g_0 = 4 t_0**2 / (kappa_edge + kappa_0)`` of
    ``t_0 = coupling`` and balances it against the mode's own bath, ``kappa_0,
    n_th = mode.kappa, mode.n_th``: ``n_0 = (g_0 n_1 + kappa_0 n_th) / (g_0 +
    kappa_0)``.  ``n_1`` is the (separately computed) occupation of the chain
    site it couples to; it and ``kappa_edge`` must be finite and >= 0.
    """
    if not math.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    if not (0 <= kappa_edge < math.inf and 0 <= n_1 < math.inf):
        raise ValueError(f"kappa_edge and n_1 must be finite and >= 0, got {kappa_edge}, {n_1}")
    denom_rate = kappa_edge + mode.kappa
    if denom_rate <= 0:
        raise ValueError("kappa_edge + mode.kappa must be positive")
    g0 = 4.0 * coupling * coupling / denom_rate
    if g0 == 0.0 and mode.kappa == 0.0:
        raise ValueError("decoupled bathless mode has no defined occupation")
    return (g0 * n_1 + mode.kappa * mode.n_th) / (g0 + mode.kappa)
