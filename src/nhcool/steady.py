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

Every solve here also takes a grid of chains and solves it in one
elimination (:func:`closed_form_two_mode` in one closed form).  The grid is
the inputs' leading axes, or the broadcast shape of the array arguments; a
scalar call is its zero-dimensional point, on the same code path.  Chains
shorter than the grid's are padded with decoupled modes (forward rate 0,
backward rate -0.0, kappa 1, n_th 0), which keep every bit of a real site
and add zero occupations.  Each row is bitwise its chain's single solve, and
an error is the one that the first failing point in C order raises alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegime, SingularSystem, ToleranceNotMet
from .model import (Bond, ChainSpec, HoppingMatrix, ModeParams, RateMatrix, _canonical_bond,
                    build_hopping_matrix, build_rate_matrix)

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
    the moment equations at the returned state.  That solve, and
    :func:`nhcool.oracle.oracle_steady`, pass their residual through the one
    gate :func:`_check_residual`.
    """

    occupations: np.ndarray
    residual: float


def _check_residual(residual: float, kappa: np.ndarray, n_th: np.ndarray,
                    tol: float, what: str) -> None:
    """The residual gate of the stationary solves of the moment equations and
    the master equation, whose residuals scale with the bath: raise
    ``ToleranceNotMet`` unless ``residual <= tol * max(kappa) * max(n_th)``,
    ``max(n_th)`` taken as 1 when every bath is cold.  A NaN residual fails
    the gate, and a NaN or negative ``tol`` raises ``ValueError``.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    threshold = tol * float(kappa.max()) * (float(n_th.max()) or 1.0)
    if not residual <= threshold:
        raise ToleranceNotMet(f"stationary {what} residual {residual:.3e} exceeds {threshold:.3e}")


def _gth_solve(up: np.ndarray, down: np.ndarray, slack: np.ndarray,
               rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal balance system by subtraction-free elimination.

    ``up[..., k], down[..., k] >= 0`` are the transition rates k -> k+1 and
    k+1 -> k, ``slack[..., k] >= 0`` the dissipation of mode k and
    ``rhs[..., k] >= 0`` the bath injection.  Factors the transposed system
    (no fill-in) and keeps the row-sum slack through the elimination, so no
    cancellation ever occurs.

    A single chain (1-D inputs) walks Python floats and raises
    ``SingularSystem`` at its first zero pivot.  A stack (inputs of shape
    ``(..., n)`` and ``(..., n - 1)``, one chain per leading index) walks one
    numpy column per site, with the same operations in the same order, so
    each row is bitwise its chain's single solve; a singular row comes back
    non-finite instead.  The elimination runs on one decoupled mode past the
    end (up 0, down -0.0, slack 1, rhs 0), which makes the last mode's step
    an ordinary one and changes no bit of a real site: its pivot is ``0 + s
    = s`` and back substitution adds ``-0.0 * 0``, as on a grid's padding.
    """
    n = slack.shape[-1]
    up, down, s, rhs = (_sites(v, pad) for v, pad in
                        ((up, 0.0), (down, -0.0), (slack, 1.0), (rhs, 0.0)))
    x, mult = [0.0] * n, [0.0] * n
    inflow = -0.0  # up[k - 1] * x[k - 1]; -0.0 + r is r bitwise, also for r = -0.0
    try:
        for k in range(n):
            pivot = up[k] + s[k]
            mult[k] = down[k] / pivot
            s[k + 1] += mult[k] * s[k]
            x[k] = (rhs[k] + inflow) / pivot
            inflow = up[k] * x[k]
    except ZeroDivisionError:  # Python floats only: a stack's row turns non-finite
        raise SingularSystem(
            f"mode {k} has neither outgoing transitions nor dissipation"
        ) from None
    for k in range(n - 2, -1, -1):
        x[k] += mult[k] * x[k + 1]
    return np.array(x) if slack.ndim == 1 else np.moveaxis(np.array(x), 0, -1)


def _sites(v: np.ndarray, pad: float) -> list:
    """``v`` and one more site of value ``pad``: a Python float per site for a
    single chain, a fresh numpy column per site for a stack."""
    if v.ndim == 1:
        sites = v.tolist()
        sites.append(pad)
        return sites
    return [*np.moveaxis(v, -1, 0).copy(), np.full(v.shape[:-1], pad)]


def _residual(up: np.ndarray, down: np.ndarray, kappa: np.ndarray,
              injection: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """Max-norm of ``M n - b`` per chain, of shape ``kappa.shape[:-1]``.

    Evaluated in extended precision so the reported number reflects the
    solution, not the evaluation.  Row ``k`` of ``M n`` is ``((down[k - 1] +
    up[k]) + kappa[k]) n[k] - (up[k - 1] n[k - 1] + down[k] n[k + 1])``,
    with zeros past either end.
    """
    n = kappa.shape[-1]
    zero = np.zeros(kappa.shape[:-1] + (1,))
    # one long-double array [0, up, 0, down, 0, n, 0, kappa, b], read through slices
    ld = np.concatenate((zero, up, zero, down, zero, occupations, zero, kappa, injection),
                        axis=-1).astype(np.longdouble)
    fwd, bwd, x = ld[..., :n + 1], ld[..., n:2 * n + 1], ld[..., 2 * n:3 * n + 2]
    k, b = ld[..., 3 * n + 2:4 * n + 2], ld[..., 4 * n + 2:]
    outflow = bwd[..., :-1] + fwd[..., 1:] + k
    inflow = fwd[..., :-1] * x[..., :-2] + bwd[..., 1:] * x[..., 2:]
    return np.abs(outflow * x[..., 1:-1] - inflow - b).max(axis=-1)


def _solve(up: np.ndarray, down: np.ndarray, kappa: np.ndarray, n_th: np.ndarray,
           redo, rejected=np.False_) -> SteadyState:
    """The balance solve of one chain, or of a stack, whose shapes are checked.

    A single chain raises its own first error, through ``redo(())`` when it
    is ``rejected``.  A stack hands the rows that ``rejected`` marks, whose
    inputs are not finite and nonnegative, that are singular or whose
    occupations overflow to :func:`_raise_first`.
    """
    values = np.concatenate((up, down, kappa, n_th), axis=-1)
    valid = ((0 <= values) & (values < math.inf)).all(axis=-1) & ~rejected
    if kappa.ndim == 1 and not valid:
        if rejected:
            redo(())
        raise ValueError("rates, kappa and n_th must all be finite and nonnegative")
    # Solve for an injection of order one and scale back: a tiny bath would
    # otherwise push the elimination into subnormal floats, which lose
    # relative accuracy.  Powers of two scale every operation exactly, so in
    # the normal range the result is bitwise that of the unscaled solve.
    # A stack's failed rows overflow or divide by zero quietly: redo reports them.
    with np.errstate(all="ignore"):
        injection = kappa * n_th
        exponent = np.frexp(injection.max(axis=-1, keepdims=True))[1]
        occ = np.ldexp(_gth_solve(up, down, kappa, np.ldexp(injection, -exponent)), exponent)
    bad = ~(valid & np.isfinite(occ).all(axis=-1))
    if kappa.ndim == 1 and bad:
        raise ValueError("an occupation overflows the double range")
    _raise_first(bad, redo)
    residual = _residual(up, down, kappa, injection, occ)
    return SteadyState(occupations=occ, residual=float(residual) if kappa.ndim == 1 else
                       residual.astype(float))


def _raise_first(bad: np.ndarray, redo) -> None:
    """Where ``bad`` marks points of a stack, solve the first in C order alone
    with ``redo(index)``, which raises that point's own error: the one a loop
    over the points would have met first."""
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        redo(index)
        raise AssertionError(f"point {index} fails in its stack but not alone")


def solve_steady_rates(
    rates: RateMatrix, kappa: np.ndarray, n_th: np.ndarray
) -> SteadyState:
    """Stationary occupations for nonnegative nearest-neighbour rate bands.

    Mode ``k`` passes excitations to mode ``k + 1`` at rate ``rates.fwd[k]``
    and back at rate ``rates.bwd[k]`` (the bands of
    :func:`nhcool.model.build_rate_matrix`), and relaxes toward ``n_th[k]``
    at rate ``kappa[k]``.  For uniform ``kappa`` and ``n_th`` the solution
    satisfies ``sum_i n_i = n_modes * n_th`` whatever the rates are.

    Bands of shape ``(..., n - 1)`` and ``kappa``, ``n_th`` of shape ``(...,
    n)``, the same leading axes on all four, are a grid (see the module
    docstring): occupations of shape ``(..., n)`` and a residual per chain.

    Raises
    ------
    ValueError
        If the bands do not have one entry fewer than ``kappa`` and ``n_th``,
        some rate, ``kappa`` or ``n_th`` is not finite and nonnegative, or an
        occupation overflows the double range.
    SingularSystem
        If no mode carries dissipation, or some modes are disconnected from
        every bath.
    """
    up, down, kappa, n_th = (
        np.asarray(v, dtype=float) for v in (rates.fwd, rates.bwd, kappa, n_th)
    )
    lead, n = kappa.shape[:-1], kappa.shape[-1] if kappa.ndim else 0
    shapes = (up.shape, down.shape, kappa.shape, n_th.shape)
    if n < 1 or shapes != (lead + (n - 1,), lead + (n - 1,), lead + (n,), lead + (n,)):
        raise ValueError(f"need n >= 1 modes and bands of length n - 1, got shapes {shapes}")
    return _solve(up, down, kappa, n_th, lambda r: solve_steady_rates(
        RateMatrix(up[r], down[r]), kappa[r], n_th[r]))


def solve_steady_chain(spec: ChainSpec | Sequence[ChainSpec]) -> SteadyState:
    """Stationary occupations of a chain, from its transition-rate bands.

    A sequence of chains is a grid (see the module docstring): occupations
    of shape ``(len(spec), max n_modes)``, each row zero past its chain's
    end, and one residual per chain.
    """
    if isinstance(spec, ChainSpec):
        return solve_steady_rates(build_rate_matrix(spec), spec.kappa_vector(), spec.n_th_vector())
    specs = tuple(spec)
    lengths = np.array([s.n_modes for s in specs])
    sites = np.arange(lengths.max(initial=1)) < lengths[:, None]
    bonds = sites[:, 1:]
    fwd, bwd = np.zeros(bonds.shape, complex), np.zeros(bonds.shape, complex)
    fwd[bonds] = [b.t_fwd for s in specs for b in s.bonds]
    bwd[bonds] = [b.t_bwd for s in specs for b in s.bonds]
    kappa, n_th = np.ones(sites.shape), np.zeros(sites.shape)
    kappa[sites] = [m.kappa for s in specs for m in s.modes]
    n_th[sites] = [m.n_th for s in specs for m in s.modes]
    rates, outside = HoppingMatrix(fwd, bwd).rate_bands(kappa)
    # past its end each chain runs on decoupled modes, as solve_steady_rates pads
    up, down = np.where(bonds, rates.fwd, 0.0), np.where(bonds, rates.bwd, -0.0)
    return _solve(up, down, kappa, n_th, lambda r: solve_steady_chain(specs[r[0]]),
                  rejected=(outside & bonds).any(axis=-1))


def closed_form_two_mode(coupling: float, asymmetry: float, kappa_1: float, kappa_2: float,
                         n_th: float) -> tuple[float, float]:
    """Exact stationary occupations of the canonical two-mode system.

    Solves the 2 x 2 balance system in closed form; for ``kappa_1 == kappa_2
    == kappa`` this reduces to ``n_1 = (2 g_21 + kappa) n_th / (g_12 + g_21 +
    kappa)``.  The arguments broadcast into a grid (see the module
    docstring) of ``n_1``, ``n_2``, whose rates come from one stacked
    :meth:`~nhcool.model.HoppingMatrix.rate_bands`; scalar arguments give
    ``np.float64`` occupations.
    """
    coupling, asymmetry, kappa_1, kappa_2, n_th = point = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (coupling, asymmetry, kappa_1, kappa_2, n_th)))
    bands = np.reshape([_canonical_amplitudes(t, a) for t, a in zip(coupling.flat, asymmetry.flat)],
                       coupling.shape + (2, 1)).astype(complex)
    g, outside = HoppingMatrix(bands[..., 0, :], bands[..., 1, :]).rate_bands(
        np.stack((kappa_1, kappa_2), axis=-1))
    rates = g.fwd[..., 0], g.bwd[..., 0], kappa_1, kappa_2
    with np.errstate(all="ignore"):  # a failing point's error is raised below
        inflow, det = _two_mode_balance(*rates, n_th)
        # Where a product under- or overflows on the way, det or n_th times an
        # inflow leaves the normal range.  There the kappas and rates are
        # scaled by the power of two that brings the largest term of det near
        # 1, and n_th into [1/2, 1) by its own, as _solve scales its injection;
        # powers of two round nothing.
        e12, e21, e1, e2 = (np.frexp(v)[1] for v in rates)
        # a zero rate's term is zero; counting it as kappa_1 kappa_2 changes no maximum
        e12, e21 = np.where(rates[0] > 0, e12, e1), np.where(rates[1] > 0, e21, e2)
        unit = np.maximum.reduce([e12 + e2, e1 + e21, e1 + e2]) // 2
        mantissa, exponent = np.frexp(n_th)
        inflow_s, det_s = _two_mode_balance(*(np.ldexp(v, -unit) for v in rates), mantissa)
        tiny = np.finfo(float).tiny
        normal = ((tiny <= det) & (det < np.inf)
                  & (((tiny <= inflow) & (inflow < np.inf)).all(axis=0) | (n_th == 0)))
        occ = np.where(normal, inflow / det, np.ldexp(inflow_s / det_s, exponent))
    # a kappa or n_th that is not finite leaves an occupation that is not finite
    valid = (0 < kappa_1) & (0 < kappa_2) & (0 <= n_th) & ~outside[..., 0]
    _raise_first(~(valid & np.isfinite(occ).all(axis=0)),
                 lambda i: _two_mode_error(*(v[i] for v in point)))
    return tuple(occ)


def _two_mode_balance(g12, g21, kappa_1, kappa_2, n_th) -> tuple[np.ndarray, np.ndarray]:
    """``n_th`` times the inflows of the 2 x 2 balance system, stacked on a
    first axis, and its determinant: ``n_1``, ``n_2`` are their quotients."""
    det = g12 * kappa_2 + kappa_1 * g21 + kappa_1 * kappa_2
    inflow = np.array((kappa_1 * g21 + kappa_1 * kappa_2 + g21 * kappa_2,
                       kappa_2 * g12 + kappa_1 * kappa_2 + g12 * kappa_1))
    return n_th * inflow, det


def _two_mode_error(coupling: float, asymmetry: float, kappa_1: float, kappa_2: float,
                    n_th: float) -> None:
    """Raise the error of one failing point of :func:`closed_form_two_mode`."""
    if not (kappa_1 > 0 and kappa_2 > 0):
        raise ValueError("both dissipation rates must be positive")
    build_rate_matrix(ChainSpec(modes=(ModeParams(kappa_1, n_th), ModeParams(kappa_2, n_th)),
                                bonds=(_canonical_bond(coupling, asymmetry),)))
    raise ValueError("an occupation overflows the double range")


def _canonical_amplitudes(coupling: float, asymmetry: float) -> tuple[float, float]:
    """The amplitudes of :func:`~nhcool.model._canonical_bond`, NaN where it raises."""
    try:
        bond = _canonical_bond(coupling, asymmetry)
    except ValueError:
        return math.nan, math.nan
    return bond.t_fwd, bond.t_bwd


def plateau_limit(coupling: float, asymmetry: float, kappa: float, n_th: float) -> float:
    """Long-chain floor of the cold-edge occupation at fixed dissipation.

    Returns ``kappa**2 * n_th / (kappa**2 + t_fwd**2 - t_bwd**2)`` with
    ``t_fwd = t exp(A)`` and ``t_bwd = t exp(-A)``; only meaningful for
    positive asymmetry, where the denominator is positive.  Where
    ``kappa**2``, ``t**2`` or ``kappa**2 n_th`` leaves the normal range the
    floor is read as ``n_th / (1 + (t / kappa)**2 (exp(2 A) - exp(-2 A)))``,
    which sees only the ratio of ``t`` to ``kappa``.  Raises ``ValueError``
    where ``t`` or ``kappa`` is not positive, ``n_th`` is not finite and
    >= 0 or ``t**2 exp(2 A)`` is not finite.
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
        spread = math.exp(2 * asymmetry) - math.exp(-2 * asymmetry)
    except OverflowError:  # math.exp raises where numpy would return inf
        spread = math.inf
    t2 = coupling * coupling
    gap = t2 * spread
    if not math.isfinite(gap):
        raise ValueError(f"t**2 exp(2 A) is not finite at t = {coupling}, A = {asymmetry}")
    numerator, denominator = k2 * n_th, k2 + gap
    tiny = np.finfo(float).tiny
    if (tiny <= min(k2, t2) and denominator < math.inf
            and (tiny <= numerator < math.inf or not n_th)):
        return numerator / denominator
    # kappa**2, t**2 or kappa**2 n_th left the normal range; the floor is at
    # most n_th, and where t**2 did it is read from (t / kappa)**2 alone
    ratio = coupling / kappa
    return n_th / (1 + (gap / kappa / kappa if t2 >= tiny else ratio * (ratio * spread)))


def solve_with_attached(spec: ChainSpec, mode: ModeParams, coupling: float) -> SteadyState:
    """Stationary occupations with an extra reciprocal mode on the cold edge.

    ``mode`` couples Hermitianly, with the real amplitude ``coupling``, to
    the chain's first mode, forming an ``n_modes + 1`` chain that is solved
    exactly; the result lists the attached mode first.

    ``mode`` may also be an array-like of ``ModeParams`` and ``coupling`` an
    array.  They broadcast into a grid of shape ``S`` (see the module
    docstring): occupations of shape ``S + (n_modes + 1,)`` and a residual
    per point.
    """
    modes = np.asarray(mode, dtype=object)
    shape = np.broadcast_shapes(modes.shape, np.shape(coupling))
    coupling = np.broadcast_to(coupling, shape)

    def bands(attached, chain):  # the attached mode's entry, then the chain's
        return np.concatenate((np.broadcast_to(attached, shape)[..., None],
                               np.broadcast_to(chain, shape + chain.shape)), axis=-1)

    def single(i):  # the chain of point i, solved alone
        bonds = (Bond(coupling[i], coupling[i]),) + spec.bonds
        return solve_steady_chain(ChainSpec(modes=(modes[i],) + spec.modes, bonds=bonds))

    hop = build_hopping_matrix(spec)
    kappa = bands(np.reshape([m.kappa for m in modes.flat], modes.shape), spec.kappa_vector())
    n_th = bands(np.reshape([m.n_th for m in modes.flat], modes.shape), spec.n_th_vector())
    rates, outside = HoppingMatrix(bands(coupling, hop.fwd), bands(coupling, hop.bwd)).rate_bands(kappa)
    modes = np.broadcast_to(modes, shape)
    return _solve(rates.fwd, rates.bwd, kappa, n_th, single, rejected=outside.any(axis=-1))


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
