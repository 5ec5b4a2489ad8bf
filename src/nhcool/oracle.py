"""Brute-force master equation on a truncated Fock space.

This is the ground-truth layer: the trace-corrected master equation for a
non-Hermitian Hamiltonian,

    drho/dtau = -i (H rho - rho H^dag) + i Tr{rho (H - H^dag)} rho
                + sum_i D[o_i] rho,

with the standard thermal dissipators ``o_down = sqrt(kappa (1 + n_th)) a``
and ``o_up = sqrt(kappa n_th) a^dag`` per mode.  The trace-correction term
makes ``d Tr rho / dtau`` vanish identically, which doubles as the main
correctness check.  It reads ``rho' = L0 rho - Tr(L0 rho) rho`` with the
linear Liouvillian ``L0 rho = K rho + rho K^dag + sum_i o_i rho o_i^dag``,
``K = -i H - 1/2 sum_i o_i^dag o_i``, which one helper assembles; its stable
fixed point is the eigenvector of ``L0`` whose eigenvalue has the largest
real part.  :func:`oracle_steady` computes it on the blocks of ``rho`` that
are diagonal in total boson number (the only blocks the thermal start state
reaches), while :func:`evolve_master_equation` applies the exact propagator
``rho0 -> exp(L0 tau) rho0 / Tr(exp(L0 tau) rho0)`` on one block, the union
of the sectors that the start state occupies.  The operators and the ``L0``
blocks are dense numpy arrays, and both solves on them are dense: one dense
``expm`` per trajectory, and ``eigvals`` plus inverse iteration for the
stationary state.  The Hilbert dimension and each Liouvillian block are
capped at ``MAX_DIMENSION`` to keep desk-scale runs honest about their cost.
``scipy.linalg`` is imported on the first call that needs it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DimensionTooLarge,
    SingularSystem,
    ToleranceNotMet,
    TruncationWarning,
)
from .model import ChainSpec, build_hopping_matrix

__all__ = [
    "MAX_DIMENSION",
    "FockDensityMatrix",
    "thermal_state",
    "number_state",
    "evolve_master_equation",
    "oracle_steady",
]

MAX_DIMENSION = 4096
TOP_LEVEL_LIMIT = 1e-3
# largest ||L0 tau||_1 handed to one expm: its entries stay below e^500, and
# each squaring starts from a matrix rescaled to largest entry 1, so no
# intermediate comes near the overflow at e^709
EXPM_NORM_LIMIT = 500.0


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on ``cutoff**n_modes`` Fock states, mode 0 leftmost."""

    rho: np.ndarray
    cutoff: int
    n_modes: int

    def trace_error(self) -> float:
        return abs(np.trace(self.rho) - 1.0)

    def hermiticity_error(self) -> float:
        return float(np.abs(self.rho - self.rho.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())

    def _marginals(self) -> np.ndarray:
        """Population of each retained Fock level, per mode: ``(n_modes, cutoff)``."""
        pops = np.real(np.diag(self.rho)).reshape((self.cutoff,) * self.n_modes)
        modes = range(self.n_modes)
        return np.array([pops.sum(axis=tuple(ax for ax in modes if ax != i)) for i in modes])

    def occupations(self) -> np.ndarray:
        """Mean boson number of each mode."""
        return self._marginals() @ np.arange(self.cutoff, dtype=float)

    def top_level_populations(self) -> np.ndarray:
        """Population of the highest retained Fock level, per mode."""
        return self._marginals()[:, -1]


def _check_dimension(n_modes: int, cutoff: int) -> int:
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    dim = cutoff**n_modes
    if dim > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"cutoff**n_modes = {dim} exceeds the dense guard rail {MAX_DIMENSION}"
        )
    return dim


def thermal_state(spec: ChainSpec, cutoff: int) -> FockDensityMatrix:
    """Product of truncated single-mode thermal states, renormalized."""
    _check_dimension(spec.n_modes, cutoff)
    weights = np.ones(1)
    for mode in spec.modes:
        ratio = mode.n_th / (1.0 + mode.n_th)
        w = ratio ** np.arange(cutoff)
        w /= w.sum()
        weights = np.kron(weights, w)
    return FockDensityMatrix(
        rho=np.diag(weights).astype(complex), cutoff=cutoff, n_modes=spec.n_modes
    )


def number_state(n_modes: int, cutoff: int, occupations: tuple[int, ...]) -> FockDensityMatrix:
    """Projector onto a single Fock basis state."""
    dim = _check_dimension(n_modes, cutoff)
    if len(occupations) != n_modes:
        raise ValueError("need one occupation per mode")
    index = 0
    for occ in occupations:
        if not 0 <= occ < cutoff:
            raise ValueError(f"occupation {occ} outside 0..{cutoff - 1}")
        index = index * cutoff + occ
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return FockDensityMatrix(rho=rho, cutoff=cutoff, n_modes=n_modes)


def _warn_on_truncation(state: FockDensityMatrix) -> None:
    tops = state.top_level_populations()
    worst = int(np.argmax(tops))
    if tops[worst] > TOP_LEVEL_LIMIT:
        warnings.warn(
            TruncationWarning(
                f"top Fock level of mode {worst} holds population "
                f"{tops[worst]:.2e} (> {TOP_LEVEL_LIMIT:g}); increase the cutoff"
            ),
            stacklevel=3,
        )


def _number_totals(n_modes: int, cutoff: int) -> np.ndarray:
    """Total boson number of each Fock basis state."""
    return np.indices((cutoff,) * n_modes).reshape(n_modes, -1).sum(axis=0)


def _sector_pairs(
    n_modes: int, cutoff: int, differences: tuple[int, ...] = (0,)
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(a, b)`` of Fock states whose total boson numbers differ
    by one of ``differences`` (``M_a - M_b``); ``L0`` maps each such sector of
    ``rho``, and so their union, into itself.

    Raises :class:`DimensionTooLarge` when the union has more than
    ``MAX_DIMENSION`` pairs, before any Liouvillian is allocated.
    """
    _check_dimension(n_modes, cutoff)
    total = _number_totals(n_modes, cutoff)
    sectors = [
        (np.flatnonzero(total == count), np.flatnonzero(total == count - difference))
        for difference in differences
        for count in range(total.max() + 1)
    ]
    size = sum(len(lefts) * len(rights) for lefts, rights in sectors)
    if size > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"Liouvillian block of number differences {list(differences)} has {size} rows, "
            f"exceeding the dense guard rail {MAX_DIMENSION}"
        )
    left = np.concatenate([np.repeat(lefts, len(rights)) for lefts, rights in sectors])
    right = np.concatenate([np.tile(rights, len(lefts)) for lefts, rights in sectors])
    return left, right


def _liouvillian(
    spec: ChainSpec, cutoff: int, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Dense block of the linear Liouvillian ``L0`` on the index pairs
    ``(left[k], right[k])`` of ``rho``.

    With ``rho`` flattened row-major, ``A rho B`` acts as ``kron(A, B.T)``, so
    (the ladder operators being real) ``L0`` is
    ``kron(K, 1) + kron(1, conj(K)) + sum_i kron(o_i, o_i)``; the block keeps
    its rows and columns on the given pairs, which is exact when ``L0`` maps
    those pairs into themselves.  A mode without a bath, or at zero
    temperature, contributes zero jump operators.
    """
    n_modes = spec.n_modes
    single = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)
    lowering = [
        reduce(np.kron, [single if j == i else eye for j in range(n_modes)])
        for i in range(n_modes)
    ]
    hop = build_hopping_matrix(spec)
    k_op = np.zeros((cutoff**n_modes,) * 2, dtype=complex)
    for k in range(n_modes - 1):
        # bond k: t_bwd multiplies a_k^dag a_{k+1}, t_fwd multiplies a_{k+1}^dag a_k
        k_op -= 1j * hop.bwd[k] * (lowering[k].T @ lowering[k + 1])
        k_op -= 1j * hop.fwd[k] * (lowering[k + 1].T @ lowering[k])
    jumps = []
    for a, mode in zip(lowering, spec.modes):
        jumps.append(np.sqrt(mode.kappa * (1.0 + mode.n_th)) * a)
        jumps.append(np.sqrt(mode.kappa * mode.n_th) * a.T)
    # a ladder operator has one entry per column, so each J^T J is diagonal
    k_op[np.diag_indices_from(k_op)] -= 0.5 * sum((j * j).sum(axis=0) for j in jumps)

    def block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[np.ix_(left, left)] * b[np.ix_(right, right)]

    ident = np.eye(len(k_op))
    liouvillian = block(k_op, ident)
    liouvillian += block(ident, k_op.conj())
    for jump in jumps:
        liouvillian += block(jump, jump)
    return liouvillian


def evolve_master_equation(
    spec: ChainSpec,
    rho0: FockDensityMatrix,
    t_end: float,
) -> FockDensityMatrix:
    """The state of the trace-corrected master equation at ``t_end``.

    ``rho(tau) = exp(L0 tau) rho0 / Tr(exp(L0 tau) rho0)`` solves
    ``rho' = L0 rho - Tr(L0 rho) rho`` exactly.  ``L0`` conserves the
    difference of the total boson numbers of a matrix element's two Fock
    states, so it maps the union of the sectors that ``rho0`` occupies into
    itself, and that one block is propagated by the dense
    ``scipy.linalg.expm(t_end * L0)`` (scaling and squaring, Al-Mohy and
    Higham 2009).  Past ``|L0 t_end|_1 = EXPM_NORM_LIMIT`` the exponential of
    ``t_end * L0 / 2**s`` is squared ``s`` times here instead, rescaled before
    each squaring so that the growth ``exp(lambda_1 t_end)`` cannot overflow.
    The cost is O(n^3) in the block's rows ``n`` and grows only with
    ``log(|L0| t_end)``.  A thermal or number state occupies sector 0 alone;
    a coherent start pays ``(sum rows)**3``, not ``sum rows**3`` (393 rows
    against 141 + 126 + 126 at three modes and cutoff 3).

    Raises
    ------
    ValueError
        If ``t_end`` is not finite and >= 0 or ``rho0`` has another mode count.
    DimensionTooLarge
        If the occupied sectors have more than ``MAX_DIMENSION`` rows together.
    """
    from scipy.linalg import expm

    if rho0.n_modes != spec.n_modes:
        raise ValueError("initial state and chain have different mode counts")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    total = _number_totals(rho0.n_modes, rho0.cutoff)
    occupied = np.unique((total[:, None] - total[None, :])[rho0.rho != 0])
    # the size guard runs before any operator is allocated
    left, right = _sector_pairs(rho0.n_modes, rho0.cutoff, tuple(occupied.tolist()))
    generator = _liouvillian(spec, rho0.cutoff, left, right)
    # exp(L0 tau) grows like exp(lambda_1 tau) and overflows at long times:
    # exponentiate a piece of norm <= EXPM_NORM_LIMIT, then square it back
    # up, dividing by its largest entry before each squaring; the trace
    # normalization removes the divisors
    norm = float(np.abs(generator).sum(axis=0).max())
    squarings = 0
    if norm * t_end > EXPM_NORM_LIMIT:  # counted in logs: norm * t_end may overflow
        squarings = math.ceil(math.log2(norm / EXPM_NORM_LIMIT) + math.log2(t_end))
    generator *= math.ldexp(t_end, -squarings)  # in place: one block-sized copy fewer at the peak
    propagator = expm(generator)
    for _ in range(squarings):
        propagator /= np.abs(propagator).max()
        propagator = propagator @ propagator
    rho = np.zeros_like(rho0.rho, dtype=complex)
    rho[left, right] = propagator @ rho0.rho[left, right]
    state = FockDensityMatrix(
        rho=rho / np.trace(rho), cutoff=rho0.cutoff, n_modes=rho0.n_modes
    )
    _warn_on_truncation(state)
    return state


def oracle_steady(spec: ChainSpec, cutoff: int, tol: float = 1e-7) -> np.ndarray:
    """Stationary occupations of the full master equation.

    The fixed point reached from the product thermal state is the leading
    eigenvector of the linear Liouvillian ``L0`` restricted to the blocks of
    ``rho`` diagonal in total boson number, normalized to unit trace.  The
    block's eigenvalues (no vectors) locate the leading one, ``lambda_1``;
    two steps of inverse iteration with one LU factorization of
    ``L0 - Re(lambda_1) - eps max|lambda|``, started from the thermal state
    and normalized to unit trace after each step, give its eigenvector to
    rounding; one rounding step past ``lambda_1``, the shift misses an exact
    ``lambda_1`` (0 at ``n_th = 0``) yet stays far inside the checked gap.
    ``L0`` maps the block into itself, so the residual
    ``drho/dtau = L0 rho - Tr(L0 rho) rho`` is evaluated on the same block.

    Raises
    ------
    SingularSystem
        If some mode carries no dissipation, the leading eigenvalue is not
        real and simple (no unique stationary state), or inverse iteration
        does not give a finite vector.
    DimensionTooLarge
        If the number-diagonal block has more than ``MAX_DIMENSION`` rows.
    ToleranceNotMet
        If the max-norm of ``drho/dtau`` at the result exceeds ``tol``.
    """
    from scipy.linalg import eigvals, lu_factor, lu_solve

    kappa = spec.kappa_vector()
    if not np.all(kappa > 0):
        raise SingularSystem("oracle_steady needs kappa > 0 on every mode")
    left, right = _sector_pairs(spec.n_modes, cutoff)
    liouvillian = _liouvillian(spec, cutoff, left, right)
    evals = eigvals(liouvillian)
    order = np.argsort(evals.real)[::-1]
    lead = evals[order[0]]
    gap = lead.real - evals[order[1]].real  # cutoff >= 2: at least two rows
    scale = float(np.abs(evals).max())
    floor = np.sqrt(np.finfo(float).eps) * max(1.0, scale)
    if abs(lead.imag) > floor or gap <= floor:
        raise SingularSystem(
            f"leading Liouvillian eigenvalue {lead:.3e} is not real and simple "
            f"(gap {gap:.3e})"
        )
    diagonal = left == right
    shifted = liouvillian.copy()
    shifted[np.diag_indices_from(shifted)] -= lead.real + np.finfo(float).eps * scale
    lu = lu_factor(shifted, overwrite_a=True, check_finite=False)
    # start from the thermal state: the fixed point sought is the one its flow reaches
    vec = thermal_state(spec, cutoff).rho[left, right]
    with np.errstate(all="ignore"):  # a singular factor gives inf or nan, caught below
        for _ in range(2):
            vec = lu_solve(lu, vec, check_finite=False)
            vec /= vec[diagonal].sum()
    if not np.all(np.isfinite(vec)):
        raise SingularSystem("inverse iteration gave a non-finite leading eigenvector")
    flow = liouvillian @ vec
    residual = float(np.abs(flow - flow[diagonal].sum() * vec).max())
    if residual > tol:
        raise ToleranceNotMet(
            f"stationary master-equation residual {residual:.3e} exceeds {tol:.3e}"
        )
    rho = np.zeros((cutoff**spec.n_modes,) * 2, dtype=complex)
    rho[left, right] = vec
    state = FockDensityMatrix(rho=rho, cutoff=cutoff, n_modes=spec.n_modes)
    _warn_on_truncation(state)
    return state.occupations()
