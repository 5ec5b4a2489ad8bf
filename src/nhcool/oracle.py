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
of the sectors that the start state occupies.

``L0`` is in Lindblad form, so it maps Hermitian matrices to Hermitian
matrices.  On a set of index pairs closed under transposition, the real
coordinates ``u = Re rho + Im rho``, pair by pair, describe every Hermitian
``rho``, and ``L0`` acts on them as a real matrix of the same size whose
complexification is ``L0``: it has exactly the spectrum of ``L0``.  The
helper assembles that real block, and both solves work on it in real
arithmetic: one dense real exponential per trajectory, the Taylor
exponential that also propagates the moments in :mod:`.dynamics`, and real
``eigvals`` plus inverse iteration with a real LU factorization for the
stationary state.  The Hilbert dimension and each Liouvillian block are
capped at ``MAX_DIMENSION`` to keep desk-scale runs honest about their
cost.  ``scipy.linalg`` is imported only by :func:`oracle_steady`, on its
first call.
"""

from __future__ import annotations

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
from .dynamics import Trajectory, _expm_taylor
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


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on ``cutoff**n_modes`` Fock states, mode 0 leftmost."""

    rho: np.ndarray
    cutoff: int
    n_modes: int

    def __post_init__(self) -> None:
        shape = (self.cutoff**self.n_modes,) * 2
        if np.shape(self.rho) != shape:
            raise ValueError(
                f"rho of shape {np.shape(self.rho)} does not fit {self.n_modes} modes "
                f"at cutoff {self.cutoff}, which need {shape}"
            )

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``(a, b)`` of Fock states whose total boson numbers differ
    by one of ``differences`` or its negative (``M_a - M_b``), and the
    position ``swap[k]`` of the transposed pair ``(right[k], left[k])``.

    ``L0`` maps each such sector of ``rho``, and so their union, into itself;
    taking each difference with its negative closes the union under
    transposition, which the real coordinates of :func:`_liouvillian` need.
    Raises :class:`DimensionTooLarge` when the union has more than
    ``MAX_DIMENSION`` pairs, before any Liouvillian is allocated.
    """
    dim = _check_dimension(n_modes, cutoff)
    total = _number_totals(n_modes, cutoff)
    signed = np.union1d(differences, np.negative(differences))
    sectors = [
        (np.flatnonzero(total == count), np.flatnonzero(total == count - difference))
        for difference in signed.tolist()
        for count in range(total.max() + 1)
    ]
    size = sum(len(lefts) * len(rights) for lefts, rights in sectors)
    if size > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"Liouvillian block of number differences {signed.tolist()} has {size} rows, "
            f"exceeding the dense guard rail {MAX_DIMENSION}"
        )
    left = np.concatenate([np.repeat(lefts, len(rights)) for lefts, rights in sectors])
    right = np.concatenate([np.tile(rights, len(lefts)) for lefts, rights in sectors])
    keys = left * dim + right
    order = np.argsort(keys)
    swap = order[np.searchsorted(keys, right * dim + left, sorter=order)]
    return left, right, swap


def _to_real(rho: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """Real coordinates ``u = Re rho + Im rho`` of a Hermitian ``rho`` on a
    transpose-closed set of pairs; on any other ``rho`` the complex-linear
    extension, whose real and imaginary parts are the coordinates of its
    Hermitian part and of its anti-Hermitian part over ``i``."""
    return ((1 - 1j) * rho + (1 + 1j) * rho[swap]) / 2


def _from_real(u: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """The ``rho`` with coordinates ``u``: the inverse of :func:`_to_real`."""
    return ((1 + 1j) * u + (1 - 1j) * u[swap]) / 2


def _liouvillian(
    spec: ChainSpec, cutoff: int, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Dense real block of the linear Liouvillian ``L0`` on the index pairs
    ``(left[k], right[k])`` of ``rho``, in the coordinates of :func:`_to_real`.

    With ``rho`` flattened row-major, ``A rho B`` acts as ``kron(A, B.T)``, so
    (the ladder operators being real) ``L0`` is
    ``kron(K, 1) + kron(1, conj(K)) + sum_i kron(o_i, o_i)``, and its block
    ``L`` keeps the rows and columns on the given pairs, which is exact when
    ``L0`` maps those pairs into themselves.  ``L0`` maps Hermitian matrices
    to Hermitian matrices, so on a transpose-closed set of pairs it is the
    complexification of the real map ``u -> to_real(L from_real(u))``, whose
    matrix ``Re L + (Im L)[:, swap]`` has exactly the spectrum of ``L``.  It
    is assembled here without ``L``: ``Re L`` takes ``Re K`` in both
    factors and ``(Im L)[:, swap]`` reads ``Im K`` at the transposed pairs.
    A mode without a bath, or at zero temperature, contributes zero jump
    operators.
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

    def transposed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[np.ix_(left, right)] * b[np.ix_(right, left)]

    ident = np.eye(len(k_op))
    liouvillian = block(k_op.real, ident)
    liouvillian += block(ident, k_op.real)
    liouvillian += transposed(k_op.imag, ident)
    liouvillian -= transposed(ident, k_op.imag)
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
    states, so it maps the union of the sectors that ``rho0`` occupies, each
    taken with its transpose, into itself.  On that one block ``L0`` is the
    complexification of a real matrix (see :func:`_liouvillian`), propagated
    by the dense real Taylor exponential of ``t_end * R`` with scaling and
    squaring that also propagates the moments in :mod:`.dynamics`.  It
    rescales by a power of two before each squaring, so the growth
    ``exp(lambda_1 t_end)`` cannot overflow, and the trace normalization
    removes that scale.  ``rho0`` splits into a Hermitian part and ``i``
    times another Hermitian part; both have real coordinates, the one real
    propagator moves both, and they are recombined, so a start that is not
    Hermitian is propagated exactly too.  The cost is O(n^3) in the block's
    rows ``n`` and grows with ``log(|R| t_end)`` only until the flow has
    converged, when the squarings stop.
    A thermal or number state occupies sector 0 alone; a coherent start pays
    ``(sum rows)**3``, not ``sum rows**3`` (393 rows against 141 + 126 + 126
    at three modes and cutoff 3).

    Raises
    ------
    ValueError
        If ``t_end`` is not finite and >= 0, ``rho0`` has another mode count
        or ``rho0`` has no nonzero entry.
    DimensionTooLarge
        If the occupied sectors have more than ``MAX_DIMENSION`` rows together.
    """
    if rho0.n_modes != spec.n_modes:
        raise ValueError("initial state and chain have different mode counts")
    t_end = Trajectory.check_end(t_end)
    total = _number_totals(rho0.n_modes, rho0.cutoff)
    occupied = np.unique((total[:, None] - total[None, :])[rho0.rho != 0])
    if not occupied.size:
        raise ValueError("initial state has no nonzero entry")
    # the size guard runs before any operator is allocated
    left, right, swap = _sector_pairs(rho0.n_modes, rho0.cutoff, tuple(occupied.tolist()))
    # exp(L0 tau) up to a power of two, which the trace normalization removes
    propagator = _expm_taylor(_liouvillian(spec, rho0.cutoff, left, right), t_end)
    # the real and imaginary parts of the start's coordinates are those of
    # its Hermitian part and of its anti-Hermitian part over i
    start = _to_real(rho0.rho[left, right], swap)
    rho = np.zeros_like(rho0.rho, dtype=complex)
    rho[left, right] = _from_real(propagator @ start.real + 1j * (propagator @ start.imag), swap)
    state = FockDensityMatrix(
        rho=rho / np.trace(rho), cutoff=rho0.cutoff, n_modes=rho0.n_modes
    )
    _warn_on_truncation(state)
    return state


def oracle_steady(spec: ChainSpec, cutoff: int, tol: float = 1e-7) -> np.ndarray:
    """Stationary occupations of the full master equation.

    The fixed point reached from the product thermal state is the leading
    eigenvector of the linear Liouvillian ``L0`` restricted to the blocks of
    ``rho`` diagonal in total boson number, normalized to unit trace.  That
    block is closed under transposition, so all the work is done in real
    arithmetic on the real matrix ``R`` of :func:`_liouvillian`, which has
    exactly the spectrum of ``L0`` there.  Its eigenvalues (real ``eigvals``,
    no vectors) locate the leading one, ``lambda_1``; two steps of inverse
    iteration with one real LU factorization of
    ``R - Re(lambda_1) - eps max|lambda|``, started from the real coordinates
    of the thermal state and normalized to unit trace (the sum over the
    diagonal pairs) after each step, give its eigenvector to rounding; one
    rounding step past ``lambda_1``, the shift misses an exact ``lambda_1``
    (0 at ``n_th = 0``) yet stays far inside the checked gap.  ``L0`` maps
    the block into itself, so the residual
    ``drho/dtau = L0 rho - Tr(L0 rho) rho`` is evaluated on the same block,
    on the ``rho`` that the coordinates describe.

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
    left, right, swap = _sector_pairs(spec.n_modes, cutoff)
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
    vec = _to_real(thermal_state(spec, cutoff).rho[left, right], swap).real
    with np.errstate(all="ignore"):  # a singular factor gives inf or nan, caught below
        for _ in range(2):
            vec = lu_solve(lu, vec, check_finite=False)
            vec /= vec[diagonal].sum()
    if not np.all(np.isfinite(vec)):
        raise SingularSystem("inverse iteration gave a non-finite leading eigenvector")
    flow = liouvillian @ vec
    residual = float(np.abs(_from_real(flow - flow[diagonal].sum() * vec, swap)).max())
    if residual > tol:
        raise ToleranceNotMet(
            f"stationary master-equation residual {residual:.3e} exceeds {tol:.3e}"
        )
    rho = np.zeros((cutoff**spec.n_modes,) * 2, dtype=complex)
    rho[left, right] = _from_real(vec, swap)
    state = FockDensityMatrix(rho=rho, cutoff=cutoff, n_modes=spec.n_modes)
    _warn_on_truncation(state)
    return state.occupations()
