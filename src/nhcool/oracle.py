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
helper assembles that real block from its nonzeros, and both solves work on
it in real arithmetic: one dense real exponential per trajectory, the Taylor
exponential that also propagates the moments in :mod:`.dynamics`, and real
``eigvals`` plus inverse iteration with a real LU factorization for the
stationary state.  When every hopping amplitude is real, the stationary
solve splits the block in two by the exact symmetry
``rho -> S rho^T S``, ``S`` the parity of the bosons on the odd-indexed
modes: it takes the eigenvalues of both halves and the eigenvector from the
half that holds the thermal state.  The trajectory keeps the whole block,
since the two halves of a start would grow at different rates, which one
common power of two cannot remove.  The Hilbert
dimension and each Liouvillian block are capped at ``MAX_DIMENSION`` to
keep desk-scale runs honest about their cost.  ``scipy.linalg`` is
imported only by :func:`oracle_steady`, on its first call.

The Fock basis is numpy's C order over ``(cutoff,) * n_modes``, mode 0
leftmost.  One table states it, ``levels[i, s]`` of :func:`_fock_levels`:
occupations, top-level populations, the thermal product, total boson
numbers and the ladder operators all read it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, SingularSystem, TruncationWarning
from .dynamics import Trajectory, _expm_taylor
from .model import ChainSpec, build_hopping_matrix
from .steady import _check_residual

__all__ = [
    "MAX_DIMENSION",
    "FockDensityMatrix",
    "thermal_state",
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
        if not np.isfinite(self.rho).all():
            raise ValueError("rho has an entry that is not finite")

    def trace_error(self) -> float:
        return abs(np.trace(self.rho) - 1.0)

    def hermiticity_error(self) -> float:
        return float(np.abs(self.rho - self.rho.conj().T).max())

    def occupations(self) -> np.ndarray:
        """Mean boson number of each mode."""
        return _fock_levels(self.n_modes, self.cutoff) @ np.real(np.diag(self.rho))


def _fock_levels(n_modes: int, cutoff: int) -> np.ndarray:
    """``levels[i, s]``, the Fock level of mode ``i`` in basis state ``s``: its
    base-``cutoff`` digits in numpy's C order, mode 0 the most significant."""
    return np.indices((cutoff,) * n_modes).reshape(n_modes, -1)


def _check_dimension(n_modes: int, cutoff: int) -> int:
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    dim = cutoff**n_modes
    if dim > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"cutoff**n_modes = {dim} exceeds the dense guard rail {MAX_DIMENSION}"
        )
    return dim


def _thermal_populations(spec: ChainSpec, levels: np.ndarray) -> np.ndarray:
    """Population of each Fock state of :func:`_fock_levels` table ``levels``
    in the product of truncated single-mode thermal states, renormalized."""
    n_th = spec.n_th_vector()[:, None]
    weights = (n_th / (1.0 + n_th)) ** np.arange(levels.max() + 1)
    weights /= weights.sum(axis=1, keepdims=True)
    return np.take_along_axis(weights, levels, 1).prod(0)


def thermal_state(spec: ChainSpec, cutoff: int) -> FockDensityMatrix:
    """Product of truncated single-mode thermal states, renormalized."""
    _check_dimension(spec.n_modes, cutoff)
    populations = _thermal_populations(spec, _fock_levels(spec.n_modes, cutoff))
    return FockDensityMatrix(
        rho=np.diag(populations).astype(complex), cutoff=cutoff, n_modes=spec.n_modes
    )


def _warn_on_truncation(levels: np.ndarray, populations: np.ndarray) -> None:
    """Warn when some mode's top level, in the table ``levels``, holds more
    than ``TOP_LEVEL_LIMIT`` of the Fock states' ``populations``."""
    tops = (levels == levels.max()) @ populations
    worst = int(np.argmax(tops))
    if tops[worst] > TOP_LEVEL_LIMIT:
        warnings.warn(
            TruncationWarning(
                f"top Fock level of mode {worst} holds population "
                f"{tops[worst]:.2e} (> {TOP_LEVEL_LIMIT:g}); increase the cutoff"
            ),
            stacklevel=3,
        )


def _sector_pairs(
    n_modes: int, cutoff: int, differences: tuple[int, ...] = (0,)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``(a, b)`` of Fock states whose total boson numbers differ
    by one of ``differences`` or its negative (``M_a - M_b``), row-major in
    ``(a, b)``, and the position ``swap[k]`` of the transposed pair
    ``(right[k], left[k])``.

    ``L0`` maps each such sector of ``rho``, and so their union, into itself;
    taking each difference with its negative closes the union under
    transposition, which the real coordinates of :func:`_liouvillian` need.
    The union's size is counted from the number of states per total boson
    number, and :class:`DimensionTooLarge` is raised when it has more than
    ``MAX_DIMENSION`` pairs, before anything of size ``dim x dim`` is
    allocated; the pairs are then the nonzeros of a ``dim x dim`` mask over
    the int16 table of number differences.
    """
    dim = _check_dimension(n_modes, cutoff)
    total = _fock_levels(n_modes, cutoff).sum(axis=0, dtype=np.int16)
    signed = np.union1d(differences, np.negative(differences))
    counts = np.bincount(total)
    # lags[d + counts.size - 1] counts the pairs whose numbers differ by d
    lags = np.correlate(counts, counts, "full")
    size = int(lags[signed[np.abs(signed) < counts.size] + counts.size - 1].sum())
    if size > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"Liouvillian block of number differences {signed.tolist()} has {size} rows, "
            f"exceeding the dense guard rail {MAX_DIMENSION}"
        )
    left, right = np.nonzero(np.isin(total[:, None] - total, signed))
    # np.nonzero lists the pairs row-major, so their keys are already sorted
    swap = np.searchsorted(left * dim + right, right * dim + left)
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
    matrix ``R = Re L + (Im L)[:, swap]`` has exactly the spectrum of ``L``.
    Row ``(a, b)`` of ``R`` holds ``Re K[a, c]`` in column ``(c, b)``,
    ``Re K[b, d]`` in ``(a, d)``, ``Im K[a, d]`` in ``(b, d)``,
    ``-Im K[b, c]`` in ``(c, a)`` and ``o_i[a, c] o_i[b, d]`` in ``(c, d)``.

    ``R`` is assembled from those nonzeros alone.  Each jump and each term of
    ``K`` (its diagonal and one hopping term ``a_i^dag a_j`` per bond and
    direction) has at most one entry per row, read off the level table:
    ``a_i`` has ``sqrt(levels[i, s] + 1)`` in row ``s`` and column
    ``s + cutoff**(n_modes - 1 - i)``, where mode ``i`` of state ``s`` is
    below the top level, and ``a_i^dag`` the transposed entries.  A table
    ``pos[a, b]`` gives each pair's position, so each of the five kinds of
    entry is one scatter-add that never meets an index twice; added in the
    order of the sum above, they give the dense restriction of the
    Kronecker form bit for bit.  A mode without a bath, or at zero
    temperature, contributes zero jump operators.
    """
    n_modes = spec.n_modes
    levels = _fock_levels(n_modes, cutoff)
    dim = levels.shape[1]
    states = np.arange(dim)
    strides = cutoff ** np.arange(n_modes - 1, -1, -1)
    # rows in which a_i^dag and a_i have their entry; column dim stands for none
    raised, lowered = levels > 0, levels < cutoff - 1
    hop = build_hopping_matrix(spec)
    hop_cols, hop_amps = [], []
    for k in range(n_modes - 1):
        # bond k: t_bwd multiplies a_k^dag a_{k+1}, t_fwd multiplies a_{k+1}^dag a_k
        for i, j, t in ((k, k + 1, hop.bwd[k]), (k + 1, k, hop.fwd[k])):
            shift = strides[j] - strides[i]
            hop_cols.append(np.where(raised[i] & lowered[j], states + shift, dim))
            hop_amps.append(-1j * t * (np.sqrt(levels[i]) * np.sqrt(levels[j] + 1)))
    kappa, n_th = spec.kappa_vector()[:, None], spec.n_th_vector()[:, None]
    # rows 2i and 2i + 1: the down- and the up-jump of mode i
    jump_cols = np.stack([np.where(lowered, states + strides[:, None], dim),
                          np.where(raised, states - strides[:, None], dim)], 1)
    jump_amps = np.stack([np.sqrt(kappa * (1.0 + n_th)) * np.sqrt(levels + 1),
                          np.sqrt(kappa * n_th) * np.sqrt(levels)], 1)
    jump_cols, jump_amps = jump_cols.reshape(-1, dim), jump_amps.reshape(-1, dim)
    # each J^dag J is diagonal: J's squared entries, in their columns
    squares = np.zeros((len(jump_cols), dim + 1))
    np.put_along_axis(squares, jump_cols, jump_amps * jump_amps, axis=1)
    k_cols = np.array([states, *hop_cols])
    k_amps = np.array([-0.5 * sum(squares[:, :dim]), *hop_amps], dtype=complex)

    pos = np.full((dim + 1, dim + 1), -1)
    pos[left, right] = np.arange(len(left))
    liouvillian = np.zeros((len(left),) * 2)
    rows = np.arange(len(left))

    def add(cols: np.ndarray, values: np.ndarray) -> None:
        hit = cols >= 0
        liouvillian[np.broadcast_to(rows, cols.shape)[hit], cols[hit]] += values[hit]

    k_left, k_right = k_cols[:, left], k_cols[:, right]
    add(pos[k_left, right], k_amps.real[:, left])
    add(pos[left, k_right], k_amps.real[:, right])
    add(pos[right, k_left], k_amps.imag[:, left])
    add(pos[k_right, left], -k_amps.imag[:, right])
    add(pos[jump_cols[:, left], jump_cols[:, right]], jump_amps[:, left] * jump_amps[:, right])
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
        If ``t_end`` is not finite and >= 0, ``rho0`` has another mode count,
        ``rho0`` has no nonzero entry or the block's 1-norm is not finite.
    DimensionTooLarge
        If the occupied sectors have more than ``MAX_DIMENSION`` rows together.
    """
    if rho0.n_modes != spec.n_modes:
        raise ValueError("initial state and chain have different mode counts")
    t_end = Trajectory.check_end(t_end)
    levels = _fock_levels(rho0.n_modes, rho0.cutoff)
    total = levels.sum(axis=0, dtype=np.int16)
    occupied = np.unique((total[:, None] - total)[rho0.rho != 0])
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
    _warn_on_truncation(levels, np.real(np.diag(state.rho)))
    return state


def _parity_blocks(
    liouvillian: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    swap: np.ndarray,
    n_modes: int,
    cutoff: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two blocks of ``R`` of a chain with real amplitudes under the
    exact symmetry ``rho -> S rho^T S``, ``S = (-1)**N_odd``, ``N_odd`` the
    number of bosons on the odd-indexed modes.

    A nearest-neighbour hop moves one boson between an even- and an
    odd-indexed mode, so ``S H S = -H``, and ``S a_i S = +-a_i``; with ``H``
    real, ``S conj(K) S = K`` and the map commutes with ``L0``.  In the real
    coordinates it reads ``(Q u)[k] = sigma[k] u[swap[k]]`` with
    ``sigma = s[left] s[right]``, ``s`` the diagonal of ``S``, and ``Q`` is
    an involution that commutes with ``R``.  ``first`` lists the diagonal
    pairs and the first pair of each transposed couple (``left <= right``);
    the even vectors, ``u[swap[k]] = sigma[k] u[k]``, are their values
    ``u[first]``, on which ``R`` acts as
    ``R[k, k'] + sigma[k'] R[k, swap[k']]`` (``R[k, k']`` in a diagonal
    column), and the odd vectors live on the couples alone, where ``R`` acts
    as ``R[k, k'] - sigma[k'] R[k, swap[k']]``.  Returns ``first``,
    ``sigma[first]`` and the even and odd blocks.
    """
    parity = 1 - 2 * (_fock_levels(n_modes, cutoff)[1::2].sum(axis=0) % 2)
    sigma = parity[left] * parity[right]
    first = np.flatnonzero(left <= right)
    couple = left[first] < right[first]
    partners = swap[first[couple]]
    even = liouvillian[np.ix_(first, first)]
    crossed = liouvillian[np.ix_(first, partners)] * sigma[partners]
    odd = even[np.ix_(couple, couple)] - crossed[couple]
    even[:, couple] += crossed
    return first, sigma[first], even, odd


def oracle_steady(spec: ChainSpec, cutoff: int, tol: float = 1e-7) -> np.ndarray:
    """Stationary occupations of the full master equation.

    The fixed point reached from the product thermal state is the leading
    eigenvector of the linear Liouvillian ``L0`` restricted to the blocks of
    ``rho`` diagonal in total boson number, normalized to unit trace.  That
    block is closed under transposition, so all the work is done in real
    arithmetic on the real matrix ``R`` of :func:`_liouvillian`, which has
    exactly the spectrum of ``L0`` there.  When every amplitude is real,
    ``R`` splits into the even and odd blocks of :func:`_parity_blocks`
    (55 + 30 rows instead of 85 at 2 modes and cutoff 5, 84 + 57 instead of
    141 at 3 modes and cutoff 3); the thermal start and the stationary state
    are even.  A chain with a complex amplitude breaks that symmetry and is
    solved on the whole of ``R``.  The eigenvalues of the blocks (real
    ``eigvals``, no vectors), which together are those of ``R``, locate the
    leading one, ``lambda_1``; two steps of inverse iteration with one real
    LU factorization of ``B - Re(lambda_1) - eps max|lambda|``, ``B`` the
    even block or ``R``, started from the thermal populations on the
    diagonal pairs (0 on the others) and normalized to unit trace (the sum
    over the diagonal pairs) after each step, give its eigenvector to
    rounding; one rounding step past ``lambda_1``, the shift misses an
    exact ``lambda_1`` (0 at ``n_th = 0``) yet stays far inside the checked
    gap: ``lambda_1`` must be real, and above the next real part, to
    ``sqrt(eps) max|lambda|``, a floor relative to the chain's own unit.
    ``L0`` maps the number-diagonal block into itself, so the residual
    ``drho/dtau = L0 rho - Tr(L0 rho) rho`` is evaluated with the whole of
    ``R``, on the ``rho`` that the coordinates describe.  It scales with
    the bath, so it passes the gate of
    :func:`~nhcool.dynamics.steady_from_dynamics`,
    ``tol * max(kappa) * max(n_th)`` (``max(n_th)`` taken as 1 when every
    bath is cold; :func:`~nhcool.steady._check_residual`).  Each state's
    diagonal pair is in the block, in state order, and its coordinate is
    the state's population, from which the occupations are read: no
    ``dim x dim`` matrix is formed.

    Raises
    ------
    SingularSystem
        If some mode carries no dissipation, the leading eigenvalue is not
        real and simple (no unique stationary state), or inverse iteration
        does not give a finite vector.
    DimensionTooLarge
        If the number-diagonal block has more than ``MAX_DIMENSION`` rows.
    ToleranceNotMet
        If the max-norm of ``drho/dtau`` at the result exceeds
        ``tol * max(kappa) * max(n_th)``, or is NaN.
    ValueError
        If ``tol`` is NaN or negative.
    """
    from scipy.linalg import eigvals, lu_factor, lu_solve

    kappa = spec.kappa_vector()
    if not np.all(kappa > 0):
        raise SingularSystem("oracle_steady needs kappa > 0 on every mode")
    left, right, swap = _sector_pairs(spec.n_modes, cutoff)
    liouvillian = _liouvillian(spec, cutoff, left, right)
    hop = build_hopping_matrix(spec)
    real = not (hop.fwd.imag.any() or hop.bwd.imag.any())
    if real:
        keep, sign, block, odd = _parity_blocks(
            liouvillian, left, right, swap, spec.n_modes, cutoff
        )
        evals = np.concatenate([eigvals(block), eigvals(odd)])
    else:
        keep, block = np.arange(len(left)), liouvillian
        evals = eigvals(block)
    order = np.argsort(evals.real)[::-1]
    lead = evals[order[0]]
    gap = lead.real - evals[order[1]].real  # cutoff >= 2: at least two rows
    scale = float(np.abs(evals).max())
    floor = np.sqrt(np.finfo(float).eps) * scale
    if abs(lead.imag) > floor or gap <= floor:
        raise SingularSystem(
            f"leading Liouvillian eigenvalue {lead:.3e} is not real and simple "
            f"(gap {gap:.3e})"
        )
    diagonal = left == right
    shifted = block.copy(order="F")  # so that the LU overwrites it in place
    shifted[np.diag_indices_from(shifted)] -= lead.real + np.finfo(float).eps * scale
    lu = lu_factor(shifted, overwrite_a=True, check_finite=False)
    # start from the thermal state: the fixed point sought is the one its flow reaches
    levels = _fock_levels(spec.n_modes, cutoff)
    vec = np.where(diagonal, _thermal_populations(spec, levels)[left], 0.0)[keep]
    with np.errstate(all="ignore"):  # a singular factor gives inf or nan, caught below
        for _ in range(2):
            vec = lu_solve(lu, vec, check_finite=False)
            vec /= vec[diagonal[keep]].sum()
    if not np.all(np.isfinite(vec)):
        raise SingularSystem("inverse iteration gave a non-finite leading eigenvector")
    if real:  # the even vector: each couple's second pair is sigma times its first
        even, vec = vec, np.empty(len(left))
        vec[swap[keep]] = sign * even
        vec[keep] = even
    flow = liouvillian @ vec
    residual = float(np.abs(_from_real(flow - flow[diagonal].sum() * vec, swap)).max())
    _check_residual(residual, kappa, spec.n_th_vector(), tol, "master-equation")
    # a diagonal pair's coordinate is its population
    populations = vec[diagonal]
    _warn_on_truncation(levels, populations)
    return levels @ populations
