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
``rho0 -> exp(L0 tau) rho0 / Tr(exp(L0 tau) rho0)`` on the union of the
sectors that the start state occupies.

``L0`` is in Lindblad form, so it maps Hermitian matrices to Hermitian
matrices.  On a set of index pairs closed under transposition, the real
coordinates ``u = Re rho + Im rho``, pair by pair, describe every Hermitian
``rho``, and ``L0`` acts on them as a real matrix ``R`` of the same size
whose complexification is ``L0``: it has exactly the spectrum of ``L0``.
When every hopping amplitude is real, ``R`` splits in two by the exact
symmetry ``rho -> S rho^T S``, ``S`` the parity of the bosons on the
odd-indexed modes.  One helper, :func:`_blocks`, turns ``R`` into the list
of blocks that both solves loop over: the even and the odd parity block of
a real chain, or the whole of ``R`` for a chain with a complex amplitude.
Both solves work in real arithmetic: real ``eigvals`` of every block plus
inverse iteration with a real LU factorization of the block that holds the
thermal state for the stationary state, and for a trajectory the dense
real Taylor exponential that also propagates the moments in
:mod:`.dynamics`, of each block on which the start has a nonzero part (the
thermal start is even, so its odd part is never propagated), squared in
step under one common power of two.  The Hilbert dimension and each
Liouvillian block are capped at ``MAX_DIMENSION`` to keep desk-scale runs
honest about their cost.  ``scipy.linalg`` is imported only by
:func:`oracle_steady`, on its first call.

Everything that depends on the basis and not on the chain is a plan,
built by :func:`_fock_plan` once per mode count, cutoff and set of number
differences and kept in a cache of the last two: the level table, the index
pairs, where each nonzero of ``R`` goes and which two values it multiplies,
and the index sets of the blocks.  Each call reads the amplitudes, ``kappa``
and ``n_th`` afresh and computes only the values.  The plan holds arrays of
a few entries per row of ``R`` and per term of ``K``, never a ``rows x rows``
array, and none of them is writeable.

The Fock basis is numpy's C order over ``(cutoff,) * n_modes``, mode 0
leftmost.  One table states it, ``levels[i, s]`` of :func:`_fock_levels`:
occupations, top-level populations, the thermal product, total boson
numbers and the ladder operators all read it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
PLAN_CACHE_SIZE = 2  # plans kept: the oracle's two sizes in the crosscheck benchmark


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


def _warn_on_truncation(tops: np.ndarray, populations: np.ndarray) -> None:
    """Warn when some mode's top level (``tops[i, s]``: mode ``i`` of Fock
    state ``s`` is at the top level) holds more than ``TOP_LEVEL_LIMIT`` of
    the Fock states' ``populations``."""
    held = tops @ populations
    worst = int(np.argmax(held))
    if held[worst] > TOP_LEVEL_LIMIT:
        warnings.warn(
            TruncationWarning(
                f"top Fock level of mode {worst} holds population "
                f"{held[worst]:.2e} (> {TOP_LEVEL_LIMIT:g}); increase the cutoff"
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


class _Block(NamedTuple):
    """A diagonal block of ``R`` in the coordinates
    ``v = (u[rows] + sign * u[mirror]) / 2`` of the real coordinates ``u``;
    ``u[mirror] = sign * v``, then ``u[rows] = v``, lifts ``v`` back."""

    rows: np.ndarray
    mirror: np.ndarray
    sign: np.ndarray
    matrix: np.ndarray | None = None

    def project(self, u: np.ndarray) -> np.ndarray:
        return (u[self.rows] + self.sign * u[self.mirror]) / 2

    def lift(self, v: np.ndarray, size: int) -> np.ndarray:
        u = np.zeros(size)
        u[self.mirror] = self.sign * v
        u[self.rows] = v
        return u


class _FockPlan(NamedTuple):
    """The index tables of one Fock basis and one set of index pairs; see
    :func:`_fock_plan`."""

    levels: np.ndarray  # the level table of _fock_levels
    tops: np.ndarray  # levels == cutoff - 1, for _warn_on_truncation
    left: np.ndarray  # the pairs of _sector_pairs
    right: np.ndarray
    swap: np.ndarray
    diagonal: np.ndarray  # left == right
    roots: np.ndarray  # sqrt(levels), sqrt(levels + 1)
    hop_roots: np.ndarray  # sqrt(levels[i]) sqrt(levels[j] + 1) of each hopping term
    jump_cols: np.ndarray  # flat column of each jump entry in a (jumps, dim + 1) table
    targets: np.ndarray  # flat position in R of each nonzero, in the order of the sum
    factors: np.ndarray  # the two positions in the value table that each nonzero multiplies
    whole: _Block  # the coordinates of R itself
    even: _Block  # and of its two parity blocks
    odd: _Block
    couple: np.ndarray  # the even block's rows that have a transposed partner


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _fock_plan(n_modes: int, cutoff: int, differences: tuple[int, ...]) -> _FockPlan:
    """The plan that :func:`_liouvillian` and :func:`_blocks` read, of
    ``n_modes`` modes at ``cutoff`` on the sectors of number differences
    ``differences`` and their negatives; the last ``PLAN_CACHE_SIZE`` are
    kept.  The size guards of :func:`_sector_pairs` run before anything is
    built.

    ``R``'s nonzeros are listed kind by kind as :func:`_liouvillian` adds
    them, each as a flat target position in ``R`` and the two positions of
    its factors in the per-call value table ``[Re K terms, Im K terms, jump
    entries, 1, -1]``: a term of ``K`` is multiplied by ``1`` or ``-1``, a
    jump entry by the other jump entry.  A table ``pos[a, b]`` of each
    pair's position, ``(dim + 1)**2`` entries, finds the targets; it is not
    kept.  The parity sets are those of
    :func:`_blocks`.
    """
    left, right, swap = _sector_pairs(n_modes, cutoff, differences)
    levels = _fock_levels(n_modes, cutoff)
    dim, size = levels.shape[1], len(left)
    states = np.arange(dim)
    strides = cutoff ** np.arange(n_modes - 1, -1, -1)
    # rows in which a_i^dag and a_i have their entry; column dim stands for none
    raised, lowered = levels > 0, levels < cutoff - 1
    hop_cols, hop_roots = [], []
    for k in range(n_modes - 1):
        # bond k: t_bwd multiplies a_k^dag a_{k+1}, t_fwd multiplies a_{k+1}^dag a_k
        for i, j in ((k, k + 1), (k + 1, k)):
            shift = strides[j] - strides[i]
            hop_cols.append(np.where(raised[i] & lowered[j], states + shift, dim))
            hop_roots.append(np.sqrt(levels[i]) * np.sqrt(levels[j] + 1))
    # rows 2i and 2i + 1: the down- and the up-jump of mode i
    jump_cols = np.stack([np.where(lowered, states + strides[:, None], dim),
                          np.where(raised, states - strides[:, None], dim)], 1).reshape(-1, dim)
    k_cols = np.array([states, *hop_cols])

    # the value table: Re and Im of the K terms, the jump entries, then 1 and -1
    terms = np.arange(len(k_cols))[:, None] * dim
    jumps = np.arange(len(jump_cols))[:, None] * dim + 2 * k_cols.size
    one = 2 * k_cols.size + jump_cols.size
    pos = np.full((dim + 1, dim + 1), -1)
    pos[left, right] = np.arange(size)
    k_left, k_right = k_cols[:, left], k_cols[:, right]
    kinds = (  # column of each entry in its row, and its two factors
        (pos[k_left, right], terms + left, one),
        (pos[left, k_right], terms + right, one),
        (pos[right, k_left], k_cols.size + terms + left, one),
        (pos[k_right, left], k_cols.size + terms + right, one + 1),
        (pos[jump_cols[:, left], jump_cols[:, right]], jumps + left, jumps + right),
    )
    row_starts = np.arange(size) * size
    targets, firsts, seconds = [], [], []
    for cols, first, second in kinds:
        hit = cols >= 0
        targets.append((row_starts + cols)[hit])
        firsts.append(np.broadcast_to(first, cols.shape)[hit])
        seconds.append(np.broadcast_to(second, cols.shape)[hit])

    parity = 1.0 - 2 * (levels[1::2].sum(axis=0) % 2)
    sigma = parity[left] * parity[right]
    first = np.flatnonzero(left <= right)
    couple = left[first] < right[first]
    paired = first[couple]
    every = np.arange(size)
    plan = _FockPlan(
        levels=levels,
        tops=levels == cutoff - 1,
        left=left,
        right=right,
        swap=swap,
        diagonal=left == right,
        roots=np.sqrt([levels, levels + 1]),
        hop_roots=np.array(hop_roots).reshape(-1, dim),
        jump_cols=(np.arange(len(jump_cols))[:, None] * (dim + 1) + jump_cols).ravel(),
        targets=np.concatenate(targets),
        factors=np.array([np.concatenate(firsts), np.concatenate(seconds)]),
        whole=_Block(every, every, np.ones(size)),
        even=_Block(first, swap[first], sigma[first]),
        odd=_Block(paired, swap[paired], -sigma[paired]),
        couple=np.flatnonzero(couple),
    )
    for value in plan:
        for array in value[:3] if isinstance(value, _Block) else (value,):
            array.flags.writeable = False
    return plan


def _to_real(rho: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """Real coordinates ``u = Re rho + Im rho`` of a Hermitian ``rho`` on a
    transpose-closed set of pairs; on any other ``rho`` the complex-linear
    extension, whose real and imaginary parts are the coordinates of its
    Hermitian part and of its anti-Hermitian part over ``i``."""
    return ((1 - 1j) * rho + (1 + 1j) * rho[swap]) / 2


def _from_real(u: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """The ``rho`` with coordinates ``u``: the inverse of :func:`_to_real`."""
    return ((1 + 1j) * u + (1 - 1j) * u[swap]) / 2


def _liouvillian(spec: ChainSpec, plan: _FockPlan) -> np.ndarray:
    """Dense real block ``R`` of the linear Liouvillian ``L0`` on the index
    pairs ``(left[k], right[k])`` of ``plan``, in the coordinates of
    :func:`_to_real`.

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
    below the top level, and ``a_i^dag`` the transposed entries.  Where each
    entry goes is the plan's; here only the values are computed, and one
    ``bincount`` adds them.  Each of the five kinds of entry meets a position
    at most once, and ``bincount`` adds in the order of the plan's list,
    kind by kind in the order of the sum above, so ``R`` is the dense
    restriction of the Kronecker form bit for bit.  A mode without a bath,
    or at zero temperature, contributes zero jump operators.
    """
    dim, size = plan.levels.shape[1], len(plan.left)
    hop = build_hopping_matrix(spec)
    amplitudes = [t for k in range(spec.n_modes - 1) for t in (hop.bwd[k], hop.fwd[k])]
    kappa, n_th = spec.kappa_vector()[:, None], spec.n_th_vector()[:, None]
    jump_amps = np.stack([np.sqrt(kappa * (1.0 + n_th)) * plan.roots[1],
                          np.sqrt(kappa * n_th) * plan.roots[0]], 1).reshape(-1, dim)
    # each J^dag J is diagonal: J's squared entries, in their columns
    squares = np.zeros((len(jump_amps), dim + 1))
    squares.ravel()[plan.jump_cols] = (jump_amps * jump_amps).ravel()
    k_amps = np.array([-0.5 * sum(squares[:, :dim]),
                       *(-1j * t * roots for t, roots in zip(amplitudes, plan.hop_roots))],
                      dtype=complex)
    table = np.concatenate([k_amps.real.ravel(), k_amps.imag.ravel(), jump_amps.ravel(),
                            (1.0, -1.0)])
    values = table[plan.factors[0]] * table[plan.factors[1]]
    return np.bincount(plan.targets, values, size * size).reshape(size, size)


def _blocks(spec: ChainSpec, plan: _FockPlan, liouvillian: np.ndarray) -> list[_Block]:
    """The blocks of ``R`` that the solves work on: the whole of ``R`` for a
    chain with a complex amplitude, else its even and odd blocks under the
    exact symmetry ``rho -> S rho^T S``, ``S = (-1)**N_odd``, ``N_odd`` the
    number of bosons on the odd-indexed modes.  The first block holds the
    thermal state.

    A nearest-neighbour hop moves one boson between an even- and an
    odd-indexed mode, so ``S H S = -H``, and ``S a_i S = +-a_i``; with ``H``
    real, ``S conj(K) S = K`` and the map commutes with ``L0``.  In the real
    coordinates it reads ``(Q u)[k] = sigma[k] u[swap[k]]`` with
    ``sigma = s[left] s[right]``, ``s`` the diagonal of ``S``, and ``Q`` is
    an involution that commutes with ``R``.  The even block's rows are the
    diagonal pairs and the first pair of each transposed couple
    (``left <= right``); the even vectors, ``u[swap[k]] = sigma[k] u[k]``,
    are their values there, on which ``R`` acts as
    ``R[k, k'] + sigma[k'] R[k, swap[k']]`` (``R[k, k']`` in a diagonal
    column), and the odd vectors live on the couples alone, where ``R`` acts
    as ``R[k, k'] - sigma[k'] R[k, swap[k']]``.  The blocks have 55 + 30
    rows instead of 85 at 2 modes and cutoff 5, 84 + 57 instead of 141 at 3
    modes and cutoff 3.
    """
    hop = build_hopping_matrix(spec)
    if hop.fwd.imag.any() or hop.bwd.imag.any():
        return [plan.whole._replace(matrix=liouvillian)]
    even, odd, couple = plan.even, plan.odd, plan.couple
    rows = liouvillian.take(even.rows, 0)
    block = rows.take(even.rows, 1)
    crossed = rows.take(odd.mirror, 1) * odd.sign  # -sigma[k'] R[k, swap[k']]
    odd_block = block.take(couple, 0).take(couple, 1) + crossed.take(couple, 0)
    block[:, couple] -= crossed
    return [even._replace(matrix=block), odd._replace(matrix=odd_block)]


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
    taken with its transpose, into itself.  On that union ``L0`` is the
    complexification of a real matrix ``R`` (see :func:`_liouvillian`),
    which :func:`_blocks` splits into its parity blocks when every amplitude
    is real.  ``rho0`` is first scaled by the power of two that brings its
    largest real or imaginary part into ``[1/2, 1)``, so that a start of any
    finite scale propagates as a unit one: neither a population of 1.5e308
    nor a lone coherence of 5e-324 over- or underflows in the coordinates.
    It splits into a Hermitian part and ``i`` times another
    Hermitian part, both with real coordinates; each of those splits into
    its parts on the blocks, and each block on which some part is nonzero
    is propagated by the dense real Taylor exponential with scaling and
    squaring of :func:`~nhcool.dynamics._expm_taylor`.  It squares the
    blocks in step and rescales them by one common power of two before each
    squaring, so the growth ``exp(lambda_1 t_end)`` cannot overflow, the
    parts keep their relative scale, and the trace normalization removes
    the common one with the start's.  The parts are then recombined, so a start that is not
    Hermitian, or not of one parity, is propagated exactly too.

    The cost is O(n^3) in the propagated blocks' rows ``n`` and grows with
    ``log(|R| t_end)`` only until the flow has converged, when the squarings
    stop.  A thermal or number state occupies sector 0 alone and, on a real
    chain, only its even block: 55 of the 85 rows at 2 modes and cutoff 5.
    A coherent start pays ``(sum rows)**3``, not ``sum rows**3``, over its
    sectors (393 rows against 141 + 126 + 126 at three modes and cutoff 3),
    split in two by parity on a real chain.

    Raises
    ------
    ValueError
        If ``t_end`` is not finite and >= 0, ``rho0`` has another mode count,
        ``rho0`` has no nonzero entry or a propagated block's 1-norm is not
        finite.
    DimensionTooLarge
        If the occupied sectors have more than ``MAX_DIMENSION`` rows together.
    """
    if rho0.n_modes != spec.n_modes:
        raise ValueError("initial state and chain have different mode counts")
    t_end = Trajectory.check_end(t_end)
    total = _fock_levels(rho0.n_modes, rho0.cutoff).sum(axis=0, dtype=np.int16)
    occupied = np.unique((total[:, None] - total)[rho0.rho != 0])
    if not occupied.size:
        raise ValueError("initial state has no nonzero entry")
    # the size guard runs before any operator is allocated
    plan = _fock_plan(rho0.n_modes, rho0.cutoff, tuple(occupied.tolist()))
    # a power of two brings the start's largest part into [1/2, 1), so that
    # its coordinates neither over- nor underflow; the trace removes it
    entries = rho0.rho[plan.left, plan.right].astype(complex).view(float)
    entries = np.ldexp(entries, -np.frexp(np.abs(entries).max())[1]).view(complex)
    # the real and imaginary parts of the start's coordinates are those of
    # its Hermitian part and of its anti-Hermitian part over i
    start = _to_real(entries, plan.swap)
    parts = []
    for block in _blocks(spec, plan, _liouvillian(spec, plan)):
        real, imag = block.project(start.real), block.project(start.imag)
        if real.any() or imag.any():  # a zero part stays zero
            parts.append((block, real, imag))
    # exp(R tau) on each block, up to one common power of two
    propagators = _expm_taylor([block.matrix for block, _, _ in parts], t_end)
    size = len(plan.left)
    coordinates = [
        block.lift(propagator @ real, size) + 1j * block.lift(propagator @ imag, size)
        for (block, real, imag), propagator in zip(parts, propagators)
    ]
    rho = np.zeros_like(rho0.rho, dtype=complex)
    rho[plan.left, plan.right] = _from_real(sum(coordinates[1:], coordinates[0]), plan.swap)
    state = FockDensityMatrix(
        rho=rho / np.trace(rho), cutoff=rho0.cutoff, n_modes=rho0.n_modes
    )
    _warn_on_truncation(plan.tops, np.real(np.diag(state.rho)))
    return state


def oracle_steady(spec: ChainSpec, cutoff: int, tol: float = 1e-7) -> np.ndarray:
    """Stationary occupations of the full master equation.

    The fixed point reached from the product thermal state is the leading
    eigenvector of the linear Liouvillian ``L0`` restricted to the blocks of
    ``rho`` diagonal in total boson number, normalized to unit trace.  That
    block is closed under transposition, so all the work is done in real
    arithmetic on the real matrix ``R`` of :func:`_liouvillian`, which has
    exactly the spectrum of ``L0`` there, split by :func:`_blocks` into its
    even and odd blocks when every amplitude is real; the thermal start and
    the stationary state are even.  A chain with a complex amplitude breaks
    that symmetry and is solved on the whole of ``R``.  The eigenvalues of
    the blocks (real ``eigvals``, no vectors), which together are those of
    ``R``, locate the leading one, ``lambda_1``; two steps of inverse
    iteration with one real LU factorization of
    ``B - Re(lambda_1) - eps max|lambda|``, ``B`` the even block or ``R``,
    started from the thermal populations on the diagonal pairs (0 on the
    others) and normalized to unit trace (the sum over the diagonal pairs)
    after each step, give its eigenvector to rounding; one rounding step
    past ``lambda_1``, the shift misses an exact ``lambda_1`` (0 at
    ``n_th = 0``) yet stays far inside the checked gap: ``lambda_1`` must be
    real, and above the next real part, to ``sqrt(eps) max|lambda|``, a
    floor relative to the chain's own unit.  ``L0`` maps the number-diagonal
    block into itself, so the residual ``drho/dtau = L0 rho - Tr(L0 rho) rho``
    is evaluated with the whole of ``R``, on the ``rho`` that the coordinates
    describe.  It scales with the bath, so it passes the gate of
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
    plan = _fock_plan(spec.n_modes, cutoff, (0,))
    liouvillian = _liouvillian(spec, plan)
    blocks = _blocks(spec, plan, liouvillian)
    evals = np.concatenate([eigvals(block.matrix) for block in blocks])
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
    thermal = blocks[0]
    shifted = thermal.matrix.copy(order="F")  # so that the LU overwrites it in place
    shifted[np.diag_indices_from(shifted)] -= lead.real + np.finfo(float).eps * scale
    lu = lu_factor(shifted, overwrite_a=True, check_finite=False)
    # start from the thermal state: the fixed point sought is the one its flow reaches
    diagonal = plan.diagonal
    vec = np.where(diagonal, _thermal_populations(spec, plan.levels)[plan.left], 0.0)[thermal.rows]
    traced = diagonal[thermal.rows]
    with np.errstate(all="ignore"):  # a singular factor gives inf or nan, caught below
        for _ in range(2):
            vec = lu_solve(lu, vec, check_finite=False)
            vec /= vec[traced].sum()
    if not np.all(np.isfinite(vec)):
        raise SingularSystem("inverse iteration gave a non-finite leading eigenvector")
    vec = thermal.lift(vec, len(plan.left))
    flow = liouvillian @ vec
    residual = float(np.abs(_from_real(flow - flow[diagonal].sum() * vec, plan.swap)).max())
    _check_residual(residual, kappa, spec.n_th_vector(), tol, "master-equation")
    # a diagonal pair's coordinate is its population
    populations = vec[diagonal]
    _warn_on_truncation(plan.tops, populations)
    return plan.levels @ populations
