"""Brute-force master equation on a truncated Fock space.

This is the ground-truth layer: the trace-corrected master equation for a
non-Hermitian Hamiltonian,

    drho/dtau = -i (H rho - rho H^dag) + i Tr{rho (H - H^dag)} rho
                + sum_i D[o_i] rho,

with the standard thermal dissipators ``o_down = sqrt(kappa (1 + n_th)) a``
and ``o_up = sqrt(kappa n_th) a^dag`` per mode.  The trace-correction term
makes ``d Tr rho / dtau`` vanish identically, which doubles as the main
correctness check.  Written as ``rho' = L0 rho - Tr(L0 rho) rho`` with the
linear Liouvillian ``L0``, its stable fixed point is the eigenvector of
``L0`` whose eigenvalue has the largest real part; :func:`oracle_steady`
computes it on the blocks of ``rho`` that are diagonal in total boson number
(the only blocks the thermal start state reaches), while
:func:`evolve_master_equation` integrates trajectories.  Everything is dense;
the Hilbert dimension and the Liouvillian block are capped at
``MAX_DIMENSION`` to keep desk-scale runs honest about their cost.
``scipy.linalg`` and ``scipy.integrate`` are imported on the first call that
needs them.
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

    def trace_error(self) -> float:
        return abs(np.trace(self.rho) - 1.0)

    def hermiticity_error(self) -> float:
        return float(np.abs(self.rho - self.rho.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())

    def _diag_populations(self) -> np.ndarray:
        diag = np.real(np.diag(self.rho))
        return diag.reshape((self.cutoff,) * self.n_modes)

    def occupations(self) -> np.ndarray:
        """Mean boson number of each mode."""
        pops = self._diag_populations()
        levels = np.arange(self.cutoff, dtype=float)
        out = np.empty(self.n_modes)
        for i in range(self.n_modes):
            axes = tuple(ax for ax in range(self.n_modes) if ax != i)
            out[i] = pops.sum(axis=axes) @ levels
        return out

    def top_level_populations(self) -> np.ndarray:
        """Population of the highest retained Fock level, per mode."""
        pops = self._diag_populations()
        out = np.empty(self.n_modes)
        for i in range(self.n_modes):
            out[i] = pops.take(indices=self.cutoff - 1, axis=i).sum()
        return out


def _check_dimension(n_modes: int, cutoff: int) -> int:
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    dim = cutoff**n_modes
    if dim > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"cutoff**n_modes = {dim} exceeds the dense guard rail {MAX_DIMENSION}"
        )
    return dim


def _lowering_operators(n_modes: int, cutoff: int) -> list[np.ndarray]:
    _check_dimension(n_modes, cutoff)
    single = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)
    ops = []
    for i in range(n_modes):
        factors = [single if j == i else eye for j in range(n_modes)]
        ops.append(reduce(np.kron, factors).astype(complex))
    return ops


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


class _MasterEquation:
    """Cached operators and right-hand side on the truncated space."""

    def __init__(self, spec: ChainSpec, cutoff: int):
        self.n_modes = spec.n_modes
        self.cutoff = cutoff
        self.dim = _check_dimension(spec.n_modes, cutoff)
        lowering = _lowering_operators(spec.n_modes, cutoff)
        hop = build_hopping_matrix(spec)
        ham = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(spec.n_modes - 1):
            # bond k: t_bwd multiplies a_k^dag a_{k+1}, t_fwd multiplies a_{k+1}^dag a_k
            ham += hop.bwd[k] * (lowering[k].conj().T @ lowering[k + 1])
            ham += hop.fwd[k] * (lowering[k + 1].conj().T @ lowering[k])
        self.ham = ham
        self.ham_dag = ham.conj().T
        self.ham_skew = ham - self.ham_dag
        self.jumps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for i, mode in enumerate(spec.modes):
            if mode.kappa == 0:
                continue
            ops = [np.sqrt(mode.kappa * (1.0 + mode.n_th)) * lowering[i]]
            if mode.n_th > 0:
                ops.append(np.sqrt(mode.kappa * mode.n_th) * lowering[i].conj().T)
            for op in ops:
                op_dag = op.conj().T
                self.jumps.append((op, op_dag, op_dag @ op))

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.ham @ rho - rho @ self.ham_dag)
        out += 1j * np.einsum("ij,ji->", rho, self.ham_skew) * rho
        for op, op_dag, op_norm in self.jumps:
            out += op @ rho @ op_dag - 0.5 * (op_norm @ rho + rho @ op_norm)
        return out


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


def evolve_master_equation(
    spec: ChainSpec,
    rho0: FockDensityMatrix,
    t_end: float,
    tol: float = 1e-8,
) -> FockDensityMatrix:
    """Integrate the trace-corrected master equation up to ``t_end``."""
    from scipy.integrate import solve_ivp

    gen = _MasterEquation(spec, rho0.cutoff)
    if rho0.n_modes != spec.n_modes:
        raise ValueError("initial state and chain have different mode counts")
    dim = gen.dim

    def rhs(_t, y):
        return gen(y.reshape(dim, dim)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        rho0.rho.ravel(),
        method="RK45",
        rtol=tol,
        atol=tol,
    )
    if not sol.success:
        raise ToleranceNotMet(f"master-equation integration failed: {sol.message}")
    state = FockDensityMatrix(
        rho=sol.y[:, -1].reshape(dim, dim), cutoff=rho0.cutoff, n_modes=rho0.n_modes
    )
    _warn_on_truncation(state)
    return state


def _sector_pairs(n_modes: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(a, b)`` of Fock states with equal total boson number.

    Raises :class:`DimensionTooLarge` when there are more than
    ``MAX_DIMENSION`` pairs, before any Liouvillian is allocated.
    """
    _check_dimension(n_modes, cutoff)
    total = np.indices((cutoff,) * n_modes).reshape(n_modes, -1).sum(axis=0)
    sectors = [np.flatnonzero(total == count) for count in range(total.max() + 1)]
    size = sum(len(states) ** 2 for states in sectors)
    if size > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"number-diagonal Liouvillian block has {size} rows, exceeding the "
            f"dense guard rail {MAX_DIMENSION}"
        )
    left = np.concatenate([np.repeat(states, len(states)) for states in sectors])
    right = np.concatenate([np.tile(states, len(states)) for states in sectors])
    return left, right


def oracle_steady(spec: ChainSpec, cutoff: int, tol: float = 1e-7) -> np.ndarray:
    """Stationary occupations of the full master equation.

    The fixed point reached from the product thermal state is the leading
    eigenvector of the linear Liouvillian ``L0`` restricted to the blocks of
    ``rho`` diagonal in total boson number, normalized to unit trace.  With
    ``rho`` flattened row-major, ``A rho B`` acts as ``kron(A, B.T)``; the
    block keeps the rows and columns of that Kronecker product whose index
    pairs have equal total number, and a dense eigensolve does the rest.

    Raises
    ------
    SingularSystem
        If some mode carries no dissipation, or the leading eigenvalue is
        not real and simple (no unique stationary state).
    DimensionTooLarge
        If the number-diagonal block has more than ``MAX_DIMENSION`` rows.
    ToleranceNotMet
        If the max-norm of ``drho/dtau`` at the result exceeds ``tol``.
    """
    from scipy.linalg import eig

    kappa = spec.kappa_vector()
    if not np.all(kappa > 0):
        raise SingularSystem("oracle_steady needs kappa > 0 on every mode")
    left, right = _sector_pairs(spec.n_modes, cutoff)
    gen = _MasterEquation(spec, cutoff)

    def block(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
        # rows and columns of kron(a, b_t) on the retained index pairs
        return a[np.ix_(left, left)] * b_t[np.ix_(right, right)]

    eye = np.eye(gen.dim)
    liouvillian = -1j * (block(gen.ham, eye) - block(eye, gen.ham_dag.T))
    for op, _op_dag, op_norm in gen.jumps:
        liouvillian += block(op, op.conj())
        liouvillian -= 0.5 * (block(op_norm, eye) + block(eye, op_norm.T))
    evals, evecs = eig(liouvillian)
    order = np.argsort(evals.real)[::-1]
    lead = evals[order[0]]
    gap = lead.real - evals[order[1]].real  # cutoff >= 2: at least two rows
    floor = np.sqrt(np.finfo(float).eps) * max(1.0, float(np.abs(evals).max()))
    if abs(lead.imag) > floor or gap <= floor:
        raise SingularSystem(
            f"leading Liouvillian eigenvalue {lead:.3e} is not real and simple "
            f"(gap {gap:.3e})"
        )
    rho = np.zeros((gen.dim, gen.dim), dtype=complex)
    rho[left, right] = evecs[:, order[0]]
    rho /= np.trace(rho)
    residual = float(np.abs(gen(rho)).max())
    if residual > tol:
        raise ToleranceNotMet(
            f"stationary master-equation residual {residual:.3e} exceeds {tol:.3e}"
        )
    state = FockDensityMatrix(rho=rho, cutoff=cutoff, n_modes=spec.n_modes)
    _warn_on_truncation(state)
    return state.occupations()
