"""Time-domain engines for non-reciprocal chains.

Two engines live here because no single linear equation covers both regimes:

* :func:`single_excitation_trace` evolves one excitation without dissipation
  and renormalizes the amplitude vector at every reported time.  This is the
  engine behind the unbalanced Rabi oscillation; the renormalization realizes
  the trace-preserving nonlinearity of the underlying master equation, which
  the linearized moment equations cannot reproduce (they would let the
  occupation dip below zero).
* :func:`evolve_covariance` integrates the linearized equations of motion of
  the second moments ``C[i, j] = <a_i^dag a_j>``, valid for small occupations
  in the presence of dissipation.  Its long-time limit cross-checks the
  stationary rate-equation solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ._stationary import integrate_to_stationarity
from .errors import SingularSystem, ToleranceNotMet
from .model import ChainSpec, build_hopping_matrix
from .steady import SteadyState

__all__ = [
    "Trajectory",
    "single_excitation_trace",
    "covariance_rhs",
    "evolve_covariance",
    "steady_from_dynamics",
]


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: occupations per mode, optionally full moments."""

    times: np.ndarray
    occupations: np.ndarray
    covariances: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.times) != len(self.occupations):
            raise ValueError("times and occupations must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def single_excitation_trace(
    spec: ChainSpec, initial_site: int, tau_grid: np.ndarray
) -> Trajectory:
    """Normalized one-excitation dynamics, dissipation ignored.

    The amplitude vector obeys ``i dc/dtau = h c`` and is renormalized to
    unit norm at every reported time; occupations are ``|c_i|**2``.
    ``initial_site`` is a zero-based mode index.

    For the canonical two-mode system with ``exp(A) = 2`` started on site 0
    this reproduces ``n_1 = cos^2 / (cos^2 + 4 sin^2)`` with period ``pi/t``.
    """
    n = spec.n_modes
    if not 0 <= initial_site < n:
        raise IndexError(f"initial_site {initial_site} out of range for {n} modes")
    tau = np.asarray(tau_grid, dtype=float)
    h = build_hopping_matrix(spec).matrix
    evals, vecs = np.linalg.eig(h)
    coeff = np.linalg.solve(vecs, np.eye(n, dtype=complex)[:, initial_site])
    # amplitudes[:, k] = V exp(-i L tau_k) V^-1 e_site
    phases = np.exp(-1j * np.outer(evals, tau))
    amps = vecs @ (coeff[:, None] * phases)
    # Rescale before taking norms; non-reducible chains can grow exponentially.
    peak = np.abs(amps).max(axis=0)
    peak[peak == 0.0] = 1.0
    amps = amps / peak
    amps /= np.linalg.norm(amps, axis=0, keepdims=True)
    occupations = np.abs(amps.T) ** 2
    return Trajectory(times=tau, occupations=occupations)


class _MomentGenerator:
    """Cached right-hand side of the linearized second-moment equations.

    Occupations follow ``dn_i = sum_bonds i [t_ij <a_i a_j^dag> - t_ji
    <a_i^dag a_j>] - kappa_i (n_i - n_th_i)`` and each bond coherence is
    driven by the occupations of its own two modes while decaying at the mean
    of their dissipation rates.  At two modes this matches the moment
    equations of the non-reciprocal dimer coefficient by coefficient.

    Coherences between non-bonded modes only decay: this bond-local closure
    is what makes the stationary state of the moment flow coincide exactly
    with the nearest-neighbour rate equations (retaining the exact
    longer-range couplings lets the next-nearest pair coherence grow to the
    size of an occupation and rewires the transport away from the
    nearest-neighbour rate picture).
    """

    def __init__(self, spec: ChainSpec):
        self.n = spec.n_modes
        hop = build_hopping_matrix(spec)
        self.t_fwd, self.t_bwd = hop.fwd, hop.bwd
        self.kappa = spec.kappa_vector()
        self.n_th = spec.n_th_vector()
        self.decay = 0.5 * (self.kappa[:, None] + self.kappa[None, :])
        self.pump = self.kappa * self.n_th

    def __call__(self, cov: np.ndarray) -> np.ndarray:
        occ = np.diag(cov)
        out = -self.decay * cov
        # bond k adds this current to dn_k and removes it from dn_{k+1}
        current = 1j * (self.t_fwd * np.diagonal(cov, -1) - self.t_bwd * np.diagonal(cov, 1))
        gain = self.pump.astype(complex)
        gain[:-1] += current
        gain[1:] -= current
        upper = 1j * (np.conj(self.t_bwd) * occ[1:] - self.t_fwd * occ[:-1])
        lower = 1j * (np.conj(self.t_fwd) * occ[:-1] - self.t_bwd * occ[1:])
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] += upper
        out[idx + 1, idx] += lower
        # decay already contributes -kappa_i * n_i on the diagonal
        out[np.diag_indices(self.n)] += gain
        return out


def covariance_rhs(spec: ChainSpec, cov: np.ndarray) -> np.ndarray:
    """Time derivative of the second-moment matrix ``<a_i^dag a_j>``."""
    cov = np.asarray(cov, dtype=complex)
    n = spec.n_modes
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be {n} x {n}, got {cov.shape}")
    return _MomentGenerator(spec)(cov)


def _integration_atol(tol: float, n_th: np.ndarray) -> float:
    scale = float(n_th.max()) if n_th.size and n_th.max() > 0 else 1.0
    return tol * scale


def evolve_covariance(
    spec: ChainSpec,
    cov0: np.ndarray,
    t_end: float,
    tol: float = 1e-8,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the linearized moment equations up to ``t_end``.

    Uses an embedded adaptive Runge-Kutta pair with relative tolerance ``tol``
    and absolute tolerance ``tol * max(n_th)``; reported times come from
    ``t_eval`` (dense interpolation) or from the accepted steps.
    """
    gen = _MomentGenerator(spec)
    n = gen.n
    cov0 = np.asarray(cov0, dtype=complex)
    if cov0.shape != (n, n):
        raise ValueError(f"covariance must be {n} x {n}, got {cov0.shape}")

    def rhs(_t, y):
        return gen(y.reshape(n, n)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        cov0.ravel(),
        method="RK45",
        rtol=tol,
        atol=_integration_atol(tol, gen.n_th),
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=float),
    )
    if not sol.success:
        raise ToleranceNotMet(f"moment integration failed: {sol.message}")
    covs = sol.y.T.reshape(-1, n, n)
    occupations = np.real(np.diagonal(covs, axis1=1, axis2=2))
    return Trajectory(times=sol.t, occupations=occupations, covariances=covs)


def steady_from_dynamics(
    spec: ChainSpec,
    tol: float = 1e-6,
    time_budget: float | None = None,
) -> SteadyState:
    """Stationary occupations found by integrating the moment equations.

    Starts from the uncorrelated bath state ``C = diag(n_th)`` and stops once
    the max-norm of ``dC/dtau`` falls below ``tol * max(kappa) * max(n_th)``.
    ``time_budget`` defaults to ``50 / min(kappa)``.

    Raises
    ------
    SingularSystem
        If some mode carries no dissipation (the transient never dies).
    NotConverged
        If the threshold is not reached within the time budget.
    """
    gen = _MomentGenerator(spec)
    if not np.all(gen.kappa > 0):
        raise SingularSystem("steady_from_dynamics needs kappa > 0 on every mode")
    n = gen.n
    scale = float(gen.n_th.max()) if gen.n_th.max() > 0 else 1.0
    threshold = tol * float(gen.kappa.max()) * scale
    budget = 50.0 / float(gen.kappa.min()) if time_budget is None else float(time_budget)
    cov0 = np.diag(gen.n_th).astype(complex)

    def rhs(_t, y):
        return gen(y.reshape(n, n)).ravel()

    def derivative_norm(y):
        return float(np.abs(gen(y.reshape(n, n))).max())

    # The generator amplifies integration wobble into |dC/dtau| and the RMS
    # error norm lets single components drift sqrt(dim) above the tolerance,
    # so local error control must sit well below threshold / (|generator| *
    # sqrt(dim)).  The eighth-order pair reaches a given wobble floor at a
    # fraction of the cost of the 4/5 pair used for plain trajectories.
    row_sums = np.abs(np.append(0.0, gen.t_fwd)) + np.abs(np.append(gen.t_bwd, 0.0))
    gen_scale = max(1.0, float(row_sums.max()) + float(gen.kappa.max()))
    integ_tol = float(np.clip(threshold / (20.0 * gen_scale * n * scale), 1e-13, 1e-8))
    final = integrate_to_stationarity(
        rhs,
        derivative_norm,
        cov0.ravel(),
        threshold=threshold,
        budget=budget,
        chunk=2.0 / float(gen.kappa.max()),
        rtol=integ_tol,
        atol=_integration_atol(integ_tol, gen.n_th),
    )
    cov = final.reshape(n, n)
    return SteadyState(
        occupations=np.real(np.diag(cov)).copy(),
        residual=float(np.abs(gen(cov)).max()),
    )
