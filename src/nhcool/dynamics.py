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
  in the presence of dissipation.

The moment equations are written once, as a sparse operator on the band
(occupations and nearest-neighbour coherences; the other coherences only
decay).  Its fixed point is a sparse linear system that
:func:`steady_from_dynamics` solves directly, in O(N) time and memory, and
so cross-checks the stationary rate-equation solver without going through
the rate formula.

scipy (``scipy.sparse`` for the operator and its LU, ``scipy.integrate`` for
the trajectories) is imported on the first call that needs it, so importing
this module costs no scipy start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    """Linearized second-moment equations, written once as a band operator.

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

    The band (the ``N`` occupations, then ``C[k, k+1]``, then ``C[k+1, k]``)
    therefore evolves on its own: ``system`` is the sparse ``(3N - 2)``-square
    matrix of those equations and ``source`` the thermal pump, so
    ``band(x) = system @ x + source`` is ``dC/dtau`` on the band.  Calling
    the generator on a full ``N x N`` matrix adds the pure decay of the
    entries off the band.
    """

    def __init__(self, spec: ChainSpec):
        import scipy.sparse as sp

        n = self.n = spec.n_modes
        hop = build_hopping_matrix(spec)
        t_fwd, t_bwd = hop.fwd, hop.bwd
        self.kappa = spec.kappa_vector()
        self.n_th = spec.n_th_vector()
        occ = np.arange(n)
        up = n + np.arange(n - 1)
        lo = up + (n - 1)
        left, right = occ[:-1], occ[1:]
        bond_decay = 0.5 * (self.kappa[:-1] + self.kappa[1:])
        # (row, column, coefficient) of every term of the equations on the band
        terms = [
            (occ, occ, -self.kappa),
            # bond k's current enters dn_k and leaves dn_{k+1}
            (left, lo, 1j * t_fwd), (left, up, -1j * t_bwd),
            (right, lo, -1j * t_fwd), (right, up, 1j * t_bwd),
            # each bond coherence is driven by its two occupations and decays
            (up, up, -bond_decay), (up, right, 1j * np.conj(t_bwd)), (up, left, -1j * t_fwd),
            (lo, lo, -bond_decay), (lo, left, 1j * np.conj(t_fwd)), (lo, right, -1j * t_bwd),
        ]
        rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
        self.system = sp.csc_matrix((vals, (rows, cols)), shape=(3 * n - 2, 3 * n - 2))
        self.source = np.zeros(3 * n - 2, dtype=complex)
        self.source[:n] = self.kappa * self.n_th
        # flat positions of the band unknowns in a row-major N x N matrix
        self.band_pos = np.concatenate([occ * (n + 1), left * n + right, right * n + left])

    @cached_property
    def decay(self) -> np.ndarray:
        return -0.5 * (self.kappa[:, None] + self.kappa[None, :])

    def band(self, x: np.ndarray) -> np.ndarray:
        return self.system @ x + self.source

    def __call__(self, cov: np.ndarray) -> np.ndarray:
        out = self.decay * cov
        out.flat[self.band_pos] = self.band(cov.flat[self.band_pos])
        return out


def covariance_rhs(spec: ChainSpec, cov: np.ndarray) -> np.ndarray:
    """Time derivative of the second-moment matrix ``<a_i^dag a_j>``."""
    cov = np.asarray(cov, dtype=complex)
    n = spec.n_modes
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be {n} x {n}, got {cov.shape}")
    return _MomentGenerator(spec)(cov)


def _occupation_scale(n_th: np.ndarray) -> float:
    return float(n_th.max()) if n_th.size and n_th.max() > 0 else 1.0


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
    from scipy.integrate import solve_ivp

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
        atol=tol * _occupation_scale(gen.n_th),
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=float),
    )
    if not sol.success:
        raise ToleranceNotMet(f"moment integration failed: {sol.message}")
    covs = sol.y.T.reshape(-1, n, n)
    occupations = np.real(np.diagonal(covs, axis1=1, axis2=2))
    return Trajectory(times=sol.t, occupations=occupations, covariances=covs)


def steady_from_dynamics(spec: ChainSpec, tol: float = 1e-6) -> SteadyState:
    """Stationary occupations of the moment equations, solved directly.

    Under the bond-local closure the coherences between non-bonded modes only
    decay, so the fixed point lives on the band: the ``N`` occupations and the
    ``2 (N - 1)`` bond coherences ``C[k, k+1]`` and ``C[k+1, k]``.  The
    generator's band operator is factored by sparse LU and the solve takes
    one step of iterative refinement.  ``residual`` is the max-norm of
    ``dC/dtau`` at the returned state, evaluated on the band.

    Raises
    ------
    SingularSystem
        If some mode carries no dissipation (the transient never dies), or
        the stationary system is numerically singular.
    ToleranceNotMet
        If the residual exceeds ``tol * max(kappa) * max(n_th)``.
    """
    from scipy.sparse.linalg import splu

    gen = _MomentGenerator(spec)
    if not np.all(gen.kappa > 0):
        raise SingularSystem("steady_from_dynamics needs kappa > 0 on every mode")
    try:
        lu = splu(gen.system)
    except RuntimeError as exc:
        raise SingularSystem(f"the stationary moment system is singular: {exc}") from exc
    # One refinement step makes the LU solve componentwise backward stable,
    # which keeps the smallest occupations accurate to a few ulps.
    x = lu.solve(-gen.source)
    x -= lu.solve(gen.band(x))
    residual = float(np.abs(gen.band(x)).max())
    threshold = tol * float(gen.kappa.max()) * _occupation_scale(gen.n_th)
    if residual > threshold:
        raise ToleranceNotMet(
            f"stationary moment residual {residual:.3e} exceeds {threshold:.3e}"
        )
    return SteadyState(occupations=np.real(x[:gen.n]).copy(), residual=residual)
