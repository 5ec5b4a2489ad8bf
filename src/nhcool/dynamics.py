"""Time-domain engines for non-reciprocal chains.

Two engines live here because no single linear equation covers both regimes:

* :func:`single_excitation_trace` evolves one excitation without dissipation,
  stepping the amplitude vector on the bands of ``h`` with a Taylor series,
  and renormalizes it at every reported time.  This is the engine behind the
  unbalanced Rabi oscillation; the renormalization realizes the
  trace-preserving nonlinearity of the underlying master equation, which the
  linearized moment equations cannot reproduce (they would let the
  occupation dip below zero).
* :func:`evolve_covariance` propagates the linearized equations of motion of
  the second moments ``C[i, j] = <a_i^dag a_j>``, valid for small occupations
  in the presence of dissipation.

The moment equations are written once, as a sparse operator on the band
(occupations and nearest-neighbour coherences; the other coherences only
decay).  The band flow is affine, so :func:`evolve_covariance` applies its
exact exponential; its fixed point is a sparse linear system that
:func:`steady_from_dynamics` solves directly, in O(N) time and memory, and
so cross-checks the stationary rate-equation solver without going through
the rate formula.

scipy (``scipy.sparse`` for the operator, its LU and its exponential) is
imported on the first call that needs it, so importing this module costs no
scipy start-up.
"""

from __future__ import annotations

import math
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


_LOG_TOL = -54 * math.log(2)  # half of 2**-53 per Taylor term
_MAX_STEPS = 100_000


def _step_plan(fwd: np.ndarray, bwd: np.ndarray) -> tuple[float, int]:
    """Steps per unit time and Taylor terms per step on the bands of ``h``.

    With ``||h^m||_1 <= Omega nu**m`` and ``s nu = 2``, the terms of
    ``exp(-i h s)`` from degree ``M`` on sum below ``2 Omega 2**M / M!``,
    held under ``2**-53``.  ``nu = ||h||_1`` with ``Omega = 1`` always
    holds, but ``||h||_1`` grows like ``exp(A)``.  Each bond a path crosses
    back and forth weighs ``|t_fwd t_bwd|`` per pair, so ``nu`` may also be
    the 1-norm of the chain with amplitudes ``sqrt(|t_fwd t_bwd|)`` and
    ``Omega`` the product of ``max |t_fwd / t_bwd|**(+-1/2)`` over the
    bonds; on a short chain that plan has fewer band products whatever the
    asymmetry.
    """
    fwd, bwd = np.abs(fwd), np.abs(bwd)
    g = np.sqrt(fwd) * np.sqrt(bwd)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf for a one-way bond
        log_ratio = np.abs(np.log(fwd) - np.log(bwd)) / 2
    plans = []
    for up, down, log_term in ((fwd, bwd, 0.0), (g, g, log_ratio[fwd + bwd > 0].sum())):
        nu = float((np.append(up, 0) + np.append(0, down)).max(initial=0.0))
        if log_term < 690:  # keeps every term of a step finite
            n_terms = 0
            while log_term > _LOG_TOL:
                n_terms += 1
                log_term += math.log(2 / n_terms)
            plans.append((n_terms * nu, nu / 2, n_terms))
    return min(plans)[1:]


def single_excitation_trace(
    spec: ChainSpec, initial_site: int, tau_grid: np.ndarray
) -> Trajectory:
    """Normalized one-excitation dynamics, dissipation ignored.

    The amplitude vector obeys ``i dc/dtau = h c`` and is renormalized to
    unit norm at every reported time; occupations are ``|c_i|**2``.
    ``initial_site`` is a zero-based mode index; ``tau_grid`` must be
    finite, nonnegative and nondecreasing (and :class:`Trajectory` rejects a
    repeated time).  The amplitude is stepped on the bands of ``h`` with the
    Taylor series of ``exp(-i h s)`` (see :func:`_step_plan`), read at each
    reported time from its step's series and renormalized once per step; a
    grid that needs more than 100,000 steps raises ``ValueError``.  The
    eigenvectors of the non-normal ``h`` are of no use: their condition
    number grows like ``exp(A N)``.

    For the canonical two-mode system with ``exp(A) = 2`` started on site 0
    this reproduces ``n_1 = cos^2 / (cos^2 + 4 sin^2)`` with period ``pi/t``.
    """
    n = spec.n_modes
    if not 0 <= initial_site < n:
        raise IndexError(f"initial_site {initial_site} out of range for {n} modes")
    tau = np.asarray(tau_grid, dtype=float)
    if not (np.isfinite(tau).all() and (np.diff(tau, prepend=0.0) >= 0).all()):
        raise ValueError("tau_grid must be finite, nonnegative and nondecreasing")
    hop = build_hopping_matrix(spec)
    scale, n_terms = _step_plan(hop.fwd, hop.bwd)
    scale = scale or 1.0  # any step is exact where h = 0
    reach = float(tau.max(initial=0.0)) * scale  # a Python float overflows quietly
    if not reach < _MAX_STEPS:
        raise ValueError(f"the trace to tau = {tau.max():.6g} needs {reach:.3g} Taylor steps, "
                         f"more than {_MAX_STEPS}; shorten the grid or weaken A")
    # lower[m - 1] and upper[m - 1] are the bands of -i s h / m for the unit step s = 1 / scale
    order = np.arange(1, n_terms)[:, None]
    lower = np.append(0.0, hop.fwd) * (-1j / scale) / order
    upper = np.append(hop.bwd, 0.0) * (-1j / scale) / order
    step, frac = np.divmod(tau * scale, 1.0)
    powers = np.vander(frac, n_terms, increasing=True)
    # row m holds (-i s h)^m c / m!, padded with a zero at each end
    terms = np.zeros((n_terms, n + 2), dtype=complex)
    terms[0, 1 + initial_site] = 1.0
    amps = np.empty((tau.size, n), dtype=complex)
    start, k = 0, 0
    while start < tau.size:
        stop = int(np.searchsorted(step, k, side="right"))
        for m in range(1, n_terms):
            terms[m, 1:-1] = lower[m - 1] * terms[m - 1, :-2] + upper[m - 1] * terms[m - 1, 2:]
        amps[start:stop] = powers[start:stop] @ terms[:, 1:-1]
        c = terms.sum(axis=0)
        terms[0] = c / np.linalg.norm(c)
        start, k = stop, k + 1
    occupations = np.abs(amps) ** 2
    occupations /= occupations.sum(axis=1, keepdims=True)
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
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Propagate the linearized moment equations exactly up to ``t_end``.

    The band evolves under the affine flow ``dx/dtau = system @ x + source``,
    which the augmented matrix ``[[system, source], [0, 0]]`` acting on
    ``[x0; 1]`` makes linear; its exponential is applied by
    ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy and Higham), stepping from
    one reported time to the next.  The entries off the band only decay, as
    ``C_ij(0) exp(-(kappa_i + kappa_j) tau / 2)``.

    The reported times are ``t_eval`` (strictly increasing, within
    ``[0, t_end]``) or, without it, ``[0, t_end]``.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    gen = _MomentGenerator(spec)
    n = gen.n
    cov0 = np.asarray(cov0, dtype=complex)
    if cov0.shape != (n, n):
        raise ValueError(f"covariance must be {n} x {n}, got {cov0.shape}")
    times = np.array([0.0, t_end]) if t_eval is None else np.asarray(t_eval, dtype=float)
    steps = np.diff(times, prepend=0.0)
    if times.ndim != 1 or not (
        times.size and steps[0] >= 0 and np.all(steps[1:] > 0) and times[-1] <= t_end
    ):
        raise ValueError(f"reported times must be strictly increasing within [0, {t_end}]")
    augmented = sp.bmat(
        [[gen.system, gen.source[:, None]], [None, sp.csc_matrix((1, 1))]], format="csc"
    )
    x = np.append(cov0.flat[gen.band_pos], 1.0)
    covs = cov0 * np.exp(gen.decay * times[:, None, None])
    for k, step in enumerate(steps):
        x = expm_multiply(step * augmented, x)
        covs[k].flat[gen.band_pos] = x[:-1]
    occupations = np.real(np.diagonal(covs, axis1=1, axis2=2))
    return Trajectory(times=times, occupations=occupations, covariances=covs)


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
