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
  the second moments ``C[i, j] = <a_i^dag a_j>`` in the presence of
  dissipation, a linear map that need not keep ``C`` a state.

The moment equations are written once, in :func:`_moment_band`, as the
triplets of an operator on the band (occupations and nearest-neighbour
coherences, numbered site by site; the other coherences only decay), which in
that order has two sub- and two superdiagonals, and the thermal pump; each
caller reads them directly, and a solve that scales the pump scales its own
copy.  The band flow is affine, so :func:`evolve_covariance` applies its exact
exponential, a dense numpy Taylor exponential with scaling and squaring that
the Fock oracle's trajectories use too.  Its fixed point is a banded linear
system that :func:`steady_from_dynamics` solves directly with LAPACK's band
LU, in O(N) time and memory, and so cross-checks the stationary
rate-equation solver without going through the rate formula.

Only :func:`steady_from_dynamics` loads scipy (``scipy.linalg``), on its
first call, so importing this module and propagating the moments cost no
scipy start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .model import ChainSpec, _outside_rates, build_hopping_matrix
from .steady import SteadyState, _check_residual

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
        self.check_times(self.times)

    @staticmethod
    def check_times(times) -> np.ndarray:
        """``times`` as floats if finite, nonnegative and strictly increasing."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not (
            np.isfinite(times).all() and (times >= 0).all() and (np.diff(times) > 0).all()
        ):
            raise ValueError("times must be finite, nonnegative and strictly increasing")
        return times

    @staticmethod
    def check_end(t_end) -> float:
        """``t_end`` as a float if finite and nonnegative."""
        t_end = float(t_end)
        if not (math.isfinite(t_end) and t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
        return t_end


_LOG_TOL = -54 * math.log(2)  # half of 2**-53 per Taylor term
_MAX_STEPS = 100_000
_CONVERGED = 64 * float(np.finfo(float).eps)  # change of a max-normalized power at the flow's limit


def _taylor_terms(log_scale: float, log_start: float = 0.0) -> int:
    """Number ``M`` of Taylor terms to keep, degrees ``0 .. M - 1``.

    ``M`` is the first degree whose bound ``exp(log_start + m log_scale) / m!``
    is at most ``2**-54``.
    """
    n_terms, log_bound = 0, log_start
    while log_bound > _LOG_TOL:
        n_terms += 1
        log_bound += log_scale - math.log(n_terms)
    return n_terms


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
            n_terms = _taylor_terms(math.log(2), log_term)
            plans.append((n_terms * nu, nu / 2, n_terms))
    return min(plans)[1:]


def single_excitation_trace(
    spec: ChainSpec, initial_site: int, tau_grid: np.ndarray
) -> Trajectory:
    """Normalized one-excitation dynamics, dissipation ignored.

    The amplitude vector obeys ``i dc/dtau = h c`` and is renormalized to
    unit norm at every reported time; occupations are ``|c_i|**2``.
    ``initial_site`` is a zero-based mode index; ``tau_grid`` must be
    finite, nonnegative and strictly increasing.  The amplitude is stepped
    on the bands of ``h`` with the Taylor series of ``exp(-i h s)`` (see
    :func:`_step_plan`), read at each reported time from its step's series
    and renormalized once per step; a grid that needs more than 100,000
    steps raises ``ValueError``.  The eigenvectors of the non-normal ``h``
    are of no use: their condition number grows like ``exp(A N)``.

    For the canonical two-mode system with ``exp(A) = 2`` started on site 0
    this reproduces ``n_1 = cos^2 / (cos^2 + 4 sin^2)`` with period ``pi/t``.
    """
    n = spec.n_modes
    if not 0 <= initial_site < n:
        raise IndexError(f"initial_site {initial_site} out of range for {n} modes")
    tau = Trajectory.check_times(tau_grid)
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


def _moment_band(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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

    The band therefore evolves on its own.  Its unknowns are numbered by
    site: ``n_k`` at ``3k``, ``C[k, k+1]`` at ``3k + 1`` and ``C[k+1, k]`` at
    ``3k + 2``.  Returns ``rows``, ``cols`` and ``vals``, the triplets of the
    ``(3N - 2)``-square operator ``L`` of those equations, which in this
    order has two sub- and two superdiagonals, and ``source``, the thermal
    pump, so ``L x + source`` (:func:`_band_flow`) is ``dC/dtau`` on the
    band.  Each caller builds the form it needs from the triplets.
    """
    n = spec.n_modes
    hop = build_hopping_matrix(spec)
    t_fwd, t_bwd = hop.fwd, hop.bwd
    kappa = spec.kappa_vector()
    occ = 3 * np.arange(n)
    left, right = occ[:-1], occ[1:]
    up, lo = left + 1, left + 2
    bond_decay = 0.5 * (kappa[:-1] + kappa[1:])
    # (row, column, coefficient) of every term of the equations on the band
    terms = [
        (occ, occ, -kappa),
        # bond k's current enters dn_k and leaves dn_{k+1}
        (left, lo, 1j * t_fwd), (left, up, -1j * t_bwd),
        (right, lo, -1j * t_fwd), (right, up, 1j * t_bwd),
        # each bond coherence is driven by its two occupations and decays
        (up, up, -bond_decay), (up, right, 1j * np.conj(t_bwd)), (up, left, -1j * t_fwd),
        (lo, lo, -bond_decay), (lo, left, 1j * np.conj(t_fwd)), (lo, right, -1j * t_bwd),
    ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    source = np.zeros(3 * n - 2, dtype=complex)
    source[occ] = kappa * spec.n_th_vector()
    return rows, cols, vals, source


def _band_flow(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, source: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """``L x + source``, from the triplets and pump of :func:`_moment_band`."""
    out = source.copy()
    np.add.at(out, rows, vals * x[cols])
    return out


def _off_band(spec: ChainSpec, cov) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cov`` as a complex ``N x N`` array (else ``ValueError``), the rates
    ``-(kappa_i + kappa_j) / 2`` at which its entries off the band decay, and
    the flat positions of ``n_k``, ``C[k, k+1]``, ``C[k+1, k]`` in it."""
    cov = np.asarray(cov, dtype=complex)
    n = spec.n_modes
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be {n} x {n}, got {cov.shape}")
    kappa = spec.kappa_vector()
    band_pos = np.add.outer(np.arange(n) * (n + 1), [0, 1, n]).ravel()[:3 * n - 2]
    return cov, -0.5 * (kappa[:, None] + kappa[None, :]), band_pos


def covariance_rhs(spec: ChainSpec, cov: np.ndarray) -> np.ndarray:
    """Time derivative of the second-moment matrix ``<a_i^dag a_j>``."""
    cov, decay, band_pos = _off_band(spec, cov)
    out = decay * cov
    out.flat[band_pos] = _band_flow(*_moment_band(spec), cov.flat[band_pos])
    return out


def _expm_taylor(mat: np.ndarray, tau: float) -> np.ndarray:
    """``exp(tau mat)`` up to an exact power of two, by scaling and squaring
    with Taylor terms at 1-norm <= 1 (Moler and Van Loan).

    ``j = ceil(log2 ||tau mat||_1)`` squarings bring ``tau mat / 2**j`` to
    1-norm ``theta <= 1``; its terms of degree ``m`` are bounded by
    ``theta**m / m!`` and kept while that bound is above ``2**-54``.  Before
    each squaring the sum is multiplied by the power of two that brings its
    largest entry into ``[1/2, 1)``, so a growing flow cannot overflow; the
    product of those powers is the factor the caller must remove, and
    scaling by a power of two rounds nothing.  Once the power, divided by
    its largest entry, differs from the one before by at most ``64 eps``,
    the flow has reached its limit and further squarings would only add
    rounding, so they are skipped: a huge ``tau`` costs about as many
    squarings as the transient takes to die.  A 1-norm that is not finite
    raises ``ValueError``.
    """
    out = np.eye(len(mat), dtype=mat.dtype)
    with np.errstate(over="ignore"):
        norm = float(np.abs(mat).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"the operator's 1-norm is {norm}; its entries overflow the double range")
    if not norm * tau > 0:  # exp(tau mat) = I to double precision
        return out
    squarings = max(0, math.ceil(math.log2(norm) + math.log2(tau)))  # no overflow at huge tau
    scaled = mat * math.ldexp(tau, -squarings)
    term = out
    for m in range(1, _taylor_terms(math.log(norm * math.ldexp(tau, -squarings)))):
        term = term @ scaled
        term /= m
        out += term
    previous = None
    for _ in range(squarings):
        top = float(np.abs(out).max())
        direction = out / top
        if previous is not None and np.abs(direction - previous).max() <= _CONVERGED:
            break
        previous = direction
        out *= math.ldexp(1.0, -math.frexp(top)[1])
        out = out @ out
    return out


def evolve_covariance(
    spec: ChainSpec,
    cov0: np.ndarray,
    t_end: float,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Propagate the linearized moment equations exactly up to ``t_end``.

    The band evolves under the affine flow ``dx/dtau = L x + source`` of the
    band operator ``L`` of :func:`_moment_band`, which the augmented matrix
    ``S = [[L, source], [0, 0]]`` (``3N - 1`` rows) acting on ``[x0; 1]``
    makes linear.  Each reported step applies a dense ``exp(tau S)`` from
    :func:`_expm_taylor`: a few tens of ``rows**3`` products, growing with
    ``log2 ||tau S||_1`` only until the flow has converged, so a huge
    ``t_end`` costs a few squarings more than the transient needs.  The
    exponential comes back scaled by a power of two, which dividing
    ``exp(tau S) [x0; 1]`` by its last entry removes exactly.  It holds
    about five ``rows x rows`` complex matrices (0.7 GB at N = 1000); a step
    at tau = 200 took about 0.13 s at N = 100 and 1.3 s at N = 200.  The
    entries off the band only decay, as
    ``C_ij(0) exp(-(kappa_i + kappa_j) tau / 2)``.

    This propagates the linear map of the moment equations, not a state.
    The band flow is not of Lyapunov form, so it need not keep ``C``
    positive semidefinite, and the occupations can go negative on the way
    to the stationary state: from ``C0 = I`` (``n_th = 1``) on uniform
    ``e^A = 2`` chains at ``kappa = 0.01`` the smallest reaches -0.19 at
    N = 2, -206 at N = 10 and -1.4e8 at N = 30.  Nothing here checks that
    the returned moments describe a state.

    The reported times are ``t_eval``, nonempty and at most ``t_end``, or
    without it ``[0, t_end]`` (``[0]`` at ``t_end = 0``); :class:`Trajectory`
    requires them finite, nonnegative and strictly increasing.  ``t_end``
    must be finite and nonnegative, and ``S`` must have a finite 1-norm
    (else ``ValueError``).  The transient grows by about ``e^A`` per mode
    before it decays, and its rounding stays behind: at ``e^A = 2`` the
    long-time state is off by about 1e-6 at N = 40 and 0.1 at N = 60, so
    take stationary states from :func:`steady_from_dynamics`.
    """
    t_end = Trajectory.check_end(t_end)
    times = Trajectory.check_times(np.unique([0.0, t_end]) if t_eval is None else t_eval)
    if not (times.size and times[-1] <= t_end):
        raise ValueError(f"t_eval must be nonempty and end at or before t_end = {t_end}")
    cov0, decay, band_pos = _off_band(spec, cov0)
    rows, cols, vals, source = _moment_band(spec)
    steps = np.diff(times, prepend=0.0)
    augmented = np.zeros((len(source) + 1,) * 2, dtype=complex)
    augmented[rows, cols] = vals
    augmented[:-1, -1] = source
    x = np.append(cov0.flat[band_pos], 1.0)
    covs = cov0 * np.exp(decay * times[:, None, None])
    for k, step in enumerate(steps.tolist()):  # Python floats overflow quietly
        x = _expm_taylor(augmented, step) @ x
        x /= x[-1]  # the last entry is the exponential's power of two, so this is exact
        covs[k].flat[band_pos] = x[:-1]
    occupations = np.real(np.diagonal(covs, axis1=1, axis2=2))
    return Trajectory(times=times, occupations=occupations, covariances=covs)


def steady_from_dynamics(spec: ChainSpec, tol: float = 1e-6) -> SteadyState:
    """Stationary occupations of the moment equations, solved directly.

    Under the bond-local closure the coherences between non-bonded modes only
    decay, so the fixed point lives on the band: the ``N`` occupations and the
    ``2 (N - 1)`` bond coherences ``C[k, k+1]`` and ``C[k+1, k]``.  Numbered
    by site, the operator of :func:`_moment_band` has two sub- and two
    superdiagonals, so its triplets fill LAPACK's band storage, factored once
    by the band LU with partial pivoting of ``zgbsv``; one step of iterative
    refinement reuses the factors (``zgbtrs``), and both it and ``residual``,
    the max-norm of ``dC/dtau`` at the returned state on the band, read a
    copy of the pump scaled by a power of two.  The chain's kappas and bonds
    are checked before the band is built.

    Eliminating a bond's coherences gives the rate
    ``2 (|t_fwd|**2 + t_fwd t_bwd) / (kappa_i + kappa_j)``, and its mirror,
    so the fixed point is real only where every product ``t_fwd t_bwd`` is
    real, and nonnegative only where those rates are.  Both rules are read
    from :meth:`~nhcool.model.HoppingMatrix.bond_domain`, which decides the
    same bonds for :func:`~nhcool.model.build_rate_matrix`, so the two
    layers refuse exactly the same bonds as outside their domain.

    Raises
    ------
    ValueError
        If an entry of the system, or of the residual it refines, overflows,
        or ``tol`` is NaN or negative.
    SingularSystem
        If some mode carries no dissipation (the transient never dies), or
        the stationary system is numerically singular.
    InvalidRegime
        If a bond's product ``t_fwd t_bwd`` is not real, or makes one of its
        two rate numerators negative; the first such bond is named, with
        the rate layer's message.
    ToleranceNotMet
        If the residual exceeds ``tol * max(kappa) * max(n_th)``, or is NaN
        (the gate :func:`~nhcool.steady._check_residual`).
    """
    from scipy.linalg.lapack import zgbsv, zgbtrs

    kappa = spec.kappa_vector()
    if not np.all(kappa > 0):
        raise SingularSystem("steady_from_dynamics needs kappa > 0 on every mode")
    product, real, numerators, _ = build_hopping_matrix(spec).bond_domain()
    bad = np.flatnonzero(~real | (numerators < 0).any(axis=0))
    if bad.size:
        raise _outside_rates(bad[0], product, real)
    rows, cols, vals, source = _moment_band(spec)
    # Solve for a pump of order one and scale back, as solve_steady_rates does:
    # the flow multiplies amplitudes by occupations, which overflows on a strong
    # pump long before the occupations do.  Powers of two scale every operation
    # exactly, so in the normal range the result is bitwise that of the
    # unscaled solve.
    _, exponent = math.frexp(float(source.real.max()))
    source = np.ldexp(source.real, -exponent).astype(complex)
    # L[i, j] sits at bands[4 + i - j, j]; the top two rows hold the LU's fill-in
    bands = np.zeros((7, len(source)), dtype=complex)
    bands[4 + rows - cols, cols] = vals
    if not (np.isfinite(bands).all() and np.isfinite(source).all()):
        raise ValueError("the stationary moment system has an entry that is not finite")
    lu, piv, x, info = zgbsv(2, 2, bands, -source, overwrite_ab=True)
    if info > 0:
        raise SingularSystem(f"the stationary moment system is singular: pivot {info} is zero")
    # One refinement step makes the LU solve componentwise backward stable,
    # which keeps the smallest occupations accurate to a few ulps.
    flow = _band_flow(rows, cols, vals, source, x)
    if not np.isfinite(flow).all():
        raise ValueError("the stationary moment residual is not finite")
    x -= zgbtrs(lu, 2, 2, flow, piv)[0]
    residual = math.ldexp(float(np.abs(_band_flow(rows, cols, vals, source, x)).max()), exponent)
    _check_residual(residual, kappa, spec.n_th_vector(), tol, "moment")
    return SteadyState(occupations=np.ldexp(np.real(x[::3]), exponent), residual=residual)
