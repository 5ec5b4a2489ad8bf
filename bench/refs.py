"""Independent references for the benchmark's correctness checks.

Every reference here is computed from the chain's raw parameters (bond
amplitudes, dissipation rates, bath occupations) with its own arithmetic:
exact rationals for the balance equations, closed forms for the two-mode and
uniform-chain cases, and ``scipy.linalg.expm`` / dense ``eig`` for the linear
flows.  Only ``nhcool.build_hopping_matrix`` (the public matrix the oracle's
Liouvillian is defined on) and ``nhcool.covariance_rhs`` (the public moment
generator the affine map is probed from) are taken from the program.

Each ``check_*`` function returns ``None`` when the output agrees with its
reference and a one-line message when it does not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np
from scipy.linalg import eig, expm


# --- balance equations -------------------------------------------------------


def exact_chain_occupations(fwd, bwd, kappa, n_th) -> list[Fraction]:
    """Exact stationary occupations of a chain's nearest-neighbour rate equations.

    ``fwd[k]``/``bwd[k]`` are the real positive amplitudes of bond ``k``;
    ``kappa``/``n_th`` are per mode.  The rates follow the README's
    ``g = 2 (|t_ij|^2 + Re(t_ij t_ji)) / (kappa_i + kappa_j)`` and the
    tridiagonal balance system is solved by exact elimination.
    """
    n = len(kappa)
    kap = [Fraction(float(k)) for k in kappa]
    rhs = [kap[i] * Fraction(float(n_th[i])) for i in range(n)]
    up, down = [], []  # g[k, k+1] and g[k+1, k]
    for k in range(n - 1):
        tf, tb = Fraction(float(fwd[k])), Fraction(float(bwd[k]))
        ksum = kap[k] + kap[k + 1]
        up.append(2 * (tf * tf + tf * tb) / ksum)
        down.append(2 * (tb * tb + tf * tb) / ksum)
    diag = [
        kap[i] + (up[i] if i < n - 1 else 0) + (down[i - 1] if i > 0 else 0)
        for i in range(n)
    ]
    # Row i: diag_i n_i - up[i-1] n_{i-1} - down[i] n_{i+1} = rhs_i (Thomas sweep).
    c = [Fraction(0)] * n
    d = [Fraction(0)] * n
    for i in range(n):
        m = diag[i] - (up[i - 1] * -c[i - 1] if i > 0 else 0)
        c[i] = -down[i] / m if i < n - 1 else Fraction(0)
        d[i] = (rhs[i] + (up[i - 1] * d[i - 1] if i > 0 else 0)) / m
    x = [Fraction(0)] * n
    x[n - 1] = d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def check_sum_rule(occ, n_th: float, rel: float = 1e-12) -> str | None:
    """Total occupation ``N * n_th`` (uniform bath) and nonnegativity."""
    occ = np.asarray(occ, dtype=float)
    if occ.ndim != 1 or not np.all(np.isfinite(occ)):
        return "occupations are not a finite vector"
    if np.any(occ < 0):
        return f"negative occupation {occ.min():.3e}"
    want = len(occ) * n_th
    err = abs(float(occ.sum()) - want) / want
    if err > rel:
        return f"sum rule off by {err:.2e} relative (limit {rel:g})"
    return None


def check_componentwise(got, want, rel: float, what: str) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    with np.errstate(divide="ignore", invalid="ignore"):
        err = float(np.max(np.abs(got - want) / np.abs(want)))
    if not err <= rel:
        return f"{what}: off by {err:.2e} relative (limit {rel:g})"
    return None


def check_absolute(got, want, tol: float, what: str) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        return f"{what}: off by {err:.2e} absolute (limit {tol:g})"
    return None


# --- closed forms quoted in the README ----------------------------------------


def two_mode_occupations(t: float, a: float, kappa: float, n_th: float):
    """``n_1 = (2 g_21 + kappa) n_th / (g_12 + g_21 + kappa)`` and ``n_2 = 2 n_th - n_1``."""
    tf, tb = t * math.exp(a), t * math.exp(-a)
    g12 = (tf * tf + tf * tb) / kappa
    g21 = (tb * tb + tf * tb) / kappa
    n1 = (2 * g21 + kappa) * n_th / (g12 + g21 + kappa)
    return n1, 2 * n_th - n1


def plateau(t: float, a: float, kappa: float, n_th: float) -> float:
    return kappa**2 * n_th / (kappa**2 + t * t * (math.exp(2 * a) - math.exp(-2 * a)))


def rabi_first_site(t: float, a: float, tau) -> np.ndarray:
    """Normalized ``n_1`` of the two-mode oscillation started on site 1."""
    c2 = np.cos(t * np.asarray(tau)) ** 2
    return c2 / (c2 + math.exp(2 * a) * (1 - c2))


def uniform_spectral_edge(n: int, a: float, n_th: float) -> float:
    """Spectral occupation of site 1 of a uniform chain.

    Right eigenvectors are ``e^{A i} sin(k i)`` with ``k = alpha pi / (N + 1)``;
    the gauge factor is scaled by ``e^{-A N}`` so long chains stay finite.
    """
    sites = np.arange(1, n + 1)
    ks = np.arange(1, n + 1) * math.pi / (n + 1)
    amp = np.exp(a * (sites - n))[:, None] * np.sin(np.outer(sites, ks))
    weight = amp**2 / (amp**2).sum(axis=0)
    return float(n_th * weight[0].sum())


# --- linear flows --------------------------------------------------------------


def normalized_expm_trace(h: np.ndarray, site: int, tau) -> np.ndarray:
    """``|exp(-i h tau) e_site|^2`` renormalized to unit total, per tau."""
    rows = []
    for tk in np.asarray(tau, dtype=float):
        amp = expm(-1j * tk * h)[:, site]
        pop = np.abs(amp) ** 2
        rows.append(pop / pop.sum())
    return np.array(rows)


def _to_real(c) -> np.ndarray:
    flat = np.asarray(c, dtype=complex).ravel()
    return np.concatenate([flat.real, flat.imag])


def affine_generator(rhs, n: int) -> np.ndarray:
    """Real generator of ``dC/dtau = rhs(C)`` for an affine ``rhs`` on n x n matrices.

    The map is probed on the real and imaginary unit matrices, so only
    real-linearity is assumed.  The last row and column carry the offset.
    """
    dim = 2 * n * n
    offset = _to_real(rhs(np.zeros((n, n), dtype=complex)))
    gen = np.zeros((dim + 1, dim + 1))
    for k in range(dim):
        probe = np.zeros(n * n, dtype=complex)
        probe[k % (n * n)] = 1.0 if k < n * n else 1.0j
        gen[:dim, k] = _to_real(rhs(probe.reshape(n, n))) - offset
    gen[:dim, dim] = offset
    return gen


def affine_flow(gen: np.ndarray, cov0: np.ndarray, times) -> np.ndarray:
    """``C(tau)`` for each tau, by ``expm`` of the augmented generator."""
    n = cov0.shape[0]
    y0 = np.append(_to_real(cov0), 1.0)
    out = []
    for tk in np.asarray(times, dtype=float):
        y = expm(tk * gen) @ y0
        out.append((y[: n * n] + 1j * y[n * n : 2 * n * n]).reshape(n, n))
    return np.array(out)


def _ladder(n_modes: int, cutoff: int) -> list[np.ndarray]:
    single = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)
    return [
        reduce(np.kron, [single if j == i else eye for j in range(n_modes)])
        for i in range(n_modes)
    ]


def liouvillian_occupations(h: np.ndarray, kappa, n_th, cutoff: int) -> np.ndarray:
    """Occupations of the leading eigenvector of the linear Liouvillian ``L0``.

    ``L0 rho = -i (H rho - rho H^dag) + sum_o D[o] rho`` with
    ``H = sum_ij h_ij a_i^dag a_j`` and thermal jumps ``sqrt(kappa (1 + n_th)) a``,
    ``sqrt(kappa n_th) a^dag``.  The trace-corrected master equation's stable
    fixed point is this eigenvector, normalized to unit trace.
    """
    n_modes = len(kappa)
    ops = _ladder(n_modes, cutoff)
    dim = cutoff**n_modes
    ham = sum(h[i, j] * (ops[i].T @ ops[j]) for i in range(n_modes)
              for j in range(n_modes) if h[i, j] != 0)
    eye = np.eye(dim)
    # Row-major vec: vec(A X B) = (A kron B^T) vec(X).
    sup = -1j * (np.kron(ham, eye) - np.kron(eye, ham.conj()))
    for i in range(n_modes):
        jumps = [math.sqrt(kappa[i] * (1 + n_th[i])) * ops[i]]
        if n_th[i] > 0:
            jumps.append(math.sqrt(kappa[i] * n_th[i]) * ops[i].T)
        for op in jumps:
            norm = op.conj().T @ op
            sup += np.kron(op, op.conj()) - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm.T))
    values, vectors = eig(sup)
    lead = int(np.argmax(values.real))
    rho = vectors[:, lead].reshape(dim, dim)
    rho = rho / np.trace(rho)
    pops = np.real(np.diag(rho)).reshape((cutoff,) * n_modes)
    levels = np.arange(cutoff, dtype=float)
    return np.array([
        pops.sum(axis=tuple(ax for ax in range(n_modes) if ax != i)) @ levels
        for i in range(n_modes)
    ])
