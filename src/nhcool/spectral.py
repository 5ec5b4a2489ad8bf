"""Spectral analysis of non-reciprocal hopping matrices.

Whenever every bond product ``t_fwd * t_bwd`` is real and positive the
hopping matrix is related to a real symmetric tridiagonal matrix by a
diagonal similarity transform, so its spectrum is real and its right
eigenvectors are rescaled copies of the Hermitian eigenvectors.  The
rescaling grows like ``exp(A * i)`` along a uniform chain (the skin effect),
so gauge weights are tracked in log space; chains of several hundred sites
at asymmetry ln 2 stay finite where a direct rescaling would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NotGaugeReducible, SingularBond
from .model import HoppingMatrix

__all__ = [
    "SpectralDecomposition",
    "diagonalize",
    "spectral_occupations",
    "localization_profile",
    "gauge_stripped_envelopes",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real spectrum and unit-norm right eigenvectors of a gauge-reducible chain.

    ``right_eigenvectors[:, alpha]`` is the eigenvector belonging to
    ``eigenvalues[alpha]`` (sorted ascending), normalized to unit Euclidean
    norm.  The similarity weight of site ``i`` is
    ``exp(log_gauge[i]) * gauge_phase[i]``.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    log_gauge: np.ndarray
    gauge_phase: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def diagonalize(hopping: HoppingMatrix) -> SpectralDecomposition:
    """Diagonalize a hopping matrix through its Hermitian gauge.

    Requires every bond product ``t_fwd * t_bwd`` to be real and strictly
    positive.  The returned eigenvalues are exactly real by construction and
    the right eigenvectors satisfy ``h @ psi = eps * psi`` to solver accuracy.

    Raises
    ------
    SingularBond
        If some bond product vanishes (the chain disconnects there).
    NotGaugeReducible
        If some bond product is negative or has a nonzero imaginary part.
    """
    prod = hopping.fwd * hopping.bwd
    for k, p in enumerate(prod):
        if p == 0:
            raise SingularBond(
                f"bond {k} has t_fwd * t_bwd = 0; split the chain there"
            )
        if abs(p.imag) > 1e-12 * abs(p) or p.real <= 0:
            raise NotGaugeReducible(
                f"bond {k}: t_fwd * t_bwd = {p} is not a positive real number"
            )

    # Gauge ratio d_{k+1}/d_k = c_k / t_bwd_k maps h to a symmetric
    # tridiagonal matrix with off-diagonal c_k = sqrt(t_fwd_k * t_bwd_k).
    offdiag = np.sqrt(prod.real)
    ratio = offdiag / hopping.bwd
    log_gauge = np.concatenate(([0.0], np.cumsum(np.log(np.abs(ratio)))))
    gauge_phase = np.concatenate(
        ([1.0 + 0.0j], np.cumprod(ratio / np.abs(ratio)))
    )

    eigenvalues, vecs = eigh_tridiagonal(np.zeros(len(log_gauge)), offdiag)

    # Un-gauge in log space, then normalize each column.
    with np.errstate(divide="ignore"):
        logmag = log_gauge[:, None] + np.log(np.abs(vecs))
    logmag -= logmag.max(axis=0, keepdims=True)
    psi = gauge_phase[:, None] * np.sign(vecs) * np.exp(logmag)
    psi /= np.linalg.norm(psi, axis=0, keepdims=True)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        right_eigenvectors=psi,
        log_gauge=log_gauge,
        gauge_phase=gauge_phase,
    )


def spectral_occupations(decomp: SpectralDecomposition, n_th: float) -> np.ndarray:
    """Occupations obtained by filling every eigenvector with ``n_th`` quanta.

    Site ``i`` receives ``n_th * sum_alpha |psi_alpha_i|**2``.  With unit-norm
    eigenvectors the total is exactly ``n_modes * n_th``, and a Hermitian
    chain gives ``n_th`` on every site.
    """
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    weight = np.abs(decomp.right_eigenvectors) ** 2
    return n_th * weight.sum(axis=1)


def localization_profile(decomp: SpectralDecomposition) -> np.ndarray:
    """Magnitudes of successive component ratios for every eigenvector.

    Returns an array of shape ``(n_modes, n_modes - 1)`` whose row ``alpha``
    holds ``|psi_alpha_{i+1} / psi_alpha_i|``.  Ratios are reported only where
    the denominator magnitude exceeds 1e-12; other entries are NaN.
    """
    mags = np.abs(decomp.right_eigenvectors)
    denom = mags[:-1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 1e-12, mags[1:, :] / denom, np.nan)
    return ratios.T


def gauge_stripped_envelopes(decomp: SpectralDecomposition) -> np.ndarray:
    """Eigenvector magnitudes with the exponential gauge weight removed.

    Column ``alpha`` is ``|psi_alpha_i| * exp(-log_gauge[i])`` normalized to
    unit Euclidean norm; for a uniform chain this recovers the sine envelope
    of the underlying Hermitian problem.  Computed in log space so chains deep
    in the overflow regime stay finite.
    """
    with np.errstate(divide="ignore"):
        logenv = np.log(np.abs(decomp.right_eigenvectors)) - decomp.log_gauge[:, None]
    logenv -= logenv.max(axis=0, keepdims=True)
    env = np.exp(logenv)
    env /= np.linalg.norm(env, axis=0, keepdims=True)
    return env
