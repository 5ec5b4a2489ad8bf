"""Spectral analysis of non-reciprocal hopping matrices.

Whenever every bond product ``t_fwd * t_bwd`` is real and positive the
hopping matrix is related to a real symmetric tridiagonal matrix by a
diagonal similarity transform, so its spectrum is real and its right
eigenvectors are rescaled copies of the Hermitian eigenvectors.  The
rescaling grows like ``exp(A * i)`` along a uniform chain (the skin effect),
so gauge weights are tracked in log space; chains of several hundred sites
at asymmetry ln 2 stay finite where a direct rescaling would overflow.

:func:`diagonalize` does only the tridiagonal eigensolve and keeps its real
eigenvectors.  The spectral weights ``|psi_alpha_i|**2``, from which the
occupations and the localization ratios are read, are formed from them in
real log space on first use; the complex right eigenvectors are built only
when they are read.  The gauge-stripped envelopes are the Hermitian
eigenvectors themselves.

The tridiagonal eigensolver comes from ``scipy.linalg``, which is imported
on the first call to :func:`diagonalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    """Real spectrum and Hermitian-gauge eigenvectors of a gauge-reducible chain.

    ``hermitian_eigenvectors[:, alpha]`` is the real unit-norm eigenvector of
    the symmetric tridiagonal matrix for ``eigenvalues[alpha]`` (sorted
    ascending).  The similarity weight of site ``i`` is
    ``exp(log_gauge[i]) * gauge_phase[i]``, so the right eigenvector of ``h``
    is the Hermitian one multiplied by it, site by site.

    Two read-only arrays are derived on first access and cached:

    ``weights``
        ``|psi_alpha_i|**2`` of the unit-norm right eigenvectors, one column
        per eigenvalue, each column summing to 1.  Formed in real log space,
        so it stays finite however far the gauge grows.
    ``right_eigenvectors``
        The complex unit-norm right eigenvectors ``psi``; column ``alpha``
        satisfies ``h @ psi = eigenvalues[alpha] * psi``.
    """

    eigenvalues: np.ndarray
    hermitian_eigenvectors: np.ndarray
    log_gauge: np.ndarray
    gauge_phase: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def weights(self) -> np.ndarray:
        # log|v| rather than log(v**2), so a component below 1e-162 does not
        # underflow before its gauge weight is added.
        w = np.abs(self.hermitian_eigenvectors)
        with np.errstate(divide="ignore"):
            np.log(w, out=w)
        w += self.log_gauge[:, None]
        w -= w.max(axis=0, keepdims=True)
        w *= 2.0
        np.exp(w, out=w)
        w /= w.sum(axis=0, keepdims=True)
        w.flags.writeable = False
        return w

    @cached_property
    def right_eigenvectors(self) -> np.ndarray:
        psi = self.gauge_phase[:, None] * np.copysign(
            np.sqrt(self.weights), self.hermitian_eigenvectors
        )
        psi.flags.writeable = False
        return psi


def diagonalize(hopping: HoppingMatrix) -> SpectralDecomposition:
    """Diagonalize a hopping matrix through its Hermitian gauge.

    Requires every bond product ``t_fwd * t_bwd`` to be real and strictly
    positive.  The returned eigenvalues are exactly real by construction and
    the right eigenvectors, built on first access, satisfy
    ``h @ psi = eps * psi`` to solver accuracy.

    Raises
    ------
    SingularBond
        If some bond product vanishes (the chain disconnects there).
    NotGaugeReducible
        If some bond product is negative or has a nonzero imaginary part.
    """
    from scipy.linalg import eigh_tridiagonal

    prod = hopping.fwd * hopping.bwd
    bad = (np.abs(prod.imag) > 1e-12 * np.abs(prod)) | (prod.real <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        p = prod[k]
        if p == 0:
            raise SingularBond(
                f"bond {k} has t_fwd * t_bwd = 0; split the chain there"
            )
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
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        hermitian_eigenvectors=vecs,
        log_gauge=log_gauge,
        gauge_phase=gauge_phase,
    )


def spectral_occupations(decomp: SpectralDecomposition, n_th: float) -> np.ndarray:
    """Occupations obtained by filling every eigenvector with ``n_th`` quanta.

    Site ``i`` receives ``n_th * sum_alpha |psi_alpha_i|**2``, read from the
    real log-space ``weights``; the complex eigenvectors are never formed.
    With unit-norm eigenvectors the total is exactly ``n_modes * n_th``, and
    a Hermitian chain gives ``n_th`` on every site.
    """
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    return n_th * decomp.weights.sum(axis=1)


def localization_profile(decomp: SpectralDecomposition) -> np.ndarray:
    """Magnitudes of successive component ratios for every eigenvector.

    Returns an array of shape ``(n_modes, n_modes - 1)`` whose row ``alpha``
    holds ``|psi_alpha_{i+1} / psi_alpha_i|``.  Ratios are reported only where
    the denominator magnitude exceeds 1e-12; other entries are NaN.
    """
    mags = np.sqrt(decomp.weights)
    denom = mags[:-1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 1e-12, mags[1:, :] / denom, np.nan)
    return ratios.T


def gauge_stripped_envelopes(decomp: SpectralDecomposition) -> np.ndarray:
    """Eigenvector magnitudes with the exponential gauge weight removed.

    Column ``alpha`` is ``|psi_alpha_i| * exp(-log_gauge[i])`` normalized to
    unit Euclidean norm, which is ``|hermitian_eigenvectors[:, alpha]|``; for
    a uniform chain this is the sine envelope of the underlying Hermitian
    problem, accurate on every site however deep the chain is in the
    overflow regime.
    """
    return np.abs(decomp.hermitian_eigenvectors)
