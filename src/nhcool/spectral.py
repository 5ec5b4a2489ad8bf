"""Spectral analysis of non-reciprocal hopping matrices.

Whenever every bond product ``t_fwd * t_bwd`` is real and positive the
hopping matrix is related to a real symmetric tridiagonal matrix by a
diagonal similarity transform, so its spectrum is real and its right
eigenvectors are rescaled copies of the Hermitian eigenvectors.  The
rescaling grows like ``exp(A * i)`` along a uniform chain (the skin effect),
so gauge weights are tracked in log space; chains of several hundred sites
at asymmetry ln 2 stay finite where a direct rescaling would overflow.

The symmetric matrix has a zero diagonal: its hopping joins even sites to
odd ones only.  :func:`diagonalize` takes one ``numpy.linalg.svd`` of the
half-size bidiagonal block that joins them, with no scipy module loaded.
Each singular triple gives a pair of eigenvalues ``+-sigma`` whose
eigenvectors have the same ``|psi|**2``, so the decomposition keeps one
eigenvector per pair, and the spectral occupations are read from its
weights ``|psi_i|**2``, formed in real log space.  The complex right
eigenvectors are assembled only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotGaugeReducible, SingularBond
from .model import HoppingMatrix, _binary_split

__all__ = [
    "SpectralDecomposition",
    "diagonalize",
    "spectral_occupations",
]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real spectrum and Hermitian-gauge eigenvectors of a gauge-reducible chain.

    ``eigenvalues`` holds the spectrum sorted ascending; it is symmetric
    about zero, ``+-sigma`` in pairs, with one exact zero for odd
    ``n_modes``.  The eigenvector of ``-sigma`` is that of ``+sigma`` with
    the odd sites negated, so both have the same ``|psi|**2``.
    ``pair_vectors[:, k]`` is the real unit-norm eigenvector of the ``k``-th
    largest nonnegative eigenvalue; for odd ``n_modes`` its last column is
    the zero mode, which has no partner.  The similarity weight of site ``i``
    is ``exp(log_gauge[i]) * gauge_phase[i]``, so the right eigenvector of
    ``h`` is the Hermitian one multiplied by it, site by site.

    The other arrays are derived on first access and cached, read-only:

    ``pair_weights``
        ``|psi_i|**2`` of the unit-norm right eigenvector of each column of
        ``pair_vectors``, each column summing to 1.  Formed in real log space,
        so it stays finite however far the gauge grows.
    ``right_eigenvectors``
        The complex unit-norm right eigenvectors ``psi``, one column per entry
        of ``eigenvalues``; column ``alpha`` satisfies
        ``h @ psi = eigenvalues[alpha] * psi``.

    Only ``eigenvalues`` carries the scale of the amplitudes: a factor
    ``2**j`` on every amplitude multiplies it by ``2**j`` exactly and leaves
    the other arrays unchanged, bit for bit.
    """

    eigenvalues: np.ndarray
    pair_vectors: np.ndarray
    log_gauge: np.ndarray
    gauge_phase: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def pair_weights(self) -> np.ndarray:
        # log|v| rather than log(v**2), so a component below 1e-162 does not
        # underflow before its gauge weight is added.
        w = np.abs(self.pair_vectors)
        with np.errstate(divide="ignore"):
            np.log(w, out=w)
        w += self.log_gauge[:, None]
        w -= w.max(axis=0, keepdims=True)
        w *= 2.0
        np.exp(w, out=w)
        w /= w.sum(axis=0, keepdims=True)
        return _read_only(w)

    @cached_property
    def right_eigenvectors(self) -> np.ndarray:
        # Columns -sigma_0 ... -sigma_{m-1}, then the zero mode and
        # +sigma_{m-1} ... +sigma_0; a -sigma column is its partner with the
        # odd sites negated.
        half = self.n_modes // 2
        psi = np.copysign(np.sqrt(self.pair_weights), self.pair_vectors)
        psi = np.concatenate((psi[:, :half], psi[:, ::-1]), axis=1)
        psi[1::2, :half] *= -1.0
        return _read_only(self.gauge_phase[:, None] * psi)


def diagonalize(hopping: HoppingMatrix) -> SpectralDecomposition:
    """Diagonalize a hopping matrix through its Hermitian gauge.

    Requires every bond product ``t_fwd * t_bwd`` to be real and strictly
    positive.  The product, and whether it is real (``|Im p| <= 8 eps |p|``),
    come from :meth:`~nhcool.model.HoppingMatrix.bond_domain`, the rule the
    rate and moment layers read too; they raise ``InvalidRegime`` where the
    product is not real, so every chain accepted here is accepted there.
    Only ratios of the products enter the eigenvectors, so each product is
    formed from the binary fractions of its two amplitudes and multiplied by
    the power of two that brings the largest product into [1, 4), and the
    eigenvalues are scaled back exactly: a common factor ``2**j`` on every
    amplitude scales the eigenvalues by ``2**j`` and changes no other bit,
    and a bond far smaller or far more lopsided than the others keeps its
    product and its gauge ratio.
    The returned eigenvalues are exactly real and exactly symmetric about
    zero by construction, and the right eigenvectors, built on first access,
    satisfy ``h @ psi = eps * psi`` to solver accuracy.

    The gauge-symmetrized matrix has zero diagonal and off-diagonal
    ``c_k = sqrt(t_fwd_k * t_bwd_k)``.  With the odd sites ordered before the
    even ones it reads ``[[0, C], [C.T, 0]]``, where ``C`` is the
    ``floor(N/2) x ceil(N/2)`` upper-bidiagonal block with diagonal
    ``c[0::2]`` and superdiagonal ``c[1::2]`` (Golub & Kahan, SIAM J. Numer.
    Anal. B 2, 1965).  One ``numpy.linalg.svd(C) = V diag(sigma) U.T`` gives
    every eigenpair: ``+-sigma_k``, whose eigenvector carries ``u_k / sqrt(2)``
    on the even sites and ``+-v_k / sqrt(2)`` on the odd ones, and for odd
    ``N`` the zero mode, ``u`` of the extra row of ``U.T`` on the even sites
    and 0 on the odd ones.  ``C`` goes to LAPACK rather than its transpose
    because the bidiagonal reduction leaves a square upper-bidiagonal matrix
    exactly as it is, which makes the far tails of the spectral weights of
    even chains two to five times more accurate.

    Raises
    ------
    ValueError
        If an amplitude is not finite, or an eigenvalue overflows.
    SingularBond
        If some bond product is zero, or still subnormal after the scaling:
        the chain disconnects there, to double precision.
    NotGaugeReducible
        If some bond product is negative or is not real.
    """
    # Each product comes from the amplitudes' binary fractions, where it
    # cannot over- or underflow, and 2**(2 s) brings the largest into [1, 4).
    (f, e_fwd), (b, e_bwd) = (_binary_split(band) for band in (hopping.fwd, hopping.bwd))
    frac, real, *_ = HoppingMatrix(f, b).bond_domain()
    live = np.isfinite(frac) & (frac != 0)
    e = e_fwd + e_bwd + np.frexp(np.abs(frac))[1]
    s = (2 - int(e[live].max())) // 2 if live.any() else 0
    prod = np.ldexp(frac.real, e_fwd + e_bwd + 2 * s)
    bad = ~np.isfinite(prod) | ~real | ~(prod >= np.finfo(float).tiny)
    if bad.any():
        k = int(np.argmax(bad))
        p = complex(hopping.fwd[k]) * complex(hopping.bwd[k])
        if not np.isfinite(prod[k]):
            raise ValueError(f"bond {k}: t_fwd = {hopping.fwd[k]} or t_bwd = {hopping.bwd[k]} "
                             "is not finite")
        if real[k] and prod[k] >= 0:
            raise SingularBond(f"bond {k}: t_fwd * t_bwd = {p} is zero or underflows once the "
                               "largest product is scaled into [1, 4); split the chain there")
        raise NotGaugeReducible(f"bond {k}: t_fwd * t_bwd = {p} is not a positive real number")

    # Gauge ratio d_{k+1}/d_k = c_k / t_bwd_k = 2**shift * offdiag / frac_bwd
    # maps h to a symmetric tridiagonal matrix with off-diagonal
    # c_k = sqrt(t_fwd_k * t_bwd_k), here 2**s c_k.  Its log is taken in one
    # piece where the ratio is a normal double, else in two, so it stays finite.
    offdiag = np.sqrt(prod)
    ratio = offdiag / b
    shift = -(e_bwd + s)
    with np.errstate(over="ignore"):
        mag = np.ldexp(np.abs(ratio), shift)
    normal = (mag >= np.finfo(float).tiny) & (mag < np.inf)
    step = np.log(np.where(normal, mag, np.abs(ratio))) + np.where(normal, 0.0, shift * np.log(2.0))
    log_gauge = np.concatenate(([0.0], np.cumsum(step)))
    gauge_phase = np.concatenate(([1.0 + 0.0j], np.cumprod(ratio / np.abs(ratio))))

    # Bond k joins odd site 2 * (k // 2) + 1 to even site 2 * ((k + 1) // 2).
    n = len(log_gauge)
    m = n // 2
    bonds = np.arange(n - 1)
    block = np.zeros((m, n - m))
    block[bonds // 2, (bonds + 1) // 2] = offdiag
    v, sigma, ut = np.linalg.svd(block)
    pairs = np.zeros((n, n - m))
    pairs[0::2] = ut.T
    pairs[1::2, :m] = v
    pairs[:, :m] *= np.sqrt(0.5)
    with np.errstate(over="ignore"):
        eigenvalues = np.ldexp(np.concatenate((-sigma, np.zeros(n - 2 * m), sigma[::-1])), -s)
    if not np.isfinite(eigenvalues).all():
        raise ValueError("an eigenvalue overflows the double range")
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        pair_vectors=pairs,
        log_gauge=log_gauge,
        gauge_phase=gauge_phase,
    )


def spectral_occupations(decomp: SpectralDecomposition, n_th: float) -> np.ndarray:
    """Occupations obtained by filling every eigenvector with ``n_th`` quanta.

    Site ``i`` receives ``n_th * sum_alpha |psi_alpha_i|**2``, read from the
    real log-space ``pair_weights``: each column of a ``+-sigma`` pair counts
    twice and the zero mode once.  Neither the whole weight matrix nor the
    complex eigenvectors are formed.
    With unit-norm eigenvectors the total is exactly ``n_modes * n_th``, and
    a Hermitian chain gives ``n_th`` on every site.  Raises ``ValueError``
    where an occupation overflows the double range.
    """
    if not 0 <= n_th < np.inf:
        raise ValueError(f"n_th must be finite and >= 0, got {n_th}")
    w = decomp.pair_weights
    with np.errstate(over="ignore"):
        occ = n_th * (w.sum(axis=1) + w[:, : decomp.n_modes // 2].sum(axis=1))
    if not np.isfinite(occ).all():
        raise ValueError("an occupation overflows the double range")
    return occ
