import math

import mpmath
import numpy as np
import pytest

from nhcool import (
    Bond,
    ChainSpec,
    ModeParams,
    NotGaugeReducible,
    SingularBond,
    build_hopping_matrix,
    diagonalize,
    localization_profile,
    make_uniform_chain,
    spectral_occupations,
)

LN2 = math.log(2.0)


def decompose_uniform(n, asymmetry=LN2, coupling=1.0):
    spec = make_uniform_chain(n, coupling, asymmetry, 0.0, 1.0)
    return build_hopping_matrix(spec), diagonalize(build_hopping_matrix(spec))


def random_phase_chain(n, seed, asymmetry=3.0):
    """Chain with random t in [0.5, 2] and a random complex phase per bond."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.5, 2.0, n - 1)
    phis = rng.uniform(-math.pi, math.pi, n - 1)
    bonds = tuple(
        Bond(t * math.exp(asymmetry) * np.exp(1j * phi),
             t * math.exp(-asymmetry) * np.exp(-1j * phi))
        for t, phi in zip(ts, phis)
    )
    return ChainSpec(modes=(ModeParams(0.0, 1.0),) * n, bonds=bonds)


def random_positive_chain(n, seed, asymmetry=1.0):
    """Chain with t in [0.5, 2] and a random real asymmetry in [-A, A] per bond."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.5, 2.0, n - 1)
    asym = rng.uniform(-asymmetry, asymmetry, n - 1)
    bonds = tuple(Bond(t * math.exp(a), t * math.exp(-a)) for t, a in zip(ts, asym))
    return ChainSpec(modes=(ModeParams(0.0, 1.0),) * n, bonds=bonds)


def alternating_chain(n, coupling_odd, asymmetry_odd, coupling_even, asymmetry_even):
    """Chain whose bonds alternate ``t exp(+-A)`` between two ``(t, A)``, starting with the odd."""
    odd, even = (Bond(t * math.exp(a), t * math.exp(-a))
                 for t, a in ((coupling_odd, asymmetry_odd), (coupling_even, asymmetry_even)))
    bonds = tuple(odd if k % 2 == 0 else even for k in range(n - 1))
    return ChainSpec(modes=(ModeParams(0.0, 1.0),) * n, bonds=bonds)


def symmetric_offdiag(hop):
    return np.sqrt((hop.fwd * hop.bwd).real)


def uniform_closed_form_occupations(n, asymmetries):
    """``sum_alpha |psi_alpha_i|**2`` of uniform chains from their sine eigenvectors.

    ``psi_alpha_i = e^{A i} sin(alpha pi i / (N + 1))``, evaluated in extended
    precision with the sine argument reduced exactly in integers and the
    gauge handled in log space; one array per asymmetry ``A``.
    """
    ld = np.longdouble
    sites = np.arange(1, n + 1)
    reduced = np.outer(sites, sites) % (2 * (n + 1))
    with np.errstate(divide="ignore"):
        log_sines = np.log(np.abs(np.sin(np.pi * reduced.astype(ld) / ld(n + 1))))
    for asymmetry in asymmetries:
        logw = 2.0 * log_sines + 2.0 * ld(asymmetry) * sites[:, None].astype(ld)
        logw -= logw.max(axis=0)
        w = np.exp(logw)
        w /= w.sum(axis=0)
        yield w.sum(axis=1)


def open_chain_spectrum(n, coupling=1.0):
    alpha = np.arange(1, n + 1)
    return np.sort(2.0 * coupling * np.cos(alpha * np.pi / (n + 1)))


class TestDiagonalize:
    def test_two_mode_eigensystem(self):
        hop, dec = decompose_uniform(2)
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-12)
        # right eigenvectors proportional to (1, -+2), unit norm
        expected = np.abs(np.array([1.0, 2.0]) / math.sqrt(5.0))
        for alpha in range(2):
            assert np.abs(dec.right_eigenvectors[:, alpha]) == pytest.approx(
                expected, rel=1e-12
            )

    def test_three_mode_spectrum(self):
        _, dec = decompose_uniform(3)
        assert dec.eigenvalues == pytest.approx(
            [-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-10
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_uniform_chain_closed_form(self, n):
        _, dec = decompose_uniform(n)
        assert np.sort(dec.eigenvalues) == pytest.approx(
            open_chain_spectrum(n), abs=1e-10
        )

    def test_hermitian_chain_sine_modes(self):
        spec = make_uniform_chain(5, 1.0, 0.0, 0.0, 1.0)
        dec = diagonalize(build_hopping_matrix(spec))
        assert np.sort(dec.eigenvalues) == pytest.approx(open_chain_spectrum(5), abs=1e-12)
        i = np.arange(1, 6)
        for alpha_ix in range(5):
            # eigenvalues ascend; mode index of 2cos(a pi/6) descends with a
            a = 5 - alpha_ix
            sine = np.sin(a * np.pi * i / 6.0)
            sine /= np.linalg.norm(sine)
            got = np.abs(dec.right_eigenvectors[:, alpha_ix])
            assert got == pytest.approx(np.abs(sine), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 40])
    def test_eigen_residual_and_norms(self, n):
        hop, dec = decompose_uniform(n)
        h = hop.matrix
        hnorm = np.linalg.norm(h, 2)
        for alpha in range(n):
            psi = dec.right_eigenvectors[:, alpha]
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            resid = np.linalg.norm(h @ psi - dec.eigenvalues[alpha] * psi)
            assert resid <= 1e-10 * hnorm

    def test_deep_chain_stays_finite(self):
        # gauge weights reach exp(2 A N) ~ 1e180 here; log-space handling keeps
        # everything representable
        _, dec = decompose_uniform(300)
        assert np.all(np.isfinite(dec.right_eigenvectors))
        assert np.sort(dec.eigenvalues) == pytest.approx(
            open_chain_spectrum(300), abs=1e-10
        )

    def test_alternating_chain_diagonalizes(self):
        spec = alternating_chain(6, 1.0, 0.5, 0.4, 0.2)
        hop = build_hopping_matrix(spec)
        dec = diagonalize(hop)
        hnorm = np.linalg.norm(hop.matrix, 2)
        for alpha in range(6):
            psi = dec.right_eigenvectors[:, alpha]
            resid = np.linalg.norm(hop.matrix @ psi - dec.eigenvalues[alpha] * psi)
            assert resid <= 1e-10 * hnorm

    def test_single_mode(self):
        spec = make_uniform_chain(1, 1.0, 0.3, 0.0, 1.0)
        dec = diagonalize(build_hopping_matrix(spec))
        assert dec.eigenvalues == pytest.approx([0.0])
        assert spectral_occupations(dec, 0.8) == pytest.approx([0.8])

    def test_negative_product_rejected(self):
        spec = ChainSpec(
            modes=(ModeParams(0.0, 1.0),) * 2, bonds=(Bond(1.0, -1.0),)
        )
        with pytest.raises(NotGaugeReducible):
            diagonalize(build_hopping_matrix(spec))

    def test_complex_product_rejected(self):
        spec = ChainSpec(
            modes=(ModeParams(0.0, 1.0),) * 2, bonds=(Bond(1.0, 1.0j),)
        )
        with pytest.raises(NotGaugeReducible):
            diagonalize(build_hopping_matrix(spec))

    def test_zero_bond_rejected(self):
        spec = ChainSpec(
            modes=(ModeParams(0.0, 1.0),) * 3,
            bonds=(Bond(1.0, 1.0), Bond(2.0, 0.0)),
        )
        with pytest.raises(SingularBond):
            diagonalize(build_hopping_matrix(spec))

    @pytest.mark.parametrize(
        "bad,error",
        [(Bond(1.0, 0.0), SingularBond), (Bond(1.0, -1.0), NotGaugeReducible)],
    )
    def test_first_offending_bond_is_named(self, bad, error):
        bonds = (Bond(2.0, 0.5), Bond(1.0, 1.0), bad, Bond(1.0, -2.0))
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * 5, bonds=bonds)
        with pytest.raises(error, match=r"^bond 2\b"):
            diagonalize(build_hopping_matrix(spec))

    @pytest.mark.parametrize("coupling", [1e160, 1e200])
    def test_overflowing_bond_product_rejected(self, coupling):
        # t_fwd * t_bwd = t**2 is inf; the eigenvalues and occupations were nan
        spec = make_uniform_chain(3, coupling, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^bond 0: t_fwd \* t_bwd = .* not finite"):
            diagonalize(build_hopping_matrix(spec))

    def test_complex_bond_with_real_positive_product(self):
        # amplitudes may be complex as long as t_fwd * t_bwd > 0
        spec = ChainSpec(
            modes=(ModeParams(0.0, 1.0),) * 2, bonds=(Bond(2.0j, -0.5j),)
        )
        hop = build_hopping_matrix(spec)
        dec = diagonalize(hop)
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-12)
        for alpha in range(2):
            psi = dec.right_eigenvectors[:, alpha]
            resid = np.linalg.norm(hop.matrix @ psi - dec.eigenvalues[alpha] * psi)
            assert resid <= 1e-10

    def test_eigenvectors_built_only_on_access(self):
        _, dec = decompose_uniform(40)
        spectral_occupations(dec, 1.0)
        # the occupations read only the pair block
        assert not {"weights", "hermitian_eigenvectors"} & set(vars(dec))
        localization_profile(dec)
        assert "right_eigenvectors" not in vars(dec)
        assert dec.hermitian_eigenvectors.dtype == np.float64

    @pytest.mark.parametrize(
        "bonds,expected",
        [
            # uniform chain, N = 3, A = ln 2
            (
                (Bond(2.0, 0.5),) * 2,
                [
                    [-2.0000000000000009e-01, 2.4253562503633297e-01, 2.0000000000000007e-01],
                    [5.6568542494923812e-01, -3.3320293635273981e-17, 5.6568542494923790e-01],
                    [-8.0000000000000004e-01, -9.7014250014533188e-01, 8.0000000000000004e-01],
                ],
            ),
            # complex amplitudes with real positive bond products
            (
                (Bond(2.0j, -0.5j), Bond(1.5 * np.exp(0.3j), 0.5 * np.exp(-0.3j))),
                [
                    [0.24253562503633305, -0.2425356250363329, 0.24253562503633316],
                    [-6.4168894791974807e-01j, 1.9023301839680455e-16j, 6.4168894791974818e-01j],
                    [
                        -0.2150225341004228 + 6.9510939753028411e-01j,
                        -0.28669671213389714 + 9.2681253004037911e-01j,
                        -0.21502253410042277 + 6.9510939753028400e-01j,
                    ],
                ],
            ),
        ],
    )
    def test_right_eigenvectors_match_eager_construction(self, bonds, expected):
        # values of the former eager un-gauging; each column is fixed up to the
        # sign the tridiagonal eigensolver picks
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * 3, bonds=bonds)
        psi = diagonalize(build_hopping_matrix(spec)).right_eigenvectors
        expected = np.array(expected)
        for alpha in range(3):
            dev = min(
                np.abs(psi[:, alpha] - sign * expected[:, alpha]).max()
                for sign in (1.0, -1.0)
            )
            assert dev <= 1e-13


class TestBidiagonalEigensolve:
    """The SVD of the odd-by-even block against its defining properties and
    against independent eigensolvers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 101, 1000, 1001])
    def test_structure_orthonormality_and_residual(self, n):
        hop = build_hopping_matrix(random_positive_chain(n, seed=n))
        dec = diagonalize(hop)
        ev = dec.eigenvalues
        assert np.all(np.diff(ev) >= 0)
        assert np.array_equal(ev, -ev[::-1])
        assert np.count_nonzero(ev == 0.0) == n % 2
        q = dec.hermitian_eigenvectors
        assert q.dtype == np.float64 and q.shape == (n, n)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
        c = symmetric_offdiag(hop)
        t = np.diag(c, 1) + np.diag(c, -1)
        assert np.abs(t @ q - q * ev).max() <= 1e-13 * max(c.max(initial=0.0), 1.0)
        # the ordered weights and the pair block give the same occupations
        assert spectral_occupations(dec, 1.0) == pytest.approx(dec.weights.sum(axis=1), rel=1e-13)

    def test_pair_block_is_the_nonnegative_half(self):
        for n in (6, 7):
            dec = diagonalize(build_hopping_matrix(random_positive_chain(n, seed=3)))
            half = (n + 1) // 2
            assert dec.pair_vectors.shape == (n, half)
            assert np.array_equal(
                dec.hermitian_eigenvectors[:, ::-1][:, :half], dec.pair_vectors
            )
            assert np.array_equal(dec.weights[:, ::-1][:, :half], dec.pair_weights)

    def test_eigenvalues_match_scipy_tridiagonal_solver(self):
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(1, 301))
            hop = build_hopping_matrix(random_positive_chain(n, seed=trial, asymmetry=3.0))
            c = symmetric_offdiag(hop)
            expected = eigh_tridiagonal(np.zeros(n), c, eigvals_only=True)
            got = diagonalize(hop).eigenvalues
            assert np.abs(got - expected).max() <= 1e-13 * c.max(initial=1.0), (trial, n)

    def test_matches_extended_precision_eigsy(self):
        n = 30
        hop = build_hopping_matrix(random_positive_chain(n, seed=30))
        dec = diagonalize(hop)
        c = symmetric_offdiag(hop)
        with mpmath.workdps(40):
            t = mpmath.zeros(n, n)
            for k in range(n - 1):
                t[k, k + 1] = t[k + 1, k] = mpmath.mpf(float(c[k]))
            evals, vecs = mpmath.eigsy(t)
            gauge = [mpmath.mpf(0)]
            for k in range(n - 1):
                ratio = mpmath.mpf(float(c[k])) / mpmath.mpf(float(hop.bwd[k].real))
                gauge.append(gauge[-1] + mpmath.log(ratio))
            weights = np.empty((n, n))
            for alpha in range(n):
                col = [vecs[i, alpha] ** 2 * mpmath.exp(2 * gauge[i]) for i in range(n)]
                norm = mpmath.fsum(col)
                weights[:, alpha] = [float(x / norm) for x in col]
            evals = np.array([float(x) for x in evals])
        assert dec.eigenvalues == pytest.approx(evals, rel=1e-13, abs=0.0)
        assert dec.weights == pytest.approx(weights, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 101, 300, 1000, 1001])
    def test_uniform_occupations_match_sine_eigenvectors(self, n):
        # Componentwise on every site whose occupation is a normal double,
        # down to 1e-300 in the cold tail.  The eigenvectors are accurate in
        # absolute terms, to about eps / gap ~ eps N**2 at the band edges,
        # and the gauge carries that into the tail; the worst case over this
        # grid is 8.6e-11, at N = 1001.
        asymmetries = (0.3, LN2, 3.0)
        tol = 1e-14 + 2e-16 * n**2
        for asymmetry, ref in zip(asymmetries, uniform_closed_form_occupations(n, asymmetries)):
            spec = make_uniform_chain(n, 1.01, asymmetry, 0.0, 1.0)
            occ = spectral_occupations(diagonalize(build_hopping_matrix(spec)), 1.0)
            normal = ref > 1e-300
            assert occ[normal] == pytest.approx(
                ref[normal].astype(float), rel=tol, abs=0.0
            ), asymmetry

    @pytest.mark.xfail(strict=True, reason="absolute-accuracy eigenvectors; tails need a twisted factorization")
    def test_disordered_tail_has_relative_accuracy(self):
        # Bonds log-uniform in [1e-3, 1] at A = 3: the gauge lifts cold-edge
        # eigenvector components that the SVD only resolves to absolute
        # accuracy, and the occupations come out 3.2 relative from the
        # reference.  The reference takes the eigenvalues of the same
        # symmetric matrix from mpmath.eigsy and the eigenvectors from the
        # three-term recurrence, at 200 digits; it agrees with a full
        # 120-digit eigsy to every double.
        n, asymmetry = 40, 3.0
        rng = np.random.default_rng(1)
        ts = np.exp(rng.uniform(math.log(1e-3), 0.0, n - 1))
        bonds = tuple(Bond(t * math.exp(asymmetry), t * math.exp(-asymmetry)) for t in ts)
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * n, bonds=bonds)
        occ = spectral_occupations(diagonalize(build_hopping_matrix(spec)), 1.0)
        with mpmath.workdps(200):
            c = [mpmath.mpf(float(t)) for t in ts]
            t = mpmath.zeros(n, n)
            for k in range(n - 1):
                t[k, k + 1] = t[k + 1, k] = c[k]
            ref = [mpmath.mpf(0)] * n
            for lam in mpmath.eigsy(t, eigvals_only=True):
                v = [mpmath.mpf(1), lam / c[0]]
                for i in range(1, n - 1):
                    v.append((lam * v[i] - c[i - 1] * v[i - 1]) / c[i])
                assert abs(lam * v[-1] - c[-1] * v[-2]) <= mpmath.mpf(10) ** -100 * max(map(abs, v))
                col = [v[i] ** 2 * mpmath.exp(2 * asymmetry * i) for i in range(n)]
                norm = mpmath.fsum(col)
                for i in range(n):
                    ref[i] += col[i] / norm
            ref = np.array([float(x) for x in ref])
        assert occ == pytest.approx(ref, rel=1e-10, abs=0.0)


class TestSpectralOccupations:
    def test_two_mode_values(self):
        _, dec = decompose_uniform(2)
        occ = spectral_occupations(dec, 1.0)
        assert occ == pytest.approx([0.4, 1.6], rel=1e-12)

    def test_three_mode_values(self):
        _, dec = decompose_uniform(3)
        occ = spectral_occupations(dec, 1.0)
        assert occ == pytest.approx([59 / 425, 272 / 425, 944 / 425], rel=1e-10)
        assert occ.sum() == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 9, 40, 300])
    def test_sum_rule(self, n):
        _, dec = decompose_uniform(n)
        occ = spectral_occupations(dec, 0.7)
        assert occ.sum() == pytest.approx(n * 0.7, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_hermitian_chain_is_flat(self, n):
        spec = make_uniform_chain(n, 1.0, 0.0, 0.0, 1.0)
        occ = spectral_occupations(diagonalize(build_hopping_matrix(spec)), 1.0)
        assert occ == pytest.approx(np.ones(n), rel=1e-12)

    def test_edge_suppression_scaling(self):
        # n_1/n_2 tracks exp(-2A) with a sine-envelope correction that sits in
        # (1/2, 1]: it starts near 0.87 at N=4 and drifts towards 1/2 as the
        # chain grows
        for n in (4, 6, 10, 12):
            for asym in (0.5, LN2, 1.0):
                _, dec = decompose_uniform(n, asymmetry=asym)
                occ = spectral_occupations(dec, 1.0)
                corr = occ[0] / occ[1] * math.exp(2 * asym)
                assert 0.5 <= corr <= 1.0, (n, asym, corr)

    def test_edge_suppression_short_chain_band(self):
        for asym in (0.5, LN2):
            _, dec = decompose_uniform(4, asymmetry=asym)
            occ = spectral_occupations(dec, 1.0)
            ratio = occ[0] / occ[1]
            assert 0.8 * math.exp(-2 * asym) <= ratio <= 1.25 * math.exp(-2 * asym)

    def test_negative_n_th_rejected(self):
        _, dec = decompose_uniform(2)
        with pytest.raises(ValueError):
            spectral_occupations(dec, -1.0)

    def test_overflowing_occupation_rejected(self):
        # the cold site's 0.4 n_th is finite, the hot site's 1.6 n_th is not
        _, dec = decompose_uniform(2)
        with pytest.raises(ValueError, match="an occupation overflows the double range"):
            spectral_occupations(dec, 1.5e308)

    @pytest.mark.parametrize(
        "spec,dps",
        [
            (random_phase_chain(12, seed=1), 60),
            (random_phase_chain(16, seed=2), 80),
            (alternating_chain(14, 1.0, 3.0, 0.6, -1.5), 60),
        ],
        ids=["phases-12", "phases-16", "alternating-14"],
    )
    def test_matches_extended_precision_eigenvectors(self, spec, dps):
        # reference: right eigenvectors of the dense, untransformed h in
        # extended precision, each normalized, summed as |psi|**2
        hop = build_hopping_matrix(spec)
        n = spec.n_modes
        with mpmath.workdps(dps):
            _, vecs = mpmath.eig(mpmath.matrix(hop.matrix.tolist()))
            ref = [mpmath.mpf(0)] * n
            for alpha in range(n):
                col = [abs(vecs[i, alpha]) ** 2 for i in range(n)]
                norm = mpmath.fsum(col)
                for i in range(n):
                    ref[i] += col[i] / norm
            ref = np.array([float(x) for x in ref])
        occ = spectral_occupations(diagonalize(hop), 1.0)
        assert occ == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestLocalization:
    def test_two_mode_ratios(self):
        _, dec = decompose_uniform(2)
        prof = localization_profile(dec)
        assert prof.shape == (2, 1)
        assert prof == pytest.approx(np.full((2, 1), 2.0), rel=1e-12)

    @pytest.mark.parametrize("n,asym", [(10, LN2), (6, 0.5), (12, 1.0)])
    def test_geometric_mean_equals_gauge_factor(self, n, asym):
        # product of the ratios telescopes to exp(A (N-1)) for every
        # eigenvector of a uniform chain; N+1 prime keeps interior sine nodes
        # away so every ratio is defined
        _, dec = decompose_uniform(n, asymmetry=asym)
        prof = localization_profile(dec)
        for alpha in range(n):
            row = prof[alpha]
            assert np.all(np.isfinite(row))
            geo = np.exp(np.mean(np.log(row)))
            assert geo == pytest.approx(math.exp(asym), rel=1e-10)

    def test_ratios_match_gauged_sine_ratios(self):
        n = 10
        _, dec = decompose_uniform(n)
        prof = localization_profile(dec)
        i = np.arange(1, n + 1)
        for alpha_ix in range(n):
            a = n - alpha_ix  # ascending eigenvalues reverse the sine index
            sine = np.abs(np.sin(a * np.pi * i / (n + 1)))
            expected = 2.0 * sine[1:] / sine[:-1]
            assert prof[alpha_ix] == pytest.approx(expected, rel=1e-8)

    def test_hermitian_ratios_have_no_trend(self):
        spec = make_uniform_chain(5, 1.0, 0.0, 0.0, 1.0)
        dec = diagonalize(build_hopping_matrix(spec))
        prof = localization_profile(dec)
        i = np.arange(1, 6)
        for alpha_ix in range(5):
            a = 5 - alpha_ix
            sine = np.sin(a * np.pi * i / 6.0)
            expected = np.abs(sine[1:] / sine[:-1])
            got = prof[alpha_ix]
            mask = np.isfinite(got)
            assert got[mask] == pytest.approx(expected[mask], rel=1e-8)

    def test_tiny_components_filtered(self):
        # the middle eigenvector of a 3-site chain has an exact node
        _, dec = decompose_uniform(3)
        prof = localization_profile(dec)
        assert np.isnan(prof).sum() == 1


class TestEnvelopes:
    def test_envelope_recovers_sine_profile(self):
        n = 10
        _, dec = decompose_uniform(n)
        env = np.abs(dec.hermitian_eigenvectors)
        i = np.arange(1, n + 1)
        for alpha_ix in range(n):
            a = n - alpha_ix
            sine = np.abs(np.sin(a * np.pi * i / (n + 1)))
            sine /= np.linalg.norm(sine)
            assert env[:, alpha_ix] == pytest.approx(sine, abs=1e-8)

    def test_envelope_finite_in_overflow_regime(self):
        _, dec = decompose_uniform(250)
        env = np.abs(dec.hermitian_eigenvectors)
        assert np.all(np.isfinite(env))

    def test_envelope_exact_in_overflow_regime(self):
        # the gauge spans exp(3 * 249) here, so |psi| underflows at the cold
        # edge; the envelope must still be the sine on every site
        n = 250
        _, dec = decompose_uniform(n, asymmetry=3.0)
        env = np.abs(dec.hermitian_eigenvectors)
        i = np.arange(1, n + 1)
        for alpha_ix in range(n):
            a = n - alpha_ix
            sine = np.abs(np.sin(a * np.pi * i / (n + 1)))
            sine /= np.linalg.norm(sine)
            assert env[:, alpha_ix] == pytest.approx(sine, abs=1e-10)
