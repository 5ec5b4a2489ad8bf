import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhcool import (
    Bond,
    ChainSpec,
    ModeParams,
    NotGaugeReducible,
    SingularBond,
    build_hopping_matrix,
    diagonalize,
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


def whole_spectrum(dec):
    """The real eigenvectors and their weights ``|psi|**2`` for the whole
    ascending spectrum, one column per eigenvalue, from the pair block: the
    eigenvector of ``-sigma`` is that of ``+sigma`` with the odd sites negated."""
    half = dec.n_modes // 2
    vecs, weights = (np.concatenate((pairs[:, :half], pairs[:, ::-1]), axis=1)
                     for pairs in (dec.pair_vectors, dec.pair_weights))
    vecs[1::2, :half] *= -1.0
    return vecs, weights


def localization_profile(dec):
    """``|psi_alpha_{i+1} / psi_alpha_i|`` of every eigenvector, row ``alpha``;
    NaN where ``|psi_alpha_i|`` is 1e-12 or less."""
    mags = np.sqrt(whole_spectrum(dec)[1])
    denom = mags[:-1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 1e-12, mags[1:, :] / denom, np.nan)
    return ratios.T


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
    def test_overflowing_bond_product_is_scaled(self, coupling):
        # t_fwd * t_bwd = t**2 overflows a double, and the eigenvalues and
        # occupations were once nan; only the spectrum carries the scale
        unit, dec = (diagonalize(build_hopping_matrix(make_uniform_chain(3, t, 1.0, 0.0, 1.0)))
                     for t in (1.0, coupling))
        assert dec.eigenvalues == pytest.approx(coupling * unit.eigenvalues, rel=1e-14)
        assert spectral_occupations(dec, 1.0) == pytest.approx(
            spectral_occupations(unit, 1.0), rel=1e-14)

    def test_overflowing_eigenvalue_rejected(self):
        # every product fits once scaled, but the eigenvalues +-sqrt(2) t do not
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * 3, bonds=(Bond(1.5e308, 1.5e308),) * 2)
        with pytest.raises(ValueError, match="an eigenvalue overflows the double range"):
            diagonalize(build_hopping_matrix(spec))

    def test_underflowing_bond_product_rejected(self):
        # 1e-320 next to 1 is subnormal after the scaling, with 7 significant
        # bits left; its weights were returned as if it were exact
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * 3,
                         bonds=(Bond(1.0, 1.0), Bond(1e-160, 1e-160)))
        with pytest.raises(SingularBond, match=r"^bond 1: .* underflows"):
            diagonalize(build_hopping_matrix(spec))

    @pytest.mark.parametrize("asymmetry,coupling", [(705.0, 1e100), (700.0, 1e8)])
    def test_lopsided_bond_keeps_its_product(self, asymmetry, coupling):
        # e^{+-A} has the product 1, far below t**2: scaling both amplitudes
        # by the 2**s of the largest product would take e^{-A} to 0 or to a
        # subnormal.  Diagonalizing the unscaled products gives these bits.
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * 3, bonds=(
            Bond(math.exp(asymmetry), math.exp(-asymmetry)), Bond(coupling, coupling)))
        dec = diagonalize(build_hopping_matrix(spec))
        assert dec.eigenvalues.tolist() == [-coupling, 0.0, coupling]
        assert dec.log_gauge.tolist() == [0.0, asymmetry, asymmetry]
        assert dec.pair_weights[:, 0].tolist() == [0.0, 0.5, 0.5]

    def test_lopsided_bond_gauge_stays_finite(self):
        # sqrt(t_fwd t_bwd) / t_bwd = 1e310 overflowed in linear space, every
        # weight was NaN and the occupations raised an overflow
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * 3,
                         bonds=(Bond(1e305, 1e-315), Bond(1.0, 1.0)))
        dec = diagonalize(build_hopping_matrix(spec))
        assert dec.log_gauge[1] == pytest.approx(0.5 * (math.log(1e305) - math.log(1e-315)))
        # c = (sqrt(x), 1) with x = 1e-10: the pair +-sqrt(1 + x) lies on
        # sites 1 and 2 in the ratio 1 + x : 1, the zero mode on site 2; both
        # sites carry the gauge 714, whose ulp, 1.1e-13, bounds the accuracy
        x = 1e305 * 1e-315
        assert spectral_occupations(dec, 1.0) == pytest.approx(
            [0.0, 2 * (1 + x) / (2 + x), 1 + 2 / (2 + x)], rel=1e-12, abs=0.0)

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
        fields = {"eigenvalues", "pair_vectors", "log_gauge", "gauge_phase"}
        assert set(vars(dec)) - fields == {"pair_weights"}
        assert dec.right_eigenvectors.dtype == np.complex128

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


@st.composite
def positive_chains(draw):
    """1-30 modes joined by bonds with positive amplitudes in [1e-3, 1e3]."""
    n = draw(st.integers(1, 30))
    amp = st.floats(1e-3, 1e3)
    bonds = draw(st.lists(st.builds(Bond, amp, amp), min_size=n - 1, max_size=n - 1))
    return ChainSpec(modes=(ModeParams(0.0, 1.0),) * n, bonds=tuple(bonds))


@settings(max_examples=60, deadline=None)
@given(positive_chains(), st.integers(-900, 900))
def test_power_of_two_scale_is_exact(spec, j):
    # only ratios of the bond products enter the weights: 2**j on every
    # amplitude scales the spectrum by 2**j and changes nothing else
    scaled = ChainSpec(modes=spec.modes, bonds=tuple(
        Bond(math.ldexp(b.t_fwd, j), math.ldexp(b.t_bwd, j)) for b in spec.bonds))
    base, dec = (diagonalize(build_hopping_matrix(s)) for s in (spec, scaled))
    assert dec.eigenvalues.tobytes() == np.ldexp(base.eigenvalues, j).tobytes()
    assert dec.pair_vectors.tobytes() == base.pair_vectors.tobytes()
    assert spectral_occupations(dec, 1.0).tobytes() == spectral_occupations(base, 1.0).tobytes()


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
        q, weights = whole_spectrum(dec)
        assert q.dtype == np.float64 and q.shape == (n, n)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
        c = symmetric_offdiag(hop)
        t = np.diag(c, 1) + np.diag(c, -1)
        assert np.abs(t @ q - q * ev).max() <= 1e-13 * max(c.max(initial=0.0), 1.0)
        # the ordered weights and the pair block give the same occupations
        assert spectral_occupations(dec, 1.0) == pytest.approx(weights.sum(axis=1), rel=1e-13)

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
        assert whole_spectrum(dec)[1] == pytest.approx(weights, rel=1e-10, abs=0.0)

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

    @pytest.mark.xfail(strict=True, reason="the SVD's zero mode is absolute-accuracy; the gauge lifts its tail")
    def test_odd_chain_zero_mode_has_relative_accuracy(self):
        # Dimerized skin chain: N = 101, bond t alternating 1, 3, canonical
        # A = 1.  The zero mode vanishes on the odd sites, and on the even
        # ones u_{2j+2} = -u_{2j} c_{2j} / c_{2j+1}, c_k = sqrt(t_fwd t_bwd).
        # Built from that recurrence in log space it puts 0.835 of its weight
        # on site 100; the SVD column peaks on site 66, up to 0.88 away, and
        # n_i_spectral moves with it.
        n = 101
        ts = np.where(np.arange(n - 1) % 2 == 0, 1.0, 3.0)
        spec = ChainSpec(modes=(ModeParams(0.0, 1.0),) * n,
                         bonds=tuple(Bond(t * math.exp(1.0), t * math.exp(-1.0)) for t in ts))
        hop = build_hopping_matrix(spec)
        dec = diagonalize(hop)
        log_c = 0.5 * np.log((hop.fwd * hop.bwd).real)
        log_u = np.concatenate(([0.0], np.cumsum(log_c[0::2] - log_c[1::2])))
        log_w = 2.0 * (log_u + dec.log_gauge[0::2])
        exact = np.zeros(n)
        exact[0::2] = np.exp(log_w - log_w.max())
        exact /= exact.sum()
        assert exact[-1] == pytest.approx(0.835, abs=5e-4)
        assert dec.pair_weights[:, -1] == pytest.approx(exact, rel=0.0, abs=1e-10)


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
        env = np.abs(whole_spectrum(dec)[0])
        i = np.arange(1, n + 1)
        for alpha_ix in range(n):
            a = n - alpha_ix
            sine = np.abs(np.sin(a * np.pi * i / (n + 1)))
            sine /= np.linalg.norm(sine)
            assert env[:, alpha_ix] == pytest.approx(sine, abs=1e-8)

    def test_envelope_finite_in_overflow_regime(self):
        _, dec = decompose_uniform(250)
        env = np.abs(whole_spectrum(dec)[0])
        assert np.all(np.isfinite(env))

    def test_envelope_exact_in_overflow_regime(self):
        # the gauge spans exp(3 * 249) here, so |psi| underflows at the cold
        # edge; the envelope must still be the sine on every site
        n = 250
        _, dec = decompose_uniform(n, asymmetry=3.0)
        env = np.abs(whole_spectrum(dec)[0])
        i = np.arange(1, n + 1)
        for alpha_ix in range(n):
            a = n - alpha_ix
            sine = np.abs(np.sin(a * np.pi * i / (n + 1)))
            sine /= np.linalg.norm(sine)
            assert env[:, alpha_ix] == pytest.approx(sine, abs=1e-10)
