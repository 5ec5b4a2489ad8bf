import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhcool import (
    Bond,
    ChainSpec,
    DivergentRate,
    InvalidRegime,
    ModeParams,
    RateMatrix,
    SingularSystem,
    ToleranceNotMet,
    attached_mode_estimate,
    build_hopping_matrix,
    build_rate_matrix,
    closed_form_two_mode,
    diagonalize,
    make_uniform_chain,
    plateau_limit,
    solve_steady_chain,
    solve_steady_rates,
    solve_with_attached,
    spectral_occupations,
)
from nhcool.steady import _check_residual

LN2 = math.log(2.0)


def exact_rational_solve(rates, kappa, n_th):
    """Dense Gaussian elimination over exact rationals; the brute-force oracle."""
    n = len(kappa)
    g = [[Fraction(float(rates[i][j])) for j in range(n)] for i in range(n)]
    kap = [Fraction(float(k)) for k in kappa]
    nth = [Fraction(float(v)) for v in n_th]
    m = [[Fraction(0)] * n for _ in range(n)]
    b = [kap[i] * nth[i] for i in range(n)]
    for i in range(n):
        m[i][i] = sum(g[i][j] for j in range(n) if j != i) + kap[i]
        for j in range(n):
            if j != i:
                m[i][j] -= g[j][i]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
            b[r] -= f * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(m[r][c] * x[c] for c in range(r + 1, n))) / m[r][r]
    return np.array([float(v) for v in x])


@pytest.mark.parametrize("residual", [math.nan, 2e-7])
def test_residual_gate_fails_closed(residual):
    # the gate of the moment and master-equation solves; a cold bath counts as n_th = 1
    kappa, n_th = np.array([0.1, 0.05]), np.zeros(2)
    _check_residual(1e-7, kappa, n_th, 1e-6, "moment")
    with pytest.raises(ToleranceNotMet, match="stationary moment residual .* exceeds 1.000e-07"):
        _check_residual(residual, kappa, n_th, 1e-6, "moment")


class TestClosedFormTwoMode:
    def test_canonical_point(self):
        n1, n2 = closed_form_two_mode(1.0, LN2, 0.01, 0.01, 1.0)
        # exact value 25001/62501 for g12 = 500, g21 = 125
        assert n1 == pytest.approx(0.40000959984640244, rel=1e-12)
        assert n2 == pytest.approx(1.5999904001535976, rel=1e-12)
        assert n1 + n2 == pytest.approx(2.0, rel=1e-14)

    def test_hermitian_limit(self):
        n1, n2 = closed_form_two_mode(1.0, 0.0, 0.01, 0.01, 0.7)
        assert n1 == pytest.approx(0.7, rel=1e-14)
        assert n2 == pytest.approx(0.7, rel=1e-14)

    def test_strong_asymmetry_empties_first_mode(self):
        n1, _ = closed_form_two_mode(1.0, 20.0, 0.01, 0.01, 1.0)
        assert n1 < 1e-15

    def test_monotone_cooling_in_asymmetry(self):
        values = [
            closed_form_two_mode(1.0, a, 0.01, 0.01, 1.0)[0]
            for a in np.linspace(0.0, 2.0, 41)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_asymmetric_kappas_against_rational_oracle(self):
        rates = build_rate_matrix(
            ChainSpec(
                modes=(ModeParams(0.02, 0.6), ModeParams(0.07, 0.6)),
                bonds=(Bond(1.0 * math.exp(0.4), 1.0 * math.exp(-0.4)),),
            )
        ).rates
        want = exact_rational_solve(rates, [0.02, 0.07], [0.6, 0.6])
        got = closed_form_two_mode(1.0, 0.4, 0.02, 0.07, 0.6)
        assert got == pytest.approx(tuple(want), rel=1e-13)

    def test_requires_positive_kappa(self):
        with pytest.raises(ValueError):
            closed_form_two_mode(1.0, 0.3, 0.0, 0.01, 1.0)

    @pytest.mark.parametrize("coupling,asymmetry", [(1.0, math.nan), (1.0, math.inf), (0.0, 0.3)])
    def test_rejects_bad_bond(self, coupling, asymmetry):
        with pytest.raises(ValueError):
            closed_form_two_mode(coupling, asymmetry, 0.01, 0.01, 1.0)

    def test_rejects_overflowing_rate(self):
        # e^A = 1e200: the amplitudes are finite, t^2 e^{2A} is not
        with pytest.raises(ValueError, match="^bond 0 produces a transition rate that is not finite"):
            closed_form_two_mode(1.0, math.log(1e200), 0.01, 0.01, 1.0)


class TestSolveSteadyChain:
    def test_rejects_overflowing_rate(self):
        with pytest.raises(ValueError, match="^bond 0 produces a transition rate that is not finite"):
            solve_steady_chain(make_uniform_chain(3, 1.0, 400.0, 0.01, 1.0))

    def test_matches_closed_form_at_two_modes(self):
        ss = solve_steady_chain(make_uniform_chain(2, 1.0, LN2, 0.01, 1.0))
        n1, n2 = closed_form_two_mode(1.0, LN2, 0.01, 0.01, 1.0)
        assert ss.occupations == pytest.approx([n1, n2], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 20])
    def test_hermitian_null(self, n):
        ss = solve_steady_chain(make_uniform_chain(n, 1.0, 0.0, 0.01, 0.8))
        assert ss.occupations == pytest.approx(np.full(n, 0.8), rel=1e-12)

    def test_small_kappa_geometric_profile(self):
        ss = solve_steady_chain(make_uniform_chain(3, 1.0, LN2, 1e-6, 1.0))
        assert ss.occupations == pytest.approx([1 / 7, 4 / 7, 16 / 7], rel=1e-6)

    def test_decoupled_chain_thermalizes(self):
        spec = ChainSpec(
            modes=(ModeParams(0.01, 1.0),) * 2, bonds=(Bond(0.0, 0.0),)
        )
        ss = solve_steady_chain(spec)
        assert ss.occupations == pytest.approx([1.0, 1.0], rel=1e-14)

    @pytest.mark.parametrize(
        "n,kappa,asym",
        [(2, 1e-6, LN2), (3, 1e-6, LN2), (5, 1e-6, LN2), (8, 1e-6, 0.4),
         (10, 0.01, LN2), (30, 0.01, LN2), (6, 0.5, 1.0), (100, 1e-6, 3.0)],
    )
    def test_componentwise_accuracy_against_rational_oracle(self, n, kappa, asym):
        # the subtraction-free elimination keeps every component accurate even
        # where the condition number reaches t^2/kappa^2 ~ 1e12
        spec = make_uniform_chain(n, 1.0, asym, kappa, 1.0)
        rates = build_rate_matrix(spec).rates
        want = exact_rational_solve(rates, spec.kappa_vector(), spec.n_th_vector())
        got = solve_steady_chain(spec).occupations
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_occupations_never_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            spec = make_uniform_chain(
                n, 1.0, float(rng.uniform(0, 1.5)), float(rng.uniform(1e-5, 0.5)), 1.0
            )
            assert np.all(solve_steady_chain(spec).occupations >= 0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 30])
    @pytest.mark.parametrize("kappa", [0.01, 0.05])
    def test_residual_bound_canonical_regime(self, n, kappa):
        # the f64 evaluation floor eps * |row| * n keeps this bound out of
        # reach below kappa ~ 1e-3; there the componentwise value accuracy is
        # what matters (previous test)
        ss = solve_steady_chain(make_uniform_chain(n, 1.0, LN2, kappa, 1.0))
        assert ss.residual <= 1e-10 * kappa * 1.0

    def test_long_uniform_chain(self):
        n = 100_000
        ss = solve_steady_chain(make_uniform_chain(n, 1.0, LN2, 0.01, 0.5))
        assert ss.occupations.sum() == pytest.approx(n * 0.5, rel=1e-10)
        assert np.all(ss.occupations >= 0.0)
        assert np.isfinite(ss.residual)

    def test_tiny_bath_keeps_relative_accuracy(self):
        # A = 3 over 50 modes spreads the occupations over ~250 decades, so at
        # n_th = 1e-300 most of them are subnormal; the normal ones must equal
        # the n_th = 1 profile scaled down
        occ = solve_steady_chain(make_uniform_chain(50, 1.0, 3.0, 1e-6, 1e-300)).occupations
        ref = solve_steady_chain(make_uniform_chain(50, 1.0, 3.0, 1e-6, 1.0)).occupations * 1e-300
        normal = ref >= np.finfo(float).tiny
        assert 0 < normal.sum() < 50
        assert occ[normal] == pytest.approx(ref[normal], rel=1e-14, abs=0.0)

    def test_subnormal_bath_keeps_sum_rule(self):
        occ = solve_steady_chain(make_uniform_chain(50, 1.0, 3.0, 1e-6, 1e-310)).occupations
        assert occ.sum() == pytest.approx(50 * 1e-310, rel=1e-6, abs=0.0)

    def test_all_kappa_zero_uncoupled_raises(self):
        spec = ChainSpec(
            modes=(ModeParams(0.0, 1.0),) * 2, bonds=(Bond(0.0, 0.0),)
        )
        with pytest.raises(SingularSystem):
            solve_steady_chain(spec)

    def test_all_kappa_zero_coupled_raises_divergent(self):
        with pytest.raises(DivergentRate):
            solve_steady_chain(make_uniform_chain(3, 1.0, LN2, 0.0, 1.0))


def random_bands(rng, n, high):
    """Rate bands drawn uniformly from [0, high): the forward band first."""
    return RateMatrix(rng.uniform(0.0, high, n - 1), rng.uniform(0.0, high, n - 1))


class TestSolveSteadyRates:
    def test_conservation_for_random_nearest_neighbor_rates(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            g = random_bands(rng, n, 10.0)
            ss = solve_steady_rates(g, np.full(n, 0.03), np.full(n, 0.8))
            assert ss.occupations.sum() == pytest.approx(n * 0.8, rel=1e-10)

    def test_weighted_conservation_for_nonuniform_baths(self):
        # kappa-weighted occupations balance kappa-weighted injections exactly
        rng = np.random.default_rng(3)
        n = 6
        g = random_bands(rng, n, 5.0)
        kappa = rng.uniform(0.001, 0.2, n)
        n_th = rng.uniform(0.0, 2.0, n)
        ss = solve_steady_rates(g, kappa, n_th)
        assert (kappa * ss.occupations).sum() == pytest.approx(
            (kappa * n_th).sum(), rel=1e-12
        )

    def test_matches_rational_oracle_on_random_rates(self):
        rng = np.random.default_rng(7)
        n = 7
        g = random_bands(rng, n, 8.0)
        kappa = rng.uniform(1e-6, 0.1, n)
        n_th = rng.uniform(0.0, 1.5, n)
        want = exact_rational_solve(g.rates, kappa, n_th)
        got = solve_steady_rates(g, kappa, n_th).occupations
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_bands(rng, n, 10.0)
        ss = solve_steady_rates(g, np.full(n, 0.02), np.full(n, 1.0))
        assert ss.occupations.sum() == pytest.approx(float(n), rel=1e-10)

    def test_chain_solve_is_the_rate_solve_of_its_bands(self):
        spec = make_uniform_chain(50, 1.0, LN2, 1e-6, 1.0)
        want = solve_steady_chain(spec)
        got = solve_steady_rates(build_rate_matrix(spec), spec.kappa_vector(), spec.n_th_vector())
        assert got.occupations.tobytes() == want.occupations.tobytes()
        assert got.residual == want.residual

    def test_rejects_negative_rates(self):
        g = RateMatrix(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            solve_steady_rates(g, np.array([0.1, 0.1]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("which", ["fwd", "bwd", "kappa", "n_th"])
    def test_rejects_infinite_input(self, which):
        # an infinite input would otherwise surface as an overflowing occupation
        inputs = {"fwd": [1.0], "bwd": [1.0], "kappa": [0.1, 0.1], "n_th": [1.0, 1.0]}
        inputs[which][0] = math.inf
        g = RateMatrix(np.array(inputs["fwd"]), np.array(inputs["bwd"]))
        with pytest.raises(ValueError, match="must all be finite and nonnegative"):
            solve_steady_rates(g, np.array(inputs["kappa"]), np.array(inputs["n_th"]))

    @pytest.mark.parametrize("fwd,bwd,n_th", [
        ([1.0], [1.0, 2.0], [1.0, 1.0]),  # a band one entry too long
        ([1.0, 2.0], [1.0, 2.0], [1.0, 1.0]),  # both bands as long as kappa
        ([], [], [1.0, 1.0]),  # no bond between two modes
        ([1.0], [1.0], [1.0]),  # n_th one entry short
        ([1.0], [1.0], [[1.0, 1.0]]),  # n_th of the wrong rank
    ])
    def test_rejects_mismatched_lengths(self, fwd, bwd, n_th):
        g = RateMatrix(np.array(fwd), np.array(bwd))
        with pytest.raises(ValueError, match="n >= 1"):
            solve_steady_rates(g, np.array([0.1, 0.1]), np.array(n_th))

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError, match="n >= 1"):
            solve_steady_rates(RateMatrix(np.zeros(0), np.zeros(0)), np.zeros(0), np.zeros(0))

    def test_rejects_all_zero_kappa(self):
        g = RateMatrix(np.array([1.0]), np.array([2.0]))
        with pytest.raises(SingularSystem):
            solve_steady_rates(g, np.zeros(2), np.ones(2))

    def test_rejects_overflowing_occupation(self):
        # the cold edge's occupation is finite, the hot edge's near 2e308 is not
        g = RateMatrix(np.array([10.0]), np.array([0.1]))
        with pytest.raises(ValueError, match="an occupation overflows the double range"):
            solve_steady_rates(g, np.full(2, 0.01), np.full(2, 1e308))

    def test_isolated_bathless_mode_raises(self):
        g = RateMatrix(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(SingularSystem):
            solve_steady_rates(g, np.array([0.1, 0.1, 0.0]), np.ones(3))


class TestPlateau:
    def test_canonical_value(self):
        assert plateau_limit(1.0, LN2, 0.01, 1.0) == pytest.approx(
            1e-4 / 3.7501, rel=1e-12
        )

    def test_small_asymmetry_value(self):
        want = 1e-4 / (1e-4 + math.exp(0.2) - math.exp(-0.2))
        assert plateau_limit(1.0, 0.1, 0.01, 1.0) == pytest.approx(want, rel=1e-12)

    def test_large_kappa_approaches_bath(self):
        assert plateau_limit(1.0, LN2, 100.0, 1.0) == pytest.approx(
            1e4 / (1e4 + 3.75), rel=1e-12
        )

    def test_increasing_in_kappa(self):
        values = [plateau_limit(1.0, LN2, k, 1.0) for k in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_asymmetry(self):
        with pytest.raises(InvalidRegime):
            plateau_limit(1.0, 0.0, 0.01, 1.0)
        with pytest.raises(InvalidRegime):
            plateau_limit(1.0, -0.5, 0.01, 1.0)

    @pytest.mark.parametrize("asymmetry", [354.9, 400.0])
    def test_overflowing_gap_is_rejected_like_the_rates(self, asymmetry):
        # exp(2A) overflows past A = 354.89, where math.exp raised OverflowError
        with pytest.raises(ValueError, match="not finite"):
            plateau_limit(1.0, asymmetry, 0.01, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            build_rate_matrix(make_uniform_chain(2, 1.0, asymmetry, 0.01, 1.0))

    @pytest.mark.parametrize("coupling,kappa", [
        (0.0, 0.01), (-1.0, 0.01), (math.nan, 0.01), (1.0, 0.0), (1.0, -0.01), (1.0, math.nan),
    ])
    def test_rejects_nonpositive_coupling_or_kappa(self, coupling, kappa):
        with pytest.raises(ValueError, match="coupling and kappa must be positive"):
            plateau_limit(coupling, LN2, kappa, 1.0)

    @pytest.mark.parametrize("kappa,n_th,message", [
        (0.01, -1.0, "n_th must be finite and >= 0"),
        (0.01, math.nan, "n_th must be finite and >= 0"),
        (0.01, math.inf, "n_th must be finite and >= 0"),
        (math.inf, 1.0, "kappa must be finite and >= 0"),
    ])
    def test_rejects_mode_not_finite_and_nonnegative(self, kappa, n_th, message):
        # ModeParams' check, and its words
        with pytest.raises(ValueError, match=message):
            plateau_limit(1.0, LN2, kappa, n_th)

    def test_largest_finite_gap_keeps_the_formula(self):
        k2, gap = 0.01 * 0.01, math.exp(708.0) - math.exp(-708.0)
        assert plateau_limit(1.0, 354.0, 0.01, 1.0) == k2 / (k2 + gap)

    def test_chain_floor_sits_above_plateau_formula(self):
        # the closed form is a hard-wall approximation and bounds the exact
        # balance-equation floor from below; at exp(A) = 2 the exact limit is
        # (e^{2A}+1)/(e^{2A}-e^{-2A}) = 4/3 of the formula
        plateau = plateau_limit(1.0, LN2, 0.01, 1.0)
        n1 = solve_steady_chain(make_uniform_chain(30, 1.0, LN2, 0.01, 1.0)).occupations[0]
        assert n1 >= 0.95 * plateau
        assert n1 == pytest.approx(plateau * (4.0 + 1.0) / 3.75, rel=1e-3)

    def test_monotone_in_chain_length(self):
        values = [
            solve_steady_chain(make_uniform_chain(n, 1.0, LN2, 0.01, 1.0)).occupations[0]
            for n in range(2, 31)
        ]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


class TestSpectralConsistency:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_small_kappa_limit_matches_spectral(self, n):
        bare = make_uniform_chain(n, 1.0, LN2, 0.0, 1.0)
        n_spectral = spectral_occupations(
            diagonalize(build_hopping_matrix(bare)), 1.0
        )[0]
        n_rate = solve_steady_chain(make_uniform_chain(n, 1.0, LN2, 1e-6, 1.0)).occupations[0]
        assert abs(n_spectral - n_rate) / n_rate <= 0.15

    def test_exact_agreement_at_two_modes(self):
        bare = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        n_spectral = spectral_occupations(
            diagonalize(build_hopping_matrix(bare)), 1.0
        )[0]
        n_rate = solve_steady_chain(make_uniform_chain(2, 1.0, LN2, 1e-6, 1.0)).occupations[0]
        assert abs(n_spectral - n_rate) / n_rate <= 1e-6


class TestAttachedMode:
    def test_decoupled_mode_thermalizes(self):
        spec = make_uniform_chain(5, 1.0, LN2, 0.01, 1.0)
        ss = solve_with_attached(spec, ModeParams(0.02, 1.0), 0.0)
        assert len(ss.occupations) == 6
        assert ss.occupations[0] == pytest.approx(1.0, rel=1e-12)

    def test_huge_kappa0_pins_to_own_bath(self):
        spec = make_uniform_chain(5, 1.0, LN2, 0.01, 1.0)
        ss = solve_with_attached(spec, ModeParams(1e6, 1.0), 1.0)
        assert ss.occupations[0] == pytest.approx(1.0, abs=1e-9)

    def test_canonical_point(self):
        spec = make_uniform_chain(15, 1.0, LN2, 0.01, 1.0)
        ss = solve_with_attached(spec, ModeParams(0.01, 1.0), 1.0)
        assert ss.occupations[0] == pytest.approx(1.1225576463537424e-4, rel=1e-6)

    def test_estimate_with_plateau_edge_value(self):
        # feeding the closed-form floor into the balance estimate reproduces
        # the back-of-envelope number (g0 n1 + kappa0) / (g0 + kappa0) ~ 7.7e-5
        n1 = plateau_limit(1.0, LN2, 0.01, 1.0)
        est = attached_mode_estimate(ModeParams(0.01, 1.0), 1.0, 0.01, n1)
        want = (200.0 * n1 + 0.01) / 200.01
        assert est == pytest.approx(want, rel=1e-12)
        assert est == pytest.approx(7.7e-5, rel=0.01)

    def test_estimate_is_exact_balance_of_full_solve(self):
        # the estimate evaluated with the solved n_1 is the attached mode's
        # own balance row, so it reproduces the full solve exactly
        spec = make_uniform_chain(15, 1.0, LN2, 0.01, 1.0)
        mode = ModeParams(0.003, 1.0)
        ss = solve_with_attached(spec, mode, 0.7)
        est = attached_mode_estimate(mode, 0.7, 0.01, ss.occupations[1])
        assert est == pytest.approx(ss.occupations[0], rel=1e-10)

    def test_cooling_whenever_chain_edge_is_cold(self):
        spec = make_uniform_chain(8, 1.0, LN2, 0.01, 1.0)
        for t0 in (0.05, 0.3, 1.0, 2.0):
            for k0 in (1e-4, 1e-2, 1e-1):
                ss = solve_with_attached(spec, ModeParams(k0, 1.0), t0)
                assert ss.occupations[0] < 1.0

    def test_custom_bath_occupation(self):
        spec = make_uniform_chain(3, 1.0, LN2, 0.01, 1.0)
        ss = solve_with_attached(spec, ModeParams(0.02, 0.25), 0.0)
        assert ss.occupations[0] == pytest.approx(0.25, rel=1e-12)

    def test_estimate_reads_the_mode_bath(self):
        # the mode's bath (0.25) differs from the chain's (1.0), and both
        # functions read it from the one ModeParams
        spec = make_uniform_chain(15, 1.0, LN2, 0.01, 1.0)
        mode = ModeParams(0.003, 0.25)
        ss = solve_with_attached(spec, mode, 0.7)
        est = attached_mode_estimate(mode, 0.7, 0.01, ss.occupations[1])
        assert est == pytest.approx(ss.occupations[0], rel=1e-10)

    @pytest.mark.parametrize("kwargs", [
        dict(coupling=math.nan, kappa=0.01), dict(coupling=math.inf, kappa=0.01),
        dict(coupling=1.0, kappa=math.nan), dict(coupling=1.0, kappa=math.inf),
        dict(coupling=1.0, kappa=0.01, n_th=math.nan),
        dict(coupling=1.0, kappa=0.01, n_th=math.inf),
    ])
    def test_spec_rejects_non_finite(self, kwargs):
        # ModeParams checks the mode, solve_with_attached the coupling
        spec = make_uniform_chain(3, 1.0, LN2, 0.01, 1.0)
        with pytest.raises(ValueError, match="finite"):
            mode = ModeParams(kwargs["kappa"], kwargs.get("n_th", 1.0))
            solve_with_attached(spec, mode, kwargs["coupling"])

    @pytest.mark.parametrize("coupling", [math.nan, math.inf])
    def test_estimate_rejects_non_finite_coupling(self, coupling):
        with pytest.raises(ValueError, match="coupling must be finite"):
            attached_mode_estimate(ModeParams(0.01, 1.0), coupling, 0.01, 0.1)

    def test_estimate_rejects_fully_decoupled(self):
        with pytest.raises(ValueError):
            attached_mode_estimate(ModeParams(0.0, 1.0), 0.0, 0.0, 0.1)

    def test_estimate_rejects_decoupled_bathless_mode(self):
        # the chain edge has a bath, so the rate denominator is positive, but
        # neither a coupling nor a bath fixes the mode's occupation
        with pytest.raises(ValueError, match="decoupled bathless mode"):
            attached_mode_estimate(ModeParams(0.0, 1.0), 0.0, 0.01, 0.1)

    @pytest.mark.parametrize("kappa_edge,n_1", [
        (math.nan, 0.3), (math.inf, 0.3), (-0.01, 0.3),
        (0.01, math.nan), (0.01, math.inf), (0.01, -0.3),
    ])
    def test_estimate_rejects_edge_not_finite_and_nonnegative(self, kappa_edge, n_1):
        with pytest.raises(ValueError, match="kappa_edge and n_1 must be finite and >= 0"):
            attached_mode_estimate(ModeParams(0.01, 1.0), 1.0, kappa_edge, n_1)


# --- properties on random long chains -----------------------------------------
#
# Chains up to 1000 modes are too long to draw element by element, so
# hypothesis draws the length, a seed and how often a parameter sits on an end
# of its interval (chains made of end points are the hardest), and numpy draws
# the parameters.

def _ends_or_uniform(rng, p_end, lo, hi, size, log=False):
    """``size`` draws from [lo, hi] (log-uniform if ``log``); about a fraction
    ``p_end`` of them sit on ``lo`` or ``hi``."""
    if log:
        inside = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)
    else:
        inside = rng.uniform(lo, hi, size)
    return np.where(rng.random(size) < p_end, rng.choice([lo, hi], size), inside)


# One bath occupation for every mode, in (0, 2].  The floor keeps every
# occupation and every intermediate of the solve far above the subnormal
# range, where float64 cannot hold a relative accuracy of 1e-12.
UNIFORM_N_TH = st.sampled_from([1e-100, 2.0]) | st.floats(-100.0, math.log10(2.0)).map(
    lambda e: min(10.0**e, 2.0)
)


@st.composite
def random_long_chains(draw, hermitian=False, uniform_kappa=False, uniform_n_th=False):
    """Chains of 1 to 1000 modes with per-bond t in [0.1, 3] and A in [-3, 3]
    (A = 0 if ``hermitian``), kappa in [1e-6, 1] and n_th in [0, 2] per mode
    (or one value for every mode)."""
    n = draw(st.sampled_from([1, 2, 1000]) | st.integers(1, 1000))
    p_end = draw(st.sampled_from([0.0, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _ends_or_uniform(rng, p_end, 0.1, 3.0, n - 1)
    a = np.zeros(n - 1) if hermitian else _ends_or_uniform(rng, p_end, -3.0, 3.0, n - 1)
    kappa = _ends_or_uniform(rng, p_end, 1e-6, 1.0, 1 if uniform_kappa else n, log=True)
    if uniform_n_th:
        n_th = np.full(n, draw(UNIFORM_N_TH))
    else:
        n_th = _ends_or_uniform(rng, p_end, 0.0, 2.0, n)
    return ChainSpec(
        modes=tuple(ModeParams(float(k), float(v)) for k, v in zip(np.broadcast_to(kappa, n), n_th)),
        bonds=tuple(
            Bond(float(ti * math.exp(ai)), float(ti * math.exp(-ai))) for ti, ai in zip(t, a)
        ),
    )


class TestRandomChainProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_long_chains(uniform_kappa=True, uniform_n_th=True))
    def test_sum_rule_for_uniform_bath(self, spec):
        occ = solve_steady_chain(spec).occupations
        want = spec.n_modes * spec.modes[0].n_th
        assert occ.sum() == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=120, deadline=None)
    @given(random_long_chains())
    def test_occupations_are_nonnegative(self, spec):
        assert np.all(solve_steady_chain(spec).occupations >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(random_long_chains(hermitian=True, uniform_n_th=True))
    def test_hermitian_limit_is_thermal(self, spec):
        thermal = spec.n_th_vector()
        occ = solve_steady_chain(spec).occupations
        assert occ == pytest.approx(thermal, rel=1e-12, abs=0.0)
        if spec.n_modes <= 300:
            decomp = diagonalize(build_hopping_matrix(spec))
            occ = spectral_occupations(decomp, thermal[0])
            assert occ == pytest.approx(thermal, rel=1e-12, abs=0.0)
