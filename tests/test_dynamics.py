import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nhcool import (
    Bond,
    ChainSpec,
    InvalidRegime,
    ModeParams,
    NotGaugeReducible,
    SingularBond,
    SingularSystem,
    ToleranceNotMet,
    Trajectory,
    build_hopping_matrix,
    build_rate_matrix,
    closed_form_two_mode,
    covariance_rhs,
    diagonalize,
    dynamics,
    evolve_covariance,
    make_uniform_chain,
    single_excitation_trace,
    solve_steady_chain,
    steady_from_dynamics,
)

LN2 = math.log(2.0)


def jittered_chain(n_modes, seed):
    """Bonds ``t e^{+-A}`` with t and A jittered by 2% around 1 and ln 2; kappa = 0.01, n_th = 1."""
    rng = np.random.default_rng(seed)
    ts = 1 + 0.02 * rng.uniform(-1, 1, n_modes - 1)
    amps = LN2 * (1 + 0.02 * rng.uniform(-1, 1, n_modes - 1))
    bonds = tuple(Bond(t * math.exp(a), t * math.exp(-a)) for t, a in zip(ts, amps))
    return ChainSpec(modes=(ModeParams(0.01, 1.0),) * n_modes, bonds=bonds)


def band_generator(spec):
    """``[[L, source], [0, 0]]`` on the band, probed from covariance_rhs."""
    n = spec.n_modes
    pos = [(i, i) for i in range(n)]
    pos += [(k, k + 1) for k in range(n - 1)] + [(k + 1, k) for k in range(n - 1)]
    rows, cols = map(list, zip(*pos))
    offset = covariance_rhs(spec, np.zeros((n, n)))[rows, cols]
    gen = np.zeros((len(pos) + 1,) * 2, dtype=complex)
    for k, (i, j) in enumerate(pos):
        unit = np.zeros((n, n))
        unit[i, j] = 1.0
        gen[:-1, k] = covariance_rhs(spec, unit)[rows, cols] - offset
    gen[:-1, -1] = offset
    return gen, pos


def rabi_closed_form(tau):
    c2, s2 = np.cos(tau) ** 2, np.sin(tau) ** 2
    return c2 / (c2 + 4.0 * s2)


class TestSingleExcitation:
    def test_matches_closed_form(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        tau = np.linspace(0.0, 2.0 * math.pi, 801)
        traj = single_excitation_trace(spec, 0, tau)
        assert np.abs(traj.occupations[:, 0] - rabi_closed_form(tau)).max() <= 1e-8
        assert traj.occupations.sum(axis=1) == pytest.approx(np.ones(801), abs=1e-12)

    def test_initial_and_quarter_period(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        traj = single_excitation_trace(spec, 0, np.array([0.0, math.pi / 2]))
        assert traj.occupations[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert traj.occupations[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_sinusoid(self):
        spec = make_uniform_chain(2, 1.0, 0.0, 0.0, 1.0)
        tau = np.linspace(0.0, 2.0 * math.pi, 401)
        traj = single_excitation_trace(spec, 0, tau)
        assert np.abs(traj.occupations[:, 0] - np.cos(tau) ** 2).max() <= 1e-10

    def test_crossing_fraction(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)

        def imbalance(tau):
            occ = single_excitation_trace(spec, 0, np.array([tau])).occupations[0]
            return occ[0] - occ[1]

        crossing = brentq(imbalance, 0.1, 0.6, xtol=1e-13)
        fraction = 2.0 * crossing / math.pi
        assert abs(fraction - 2.0 * math.atan(0.5) / math.pi) <= 1e-6

    def test_period_scales_with_coupling(self):
        spec = make_uniform_chain(2, 2.0, LN2, 0.0, 1.0)
        traj = single_excitation_trace(spec, 0, np.array([math.pi / 4]))
        assert traj.occupations[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_start_on_second_site(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        traj = single_excitation_trace(spec, 1, np.array([0.0]))
        assert traj.occupations[0] == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_rejects_bad_site(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        with pytest.raises(IndexError):
            single_excitation_trace(spec, 2, np.array([0.0]))

    def test_rejects_decreasing_grid(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        with pytest.raises(ValueError):
            single_excitation_trace(spec, 0, np.array([0.0, 1.0, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_grid(self, bad):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            single_excitation_trace(spec, 0, np.array([0.0, bad]))

    def test_rejects_negative_time(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            single_excitation_trace(spec, 0, np.array([-0.5, 1.0]))

    @pytest.mark.parametrize("asymmetry", [20.0, 100.0, 300.0])
    def test_strong_two_mode_asymmetry_matches_closed_form(self, asymmetry):
        # n_1 = cos^2 / (cos^2 + e^{2A} sin^2); the step follows sqrt(t_fwd t_bwd)
        # = t, not t e^A, so a call stays cheap at any A
        spec = make_uniform_chain(2, 1.0, asymmetry, 0.0, 1.0)
        tau = np.linspace(0.0, 2.0 * math.pi, 401)
        occ = single_excitation_trace(spec, 0, tau).occupations[:, 0]
        with np.errstate(divide="ignore"):
            log_ratio = 2.0 * (asymmetry + np.log(np.abs(np.tan(tau))))
        ref = np.exp(-np.logaddexp(0.0, log_ratio))
        assert np.abs(occ - ref).max() <= 1e-12

    def test_one_way_bond(self):
        # h = [[0, 0], [1, 0]] is nilpotent: c(tau) = (1, -i tau)
        spec = ChainSpec(modes=[ModeParams(0.0, 0.0)] * 2, bonds=[Bond(1.0, 0.0)])
        tau = np.linspace(0.0, 5.0, 11)
        occ = single_excitation_trace(spec, 0, tau).occupations[:, 0]
        assert occ == pytest.approx(1.0 / (1.0 + tau**2), rel=1e-14)

    @pytest.mark.parametrize("asymmetry, tau_max", [(LN2, 1e300), (700.0, 2.0 * math.pi)])
    def test_rejects_unbounded_step_count(self, asymmetry, tau_max):
        spec = make_uniform_chain(2, 1.0, asymmetry, 0.0, 1.0)
        with pytest.raises(ValueError, match="Taylor steps, more than 100000"):
            single_excitation_trace(spec, 0, np.array([0.0, tau_max]))

    @pytest.mark.parametrize("n_modes, asymmetry", [
        pytest.param(30, LN2, id="30"),
        pytest.param(60, LN2, id="60"),
        pytest.param(400, LN2, id="400"),
        pytest.param(20, 3.0, id="20-A3"),
        pytest.param(40, 1.0, id="40-A1"),
    ])
    def test_long_chain_matches_expm(self, n_modes, asymmetry):
        # The expm reference agrees with a 40-digit mpmath.expm to 1.4e-16 at
        # N = 60 and tau = pi.  The eigenvectors' conditioning grows like
        # e^{A N}: a dense eigenbasis was 2.8e-10 off at N = 30 and 1.0 at
        # N = 60, 1.0 at (N, A) = (20, 3) and 0.84 at (40, 1).
        from scipy.linalg import expm

        spec = make_uniform_chain(n_modes, 1.0, asymmetry, 0.0, 1.0)
        h = build_hopping_matrix(spec).matrix
        tau = np.linspace(0.0, 2.0 * math.pi, 9)
        occ = single_excitation_trace(spec, 0, tau).occupations
        for k, t in enumerate(tau):
            ref = np.abs(expm(-1j * t * h)[:, 0]) ** 2
            assert np.abs(occ[k] - ref / ref.sum()).max() <= 1e-8, t

    @pytest.mark.parametrize("n_modes, asymmetry", [(20, 3.0), (12, 1.0)])
    def test_matches_mpmath_expm(self, n_modes, asymmetry):
        # 60-digit propagator of the double-precision bands; tau = 0.75 k is
        # exact in both precisions
        spec = make_uniform_chain(n_modes, 1.0, asymmetry, 0.0, 1.0)
        hop = build_hopping_matrix(spec)
        tau = 0.75 * np.arange(9)
        occ = single_excitation_trace(spec, 0, tau).occupations
        with mpmath.workdps(60):
            h = mpmath.zeros(n_modes)
            for k in range(n_modes - 1):
                h[k + 1, k], h[k, k + 1] = hop.fwd[k].real, hop.bwd[k].real
            step = mpmath.expm(-0.75j * h)
            amp = mpmath.matrix([1] + [0] * (n_modes - 1))
            for k in range(len(tau)):
                weight = [abs(a) ** 2 for a in amp]
                ref = np.array([float(w / sum(weight)) for w in weight])
                assert np.abs(occ[k] - ref).max() <= 1e-15, tau[k]
                amp = step * amp


class TestMomentEquationsTwoModeReduction:
    def test_term_by_term_against_literal_equations(self):
        coupling, asym = 1.3, 0.4
        kap1 = kap2 = 0.02
        nth = 0.7
        spec = make_uniform_chain(2, coupling, asym, kap1, nth)
        t_fwd = coupling * math.exp(asym)
        t_bwd = coupling * math.exp(-asym)

        def literal(c):
            out = np.zeros((2, 2), complex)
            out[0, 0] = 1j * (t_fwd * c[1, 0] - t_bwd * c[0, 1]) - kap1 * (c[0, 0] - nth)
            out[1, 1] = 1j * (t_bwd * c[0, 1] - t_fwd * c[1, 0]) - kap2 * (c[1, 1] - nth)
            out[0, 1] = (
                1j * (np.conj(t_bwd) * c[1, 1] - t_fwd * c[0, 0])
                - 0.5 * (kap1 + kap2) * c[0, 1]
            )
            out[1, 0] = (
                1j * (np.conj(t_fwd) * c[0, 0] - t_bwd * c[1, 1])
                - 0.5 * (kap1 + kap2) * c[1, 0]
            )
            return out

        # elementary basis matrices pin every coefficient; one random matrix
        # guards the inhomogeneity
        for i in range(2):
            for j in range(2):
                basis = np.zeros((2, 2), complex)
                basis[i, j] = 1.0
                assert covariance_rhs(spec, basis) == pytest.approx(
                    literal(basis), abs=1e-14
                )
        rng = np.random.default_rng(5)
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert covariance_rhs(spec, c) == pytest.approx(literal(c), abs=1e-14)

    def test_three_mode_literal_equations(self):
        # distinct kappa per mode and distinct bonds (one complex); C[0, 2]
        # joins two non-bonded modes and must only decay at -(k0 + k2) / 2
        kap = [0.02, 0.07, 0.3]
        nth = [0.7, 0.1, 1.4]
        f0, b0 = 1.3 * math.exp(0.4), 1.3 * math.exp(-0.4)
        f1, b1 = 0.7 + 0.2j, 0.9 - 0.1j
        spec = ChainSpec(
            modes=tuple(ModeParams(k, m) for k, m in zip(kap, nth)),
            bonds=(Bond(f0, b0), Bond(f1, b1)),
        )

        def literal(c):
            out = np.zeros((3, 3), complex)
            cur0 = 1j * (f0 * c[1, 0] - b0 * c[0, 1])
            cur1 = 1j * (f1 * c[2, 1] - b1 * c[1, 2])
            out[0, 0] = cur0 - kap[0] * (c[0, 0] - nth[0])
            out[1, 1] = cur1 - cur0 - kap[1] * (c[1, 1] - nth[1])
            out[2, 2] = -cur1 - kap[2] * (c[2, 2] - nth[2])
            d01, d12, d02 = (0.5 * (kap[i] + kap[j]) for i, j in [(0, 1), (1, 2), (0, 2)])
            out[0, 1] = 1j * (np.conj(b0) * c[1, 1] - f0 * c[0, 0]) - d01 * c[0, 1]
            out[1, 0] = 1j * (np.conj(f0) * c[0, 0] - b0 * c[1, 1]) - d01 * c[1, 0]
            out[1, 2] = 1j * (np.conj(b1) * c[2, 2] - f1 * c[1, 1]) - d12 * c[1, 2]
            out[2, 1] = 1j * (np.conj(f1) * c[1, 1] - b1 * c[2, 2]) - d12 * c[2, 1]
            out[0, 2] = -d02 * c[0, 2]
            out[2, 0] = -d02 * c[2, 0]
            return out

        for i in range(3):
            for j in range(3):
                basis = np.zeros((3, 3), complex)
                basis[i, j] = 1.0
                assert covariance_rhs(spec, basis) == pytest.approx(
                    literal(basis), abs=1e-14
                )
        rng = np.random.default_rng(6)
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert covariance_rhs(spec, c) == pytest.approx(literal(c), abs=1e-14)

    def test_shape_validation(self):
        spec = make_uniform_chain(3, 1.0, 0.3, 0.01, 1.0)
        with pytest.raises(ValueError):
            covariance_rhs(spec, np.zeros((2, 2), complex))


class TestEvolveCovariance:
    def test_thermal_state_is_stationary_when_hermitian(self):
        spec = make_uniform_chain(3, 1.0, 0.0, 0.02, 0.8)
        cov0 = np.diag([0.8, 0.8, 0.8]).astype(complex)
        traj = evolve_covariance(spec, cov0, 50.0, t_eval=[25.0, 50.0])
        assert np.abs(traj.occupations - 0.8).max() <= 1e-9

    def test_conserves_total_occupation_without_dissipation(self):
        spec = make_uniform_chain(3, 1.0, LN2, 0.0, 0.0)
        cov0 = np.diag([1.0, 0.3, 0.1]).astype(complex)
        traj = evolve_covariance(spec, cov0, 20.0, t_eval=np.linspace(0.0, 20.0, 21))
        totals = traj.occupations.sum(axis=1)
        assert np.abs(totals - totals[0]).max() <= 1e-8

    def test_hermiticity_preserved(self):
        spec = make_uniform_chain(4, 1.0, LN2, 0.01, 1.0)
        cov0 = np.diag([1.0, 1.0, 1.0, 1.0]).astype(complex)
        traj = evolve_covariance(spec, cov0, 30.0, t_eval=np.linspace(0.0, 30.0, 16))
        worst = max(np.abs(c - c.conj().T).max() for c in traj.covariances)
        assert worst <= 1e-10

    def test_long_time_diagonal_matches_closed_form(self):
        # the integrated flow converges to the direct stationary solve, which
        # is the two-mode closed form; kappa * tau = 40 leaves e^-40 transient
        spec = make_uniform_chain(2, 1.0, LN2, 0.5, 1.0)
        cov0 = np.diag(spec.n_th_vector()).astype(complex)
        traj = evolve_covariance(spec, cov0, 80.0, t_eval=[80.0])
        ss = steady_from_dynamics(spec)
        assert traj.occupations[-1] == pytest.approx(ss.occupations, rel=1e-8)
        n1, n2 = closed_form_two_mode(1.0, LN2, 0.5, 0.5, 1.0)
        assert ss.occupations == pytest.approx([n1, n2], rel=1e-14)

    def test_reported_grid_is_caller_grid(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        grid = np.array([0.0, 0.5, 1.25, 2.0])
        traj = evolve_covariance(spec, np.eye(2, dtype=complex), 2.0, t_eval=grid)
        assert traj.times == pytest.approx(grid)
        assert traj.covariances.shape == (4, 2, 2)

    def test_zero_t_end_reports_the_start(self):
        # the default grid [0, t_end] collapses to the one time 0
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        cov0 = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
        traj = evolve_covariance(spec, cov0, 0.0)
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.covariances, cov0[None])

    def test_rejects_wrongly_shaped_start(self):
        spec = make_uniform_chain(3, 1.0, LN2, 0.01, 1.0)
        with pytest.raises(ValueError, match="covariance must be 3 x 3"):
            evolve_covariance(spec, np.eye(2, dtype=complex), 1.0)

    def test_default_grid_is_start_and_end(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        traj = evolve_covariance(spec, np.eye(2, dtype=complex), 3.0)
        assert traj.times.tolist() == [0.0, 3.0]
        assert traj.covariances[0] == pytest.approx(np.eye(2), abs=1e-15)

    @pytest.mark.parametrize(
        "t_eval", [[-0.5, 1.0], [0.5, 2.5], [0.5, 0.5, 1.0], [1.5, 0.5], [], [0.5, np.nan]]
    )
    def test_rejects_times_outside_range_or_not_increasing(self, t_eval):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        with pytest.raises(ValueError):
            evolve_covariance(spec, np.eye(2, dtype=complex), 2.0, t_eval=t_eval)

    def test_matches_extended_precision_expm(self):
        # distinct kappa and n_th per mode, one complex bond; the reference is
        # a 30-digit exponential of the affine generator probed from
        # covariance_rhs on all nine entries, so the off-band C[0, 2] and
        # C[2, 0] are checked along with the band
        kap, nth = [0.05, 0.12, 0.3], [0.9, 0.2, 1.5]
        spec = ChainSpec(
            modes=tuple(ModeParams(k, m) for k, m in zip(kap, nth)),
            bonds=(Bond(1.1 * math.exp(0.5), 1.1 * math.exp(-0.5)), Bond(0.6 + 0.3j, 0.8 - 0.2j)),
        )
        rng = np.random.default_rng(7)
        half = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        cov0 = half @ half.conj().T
        offset = covariance_rhs(spec, np.zeros((3, 3))).ravel()
        gen = np.zeros((10, 10), dtype=complex)
        for k in range(9):
            gen[:9, k] = covariance_rhs(spec, np.eye(9)[k].reshape(3, 3)).ravel() - offset
        gen[:9, 9] = offset
        start = mpmath.matrix(np.append(cov0.ravel(), 1.0).tolist())
        taus = [0.5, 20.0, 200.0]
        traj = evolve_covariance(spec, cov0, 200.0, t_eval=taus)
        for tau, got in zip(taus, traj.covariances):
            with mpmath.workdps(30):
                vec = mpmath.expm(tau * mpmath.matrix(gen.tolist())) * start
                want = np.array([complex(v) for v in vec[:9]]).reshape(3, 3)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            decay = np.exp(-0.5 * (kap[0] + kap[2]) * tau)
            assert got[0, 2] == pytest.approx(cov0[0, 2] * decay, rel=1e-14, abs=0)
            assert got[2, 0] == pytest.approx(cov0[2, 0] * decay, rel=1e-14, abs=0)

    @pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan, -1.0])
    def test_rejects_t_end_not_finite_or_negative(self, t_end):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        with pytest.raises(ValueError, match="t_end"):
            evolve_covariance(spec, np.eye(2, dtype=complex), t_end)

    def test_rejects_generator_whose_norm_overflows(self):
        # finite amplitudes whose column sums overflow; the squaring count
        # ceil(log2 inf) raised an untyped OverflowError here
        spec = ChainSpec(modes=(ModeParams(0.1, 0.5),) * 2, bonds=(Bond(1e308, 1e308),))
        with pytest.raises(ValueError, match="1-norm is inf"):
            evolve_covariance(spec, np.eye(2, dtype=complex), 1.0)

    def test_huge_t_end_returns_stationary_state(self):
        # the squarings stop once the flow has converged, not after the
        # thousand that tau = 1e300 would scale to; measured 9.1e-14
        spec = make_uniform_chain(3, 1.0, LN2, 0.01, 1.0)
        traj = evolve_covariance(spec, np.eye(3, dtype=complex), 1e300)
        want = steady_from_dynamics(spec).occupations
        assert traj.occupations[-1] == pytest.approx(want, rel=1e-12, abs=0)

    def test_benchmark_shape_matches_extended_precision(self):
        # the benchmark's shape (N = 10, tau = 200) against a 30-digit
        # exponential of the band generator (about 2.5 s).  The non-normal
        # flow amplifies rounding: over eleven seeds of this chain the Taylor
        # exponential was off by 2e-13 to 3.1e-12 (7.8e-13 on this one), and
        # expm_multiply by 7.6e-13 to 1.5e-11, so the bound pins accuracy
        # above that noise and does not tell the two apart.
        spec = jittered_chain(10, seed=0)
        cov0 = np.diag(spec.n_th_vector()).astype(complex)
        traj = evolve_covariance(spec, cov0, 200.0)
        gen, pos = band_generator(spec)
        start = mpmath.matrix([cov0[i, j] for i, j in pos] + [1.0])
        with mpmath.workdps(30):
            vec = mpmath.expm(200 * mpmath.matrix(gen.tolist())) * start
            want = np.array([float(mpmath.re(v)) for v in vec[:10]])
        assert traj.occupations[-1] == pytest.approx(want, rel=1e-11, abs=0)


def test_exponential_of_a_growing_flow_stays_finite():
    # exp(1000 mat) is about e^1000, past the double range: the exponential
    # is returned up to a power of two, which dividing by the largest entry
    # removes (the oracle's trace normalization does the same); the unscaled
    # squarings returned inf here
    mat = np.array([[1.0, 1.0], [0.0, 0.5]])
    got = dynamics._expm_taylor([mat], 1000.0)[0]
    assert np.isfinite(got).all()
    with mpmath.workdps(30):
        ref = mpmath.expm(1000 * mpmath.matrix(mat.tolist()))
        ref /= max(abs(v) for v in ref)
        want = np.array(ref.tolist(), dtype=float)
    assert np.abs(got / np.abs(got).max() - want).max() <= 1e-15


class TestSteadyFromDynamics:
    def test_single_mode(self):
        ss = steady_from_dynamics(make_uniform_chain(1, 1.0, 0.0, 0.05, 0.8), tol=1e-6)
        assert ss.occupations == pytest.approx([0.8], rel=1e-9)

    def test_two_mode_hermitian(self):
        ss = steady_from_dynamics(make_uniform_chain(2, 1.0, 0.0, 0.05, 0.8), tol=1e-6)
        assert ss.occupations == pytest.approx([0.8, 0.8], rel=1e-9)

    def test_three_mode_matches_rate_solver(self):
        spec = make_uniform_chain(3, 1.0, LN2, 0.01, 1.0)
        dyn = steady_from_dynamics(spec, tol=1e-5).occupations
        rate = solve_steady_chain(spec).occupations
        assert dyn == pytest.approx(rate, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kappa", [0.005, 0.01, 0.05])
    @pytest.mark.parametrize("gain", [1.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equivalence_grid(self, kappa, gain, n):
        spec = make_uniform_chain(n, 1.0, math.log(gain), kappa, 1.0)
        dyn = steady_from_dynamics(spec, tol=1e-4).occupations
        rate = solve_steady_chain(spec).occupations
        assert np.abs(dyn / rate - 1.0).max() <= 1e-12

    def test_rejects_bathless_chain(self):
        with pytest.raises(SingularSystem):
            steady_from_dynamics(make_uniform_chain(2, 1.0, 0.0, 0.0, 1.0))

    @pytest.mark.parametrize("n", [2, 5])
    def test_pump_near_the_top_of_the_double_range(self, n):
        # every occupation is 1e300, but the band's products t x overflowed
        # before the solve was scaled to a pump of order one
        spec = make_uniform_chain(n, 1e100, 0.0, 1.0, 1e300)
        dyn = steady_from_dynamics(spec).occupations
        assert dyn == pytest.approx(solve_steady_chain(spec).occupations, rel=1e-15, abs=0.0)

    def test_residual_gated_on_tol(self):
        spec = make_uniform_chain(4, 1.0, LN2, 0.01, 1.0)
        ss = steady_from_dynamics(spec, tol=1e-12)
        assert 0.0 < ss.residual <= 1e-12 * 0.01 * 1.0
        with pytest.raises(ToleranceNotMet):
            steady_from_dynamics(spec, tol=1e-30)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_tol_that_is_nan_or_negative(self, tol):
        # a NaN tol used to switch the gate off
        spec = make_uniform_chain(4, 1.0, LN2, 0.01, 1.0)
        with pytest.raises(ValueError, match="tol must be >= 0"):
            steady_from_dynamics(spec, tol=tol)

    def test_tiny_occupations_stay_componentwise_accurate(self):
        # occupations span 12 decades; a plain LU solve without refinement
        # gets the smallest ones wrong in the fourth digit
        t = [3.0, 0.1, 3.0, 3.0, 0.1, 3.0]
        a = [-3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        kappa = [1.0, 1.0, 1.0, 1.0, 1e-4, 1.0, 1.0]
        n_th = [0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 2.0]
        spec = ChainSpec(
            modes=tuple(ModeParams(k, m) for k, m in zip(kappa, n_th)),
            bonds=tuple(Bond(tk * math.exp(ak), tk * math.exp(-ak)) for tk, ak in zip(t, a)),
        )
        dyn = steady_from_dynamics(spec).occupations
        rate = solve_steady_chain(spec).occupations
        assert rate.min() < 1e-14
        assert dyn == pytest.approx(rate, rel=1e-12, abs=0.0)

    # two modes as in the complex evolve_covariance test: eliminating a bond's
    # coherences gives the rate 2 (|t_fwd|^2 + t_fwd t_bwd) / (kappa_i + kappa_j).
    # The rate layer, which reads only Re(t_fwd t_bwd), must refuse the same
    # bonds: near a real product its rates move by at most 4e-4 where the
    # master equation's occupations move by 4% to 21%.
    @pytest.mark.parametrize(
        "bond,kappa,n_th",
        [
            (Bond(0.6 + 0.3j, 0.8 - 0.2j), (0.05, 0.12), (0.9, 0.2)),  # 0.54 + 0.12i: gain
            (Bond(2.0, 0.3j), (0.05, 0.12), (0.9, 0.2)),  # product 0.6i: gain
            (Bond(1j, 2j), (0.05, 0.12), (0.9, 0.2)),  # product -2: a negative rate
            (Bond(1.0, 1.0 + 0.01j), (0.05, 0.05), (0.01, 0.01)),  # no gain, still complex
            (Bond(1.0, 1.0 + 0.04j), (0.05, 0.05), (0.01, 0.01)),
        ],
    )
    def test_rejects_bonds_without_a_real_nonnegative_fixed_point(self, bond, kappa, n_th):
        spec = ChainSpec(modes=tuple(map(ModeParams, kappa, n_th)), bonds=(bond,))
        for solve in (steady_from_dynamics, solve_steady_chain, build_rate_matrix):
            with pytest.raises(InvalidRegime, match=r"^bond 0\b.*t_fwd t_bwd"):
                solve(spec)
        with pytest.raises(NotGaugeReducible, match=r"^bond 0\b"):
            diagonalize(build_hopping_matrix(spec))

    # a product past the double range was formed as a double and named as
    # "0+infj"; the message names the amplitudes, which are finite
    @pytest.mark.parametrize("bond,amplitudes", [
        (Bond(2.37e257j, 1.63e256), "t_fwd = 0+2.37e+257j and t_bwd = 1.63e+256+0j"),
        (Bond(1e-200j, 1e-200), "t_fwd = 0+1e-200j and t_bwd = 1e-200+0j"),
        (Bond(0.6 + 0.3j, 0.8 - 0.2j), "t_fwd = 0.6+0.3j and t_bwd = 0.8-0.2j"),
    ])
    @pytest.mark.parametrize("solve,kappa", [(steady_from_dynamics, 0.1), (solve_steady_chain, 1e300)])
    def test_names_the_amplitudes_of_the_bond(self, bond, amplitudes, solve, kappa):
        spec = ChainSpec(modes=(ModeParams(kappa, 0.1),) * 2, bonds=(bond,))
        message = f"^bond 0 has {re.escape(amplitudes)}, so t_fwd t_bwd is not real;"
        with pytest.raises(InvalidRegime, match=message):
            solve(spec)

    def test_complex_bond_with_a_real_positive_product_solves(self):
        spec = ChainSpec(
            modes=(ModeParams(0.05, 0.9), ModeParams(0.12, 0.2)),
            bonds=(Bond(0.5 + 0.5j, 0.5 - 0.5j),),
        )
        dyn = steady_from_dynamics(spec).occupations
        rate = solve_steady_chain(spec).occupations
        assert dyn == pytest.approx(rate, rel=1e-14, abs=0.0)

    @staticmethod
    def _check_small_kappa_chain(n):
        spec = make_uniform_chain(n, 1.0, 3.0, 1e-6, 1.0)
        dyn = steady_from_dynamics(spec).occupations
        rate = solve_steady_chain(spec).occupations
        assert dyn == pytest.approx(rate, rel=1e-12, abs=0.0)

    def test_long_small_kappa_chain(self):
        self._check_small_kappa_chain(1000)

    def test_very_long_small_kappa_chain(self):
        # at 10^5 modes a dense N x N array would need 160 GB: the solve
        # and its residual must stay on the band
        self._check_small_kappa_chain(10**5)


def _ends_or_inside(lo, hi, inside):
    """Draw the interval's end points often: mixing them makes the hardest chains."""
    return st.sampled_from([lo, hi]) | inside


@st.composite
def random_chains(draw):
    """Chains with random per-bond (t, A) and per-mode (kappa, n_th)."""
    n = draw(st.integers(1, 200))
    bond_params = st.tuples(
        _ends_or_inside(0.1, 3.0, st.floats(0.1, 3.0)),
        _ends_or_inside(-3.0, 3.0, st.floats(-3.0, 3.0)),
    )
    mode_params = st.tuples(
        _ends_or_inside(1e-4, 1.0, st.floats(-4.0, 0.0).map(lambda e: 10.0**e)),
        _ends_or_inside(0.0, 2.0, st.floats(0.0, 2.0)),
    )
    bonds = tuple(
        Bond(t * math.exp(a), t * math.exp(-a))
        for t, a in draw(st.lists(bond_params, min_size=n - 1, max_size=n - 1))
    )
    modes = tuple(
        ModeParams(kappa, n_th)
        for kappa, n_th in draw(st.lists(mode_params, min_size=n, max_size=n))
    )
    return ChainSpec(modes=modes, bonds=bonds)


@settings(max_examples=60, deadline=None)
@given(random_chains())
def test_direct_moment_solve_matches_rate_solver(spec):
    dyn = steady_from_dynamics(spec).occupations
    rate = solve_steady_chain(spec).occupations
    assert np.all(dyn >= 0.0)
    assert np.all(np.abs(dyn - rate) <= 1e-9 * rate)


@st.composite
def bond_domain_chains(draw):
    """2-6 modes with kappa > 0; each bond is a gauge copy or arbitrary.

    A gauge copy ``Bond(t_f e^{i phi}, t_b e^{-i phi})`` of real amplitudes of
    either sign has a real product, positive or not; arbitrary complex
    amplitudes almost never do.
    """
    n = draw(st.integers(2, 6))
    amp = st.floats(-3.0, 3.0)
    gauge_copy = st.builds(
        lambda t_f, t_b, phi: Bond(t_f * cmath.exp(1j * phi), t_b * cmath.exp(-1j * phi)),
        amp, amp, st.floats(-math.pi, math.pi),
    )
    arbitrary = st.builds(Bond, st.complex_numbers(max_magnitude=3.0),
                          st.complex_numbers(max_magnitude=3.0))
    bonds = draw(st.lists(gauge_copy | arbitrary, min_size=n - 1, max_size=n - 1))
    modes = draw(st.lists(st.builds(ModeParams, st.floats(1e-3, 1.0), st.floats(0.01, 2.0)),
                          min_size=n, max_size=n))
    return ChainSpec(modes=tuple(modes), bonds=tuple(bonds))


def _accepts(solve, spec):
    try:
        return solve(spec)
    except (InvalidRegime, NotGaugeReducible, SingularBond):
        return None


@settings(max_examples=80, deadline=None)
@given(bond_domain_chains())
def test_layers_accept_the_same_bonds(spec):
    # one rule, HoppingMatrix.bond_domain, decides which chains each layer accepts
    rate = _accepts(solve_steady_chain, spec)
    dyn = _accepts(steady_from_dynamics, spec)
    assert (rate is None) == (dyn is None)
    if _accepts(lambda s: diagonalize(build_hopping_matrix(s)), spec) is not None:
        assert rate is not None
    if rate is not None:
        assert dyn.occupations == pytest.approx(rate.occupations, rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the band LU loses the rates' cancellation: off by 4.8e-10 and -1.8e-9 relative"))
def test_layers_agree_where_a_rate_numerator_cancels():
    # a chain that test_layers_accept_the_same_bonds can draw: |t_fwd|**2 + Re p
    # is 0 and |t_bwd|**2 + Re p is 1.8e-15, so both rates come from cancellation
    spec = ChainSpec(modes=(ModeParams(0.00390625, 1.0), ModeParams(0.001, 1.0)),
                     bonds=(Bond(-2.9999999999999996, 3.0),))
    rate = solve_steady_chain(spec).occupations
    dyn = steady_from_dynamics(spec).occupations
    assert dyn == pytest.approx(rate, rel=1e-9, abs=0.0)


class TestTrajectory:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(times=np.array([0.0, 1.0]), occupations=np.zeros((3, 2)))

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [1.0, 0.5], [-1.0, 0.0], [0.0, np.inf]])
    def test_rejects_times_not_finite_nonnegative_and_increasing(self, times):
        with pytest.raises(ValueError, match="finite, nonnegative and strictly increasing"):
            Trajectory(times=np.array(times), occupations=np.zeros((len(times), 2)))

    def test_engines_check_times_before_any_work(self, monkeypatch):
        # with the operators' builders gone, only the time check can raise
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        monkeypatch.setattr(dynamics, "build_hopping_matrix", None)
        monkeypatch.setattr(dynamics, "_moment_band", None)
        with pytest.raises(ValueError, match="strictly increasing"):
            single_excitation_trace(spec, 0, np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve_covariance(spec, np.eye(2, dtype=complex), 2.0, t_eval=[0.5, 0.5])
