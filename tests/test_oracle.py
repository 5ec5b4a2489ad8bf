import math
import warnings
from functools import reduce

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from nhcool import (
    Bond,
    ChainSpec,
    DimensionTooLarge,
    FockDensityMatrix,
    ModeParams,
    SingularSystem,
    ToleranceNotMet,
    TruncationWarning,
    build_hopping_matrix,
    closed_form_two_mode,
    evolve_master_equation,
    make_uniform_chain,
    number_state,
    oracle_steady,
    thermal_state,
)
from nhcool.dynamics import _expm_taylor
from nhcool.oracle import _liouvillian, _sector_pairs

LN2 = math.log(2.0)
# a complex bond, a mode without a bath and a mode at zero temperature, whose
# jump operators (both of the first, the up-jump of the second) are zero
COMPLEX_IDLE_CHAIN = ChainSpec(
    modes=(ModeParams(0.1, 0.2), ModeParams(0.0, 0.3), ModeParams(0.2, 0.0)),
    bonds=(Bond(1.0 + 0.3j, 0.5 - 0.2j), Bond(0.8, 1.2)),
)


def rabi_closed_form(tau):
    c2, s2 = math.cos(tau) ** 2, math.sin(tau) ** 2
    return c2 / (c2 + 4.0 * s2)


def full_liouvillian(spec, cutoff):
    """The linear Liouvillian ``L0`` on the whole ``dim**2`` space, row-major."""
    n = spec.n_modes
    dim = cutoff**n
    single = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    lowering = [
        reduce(np.kron, [single if j == i else np.eye(cutoff) for j in range(n)])
        for i in range(n)
    ]
    h = build_hopping_matrix(spec).matrix
    ham = sum(h[i, j] * lowering[i].T @ lowering[j] for i in range(n) for j in range(n))
    eye = np.eye(dim)
    # row-major vec(A rho B) = kron(A, B.T) vec(rho)
    liou = -1j * (np.kron(ham, eye) - np.kron(eye, ham.conj()))
    for a, mode in zip(lowering, spec.modes):
        for op in (math.sqrt(mode.kappa * (1 + mode.n_th)) * a,
                   math.sqrt(mode.kappa * mode.n_th) * a.T):
            norm = op.T @ op
            liou += np.kron(op, op) - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm))
    return liou


def full_liouvillian_occupations(spec, cutoff):
    """Leading eigenvector of the Liouvillian on the whole ``dim**2`` space."""
    n = spec.n_modes
    dim = cutoff**n
    evals, evecs = np.linalg.eig(full_liouvillian(spec, cutoff))
    rho = evecs[:, np.argmax(evals.real)].reshape(dim, dim)
    pops = np.real(np.diag(rho / np.trace(rho))).reshape((cutoff,) * n)
    levels = np.arange(cutoff)
    return np.array([
        pops.sum(axis=tuple(ax for ax in range(n) if ax != i)) @ levels for i in range(n)
    ])


class TestThermalState:
    def test_vacuum_at_zero_occupation(self):
        spec = make_uniform_chain(1, 1.0, 0.0, 0.05, 0.0)
        state = thermal_state(spec, 4)
        diag = np.real(np.diag(state.rho))
        assert diag == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_single_mode_geometric_weights(self):
        spec = make_uniform_chain(1, 1.0, 0.0, 0.05, 0.1)
        state = thermal_state(spec, 5)
        ratio = 0.1 / 1.1
        weights = ratio ** np.arange(5)
        weights /= weights.sum()
        assert np.real(np.diag(state.rho)) == pytest.approx(weights, rel=1e-14)
        mean = (weights * np.arange(5)).sum()
        assert state.occupations()[0] == pytest.approx(mean, rel=1e-14)
        assert mean == pytest.approx(0.0999, abs=1e-4)

    def test_two_mode_product_structure(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        state = thermal_state(spec, 4)
        single = thermal_state(make_uniform_chain(1, 1.0, 0.0, 0.05, 0.1), 4)
        assert np.trace(state.rho) == pytest.approx(1.0, abs=1e-14)
        assert state.rho == pytest.approx(np.kron(single.rho, single.rho), abs=1e-15)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            thermal_state(make_uniform_chain(1, 1.0, 0.0, 0.05, 0.1), 1)


def test_density_matrix_rejects_shape_of_another_space():
    with pytest.raises(ValueError, match="does not fit 2 modes at cutoff 3"):
        FockDensityMatrix(np.eye(4, dtype=complex), cutoff=3, n_modes=2)


class TestNumberState:
    def test_projector_layout(self):
        state = number_state(2, 3, (1, 0))
        assert state.rho[3, 3] == 1.0  # mode 0 is the leftmost kron factor
        assert np.trace(state.rho) == pytest.approx(1.0)
        assert state.occupations() == pytest.approx([1.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            number_state(2, 3, (3, 0))

    def test_rejects_wrong_number_of_occupations(self):
        with pytest.raises(ValueError, match="one occupation per mode"):
            number_state(2, 3, (1, 0, 0))


class TestEvolveMasterEquation:
    def test_coherent_sector_matches_normalized_closed_form(self):
        # with kappa = 0 the one-excitation sector is exactly closed and the
        # trace correction realizes the normalized amplitude dynamics
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 0.0)
        rho0 = number_state(2, 3, (1, 0))
        for tau in (0.3, 0.7, 1.2):
            state = evolve_master_equation(spec, rho0, tau)
            assert state.occupations()[0] == pytest.approx(
                rabi_closed_form(tau), abs=1e-6
            )
            assert state.trace_error() <= 1e-8
            assert state.hermiticity_error() <= 1e-8

    def test_sector_closure(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 0.0)
        rho0 = number_state(2, 3, (1, 0))
        for tau in (0.5, 1.5):
            state = evolve_master_equation(spec, rho0, tau)
            pops = np.real(np.diag(state.rho)).reshape(3, 3)
            outside = pops.sum() - pops[0, 0] - pops[0, 1] - pops[1, 0]
            assert abs(outside) <= 1e-12

    # the amplified long-time state pads the top Fock level a little past the
    # reporting threshold; the warning is expected here
    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_positivity_along_trajectory(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        rho0 = thermal_state(spec, 5)
        for tau in (1.0, 10.0, 60.0):
            state = evolve_master_equation(spec, rho0, tau)
            assert state.min_eigenvalue() >= -1e-6
            assert state.trace_error() <= 1e-8
            assert state.hermiticity_error() <= 1e-8

    def test_decoupled_mode_relaxes_exponentially(self):
        spec = ChainSpec(modes=(ModeParams(0.3, 0.2),), bonds=())
        rho0 = number_state(1, 10, (2,))
        for tau in (0.5, 2.0, 5.0):
            state = evolve_master_equation(spec, rho0, tau)
            expected = 0.2 + (2.0 - 0.2) * math.exp(-0.3 * tau)
            assert state.occupations()[0] == pytest.approx(expected, abs=1e-5)

    def test_hermitian_vacuum_exactly_stationary(self):
        spec = make_uniform_chain(2, 1.0, 0.0, 0.05, 0.0)
        state = evolve_master_equation(spec, thermal_state(spec, 4), 20.0)
        assert np.abs(state.occupations()).max() <= 1e-9

    def test_hermitian_thermal_stationary_up_to_truncation(self):
        # the truncated ladder shifts the fixed point by ~ r**cutoff
        spec = make_uniform_chain(2, 1.0, 0.0, 0.05, 0.1)
        state = evolve_master_equation(spec, thermal_state(spec, 5), 40.0)
        assert np.abs(state.occupations() - 0.1).max() <= 1e-4

    def test_truncation_warning_fires(self):
        spec = ChainSpec(modes=(ModeParams(0.3, 0.5),), bonds=())
        with pytest.warns(TruncationWarning):
            evolve_master_equation(spec, thermal_state(spec, 3), 10.0)

    # cutoff 3 truncates these chains; the propagator is checked on the
    # truncated space, so the warning is expected here
    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_matches_extended_precision_expm_on_number_diagonal_block(self):
        spec = ChainSpec(
            modes=(ModeParams(0.1, 0.2), ModeParams(0.3, 0.05)),
            bonds=(Bond(1.2 * math.exp(LN2), 1.2 * math.exp(-LN2)),),
        )
        rho0 = thermal_state(spec, 3)
        total = np.indices((3, 3)).reshape(2, -1).sum(axis=0)
        keep = np.flatnonzero((total[:, None] == total[None, :]).ravel())
        block = mpmath.matrix(full_liouvillian(spec, 3)[np.ix_(keep, keep)].tolist())
        start = mpmath.matrix(rho0.rho.ravel()[keep].tolist())
        for tau in (0.5, 20.0, 200.0):
            with mpmath.workdps(30):
                vec = mpmath.expm(tau * block) * start
                want = np.zeros(81, dtype=complex)
                want[keep] = [complex(v) for v in vec]
            want = want.reshape(9, 9) / np.trace(want.reshape(9, 9))
            state = evolve_master_equation(spec, rho0, tau)
            assert np.abs(state.rho - want).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    @pytest.mark.parametrize("spec", [
        make_uniform_chain(2, 1.0, LN2, 0.1, 0.2), COMPLEX_IDLE_CHAIN,
    ], ids=["2x3", "3x3-complex-idle-jumps"])
    def test_coherent_start_matches_full_space_expm(self, spec):
        # the vacuum plus one boson in the second-to-last mode (state 3)
        # couples total numbers 0 and 1: the sectors with number difference
        # +1 and -1 evolve next to the number-diagonal one
        dim = 3**spec.n_modes
        psi = np.zeros(dim)
        psi[[0, 3]] = math.sqrt(0.5)
        rho0 = FockDensityMatrix(
            np.outer(psi, psi).astype(complex), cutoff=3, n_modes=spec.n_modes
        )
        for tau in (0.5, 20.0):
            vec = expm(tau * full_liouvillian(spec, 3)) @ rho0.rho.ravel()
            want = vec.reshape(dim, dim) / vec.reshape(dim, dim).trace()
            state = evolve_master_equation(spec, rho0, tau)
            assert np.abs(state.rho - want).max() <= 1e-12
            assert abs(state.rho[0, 3]) > 1e-3

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_non_hermitian_start_matches_full_space_expm(self):
        # |psi><phi| with psi = vacuum plus one boson in state 3 and phi the
        # vacuum occupies number differences 0 and +1 but not -1, and its
        # trace is nonzero
        spec = COMPLEX_IDLE_CHAIN
        psi = np.zeros(27)
        psi[[0, 3]] = math.sqrt(0.5)
        phi = np.zeros(27)
        phi[0] = 1.0
        rho0 = FockDensityMatrix(np.outer(psi, phi).astype(complex), cutoff=3, n_modes=3)
        for tau in (0.5, 20.0):
            vec = expm(tau * full_liouvillian(spec, 3)) @ rho0.rho.ravel()
            want = vec.reshape(27, 27) / vec.reshape(27, 27).trace()
            state = evolve_master_equation(spec, rho0, tau)
            assert np.abs(state.rho - want).max() <= 1e-12
            assert abs(state.rho[3, 0]) > 1e-3

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_thermal_start_stays_exactly_hermitian(self):
        # the real coordinates describe Hermitian matrices only
        spec = COMPLEX_IDLE_CHAIN
        for tau in (0.5, 20.0):
            state = evolve_master_equation(spec, thermal_state(spec, 3), tau)
            assert state.hermiticity_error() == 0.0

    def test_long_time_trajectory_equals_stationary_state(self):
        # 344 rows; the spectral gap is 0.0434, so tau = 920 = 40 / gap leaves
        # the transient at e^-40 of the stationary state
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        state = evolve_master_equation(spec, thermal_state(spec, 8), 920.0)
        assert state.occupations() == pytest.approx(oracle_steady(spec, 8), rel=1e-13, abs=0)

    # cutoff 5 pads the top Fock level a little past the reporting threshold
    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_very_long_time_stays_finite(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        state = evolve_master_equation(spec, thermal_state(spec, 5), 1e5)
        assert np.all(np.isfinite(state.rho))
        assert state.trace_error() <= 1e-15
        assert state.occupations() == pytest.approx(oracle_steady(spec, 5), rel=1e-12, abs=0)

    # cutoff 3 truncates the chain; the warning is expected here
    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    @pytest.mark.parametrize("tau", [2e4, 1e5, 1e308])
    def test_growth_past_double_range_stays_finite(self, tau):
        # three modes grow like exp(lambda_1 tau) with lambda_1 tau past 709:
        # a single expm of L0 tau overflows to nan here; at 1e308 even
        # |L0| tau overflows, so the squarings are counted in logs
        spec = make_uniform_chain(3, 1.0, LN2, 0.05, 0.1)
        state = evolve_master_equation(spec, thermal_state(spec, 3), tau)
        assert np.all(np.isfinite(state.rho))
        assert state.occupations() == pytest.approx(oracle_steady(spec, 3), rel=1e-12, abs=0)

    def test_squarings_stop_once_the_flow_has_converged(self):
        # tau = 2**60 and 2**1000 scale the block to the same Taylor sum; the
        # flow converges after about 15 squarings, so stopping there leaves
        # the two equal, where squaring on to 60-odd or 1000-odd squarings
        # adds rounding
        spec = make_uniform_chain(3, 1.0, LN2, 0.05, 0.1)
        left, right, _ = _sector_pairs(3, 3)
        block = _liouvillian(spec, 3, left, right)
        assert block.shape == (141, 141)
        short, huge = (_expm_taylor(block, 2.0**k) for k in (60, 1000))
        assert np.array_equal(short / np.abs(short).max(), huge / np.abs(huge).max())

    def test_rejects_negative_time(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.1, 0.2)
        with pytest.raises(ValueError):
            evolve_master_equation(spec, thermal_state(spec, 3), -1.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, tau):
        spec = make_uniform_chain(2, 1.0, LN2, 0.1, 0.2)
        with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
            evolve_master_equation(spec, thermal_state(spec, 3), tau)

    def test_rejects_start_of_another_mode_count(self):
        spec = make_uniform_chain(3, 1.0, LN2, 0.1, 0.2)
        with pytest.raises(ValueError, match="different mode counts"):
            evolve_master_equation(spec, number_state(2, 3, (1, 0)), 1.0)

    def test_rejects_start_without_nonzero_entry(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.1, 0.2)
        rho0 = FockDensityMatrix(np.zeros((9, 9), dtype=complex), cutoff=3, n_modes=2)
        with pytest.raises(ValueError, match="no nonzero entry"):
            evolve_master_equation(spec, rho0, 1.0)

    def test_coherent_start_guards_the_union_of_its_sectors(self):
        # vacuum plus one boson at 2 modes, cutoff 14: each sector is below the
        # guard rail (1834 rows at difference 0, 1820 at +-1), but the one
        # block that propagates them together has 5474 rows
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        psi = np.zeros(14**2)
        psi[[0, 1]] = math.sqrt(0.5)
        rho0 = FockDensityMatrix(np.outer(psi, psi).astype(complex), cutoff=14, n_modes=2)
        with pytest.raises(DimensionTooLarge, match="5474 rows"):
            evolve_master_equation(spec, rho0, 1.0)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            thermal_state(make_uniform_chain(6, 1.0, 0.1, 0.05, 0.1), 5)
        with pytest.raises(DimensionTooLarge):
            number_state(2, 70, (0, 0))


class TestOracleSteady:
    def test_decoupled_modes_thermalize(self):
        spec = ChainSpec(
            modes=(ModeParams(0.2, 0.1), ModeParams(0.2, 0.1)),
            bonds=(Bond(0.0, 0.0),),
        )
        occ = oracle_steady(spec, 5, tol=1e-8)
        assert occ == pytest.approx([0.1, 0.1], abs=1e-3)

    def test_hermitian_chain_thermalizes(self):
        spec = make_uniform_chain(2, 1.0, 0.0, 0.05, 0.1)
        occ = oracle_steady(spec, 5, tol=1e-8)
        assert occ == pytest.approx([0.1, 0.1], abs=1e-3)

    def test_nonreciprocal_chain_cools_cold_edge(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            occ = oracle_steady(spec, 5, tol=1e-7)
        assert occ[0] < 0.1  # colder than its own bath
        assert occ[0] < occ[1]

    def test_deviation_from_rate_equations_shrinks_with_occupation(self):
        # the trace-corrected equation re-weights the ensemble towards
        # amplified sectors, so it settles above the conserving rate
        # equations; the gap narrows as the bath empties
        devs = []
        for nth in (0.2, 0.1, 0.05):
            spec = make_uniform_chain(2, 1.0, LN2, 0.05, nth)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                occ = oracle_steady(spec, 5, tol=1e-7)
            n1, n2 = closed_form_two_mode(1.0, LN2, 0.05, 0.05, nth)
            devs.append(max(abs(occ[0] - n1) / n1, abs(occ[1] - n2) / n2))
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] < 2.0

    def test_zero_temperature_is_the_exact_vacuum(self):
        # the leading eigenvalue is exactly 0, so the first shifted LU meets an
        # exactly zero pivot; the nudged shift still returns the vacuum exactly
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.0)
        assert oracle_steady(spec, 5).tolist() == [0.0, 0.0]

    def test_real_block_has_the_spectrum_of_the_liouvillian(self):
        spec = COMPLEX_IDLE_CHAIN
        left, right, _ = _sector_pairs(3, 3)
        real = _liouvillian(spec, 3, left, right)
        assert real.dtype == np.float64
        keep = left * 27 + right
        want = np.linalg.eigvals(full_liouvillian(spec, 3)[np.ix_(keep, keep)])
        got = np.linalg.eigvals(real)
        # each eigenvalue of either block has a partner in the other
        distance = np.abs(got[:, None] - want[None, :])
        tol = 1e-12 * np.abs(want).max()
        assert distance.min(axis=1).max() <= tol
        assert distance.min(axis=0).max() <= tol

    def test_rejects_bathless_chain(self):
        with pytest.raises(SingularSystem):
            oracle_steady(make_uniform_chain(2, 1.0, LN2, 0.0, 0.1), 4)

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    @pytest.mark.parametrize("n_modes, cutoff, phase", [
        pytest.param(2, 4, 0.0, id="2-4"),
        pytest.param(3, 3, 0.0, id="3-3"),
        pytest.param(3, 3, 0.7, id="3-3-complex"),
    ])
    def test_matches_full_space_liouvillian(self, n_modes, cutoff, phase):
        spec = ChainSpec(
            modes=tuple(ModeParams(0.04 + 0.02 * i, 0.05 + 0.05 * i) for i in range(n_modes)),
            bonds=tuple(Bond(1.3 * (1 + 0.2 * k) * np.exp(1j * phase), 0.6 / (1 + 0.2 * k))
                        for k in range(n_modes - 1)),
        )
        occ = oracle_steady(spec, cutoff, tol=1e-10)
        assert occ == pytest.approx(full_liouvillian_occupations(spec, cutoff), abs=1e-10)

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_integrated_flow_converges_to_stationary_solve(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.1, 0.1)
        state = evolve_master_equation(spec, thermal_state(spec, 5), 200.0)
        assert state.occupations() == pytest.approx(oracle_steady(spec, 5), abs=1e-6)

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_three_modes_cutoff_four(self):
        # block of 580 rows; success means max|drho/dtau| <= tol
        occ = oracle_steady(make_uniform_chain(3, 1.0, LN2, 0.05, 0.1), 4, tol=1e-9)
        assert np.all(occ >= 0.0)
        assert occ[0] < 0.1 < occ[2]

    def test_residual_gated_on_tol(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            with pytest.raises(ToleranceNotMet):
                oracle_steady(spec, 4, tol=1e-30)

    def test_sector_block_guard(self):
        # 19**2 = 361 Fock states pass the state guard, but the
        # number-diagonal block has sum_N dim_N**2 = 4579 > 4096 rows
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        with pytest.raises(DimensionTooLarge):
            oracle_steady(spec, 19)
