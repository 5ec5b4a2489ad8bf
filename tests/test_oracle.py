import itertools
import math
import re
import tracemalloc
import warnings
from functools import reduce

import mpmath
import numpy as np
import pytest
import scipy.linalg
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
    oracle_steady,
    thermal_state,
)
from nhcool.dynamics import _expm_taylor
from nhcool.oracle import (
    _fock_levels,
    _liouvillian,
    _parity_blocks,
    _sector_pairs,
    _thermal_populations,
    _warn_on_truncation,
)

LN2 = math.log(2.0)
# a complex bond, a mode without a bath and a mode at zero temperature, whose
# jump operators (both of the first, the up-jump of the second) are zero
COMPLEX_IDLE_CHAIN = ChainSpec(
    modes=(ModeParams(0.1, 0.2), ModeParams(0.0, 0.3), ModeParams(0.2, 0.0)),
    bonds=(Bond(1.0 + 0.3j, 0.5 - 0.2j), Bond(0.8, 1.2)),
)


def number_state(n_modes, cutoff, occupations):
    """Projector onto one Fock basis state, mode 0 leftmost."""
    dim = cutoff**n_modes
    index = np.ravel_multi_index(occupations, (cutoff,) * n_modes)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return FockDensityMatrix(rho=rho, cutoff=cutoff, n_modes=n_modes)


def rabi_closed_form(tau):
    c2, s2 = math.cos(tau) ** 2, math.sin(tau) ** 2
    return c2 / (c2 + 4.0 * s2)


def kron_lowering(n_modes, cutoff):
    """The lowering operator of each mode as a Kronecker product, mode 0 leftmost."""
    single = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    return [
        reduce(np.kron, [single if j == i else np.eye(cutoff) for j in range(n_modes)])
        for i in range(n_modes)
    ]


def full_liouvillian(spec, cutoff):
    """The linear Liouvillian ``L0`` on the whole ``dim**2`` space, row-major."""
    n = spec.n_modes
    dim = cutoff**n
    lowering = kron_lowering(n, cutoff)
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


def dense_liouvillian_block(spec, cutoff, left, right):
    """The real block ``Re L + (Im L)[:, swap]`` of ``L0`` on the given pairs,
    gathered from dense ``K`` and jump operators with ``np.ix_``: the bitwise
    reference for the nonzero assembly of ``_liouvillian``."""
    lowering = kron_lowering(spec.n_modes, cutoff)
    hop = build_hopping_matrix(spec)
    k_op = np.zeros((cutoff**spec.n_modes,) * 2, dtype=complex)
    for k in range(spec.n_modes - 1):
        k_op -= 1j * hop.bwd[k] * (lowering[k].T @ lowering[k + 1])
        k_op -= 1j * hop.fwd[k] * (lowering[k + 1].T @ lowering[k])
    jumps = []
    for a, mode in zip(lowering, spec.modes):
        jumps.append(np.sqrt(mode.kappa * (1.0 + mode.n_th)) * a)
        jumps.append(np.sqrt(mode.kappa * mode.n_th) * a.T)
    k_op[np.diag_indices_from(k_op)] -= 0.5 * sum((j * j).sum(axis=0) for j in jumps)

    def block(a, b):
        return a[np.ix_(left, left)] * b[np.ix_(right, right)]

    def transposed(a, b):
        return a[np.ix_(left, right)] * b[np.ix_(right, left)]

    ident = np.eye(len(k_op))
    real = block(k_op.real, ident)
    real += block(ident, k_op.real)
    real += transposed(k_op.imag, ident)
    real -= transposed(ident, k_op.imag)
    for jump in jumps:
        real += block(jump, jump)
    return real


def parity_operator(n_modes, cutoff, left, right, swap):
    """``Q u = sigma u[swap]`` as a dense matrix, ``sigma = s[left] s[right]``
    and ``s`` the sign ``(-1)**(bosons on the odd-indexed modes)`` of each
    basis state, enumerated as tuples."""
    s = np.array([
        (-1) ** sum(levels[1::2])
        for levels in itertools.product(range(cutoff), repeat=n_modes)
    ])
    q = np.zeros((len(left),) * 2)
    q[np.arange(len(left)), swap] = s[left] * s[right]
    return q


def staggered_real_chain(n_modes):
    """Real amplitudes of both signs, and a different bath on each mode."""
    amplitudes = [(1.3, 0.6), (-0.9, 1.1), (0.7, -0.4)]
    return ChainSpec(
        modes=tuple(ModeParams(0.04 + 0.03 * i, 0.05 + 0.07 * i) for i in range(n_modes)),
        bonds=tuple(Bond(*amplitudes[k]) for k in range(n_modes - 1)),
    )


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

    @pytest.mark.parametrize("seed", range(6))
    def test_populations_are_the_diagonal_of_the_state(self, seed):
        # the stationary solve starts from these populations alone
        rng = np.random.default_rng(seed)
        n_modes = int(rng.integers(1, 4))
        cutoff = int(rng.integers(2, 6))
        n_th = rng.uniform(0.0, 3.0, n_modes) * (rng.random(n_modes) < 0.7)  # some modes cold
        spec = ChainSpec(
            modes=tuple(ModeParams(0.05, float(m)) for m in n_th),
            bonds=(Bond(1.0, 0.5),) * (n_modes - 1),
        )
        got = _thermal_populations(spec, _fock_levels(n_modes, cutoff))
        want = np.real(np.diag(thermal_state(spec, cutoff).rho))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_density_matrix_rejects_shape_of_another_space():
    with pytest.raises(ValueError, match="does not fit 2 modes at cutoff 3"):
        FockDensityMatrix(np.eye(4, dtype=complex), cutoff=3, n_modes=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_matrix_rejects_entry_that_is_not_finite(bad):
    rho = thermal_state(make_uniform_chain(2, 1.0, LN2, 0.1, 0.2), 3).rho.copy()
    rho[4, 4] = bad
    with pytest.raises(ValueError, match="not finite"):
        FockDensityMatrix(rho, cutoff=3, n_modes=2)


class TestFockLayout:
    """The basis layout, checked against an enumeration of the basis tuples
    (mode 0 leftmost, the last mode's level changing fastest)."""

    @pytest.mark.parametrize("n_modes, cutoff, differences", [
        (1, 4, (0,)), (2, 3, (0,)), (2, 3, (1,)), (3, 3, (0, 2)),
    ])
    def test_sector_pairs_match_enumeration(self, n_modes, cutoff, differences):
        states = list(itertools.product(range(cutoff), repeat=n_modes))
        want = {
            (a, b)
            for a, levels_a in enumerate(states)
            for b, levels_b in enumerate(states)
            if abs(sum(levels_a) - sum(levels_b)) in differences
        }
        left, right, swap = _sector_pairs(n_modes, cutoff, differences)
        assert len(left) == len(want)
        assert set(zip(left.tolist(), right.tolist())) == want
        assert np.array_equal(left[swap], right)
        assert np.array_equal(right[swap], left)
        assert np.array_equal(swap[swap], np.arange(len(swap)))

    @pytest.mark.parametrize("seed", range(4))
    def test_occupations_and_top_levels_match_enumeration(self, seed):
        pops = np.random.default_rng(seed).random(27)
        pops /= pops.sum()
        state = FockDensityMatrix(np.diag(pops).astype(complex), cutoff=3, n_modes=3)
        mean, top = np.zeros(3), np.zeros(3)
        for pop, levels in zip(pops, itertools.product(range(3), repeat=3)):
            for mode, level in enumerate(levels):
                mean[mode] += level * pop
                top[mode] += pop if level == 2 else 0.0
        assert state.occupations() == pytest.approx(mean, rel=1e-14, abs=0)
        worst = int(np.argmax(top))
        message = f"top Fock level of mode {worst} holds population {top[worst]:.2e} "
        with pytest.warns(TruncationWarning, match=re.escape(message)):
            _warn_on_truncation(_fock_levels(3, 3), pops)

    @pytest.mark.parametrize("differences", [(0,), (0, 1)])
    def test_liouvillian_assembly_equals_dense_gathers(self, differences):
        # complex amplitudes, and baths that are sometimes absent or cold
        rng = np.random.default_rng(sum(differences))
        for _ in range(20):
            n_modes = int(rng.integers(1, 4))
            cutoff = int(rng.integers(2, 6 if n_modes < 3 else 4))
            spec = ChainSpec(
                modes=tuple(ModeParams(float(rng.choice([0.0, rng.uniform(0, 1)])),
                                       float(rng.choice([0.0, rng.uniform(0, 2)])))
                            for _ in range(n_modes)),
                bonds=tuple(Bond(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
                            for _ in range(n_modes - 1)),
            )
            left, right, _ = _sector_pairs(n_modes, cutoff, differences)
            got = _liouvillian(spec, cutoff, left, right)
            want = dense_liouvillian_block(spec, cutoff, left, right)
            # bit for bit, the signs of zeros included
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestParity:
    """``rho -> S rho^T S`` commutes with ``L0`` when every amplitude is real."""

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 4), (2, 5), (3, 3), (4, 3)])
    def test_real_liouvillian_commutes_with_parity(self, n_modes, cutoff):
        left, right, swap = _sector_pairs(n_modes, cutoff)
        real = _liouvillian(staggered_real_chain(n_modes), cutoff, left, right)
        q = parity_operator(n_modes, cutoff, left, right, swap)
        assert np.array_equal(real @ q, q @ real)

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 4), (2, 5), (3, 3), (4, 3)])
    def test_blocks_hold_the_spectrum(self, n_modes, cutoff):
        left, right, swap = _sector_pairs(n_modes, cutoff)
        real = _liouvillian(staggered_real_chain(n_modes), cutoff, left, right)
        _, _, even, odd = _parity_blocks(real, left, right, swap, n_modes, cutoff)
        assert len(even) + len(odd) == len(real)
        got = np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(odd)])
        want = np.linalg.eigvals(real)
        # each eigenvalue of either side has a partner in the other
        distance = np.abs(got[:, None] - want[None, :])
        tol = 1e-12 * np.abs(want).max()
        assert distance.min(axis=1).max() <= tol
        assert distance.min(axis=0).max() <= tol

    def test_complex_amplitudes_break_the_parity(self):
        left, right, swap = _sector_pairs(3, 3)
        real = _liouvillian(COMPLEX_IDLE_CHAIN, 3, left, right)
        q = parity_operator(3, 3, left, right, swap)
        assert np.abs(real @ q - q @ real).max() > 0.1 * np.abs(real).max()


class TestNumberState:
    def test_projector_layout(self):
        state = number_state(2, 3, (1, 0))
        assert state.rho[3, 3] == 1.0  # mode 0 is the leftmost kron factor
        assert np.trace(state.rho) == pytest.approx(1.0)
        assert state.occupations() == pytest.approx([1.0, 0.0])


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
            assert np.linalg.eigvalsh(0.5 * (state.rho + state.rho.conj().T)).min() >= -1e-6
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

    # cutoff 3 truncates the chain; the warning is expected here
    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: the rounding of the squarings of exp(tau L0) grows with "
        "|tau L0|, so at t = 1e12 the stationary start drifts from 0.384615 to 0.38448"
    ))
    def test_large_norm_keeps_the_stationary_thermal_start(self):
        # Hermitian bonds at a uniform bath leave the truncated thermal state
        # stationary, at 5/13 per mode
        spec = ChainSpec(modes=(ModeParams(0.1, 0.5),) * 2, bonds=(Bond(1e12, 1e12),))
        state = evolve_master_equation(spec, thermal_state(spec, 3), 1.0)
        assert state.occupations() == pytest.approx([5 / 13] * 2, rel=1e-6)

    def test_rejects_negative_time(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.1, 0.2)
        with pytest.raises(ValueError):
            evolve_master_equation(spec, thermal_state(spec, 3), -1.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, tau):
        spec = make_uniform_chain(2, 1.0, LN2, 0.1, 0.2)
        with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
            evolve_master_equation(spec, thermal_state(spec, 3), tau)

    # the Liouvillian's entries overflow on the way to the infinite norm
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_liouvillian_whose_norm_is_not_finite(self):
        # a NaN norm made the exponential the identity, so the thermal
        # start came back unchanged; the assembly adds only the nonzero
        # terms, so no inf * 0 turns the overflow into NaN
        spec = ChainSpec(modes=(ModeParams(0.1, 0.5),) * 2, bonds=(Bond(1e308, 1e308),))
        with pytest.raises(ValueError, match="1-norm is inf"):
            evolve_master_equation(spec, thermal_state(spec, 3), 1.0)

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


class TestOracleSteady:
    @pytest.mark.parametrize("unit", [1e-7, 2.0**-30, 2.0**-100])
    def test_small_unit_keeps_the_answer(self, unit):
        # the gap floor sqrt(eps) max(1, max|lambda|) was absolute below unit 1:
        # "leading Liouvillian eigenvalue ... is not real and simple" from 1e-7 down
        def occupations(s):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                return oracle_steady(make_uniform_chain(2, s, LN2, 0.05 * s, 0.1), 4)

        assert occupations(unit) == pytest.approx(occupations(1.0), rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_tol_that_is_nan_or_negative(self, tol):
        # a NaN tol used to switch the gate off; the gate runs before the
        # top-level check, so no TruncationWarning comes first
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        with pytest.raises(ValueError, match="tol must be >= 0"):
            oracle_steady(spec, 4, tol=tol)

    def test_residual_gate_is_relative_to_the_bath(self):
        # the residual, 1e284 here, scales with kappa n_th = 1e300; at cutoff 3
        # the infinitely hot state is uniform over the levels 0, 1 and 2
        spec = ChainSpec(modes=(ModeParams(1.0, 1e300),) * 2, bonds=(Bond(1e100, 1e100),))
        with pytest.warns(TruncationWarning):
            occ = oracle_steady(spec, 3)
        assert occ == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_sector_block_guard(self):
        # 19**2 = 361 Fock states pass the state guard, but the
        # number-diagonal block has sum_N dim_N**2 = 4579 > 4096 rows
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        with pytest.raises(DimensionTooLarge):
            oracle_steady(spec, 19)

    def test_sector_block_guard_allocates_no_pair_table(self):
        # 64**2 = 4096 Fock states: a dim x dim table would take 16 MB or more
        spec = make_uniform_chain(2, 1.0, LN2, 0.05, 0.1)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge, match="174784 rows"):
                oracle_steady(spec, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_stationary_solve_allocates_a_few_blocks(self):
        # one mode at cutoff 1024: the solve holds about three 8 MiB blocks;
        # with a dense thermal and a dense result rho (16 MiB each) it took 56 MiB
        spec = make_uniform_chain(1, 1.0, 0.0, 0.05, 0.1)
        tracemalloc.start()
        try:
            occ = oracle_steady(spec, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert occ == pytest.approx([0.1], rel=1e-12)
        assert peak <= 3.5 * 1024**2 * 8

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_real_chain_solves_on_the_parity_blocks(self, monkeypatch):
        # the gauge copy has the same products t_fwd t_bwd, so the same
        # occupations, but complex amplitudes, which take the full block
        spec = staggered_real_chain(3)
        phases = np.exp(1j * np.array([0.7, -1.9]))
        gauged = ChainSpec(
            modes=spec.modes,
            bonds=tuple(Bond(b.t_fwd * p, b.t_bwd / p) for b, p in zip(spec.bonds, phases)),
        )
        shapes = []
        for name in ("eigvals", "lu_factor"):
            original = getattr(scipy.linalg, name)

            def recorded(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, recorded)
        occ = oracle_steady(spec, 3)
        assert shapes == [(84, 84), (57, 57), (84, 84)]
        shapes.clear()
        want = oracle_steady(gauged, 3)
        assert shapes == [(141, 141), (141, 141)]
        assert occ == pytest.approx(want, rel=1e-13, abs=0)
