import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nhcool import (
    Bond,
    ChainSpec,
    DivergentRate,
    InvalidRegime,
    ModeParams,
    build_hopping_matrix,
    build_rate_matrix,
    chain_from_config,
    make_uniform_chain,
)

LN2 = math.log(2.0)


class TestConstructors:
    def test_uniform_two_mode(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        assert spec.n_modes == 2
        assert len(spec.bonds) == 1
        assert spec.bonds[0].t_fwd == pytest.approx(2.0, rel=1e-15)
        assert spec.bonds[0].t_bwd == pytest.approx(0.5, rel=1e-15)
        assert spec.modes[0] == ModeParams(0.01, 1.0)

    def test_single_mode_has_no_bonds(self):
        spec = make_uniform_chain(1, 1.0, 0.7, 0.1, 1.0)
        assert spec.n_modes == 1
        assert spec.bonds == ()

    def test_uniform_fifteen_modes(self):
        spec = make_uniform_chain(15, 1.0, LN2, 0.01, 1.0)
        assert spec.n_modes == 15
        assert len(spec.bonds) == 14
        assert all(b.t_fwd == pytest.approx(2.0, rel=1e-15) for b in spec.bonds)
        assert all(b.t_bwd == pytest.approx(0.5, rel=1e-15) for b in spec.bonds)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_modes=0),
            dict(n_modes=2, coupling=0.0),
            dict(n_modes=2, coupling=-1.0),
            dict(n_modes=2, kappa=-0.1),
            dict(n_modes=2, n_th=-0.5),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            make_uniform_chain(**{"coupling": 1.0, **kwargs})

    def test_chain_spec_checks_bond_count(self):
        with pytest.raises(ValueError):
            ChainSpec(modes=(ModeParams(0.1, 1.0),) * 3, bonds=(Bond(1.0, 1.0),))

    def test_mode_params_validation(self):
        with pytest.raises(ValueError):
            ModeParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            ModeParams(0.1, -1.0)

    @pytest.mark.parametrize("kappa,n_th", [
        (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf),
    ])
    def test_mode_params_rejects_non_finite(self, kappa, n_th):
        with pytest.raises(ValueError, match="finite"):
            ModeParams(kappa, n_th)

    @pytest.mark.parametrize("coupling,asymmetry", [
        (math.nan, LN2), (math.inf, LN2), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
        (1.0, 1000.0),  # exp(A) overflows a double
    ])
    def test_constructors_reject_non_finite_bonds(self, coupling, asymmetry):
        with pytest.raises(ValueError):
            make_uniform_chain(3, coupling, asymmetry, 0.01, 1.0)

    @pytest.mark.parametrize("t_fwd,t_bwd", [
        (math.nan, 1.0), (1.0, math.inf), (complex(0, math.nan), 1.0), (1.0, complex(-math.inf, 1.0)),
    ])
    def test_bond_rejects_non_finite_amplitudes(self, t_fwd, t_bwd):
        with pytest.raises(ValueError, match="bond amplitudes must be finite"):
            Bond(t_fwd, t_bwd)


class TestHoppingMatrix:
    def test_two_mode_canonical(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        hop = build_hopping_matrix(spec)
        assert hop.matrix == pytest.approx(np.array([[0.0, 0.5], [2.0, 0.0]]), rel=1e-15)

    def test_hermitian_limit(self):
        spec = make_uniform_chain(3, 1.0, 0.0, 0.01, 1.0)
        hop = build_hopping_matrix(spec)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert hop.matrix == pytest.approx(expected)
        assert np.array_equal(hop.matrix, hop.matrix.conj().T)

    def test_three_mode_entries(self):
        spec = make_uniform_chain(3, 1.0, LN2, 0.01, 1.0)
        h = build_hopping_matrix(spec).matrix
        assert h[1, 0] == pytest.approx(2.0, rel=1e-15)
        assert h[2, 1] == pytest.approx(2.0, rel=1e-15)
        assert h[0, 1] == pytest.approx(0.5, rel=1e-15)
        assert h[1, 2] == pytest.approx(0.5, rel=1e-15)
        assert np.all(np.diag(h) == 0)


class TestRateMatrix:
    def test_canonical_values(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.01, 1.0)
        g = build_rate_matrix(spec).rates
        # 2 * (4 + 1) / 0.02 and 2 * (0.25 + 1) / 0.02
        assert g[0, 1] == pytest.approx(500.0, rel=1e-12)
        assert g[1, 0] == pytest.approx(125.0, rel=1e-12)
        assert g[0, 0] == 0 and g[1, 1] == 0

    def test_symmetric_limit_matches_golden_rule(self):
        spec = make_uniform_chain(2, 1.0, 0.0, 0.01, 1.0)
        g = build_rate_matrix(spec).rates
        assert g[0, 1] == pytest.approx(4.0 / 0.02, rel=1e-14)
        assert g[0, 1] == pytest.approx(g[1, 0], rel=1e-15)

    @given(st.floats(min_value=0.05, max_value=1.5))
    def test_rate_ratio_is_exp_two_asymmetry(self, asymmetry):
        spec = make_uniform_chain(2, 1.0, asymmetry, 0.01, 1.0)
        g = build_rate_matrix(spec).rates
        assert g[0, 1] / g[1, 0] == pytest.approx(math.exp(2 * asymmetry), rel=1e-12)

    @pytest.mark.parametrize("asymmetry", [0.2, LN2, 1.5])
    def test_rate_ratio_named_points(self, asymmetry):
        g = build_rate_matrix(make_uniform_chain(2, 1.0, asymmetry, 0.01, 1.0)).rates
        assert g[0, 1] / g[1, 0] == pytest.approx(math.exp(2 * asymmetry), rel=1e-12)

    def test_doubling_kappa_halves_rates(self):
        g1 = build_rate_matrix(make_uniform_chain(4, 1.0, 0.3, 0.01, 1.0)).rates
        g2 = build_rate_matrix(make_uniform_chain(4, 1.0, 0.3, 0.02, 1.0)).rates
        assert g1 == pytest.approx(2.0 * g2, rel=1e-14)

    def test_symmetric_chain_gives_symmetric_rates(self):
        g = build_rate_matrix(make_uniform_chain(5, 1.0, 0.0, 0.02, 1.0)).rates
        assert g == pytest.approx(g.T, rel=1e-15)

    def test_nearest_neighbor_structure(self):
        g = build_rate_matrix(make_uniform_chain(6, 1.0, 0.4, 0.02, 1.0)).rates
        mask = np.zeros_like(g, dtype=bool)
        idx = np.arange(5)
        mask[idx, idx + 1] = True
        mask[idx + 1, idx] = True
        assert np.all(g[~mask] == 0.0)
        assert np.all(g[mask] > 0.0)

    def test_divergent_rate_on_coupled_bathless_pair(self):
        spec = make_uniform_chain(2, 1.0, LN2, 0.0, 1.0)
        with pytest.raises(DivergentRate):
            build_rate_matrix(spec)

    def test_negative_rate_is_rejected(self):
        # |t_fwd|^2 + Re(t_fwd t_bwd) = 1 - 2 = -1 on the second bond
        spec = ChainSpec(
            modes=(ModeParams(0.1, 1.0),) * 3,
            bonds=(Bond(1.0, 1.0), Bond(1.0, -2.0)),
        )
        with pytest.raises(InvalidRegime, match="bond 1 produces a negative"):
            build_rate_matrix(spec)

    @pytest.mark.parametrize("bonds,kappa,k", [
        # t^2 e^{2A} overflows on the second bond
        ((Bond(1.0, 1.0), Bond(math.exp(400.0), math.exp(-400.0))), 0.01, 1),
        # finite amplitudes, but the division by kappa_i + kappa_j overflows
        ((Bond(1e150, 1e-150), Bond(1.0, 1.0)), 1e-20, 0),
    ])
    def test_non_finite_rate_is_rejected(self, bonds, kappa, k):
        spec = ChainSpec(modes=(ModeParams(kappa, 1.0),) * 3, bonds=bonds)
        with pytest.raises(ValueError, match=f"^bond {k} produces a transition rate that is not finite"):
            build_rate_matrix(spec)

    def test_overflowing_amplitude_product_is_rejected(self):
        # t_fwd * t_bwd = 1e400 overflowed with a RuntimeWarning before the check
        with pytest.raises(ValueError, match="^bond 0 produces a transition rate that is not finite"):
            build_rate_matrix(make_uniform_chain(2, 1e200, 1.0, 0.01, 1.0))

    def test_zero_bond_with_zero_kappa_is_fine(self):
        spec = ChainSpec(
            modes=(ModeParams(0.0, 1.0), ModeParams(0.0, 1.0)),
            bonds=(Bond(0.0, 0.0),),
        )
        g = build_rate_matrix(spec).rates
        assert np.all(g == 0.0)


class TestConfigRoundTrip:
    def test_uniform_config(self):
        spec = chain_from_config({"n_modes": 5, "t": 1.3, "A": 0.4, "kappa": 0.02, "n_th": 0.7})
        assert spec.modes == (ModeParams(0.02, 0.7),) * 5
        assert spec.bonds == (Bond(1.3 * math.exp(0.4), 1.3 * math.exp(-0.4)),) * 4

    def test_bond_override(self):
        cfg = {
            "n_modes": 4,
            "t": 1.0,
            "A": LN2,
            "kappa": 0.01,
            "n_th": 1.0,
            "bonds": [{"index": 1, "t": 0.5, "A": 0.0}],
        }
        spec = chain_from_config(cfg)
        assert spec.bonds[0].t_fwd == pytest.approx(2.0, rel=1e-14)
        assert spec.bonds[1].t_fwd == pytest.approx(0.5, rel=1e-14)
        assert spec.bonds[1].t_bwd == pytest.approx(0.5, rel=1e-14)
        assert spec.bonds[2] == spec.bonds[0]

    def test_override_index_out_of_range(self):
        with pytest.raises(ValueError):
            chain_from_config({"n_modes": 2, "bonds": [{"index": 5, "t": 1.0}]})

    @pytest.mark.parametrize("override", [
        {"index": 0, "t": math.nan}, {"index": 0, "t": math.inf},
        {"index": 1, "A": math.nan}, {"index": 1, "A": -math.inf},
    ])
    def test_override_rejects_non_finite(self, override):
        with pytest.raises(ValueError):
            chain_from_config({"n_modes": 3, "t": 1.0, "A": LN2, "bonds": [override]})

    @pytest.mark.parametrize("bonds", [
        [{"index": 0, "a": 0.0}],  # misspelt key: the bond would silently stay unchanged
        [{"t": 0.5}],
        [[0, 0.5, 0.0]],
        {"index": 0, "t": 0.5},
    ])
    def test_malformed_overrides_are_rejected(self, bonds):
        with pytest.raises(ValueError):
            chain_from_config({"n_modes": 3, "bonds": bonds})
