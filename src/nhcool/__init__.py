"""Occupation solvers for dissipative non-reciprocal bosonic chains.

Three independent layers compute steady-state occupations and can be played
against each other: closed-form / linear-algebra rate equations
(:mod:`nhcool.steady`), spectral occupations of the gauge-reduced hopping
matrix (:mod:`nhcool.spectral`) and the second-moment equations
(:mod:`nhcool.dynamics`), solved directly for the stationary state or
propagated exactly for trajectories.  A brute-force master equation on a
truncated Fock space (:mod:`nhcool.oracle`) serves as ground truth for small
systems, and :mod:`nhcool.cli` exposes everything as CSV-producing commands.
"""

from .dynamics import (
    Trajectory,
    covariance_rhs,
    evolve_covariance,
    single_excitation_trace,
    steady_from_dynamics,
)
from .errors import (
    CoolingError,
    DimensionTooLarge,
    DivergentRate,
    InvalidRegime,
    NotGaugeReducible,
    SingularBond,
    SingularSystem,
    ToleranceNotMet,
    TruncationWarning,
)
from .model import (
    Bond,
    ChainSpec,
    HoppingMatrix,
    ModeParams,
    RateMatrix,
    build_hopping_matrix,
    build_rate_matrix,
    chain_from_config,
    chain_to_config,
    make_alternating_chain,
    make_uniform_chain,
)
from .oracle import (
    MAX_DIMENSION,
    FockDensityMatrix,
    evolve_master_equation,
    number_state,
    oracle_steady,
    thermal_state,
)
from .spectral import (
    SpectralDecomposition,
    diagonalize,
    gauge_stripped_envelopes,
    localization_profile,
    spectral_occupations,
)
from .steady import (
    AttachedModeSpec,
    SteadyState,
    attached_mode_estimate,
    closed_form_two_mode,
    plateau_limit,
    solve_steady_chain,
    solve_steady_rates,
    solve_with_attached,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModeParams", "Bond", "ChainSpec", "HoppingMatrix", "RateMatrix",
    "make_uniform_chain", "make_alternating_chain",
    "build_hopping_matrix", "build_rate_matrix",
    "chain_to_config", "chain_from_config",
    # spectral
    "SpectralDecomposition", "diagonalize", "spectral_occupations",
    "localization_profile", "gauge_stripped_envelopes",
    # steady
    "SteadyState", "AttachedModeSpec", "solve_steady_rates",
    "solve_steady_chain", "closed_form_two_mode", "plateau_limit",
    "solve_with_attached", "attached_mode_estimate",
    # dynamics
    "Trajectory", "single_excitation_trace", "covariance_rhs",
    "evolve_covariance", "steady_from_dynamics",
    # oracle
    "MAX_DIMENSION", "FockDensityMatrix", "thermal_state", "number_state",
    "evolve_master_equation", "oracle_steady",
    # errors
    "CoolingError", "DivergentRate", "NotGaugeReducible", "SingularBond",
    "SingularSystem", "InvalidRegime", "ToleranceNotMet",
    "DimensionTooLarge", "TruncationWarning",
]
