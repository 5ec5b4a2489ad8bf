"""Exception and warning types shared across the solver layers."""


class CoolingError(Exception):
    """Base class for all nhcool solver errors."""


class DivergentRate(CoolingError):
    """A coupled mode pair has zero total dissipation, so its transition rate diverges."""


class NotGaugeReducible(CoolingError):
    """Some bond product t_fwd * t_bwd is not a positive real number."""


class SingularBond(CoolingError):
    """An interior bond product is zero; the chain disconnects there."""


class SingularSystem(CoolingError):
    """The stationary system has no unique solution (no dissipation anywhere)."""


class InvalidRegime(CoolingError):
    """Parameters lie outside the regime where the requested formula applies."""


class ToleranceNotMet(CoolingError):
    """A stationary solve could not meet the requested tolerance."""


class DimensionTooLarge(CoolingError):
    """The truncated Fock space would exceed the dense-solver guard rail."""


class TruncationWarning(UserWarning):
    """The top Fock level of some mode carries non-negligible population."""
