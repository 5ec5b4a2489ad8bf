"""Occupation solvers for dissipative non-reciprocal bosonic chains.

Three independent layers compute steady-state occupations and can be played
against each other: closed-form / linear-algebra rate equations
(:mod:`nhcool.steady`), spectral occupations of the gauge-reduced hopping
matrix (:mod:`nhcool.spectral`) and the second-moment equations
(:mod:`nhcool.dynamics`), solved directly for the stationary state or
propagated exactly for trajectories.  A brute-force master equation on a
truncated Fock space (:mod:`nhcool.oracle`) serves as ground truth for small
systems, and :mod:`nhcool.cli` exposes everything as CSV-producing commands.

Each layer's ``__all__`` lists its public names; the package re-exports them.
"""

from . import dynamics, errors, model, oracle, spectral, steady
from .dynamics import *
from .errors import *
from .model import *
from .oracle import *
from .spectral import *
from .steady import *

__version__ = "0.1.0"

__all__ = ["__version__", *model.__all__, *spectral.__all__, *steady.__all__,
           *dynamics.__all__, *oracle.__all__, *errors.__all__]
