"""Quantum superintegrable systems on the upper sheet of the 2D hyperboloid.

The configuration space is the surface w0^2 - w1^2 - w2^2 = 1, w0 >= 1.
Two three-parameter potentials are implemented, each separable in several
coordinate charts.  The package provides

* ``specfun``    -- self-contained special functions and quadrature,
* ``geometry``   -- coordinate charts, so(2,1) generator flows, exact
                    application of generator-word differential operators,
* ``potential1`` -- first potential: spectrum, wavefunctions in four charts,
                    zero (Bethe-type) equations and separation constants,
* ``potential2`` -- second potential: complex-parameter equidistant solutions
                    and the semi-hyperbolic system,
* ``interbasis`` -- expansion between equidistant and horicyclic bases,
                    computed three independent ways,
* ``algebra``    -- symmetry operators, eigenvalue residuals, multiplet
                    matrices and the quadratic algebra checks,
* ``verify``     -- the verification suites, one table per potential,
* ``cli``        -- ``hypersint`` command line interface.

Units: hbar = mass = 1 throughout.
"""

from .errors import (
    HypersintError,
    NoBoundStateError,
    NonFiniteValueError,
    OutOfDomainError,
    OutOfWindowError,
    ParameterPoleError,
    SingularConfigurationError,
    SolverFailureError,
)

__all__ = [
    "HypersintError",
    "NoBoundStateError",
    "NonFiniteValueError",
    "OutOfDomainError",
    "OutOfWindowError",
    "ParameterPoleError",
    "SingularConfigurationError",
    "SolverFailureError",
]

__version__ = "0.1.0"
