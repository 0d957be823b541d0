"""Exception hierarchy shared by all solver modules.

Each class states the command-line exit code of its failure class as
`exit_code`: 2 bracketing, 3 root-finding convergence, 4 validation (the
default), 5 leaving the problem's domain of validity. The message states the
values a failure reports. Two classes carry a payload: `DomainExit.trajectory`
and `SymmetryViolation.residuals`, which `verify` reports. A BracketFailure
chains the last evaluation error as its `__cause__`, a
BoundaryHypothesisFailure the error of its first failed boundary cell.
"""


class SolverError(Exception):
    """Base class for every error raised by this package; a subclass that is
    not a validation failure overrides `exit_code`."""

    exit_code = 4


class DomainExit(SolverError):
    """The integrated orbit left the annulus on which the field is defined.

    Carries the partial trajectory, which ends at the refined exit, or None
    when the initial position already lies outside.
    """

    exit_code = 5

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StepFailure(SolverError):
    """Adaptive step size underflowed; the problem is unresolvable at this tolerance."""

    exit_code = 5


class SymmetryViolation(SolverError):
    """A declared reflection symmetry does not hold numerically."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class NoCrossing(SolverError):
    """No transversal section crossing found inside the time window."""

    exit_code = 5


class TangentialCrossing(SolverError):
    """Crossing found, but the transverse velocity component is below the floor."""

    exit_code = 5


class BoundaryCrossing(SolverError):
    """Crossing landed within tolerance of a section segment endpoint."""

    exit_code = 5


class BracketFailure(SolverError):
    """No sign change of the miss function within the allowed launch-speed band."""

    exit_code = 2


class NonConvergence(SolverError):
    """The launch-speed root-finder stopped without meeting the miss tolerance."""

    exit_code = 3


class HypothesisViolation(SolverError):
    """Segment endpoints do not satisfy the on-axis / orthogonal-velocity conditions."""


class PointOnCurve(SolverError):
    """Winding number query point lies (numerically) on the curve."""


class NoBoundedMotion(SolverError):
    """No bounded radial oscillation: none on the (E, K) level set, or none
    near the circular orbit, where 3U' + rU'' <= 0 (`apsidal_limit`)."""

    exit_code = 5


class BoundaryHypothesisFailure(SolverError):
    """A sigma boundary row of the miss-sign scan holds a 0 or two signs, or
    both rows hold the same sign: the scan brackets no zero set."""

    exit_code = 5
