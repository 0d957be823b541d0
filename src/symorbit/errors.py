"""Exception hierarchy shared by all solver modules."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class DomainExit(SolverError):
    """The integrated orbit left the annulus on which the field is defined.

    Carries the exit time, the state at exit, and the partial trajectory
    accumulated up to that point (may be None for point evaluations).
    """

    def __init__(self, message, t_exit=None, state=None, trajectory=None):
        super().__init__(message)
        self.t_exit = t_exit
        self.state = state
        self.trajectory = trajectory


class StepFailure(SolverError):
    """Adaptive step size underflowed; the problem is unresolvable at this tolerance."""


class SymmetryViolation(SolverError):
    """A declared reflection symmetry does not hold numerically."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class NoCrossing(SolverError):
    """No transversal section crossing found inside the time window."""


class TangentialCrossing(SolverError):
    """Crossing found, but the transverse velocity component is below the floor."""

    def __init__(self, message, t_star=None, normal_speed=None):
        super().__init__(message)
        self.t_star = t_star
        self.normal_speed = normal_speed


class BoundaryCrossing(SolverError):
    """Crossing landed within tolerance of a section segment endpoint."""

    def __init__(self, message, t_star=None, point=None):
        super().__init__(message)
        self.t_star = t_star
        self.point = point


class BracketFailure(SolverError):
    """No sign change of the miss function within the allowed launch-speed band."""

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class NonConvergence(SolverError):
    """The launch-speed root-finder stopped without meeting the miss tolerance."""


class HypothesisViolation(SolverError):
    """Segment endpoints do not satisfy the on-axis / orthogonal-velocity conditions."""


class PointOnCurve(SolverError):
    """Winding number query point lies (numerically) on the curve."""


class NoBoundedMotion(SolverError):
    """The (E, K) level set admits no bounded radial oscillation."""


class DegenerateLimit(SolverError):
    """Closed-form apsidal-angle limit undefined (denominator not positive)."""


class BoundaryHypothesisFailure(SolverError):
    """A boundary column of the miss-sign scan does not carry a uniform sign."""
