"""Symmetric periodic orbits of perturbed planar power-law problems by shooting."""

from .analysis import (
    RadialProblem,
    angular_momentum,
    apsidal_angle,
    apsidal_limit,
    apsides,
    energy,
    radial_accel_at_launch,
    radial_problem_from_launch,
)
from .continuation import ContinuationCurve, CurveEntry, ScanResult, solve_orbit, sweep, write_curves_csv, zero_set_scan
from .errors import (
    BoundaryCrossing,
    BoundaryHypothesisFailure,
    BracketFailure,
    DegenerateLimit,
    DomainExit,
    HypothesisViolation,
    NoBoundedMotion,
    NoCrossing,
    NonConvergence,
    PointOnCurve,
    SolverError,
    StepFailure,
    SymmetryViolation,
    TangentialCrossing,
)
from .forcefield import (
    ForceField,
    PerturbationSpec,
    PowerLawParams,
    Reflection,
    axis_poly_perturbation,
    check_symmetry,
    circular_speed,
    potential,
    potential_derivatives,
    radial_power_perturbation,
    zero_perturbation,
)
from .integrator import State, Trajectory, flow
from .orbit import (
    PeriodicOrbit,
    axis_crossings,
    extend_half,
    extend_quarter,
    is_simple_closed,
    validate_orbit,
    verify_closure,
    winding_number,
)
from .section import SectionSpec, crossing_time
from .shooting import (
    Bracket,
    MissValue,
    Mode,
    ShootingProblem,
    ShootingSolution,
    bracket,
    crossing_time_deviation,
    miss,
    sign_table,
    solve,
)

__version__ = "0.1.0"
