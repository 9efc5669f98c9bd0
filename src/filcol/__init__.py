"""Coaxial circular vortex filament pairs under localized induction.

Classifies, times, and verifies the motion of two coaxial circular vortex
filaments with opposite-signed circulations: head-on and asymmetric
collisions below a critical circulation ratio, pass-through above it, plus
exact collision-time formulas, comparison-principle upper bounds,
an a-priori supercritical corridor, a no-collision certificate for
conserved-quantity levels away from the collision manifold, and an
adaptive integrator, stopped by rules checked at its accepted points,
that serves as the independent oracle for all of it.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    CollisionTimeEstimate,
    EstimateKind,
    FormulaTag,
    LinearCorridor,
    MotionClass,
    NoCollisionCertificate,
    Verdict,
    apriori_corridor,
    classify,
    collision_time,
    gamma_star,
    no_collision_certificate,
    theta_star,
)
from .dynamics import (
    Derivative,
    FullState,
    HyperbolicState,
    Params,
    ReducedState,
    ansatz_residual,
    conserved_d,
    full_field,
    hyperbolic_energy,
    hyperbolic_field,
    hyperbolic_radii,
    hyperbolic_separation,
    reduce_state,
    reduced_energy,
    reduced_field,
)
from .errors import (
    ConfigInvalid,
    Divergent,
    DomainError,
    FilcolError,
    InvalidInitialState,
    InversionFailure,
    NumericalError,
    NumericalFailure,
    OnSingularLine,
    RegimeError,
    SeparationZero,
    StepLimitExceeded,
    ValidationError,
)
from .integrate import (
    CollisionResult,
    IntegrationConfig,
    IntegrationStats,
    Outcome,
    SimStatus,
    SystemKind,
    Trajectory,
    integrate,
    simulate_until_collision,
)
from .verify import run_battery

__version__ = "0.1.0"

# The public names are exactly the ones imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
