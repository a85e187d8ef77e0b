"""Brake-steered path following for a walker-assist cart.

Steering comes only from two rear-wheel brakes that are either released or
fully engaged, giving four commands: go straight, turn right, turn left,
stop.  Far from the planned path the controller approaches at a fixed
angle; near it, it regulates the heading error onto a state-dependent
manifold and converges to the path.  The package bundles the path
geometry, the vehicle model, the hybrid controller, a deterministic
scenario simulator and post-run analysis tools, plus a CLI.
"""

from .analysis import (
    EmptyTrace,
    FieldSample,
    GridSpec,
    RunSummary,
    field_dump,
    lyapunov,
    ripple_bound,
    summarize,
)
from .controller import (
    ControllerConfig,
    ControllerState,
    DeltaProfile,
    HybridState,
    Phase,
    Region,
    classify,
    curvature_feasible,
    phase_switch,
    select_maneuver,
    sigma_l,
    sigma_n,
    sigma_p,
    sigma_r,
)
from .dynamics import (
    Maneuver,
    NonPositiveDt,
    UserInput,
    VehicleParams,
    VehicleState,
    step_dynamic,
    step_kinematic,
    wheel_rates,
)
from .path_geometry import (
    AmbiguousProjection,
    ContinuityError,
    EmptyPath,
    FrenetState,
    OutOfRange,
    Path,
    PathError,
    PathSegment,
    SingularProjection,
    build_path,
    wrap_angle,
)
from .simulator import (
    Scenario,
    ScenarioInvalid,
    SweepResult,
    Trace,
    TraceRow,
    build_demo_scenario,
    frenet_grid,
    run,
    sweep,
)

__version__ = "0.1.0"
