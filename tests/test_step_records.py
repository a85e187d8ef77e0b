"""The control step's records and the values it reads.

The step builds its records with ``tuple.__new__``, which skips a
NamedTuple's arity check, so every record it builds is held here to its
type's shape.  A second test keeps Enum members from being read as class
attributes on the step: each such read goes through
``EnumType.__getattr__``.
"""

import dis
import math

import pytest

from brakesteer import controller, dynamics
from brakesteer.controller import (
    ControllerConfig,
    ControllerState,
    HybridState,
    Phase,
    _approach_step,
    _track_step,
    phase_switch,
    select_maneuver,
)
from brakesteer.dynamics import (
    Maneuver, UserInput, VehicleParams, VehicleState, step_dynamic, step_kinematic,
)
from brakesteer.path_geometry import FrenetState
from brakesteer.simulator import TraceRow, build_demo_scenario, run

TRACK_CFG = ControllerConfig(radius=1.0, threshold_l=1e9)  # never falls back
APPROACH_CFG = ControllerConfig(radius=1.0, threshold_l=1e-4)  # hands over only at 0
TURNING, STRAIGHT, CONTROLLED = HybridState.TURNING, HybridState.STRAIGHT, HybridState.CONTROLLED
GO, RIGHT, LEFT = Maneuver.GO_STRAIGHT, Maneuver.TURN_RIGHT, Maneuver.TURN_LEFT


def assert_well_formed(record, cls):
    assert type(record) is cls
    assert len(record) == len(cls._fields)
    assert record == cls(*record)


def on_sigma_l(th):
    return 1.0 - math.cos(th)


def on_sigma_r(th):
    return math.cos(th) - 1.0


# name: (l~, th~, prior state, the (maneuver, hybrid state) that marks the branch)
TRACK_BRANCHES = {
    "origin_band": (0.0, 0.0, ControllerState(Phase.TRACK), (GO, STRAIGHT)),
    "ride_sigma_l": (on_sigma_l(-0.9), -0.9, ControllerState(Phase.TRACK), (LEFT, CONTROLLED)),
    "ride_sigma_r": (on_sigma_r(0.9), 0.9, ControllerState(Phase.TRACK), (RIGHT, CONTROLLED)),
    "relay_right": (0.5, 0.5, ControllerState(Phase.TRACK), (RIGHT, TURNING)),
    "relay_left": (0.5, -1.2, ControllerState(Phase.TRACK), (LEFT, TURNING)),
    "relay_straight": (
        0.5, TRACK_CFG.delta_profile.value(0.5), ControllerState(Phase.TRACK), (GO, STRAIGHT)
    ),
    "relay_latched": (
        0.5, 0.5, ControllerState(Phase.TRACK, TURNING, 1, 0.3), (LEFT, TURNING)
    ),
}
RIDING_LEFT = ControllerState(Phase.APPROACH, CONTROLLED, 0, 0.0, 0.05, 1)
APPROACH_BRANCHES = {
    "origin_band": (5e-4, 0.0, ControllerState(), (GO, STRAIGHT)),
    "ride_ends": (0.05, 0.0, RIDING_LEFT, (GO, STRAIGHT)),
    "ride_goes_on": (on_sigma_l(-0.5) + 0.05, -0.5, RIDING_LEFT, (LEFT, CONTROLLED)),
    "fresh_on_sigma_r": (on_sigma_r(0.9), 0.9, ControllerState(), (RIGHT, CONTROLLED)),
    "crossing": (
        on_sigma_l(-0.9) - 0.01, -0.9, ControllerState(Phase.APPROACH, STRAIGHT, 0, 0.0, 0.01, 1),
        (LEFT, CONTROLLED),
    ),
    "relay": (3.0, 0.0, ControllerState(), (RIGHT, TURNING)),
}


@pytest.mark.parametrize(
    "step, cfg, case",
    [(_track_step, TRACK_CFG, case) for case in TRACK_BRANCHES.values()]
    + [(_approach_step, APPROACH_CFG, case) for case in APPROACH_BRANCHES.values()],
    ids=[f"track-{name}" for name in TRACK_BRANCHES]
    + [f"approach-{name}" for name in APPROACH_BRANCHES],
)
def test_every_phase_step_branch_builds_a_well_formed_state(step, cfg, case):
    l_norm, th, prior, branch = case
    command, state = step(l_norm, th, prior, cfg)
    assert (command, state.hybrid_state) == branch
    assert_well_formed(state, ControllerState)
    # The same branch through select_maneuver (radius 1: l is l~).
    command, state = select_maneuver(FrenetState(0.0, l_norm, th), prior, cfg)
    assert (command, state.hybrid_state) == branch
    assert_well_formed(state, ControllerState)


def test_both_phase_switches_start_from_a_well_formed_fresh_state():
    cfg = ControllerConfig(radius=1.0, threshold_l=1.0, re_approach_factor=2.0)
    latched = ControllerState(Phase.TRACK, TURNING, 1, 0.5, 0.1, 1)
    to_approach = phase_switch(FrenetState(0.0, 2.5, 0.0), latched, cfg)
    latched = latched._replace(phase=Phase.APPROACH)
    to_track = phase_switch(FrenetState(0.0, 0.5, 0.0), latched, cfg)
    for state, phase in ((to_track, Phase.TRACK), (to_approach, Phase.APPROACH)):
        assert_well_formed(state, ControllerState)
        assert state == ControllerState(phase)


def test_projection_builds_well_formed_frenet_states():
    path = build_demo_scenario().build_path()
    kinds = set()
    for s in (5.0, 16.5, 19.0, 21.5, 30.0):  # line, clothoid, arc, clothoid, line
        x, y, th = path.pose_at(s)
        for pose in ((x, y + 0.2, th + 0.3), (x + 0.1, y - 0.3, th - 2.0)):
            for hint in (None, s):
                fren = path.frenet_project(pose, hint_s=hint, radius=0.3)
                assert_well_formed(fren, FrenetState)
        kinds.add(path._locate(s)[0].kind)
    assert kinds == {"line", "clothoid", "arc"}


@pytest.mark.parametrize("action", list(Maneuver), ids=lambda a: a.label)
def test_stepping_builds_well_formed_vehicle_states(action):
    params = VehicleParams()
    state = VehicleState.from_body_rates(1.0, 2.0, 0.3, 1.0, 0.0, params)
    assert_well_formed(step_kinematic(state, action, 1.0, 0.01, params), VehicleState)
    for brake_model in ("instant", "viscous"):
        stepped = step_dynamic(state, action, UserInput(0.1, 0.1), 0.001, params,
                               brake_model, 10)
        assert_well_formed(stepped, VehicleState)


def test_every_demo_trace_row_is_well_formed():
    rows = run(build_demo_scenario()).rows
    assert len(rows) == 3675
    for row in rows:
        assert_well_formed(row, TraceRow)


# The functions every control step calls, with the enum classes whose
# members they must read from module constants instead.
STEP_FUNCTIONS = (
    controller.select_maneuver,
    controller.phase_switch,
    controller._phase_switch,
    controller._heading_half,
    controller._off_curve,
    controller._offset_half,
    controller._approach_partition,
    controller._relay,
    controller._track_step,
    controller._approach_step,
    dynamics.step_kinematic,
    dynamics.step_dynamic,
    dynamics.Maneuver.wheel_settings,
)
ENUM_CLASSES = {"Phase", "HybridState", "Maneuver", "Region"}


def globals_loaded(code):
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            names |= globals_loaded(const)
    return names


@pytest.mark.parametrize("function", STEP_FUNCTIONS, ids=lambda f: f.__qualname__)
def test_step_reads_no_enum_class_as_a_global(function):
    assert globals_loaded(function.__code__) & ENUM_CLASSES == set()
