import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brakesteer.analysis import summarize
from brakesteer.cli import main
from brakesteer.controller import ControllerConfig
from brakesteer.simulator import (
    MAX_PHYSICS_STEPS,
    Scenario,
    ScenarioInvalid,
    Trace,
    TraceRow,
    apply_overrides,
    build_demo_scenario,
    frenet_grid,
    run,
    sweep,
)

STRAIGHT = {
    "path": {"start_pose": [0, 0, 0], "segments": [{"kind": "line", "length": 120}]},
    "initial_frenet": {"s": 5.0, "l_norm": 0.0, "theta_tilde": 0.0},
    "user": {"v": 1.0},
    "controller": {"threshold_l": 1e9},
    "dt_control": 0.01,
    "t_max": 20.0,
    "mode": "kinematic",
    "seed": 0,
}


def scenario(**patch):
    data = json.loads(json.dumps(STRAIGHT))
    for key, value in patch.items():
        data[key] = value
    return Scenario.from_dict(data)


def test_equilibrium_run_stays_on_path():
    tr = run(scenario())
    assert all(r.maneuver == "go_straight" for r in tr.rows[:-1])
    assert all(abs(r.l) < 1e-12 and abs(r.theta_tilde) < 1e-12 for r in tr.rows)
    assert summarize(tr).switch_count <= 1  # final path-end stop row


def test_trace_time_grid_and_continuity():
    tr = run(scenario())
    ts = [r.t for r in tr.rows]
    assert all(b - a == pytest.approx(0.01) for a, b in zip(ts, ts[1:]))
    for a, b in zip(tr.rows, tr.rows[1:]):
        step = math.hypot(b.x - a.x, b.y - a.y)
        assert step <= 1.0 * 0.01 + 1e-9


def test_run_is_deterministic_bytewise():
    sc = scenario()
    sc_noise = sc.with_overrides({"user.noise_amplitude": 0.05, "initial_frenet.l_norm": 1.0})
    a = run(sc_noise).to_csv()
    b = run(Scenario.from_dict(sc_noise.to_dict())).to_csv()
    assert a == b
    c = run(sc_noise.with_overrides({"seed": 1})).to_csv()
    assert a != c


@pytest.mark.parametrize(
    "overrides, digest",
    [
        ({"user.noise_amplitude": 0.05},
         "8997cfc4aa4c007b0447ac89d4deebbe72be7f12a8561e5fd31b461c7560e889"),
        ({"mode": "dynamic", "brake_model": "viscous", "user.tau_r": 0.12,
          "user.tau_l": 0.12, "user.noise_amplitude": 0.05},
         "acd3f90bf12f4e1941a661dd0a4ace8e79ba841f3fe61d04bd54fff6acf36b4d"),
    ],
    ids=["kinematic", "dynamic-viscous"],
)
def test_noisy_demo_trace_bytes_are_pinned(overrides, digest):
    # A run compared with itself cannot see its noise draws change; these
    # digests of trace.csv can.
    csv = run(build_demo_scenario().with_overrides(overrides)).to_csv()
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "brake_model, digest",
    [("instant", "7cae37682a88d4f330275a81f652cfbebb111a9a9fe271257b647cb554b7222b"),
     ("viscous", "8f6da23f555963321b1793ec95defb05f8450411016a847820e9603caabf5133")],
)
def test_dynamic_demo_trace_bytes_are_pinned(brake_model, digest):
    # run hands step_dynamic a whole control step of substeps; these digests
    # hold the noise-free trace to the bits of one call per substep.
    overrides = {"mode": "dynamic", "brake_model": brake_model,
                 "user.tau_r": 0.12, "user.tau_l": 0.12}
    csv = run(build_demo_scenario().with_overrides(overrides)).to_csv()
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
LABEL = st.sampled_from(("go_straight", "turn_right", "turn_left", "stop", "tracking"))


@given(st.lists(st.tuples(*[ANY_FLOAT] * 9, LABEL, LABEL, LABEL, ANY_FLOAT), max_size=5))
def test_trace_csv_formats_each_row_as_the_field_by_field_f_string(rows):
    # to_csv formats a row with one %-format; this is the f-string it replaced.
    want = ["t,x,y,theta,v,omega,s,l,theta_tilde,maneuver,hybrid_state,phase,V"] + [
        f"{r[0]:.9g},{r[1]:.9g},{r[2]:.9g},{r[3]:.9g},{r[4]:.9g},{r[5]:.9g},"
        f"{r[6]:.9g},{r[7]:.9g},{r[8]:.9g},{r[9]},{r[10]},{r[11]},{r[12]:.9g}"
        for r in rows
    ]
    trace = Trace(rows=tuple(TraceRow(*r) for r in rows), meta={})
    assert trace.to_csv() == "\n".join(want) + "\n"


def test_run_terminates_at_path_end():
    tr = run(scenario(t_max=500.0))
    assert tr.rows[-1].maneuver == "stop"
    assert tr.rows[-1].hybrid_state == "stopped"
    assert tr.rows[-1].s >= 120 - 0.05
    assert tr.rows[-1].t < 130


# Tight half-circle with the start pose at its center of curvature.
SINGULAR_START = {
    "path": {"start_pose": [0, 0, 0],
             "segments": [{"kind": "arc", "length": math.pi, "curvature": 1.0}]},
    "initial_pose": [0.0, 1.0, 0.0],
    "user": {"v": 1.0},
    "t_max": 5.0,
    "dt_control": 0.01,
}


def test_singular_projection_logs_stop():
    tr = run(Scenario.from_dict(SINGULAR_START))
    assert len(tr.rows) == 1
    assert tr.rows[0].maneuver == "stop"


def test_validation_rejects_bad_scenarios():
    with pytest.raises(ScenarioInvalid):
        run(scenario(t_max=0.0))
    with pytest.raises(ScenarioInvalid):
        run(scenario(dt_control=0.5))  # one step would turn > 0.5 rad
    with pytest.raises(ScenarioInvalid):
        run(scenario(user={"v": -1.0}))
    with pytest.raises(ScenarioInvalid):
        run(scenario(mode="dynamic", dt_physics=0.3))
    with pytest.raises(ScenarioInvalid):
        run(Scenario.from_dict({**json.loads(json.dumps(STRAIGHT)),
                                "initial_pose": [0, 0, 0]}))  # both initial conditions


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"brake_model": "bogus"}, "unknown brake model"),
        ({"brake_model": "bogus", "mode": "dynamic"}, "unknown brake model"),
        ({"t_max": NAN}, "t_max"),
        ({"t_max": INF}, "t_max"),
        ({"t_max": 1e308}, "t_max / dt_control"),
        ({"dt_control": NAN}, "dt_control"),
        ({"dt_control": INF, "mode": "dynamic"}, "dt_control"),
        ({"dt_physics": NAN, "mode": "dynamic"}, "dt_physics"),
        ({"dt_physics": 5e-324, "mode": "dynamic"}, "dt_physics"),
        ({"user.v": NAN}, "v_user"),
        ({"user.noise_amplitude": NAN}, "noise_amplitude"),
        ({"converged_hold": NAN}, "converged_hold"),
        ({"user.tau_r": NAN, "mode": "dynamic"}, "torques"),
        ({"initial_pose": [NAN, 5.0, 0.0]}, "initial condition"),
        ({"dt_physics": 0.003, "mode": "dynamic"}, "multiple of dt_physics"),
    ],
)
def test_validation_rejects_nonfinite_and_unknown_values(overrides, reason):
    sc = build_demo_scenario().with_overrides(overrides)
    errors = [msg for level, msg in sc.validate() if level == "error"]
    assert any(reason in msg for msg in errors)
    with pytest.raises(ScenarioInvalid, match=reason):
        run(sc)


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": "dynamic", "dt_physics": 1e-300},  # ~1e298 substeps per control step
        {"dt_control": 1e-300},
        {"t_max": 1e300},
        {"mode": "dynamic", "dt_physics": 5e-324},  # dt_control / dt_physics overflows
    ],
)
def test_validation_rejects_unfinishable_step_counts(overrides):
    sc = build_demo_scenario().with_overrides(overrides)
    errors = [msg for level, msg in sc.validate() if level == "error"]
    assert any("physics steps" in msg for msg in errors)
    with pytest.raises(ScenarioInvalid, match="physics steps"):
        run(sc)


def test_step_bound_admits_a_run_at_the_limit():
    # 1e7 kinematic control steps validate; one more step's worth does not.
    sc = build_demo_scenario()
    at_limit = sc.with_overrides({"t_max": MAX_PHYSICS_STEPS * sc.dt_control})
    assert not [msg for level, msg in at_limit.validate() if level == "error"]
    over = sc.with_overrides({"t_max": (MAX_PHYSICS_STEPS + 1) * sc.dt_control})
    assert any("physics steps" in msg for level, msg in over.validate() if level == "error")


# OverflowError in the projection's squared distance
NONFINITE_PROJECTION = {"mode": "dynamic", "user.tau_r": 1e300, "user.tau_l": 1e300, "t_max": 2}
# ValueError (math domain error) from cos in the RK4 step
NONFINITE_STEP = {"mode": "dynamic", "user.tau_r": 1e308, "user.tau_l": 1e308, "t_max": 2}
# OverflowError in the first, global projection
NONFINITE_START = {"initial_pose": [1e300, 0, 0]}
# Unequal torques near the float range: the pin of this stop dates from
# before free rolling got a loop of its own
OVERFLOWING_TORQUES = {"mode": "dynamic", "user.tau_r": 1e200, "user.tau_l": 1e200 * 0.9}
# The projection's one overflow verdict, the same text on every platform
TOO_FAR = "nonfinite_state: projection raised OverflowError: pose too far from the path to project"


@pytest.mark.parametrize(
    "overrides",
    [
        NONFINITE_PROJECTION,
        NONFINITE_STEP,
        NONFINITE_START,
        # Finite poses so far from the path that x - px (or y - py) is inf.
        {"path.start_pose": [-1.7e308, 0, 0], "initial_pose": [1.7e308, 0, 0]},
        {"path.start_pose": [0, -1.5e308, 0], "initial_pose": [0, 1.5e308, 0]},
    ],
)
def test_run_ends_a_nonfinite_state_with_a_finite_stop_row(overrides):
    sc = build_demo_scenario().with_overrides(overrides)
    assert sc.validate() == []
    tr = run(sc)
    if overrides == NONFINITE_STEP:
        assert tr.meta["stop_reason"].startswith("nonfinite_state: step raised ValueError: ")
    else:
        assert tr.meta["stop_reason"] == TOO_FAR
    last = tr.rows[-1]
    assert last.maneuver == "stop" and last.hybrid_state == "stopped"
    assert all(math.isfinite(v) for v in last if isinstance(v, float))
    assert not summarize(tr).converged
    (result,) = sweep(build_demo_scenario(), [overrides])
    assert result.error == tr.meta["stop_reason"]
    assert not result.summary.converged


@pytest.mark.parametrize(
    "sc, reason, digest",
    [
        (build_demo_scenario().with_overrides(NONFINITE_PROJECTION), TOO_FAR,
         "d4b5ace7ee3d3dc4494aa0745560bc6f3d59987b47ae0b47700afa6f91bef58d"),
        (build_demo_scenario().with_overrides(NONFINITE_STEP),
         "nonfinite_state: step raised ValueError: math domain error",
         "d4b5ace7ee3d3dc4494aa0745560bc6f3d59987b47ae0b47700afa6f91bef58d"),
        (build_demo_scenario().with_overrides(NONFINITE_START), TOO_FAR,
         "0801a925701e2d607ac92557f1dadf5c99a150371bba4b218b532042ddeab7b8"),
        (Scenario.from_dict(SINGULAR_START),
         "projection lost: pose at or beyond center of curvature"
         " (s=0, c=1, l=1)",
         "1da13364fa1885401668e4b6c30079ffbde9a0a60642e3ac536bf384f27164e6"),
        (build_demo_scenario().with_overrides({"t_max": 1.0}), "t_max",
         "65c5e208d52b386fdd896c246f68622e2a94e2a7ff68bbc8586bad93369770b0"),
        (build_demo_scenario().with_overrides({"stop_when_converged": True}), "converged",
         "cd168600f6b369f392291dff5027198e0a74d8652cbbc81fbd57a8d3b07e1968"),
        (build_demo_scenario().with_overrides(OVERFLOWING_TORQUES), TOO_FAR,
         "d4b5ace7ee3d3dc4494aa0745560bc6f3d59987b47ae0b47700afa6f91bef58d"),
        (build_demo_scenario().with_overrides({**OVERFLOWING_TORQUES, "brake_model": "viscous"}),
         TOO_FAR, "d4b5ace7ee3d3dc4494aa0745560bc6f3d59987b47ae0b47700afa6f91bef58d"),
    ],
    ids=["nonfinite-projection", "nonfinite-step", "nonfinite-start", "singular-start",
         "t_max", "converged", "overflowing-torques-instant", "overflowing-torques-viscous"],
)
def test_stop_rows_are_pinned(sc, reason, digest):
    # Each way a run stops, held to the bytes of trace.csv from before its
    # exits shared one Stop-row path.
    tr = run(sc)
    assert tr.meta["stop_reason"] == reason
    assert hashlib.sha256(tr.to_csv().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "key", ["controller.eps_theta", "controller.eps_b", "controller.threshold_l", "vehicle.b_w"]
)
def test_nan_tuning_rejected_at_construction(key):
    with pytest.raises(ValueError):
        build_demo_scenario().with_overrides({key: NAN})


@pytest.mark.parametrize(
    "profile",
    [
        {"kind": "tanh", "amplitude": 1.5, "gain": NAN},
        {"kind": "tanh", "amplitude": 1.5, "gain": INF},
        {"kind": "custom", "table_l": [0.0, 1.0, INF], "table_delta": [0.0, 0.5, 0.6]},
        {"kind": "custom", "table_l": [0.0, 1.0, 2.0], "table_delta": [0.0, NAN, 0.6]},
    ],
)
def test_from_dict_rejects_a_nonfinite_delta_profile(profile):
    # Such a profile makes every manifold error NaN, and the relay then goes
    # straight until the path ends.
    data = build_demo_scenario().to_dict()
    data["controller"]["delta_profile"] = profile
    with pytest.raises(ValueError, match="finite"):
        Scenario.from_dict(data)


def test_validate_flags_excess_curvature():
    sc = scenario(path={"start_pose": [0, 0, 0], "segments": [
        {"kind": "line", "length": 5},
        {"kind": "arc", "length": 1, "curvature": 2.0 / 0.3},
    ]})
    issues = sc.validate()
    assert any(level == "curvature" for level, _ in issues)
    with pytest.warns(UserWarning, match="cannot hold"):
        run(sc.with_overrides({"t_max": 1.0}))  # warning only: still runs


def count_builds(monkeypatch):
    """Forget the last path built and count the paths built from now on."""
    import brakesteer.simulator as simulator

    build_path = simulator.build_path
    built = []

    def counting_build_path(*args, **kwargs):
        built.append(args)
        return build_path(*args, **kwargs)

    monkeypatch.setattr(simulator, "_last_path", (None, None))
    monkeypatch.setattr(simulator, "build_path", counting_build_path)
    return built


def test_run_builds_the_path_once(monkeypatch):
    built = count_builds(monkeypatch)
    run(scenario(t_max=0.1))
    assert len(built) == 1


def test_a_sweep_builds_its_path_once(monkeypatch):
    built = count_builds(monkeypatch)
    results = sweep(scenario(t_max=0.1), frenet_grid([-1.0, 0.0, 1.0], [-0.5, 0.0, 0.5]))
    assert len(results) == 9 and all(r.summary is not None for r in results)
    assert len(built) == 1


def test_a_path_spec_that_differs_gets_its_own_build(monkeypatch):
    built = count_builds(monkeypatch)
    base = scenario()
    first = base.build_path()
    assert base.build_path() is first and len(built) == 1
    longer = base.with_overrides({"path.segments": [{"kind": "line", "length": 121}]})
    assert longer.build_path().total_length == 121.0 and len(built) == 2
    # -0.0 == 0.0, but the two start headings are different inputs.
    zero = base.with_overrides({"path.start_pose": [0.0, 0.0, 0.0]})
    negative = base.with_overrides({"path.start_pose": [0.0, 0.0, -0.0]})
    for sc, sign in ((zero, 1.0), (negative, -1.0), (zero, 1.0)):
        assert math.copysign(1.0, sc.build_path().segments[0].start_pose[2]) == sign
    assert len(built) == 5
    base.path_spec["segments"][0]["length"] = 80  # mutated after a build
    assert base.build_path().total_length == 80.0 and len(built) == 6


def test_a_failed_or_unkeyed_build_is_not_remembered(monkeypatch):
    built = count_builds(monkeypatch)
    good = scenario()
    path = good.build_path()
    bad = good.with_overrides({"path.start_pose": [0, 0, math.nan]})
    for _ in range(2):
        with pytest.raises(ValueError, match="start_pose must be finite"):
            bad.build_path()
    assert len(built) == 3
    assert good.build_path() is path and len(built) == 3
    # A spec that JSON cannot encode is built every time, and leaves the
    # remembered path in place.
    unkeyed = scenario()
    unkeyed.path_spec["segments"][0]["length"] = np.float32(120.0)
    assert unkeyed.build_path() is not unkeyed.build_path() and len(built) == 5
    assert good.build_path() is path and len(built) == 5


def test_run_takes_the_path_its_validation_built(monkeypatch):
    # run validates (which builds the path) and then reads the remembered
    # Path, for a pose start and under a curvature warning alike.
    demo = build_demo_scenario().with_overrides({"t_max": 0.5})
    tight = demo.with_overrides({"path.segments.2.curvature": -4.0})
    for sc, n_warnings in ((demo, 0), (tight, 1)):
        built = count_builds(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(sc)
        assert (len(built), len(caught)) == (1, n_warnings)


def hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    return value


def test_a_sweep_matches_runs_that_each_build_their_path(monkeypatch):
    import brakesteer.simulator as simulator

    base = build_demo_scenario().with_overrides({"t_max": 3.0, "initial_pose": None})
    grid = frenet_grid([-2.0, 0.0, 2.0], [-1.0, 1.0], s0=2.0)
    grid += [dict(ov, **{"path.start_pose": [0.5, -0.5, 0.1]}) for ov in grid[:2]]
    swept = sweep(base, grid)
    warm = [run(base.with_overrides(ov)) for ov in grid]
    cold = []
    for ov in grid:
        monkeypatch.setattr(simulator, "_last_path", (None, None))
        cold.append(run(base.with_overrides(ov)))
    assert [hexed(r.summary.as_dict()) for r in swept] == [
        hexed(summarize(tr).as_dict()) for tr in cold
    ]
    assert [hexed(tr.rows) for tr in warm] == [hexed(tr.rows) for tr in cold]


def test_initial_frenet_placement():
    sc = scenario()
    sc = sc.with_overrides({"initial_frenet.l_norm": 2.0, "initial_frenet.theta_tilde": 0.5})
    tr = run(sc)
    first = tr.rows[0]
    assert first.l == pytest.approx(2.0 * 0.3)
    assert first.theta_tilde == pytest.approx(0.5)
    assert first.s == pytest.approx(5.0, abs=1e-6)


def test_dynamic_mode_runs_and_converges_near_path():
    data = json.loads(json.dumps(STRAIGHT))
    data["mode"] = "dynamic"
    data["dt_physics"] = 0.001
    data["t_max"] = 8.0
    data["user"] = {"tau_r": 0.12, "tau_l": 0.12}
    data["initial_frenet"] = {"s": 5.0, "l_norm": 1.0, "theta_tilde": 0.0}
    tr = run(Scenario.from_dict(data))
    assert len(tr.rows) > 100
    assert abs(tr.rows[-1].l) < abs(tr.rows[0].l)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        sweep(scenario(), [])


def test_sweep_isolates_per_run_errors():
    base = scenario(t_max=6.0, stop_when_converged=True)
    grid = [
        {"initial_frenet": {"s": 5.0, "l_norm": 0.5, "theta_tilde": 0.0}},
        {"t_max": -1.0},
    ]
    results = sweep(base, grid)
    assert results[0].summary is not None and results[0].summary.converged
    assert results[1].summary is None and "t_max" in results[1].error


def test_sweep_flags_singular_start_as_error():
    data = {
        "path": {"start_pose": [0, 0, 0],
                 "segments": [{"kind": "arc", "length": math.pi, "curvature": 1.0}]},
        "initial_frenet": {"s": 1.0, "l_norm": 0.0, "theta_tilde": 0.0},
        "user": {"v": 1.0},
        "t_max": 2.0,
        "dt_control": 0.01,
        "stop_when_converged": True,
    }
    base = Scenario.from_dict(data)
    grid = [
        {"initial_frenet": {"s": 1.0, "l_norm": 0.0, "theta_tilde": 0.0}},
        {"initial_frenet": {"s": 1.0, "l_norm": 1.0 / 0.3, "theta_tilde": 0.0}},  # at center
    ]
    results = sweep(base, grid)
    assert results[0].error is None and results[0].summary.converged
    assert results[1].error is not None and "projection" in results[1].error
    assert results[1].summary is not None and not results[1].summary.converged


def test_sweep_deterministic_order_and_parallel_equivalence():
    base = scenario(t_max=10.0, stop_when_converged=True)
    grid = frenet_grid([-1.0, 1.0], [0.0, 1.0], s0=5.0)
    serial = sweep(base, grid, parallel=1)
    parallel = sweep(base, grid, parallel=2)
    assert [r.overrides for r in serial] == [dict(g) for g in grid]
    assert serial == parallel


def test_stop_reason_t_max():
    tr = run(build_demo_scenario().with_overrides({"t_max": 1.0}))
    assert len(tr.rows) == 101
    assert tr.meta["stop_reason"] == "t_max"


def test_stop_reason_converged():
    tr = run(build_demo_scenario().with_overrides({"stop_when_converged": True}))
    assert tr.rows[-1].maneuver != "stop"  # left before the path's end
    assert tr.meta["stop_reason"] == "converged"


def test_sweep_reports_no_error_for_a_converged_or_timed_out_run():
    base = scenario(t_max=6.0, stop_when_converged=True)
    grid = [
        {"initial_frenet": {"s": 5.0, "l_norm": 0.5, "theta_tilde": 0.0}},
        {"initial_frenet": {"s": 5.0, "l_norm": 3.0, "theta_tilde": 0.0}, "t_max": 0.5},
    ]
    converged, timed_out = sweep(base, grid)
    assert converged.summary.converged and converged.error is None
    assert not timed_out.summary.converged and timed_out.error is None


def test_apply_overrides_parses_scalars():
    data = {"a": {"b": 1}}
    apply_overrides(data, {"a.b": "2.5", "c": "true", "name": "hello"})
    assert data == {"a": {"b": 2.5}, "c": True, "name": "hello"}


def test_apply_overrides_indexes_a_list():
    # A list used to die with AttributeError: no setdefault.
    data = {"path": {"segments": [{"length": 1}, {"length": 2}]}}
    apply_overrides(data, {"path.segments.1.length": "5", "path.segments.0.kind": "arc"})
    assert data == {"path": {"segments": [{"length": 1, "kind": "arc"}, {"length": 5}]}}
    sc = build_demo_scenario().with_overrides({"path.segments.0.length": 5})
    assert sc.path_spec["segments"][0]["length"] == 5
    assert sc.validate() == []


@pytest.mark.parametrize("key, message", [
    ("path.segments.9.length", "override path.segments.9.length: no item '9' in a list of 5"),
    ("path.segments.-1.length", "override path.segments.-1.length: no item '-1' in a list of 5"),
    ("path.segments.x.length", "override path.segments.x.length: no item 'x' in a list of 5"),
    ("path.segments.0.length.x",
     "override path.segments.0.length.x: path.segments.0.length is 15.0, "
     "not a mapping or a list"),
    ("t_max.foo", "override t_max.foo: t_max is 60.0, not a mapping or a list"),
])
def test_apply_overrides_names_a_key_it_cannot_follow(key, message):
    with pytest.raises(ValueError) as exc:
        build_demo_scenario().with_overrides({key: 1})
    assert str(exc.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("gain", None, "controller.delta_profile.gain must be a number, got None"),
    ("amplitude", [1.0], "controller.delta_profile.amplitude must be a number, got [1.0]"),
    ("delta0", None, "controller.delta_profile.delta0 must be a number, got None"),
    ("foo", 1, "unknown key controller.delta_profile.foo"),
    ("table_l", 3, "controller.delta_profile.table_l must be a list of numbers, got 3"),
    ("table_delta", [0.0, None],
     "controller.delta_profile.table_delta must be a number, got None"),
])
def test_from_dict_names_the_key_of_a_bad_profile_value(key, value, message):
    # A null or a list used to raise TypeError from float() or a comparison.
    data = build_demo_scenario().to_dict()
    data["controller"]["delta_profile"][key] = value
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == message


def test_from_dict_rejects_a_profile_that_is_no_mapping():
    data = build_demo_scenario().to_dict()
    data["controller"]["delta_profile"] = "tanh"
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == "controller.delta_profile must be a mapping, got 'tanh'"


@pytest.mark.parametrize("key, value, message", [
    ("path.segments.0.length", None, "path: path.segments.0.length must be a number, got None"),
    ("path.segments.2.curvature", "abc",
     "path: path.segments.2.curvature must be a number, got 'abc'"),
    ("path.segments.1.curvature_end", [1],
     "path: path.segments.1.curvature_end must be a number, got [1]"),
    ("path.segments.1.start_pose", [15.0, None, 0.0],
     "path: path.segments.1.start_pose must be three numbers, got [15.0, None, 0.0]"),
    ("path.start_pose", [0, {}, 0], "path: path.start_pose must be three numbers, got [0, {}, 0]"),
    ("path.start_pose", [0, 0], "path: path.start_pose must be three numbers, got [0, 0]"),
    ("path.segments.0", 5, "path: path.segments.0 must be a mapping, got 5"),
])
def test_validate_names_a_bad_path_value(key, value, message):
    # Such a value used to raise TypeError from float() out of validate.
    sc = build_demo_scenario().with_overrides({key: value})
    assert sc.validate() == [("error", message)]
    with pytest.raises(ScenarioInvalid) as info:
        run(sc)
    assert info.value.reasons == [message]


@pytest.mark.parametrize("length", [1e6, 1e300])
def test_validate_of_a_very_long_first_line_returns_at_once(length):
    # While the global projection sampled the whole path every 0.25 m, a 1e6 m
    # line took seconds and 750 MB to validate, and a 1e300 m one ran out of
    # memory.
    sc = build_demo_scenario().with_overrides({"path.segments.0.length": length})
    t0 = time.perf_counter()
    assert sc.validate() == []
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("s", [-1.0, 1.0], ids=["before", "beyond"])
def test_validate_rejects_an_initial_frenet_s_off_the_path(s):
    sc = build_demo_scenario()
    end = sc.build_path().total_length
    sc = sc.with_overrides({"initial_pose": None, "initial_frenet": {
        "s": s if s < 0.0 else end + s, "l_norm": 0.0, "theta_tilde": 0.0}})
    assert sc.validate() == [("error", "initial_frenet.s outside the path domain")]


def test_from_dict_rejects_an_integer_beyond_float_range():
    data = build_demo_scenario().to_dict()
    data["t_max"] = 10**400
    with pytest.raises(ValueError, match="^t_max must be a number, got 1000"):
        Scenario.from_dict(data)


def test_validate_rejects_a_controller_radius_other_than_half_the_axle():
    # The dict form derives R from vehicle.d; the constructor takes both.
    sc = Scenario(STRAIGHT["path"], control=ControllerConfig(radius=0.5),
                  initial_pose=(0.0, 0.0, 0.0))
    assert sc.validate() == [("error", "controller radius must equal the vehicle's d/2")]


def test_scenario_round_trip():
    sc = build_demo_scenario()
    assert Scenario.from_dict(sc.to_dict()) == sc


def test_from_dict_defaults_are_the_dataclass_defaults():
    path = {"start_pose": [0, 0, 0], "segments": [{"kind": "line", "length": 10}]}
    built = Scenario.from_dict({"path": path, "initial_pose": [0, 1, 0]})
    assert built == Scenario(path_spec=path, initial_pose=(0.0, 1.0, 0.0))


@pytest.mark.parametrize("key, value, message", [
    ("t_max", None, "t_max must be a number, got None"),
    ("controller.eps_b", None, "controller.eps_b must be a number, got None"),
    ("vehicle.m", "abc", "vehicle.m must be a number, got 'abc'"),
    ("user.v", None, "user.v must be a number, got None"),
    ("seed", None, "seed must be a number, got None"),
    ("initial_frenet", [0.0, None, 0.0], "initial_frenet must be a mapping, got [0.0, None, 0.0]"),
    ("controller.foo", 1, "unknown key controller.foo"),
    ("vehicle.bogus", 1, "unknown key vehicle.bogus"),
    ("vehicle", None, "vehicle must be a mapping, got None"),
    ("user.foo", 1, "unknown key user.foo"),
    ("t_maxx", 5, "unknown key t_maxx"),
    ("initial_frenet", {"s": 1.0, "l_norm": 0.5, "theta_tilde": 0.0, "ds": 1.0},
     "unknown key initial_frenet.ds"),
    ("user", None, "user must be a mapping, got None"),
])
def test_from_dict_names_the_key_of_a_bad_value(key, value, message):
    # A null, a non-number or an unknown key, at the top level or in a
    # block, is a ValueError naming the key, which the CLI prints on one
    # line.
    with pytest.raises(ValueError) as exc:
        build_demo_scenario().with_overrides({key: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("block, key, value, message", [
    ("", "t_max", True, "t_max must be a number, got True"),
    ("user", "v", "2", "user.v must be a number, got '2'"),
    ("", "initial_pose", ["1", True, 0], "initial_pose must be three numbers, got ['1', True, 0]"),
    ("", "seed", "3", "seed must be a number, got '3'"),
])
def test_from_dict_rejects_a_bool_or_a_string_as_a_number(block, key, value, message):
    # Each used to read as float(value): t_max 1.0, v 2.0, pose (1, 1, 0).
    data = build_demo_scenario().to_dict()
    (data[block] if block else data)[key] = value
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == message


def test_validate_rejects_a_bool_as_a_segment_length():
    sc = build_demo_scenario().with_overrides({"path.segments.0.length": False})
    assert sc.validate() == [("error", "path: path.segments.0.length must be a number, got False")]


def test_from_dict_reads_an_integral_seed_and_numpy_numbers():
    sc = build_demo_scenario().with_overrides(
        {"seed": 3.0, "user.v": np.float32(0.5), "initial_pose": [np.int64(1), 5, 0.0]}
    )
    assert (sc.seed, sc.v_user, sc.initial_pose) == (3, 0.5, (1.0, 5.0, 0.0))
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
        build_demo_scenario().with_overrides({"seed": 2.5})


def test_vehicle_wheel_inertia_is_not_a_key():
    # vehicle.J_w was read and checked positive, and nothing used it.
    with pytest.raises(ValueError) as exc:
        build_demo_scenario().with_overrides({"vehicle.J_w": 0.01})
    assert str(exc.value) == "unknown key vehicle.J_w"
    assert "J_w" not in build_demo_scenario().to_dict()["vehicle"]


def test_from_dict_rejects_a_scenario_that_is_no_mapping():
    # A JSON config holding a list of pairs is not read as a dict.
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict([("t_max", 1.0)])
    assert str(exc.value) == "scenario must be a mapping, got [('t_max', 1.0)]"


@pytest.mark.parametrize(
    "sc",
    [
        build_demo_scenario(),
        build_demo_scenario().with_overrides({
            "mode": "dynamic", "brake_model": "viscous", "dt_physics": 0.0005,
            "user.tau_r": 0.12, "user.tau_l": 0.1, "user.noise_amplitude": 0.05,
            "seed": 3, "stop_when_converged": True, "converged_hold": 1.5,
        }),
    ],
    ids=["demo", "dynamic"],
)
def test_to_dict_from_dict_round_trip(sc):
    again = Scenario.from_dict(sc.to_dict())
    assert again == sc
    assert again.to_dict() == sc.to_dict()


@pytest.mark.parametrize("key, value, message", [
    ("path.segments.1.curvature_ned", -0.6, "unknown key path.segments.1.curvature_ned"),
    ("path.segments.0.lenght", 15.0, "unknown key path.segments.0.lenght"),
    ("path.foo", 1, "unknown key path.foo"),
    ("path.segments.0.curvature", 0.5, "path.segments.0.curvature is not a key of kind line"),
    ("path.segments.2.curvature_start", 0.9,
     "path.segments.2.curvature_start is not a key of kind arc"),
    ("path.segments.0.kind", "Line",
     "path.segments.0.kind must be one of line, arc, clothoid, got 'Line'"),
    ("path.segments", 5, "path.segments must be a list, got 5"),
    ("path", 5, "path must be a mapping, got 5"),
])
def test_validate_rejects_a_misspelt_unknown_or_foreign_path_key(key, value, message):
    # Each used to validate with no issue: the key was dropped, a line's
    # curvature zeroed, an arc's curvature_start ignored, the kind lowered.
    sc = build_demo_scenario().with_overrides({key: value})
    assert sc.validate() == [("error", f"path: {message}")]


@pytest.mark.parametrize("key", ["kind", "length"])
def test_validate_names_a_missing_segment_key(key):
    data = build_demo_scenario().to_dict()
    del data["path"]["segments"][1][key]
    assert Scenario.from_dict(data).validate() == [
        ("error", f"path: missing key path.segments.1.{key}")
    ]


@pytest.mark.parametrize("key, value, message", [
    ("path.segments.2.curvature", 5e-324,
     "arc curvature 5e-324 is too small: its radius 1/c is not finite"),
    ("path.segments.1.length", 1e300,
     "clothoid of length 1e+300 needs 2e+301 integration nodes; at most 100,000 are allowed"),
])
def test_validate_rejects_an_arc_radius_overflow_and_a_clothoid_over_the_node_cap(
    key, value, message
):
    # The arc used to validate and stop after one row as nonfinite_state;
    # the clothoid, to integrate nodes without end.
    sc = build_demo_scenario().with_overrides({key: value})
    assert sc.validate() == [("error", f"path: {message}")]


@pytest.mark.parametrize("profile, message", [
    ({"kind": "tanhh"},
     "controller.delta_profile.kind must be one of constant, tanh, custom, got 'tanhh'"),
    ({"kind": ["tanh"]},
     "controller.delta_profile.kind must be one of constant, tanh, custom, got ['tanh']"),
    ({"kind": "constant", "delta0": 0.5, "gain": 1.0},
     "controller.delta_profile.gain is not a key of kind constant"),
    ({"kind": "tanh", "table_l": [0.0, 1.0]},
     "controller.delta_profile.table_l is not a key of kind tanh"),
])
def test_from_dict_rejects_an_unknown_profile_kind_or_a_key_of_another_kind(profile, message):
    # An unknown kind used to be read as custom and die with KeyError 'table_l'.
    data = build_demo_scenario().to_dict()
    data["controller"]["delta_profile"] = profile
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("stop_when_converged", "no", "stop_when_converged must be true or false, got 'no'"),
    ("stop_when_converged", None, "stop_when_converged must be true or false, got None"),
    ("stop_when_converged", 1, "stop_when_converged must be true or false, got 1"),
    ("seed", 1.7, "seed must be an integer, got 1.7"),
    ("seed", True, "seed must be a number, got True"),
    ("seed", "1", "seed must be a number, got '1'"),
    ("seed", math.inf, "seed must be an integer, got inf"),
])
def test_from_dict_does_not_coerce_a_bool_or_a_seed(key, value, message):
    # "no" used to read as True, null as False, and 1.7 and true as seed 1.
    data = build_demo_scenario().to_dict()
    data[key] = value
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == message


def test_from_dict_reads_an_integral_seed_as_an_int():
    data = build_demo_scenario().to_dict()
    data["seed"] = 3.0
    seed = Scenario.from_dict(data).seed
    assert seed == 3 and type(seed) is int


@pytest.mark.parametrize("patch, message", [
    ({"path": None}, "missing key path"),
    ({"controller": {"delta_profile": {"gain": 2.0}}},
     "missing key controller.delta_profile.kind"),
    ({"initial_pose": None, "initial_frenet": {"s": 1.0, "theta_tilde": 0.0}},
     "missing key initial_frenet.l_norm"),
    ({"initial_pose": None, "initial_frenet": {"l_norm": 1.0}},
     "missing key initial_frenet.theta_tilde"),
])
def test_from_dict_names_a_missing_key(patch, message):
    # A missing path used to raise a bare KeyError, printed as "error: 'path'".
    data = build_demo_scenario().to_dict()
    data.update(patch)
    data = {k: v for k, v in data.items() if v is not None}
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(data)
    assert str(exc.value) == message


_finite = st.floats(-5.0, 5.0, allow_nan=False)


def _optional(draw, block: dict, key: str, strategy) -> None:
    """Put a drawn value for ``key`` in ``block``, or leave the key out."""
    if draw(st.booleans()):
        block[key] = draw(strategy)


@st.composite
def scenario_dicts(draw):
    """Valid scenario dicts, one key of each block or kind after another,
    every optional key sometimes left out."""
    segments = []
    for kind in draw(st.lists(st.sampled_from(["line", "arc", "clothoid"]), min_size=1,
                              max_size=3)):
        segment = {"kind": kind, "length": draw(st.floats(0.5, 5.0))}
        if kind == "arc":
            segment["curvature"] = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1, 1]))
        elif kind == "clothoid":
            _optional(draw, segment, "curvature_start", st.floats(-1.0, 1.0))
            _optional(draw, segment, "curvature_end", st.floats(-1.0, 1.0))
        segments.append(segment)
    data = {"path": {"segments": segments}}
    _optional(draw, data["path"], "start_pose", st.tuples(_finite, _finite, _finite).map(list))
    profile = {"kind": draw(st.sampled_from(["constant", "tanh", "custom"]))}
    if profile["kind"] == "constant":
        _optional(draw, profile, "delta0", st.floats(0.0, 3.0))
    elif profile["kind"] == "tanh":
        _optional(draw, profile, "amplitude", st.floats(0.1, 3.0))
        _optional(draw, profile, "gain", st.floats(0.1, 10.0))
    else:
        profile["table_l"] = [0.0, draw(st.floats(0.1, 2.0))]
        profile["table_delta"] = [0.0, draw(st.floats(0.0, 3.0))]
    data["controller"] = {"delta_profile": profile}
    _optional(draw, data["controller"], "eps_theta", st.floats(0.01, 0.1))
    _optional(draw, data, "vehicle", st.fixed_dictionaries({"d": st.floats(0.3, 1.0)}))
    user = {}
    _optional(draw, user, "v", st.floats(0.5, 2.0))
    _optional(draw, user, "tau_r", _finite)
    _optional(draw, user, "tau_l", _finite)
    _optional(draw, user, "noise_amplitude", st.floats(0.0, 0.5))
    _optional(draw, data, "user", st.just(user))
    for key, strategy in [
        ("dt_control", st.floats(0.01, 0.05)), ("dt_physics", st.floats(0.0005, 0.01)),
        ("t_max", st.floats(0.1, 5.0)), ("mode", st.sampled_from(["kinematic", "dynamic"])),
        ("brake_model", st.sampled_from(["instant", "viscous"])),
        ("seed", st.integers(0, 2**40)), ("stop_when_converged", st.booleans()),
        ("converged_hold", st.floats(0.0, 3.0)),
    ]:
        _optional(draw, data, key, strategy)
    if draw(st.booleans()):
        data["initial_pose"] = draw(st.tuples(_finite, _finite, _finite).map(list))
    else:
        frenet = {"l_norm": draw(_finite), "theta_tilde": draw(st.floats(-3.0, 3.0))}
        _optional(draw, frenet, "s", st.floats(0.0, 0.5))
        data["initial_frenet"] = frenet
    return data


@settings(max_examples=60, deadline=None)
@given(scenario_dicts())
def test_every_valid_dict_round_trips_through_the_key_tables(data):
    sc = Scenario.from_dict(data)
    out = sc.to_dict()
    # from_dict rejects a key it does not read, so every key to_dict
    # writes is one it reads; and the drawn path builds.
    again = Scenario.from_dict(out)
    assert again == sc and again.to_dict() == out
    assert not [msg for _, msg in sc.validate() if msg.startswith("path:")]
    # A key the dict leaves out takes the field default.
    default = Scenario(path_spec={})
    for name in Scenario._fields:
        if name in out and name not in data:
            assert getattr(sc, name) == getattr(default, name)


def test_demo_scenario_converges():
    tr = run(build_demo_scenario())
    s = summarize(tr)
    assert s.converged
    assert s.lyapunov_violations == 0
    assert tr.rows[-1].maneuver == "stop"  # reached the end of the course


def test_no_zeno_switching_on_constant_curvature_arc():
    # At the default 50 Hz control rate the time between maneuver changes
    # respects the hysteresis bound 2 * eps_theta * R / v.
    data = {
        "path": {"start_pose": [0, 0, 0],
                 "segments": [{"kind": "arc", "length": 6.0, "curvature": 1.0}]},
        "initial_frenet": {"s": 0.3, "l_norm": 0.0, "theta_tilde": 0.0},
        "user": {"v": 1.0},
        "controller": {"threshold_l": 1e9, "eps_theta": 0.02},
        "dt_control": 0.02,
        "t_max": 20.0,
        "mode": "kinematic",
        "seed": 0,
    }
    tr = run(Scenario.from_dict(data))
    rows = tr.rows
    switch_times = [
        b.t for a, b in zip(rows, rows[1:])
        if a.maneuver != b.maneuver and 1.0 < b.t < 5.2
    ]
    gaps = [b - a for a, b in zip(switch_times, switch_times[1:])]
    assert gaps, "expected steady switching while tracking the arc"
    assert min(gaps) >= 2 * 0.02 * 0.3 / 1.0 - 1e-12
    # and the tracking itself is tight
    assert max(abs(r.l) for r in rows if 1.0 < r.t < 5.2) < 0.01


def test_sweep_phase_portraits_spiral_to_origin():
    # Every tracked trajectory ends with a smaller convergence measure than
    # it started with, and settles below 1e-3.
    base = scenario(t_max=60.0, stop_when_converged=True,
                    dt_control=0.005, path={"start_pose": [0, 0, 0],
                                            "segments": [{"kind": "line", "length": 250}]})
    grid = frenet_grid(np.linspace(-4, 4, 5), np.linspace(-2, 2, 5), s0=10.0)
    results = sweep(base, grid)
    for res in results:
        assert res.summary is not None, res.error
        assert res.summary.converged
        assert res.summary.final_V < 1e-3
        if res.summary.max_V > 0.0:
            assert res.summary.final_V < res.summary.max_V


# -- one way in for each value -----------------------------------------------


@pytest.mark.parametrize("value", [5, [1, 2], [], [1, 2, 3, 4], "abc", {"x": 1}])
def test_from_dict_reads_initial_pose_as_three_numbers(value):
    # 5 used to die with TypeError, [1, 2] to validate and then fail to
    # unpack in run, and [] to read as no initial pose at all.
    with pytest.raises(ValueError) as exc:
        build_demo_scenario().with_overrides({"initial_pose": value})
    assert str(exc.value) == f"initial_pose must be three numbers, got {value!r}"


@pytest.mark.parametrize("value", [[0, 1], [0.0, 1.0, 0.0], 5])
def test_from_dict_reads_initial_frenet_as_a_mapping_only(value):
    # A list used to read as (s, l_norm, theta_tilde), and two numbers validated.
    with pytest.raises(ValueError) as exc:
        build_demo_scenario().with_overrides({"initial_pose": None, "initial_frenet": value})
    assert str(exc.value) == f"initial_frenet must be a mapping, got {value!r}"


@pytest.mark.parametrize("name, value", [("initial_pose", (1.0, 2.0)),
                                         ("initial_frenet", (0.0, 1.0)),
                                         ("initial_frenet", ())])
def test_validate_rejects_an_initial_condition_not_of_three_values(name, value):
    # A Scenario built in code skips from_dict; run used to fail to unpack it.
    sc = Scenario(path_spec=STRAIGHT["path"], **{name: value})
    message = f"{name} must be three values, got {value!r}"
    assert ("error", message) in sc.validate()
    with pytest.raises(ScenarioInvalid, match=re.escape(message)):
        run(sc)


@pytest.mark.parametrize("value", ["abc", 0.3, 1.0])
def test_controller_radius_is_not_a_key_of_the_dict_form(value):
    # It used to be dropped silently, abc included: R is vehicle.d / 2.
    with pytest.raises(ValueError) as exc:
        build_demo_scenario().with_overrides({"controller.radius": value})
    assert str(exc.value) == "unknown key controller.radius"
    assert build_demo_scenario().with_overrides({"vehicle.d": 0.8}).control.radius == 0.4


def test_validate_rejects_a_negative_seed():
    # A noisy run used to validate, then raise numpy's "expected
    # non-negative integer" at its first draw.
    sc = build_demo_scenario().with_overrides({"seed": -1, "user.noise_amplitude": 0.1})
    assert ("error", "seed must be nonnegative, got -1") in sc.validate()
    with pytest.raises(ScenarioInvalid, match="seed must be nonnegative"):
        run(sc)


def test_sweep_runs_what_with_overrides_builds():
    base = build_demo_scenario().with_overrides({"t_max": 3.0})
    grid = frenet_grid([-1.0, 0.5], [0.0, 1.0], s0=5.0)
    for res, overrides in zip(sweep(base, grid), grid):
        want = summarize(run(base.with_overrides(overrides)))
        assert res.error is None
        assert {k: v.hex() if isinstance(v, float) else v
                for k, v in res.summary.as_dict().items()} == {
            k: v.hex() if isinstance(v, float) else v for k, v in want.as_dict().items()}


# The keys the property test below sets, with the odd values it sets them to.
_MUTABLE_KEYS = [
    "dt_control", "dt_physics", "t_max", "mode", "brake_model", "seed",
    "stop_when_converged", "converged_hold",
    "user", "user.v", "user.noise_amplitude", "user.tau_r", "user.tau_l",
    "initial_pose", "initial_pose.1", "initial_frenet", "initial_frenet.s",
    "initial_frenet.l_norm", "initial_frenet.theta_tilde", "controller.radius",
    "foo", "t_maxx", "user.foo", "initial_frenet.foo",
]
_SPECIAL = st.sampled_from([NAN, INF, -INF, 1e300, -1e300, 5e-324])
_ITEM = st.one_of(st.floats(-5.0, 5.0), _SPECIAL, st.none(), st.booleans(), st.text(max_size=3))
_ODD_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5), _SPECIAL,
    st.floats(max_value=-5e-324, allow_infinity=False), st.integers(max_value=-1),
    st.lists(_ITEM, max_size=4),
    st.dictionaries(st.sampled_from(["s", "l_norm", "theta_tilde", "v", "foo"]), _ITEM,
                    max_size=3),
)
_STOP_PREFIXES = ("projection lost: ", "nonfinite_state: ")


def _key_names(data, prefix=""):
    """Every key of the dict form ``data``, dotted."""
    for key, value in data.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_names(value, f"{prefix}{key}.")


_KEY_NAMES = {*_key_names(build_demo_scenario().to_dict()), *_MUTABLE_KEYS,
              *Scenario._fields}


def _names_a_key(message):
    return any(re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", message)
               for name in _KEY_NAMES)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MUTABLE_KEYS), _ODD_VALUE), min_size=1,
                max_size=3, unique_by=lambda kv: kv[0]))
def test_a_mutated_demo_is_rejected_naming_a_key_or_runs_to_a_named_stop(mutations):
    overrides = dict(mutations)
    t_max = overrides.get("t_max", math.inf)
    if isinstance(t_max, (int, float)) and t_max > 0.5:
        overrides["t_max"] = 0.5
    try:
        sc = build_demo_scenario().with_overrides(overrides)
        errors = [msg for level, msg in sc.validate() if level == "error"]
    except ValueError as exc:
        errors = [str(exc)]
    if errors:
        assert all(_names_a_key(msg) for msg in errors), errors
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            trace = run(sc)
        reason = trace.meta["stop_reason"]
        assert reason in ("t_max", "path_end", "converged") or reason.startswith(_STOP_PREFIXES)
        assert trace.rows
        for row in trace.rows:
            assert all(math.isfinite(v) for v in row if isinstance(v, float)), row
    # The CLI reads the same overrides: apply_overrides parses a string as
    # JSON, and a JSON text of any other value reads back as that value.
    argv = ["demo"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value if isinstance(value, str) else json.dumps(value)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = main([*argv, "--out", out])
    assert code == 1 if errors else code in (0, 2)
    assert "Traceback" not in err.getvalue()
