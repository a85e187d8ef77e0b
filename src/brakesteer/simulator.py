"""Closed-loop scenario execution.

A scenario bundles a path, an initial condition, vehicle parameters,
controller tuning and run settings.  ``run`` executes the loop
project -> controller -> advance at a fixed control rate and returns a
Trace; identical scenario + seed gives a bit-identical trace.  ``sweep``
runs a scenario over a grid of overrides, isolating per-run failures.
"""

from __future__ import annotations

import copy
import json
import math
import warnings
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .analysis import RunSummary, abort_reason, in_convergence_band, lyapunov, summarize
from .controller import (
    ControllerConfig,
    ControllerState,
    DeltaProfile,
    HybridState,
    Maneuver,
    select_maneuver,
)
from .dynamics import UserInput, VehicleParams, VehicleState, step_dynamic, step_kinematic
from .path_geometry import (
    AmbiguousProjection,
    Path,
    PathError,
    Record,
    SingularProjection,
    _new,
    _number,
    _pop,
    _pose,
    build_path,
)


# The most physics steps (control steps times substeps) one run may ask
# for.  A kinematic run keeps one trace row of about 340 bytes per control
# step (tracemalloc peak, on a 20,001-row run along a 250 m line), at about
# 10 us a step on a 2-vCPU x86 VM with Python 3.11 (median of six medians of
# seven runs, unscaled): 1e7 steps is about 3.4 GB of trace and 1.7 minutes,
# while 1e8 would need 34 GB.
MAX_PHYSICS_STEPS = 10_000_000

# The last path Scenario.build_path built, as (key, Path): the runs of a
# sweep share one path spec, so they share one Path, which is immutable.
# The pair is read and replaced whole, so a thread sees a key with its own
# Path; threads that race can only cost each other a rebuild.
_last_path: tuple[Optional[str], Optional[Path]] = (None, None)


class ScenarioInvalid(ValueError):
    """Raised when a scenario fails validation; carries the reasons."""

    def __init__(self, reasons: Sequence[str]):
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


class TraceRow(NamedTuple):
    t: float
    x: float
    y: float
    theta: float
    v: float
    omega: float
    s: float
    l: float
    theta_tilde: float
    maneuver: str
    hybrid_state: str
    phase: str
    V: float


TRACE_COLUMNS = ",".join(TraceRow._fields)
# One trace.csv row: every float to 9 significant digits, the labels as they are.
_TRACE_ROW = "%.9g," * 9 + "%s,%s,%s,%.9g"


class Trace(Record):
    """Time-indexed log of one closed-loop run."""

    rows: tuple[TraceRow, ...]
    meta: dict

    def to_csv(self) -> str:
        lines = [TRACE_COLUMNS]
        lines += [_TRACE_ROW % r for r in self.rows]
        return "\n".join(lines) + "\n"


class Scenario(Record):
    """Everything needed to reproduce one run."""

    path_spec: dict
    vehicle: VehicleParams = VehicleParams()
    control: ControllerConfig = ControllerConfig()
    initial_pose: Optional[tuple[float, float, float]] = None
    initial_frenet: Optional[tuple[float, float, float]] = None  # (s, l_norm, theta_tilde)
    v_user: float = 1.0
    user_torques: tuple[float, float] = (0.0, 0.0)
    noise_amplitude: float = 0.0
    dt_control: float = 0.02
    dt_physics: float = 0.001
    t_max: float = 60.0
    mode: str = "kinematic"
    brake_model: str = "instant"
    seed: int = 0
    stop_when_converged: bool = False
    converged_hold: float = 2.0

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario; a key the dict leaves out takes the field default.
        A missing path, a key the dict form does not have or a value its reader
        rejects raises ValueError naming it, here, and not TypeError later."""
        data = dict(_known("", data))
        path = _pop(data, "path", "")
        vehicle = VehicleParams(**_numbers("vehicle", data.get("vehicle", {})))
        given = data.get("controller", {})
        ctl = _numbers("controller", given, skip=("delta_profile",))
        if "delta_profile" in given:
            ctl["delta_profile"] = DeltaProfile.from_spec(given["delta_profile"])
        values = {key: read(key, data[key]) for key, read in _SCALARS.items() if key in data}
        user = _numbers("user", data.get("user", {}))
        values.update((name, user[key]) for key, name in _USER.items() if key in user)
        values["user_torques"] = tuple(
            user.get(key, default) for key, default in zip(_TORQUES, cls.user_torques)
        )
        if data.get("initial_pose") is not None:
            values["initial_pose"] = _pose("initial_pose", data["initial_pose"])
        if data.get("initial_frenet") is not None:
            frenet = _numbers("initial_frenet", data["initial_frenet"])
            values["initial_frenet"] = (frenet.get(_FRENET[0], 0.0),
                                        *(_pop(frenet, key, "initial_frenet")
                                          for key in _FRENET[1:]))
        return cls(
            path_spec=copy.deepcopy(path),
            vehicle=vehicle,
            # R is always vehicle.d / 2, as VehicleParams.R derives it.
            control=ControllerConfig(radius=vehicle.R, **ctl),
            **values,
        )

    def to_dict(self) -> dict:
        out = {
            "path": copy.deepcopy(self.path_spec),
            "vehicle": self.vehicle._asdict(),
            "controller": {
                k: v for k, v in self.control.spec().items() if k != "radius"
            },
            "user": {
                **{key: getattr(self, name) for key, name in _USER.items()},
                **dict(zip(_TORQUES, self.user_torques)),
            },
            **{key: getattr(self, key) for key in _SCALARS},
        }
        if self.initial_pose is not None:
            out["initial_pose"] = list(self.initial_pose)
        if self.initial_frenet is not None:
            out["initial_frenet"] = dict(zip(_FRENET, self.initial_frenet))
        return out

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Scenario":
        """New scenario with dotted-key overrides applied to the dict form."""
        data = self.to_dict()
        apply_overrides(data, overrides)
        return Scenario.from_dict(data)

    # -- validation ----------------------------------------------------------

    def build_path(self) -> Path:
        """The path of ``path_spec``; a spec with the same content as the
        last one built (by its JSON text) gets that same Path back."""
        global _last_path
        try:
            key = json.dumps(self.path_spec, sort_keys=True)
        except (TypeError, ValueError):  # not JSON: build it, remember nothing
            key = None
        last_key, path = _last_path
        if key is None or key != last_key:
            spec = dict(_known("path", self.path_spec))  # a key left out: build_path's default
            path = build_path(spec.pop("segments", ()), **spec)
            if key is not None:
                _last_path = (key, path)
        return path

    def validate(self) -> list[tuple[str, str]]:
        """Collect issues as (level, message); level 'error' blocks run().

        Level 'curvature' marks a path the vehicle cannot follow exactly
        (|c| * R > 1); runs still execute but tracking will saturate.
        """
        # Comparisons are written so that NaN fails them.
        issues: list[tuple[str, str]] = []
        t_ok = 0.0 < self.t_max < math.inf
        if not t_ok:
            issues.append(("error", "t_max must be positive and finite"))
        dt_ok = 0.0 < self.dt_control < math.inf
        if not dt_ok:
            issues.append(("error", "dt_control must be positive and finite"))
        if self.mode not in ("kinematic", "dynamic"):
            issues.append(("error", f"unknown mode {self.mode!r}"))
        if self.brake_model not in ("instant", "viscous"):
            issues.append(("error", f"unknown brake model {self.brake_model!r}: "
                                    "brake_model must be instant or viscous"))
        substeps = 1.0
        if self.mode == "dynamic" and dt_ok:
            if not 0.0 < self.dt_physics <= self.dt_control:
                issues.append(("error", "need 0 < dt_physics <= dt_control"))
            else:
                # An overflowed ratio is left to the physics-step bound below.
                substeps = self.dt_control / self.dt_physics
                if substeps < math.inf and abs(substeps - round(substeps)) > 1e-9:
                    issues.append(("error", "dt_control must be a multiple of dt_physics"))
        if t_ok and dt_ok:
            steps = self.t_max / self.dt_control * substeps
            if not steps <= MAX_PHYSICS_STEPS:
                issues.append(
                    ("error",
                     f"run needs {steps:.3g} physics steps (t_max / dt_control control "
                     f"steps, times dt_control / dt_physics substeps in dynamic mode); "
                     f"at most {MAX_PHYSICS_STEPS:.0e} are allowed")
                )
        if not 0.0 < self.v_user < math.inf:
            issues.append(("error", "v_user must be positive and finite (forward motion only)"))
        elif dt_ok and self.v_user / self.vehicle.R * self.dt_control > 0.5:
            issues.append(
                ("error", "dt_control too coarse: one step turns more than 0.5 rad")
            )
        if not all(math.isfinite(tau) for tau in self.user_torques):
            issues.append(("error", "user torques must be finite"))
        if not 0.0 <= self.noise_amplitude < math.inf:
            issues.append(("error", "noise_amplitude must be nonnegative and finite"))
        if not 0.0 <= self.converged_hold < math.inf:
            issues.append(("error", "converged_hold must be nonnegative and finite"))
        if self.seed < 0:
            issues.append(("error", f"seed must be nonnegative, got {self.seed!r}"))
        name = "initial_pose" if self.initial_frenet is None else "initial_frenet"
        start = getattr(self, name)
        if (self.initial_pose is None) == (self.initial_frenet is None):
            issues.append(("error", "give exactly one of initial_pose / initial_frenet"))
        elif len(start) != 3:
            issues.append(("error", f"{name} must be three values, got {start!r}"))
        elif not all(math.isfinite(v) for v in start):
            issues.append(("error", f"initial condition {name} must be finite"))
        if abs(self.control.radius - self.vehicle.R) > 1e-12:
            issues.append(("error", "controller radius must equal the vehicle's d/2"))
        try:
            path = self.build_path()
        except (PathError, ValueError) as exc:
            issues.append(("error", f"path: {exc}"))
            return issues
        if self.initial_frenet is not None and len(self.initial_frenet) == 3 and not (
            0.0 <= self.initial_frenet[0] <= path.total_length
        ):
            issues.append(("error", "initial_frenet.s outside the path domain"))
        worst = 0.0
        worst_idx = 0
        for i, seg in enumerate(path.segments):
            c = max(abs(seg.curvature_start), abs(seg.curvature_end))
            if c * self.vehicle.R > worst:
                worst, worst_idx = c * self.vehicle.R, i
        if worst > 1.0:
            issues.append(
                ("curvature",
                 f"segment {worst_idx} needs |c|*R = {worst:.3g} > 1; "
                 "the cart cannot hold this curvature")
            )
        return issues

    def initial_state(self, path: Path) -> VehicleState:
        if self.initial_pose is not None:
            x, y, th = self.initial_pose
        else:
            s0, l_norm, th_tilde = self.initial_frenet
            px, py, thd = path.pose_at(s0)
            l = l_norm * self.vehicle.R
            x = px - l * math.sin(thd)
            y = py + l * math.cos(thd)
            th = thd + th_tilde
        return VehicleState.from_body_rates(x, y, th, self.v_user, 0.0, self.vehicle)


def _flag(key: str, value: Any) -> bool:
    """``value`` when it is a bool, else ValueError naming ``key``."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _integer(key: str, value: Any) -> int:
    """``value`` as an int when ``_number`` reads it as an integral float,
    else ValueError naming ``key``."""
    if not _number(key, value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


# The top-level scalars of the dict form, each the Scenario field of the same
# name, and the reader that turns the dict's value into the field's.
_SCALARS = {"dt_control": _number, "dt_physics": _number, "t_max": _number,
            "mode": lambda _, value: str(value), "brake_model": lambda _, value: str(value),
            "seed": _integer, "stop_when_converged": _flag, "converged_hold": _number}
# The user block: each scalar key's Scenario field; the torques fill user_torques.
_USER = {"v": "v_user", "noise_amplitude": "noise_amplitude"}
_TORQUES = ("tau_r", "tau_l")
# The initial_frenet block, in field order; s is 0.0 when left out.
_FRENET = ("s", "l_norm", "theta_tilde")

# The keys of the dict form, by block ("" is the top level; the segments
# and the delta_profile block check their own).
_KEYS = {
    "": {*_SCALARS, "path", "vehicle", "controller", "user", "initial_pose",
         "initial_frenet"},
    "path": {"segments", "start_pose"},
    "vehicle": set(VehicleParams._fields),
    "controller": set(ControllerConfig._fields) - {"radius"},
    "user": {*_USER, *_TORQUES},
    "initial_frenet": set(_FRENET),
}


def _known(block: str, given: Any) -> Mapping[str, Any]:
    """``given``, a mapping with no key outside ``block``'s; else ValueError
    naming the first other key, or the block if ``given`` is no mapping."""
    if not isinstance(given, Mapping):
        raise ValueError(f"{block or 'scenario'} must be a mapping, got {given!r}")
    for key in given:
        if key not in _KEYS[block]:
            raise ValueError(f"unknown key {f'{block}.{key}' if block else key}")
    return given


def _numbers(block: str, given: Any, skip: Sequence[str] = ()) -> dict[str, float]:
    """The ``block`` mapping's values as floats, the keys in ``skip`` left
    out; ``_known`` rejects any key the block does not have."""
    return {k: _number(f"{block}.{k}", v) for k, v in _known(block, given).items()
            if k not in skip}


def apply_overrides(data: dict, overrides: Mapping[str, Any]) -> dict:
    """Apply dotted-key overrides (e.g. ``controller.eps_theta``) in place.

    String values are parsed as JSON scalars when possible so CLI
    ``--set key=value`` pairs become numbers/booleans.  A part of the key
    indexes a list by its position (``path.segments.0.length``); a mapping
    the key passes through is made when missing.  A position that is not
    an integer in range, or a part that lands on neither a mapping nor a
    list, raises ValueError naming the key.
    """
    for key, value in overrides.items():
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError:
                pass
        node = data
        parts = key.split(".")
        for depth, part in enumerate(parts, 1):
            if isinstance(node, list):
                if not (part.isascii() and part.isdigit() and int(part) < len(node)):
                    raise ValueError(
                        f"override {key}: no item {part!r} in a list of {len(node)}"
                    )
                part = int(part)
            elif not isinstance(node, dict):
                raise ValueError(
                    f"override {key}: {'.'.join(parts[:depth - 1])} is {node!r}, "
                    "not a mapping or a list"
                )
            if depth == len(parts):
                node[part] = value
            elif isinstance(node, dict):
                node = node.setdefault(part, {})
            else:
                node = node[part]
    return data


def _nonfinite(layer: str, exc: Exception) -> str:
    return f"nonfinite_state: {layer} raised {type(exc).__name__}: {exc}"


def run(scenario: Scenario) -> Trace:
    """Execute one closed-loop run and return its trace.

    The loop terminates at ``t_max``, at the end of the path, on a latched
    Stop, or optionally once converged for ``converged_hold`` seconds.
    ``meta["stop_reason"]`` names the exit: ``"t_max"``, ``"path_end"``,
    ``"converged"``, ``"projection lost: ..."`` or ``"nonfinite_state: ..."``
    (the projection or the step overflowed or left the domain of a math
    function).  Every exit but ``"t_max"`` and
    ``"converged"`` names the pose, s, l and theta_tilde its Stop row
    repeats, and one place after the loop appends that row:
    ``"path_end"`` repeats the current pose and its projection, a lost
    projection the current pose and the last logged s, l and theta_tilde,
    and a non-finite state the whole last logged row (the initial pose and
    zeros before the first row).  Every Stop row has finite fields, and a
    scenario that passes validation never makes ``run`` raise.
    """
    issues = scenario.validate()
    errors = [msg for level, msg in issues if level == "error"]
    if errors:
        raise ScenarioInvalid(errors)
    for level, msg in issues:
        if level == "curvature":
            warnings.warn(msg, stacklevel=2)
    path = scenario.build_path()  # the Path validate() just built and remembered
    params = scenario.vehicle
    cfg = scenario.control
    radius = params.R
    dt = scenario.dt_control
    kinematic = scenario.mode == "kinematic"
    v_user = scenario.v_user
    noise = scenario.noise_amplitude
    stop_when_converged = scenario.stop_when_converged
    if noise > 0.0:
        # Only a noisy run draws numbers, so only it pays for importing numpy.
        import numpy as np

        rng = np.random.default_rng(scenario.seed)
    state = scenario.initial_state(path)
    ctrl = ControllerState()
    user = UserInput(*scenario.user_torques)
    n_sub = 1 if kinematic else max(1, round(dt / scenario.dt_physics))
    # A run reaches the path end within a margin of two steps' travel.
    end_s = path.total_length - max(2.0 * v_user * dt, 1e-6)

    rows: list[TraceRow] = []
    meta = {
        "radius": radius,
        "dt_control": dt,
        "v_user": v_user,
        "eps_theta": cfg.eps_theta,
        "delta_profile": cfg.delta_profile.spec(),
        "mode": scenario.mode,
        "seed": scenario.seed,
    }
    hint = None
    in_band_since = None
    # What the Stop row repeats: (pose, (s, l, theta_tilde)), where None
    # stands for the last logged row's.  None itself means no Stop row.
    stop = None
    # The three layers and the step's fixed arguments, bound once.  The
    # drive is the speed or the torques, which a noisy run redraws each step.
    project, select = path.frenet_project, select_maneuver
    step, drive = (step_kinematic, v_user) if kinematic else (step_dynamic, user)
    dt_physics, brake_model = scenario.dt_physics, scenario.brake_model
    n_steps = int(math.floor(scenario.t_max / dt + 1e-9))
    for k in range(n_steps + 1):
        t = k * dt
        if k:
            try:
                if kinematic:
                    if noise > 0.0:
                        drive = max(0.0, v_user * (1.0 + rng.uniform(-noise, noise)))
                    state = step(state, cmd, drive, dt, params)
                else:
                    if noise > 0.0:
                        drive = UserInput(
                            user.tau_r + rng.uniform(-noise, noise),
                            user.tau_l + rng.uniform(-noise, noise),
                        )
                    state = step(state, cmd, drive, dt_physics, params, brake_model, n_sub)
            except (OverflowError, ValueError) as exc:
                reason, stop = _nonfinite("step", exc), (None, None)
                break
        try:
            fren = project(state, hint, radius)
        except (SingularProjection, AmbiguousProjection) as exc:
            reason, stop = f"projection lost: {exc}", (state.pose(), None)
            break
        except (OverflowError, ValueError) as exc:
            # The pose may not be finite: stop at the last logged one.
            reason, stop = _nonfinite("projection", exc), (None, None)
            break
        s, l, theta_tilde = fren
        hint = s
        if s >= end_s:
            reason, stop = "path_end", (state.pose(), fren)
            break
        cmd, ctrl = select(fren, ctrl, cfg)
        x, y, theta, v, omega, _, _ = state
        rows.append(_new(TraceRow, (
            t, x, y, theta, v, omega, s, l, theta_tilde,
            cmd.label, ctrl.hybrid_state.label, ctrl.phase.label,
            lyapunov(l / radius, theta_tilde),
        )))
        if stop_when_converged:
            if in_convergence_band(l, theta_tilde, radius):
                if in_band_since is None:
                    in_band_since = t
                elif t - in_band_since >= scenario.converged_hold:
                    reason = "converged"
                    break
            else:
                in_band_since = None
    else:
        reason = "t_max"
    if stop is not None:
        pose, fren = stop
        if rows:
            last = rows[-1]
            x, y, theta = (last.x, last.y, last.theta) if pose is None else pose
            s, l, th = (last.s, last.l, last.theta_tilde) if fren is None else fren
        else:
            x, y, theta = state.pose() if pose is None else pose
            s, l, th = (0.0, 0.0, 0.0) if fren is None else fren
        rows.append(TraceRow(
            t, x, y, theta, 0.0, 0.0, s, l, th,
            Maneuver.STOP.label, HybridState.STOPPED.label, ctrl.phase.label,
            lyapunov(l / radius, th),
        ))
    meta["stop_reason"] = reason
    return Trace(rows=tuple(rows), meta=meta)


class SweepResult(Record):
    overrides: dict
    summary: Optional[RunSummary]
    error: Optional[str] = None


def _sweep_one(args: tuple[Scenario, dict]) -> SweepResult:
    base, overrides = args
    try:
        trace = run(base.with_overrides(overrides))
        return SweepResult(
            overrides=dict(overrides), summary=summarize(trace), error=abort_reason(trace)
        )
    except Exception as exc:  # per-run isolation: a sweep never aborts
        return SweepResult(overrides=dict(overrides), summary=None, error=str(exc))


def sweep(
    base: Scenario,
    grid: Sequence[Mapping[str, Any]],
    parallel: int = 1,
) -> list[SweepResult]:
    """Run the scenario once per override set, in deterministic grid order."""
    if not grid:
        raise ValueError("sweep grid is empty")
    jobs = [(base, dict(ov)) for ov in grid]
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(_sweep_one, jobs))
    return [_sweep_one(job) for job in jobs]


# The arc length at which frenet_grid starts every run by default, and so the
# default of ``brakesteer sweep --grid-s``.
GRID_S0 = 10.0


def frenet_grid(
    l_values: Sequence[float],
    theta_values: Sequence[float],
    s0: float = GRID_S0,
) -> list[dict]:
    """Initial-condition overrides for a sweep over (l~, th~) pairs.

    Each override also clears any ``initial_pose`` of the base scenario so
    the two initial-condition forms cannot collide.
    """
    return [
        {
            "initial_pose": None,
            "initial_frenet": {"s": s0, "l_norm": float(l), "theta_tilde": float(th)},
        }
        for l in l_values
        for th in theta_values
    ]


def build_demo_scenario() -> Scenario:
    """The shipped demonstration scenario.

    A 35 m course (straight, clothoid, arc, clothoid, straight; peak
    curvature 0.6 1/m) approached from (1, 5) with heading 0: the cart
    starts 5 m left of the path, executes the approach, and tracks the
    course to its end.
    """
    return Scenario.from_dict(
        {
            "path": {
                "start_pose": [0.0, 0.0, 0.0],
                "segments": [
                    {"kind": "line", "length": 15.0},
                    {"kind": "clothoid", "length": 3.0,
                     "curvature_start": 0.0, "curvature_end": -0.6},
                    {"kind": "arc", "length": 2.0, "curvature": -0.6},
                    {"kind": "clothoid", "length": 3.0,
                     "curvature_start": -0.6, "curvature_end": 0.0},
                    {"kind": "line", "length": 12.0},
                ],
            },
            "initial_pose": [1.0, 5.0, 0.0],
            "dt_control": 0.01,
        }
    )
