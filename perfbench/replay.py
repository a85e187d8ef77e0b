"""The traced pass: replay each trace through the public layer functions.

``simulator.run`` is a closed loop over three layers: project the pose
(``Path.frenet_project``), choose a brake command (``select_maneuver``) and
advance the vehicle (``step_kinematic`` or ``step_dynamic``).  The replay
repeats that loop from the scenario's initial state, times every call into
each layer, and compares every output with the trace row it produced.  A
mismatch means the timed calls did not reproduce the program's run, so the
benchmark fails rather than report timings of different work.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from time import perf_counter

from brakesteer import (
    AmbiguousProjection,
    ControllerState,
    SingularProjection,
    UserInput,
    lyapunov,
    select_maneuver,
    step_dynamic,
    step_kinematic,
)

STOP = ("stop", "stopped")
PROBE_EVERY = 50


class ReplayMismatch(AssertionError):
    """A replayed layer output differs from the trace row it should match."""

    def __init__(self, row: int, what: str, expected, got):
        super().__init__(f"row {row}: {what} is {got!r}, trace has {expected!r}")
        self.row = row


def segment_kind(path, s: float) -> str:
    """Kind of the segment holding arc length ``s``, from the public fields."""
    i = bisect.bisect_right(path.cumulative_s, s) - 1
    return path.segments[min(max(i, 0), len(path.segments) - 1)].kind


def _check(row_index: int, pairs) -> None:
    for what, expected, got in pairs:
        if expected != got:
            raise ReplayMismatch(row_index, what, expected, got)


def replay(scenario, path, trace, samples: defaultdict, probe=None) -> None:
    """Replay ``trace`` and append per-call durations (s) to ``samples``.

    Keys: ``project.<kind>`` (hinted projections by the kind of segment the
    result lands on), ``project.global`` (unhinted), ``select``, ``ctl_step``
    (projection plus controller of one control step), and
    ``step_kinematic`` or ``step_dynamic`` (one entry per physics substep,
    each the mean over its control step's substeps).
    With ``probe``, every PROBE_EVERY rows its result (the current time of
    a reference loop) is appended to ``samples["reference"]``.
    Raises ReplayMismatch at the first output that differs from the trace.
    """
    if scenario.noise_amplitude > 0.0:
        raise ValueError("replay needs noise_amplitude == 0 (no rng draws)")
    params = scenario.vehicle
    cfg = scenario.control
    radius = params.R
    dt = scenario.dt_control
    dynamic = scenario.mode == "dynamic"
    dt_physics = scenario.dt_physics
    n_sub = max(1, round(dt / dt_physics)) if dynamic else 1
    user = UserInput(*scenario.user_torques)
    brake_model = scenario.brake_model
    v_user = scenario.v_user
    state = scenario.initial_state(path)
    ctrl = ControllerState()
    hint = None
    rows = trace.rows
    last = len(rows) - 1
    select_times = samples["select"]
    ctl_times = samples["ctl_step"]
    step_times = samples["step_dynamic" if dynamic else "step_kinematic"]
    references = samples["reference"]
    for k, row in enumerate(rows):
        if probe is not None and k % PROBE_EVERY == 0:
            references.append(probe())
        _check(k, (("x", row.x, state.x), ("y", row.y, state.y),
                   ("theta", row.theta, state.theta)))
        stop_row = (row.maneuver, row.hybrid_state) == STOP
        t0 = perf_counter()
        try:
            fren = path.frenet_project((state.x, state.y, state.theta),
                                       hint_s=hint, radius=radius)
        except (SingularProjection, AmbiguousProjection):
            # run() logs a lost projection as a final Stop row.
            lost = str(trace.meta.get("stop_reason") or "").startswith("projection lost")
            _check(k, (("projection lost on the last stop row", True,
                        lost and stop_row and k == last),))
            return
        t1 = perf_counter()
        kind = "global" if hint is None else segment_kind(path, fren.s)
        samples["project." + kind].append(t1 - t0)
        _check(k, (("s", row.s, fren.s), ("l", row.l, fren.l),
                   ("theta_tilde", row.theta_tilde, fren.theta_tilde)))
        hint = fren.s
        if stop_row:  # path end: projected, no command chosen
            _check(k, (("stop row position", last, k),))
            return
        t2 = perf_counter()
        cmd, ctrl = select_maneuver(fren, ctrl, cfg)
        t3 = perf_counter()
        select_times.append(t3 - t2)
        ctl_times.append(t1 - t0 + t3 - t2)
        _check(k, (
            ("maneuver", row.maneuver, cmd.action.label),
            ("hybrid_state", row.hybrid_state, ctrl.hybrid_state.label),
            ("phase", row.phase, ctrl.phase.label),
            ("v", row.v, state.v),
            ("omega", row.omega, state.omega),
            ("V", row.V, lyapunov(fren.l / radius, fren.theta_tilde)),
        ))
        if k == last:
            return
        if dynamic:
            # One timer around all substeps keeps timer overhead out of the
            # 20-30 us substeps; each substep is recorded at the mean.
            t0 = perf_counter()
            for _ in range(n_sub):
                state = step_dynamic(state, cmd, user, dt_physics, params, brake_model)
            step_times.extend([(perf_counter() - t0) / n_sub] * n_sub)
        else:
            t0 = perf_counter()
            state = step_kinematic(state, cmd, v_user, dt, params)
            step_times.append(perf_counter() - t0)
