"""Hybrid brake-steering controller.

The controller works in normalized Frenet coordinates ``(l~, th~)`` where
``l~ = l / R`` is the lateral offset in turning radii and ``th~`` the
heading error.  Under a locked wheel the state moves along circles in this
plane: right turns keep ``sigma_R = l~ + 1 - cos(th~)`` constant, left
turns keep ``sigma_L = l~ - 1 + cos(th~)`` constant.  The curves
``sigma_R = 0`` and ``sigma_L = 0`` are exactly the single-turn trajectories
into the origin, and together with ``sigma_N``/``sigma_P`` (their copies
through the approach-angle line) they partition the plane into maneuver
regions.

Two operating phases:

* **Approach** (far from the path): a three-stage automaton with a constant
  approach angle ``delta``.  The commanded heading error is
  ``-sign(l~) * delta`` so both sides converge.  Stage sequence, any stage
  possibly empty:

  ========================  ==============================================
  start state               maneuver sequence
  ========================  ==============================================
  on the final-turn curve   Controlled only (ride the curve to the origin)
  near the path, inside     Turning, then Controlled (the turn crosses the
  the critical turn circle  final-turn curve before reaching ``delta``)
  on the ``delta`` line     Straight, then Controlled
  generic far state         Turning, Straight, Controlled
  ========================  ==============================================

  Turning runs until the heading error reaches the commanded angle; the
  switch to Controlled fires when the final-turn boundary (``sigma_L = 0``
  left of the path, ``sigma_R = 0`` right of it) is crossed.

* **Track** (near the path): bang-bang regulation about the manifold
  ``th~ = delta(l~)`` with a state-dependent, odd, bounded profile whose
  sign opposes ``l~`` so the offset always shrinks on the manifold.  A
  hysteresis band ``eps_theta`` keeps the switching rate finite: a turn
  engages when the error leaves the band and latches until the band is
  re-entered (or crossed outright), so chattering is bounded and no Zeno
  behavior occurs.  On the final-turn curves the controller reports the
  Controlled state and rides them into the origin.

The controller is a pure transition function: ``(FrenetState,
ControllerState) -> (BrakeCommand, ControllerState)`` with no hidden state,
so independent instances can run concurrently.  ``select_maneuver`` first
lets ``phase_switch`` pick the phase (a switch starts the new phase from a
fresh ``ControllerState(phase)``), then runs that phase's step.  Every
branch of ``_track_step`` and ``_approach_step`` returns its maneuver
together with the next ``ControllerState``, built there in full, so each
branch shows the state it moves to.  The controller never commands Stop;
halting is a supervisor decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dynamics import BrakeCommand, Maneuver
from .path_geometry import FrenetState, wrap_angle

HALF_PI = math.pi / 2.0

# A Controlled-state ride is abandoned when its boundary value drifts this
# far from zero (curved paths perturb the invariant circles).
_CONTROLLED_DRIFT_LIMIT = 0.15


class ProjectionLost(RuntimeError):
    """Raised when the controller receives a non-finite Frenet state."""


class Phase(Enum):
    APPROACH = "approach"
    TRACK = "track"

    @property
    def label(self) -> str:
        return self.value


class HybridState(Enum):
    TURNING = "turning"
    STRAIGHT = "straight"
    CONTROLLED = "controlled"
    STOPPED = "stopped"

    @property
    def label(self) -> str:
        return self.value


class Region(Enum):
    """Labels of the switching-curve partition of the ``(l~, th~)`` plane."""

    RIGHT_TURN_FIRST = "right_turn_first"
    LEFT_TURN_FIRST = "left_turn_first"
    ON_SIGMA_R = "on_sigma_r"
    ON_SIGMA_L = "on_sigma_l"
    ON_DELTA_LINE = "on_delta_line"
    INTERIOR = "interior"

    @property
    def label(self) -> str:
        return self.value


# -- switching boundary functions ----------------------------------------


def sigma_r(l_norm: float, theta_tilde: float) -> float:
    return l_norm + 1.0 - math.cos(theta_tilde)


def sigma_l(l_norm: float, theta_tilde: float) -> float:
    return l_norm - 1.0 + math.cos(theta_tilde)


def sigma_n(l_norm: float, theta_tilde: float, delta: float) -> float:
    return l_norm + 1.0 - 2.0 * math.cos(delta) + math.cos(theta_tilde)


def sigma_p(l_norm: float, theta_tilde: float, delta: float) -> float:
    return l_norm - 1.0 + 2.0 * math.cos(delta) - math.cos(theta_tilde)


def sigma(name: str, l_norm: float, theta_tilde: float, delta: float = 0.0) -> float:
    """Boundary function by name: R, L, N or P."""
    key = name.upper()
    if key == "R":
        return sigma_r(l_norm, theta_tilde)
    if key == "L":
        return sigma_l(l_norm, theta_tilde)
    if key == "N":
        return sigma_n(l_norm, theta_tilde, delta)
    if key == "P":
        return sigma_p(l_norm, theta_tilde, delta)
    raise ValueError(f"unknown boundary function {name!r}")


# -- approach-angle profiles -----------------------------------------------


@dataclass(frozen=True)
class DeltaProfile:
    """Commanded heading error as a function of the normalized offset.

    All kinds share the convergent sign convention: the commanded angle
    opposes the offset, so following ``th~ = delta(l~)`` drives ``l~``
    toward zero under ``dl/dt = v sin(th~)``.

    kinds:
      * ``constant`` - fixed magnitude ``delta0``, sign flipped per side.
      * ``tanh``     - ``-amplitude * tanh(gain * l~)``, smooth and odd.
      * ``custom``   - odd interpolation of a tabulated magnitude curve.
    """

    kind: str
    delta0: float = 0.0
    amplitude: float = HALF_PI
    gain: float = 1.0
    table_l: tuple[float, ...] = ()
    table_delta: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if not 0.0 <= self.delta0 < math.pi:
                raise ValueError("constant profile needs delta0 in [0, pi)")
        elif self.kind == "tanh":
            if not 0.0 < self.amplitude < math.pi:
                raise ValueError("tanh profile needs amplitude in (0, pi)")
            if self.gain <= 0.0:
                raise ValueError("tanh profile needs gain > 0")
        elif self.kind == "custom":
            ls, ds = self.table_l, self.table_delta
            if len(ls) < 2 or len(ls) != len(ds):
                raise ValueError("custom profile needs matching tables, >= 2 points")
            if ls[0] != 0.0 or ds[0] != 0.0:
                raise ValueError("custom profile tables must start at (0, 0)")
            if any(b <= a for a, b in zip(ls, ls[1:])):
                raise ValueError("custom profile offsets must increase")
            if any(b < a for a, b in zip(ds, ds[1:])) or not max(ds) < math.pi:
                raise ValueError("custom profile magnitudes must be non-decreasing, < pi")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    @classmethod
    def constant(cls, delta0: float) -> "DeltaProfile":
        return cls(kind="constant", delta0=delta0)

    @classmethod
    def tanh(cls, amplitude: float = HALF_PI, gain: float = 1.0) -> "DeltaProfile":
        return cls(kind="tanh", amplitude=amplitude, gain=gain)

    @classmethod
    def custom(cls, offsets: Sequence[float], magnitudes: Sequence[float]) -> "DeltaProfile":
        return cls(kind="custom", table_l=tuple(offsets), table_delta=tuple(magnitudes))

    def value(self, l_norm: float) -> float:
        if self.kind == "constant":
            if l_norm == 0.0:
                return 0.0
            return -math.copysign(self.delta0, l_norm)
        if self.kind == "tanh":
            return -self.amplitude * math.tanh(self.gain * l_norm)
        mag = float(np.interp(abs(l_norm), self.table_l, self.table_delta))
        return -math.copysign(mag, l_norm) if l_norm != 0.0 else 0.0

    def slope(self, l_norm: float) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "tanh":
            t = math.tanh(self.gain * l_norm)
            return -self.amplitude * self.gain * (1.0 - t * t)
        h = 1e-6
        return (self.value(l_norm + h) - self.value(l_norm - h)) / (2.0 * h)

    def spec(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "constant":
            out["delta0"] = self.delta0
        elif self.kind == "tanh":
            out["amplitude"] = self.amplitude
            out["gain"] = self.gain
        else:
            out["table_l"] = list(self.table_l)
            out["table_delta"] = list(self.table_delta)
        return out

    @classmethod
    def from_spec(cls, spec: dict) -> "DeltaProfile":
        kind = spec["kind"]
        if kind == "constant":
            return cls.constant(float(spec["delta0"]))
        if kind == "tanh":
            return cls.tanh(float(spec.get("amplitude", HALF_PI)), float(spec.get("gain", 1.0)))
        return cls.custom(spec["table_l"], spec["table_delta"])


def curvature_feasible(
    profile: DeltaProfile,
    v: float,
    turning_radius: float,
    l_max: float = 10.0,
    samples: int = 4001,
) -> tuple[bool, float]:
    """Check that riding the profile never demands more turn rate than v/R.

    On the manifold the required heading rate is ``delta'(l~) * v/R *
    sin(delta(l~))``, so the speed and radius cancel and the condition is
    ``|delta'(l~) * sin(delta(l~))| <= 1``.  Returns the verdict and the
    smallest offset where it fails (inf when feasible everywhere).
    """
    if v <= 0.0 or turning_radius <= 0.0:
        raise ValueError("v and turning_radius must be positive")
    grid = np.linspace(0.0, l_max, samples)
    worst = 0.0
    l_hat = math.inf
    for l_norm in grid:
        g = abs(profile.slope(float(l_norm)) * math.sin(profile.value(float(l_norm))))
        if g > worst:
            worst = g
        if g > 1.0 and l_hat == math.inf:
            l_hat = float(l_norm)
    return worst <= 1.0, l_hat


# -- controller configuration and state ------------------------------------


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning block for both phases.

    ``radius`` is the vehicle's minimum turning radius, used to normalize
    lateral offsets.  ``delta_approach`` is the constant approach-angle
    magnitude; ``delta_profile`` the tracking-phase profile.
    """

    radius: float = 0.3
    delta_approach: float = math.pi / 3.0
    delta_profile: DeltaProfile = field(default_factory=DeltaProfile.tanh)
    eps_theta: float = 0.02
    eps_b: float = 1e-3
    threshold_l: float = 1.0
    re_approach_factor: float = 2.0

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them.
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 <= self.delta_approach < math.pi:
            raise ValueError("delta_approach must lie in [0, pi)")
        if not (self.eps_theta > 0.0 and self.eps_b > 0.0):
            raise ValueError("hysteresis bands must be positive")
        if not (self.threshold_l > 0.0 and self.re_approach_factor >= 1.0):
            raise ValueError("invalid phase-switch thresholds")

    def spec(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["delta_profile"] = self.delta_profile.spec()
        return out


@dataclass(frozen=True)
class ControllerState:
    """Discrete controller memory carried between steps."""

    phase: Phase = Phase.APPROACH
    hybrid_state: HybridState = HybridState.STRAIGHT
    turn_dir: int = 0                       # latched turn: +1 left, -1 right
    prev_err: Optional[float] = None        # last manifold error, wrapped
    prev_handoff: Optional[float] = None    # last final-turn boundary value
    prev_side: int = 0                      # sign of l~ at the last step


def phase_switch(
    frenet: FrenetState,
    ctrl: ControllerState,
    threshold_l: float,
    re_approach_factor: float = 2.0,
    radius: float = 1.0,
) -> ControllerState:
    """Approach/track arbitration on the normalized offset, with hysteresis.

    Approach hands over to track at ``|l~| <= threshold_l``; track falls
    back only beyond ``re_approach_factor * threshold_l``.
    """
    if threshold_l <= 0.0:
        raise ValueError("threshold_l must be positive")
    l_norm = abs(frenet.l / radius)
    if ctrl.phase is Phase.APPROACH and l_norm <= threshold_l:
        return ControllerState(Phase.TRACK)
    if ctrl.phase is Phase.TRACK and l_norm > re_approach_factor * threshold_l:
        return ControllerState(Phase.APPROACH)
    return ctrl


# -- switching partition ----------------------------------------------------


def classify(
    l_norm: float, theta_tilde: float, delta: float, band: float = ControllerConfig.eps_b
) -> Region:
    """Assign a state to exactly one partition region.

    ``band`` is the numerical thickness given to the measure-zero curves.
    The labeling is odd-symmetric: mirroring ``(l~, th~, delta)`` to
    ``(-l~, -th~, -delta)`` swaps R with L labels and keeps the rest.
    """
    if band <= 0.0:
        raise ValueError("band must be positive")
    if abs(l_norm) <= band and abs(theta_tilde) <= band:
        return Region.ON_DELTA_LINE  # origin: converged, all curves meet here
    s_r = sigma_r(l_norm, theta_tilde)
    s_l = sigma_l(l_norm, theta_tilde)
    on_r = abs(s_r) <= band
    on_l = abs(s_l) <= band
    if on_r or on_l:
        if on_r and not on_l:
            return Region.ON_SIGMA_R
        if on_l and not on_r:
            return Region.ON_SIGMA_L
        if abs(s_r) != abs(s_l):
            return Region.ON_SIGMA_R if abs(s_r) < abs(s_l) else Region.ON_SIGMA_L
        return Region.ON_SIGMA_R if theta_tilde > 0.0 else Region.ON_SIGMA_L
    if abs(wrap_angle(theta_tilde - delta)) <= band:
        return Region.ON_DELTA_LINE
    if s_r < 0.0 and sigma_n(l_norm, theta_tilde, delta) < 0.0:
        return Region.RIGHT_TURN_FIRST
    if s_l > 0.0 and sigma_p(l_norm, theta_tilde, delta) > 0.0:
        return Region.LEFT_TURN_FIRST
    return Region.INTERIOR


# -- relay with latched hysteresis ------------------------------------------


def _latch_released(err: float, prev_err: Optional[float], turn_dir: int, eps: float) -> bool:
    if abs(err) <= eps:
        return True
    if prev_err is None:
        return False
    step = wrap_angle(err - prev_err)
    if turn_dir > 0:
        # left turn normally raises the error; release on a single-step
        # overshoot through the band, never on a wrap of the error angle
        return err > eps and prev_err <= eps and 0.0 < step < HALF_PI
    return err < -eps and prev_err >= -eps and -HALF_PI < step < 0.0


def _relay(err: float, state: ControllerState, eps: float) -> tuple[Maneuver, HybridState, int]:
    if (
        state.hybrid_state is HybridState.TURNING
        and state.turn_dir != 0
        and not _latch_released(err, state.prev_err, state.turn_dir, eps)
    ):
        action = Maneuver.TURN_LEFT if state.turn_dir > 0 else Maneuver.TURN_RIGHT
        return action, HybridState.TURNING, state.turn_dir
    if err > eps:
        return Maneuver.TURN_RIGHT, HybridState.TURNING, -1
    if err < -eps:
        return Maneuver.TURN_LEFT, HybridState.TURNING, 1
    return Maneuver.GO_STRAIGHT, HybridState.STRAIGHT, 0


def _track_step(
    l_norm: float, th: float, state: ControllerState, cfg: ControllerConfig
) -> tuple[Maneuver, ControllerState]:
    b = cfg.eps_b
    err = wrap_angle(th - cfg.delta_profile.value(l_norm))
    if abs(l_norm) <= b and abs(th) <= b:
        return Maneuver.GO_STRAIGHT, ControllerState(Phase.TRACK, HybridState.STRAIGHT, 0, err)
    # On a final-turn curve the vehicle rides it into the origin.  Within
    # sqrt(2 b) of the origin the curves blur into the band around it, so
    # the ride hands over to the band regulation there.
    th_clear = math.sqrt(2.0 * b)
    if abs(sigma_l(l_norm, th)) <= b and -math.pi < th < -th_clear:
        return Maneuver.TURN_LEFT, ControllerState(Phase.TRACK, HybridState.CONTROLLED, 0, err)
    if abs(sigma_r(l_norm, th)) <= b and th_clear < th:
        return Maneuver.TURN_RIGHT, ControllerState(Phase.TRACK, HybridState.CONTROLLED, 0, err)
    action, hybrid, turn_dir = _relay(err, state, cfg.eps_theta)
    return action, ControllerState(Phase.TRACK, hybrid, turn_dir, err)


def _approach_step(
    l_norm: float, th: float, state: ControllerState, cfg: ControllerConfig
) -> tuple[Maneuver, ControllerState]:
    b = cfg.eps_b
    if abs(l_norm) <= b and abs(th) <= b:
        return Maneuver.GO_STRAIGHT, ControllerState(Phase.APPROACH, HybridState.STRAIGHT, 0, th)
    if l_norm > 0.0:
        side = 1
    elif l_norm < 0.0:
        side = -1
    else:
        side = -1 if th > 0.0 else 1
    handoff = sigma_l(l_norm, th) if side > 0 else sigma_r(l_norm, th)
    final_turn = Maneuver.TURN_LEFT if side > 0 else Maneuver.TURN_RIGHT
    target = -side * cfg.delta_approach
    err = wrap_angle(th - target)

    if (
        state.hybrid_state is HybridState.CONTROLLED
        and state.prev_side == side
        and abs(handoff) <= _CONTROLLED_DRIFT_LIMIT
    ):
        if abs(th) <= cfg.eps_theta:
            return Maneuver.GO_STRAIGHT, ControllerState(
                Phase.APPROACH, HybridState.STRAIGHT, 0, err, handoff, side
            )
        return final_turn, ControllerState(
            Phase.APPROACH, HybridState.CONTROLLED, 0, err, handoff, side
        )

    receptive = (-math.pi < th < -b) if side > 0 else (b < th)
    if receptive:
        if state.prev_handoff is None or state.prev_side != side:
            crossed = abs(handoff) <= b
        elif side > 0:
            crossed = state.prev_handoff > b and handoff <= b
        else:
            crossed = state.prev_handoff < -b and handoff >= -b
        if crossed:
            return final_turn, ControllerState(
                Phase.APPROACH, HybridState.CONTROLLED, 0, err, handoff, side
            )

    action, hybrid, turn_dir = _relay(err, state, cfg.eps_theta)
    return action, ControllerState(Phase.APPROACH, hybrid, turn_dir, err, handoff, side)


def select_maneuver(
    frenet: FrenetState,
    ctrl: ControllerState,
    params: ControllerConfig,
) -> tuple[BrakeCommand, ControllerState]:
    """One controller transition; assumes forward motion (v > 0).

    Raises ProjectionLost on a non-finite Frenet state, in which case the
    caller is expected to command Stop.
    """
    if not (
        math.isfinite(frenet.s) and math.isfinite(frenet.l) and math.isfinite(frenet.theta_tilde)
    ):
        raise ProjectionLost(f"invalid frenet state {frenet}")
    ctrl = phase_switch(
        frenet, ctrl, params.threshold_l, params.re_approach_factor, params.radius
    )
    l_norm = frenet.l / params.radius
    th = wrap_angle(frenet.theta_tilde)
    step = _track_step if ctrl.phase is Phase.TRACK else _approach_step
    action, state = step(l_norm, th, ctrl, params)
    return BrakeCommand(action), state
