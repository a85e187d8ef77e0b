"""Hybrid brake-steering controller.

The controller works in normalized Frenet coordinates ``(l~, th~)`` where
``l~ = l / R`` is the lateral offset in turning radii and ``th~`` the
heading error.  Under a locked wheel the state moves along circles in this
plane: right turns keep ``sigma_R = l~ + 1 - cos(th~)`` constant, left
turns keep ``sigma_L = l~ - 1 + cos(th~)`` constant.  The curves
``sigma_R = 0`` and ``sigma_L = 0`` are exactly the single-turn trajectories
into the origin.  ``sigma_N``/``sigma_P``, their copies through the
approach-angle line, are the paper's curves, kept for reference only: no
decision reads them.

Two operating phases:

* **Approach** (far from the path): a three-stage automaton with a constant
  approach angle ``delta``.  The commanded heading error is
  ``-sign(l~) * delta`` so both sides converge.  Turning runs until the
  heading error reaches it; the switch to Controlled fires when the
  final-turn boundary (``sigma_L = 0`` left of the path, ``sigma_R = 0``
  right of it) is crossed, which can come before Straight.  The start
  region fixes the first (maneuver, hybrid state) and the stages:

  ====================  ======================  ============================
  region                first                   stages
  ====================  ======================  ============================
  ``on_sigma_l``        turn_left, controlled   Controlled
  ``on_sigma_r``        turn_right, controlled  Controlled
  ``on_delta_line``     go_straight, straight   Straight, Controlled
  ``left_turn_first``   turn_left, turning      Turning, Straight, Controlled
  ``right_turn_first``  turn_right, turning     Turning, Straight, Controlled
  ====================  ======================  ============================

  ``_approach_partition``, the step's memoryless half, gives the region.
  It composes a per-heading half (``_heading_half``: the cosine, each
  side's receptive test, error and off-curve region) and a per-offset half
  (``_offset_half``: the origin band, the side, the hand-off value and its
  ``eps_b`` test).  ``_approach_step`` adds what memory decides: a
  Controlled ride, a crossing against the last hand-off value, the latched
  relay.  The field (``classify``) is thus the approach's fresh-state
  decision, though a run hands the cart to track first wherever
  ``|l~| <= threshold_l``.

* **Track** (near the path): bang-bang regulation about the manifold
  ``th~ = delta(l~)`` with a state-dependent, odd, bounded profile whose
  sign opposes ``l~`` so the offset always shrinks on the manifold.  A
  hysteresis band ``eps_theta`` keeps the switching rate finite: a turn
  engages when the error leaves the band and latches until the band is
  re-entered (or crossed outright), so chattering is bounded and no Zeno
  behavior occurs.  On the final-turn curves the controller reports the
  Controlled state and rides them into the origin.

``select_maneuver`` is a pure transition, ``(FrenetState, ControllerState)
-> (Maneuver, ControllerState)``: ``phase_switch`` picks the phase (a
switch starts it from a fresh ``ControllerState(phase)``), then that
phase's step runs, and each of its branches builds the next state in full.
Its records are immutable NamedTuples and its command a ``Maneuver``
member.  It never commands Stop; halting is the caller's.  The step reads
enum members from module constants and builds each record with
``tuple.__new__``, giving every field.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, NamedTuple, Optional, Sequence

from .dynamics import Labeled, Maneuver
from .path_geometry import TWO_PI, FrenetState, Record, _new, _number, _read_kind, linspace

HALF_PI = math.pi / 2.0

# A Controlled-state ride is abandoned when its boundary value drifts this
# far from zero (curved paths perturb the invariant circles).
_CONTROLLED_DRIFT_LIMIT = 0.15


class Phase(Labeled):
    APPROACH = "approach"
    TRACK = "track"


class HybridState(Labeled):
    TURNING = "turning"
    STRAIGHT = "straight"
    CONTROLLED = "controlled"
    STOPPED = "stopped"


class Region(Labeled):
    """Labels of the switching-curve partition of the ``(l~, th~)`` plane."""

    RIGHT_TURN_FIRST = "right_turn_first"
    LEFT_TURN_FIRST = "left_turn_first"
    ON_SIGMA_R = "on_sigma_r"
    ON_SIGMA_L = "on_sigma_l"
    ON_DELTA_LINE = "on_delta_line"


# The members the step reads and the commands it hands out, as module
# constants: an Enum member read as a class attribute goes through
# ``EnumType.__getattr__``.
_APPROACH, _TRACK = Phase.APPROACH, Phase.TRACK
_TURNING, _STRAIGHT = HybridState.TURNING, HybridState.STRAIGHT
_CONTROLLED = HybridState.CONTROLLED
_RIGHT_FIRST, _LEFT_FIRST = Region.RIGHT_TURN_FIRST, Region.LEFT_TURN_FIRST
_ON_SIGMA_R, _ON_SIGMA_L = Region.ON_SIGMA_R, Region.ON_SIGMA_L
_ON_DELTA_LINE = Region.ON_DELTA_LINE
_GO, _RIGHT, _LEFT = Maneuver.GO_STRAIGHT, Maneuver.TURN_RIGHT, Maneuver.TURN_LEFT


# -- switching boundary functions ----------------------------------------


def sigma_r(l_norm: float, theta_tilde: float) -> float:
    return l_norm + 1.0 - math.cos(theta_tilde)


def sigma_l(l_norm: float, theta_tilde: float) -> float:
    return l_norm - 1.0 + math.cos(theta_tilde)


def sigma_n(l_norm: float, theta_tilde: float, delta: float) -> float:
    return l_norm + 1.0 - 2.0 * math.cos(delta) + math.cos(theta_tilde)


def sigma_p(l_norm: float, theta_tilde: float, delta: float) -> float:
    return l_norm - 1.0 + 2.0 * math.cos(delta) - math.cos(theta_tilde)


# -- approach-angle profiles -----------------------------------------------


# The keys of each profile kind's spec besides ``kind``: the DeltaProfile
# fields that kind reads.  A key the spec leaves out takes the field default.
_PROFILE_KEYS = {"constant": ("delta0",), "tanh": ("amplitude", "gain"),
                 "custom": ("table_l", "table_delta")}


class DeltaProfile(Record):
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
        # Comparisons are written so that NaN fails them.
        if self.kind == "constant":
            if not 0.0 <= self.delta0 < math.pi:
                raise ValueError("constant profile needs delta0 in [0, pi)")
        elif self.kind == "tanh":
            if not 0.0 < self.amplitude < math.pi:
                raise ValueError("tanh profile needs amplitude in (0, pi)")
            if not 0.0 < self.gain < math.inf:
                raise ValueError("tanh profile needs a finite gain > 0")
        elif self.kind == "custom":
            ls, ds = self.table_l, self.table_delta
            if len(ls) < 2 or len(ls) != len(ds):
                raise ValueError("custom profile needs matching tables, >= 2 points")
            if not all(math.isfinite(v) for v in (*ls, *ds)):
                raise ValueError("custom profile tables must be finite")
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

    # The defaults are the fields' own: here the class body's names hold them.
    @classmethod
    def tanh(cls, amplitude: float = amplitude, gain: float = gain) -> "DeltaProfile":
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
        # Linear interpolation in np.interp's operations and order: the knot
        # value on a knot, the slope form between knots, the last magnitude
        # past the last knot.
        x = abs(l_norm)
        ls, ds = self.table_l, self.table_delta
        if x < ls[-1]:
            j = bisect.bisect_right(ls, x) - 1
            if ls[j] == x:
                mag = ds[j]
            else:
                mag = (ds[j + 1] - ds[j]) / (ls[j + 1] - ls[j]) * (x - ls[j]) + ds[j]
        else:
            mag = ds[-1] if x >= ls[-1] else x  # a NaN offset stays NaN
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
        for key in _PROFILE_KEYS[self.kind]:
            value = getattr(self, key)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_spec(cls, spec: Any) -> "DeltaProfile":
        """The profile of a ``controller.delta_profile`` block, as ``spec()``
        writes it; ``_read_kind`` names the key of each error."""
        kind, values = _read_kind(spec, "controller.delta_profile", _PROFILE_KEYS, _profile_value)
        return cls(kind, **values)


def _profile_value(name: str, value: Any) -> Any:
    """A profile spec's value: a table (a custom key) item by item, else a number."""
    if name.rpartition(".")[2] not in _PROFILE_KEYS["custom"]:
        return _number(name, value)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(name, v) for v in value)


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
    smallest offset where it fails (inf when feasible everywhere), checked
    at ``samples`` evenly spaced offsets in ``[0, l_max]``.

    Raises ValueError unless ``v``, ``turning_radius`` and ``l_max`` are
    positive and finite and ``samples >= 2``, so that no verdict is given
    about an empty or undefined range.
    """
    # Comparisons are written so that NaN fails them.
    if not (0.0 < v < math.inf and 0.0 < turning_radius < math.inf):
        raise ValueError("v and turning_radius must be positive and finite")
    if not 0.0 < l_max < math.inf:
        raise ValueError("l_max must be positive and finite")
    if not samples >= 2:
        raise ValueError("samples must be at least 2")
    worst = 0.0
    l_hat = math.inf
    for l_norm in linspace(0.0, l_max, samples):
        g = abs(profile.slope(l_norm) * math.sin(profile.value(l_norm)))
        if g > worst:
            worst = g
        if g > 1.0 and l_hat == math.inf:
            l_hat = l_norm
    return worst <= 1.0, l_hat


# -- controller configuration and state ------------------------------------


class ControllerConfig(Record):
    """Tuning block for both phases.

    ``radius`` is the vehicle's minimum turning radius, used to normalize
    lateral offsets.  ``delta_approach`` is the constant approach-angle
    magnitude; ``delta_profile`` the tracking-phase profile.
    """

    radius: float = 0.3
    delta_approach: float = math.pi / 3.0
    delta_profile: DeltaProfile = DeltaProfile.tanh()
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
        if not (0.0 < self.eps_theta < math.inf and 0.0 < self.eps_b < math.inf):
            raise ValueError("hysteresis bands must be positive and finite")
        if not (0.0 < self.threshold_l < math.inf and 1.0 <= self.re_approach_factor < math.inf):
            raise ValueError("invalid phase-switch thresholds: need 0 < threshold_l and "
                             "1 <= re_approach_factor, both finite")
        # Where the final-turn rides hand over to the band regulation (see
        # _track_step): a plain attribute, not a field, so spec() omits it.
        object.__setattr__(self, "_th_clear", math.sqrt(2.0 * self.eps_b))

    def spec(self) -> dict:
        out = self._asdict()
        out["delta_profile"] = self.delta_profile.spec()
        return out


class ControllerState(NamedTuple):
    """Discrete controller memory carried between steps."""

    phase: Phase = Phase.APPROACH
    hybrid_state: HybridState = HybridState.STRAIGHT
    turn_dir: int = 0                       # latched turn: +1 left, -1 right
    prev_err: Optional[float] = None        # last manifold error, wrapped
    prev_handoff: Optional[float] = None    # last final-turn boundary value
    prev_side: int = 0                      # sign of l~ at the last step


def phase_switch(
    frenet: FrenetState, ctrl: ControllerState, cfg: ControllerConfig
) -> ControllerState:
    """Approach/track arbitration on the normalized offset, with hysteresis.

    Approach hands over to track at ``|l~| <= cfg.threshold_l``; track falls
    back only beyond ``cfg.re_approach_factor * cfg.threshold_l``.  The
    thresholds are checked once, when the config is built.
    """
    return _phase_switch(frenet.l / cfg.radius, ctrl, cfg)


def _phase_switch(l_norm: float, ctrl: ControllerState, cfg: ControllerConfig) -> ControllerState:
    """:func:`phase_switch` on the normalized offset ``l_norm``; a switch
    starts the new phase from a fresh ``ControllerState(phase)``."""
    offset = abs(l_norm)
    phase = ctrl.phase
    if phase is _APPROACH and offset <= cfg.threshold_l:
        return _new(ControllerState, (_TRACK, _STRAIGHT, 0, None, None, 0))
    if phase is _TRACK and offset > cfg.re_approach_factor * cfg.threshold_l:
        return _new(ControllerState, (_APPROACH, _STRAIGHT, 0, None, None, 0))
    return ctrl


# -- switching partition ----------------------------------------------------


def _heading_half(
    th: float, cfg: ControllerConfig
) -> tuple[float, tuple[bool, float, Region], tuple[bool, float, Region]]:
    """The per-heading half of the approach partition at a wrapped ``th~``.

    Returns ``(cos(th~), left, right)``: ``left`` for side +1 (left of the
    path) and ``right`` for side -1, each ``(receptive, err, region)``.
    ``receptive`` says whether that side's final-turn curve takes the
    heading in, ``err`` is the error against ``-side * delta`` and
    ``region`` the region off that curve, by the ``eps_theta`` thresholds.
    """
    b, delta, eps = cfg.eps_b, cfg.delta_approach, cfg.eps_theta
    left = (th + delta + math.pi) % TWO_PI - math.pi  # wrap_angle, side +1
    right = (th - delta + math.pi) % TWO_PI - math.pi  # wrap_angle, side -1
    return (
        math.cos(th),
        (-math.pi < th < -b, left, _off_curve(left, eps)),
        (b < th, right, _off_curve(right, eps)),
    )


def _off_curve(err: float, eps: float) -> Region:
    """The region off the final-turn curves for the error ``err``."""
    if err > eps:
        return _RIGHT_FIRST
    if err < -eps:
        return _LEFT_FIRST
    return _ON_DELTA_LINE


def _offset_half(
    l_norm: float, th: float, heading: tuple, b: float
) -> tuple[Region, int, Optional[float], bool, float]:
    """The per-offset half of the approach partition at ``(l~, wrap(th~))``.

    ``heading`` is ``_heading_half(th, cfg)`` and ``b`` is ``cfg.eps_b``.
    Returns what :func:`_approach_partition` does: the origin band, the
    side, the hand-off value on that side and, within ``b`` of it, the
    final-turn region; elsewhere the side's off-curve region.
    """
    if abs(l_norm) <= b and abs(th) <= b:
        return _ON_DELTA_LINE, 0, None, False, th
    cos_th, left, right = heading
    if l_norm > 0.0 or not (l_norm < 0.0 or th > 0.0):
        side, handoff, on_curve = 1, l_norm - 1.0 + cos_th, _ON_SIGMA_L  # sigma_l
        receptive, err, region = left
    else:
        side, handoff, on_curve = -1, l_norm + 1.0 - cos_th, _ON_SIGMA_R  # sigma_r
        receptive, err, region = right
    if receptive and abs(handoff) <= b:
        region = on_curve
    return region, side, handoff, receptive, err


def _approach_partition(
    l_norm: float, th: float, cfg: ControllerConfig
) -> tuple[Region, int, Optional[float], bool, float]:
    """The memoryless half of the approach decision at ``(l~, wrap(th~))``.

    Returns ``(region, side, handoff, receptive, err)``.  ``side`` is +1 left
    of the path and -1 right of it (on it, the side the heading comes from),
    or 0 in the origin band, where ``err`` is ``th`` and ``handoff`` None.
    ``handoff`` is the final-turn value (``sigma_L`` or ``sigma_R``), which
    ``receptive`` headings ride in; ``err`` is the error against ``-side * delta``.
    It composes :func:`_heading_half`, which depends on ``th~`` alone, and
    :func:`_offset_half`, so a grid over ``(l~, th~)`` can hoist the first.
    """
    return _offset_half(l_norm, th, _heading_half(th, cfg), cfg.eps_b)


def classify(l_norm: float, theta_tilde: float, cfg: ControllerConfig) -> Region:
    """The region of ``(l~, th~)``: the approach step's fresh-state decision.

    ====================  =============================================
    region                first (maneuver, hybrid state)
    ====================  =============================================
    ``on_delta_line``     go_straight, straight (also the origin band)
    ``right_turn_first``  turn_right, turning
    ``left_turn_first``   turn_left, turning
    ``on_sigma_l``        turn_left, controlled
    ``on_sigma_r``        turn_right, controlled
    ====================  =============================================

    Mirroring ``(l~, th~)`` to ``(-l~, -th~)`` swaps R and L, except where a
    wrapped angle is exactly -pi (the error, or on the path the heading):
    the wrap's half-open range breaks that tie, as in the controller.
    """
    return _approach_partition(l_norm, (theta_tilde + math.pi) % TWO_PI - math.pi, cfg)[0]


# -- relay with latched hysteresis ------------------------------------------


def _relay(err: float, state: ControllerState, eps: float) -> tuple[Maneuver, HybridState, int]:
    turn_dir = state.turn_dir
    if state.hybrid_state is _TURNING and turn_dir != 0 and not abs(err) <= eps:
        # The latched turn holds outside the band.  A left turn normally
        # raises the error, so it is also released on a single-step
        # overshoot through the band (the wrapped step lies in (0, pi/2)),
        # never on a wrap of the error angle; a right turn mirrors it.
        prev = state.prev_err
        if prev is None:
            released = False
        elif turn_dir > 0:
            released = (
                err > eps and prev <= eps
                and 0.0 < (err - prev + math.pi) % TWO_PI - math.pi < HALF_PI
            )
        else:
            released = (
                err < -eps and prev >= -eps
                and -HALF_PI < (err - prev + math.pi) % TWO_PI - math.pi < 0.0
            )
        if not released:
            return _LEFT if turn_dir > 0 else _RIGHT, _TURNING, turn_dir
    if err > eps:
        return _RIGHT, _TURNING, -1
    if err < -eps:
        return _LEFT, _TURNING, 1
    return _GO, _STRAIGHT, 0


def _track_step(
    l_norm: float, th: float, state: ControllerState, cfg: ControllerConfig
) -> tuple[Maneuver, ControllerState]:
    b = cfg.eps_b
    err = (th - cfg.delta_profile.value(l_norm) + math.pi) % TWO_PI - math.pi  # wrap_angle
    if abs(l_norm) <= b and abs(th) <= b:
        return _GO, _new(ControllerState, (_TRACK, _STRAIGHT, 0, err, None, 0))
    # On a final-turn curve the vehicle rides it into the origin.  Within
    # sqrt(2 b) of the origin the curves blur into the band around it, so
    # the ride hands over to the band regulation there.  One cosine serves
    # sigma_L = l~ - 1 + cos(th~) and sigma_R = l~ + 1 - cos(th~).
    th_clear = cfg._th_clear
    cos_th = math.cos(th)
    if abs(l_norm - 1.0 + cos_th) <= b and -math.pi < th < -th_clear:
        return _LEFT, _new(ControllerState, (_TRACK, _CONTROLLED, 0, err, None, 0))
    if abs(l_norm + 1.0 - cos_th) <= b and th_clear < th:
        return _RIGHT, _new(ControllerState, (_TRACK, _CONTROLLED, 0, err, None, 0))
    command, hybrid, turn_dir = _relay(err, state, cfg.eps_theta)
    return command, _new(ControllerState, (_TRACK, hybrid, turn_dir, err, None, 0))


def _approach_step(
    l_norm: float, th: float, state: ControllerState, cfg: ControllerConfig
) -> tuple[Maneuver, ControllerState]:
    region, side, handoff, receptive, err = _approach_partition(l_norm, th, cfg)
    if not side:
        return _GO, _new(ControllerState, (_APPROACH, _STRAIGHT, 0, err, None, 0))
    # A held Controlled ride goes on; a crossing, against the last hand-off
    # value on this side (with none, onto the curve itself), starts one.
    prev, b = state.prev_handoff, cfg.eps_b
    if (
        state.hybrid_state is _CONTROLLED
        and state.prev_side == side
        and abs(handoff) <= _CONTROLLED_DRIFT_LIMIT
    ):
        if abs(th) <= cfg.eps_theta:
            return _GO, _new(ControllerState, (_APPROACH, _STRAIGHT, 0, err, handoff, side))
        final_turn = True
    elif prev is None or state.prev_side != side:
        final_turn = region is _ON_SIGMA_L or region is _ON_SIGMA_R
    else:
        final_turn = receptive and (prev > b >= handoff if side > 0 else prev < -b <= handoff)
    if final_turn:
        return _LEFT if side > 0 else _RIGHT, _new(
            ControllerState, (_APPROACH, _CONTROLLED, 0, err, handoff, side)
        )
    command, hybrid, turn_dir = _relay(err, state, cfg.eps_theta)
    return command, _new(ControllerState, (_APPROACH, hybrid, turn_dir, err, handoff, side))


def select_maneuver(
    frenet: FrenetState,
    ctrl: ControllerState,
    params: ControllerConfig,
) -> tuple[Maneuver, ControllerState]:
    """One controller transition; assumes forward motion (v > 0).

    Raises ValueError on a non-finite Frenet state, in which case the
    caller is expected to command Stop.
    """
    s, l, theta_tilde = frenet
    if not (math.isfinite(s) and math.isfinite(l) and math.isfinite(theta_tilde)):
        raise ValueError(f"invalid frenet state {frenet}")
    l_norm = l / params.radius
    ctrl = _phase_switch(l_norm, ctrl, params)
    th = (theta_tilde + math.pi) % TWO_PI - math.pi  # wrap_angle
    step = _track_step if ctrl.phase is _TRACK else _approach_step
    return step(l_norm, th, ctrl, params)
