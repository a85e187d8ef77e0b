"""Unicycle cart dynamics with per-wheel quantized brakes.

The cart is a differential pair of rear wheels pushed by the user;
steering authority comes only from braking.  Each wheel's brake is either
fully released or fully engaged, which yields exactly four commands:
go straight, turn right, turn left, stop.  A fully braked wheel pins the
motion to a circle of radius ``R = d/2`` around that wheel.

Two stepping fidelities are provided.  ``step_kinematic`` takes the forward
speed as given and integrates the pose in closed form (exact lines and
arcs, no discretization drift).  ``step_dynamic`` integrates force/torque
balance with RK4, modeling brakes either as an instantaneous wheel lock or
as a strong viscous dissipator.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .path_geometry import Record, _new


class NonPositiveDt(ValueError):
    """Raised when a stepping function receives a dt that is not positive and finite."""


class Labeled(Enum):
    """Base of the enums whose values are labels: ``Maneuver`` here, and the
    controller's ``Phase``, ``HybridState`` and ``Region``."""

    def __init__(self, label: str) -> None:
        self.label = label  # the value, as a plain attribute


class Maneuver(Labeled):
    """The four admissible brake actions; a command is one of them."""

    GO_STRAIGHT = "go_straight"
    TURN_RIGHT = "turn_right"
    TURN_LEFT = "turn_left"
    STOP = "stop"

    @property
    def action(self) -> "Maneuver":
        """The member itself.  Only the benchmark's replay reads it, until
        that replay reads ``label`` directly."""
        return self

    def wheel_settings(self, b_max: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """Per-wheel ``(b_brake, c_hold)`` pairs, right wheel first.

        ``b_brake`` is the brake's viscous coefficient (0 or ``b_max``) and
        ``c_hold`` the at-rest holding fraction (0 or 1).
        """
        right_braked = self is _RIGHT or self is _STOP
        left_braked = self is _LEFT or self is _STOP
        return (
            (b_max if right_braked else 0.0, 1.0 if right_braked else 0.0),
            (b_max if left_braked else 0.0, 1.0 if left_braked else 0.0),
        )


# The members the step reads, as module constants: an Enum member read as a
# class attribute goes through ``EnumType.__getattr__``.
_GO, _RIGHT = Maneuver.GO_STRAIGHT, Maneuver.TURN_RIGHT
_LEFT, _STOP = Maneuver.TURN_LEFT, Maneuver.STOP


def _not_a_maneuver(command: object) -> TypeError:
    return TypeError(f"command must be a Maneuver member, got {command!r}")


class VehicleParams(Record):
    """Physical parameters (SI units).

    Defaults are plausible rollator values chosen for this artifact; they
    are configuration, not measured ground truth.
    """

    m: float = 20.0       # mass, kg
    J: float = 1.0        # yaw inertia, kg m^2
    d: float = 0.6        # rear axle length, m
    r: float = 0.1        # wheel radius, m
    b_w: float = 0.05     # rolling viscous coefficient, N m s
    b_max: float = 50.0   # brake viscous coefficient when engaged, N m s

    def __post_init__(self) -> None:
        for name in ("m", "J", "d", "r", "b_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.R > 0.0:  # d = 5e-324 is positive, but its half rounds to 0
            raise ValueError(f"d must be large enough that R = d / 2 is positive, got {self.d!r}")
        if not self.b_w >= 0.0:
            raise ValueError("b_w must be nonnegative")

    @property
    def R(self) -> float:
        """Minimum turning radius under a single locked wheel."""
        return self.d / 2.0


class UserInput(Record):
    """Constant handle torques transmitted to the wheels, N m."""

    tau_r: float = 0.0
    tau_l: float = 0.0


class VehicleState(NamedTuple):
    """World pose, body rates and wheel rates."""

    x: float
    y: float
    theta: float
    v: float
    omega: float
    alpha_dot_r: float
    alpha_dot_l: float

    @classmethod
    def from_body_rates(
        cls, x: float, y: float, theta: float, v: float, omega: float, params: VehicleParams
    ) -> "VehicleState":
        adr, adl = wheel_rates(v, omega, params)
        return cls(x, y, theta, v, omega, adr, adl)

    def pose(self) -> tuple[float, float, float]:
        return self.x, self.y, self.theta

    def rates_consistent(self, params: VehicleParams, tol: float = 1e-9) -> bool:
        v = params.r * (self.alpha_dot_r + self.alpha_dot_l) / 2.0
        w = params.r * (self.alpha_dot_r - self.alpha_dot_l) / params.d
        return abs(v - self.v) <= tol and abs(w - self.omega) <= tol

    def kinetic_energy(self, params: VehicleParams) -> float:
        return 0.5 * params.m * (self.v * self.v) + 0.5 * params.J * (self.omega * self.omega)


def wheel_rates(v: float, omega: float, params: VehicleParams) -> tuple[float, float]:
    """Wheel spin rates consistent with body rates under pure rolling."""
    return (v + omega * params.d / 2.0) / params.r, (v - omega * params.d / 2.0) / params.r


def step_kinematic(
    state: VehicleState,
    command: Maneuver,
    v_user: float,
    dt: float,
    params: VehicleParams,
) -> VehicleState:
    """Advance the pose exactly over dt at the user-imposed forward speed.

    The command fixes the angular rate: 0 when free, ``-v/R`` turning right,
    ``+v/R`` turning left; Stop halts instantly (wheel lock time is treated
    as negligible) and leaves the pose unchanged.  The wheel rates are
    :func:`wheel_rates`' expressions, in its operand order.  A command that
    is not a :class:`Maneuver` member raises TypeError.
    """
    if not 0.0 < dt < math.inf:
        raise NonPositiveDt(f"dt={dt}")
    x, y, theta = state.x, state.y, state.theta
    v = v_user if v_user > 0.0 else 0.0  # max(0.0, v_user), which also maps NaN to 0
    d, r = params.d, params.r
    if command is _GO:
        omega = 0.0
        x += v * dt * math.cos(theta)
        y += v * dt * math.sin(theta)
    else:
        # The controller never commands Stop, so it is tested last.
        if command is _RIGHT:
            signed_v = -v
        elif command is _LEFT:
            signed_v = v
        elif command is _STOP:
            return _new(VehicleState, (x, y, theta, 0.0, 0.0, 0.0, 0.0))
        else:
            raise _not_a_maneuver(command)
        if v > 0.0:
            omega = signed_v / (d / 2.0)  # v / R
            theta_0, theta = theta, theta + omega * dt
            rho = v / omega  # signed turn radius, magnitude R
            x += rho * (math.sin(theta) - math.sin(theta_0))
            y -= rho * (math.cos(theta) - math.cos(theta_0))
        else:
            omega = 0.0  # no motion, no rotation about a wheel
    return _new(
        VehicleState, (x, y, theta, v, omega, (v + omega * d / 2.0) / r, (v - omega * d / 2.0) / r)
    )


def step_dynamic(
    state: VehicleState,
    command: Maneuver,
    user: UserInput,
    dt: float,
    params: VehicleParams,
    brake_model: str = "instant",
    substeps: int = 1,
) -> VehicleState:
    """Advance the full dynamic state by ``substeps`` fixed RK4 steps of dt.

    ``brake_model="instant"`` locks a braked wheel immediately (snapping its
    spin rate to zero and projecting the body rates) and then integrates the
    remaining degree of freedom.  ``brake_model="viscous"`` keeps all wheels
    free and applies the engaged brake as a strong viscous torque, giving an
    exponential transient with time constants of order m r^2 / b_max and
    4 J r^2 / (b_max d^2); the wheels have no inertia of their own.  The
    forward speed is clamped nonnegative; reverse motion is out of scope.

    The checks and constants are resolved once per call, and the command
    picks one of three loops, which run the four RK4 stages of each substep
    on plain floats; one ``VehicleState`` is built, at the end:

    - free rolling (``go_straight``, under either brake model): both wheels
      roll and only the rolling drag ``b_w * rate`` acts.  A released brake
      would add ``0.0 * rate``; for a finite rate that is a zero whose
      subtraction moves no bit of the torque, so the loop leaves it out.
      Only a rate overflowed to inf tells the two apart (``0.0 * inf`` is
      NaN, the drag alone is infinite), and either state is then
      non-finite;
    - locked wheel (``brake_model="instant"``, a turn or Stop): Stop
      returns the pose at rest, and a turn integrates the free wheel's rate;
    - viscous braking (``brake_model="viscous"``, a turn or Stop): each
      wheel's torque carries its brake's ``b_brake * rate`` beside the
      rolling drag, and a braked wheel at rest is held.

    Each expression keeps the operand order of :func:`wheel_rates` and of
    the textbook per-wheel torque and wrench formulas, so every substep is
    bitwise an RK4 step built from those formulas one derivative call per
    stage, as the reference in ``tests/test_dynamics.py`` builds it, and one
    call with ``substeps=n`` equals ``n`` chained calls bit for bit.  A
    command that is not a :class:`Maneuver` member raises TypeError.
    """
    if not 0.0 < dt < math.inf:
        raise NonPositiveDt(f"dt={dt}")
    if brake_model not in ("instant", "viscous"):
        raise ValueError(f"unknown brake model {brake_model!r}")
    if type(substeps) is not int or substeps < 1:
        raise ValueError(f"substeps must be an int >= 1, got {substeps!r}")
    x, y, th = state.x, state.y, state.theta
    r, d, b_w = params.r, params.d, params.b_w
    half = 0.5 * dt
    sixth = dt / 6.0
    cos, sin = math.cos, math.sin

    if command is _GO:
        # Free rolling: no 0.0 * rate brake term, and a wheel at rest passes
        # its user torque through, as the released brake's (1.0 - 0.0) * tau.
        tau_r, tau_l = user.tau_r, user.tau_l
        m, J, two_r = params.m, params.J, 2.0 * r
        v, omega = state.v, state.omega

        for _ in range(substeps):
            th0, v0, w0 = th, v, omega
            h = w0 * d / 2.0
            adr, adl = (v0 + h) / r, (v0 - h) / r
            tr = tau_r - b_w * adr if adr != 0.0 else tau_r
            tl = tau_l - b_w * adl if adl != 0.0 else tau_l
            dx1, dy1 = v0 * cos(th0), v0 * sin(th0)
            dv1, dw1 = (tr + tl) / r / m, (tr - tl) * d / two_r / J
            th, v2, w2 = th0 + half * w0, v0 + half * dv1, w0 + half * dw1
            h = w2 * d / 2.0
            adr, adl = (v2 + h) / r, (v2 - h) / r
            tr = tau_r - b_w * adr if adr != 0.0 else tau_r
            tl = tau_l - b_w * adl if adl != 0.0 else tau_l
            dx2, dy2 = v2 * cos(th), v2 * sin(th)
            dv2, dw2 = (tr + tl) / r / m, (tr - tl) * d / two_r / J
            th, v3, w3 = th0 + half * w2, v0 + half * dv2, w0 + half * dw2
            h = w3 * d / 2.0
            adr, adl = (v3 + h) / r, (v3 - h) / r
            tr = tau_r - b_w * adr if adr != 0.0 else tau_r
            tl = tau_l - b_w * adl if adl != 0.0 else tau_l
            dx3, dy3 = v3 * cos(th), v3 * sin(th)
            dv3, dw3 = (tr + tl) / r / m, (tr - tl) * d / two_r / J
            th, v4, w4 = th0 + dt * w3, v0 + dt * dv3, w0 + dt * dw3
            h = w4 * d / 2.0
            adr, adl = (v4 + h) / r, (v4 - h) / r
            tr = tau_r - b_w * adr if adr != 0.0 else tau_r
            tl = tau_l - b_w * adl if adl != 0.0 else tau_l
            dx4, dy4 = v4 * cos(th), v4 * sin(th)
            dv4, dw4 = (tr + tl) / r / m, (tr - tl) * d / two_r / J

            v = v0 + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            omega = w0 + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
            if v < 0.0:
                v = 0.0
            x += sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
            y += sixth * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
            th = th0 + sixth * (w0 + 2.0 * w2 + 2.0 * w3 + w4)
    elif brake_model == "instant":
        if command is _STOP:
            return _new(VehicleState, (x, y, th, 0.0, 0.0, 0.0, 0.0))
        # One wheel locked: the free wheel's rate u is the only degree of
        # freedom, with v = r u / 2 and omega = sr u / d about the locked wheel.
        right = command is _RIGHT
        if right:
            sr, u, tau = -r, state.alpha_dot_l, user.tau_l
        elif command is _LEFT:
            sr, u, tau = r, state.alpha_dot_r, user.tau_r
        else:
            raise _not_a_maneuver(command)
        m_eff = params.m * (r * r) / 4.0 + params.J * (r * r) / (d * d)

        for _ in range(substeps):
            # Snap the braked wheel to rest and read the free wheel's rate
            # back through wheel_rates; the sign of omega cancels the side.
            u0 = (r * u / 2.0 + r * u / d * d / 2.0) / r
            th0 = th

            v = r * u0 / 2.0
            dx1, dy1 = v * cos(th0), v * sin(th0)
            dth1, du1 = sr * u0 / d, (tau - b_w * u0) / m_eff
            th, u = th0 + half * dth1, u0 + half * du1
            v = r * u / 2.0
            dx2, dy2 = v * cos(th), v * sin(th)
            dth2, du2 = sr * u / d, (tau - b_w * u) / m_eff
            th, u = th0 + half * dth2, u0 + half * du2
            v = r * u / 2.0
            dx3, dy3 = v * cos(th), v * sin(th)
            dth3, du3 = sr * u / d, (tau - b_w * u) / m_eff
            th, u = th0 + dt * dth3, u0 + dt * du3
            v = r * u / 2.0
            dx4, dy4 = v * cos(th), v * sin(th)
            dth4, du4 = sr * u / d, (tau - b_w * u) / m_eff

            u = u0 + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
            if not u > 0.0:  # max(0.0, u), which also maps NaN to 0
                u = 0.0
            v = r * u / 2.0
            omega = sr * u / d
            x += sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
            y += sixth * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
            th = th0 + sixth * (dth1 + 2.0 * dth2 + 2.0 * dth3 + dth4)
            # The next substep starts from the free wheel's rate as the
            # VehicleState field would store it.
            u = (v - omega * d / 2.0) / r if right else (v + omega * d / 2.0) / r
    else:
        # Viscous braking: every wheel rolls, and an engaged brake adds its
        # b_max * rate to the rolling drag.
        try:
            (b_r, c_r), (b_l, c_l) = command.wheel_settings(params.b_max)
        except AttributeError:
            raise _not_a_maneuver(command) from None
        tau_r, tau_l = user.tau_r, user.tau_l
        held_r, held_l = (1.0 - c_r) * tau_r, (1.0 - c_l) * tau_l
        m, J, two_r = params.m, params.J, 2.0 * r
        v, omega = state.v, state.omega

        for _ in range(substeps):
            th0, v0, w0 = th, v, omega
            h = w0 * d / 2.0
            adr, adl = (v0 + h) / r, (v0 - h) / r
            tr = tau_r - b_r * adr - b_w * adr if adr != 0.0 else held_r
            tl = tau_l - b_l * adl - b_w * adl if adl != 0.0 else held_l
            dx1, dy1 = v0 * cos(th0), v0 * sin(th0)
            dv1, dw1 = (tr + tl) / r / m, (tr - tl) * d / two_r / J
            th, v2, w2 = th0 + half * w0, v0 + half * dv1, w0 + half * dw1
            h = w2 * d / 2.0
            adr, adl = (v2 + h) / r, (v2 - h) / r
            tr = tau_r - b_r * adr - b_w * adr if adr != 0.0 else held_r
            tl = tau_l - b_l * adl - b_w * adl if adl != 0.0 else held_l
            dx2, dy2 = v2 * cos(th), v2 * sin(th)
            dv2, dw2 = (tr + tl) / r / m, (tr - tl) * d / two_r / J
            th, v3, w3 = th0 + half * w2, v0 + half * dv2, w0 + half * dw2
            h = w3 * d / 2.0
            adr, adl = (v3 + h) / r, (v3 - h) / r
            tr = tau_r - b_r * adr - b_w * adr if adr != 0.0 else held_r
            tl = tau_l - b_l * adl - b_w * adl if adl != 0.0 else held_l
            dx3, dy3 = v3 * cos(th), v3 * sin(th)
            dv3, dw3 = (tr + tl) / r / m, (tr - tl) * d / two_r / J
            th, v4, w4 = th0 + dt * w3, v0 + dt * dv3, w0 + dt * dw3
            h = w4 * d / 2.0
            adr, adl = (v4 + h) / r, (v4 - h) / r
            tr = tau_r - b_r * adr - b_w * adr if adr != 0.0 else held_r
            tl = tau_l - b_l * adl - b_w * adl if adl != 0.0 else held_l
            dx4, dy4 = v4 * cos(th), v4 * sin(th)
            dv4, dw4 = (tr + tl) / r / m, (tr - tl) * d / two_r / J

            v = v0 + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            omega = w0 + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
            if v < 0.0:
                v = 0.0
            x += sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
            y += sixth * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
            th = th0 + sixth * (w0 + 2.0 * w2 + 2.0 * w3 + w4)

    return _new(
        VehicleState, (x, y, th, v, omega, (v + omega * d / 2.0) / r, (v - omega * d / 2.0) / r)
    )
