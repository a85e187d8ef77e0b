"""Unicycle cart dynamics with per-wheel quantized brakes.

The cart is a differential pair of rear wheels pushed by the user;
steering authority comes only from braking.  Each wheel's brake is either
fully released or fully engaged, which yields exactly four commands:
go straight, turn right, turn left, stop.  A fully braked wheel pins the
motion to a circle of radius ``R = d/2`` around that wheel.

Two stepping fidelities are provided.  ``step_kinematic`` takes the forward
speed as given and integrates the pose in closed form (exact lines and
arcs, no discretization drift).  ``step_dynamic`` integrates force/torque
balance, modeling brakes either as an instantaneous wheel lock or as a
strong viscous dissipator.  With both brakes released, and about a wheel
the instant brake model locks, the speed and yaw rate obey two linear ODEs,
which it solves in closed form; viscous braking is integrated with RK4.
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
        for name in ("m", "J", "d", "r", "b_w", "b_max"):
            if not getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

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


# Below this k * t, _relaxation sums psi as its series; at and above it,
# (t - phi) / k keeps psi to a relative error under 1e-15.
_PSI_SERIES_BELOW = 0.5


def _relaxation(k: float, t: float) -> tuple[float, float, float]:
    """``(exp(-k t), phi, psi)`` for a decay rate ``k >= 0`` over ``t > 0``.

    ``phi = (1 - exp(-k t)) / k`` is the integral of ``exp(-k s)`` over
    ``[0, t]`` and ``psi = (t - phi) / k`` the integral of ``phi``; at
    ``k = 0`` they are ``t`` and ``t**2 / 2``.  Below
    :data:`_PSI_SERIES_BELOW` the difference ``t - phi`` would cancel, so
    ``psi`` is the series ``t**2 * sum((-k t)**n / (n + 2)!)`` to ``n = 13``,
    whose first omitted term is under 1e-17 of the sum, and ``phi`` and the
    exponential follow from it without cancellation.  ``phi`` and ``psi``
    are within a few ulps of exact for every ``k`` from 0 to inf.
    """
    if k == 0.0:
        return 1.0, t, 0.5 * t * t
    u = k * t
    if u < _PSI_SERIES_BELOW:
        psi = t * t * (1 / 2 - u * (1 / 6 - u * (1 / 24 - u * (1 / 120 - u * (
            1 / 720 - u * (1 / 5040 - u * (1 / 40320 - u * (1 / 362880 - u * (
                1 / 3628800 - u * (1 / 39916800 - u * (1 / 479001600 - u * (
                    1 / 6227020800 - u * (1 / 87178291200 - u / 1307674368000)))))))))))))
        phi = t - k * psi
        return 1.0 - k * phi, phi, psi
    phi = -math.expm1(-u) / k
    return math.exp(-u), phi, (t - phi) / k


def _relaxation_substep(
    dt: float, a_v: float, k_v: float, a_w: float, k_w: float
) -> tuple[float, float, float, float, float, float, float, float, float, float]:
    """The coefficients of one closed-form substep of ``dt``.

    The speed obeys ``v' = a_v - k_v v`` and the yaw rate ``omega' = a_w -
    k_w omega``.  Over a time ``t`` the exact solution is ``v(t) = v E_v +
    a_v phi_v``, ``omega(t) = omega E_w + a_w phi_w`` and ``theta(t) = theta
    + (omega phi_w + a_w psi_w)``, with ``(E, phi, psi)`` from
    :func:`_relaxation`.  Returned, in order: ``E_v`` and ``a_v phi_v`` at
    the half step ``h`` and then at ``dt``; ``phi_w`` and ``a_w psi_w`` at
    ``h`` and then at ``dt``; ``E_w`` and ``a_w phi_w`` at ``dt``.  The
    values at ``h`` are doubled to ``dt`` by ``E(2h) = E(h)**2``, ``phi(2h)
    = (1 + E(h)) phi(h)`` and ``psi(2h) = (1 + E(h)) psi(h) + h phi(h)``,
    sums of nonnegative terms.
    """
    h = 0.5 * dt
    ev_h, fv_h, _ = _relaxation(k_v, h)
    ew_h, fw_h, gw_h = _relaxation(k_w, h)
    fw = (1.0 + ew_h) * fw_h
    return (
        ev_h, a_v * fv_h, ev_h * ev_h, a_v * ((1.0 + ev_h) * fv_h),
        fw_h, a_w * gw_h, fw, a_w * ((1.0 + ew_h) * gw_h + h * fw_h),
        ew_h * ew_h, a_w * fw,
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
    """Advance the full dynamic state by ``substeps`` fixed substeps of dt.

    ``brake_model="instant"`` locks a braked wheel immediately (snapping its
    spin rate to zero and projecting the body rates) and then integrates the
    remaining degree of freedom.  ``brake_model="viscous"`` keeps all wheels
    free and applies the engaged brake as a strong viscous torque, giving an
    exponential transient with time constants of order m r^2 / b_max and
    4 J r^2 / (b_max d^2); the wheels have no inertia of their own.  The
    forward speed is clamped nonnegative at the end of each substep;
    reverse motion is out of scope.

    The checks and constants are resolved once per call.  An instant Stop
    returns the pose at rest; any other command picks one of two loops,
    which run each substep on plain floats, and one ``VehicleState`` is
    built, at the end:

    - closed form, where only the rolling drag ``b_w * rate`` acts and ``v' =
      a_v - k_v v``, ``omega' = a_w - k_w omega``.  In free rolling
      (``go_straight``, under either brake model) ``a_v = (tau_r + tau_l) / (r
      m)``, ``k_v = 2 b_w / (r^2 m)``, ``a_w = (tau_r - tau_l) d / (2 r J)``
      and ``k_w = b_w d^2 / (2 r^2 J)``.  About a locked wheel
      (``brake_model="instant"``, a turn) the free wheel's rate u is the one
      degree of freedom left, with ``v = r u / 2`` and ``omega = sr u / d``
      (``sr`` is ``-r`` turning right and ``r`` turning left); energy gives
      ``m_eff u' = tau - b_w u``, with ``m_eff = m r^2 / 4 + J r^2 / d^2`` and
      ``tau`` the free wheel's torque, so ``k_v = k_w = b_w / m_eff``, ``a_v =
      r tau / (2 m_eff)`` and ``a_w = sr tau / (d m_eff)``.  There a substep
      opens by snapping the braked wheel to rest, with u read from ``(v,
      omega)`` as the stored field would give it, and closes at rest (v and
      omega zero) if u is not positive.  A substep moves v, omega and theta to
      their exact solution, for every finite ``b_w >= 0``, and x and y by
      Simpson's rule (RK4's 1-4-1 weights) on exact samples at 0, dt/2 and dt;
      a substep's closing cosine and sine open the next one.  The coefficients
      come from :func:`_relaxation_substep`, once per call.  Simpson's error
      is ``dt^5 / 2880 max|f^(4)|`` while the substep resolves the relaxation
      (``k dt`` well below 1) and never exceeds ``2 dt max|v|``: over a 10 ms
      control step of ten free-rolling substeps from 0.5 m/s, x and y are off
      by 4e-19 m at the default ``b_w`` of 0.05, 9e-12 m at 5 and 1e-5 m at
      500 N m s;
    - viscous braking (``brake_model="viscous"``, a turn or Stop): RK4, with
      each wheel's torque carrying its brake's ``b_brake * rate`` beside the
      rolling drag, and a braked wheel at rest held.

    In the RK4 loop each expression keeps the operand order of
    :func:`wheel_rates` and of the textbook per-wheel torque and wrench
    formulas, so every substep is bitwise an RK4 step built from those
    formulas one derivative call per stage, as the reference in
    ``tests/test_dynamics.py`` builds it.  In every loop a substep reads
    only what the stored ``VehicleState`` holds, so one call with
    ``substeps=n`` equals ``n`` chained calls bit for bit.  A command that
    is not a :class:`Maneuver` member raises TypeError.
    """
    if not 0.0 < dt < math.inf:
        raise NonPositiveDt(f"dt={dt}")
    if brake_model not in ("instant", "viscous"):
        raise ValueError(f"unknown brake model {brake_model!r}")
    if type(substeps) is not int or substeps < 1:
        raise ValueError(f"substeps must be an int >= 1, got {substeps!r}")
    x, y, th = state.x, state.y, state.theta
    v, omega = state.v, state.omega
    r, d, b_w = params.r, params.d, params.b_w
    sixth = dt / 6.0
    cos, sin = math.cos, math.sin

    if command is _GO or brake_model == "instant":
        if command is _GO:
            sr = 0.0
            tau_r, tau_l, m, J = user.tau_r, user.tau_l, params.m, params.J
            a_v, k_v = (tau_r + tau_l) / r / m, 2.0 * b_w / (r * r) / m
            a_w, k_w = (tau_r - tau_l) * d / (2.0 * r) / J, b_w * (d * d) / (2.0 * (r * r)) / J
        else:
            if command is _RIGHT:
                sr, tau = -r, user.tau_l
            elif command is _LEFT:
                sr, tau = r, user.tau_r
            elif command is _STOP:
                return _new(VehicleState, (x, y, th, 0.0, 0.0, 0.0, 0.0))
            else:
                raise _not_a_maneuver(command)
            m_eff = params.m * (r * r) / 4.0 + params.J * (r * r) / (d * d)
            a_v, a_w = r * tau / (2.0 * m_eff), sr * tau / (d * m_eff)
            k_v = k_w = b_w / m_eff
        ev_h, cv_h, ev, cv, pw_h, qw_h, pw, qw, ew, cw = _relaxation_substep(
            dt, a_v, k_v, a_w, k_w
        )
        cos0, sin0 = cos(th), sin(th)

        for _ in range(substeps):
            if sr:
                # Snap the braked wheel to rest: read the free wheel's rate
                # as the VehicleState field would store it, and back through
                # wheel_rates; the sign of omega cancels the side.
                h = omega * d / 2.0
                u = (v - h) / r if sr < 0.0 else (v + h) / r
                u = (r * u / 2.0 + r * u / d * d / 2.0) / r
                v, omega = r * u / 2.0, sr * u / d
            v_h, v_1 = v * ev_h + cv_h, v * ev + cv
            th_h, th = th + (omega * pw_h + qw_h), th + (omega * pw + qw)
            cos_h, sin_h, cos1, sin1 = cos(th_h), sin(th_h), cos(th), sin(th)
            x += sixth * (v * cos0 + 4.0 * v_h * cos_h + v_1 * cos1)
            y += sixth * (v * sin0 + 4.0 * v_h * sin_h + v_1 * sin1)
            omega = omega * ew + cw
            v = v_1
            if sr:
                if not v > 0.0:  # u <= 0, or NaN: at rest about the locked wheel
                    v, omega = 0.0, sr * 0.0  # the signed zero of sr u / d at u = 0
            elif v < 0.0:
                v = 0.0
            # The next substep opens at this one's heading.
            cos0, sin0 = cos1, sin1
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
        half = 0.5 * dt

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
