import math
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from brakesteer.dynamics import (
    Maneuver,
    NonPositiveDt,
    UserInput,
    VehicleParams,
    VehicleState,
    _relaxation,
    step_dynamic,
    step_kinematic,
    wheel_rates,
)

PARAMS = VehicleParams()


# -- the wheel-torque and wrench formulas of the RK4 reference ---------------


def torques_to_wrench(tau_r: float, tau_l: float, params: VehicleParams) -> tuple[float, float]:
    """Map wheel torques to body force and yaw torque."""
    force = (tau_r + tau_l) / params.r
    torque = (tau_r - tau_l) * params.d / (2.0 * params.r)
    return force, torque


def wrench_to_torques(force: float, torque: float, params: VehicleParams) -> tuple[float, float]:
    """Exact inverse of :func:`torques_to_wrench`."""
    tau_r = (force * params.r + 2.0 * torque * params.r / params.d) / 2.0
    tau_l = (force * params.r - 2.0 * torque * params.r / params.d) / 2.0
    return tau_r, tau_l


def effective_wheel_torque(
    tau_h: float,
    brake: tuple[float, float],
    alpha_dot: float,
    params: VehicleParams,
) -> float:
    """Net torque on one wheel given its brake setting ``(b_brake, c_hold)``.

    A spinning wheel sees the user torque minus brake and rolling viscous
    drag.  A wheel at rest is held by the engaged brake (the holding torque
    cancels the user torque), or passes the user torque through when free.
    """
    b_brake, c_hold = brake
    if alpha_dot != 0.0:
        return tau_h - b_brake * alpha_dot - params.b_w * alpha_dot
    return (1.0 - c_hold) * tau_h


def state_at(v=1.0, omega=0.0, x=0.0, y=0.0, theta=0.0, params=PARAMS):
    return VehicleState.from_body_rates(x, y, theta, v, omega, params)


# -- torque/wrench map -------------------------------------------------------


def test_wrench_symmetric_push():
    p = VehicleParams(r=0.1, d=0.5)
    assert torques_to_wrench(1.0, 1.0, p) == pytest.approx((20.0, 0.0))


def test_wrench_pure_twist():
    p = VehicleParams(r=0.1, d=0.5)
    assert torques_to_wrench(1.0, -1.0, p) == pytest.approx((0.0, 5.0))


@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
)
def test_wrench_round_trip(tau_r, tau_l):
    f, n = torques_to_wrench(tau_r, tau_l, PARAMS)
    back = wrench_to_torques(f, n, PARAMS)
    assert back == pytest.approx((tau_r, tau_l), abs=1e-9)


def test_effective_wheel_torque_cases():
    p = VehicleParams(b_w=0.1)
    free, full = (0.0, 0.0), (p.b_max, 1.0)
    assert effective_wheel_torque(2.0, free, 0.0, p) == 2.0
    assert effective_wheel_torque(2.0, full, 0.0, p) == 0.0  # brake holds the wheel
    assert effective_wheel_torque(2.0, free, 3.0, p) == pytest.approx(1.7)


def test_brake_command_has_exactly_four_actions():
    assert {m for m in Maneuver} == {
        Maneuver.GO_STRAIGHT, Maneuver.TURN_RIGHT, Maneuver.TURN_LEFT, Maneuver.STOP
    }
    settings = {m.wheel_settings(PARAMS.b_max) for m in Maneuver}
    assert len(settings) == 4
    for (b_r, c_r), (b_l, c_l) in settings:
        assert b_r in (0.0, PARAMS.b_max) and b_l in (0.0, PARAMS.b_max)
        assert c_r in (0.0, 1.0) and c_l in (0.0, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(m=0.0)
    with pytest.raises(ValueError):
        VehicleParams(b_w=-0.1)
    assert VehicleParams(d=0.6).R == 0.3


@pytest.mark.parametrize("name", ["m", "J", "d", "r", "b_w", "b_max"])
def test_params_reject_an_infinite_value(name):
    # b_w = inf used to end a dynamic run after two rows on a non-finite
    # state, and m = inf to run on to t_max.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        VehicleParams(**{name: math.inf})


@pytest.mark.parametrize("d", [5e-324, 0.0])
def test_params_reject_a_d_whose_half_is_not_positive(d):
    # 5e-324 is positive, yet R = d / 2 rounds to 0.  The message names d,
    # the key a scenario gives, and not the controller radius that R sets.
    with pytest.raises(ValueError) as exc:
        VehicleParams(d=d)
    assert str(exc.value).startswith("d must be ")
    assert "radius" not in str(exc.value)
    assert VehicleParams(d=1e-323).R == 5e-324


# -- kinematic stepping -------------------------------------------------------


def test_straight_step():
    s = step_kinematic(state_at(), Maneuver.GO_STRAIGHT, 1.0, 1.0, PARAMS)
    assert (s.x, s.y, s.theta) == pytest.approx((1, 0, 0))
    assert s.omega == 0.0


def test_left_turn_quarter_circle():
    p = VehicleParams(d=1.0)  # R = 0.5
    s = step_kinematic(state_at(params=p), Maneuver.TURN_LEFT, 1.0, math.pi / 4, p)
    assert s.theta == pytest.approx(math.pi / 2)
    assert (s.x, s.y) == pytest.approx((0.5, 0.5))


def test_turn_right_is_clockwise():
    s = step_kinematic(state_at(), Maneuver.TURN_RIGHT, 1.0, 0.1, PARAMS)
    assert s.theta < 0.0
    assert s.omega == pytest.approx(-1.0 / PARAMS.R)


def test_stop_is_idempotent_and_freezes_pose():
    s0 = state_at(v=1.3, omega=0.4, x=2.0, y=-1.0, theta=0.7)
    s1 = step_kinematic(s0, Maneuver.STOP, 1.0, 5.0, PARAMS)
    s2 = step_kinematic(s1, Maneuver.STOP, 1.0, 5.0, PARAMS)
    assert (s1.x, s1.y, s1.theta) == (2.0, -1.0, 0.7)
    assert s1.v == s1.omega == 0.0
    assert s1 == s2


def test_single_wheel_circle_closes_to_nanometers():
    v = 1.0
    n = 1000
    dt = 2 * math.pi * PARAMS.R / v / n
    s = state_at(v=v, x=0.3, y=-1.2, theta=0.7)
    for _ in range(n):
        s = step_kinematic(s, Maneuver.TURN_LEFT, v, dt, PARAMS)
    assert math.hypot(s.x - 0.3, s.y + 1.2) < 1e-9
    assert s.theta == pytest.approx(0.7 + 2 * math.pi, abs=1e-9)


def test_wheel_rates_stay_consistent():
    s = state_at(v=1.0)
    for cmd in (Maneuver.TURN_LEFT, Maneuver.GO_STRAIGHT, Maneuver.TURN_RIGHT):
        s = step_kinematic(s, cmd, 1.0, 0.02, PARAMS)
        assert s.rates_consistent(PARAMS)


def test_nonpositive_dt_rejected():
    with pytest.raises(NonPositiveDt):
        step_kinematic(state_at(), Maneuver.GO_STRAIGHT, 1.0, 0.0, PARAMS)
    with pytest.raises(NonPositiveDt):
        step_dynamic(state_at(), Maneuver.GO_STRAIGHT, UserInput(), -0.1, PARAMS)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_nonfinite_dt_rejected(dt):
    # A NaN dt used to pass the guard and return an all-NaN state.
    with pytest.raises(NonPositiveDt):
        step_kinematic(state_at(), Maneuver.TURN_LEFT, 1.0, dt, PARAMS)
    for model in ("instant", "viscous"):
        with pytest.raises(NonPositiveDt):
            step_dynamic(state_at(), Maneuver.GO_STRAIGHT, UserInput(), dt, PARAMS, model)


@pytest.mark.parametrize("command", [None, "turn_left"])
@pytest.mark.parametrize("model", ["kinematic", "instant", "viscous"])
def test_a_command_that_is_no_maneuver_raises_type_error(model, command):
    # Such a command used to turn left (kinematic, instant) or go straight.
    with pytest.raises(TypeError, match=repr(command)):
        if model == "kinematic":
            step_kinematic(state_at(v=1.0), command, 1.0, 0.01, PARAMS)
        else:
            step_dynamic(state_at(v=1.0), command, UserInput(0.1, 0.1), 1e-3, PARAMS, model)


@pytest.mark.parametrize("substeps", [0, -1, 2.0])
def test_step_dynamic_rejects_bad_substeps(substeps):
    # substeps=0 would otherwise hand the state back unchanged.
    with pytest.raises(ValueError, match="substeps"):
        step_dynamic(state_at(), Maneuver.GO_STRAIGHT, UserInput(), 1e-3, PARAMS,
                     "viscous", substeps)


def test_step_dynamic_names_an_unknown_brake_model():
    # A scenario's brake_model is checked by validate; a library call is
    # checked here, before any state is touched.
    with pytest.raises(ValueError, match="unknown brake model 'bogus'"):
        step_dynamic(state_at(), Maneuver.GO_STRAIGHT, UserInput(), 1e-3, PARAMS,
                     brake_model="bogus")


# -- dynamic stepping ---------------------------------------------------------


def test_free_rolling_closed_form():
    # Equal constant torques, no rolling resistance: v(T) = 2 tau T / (r m).
    p = VehicleParams(b_w=0.0)
    tau0, T, n = 0.4, 2.0, 2000
    s = state_at(v=0.0, params=p)
    for _ in range(n):
        s = step_dynamic(s, Maneuver.GO_STRAIGHT, UserInput(tau0, tau0), T / n, p, "viscous")
    assert s.v == pytest.approx(2 * tau0 * T / (p.r * p.m), rel=1e-9)
    assert s.omega == pytest.approx(0.0, abs=1e-12)


def test_full_brake_decay_matches_dense_reference():
    p = VehicleParams()
    cmd = Maneuver.STOP

    def integrate(dt, T=0.05):
        s = state_at(v=1.5, params=p)
        vs = [s.v]
        for _ in range(round(T / dt)):
            s = step_dynamic(s, cmd, UserInput(), dt, p, "viscous")
            vs.append(s.v)
        return s, vs

    coarse, vs = integrate(1e-3)
    fine, _ = integrate(1e-5)
    assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))  # monotone decay
    assert coarse.v == pytest.approx(fine.v, abs=1e-6)
    assert math.hypot(coarse.x - fine.x, coarse.y - fine.y) < 1e-6
    # pose change bounded by v0 * settling scale
    assert math.hypot(coarse.x, coarse.y) < 1.5 * 0.05


def test_rk4_richardson_ratio():
    p = VehicleParams(b_max=2.0)
    user = UserInput(0.3, 0.25)

    def final(dt, T=1.0):
        s = VehicleState.from_body_rates(0, 0, 0.2, 1.2, 0.3, p)
        for _ in range(round(T / dt)):
            s = step_dynamic(s, Maneuver.TURN_RIGHT, user, dt, p, "viscous")
        return np.array([s.x, s.y, s.theta, s.v, s.omega])

    a, b, c = final(0.01), final(0.005), final(0.0025)
    ratio = np.max(np.abs(a - b)) / np.max(np.abs(b - c))
    assert 16 * 0.7 <= ratio <= 16 * 1.3


@pytest.mark.parametrize("model", ["viscous", "instant"])
# The ids stay the positional ones the suite has always printed.
@pytest.mark.parametrize("cmd", list(Maneuver), ids=[f"cmd{i}" for i in range(4)])
def test_braking_dissipates_energy(model, cmd):
    p = VehicleParams(b_max=2.0)
    s = VehicleState.from_body_rates(0, 0, 0, 1.5, 0.8, p)
    e = s.kinetic_energy(p)
    for _ in range(500):
        s = step_dynamic(s, cmd, UserInput(), 1e-3, p, model)
        e2 = s.kinetic_energy(p)
        assert e2 <= e + 1e-12
        e = e2


def test_instant_lock_traces_fixed_radius():
    # With the right wheel locked the body rates satisfy omega = -v / R.
    s = state_at(v=1.0)
    for _ in range(200):
        s = step_dynamic(s, Maneuver.TURN_RIGHT, UserInput(0.5, 0.5), 1e-3, PARAMS)
        if s.v > 0:
            assert s.omega == pytest.approx(-s.v / PARAMS.R, rel=1e-12)
        assert s.alpha_dot_r == pytest.approx(0.0, abs=1e-12)


def test_forward_speed_clamped_nonnegative():
    p = VehicleParams(b_w=0.0)
    s = state_at(v=0.05, params=p)
    for _ in range(200):
        s = step_dynamic(s, Maneuver.GO_STRAIGHT, UserInput(-2.0, -2.0), 1e-2, p, "viscous")
        assert s.v >= 0.0
    assert s.v == 0.0


# -- bitwise oracle for the RK4 step -------------------------------------------


def _reference_rk4(vec, deriv, dt):
    k1 = deriv(vec)
    k2 = deriv([a + 0.5 * dt * b for a, b in zip(vec, k1)])
    k3 = deriv([a + 0.5 * dt * b for a, b in zip(vec, k2)])
    k4 = deriv([a + dt * b for a, b in zip(vec, k3)])
    return [
        a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(vec, k1, k2, k3, k4)
    ]


def reference_step_dynamic(state, command, user, dt, p, brake_model):
    """RK4 step assembled from the public helpers, one derivative call per stage."""
    if brake_model == "instant" and command is not Maneuver.GO_STRAIGHT:
        if command is Maneuver.STOP:
            return VehicleState(state.x, state.y, state.theta, 0.0, 0.0, 0.0, 0.0)
        right = command is Maneuver.TURN_RIGHT
        sign = -1.0 if right else 1.0
        u = state.alpha_dot_l if right else state.alpha_dot_r
        # Lock the braked wheel: body rates from the free wheel, then the
        # free wheel's rate read back from the body rates.
        adr, adl = wheel_rates(p.r * u / 2.0, sign * p.r * u / p.d, p)
        u = adl if right else adr
        tau = user.tau_l if right else user.tau_r
        m_eff = p.m * (p.r * p.r) / 4.0 + p.J * (p.r * p.r) / (p.d * p.d)

        def locked(w):
            v = p.r * w[3] / 2.0
            return [v * math.cos(w[2]), v * math.sin(w[2]), sign * p.r * w[3] / p.d,
                    (tau - p.b_w * w[3]) / m_eff]

        x, y, th, u = _reference_rk4([state.x, state.y, state.theta, u], locked, dt)
        u = max(0.0, u)
        return VehicleState.from_body_rates(x, y, th, p.r * u / 2.0, sign * p.r * u / p.d, p)

    brake_r, brake_l = command.wheel_settings(p.b_max)

    def free(w):
        adr, adl = wheel_rates(w[3], w[4], p)
        force, torque = torques_to_wrench(
            effective_wheel_torque(user.tau_r, brake_r, adr, p),
            effective_wheel_torque(user.tau_l, brake_l, adl, p),
            p,
        )
        return [w[3] * math.cos(w[2]), w[3] * math.sin(w[2]), w[4], force / p.m, torque / p.J]

    x, y, th, v, omega = _reference_rk4(
        [state.x, state.y, state.theta, state.v, state.omega], free, dt
    )
    return VehicleState.from_body_rates(x, y, th, 0.0 if v < 0.0 else v, omega, p)


# 0 reaches the holding branch.  Near rest the RK4 increment is as large as
# the state itself, so a change of summation order shows in the last bit.
RATE = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-2.0, 2.0))
# On this axle the locked-wheel snap of an already snapped rate moves it
# again for about one rate in 200.
NARROW_AXLE = VehicleParams(d=0.45)
STEP_DRAWS = dict(
    action=st.sampled_from(list(Maneuver)),
    brake_model=st.sampled_from(["instant", "viscous"]),
    dt=st.floats(1e-4, 2e-2),
    pose=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-4.0, 4.0)),
    v=RATE,
    omega=RATE,
    torques=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    params=st.sampled_from(
        [PARAMS, VehicleParams(b_w=0.0, b_max=2.0, d=0.5, r=0.15), NARROW_AXLE]
    ),
)
BRAKED = [Maneuver.TURN_RIGHT, Maneuver.TURN_LEFT, Maneuver.STOP]


@settings(max_examples=500)
# Free rolling is not RK4: test_free_rolling_matches_exact_solution holds it.
@given(**{**STEP_DRAWS, "action": st.sampled_from(BRAKED)})
# A push from rest: the braked wheel takes the holding branch.
@example(Maneuver.TURN_RIGHT, "viscous", 1e-3, (0.0, 0.0, 0.0), 0.0, 0.0, (-1.0, 1.0), PARAMS)
@example(Maneuver.TURN_LEFT, "instant", 1e-2, (1.0, 2.0, 0.5), 0.0, 0.0, (-1.0, -1.0), PARAMS)
# Locking a wheel at 0.95 m/s: the snap moves the free wheel's rate by one bit.
@example(Maneuver.TURN_LEFT, "instant", 1e-3, (0.0, 0.0, 0.0), 0.95, 0.0, (0.1, 0.1), PARAMS)
def test_step_dynamic_matches_helper_reference_bitwise(
    action, brake_model, dt, pose, v, omega, torques, params
):
    state = VehicleState.from_body_rates(*pose, v, omega, params)
    args = (state, action, UserInput(*torques), dt, params, brake_model)
    assert step_dynamic(*args) == reference_step_dynamic(*args)


@settings(max_examples=500)
@given(n=st.sampled_from([1, 2, 3, 10, 25]), **STEP_DRAWS)
# Locking a wheel at 0.95 m/s: the snap moves the free wheel's rate by one bit.
@example(Maneuver.TURN_LEFT, "instant", 10, 1e-3, (0.0, 0.0, 0.0), 0.95, 0.0, (0.1, 0.1), PARAMS)
# On NARROW_AXLE a loop that snaps only once, or carries u instead of reading
# it back from (v, omega), drifts from the chained calls.
@example(Maneuver.TURN_LEFT, "instant", 10, 1e-3, (0.0, 0.0, 0.0), 0.95, 0.0, (0.1, 0.1),
         NARROW_AXLE)
# A push from rest: the braked wheel takes the holding branch.
@example(Maneuver.TURN_RIGHT, "viscous", 10, 1e-3, (0.0, 0.0, 0.0), 0.0, 0.0, (-1.0, 1.0), PARAMS)
# Rolling slowly against a backward push: the v < 0 clamp is reached mid-sequence.
@example(Maneuver.GO_STRAIGHT, "viscous", 25, 1e-3, (0.0, 0.0, 0.0), 0.005, 0.0, (-1.0, -1.0),
         PARAMS)
# Free rolling from rest under a -0.0 torque, whose sign the free wheel keeps.
@example(Maneuver.GO_STRAIGHT, "instant", 10, 1e-3, (0.0, 0.0, 0.0), 0.0, 0.0, (-0.0, -0.0),
         PARAMS)
# Free rolling with the right wheel exactly at rest while the left one spins.
@example(Maneuver.GO_STRAIGHT, "viscous", 10, 1e-3, (0.0, 0.0, 0.0), 0.3, -1.0, (0.2, 0.1),
         PARAMS)
def test_substeps_equal_chained_calls_bitwise(
    action, brake_model, n, dt, pose, v, omega, torques, params
):
    state = VehicleState.from_body_rates(*pose, v, omega, params)
    command, user = action, UserInput(*torques)
    chained = state
    for _ in range(n):
        chained = step_dynamic(chained, command, user, dt, params, brake_model)
    looped = step_dynamic(state, command, user, dt, params, brake_model, n)
    assert [f.hex() for f in looped] == [f.hex() for f in chained]


@settings(max_examples=300)
@given(n=st.sampled_from([1, 2, 10]),
       **{k: v for k, v in STEP_DRAWS.items() if k not in ("action", "brake_model")})
@example(10, 1e-3, (0.0, 0.0, 0.0), 0.0, 0.0, (-0.0, -0.0), PARAMS)
@example(10, 1e-3, (0.0, 0.0, 0.0), 0.3, -1.0, (0.2, 0.1), PARAMS)
def test_go_straight_is_the_same_under_either_brake_model_bitwise(
    n, dt, pose, v, omega, torques, params
):
    # No brake is engaged, so the brake model has nothing to model.
    state = VehicleState.from_body_rates(*pose, v, omega, params)
    user = UserInput(*torques)
    instant, viscous = (step_dynamic(state, Maneuver.GO_STRAIGHT, user, dt, params, model, n)
                        for model in ("instant", "viscous"))
    assert [f.hex() for f in instant] == [f.hex() for f in viscous]


@pytest.mark.parametrize("model", ["instant", "viscous"])
def test_an_overflowing_wheel_rate_leaves_a_nonfinite_state(model):
    # At 1e308 m/s the wheel rates overflow to inf.  The helper reference's
    # released brake then gives a torque of 0.0 * inf = NaN, where free
    # rolling, which leaves that term out, gives -inf.  This is the one way
    # the two torques differ, and either step ends non-finite, so a run
    # stops on either.
    state = state_at(v=1e308)
    args = (state, Maneuver.GO_STRAIGHT, UserInput(0.1, 0.1), 1e-3, PARAMS, model)
    for result in (step_dynamic(*args), reference_step_dynamic(*args)):
        assert not all(math.isfinite(f) for f in result)


# -- exact-solution oracle for free rolling ------------------------------------


def exact_relaxation(k, s):
    """``(exp(-k s), phi, psi)`` in Decimal to the context's precision, with
    ``phi = (1 - exp(-k s)) / k`` and ``psi = (s - phi) / k``: the working
    precision is raised by the digits the two differences cancel."""
    if not k:
        return Decimal(1), s, s * s / 2
    with localcontext(prec=getcontext().prec + 5 + max(0, -2 * (k * s).adjusted())):
        e = (-k * s).exp()
        phi = (1 - e) / k
        return e, phi, (s - phi) / k


@pytest.mark.parametrize("u", [1e-300, 1e-30, 1e-3, 0.25, 0.4999, 0.5, 2.0, 50.0])
def test_relaxation_terms_are_within_a_few_ulps(u):
    # On either side of the series threshold (0.5), and far from it.
    t = 1e-3
    k = u / t
    got = _relaxation(k, t)
    with localcontext(prec=40):
        want = exact_relaxation(Decimal(k), Decimal(t))
    assert abs(Decimal(got[0]) - want[0]) <= Decimal(4 * 2.0**-53)
    for g, w in zip(got[1:], want[1:]):
        assert abs(Decimal(g) - w) <= Decimal(4 * 2.0**-53) * w


def exact_free_rolling(state, user, p):
    """The exact free-rolling solution from ``state``: a function from a time
    ``s`` to ``(v, omega, theta)`` in Decimal to 40 digits, ``v`` before the
    ``v >= 0`` clamp, and the floats ``(a_v, k_v, a_w, k_w)`` of
    ``v' = a_v - k_v v`` and ``omega' = a_w - k_w omega``."""
    with localcontext(prec=80):
        r, m, J, d, b_w, tau_r, tau_l = map(
            Decimal, (p.r, p.m, p.J, p.d, p.b_w, user.tau_r, user.tau_l)
        )
        a_v, k_v = (tau_r + tau_l) / (r * m), 2 * b_w / (r * r * m)
        a_w, k_w = (tau_r - tau_l) * d / (2 * r * J), b_w * d * d / (2 * r * r * J)
    v0, w0, th0 = map(Decimal, (state.v, state.omega, state.theta))

    def at(s):
        with localcontext(prec=40):
            s = Decimal(s)
            ev, fv, _ = exact_relaxation(k_v, s)
            ew, fw, gw = exact_relaxation(k_w, s)
            return v0 * ev + a_v * fv, w0 * ew + a_w * fw, th0 + w0 * fw + a_w * gw

    return at, tuple(map(float, (a_v, k_v, a_w, k_w)))


def assert_free_rolling_exact(got, state, user, p, dt, n, quad):
    """``got``, ``n`` free-rolling substeps of ``dt`` from ``state``, against
    the exact solution.

    v, omega and theta are within 4 ulps per substep of their exact
    solution's largest term plus the smallest normal float, whose ulp is the
    spacing of the subnormals.  x and y are within that of ``x0 + change``,
    where ``change`` is ``quad`` of the exact integrand ``v cos(theta)`` (or
    ``sin``), plus quad's error estimate and, per substep, Simpson's error
    bound ``dt**5 / 2880 * max|f^(4)|``, with ``max|f^(4)|`` bounded
    by Leibniz and Faa di Bruno from ``v' = a_v - k_v v`` and ``theta'' =
    a_w - k_w omega``.  No 1-4-1 rule is off by more than ``2 dt max|v|``, so
    a substep that a drag stiffer than it does not resolve is held to that.
    """
    at, (a_v, k_v, a_w, k_w) = exact_free_rolling(state, user, p)
    T = n * dt
    ulps = 4 * n * 2.0**-52
    tiny = 2.0**-1022
    v_max, w_max = abs(state.v) + abs(a_v) * T, abs(state.omega) + abs(a_w) * T
    dv, dw = abs(a_v) + k_v * v_max, abs(a_w) + k_w * w_max  # |v'|, |theta''|
    speed = [v_max, dv, k_v * dv, k_v * k_v * dv, k_v * k_v * k_v * dv]
    trig = [1.0, w_max, w_max * w_max + dw, w_max * (w_max * w_max + 3 * dw) + k_w * dw,
            w_max * w_max * (w_max * w_max + 6 * dw) + 3 * dw * dw + 4 * w_max * k_w * dw
            + k_w * k_w * dw]
    f4 = sum(math.comb(4, j) * speed[j] * trig[4 - j] for j in range(5))
    simpson = min(dt**5 / 2880 * f4, 2 * dt * v_max)

    v, omega, theta = at(T)
    assert abs(Decimal(got.v) - max(v, Decimal(0))) <= Decimal(ulps * (v_max + tiny))
    assert abs(Decimal(got.omega) - omega) <= Decimal(ulps * (w_max + tiny))
    theta_scale = abs(state.theta) + w_max * T + tiny
    assert abs(Decimal(got.theta) - theta) <= Decimal(ulps * theta_scale)
    for value, start, trig_of in ((got.x, state.x, math.cos), (got.y, state.y, math.sin)):

        def rate(s):
            v_s, _, theta_s = at(s)
            return float(v_s) * trig_of(float(theta_s))

        change, err = quad(rate, 0.0, T, epsabs=1e-17, limit=200,
                           points=[i * dt for i in range(1, n)] or None)
        tol = ulps * (abs(start) + v_max * T + tiny) + err + n * simpson
        assert abs(value - (start + change)) <= tol


# No deadline: the first example imports scipy.integrate.
@settings(max_examples=300, deadline=None)
@given(**{k: v for k, v in STEP_DRAWS.items() if k != "action"})
# Both wheels at rest under a push: the v < 0 clamp.
@example("viscous", 1e-3, (0.0, 0.0, 0.0), 0.0, 0.0, (-1.0, -1.0), PARAMS)
# From rest under a -0.0 torque.
@example("instant", 1e-3, (0.0, 0.0, 0.0), 0.0, 0.0, (-0.0, -0.0), PARAMS)
# With the right wheel exactly at rest (0.3 - 1.0 * 0.6 / 2 = 0) while the
# left one spins.
@example("viscous", 1e-3, (0.0, 0.0, 0.0), 0.3, -1.0, (0.2, 0.1), PARAMS)
def test_free_rolling_matches_exact_solution(brake_model, dt, pose, v, omega, torques, params):
    quad = pytest.importorskip("scipy.integrate").quad
    state = VehicleState.from_body_rates(*pose, v, omega, params)
    user = UserInput(*torques)
    got = step_dynamic(state, Maneuver.GO_STRAIGHT, user, dt, params, brake_model)
    assert_free_rolling_exact(got, state, user, params, dt, 1, quad)


# 0 takes the k = 0 limit, 1e-300 to 25 the heading integral's series (at
# 1e-30 and 1e-12 its difference form would cancel; at 25, k_w dt / 2 is
# 0.225, where its higher terms count), 1e6 and 1e300 the general form,
# where a wheel stops within a small part of one substep.
@pytest.mark.parametrize("b_w", [0.0, 1e-300, 1e-30, 1e-12, 0.05, 25.0, 1e6, 1e300])
def test_free_rolling_stays_exact_across_the_drag_range(b_w):
    quad = pytest.importorskip("scipy.integrate").quad
    p = VehicleParams(b_w=b_w)
    state = VehicleState.from_body_rates(1.0, 2.0, 0.7, 0.5, 0.3, p)
    user = UserInput(0.3, 0.1)
    got = step_dynamic(state, Maneuver.GO_STRAIGHT, user, 1e-3, p, "instant", 10)
    assert all(math.isfinite(f) for f in got)
    assert_free_rolling_exact(got, state, user, p, 1e-3, 10, quad)


# -- bitwise oracle for the kinematic step -------------------------------------


def reference_step_kinematic(state, command, v_user, dt, params):
    """step_kinematic as it was written when it built its result through
    VehicleState.from_body_rates (and so through wheel_rates)."""
    if not 0.0 < dt < math.inf:
        raise NonPositiveDt(f"dt={dt}")
    if command is Maneuver.STOP:
        return VehicleState(state.x, state.y, state.theta, 0.0, 0.0, 0.0, 0.0)
    v = max(0.0, v_user)
    if command is Maneuver.GO_STRAIGHT:
        omega = 0.0
        x = state.x + v * dt * math.cos(state.theta)
        y = state.y + v * dt * math.sin(state.theta)
        theta = state.theta
    else:
        sign = -1.0 if command is Maneuver.TURN_RIGHT else 1.0
        omega = sign * v / params.R
        theta = state.theta + omega * dt
        if v > 0.0:
            rho = v / omega
            x = state.x + rho * (math.sin(theta) - math.sin(state.theta))
            y = state.y - rho * (math.cos(theta) - math.cos(state.theta))
        else:
            x, y = state.x, state.y
            theta = state.theta
            omega = 0.0
    return VehicleState.from_body_rates(x, y, theta, v, omega, params)


KINEMATIC_PARAMS = [PARAMS, VehicleParams(d=0.45, r=0.15), VehicleParams(d=1.3, r=0.07)]
# Below zero (the clamp, a signed zero and NaN included), at zero and above.
V_USER = st.one_of(
    st.floats(-5.0, -1e-300), st.sampled_from([0.0, -0.0, math.nan]), st.floats(1e-300, 5.0)
)
# From the smallest positive float to a step that turns far past 0.5 rad.
DT = st.one_of(st.floats(5e-324, 1e-6), st.floats(1e-6, 1.0))
HEADING = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e4, 1e4))
# Near the origin a last-bit change of a step's increment shows in the sum.
COORD = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-1e3, 1e3))


@settings(max_examples=1000)
@given(
    action=st.sampled_from(list(Maneuver)),
    v_user=V_USER,
    dt=DT,
    pose=st.tuples(COORD, COORD, HEADING),
    rates=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    params=st.sampled_from(KINEMATIC_PARAMS),
)
# A turn at the validation limit, from a heading beyond pi, and a signed zero.
@example(Maneuver.TURN_RIGHT, 1.0, 0.15, (1.0, 2.0, 7.5), (0.0, 0.0), PARAMS)
@example(Maneuver.TURN_LEFT, -0.0, 0.01, (0.0, 0.0, -3.5), (1.0, 0.5), PARAMS)
@example(Maneuver.GO_STRAIGHT, 1.0, 5e-324, (-0.0, 0.0, -1e4), (0.0, 0.0), PARAMS)
def test_step_kinematic_matches_body_rate_reference_bitwise(
    action, v_user, dt, pose, rates, params
):
    state = VehicleState.from_body_rates(*pose, *rates, params)
    args = (state, action, v_user, dt, params)
    got, want = step_kinematic(*args), reference_step_kinematic(*args)
    assert [f.hex() for f in got] == [f.hex() for f in want]
