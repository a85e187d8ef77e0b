import math
import pickle
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from brakesteer.controller import (
    _approach_step,
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
from brakesteer.analysis import FieldSample, GridSpec, field_dump
from brakesteer.dynamics import (
    Maneuver, VehicleParams, VehicleState, step_kinematic,
)
from brakesteer.path_geometry import FrenetState, build_path, wrap_angle

PI = math.pi


@pytest.mark.parametrize("member", [*Maneuver, *Phase, *HybridState, *Region], ids=str)
def test_label_is_the_value_as_a_plain_attribute(member):
    # run reads three labels per trace row: each is the member's own
    # attribute, not a property over the Enum value.
    assert member.label == member.value
    assert isinstance(member.label, str)
    assert vars(member)["label"] is member.label
    loaded = pickle.loads(pickle.dumps(member))
    assert loaded is member
    assert loaded.label == member.value


def cfg_track(profile=None, radius=0.3, **kw):
    """Config with the approach phase effectively disabled."""
    return ControllerConfig(
        radius=radius,
        delta_profile=profile or DeltaProfile.tanh(PI / 2, 1.0),
        threshold_l=1e9,
        **kw,
    )


def cfg_approach(threshold=0.05, delta=PI / 3, radius=0.3, **kw):
    return ControllerConfig(
        radius=radius, delta_approach=delta, threshold_l=threshold, **kw
    )


def rollout(l0, th0, cfg, steps=20000, dt=0.005, v=1.0):
    """Close the loop on an ideal straight path in normalized coordinates.

    Turns advance along the exact phase-plane circles, straights hold the
    heading, mirroring the kinematic plant.
    """
    l_norm, th = l0, th0
    ctrl = ControllerState()
    rows = []
    rate = v / cfg.radius
    for k in range(steps):
        fren = FrenetState(s=0.0, l=l_norm * cfg.radius, theta_tilde=wrap_angle(th))
        cmd, ctrl = select_maneuver(fren, ctrl, cfg)
        rows.append((k * dt, l_norm, wrap_angle(th), cmd, ctrl))
        if cmd is Maneuver.GO_STRAIGHT:
            l_norm += rate * math.sin(th) * dt
        elif cmd is Maneuver.TURN_LEFT:
            th_new = th + rate * dt
            l_norm += -(math.cos(th_new) - math.cos(th))
            th = th_new
        elif cmd is Maneuver.TURN_RIGHT:
            th_new = th - rate * dt
            l_norm += math.cos(th_new) - math.cos(th)
            th = th_new
        th = wrap_angle(th)
    return rows


def hybrid_sequence(rows):
    seq = []
    for _, _, _, _, ctrl in rows:
        if not seq or seq[-1] != ctrl.hybrid_state:
            seq.append(ctrl.hybrid_state)
    return seq


# -- boundary functions ------------------------------------------------------


def test_sigma_spec_points():
    assert sigma_r(0, 0) == 0.0
    assert sigma_l(0, 0) == 0.0
    assert sigma_n(0, 0, PI / 3) == pytest.approx(1.0)
    assert sigma_p(2, PI / 2, PI / 2) == pytest.approx(1.0)


@given(
    st.floats(-6, 6),
    st.floats(-PI, PI, exclude_max=True),
    st.floats(-PI, PI, exclude_min=True, exclude_max=True),
)
def test_sigma_closed_forms(l, th, delta):
    assert sigma_r(l, th) == pytest.approx(l + 1 - math.cos(th), abs=1e-12)
    assert sigma_l(l, th) == pytest.approx(l - 1 + math.cos(th), abs=1e-12)
    assert sigma_n(l, th, delta) == pytest.approx(
        l + 1 - 2 * math.cos(delta) + math.cos(th), abs=1e-12
    )
    assert sigma_p(l, th, delta) == pytest.approx(
        l - 1 + 2 * math.cos(delta) - math.cos(th), abs=1e-12
    )


@given(st.floats(-6, 6), st.floats(-PI, PI, exclude_max=True))
def test_sigma_collapse_at_zero_delta(l, th):
    # With a zero approach angle the offset boundaries coincide with the
    # final-turn curves of the opposite side.
    assert sigma_n(l, th, 0.0) == pytest.approx(sigma_l(l, th), abs=1e-12)
    assert sigma_p(l, th, 0.0) == pytest.approx(sigma_r(l, th), abs=1e-12)


@given(st.floats(-6, 6), st.floats(-PI, PI, exclude_max=True), st.floats(-3, 3))
def test_sigma_odd_symmetry(l, th, delta):
    assert sigma_r(-l, -th) == pytest.approx(-sigma_l(l, th), abs=1e-12)
    assert sigma_n(-l, -th, -delta) == pytest.approx(-sigma_p(l, th, delta), abs=1e-12)


@given(st.floats(-6, 6), st.floats(-PI, PI, exclude_max=True))
def test_sigma_right_angle_specialization(l, th):
    # At a perpendicular approach angle the generalized boundaries are the
    # final-turn curves shifted by half a revolution in heading error.
    assert sigma_n(l, th, PI / 2) == pytest.approx(sigma_r(l, wrap_angle(th + PI)), abs=1e-12)
    assert sigma_p(l, th, PI / 2) == pytest.approx(sigma_l(l, wrap_angle(th + PI)), abs=1e-12)


@given(
    st.floats(-3.0, 3.0),
    st.floats(-PI, PI, exclude_max=True),
    st.sampled_from([Maneuver.TURN_RIGHT, Maneuver.TURN_LEFT]),
    st.integers(1, 400),
)
def test_locked_wheel_turns_conserve_their_sigma_on_a_straight_path(l0, th0, command, n):
    # The fact the partition rests on: on a straight path a right turn keeps
    # sigma_R(l~, th~) and a left turn keeps sigma_L, to rounding.
    params = VehicleParams(d=0.6)
    radius = params.R
    path = build_path([{"kind": "line", "length": 100.0}], (-50.0, 0.0, 0.0))
    sigma = sigma_r if command is Maneuver.TURN_RIGHT else sigma_l
    state = VehicleState.from_body_rates(0.0, l0 * radius, th0, 1.0, 0.0, params)
    fren = path.frenet_project(state, radius=radius)
    start = sigma(fren.l / radius, fren.theta_tilde)
    for _ in range(n):
        state = step_kinematic(state, command, 1.0, 0.01, params)
    fren = path.frenet_project(state, radius=radius)
    assert sigma(fren.l / radius, fren.theta_tilde) == pytest.approx(start, abs=1e-9)


# -- classification ----------------------------------------------------------

# The first (maneuver, hybrid state) of the approach step from a fresh
# state, per region: the table in classify's docstring.
FIRST_MOVE = {
    Region.ON_DELTA_LINE: (Maneuver.GO_STRAIGHT, HybridState.STRAIGHT),
    Region.RIGHT_TURN_FIRST: (Maneuver.TURN_RIGHT, HybridState.TURNING),
    Region.LEFT_TURN_FIRST: (Maneuver.TURN_LEFT, HybridState.TURNING),
    Region.ON_SIGMA_L: (Maneuver.TURN_LEFT, HybridState.CONTROLLED),
    Region.ON_SIGMA_R: (Maneuver.TURN_RIGHT, HybridState.CONTROLLED),
}
REGION_OF_FIRST_MOVE = {move: region for region, move in FIRST_MOVE.items()}
MIRROR = {
    Region.RIGHT_TURN_FIRST: Region.LEFT_TURN_FIRST,
    Region.LEFT_TURN_FIRST: Region.RIGHT_TURN_FIRST,
    Region.ON_SIGMA_R: Region.ON_SIGMA_L,
    Region.ON_SIGMA_L: Region.ON_SIGMA_R,
}


def on_a_wrap_tie(l_norm, theta_tilde, delta):
    """Whether a wrapped angle of the decision is exactly -pi.

    On the path it is the heading itself, and the point is its own mirror
    image; elsewhere it is the error against -sign(l~) * delta.  The wrap's
    half-open range breaks these ties the same way on both sides.
    """
    th = wrap_angle(theta_tilde)
    if l_norm == 0.0:
        return th == -PI
    return wrap_angle(th + math.copysign(delta, l_norm)) == -PI


def fresh_first_move(l_norm, theta_tilde, cfg):
    command, state = _approach_step(l_norm, wrap_angle(theta_tilde), ControllerState(), cfg)
    return command, state.hybrid_state


def test_classify_origin_reports_converged():
    # delta is a magnitude in [0, pi): the commanded error is -sign(l~) * delta.
    for delta in (0.0, PI / 3, 1.2):
        assert classify(0.0, 0.0, ControllerConfig(delta_approach=delta)) is Region.ON_DELTA_LINE


def test_classify_known_regions():
    cfg = ControllerConfig(delta_approach=PI / 3)
    delta = cfg.delta_approach
    assert classify(-1.5, PI / 2, cfg) is Region.RIGHT_TURN_FIRST
    assert classify(1.5, -PI / 2, cfg) is Region.LEFT_TURN_FIRST
    l = math.cos(2.0) - 1.0
    assert classify(l, 2.0, cfg) is Region.ON_SIGMA_R
    assert classify(-l, -2.0, cfg) is Region.ON_SIGMA_L
    # The commanded heading error is -sign(l~) * delta, "so both sides
    # converge": at l~ > 0 a heading of +delta moves away from the path
    # (dl/dt = v sin(th~) > 0), and so does th~ = 0 short of the target.
    assert classify(3.0, -delta, cfg) is Region.ON_DELTA_LINE
    assert classify(-3.0, delta, cfg) is Region.ON_DELTA_LINE
    assert classify(3.0, delta, cfg) is Region.RIGHT_TURN_FIRST
    assert classify(3.0, 0.0, cfg) is Region.RIGHT_TURN_FIRST
    assert classify(0.5, 0.0, cfg) is Region.RIGHT_TURN_FIRST
    assert classify(-0.5, 0.0, cfg) is Region.LEFT_TURN_FIRST


def test_classify_requires_positive_band():
    # The band is the config's eps_b, which the config checks when it is built.
    for band in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            classify(0, 0, ControllerConfig(delta_approach=0.0, eps_b=band))


def test_classify_partition_and_symmetry_on_grid():
    cfg = ControllerConfig(delta_approach=PI / 3)
    ls = np.linspace(-4, 4, 101)
    ths = np.linspace(-PI, PI, 101, endpoint=False)
    for l in ls:
        for th in ths:
            r = classify(float(l), float(th), cfg)
            m = classify(float(-l), float(-th), cfg)
            assert m is (r if on_a_wrap_tie(float(l), float(th), PI / 3) else MIRROR.get(r, r))


def test_classify_breaks_the_wrap_tie_like_the_controller():
    # Where the wrapped error is exactly -pi the wrap's half-open range
    # makes both mirror images a left turn, in the field and the controller.
    cfg = ControllerConfig(delta_approach=PI / 2)
    for l, th in ((2.0, PI / 2), (-2.0, -PI / 2), (0.0, -PI), (0.0, PI)):
        assert on_a_wrap_tie(l, th, cfg.delta_approach)
        assert classify(l, th, cfg) is Region.LEFT_TURN_FIRST
        assert fresh_first_move(l, th, cfg) == FIRST_MOVE[Region.LEFT_TURN_FIRST]


def test_field_is_the_approach_steps_fresh_decision_on_the_default_grid():
    cfg = ControllerConfig()
    field = field_dump(cfg.delta_approach, GridSpec(n_l=301, n_theta=301), cfg.eps_b)
    mismatches = sum(
        1 for s in field
        if REGION_OF_FIRST_MOVE[fresh_first_move(s.l_norm, s.theta_tilde, cfg)] is not s.region
    )
    assert mismatches == 0
    assert {s.region for s in field} == set(Region)


@given(
    st.sampled_from([0.0, PI / 6, PI / 3, PI / 2]),
    st.sampled_from([1e-6, 1e-3, 0.05]),
    st.sampled_from([1e-3, 0.02, 0.2]),
    st.floats(-6.0, 6.0),
    st.floats(-4.0, 4.0),
    st.sampled_from(["free", "sigma_l", "sigma_r", "delta_line"]),
    st.floats(-1.5, 1.5),
)
def test_classify_is_the_approach_steps_fresh_decision(
    delta, eps_b, eps_theta, l, th, place, offset
):
    cfg = ControllerConfig(delta_approach=delta, eps_b=eps_b, eps_theta=eps_theta)
    # Put the point within a band's width of a boundary it would rarely hit.
    if place == "sigma_l":
        l = 1.0 - math.cos(th) + offset * eps_b
    elif place == "sigma_r":
        l = math.cos(th) - 1.0 + offset * eps_b
    elif place == "delta_line":
        th = -math.copysign(delta, l) + offset * eps_theta
    assert fresh_first_move(l, th, cfg) == FIRST_MOVE[classify(l, th, cfg)]


def test_turn_first_regions_connected():
    ndimage = pytest.importorskip("scipy.ndimage")
    cfg = ControllerConfig(delta_approach=PI / 3)
    ls = np.linspace(-4, 4, 201)
    ths = np.linspace(-PI, PI, 201, endpoint=False)
    labels = np.array(
        [[classify(float(l), float(th), cfg) for th in ths] for l in ls], dtype=object
    )
    for region in (Region.RIGHT_TURN_FIRST, Region.LEFT_TURN_FIRST):
        mask = labels == region
        comp, n = ndimage.label(mask)
        # theta wraps: merge components touching across the seam, then the
        # region must be a single connected set on the cylinder
        merged = {i: i for i in range(1, n + 1)}

        def root(i):
            while merged[i] != i:
                i = merged[i]
            return i

        for a, b in zip(comp[:, 0], comp[:, -1]):
            if a and b:
                merged[root(int(a))] = root(int(b))
        assert len({root(i) for i in range(1, n + 1)}) == 1


# -- approach-angle profiles ---------------------------------------------------


def test_profile_sign_opposes_offset():
    for prof in (
        DeltaProfile.constant(PI / 3),
        DeltaProfile.tanh(PI / 2, 1.0),
        DeltaProfile.custom([0.0, 1.0, 3.0], [0.0, 0.8, 1.2]),
    ):
        assert prof.value(0.0) == 0.0
        for l in (0.3, 1.0, 4.0):
            assert prof.value(l) < 0.0 < prof.value(-l)
            assert prof.value(l) == pytest.approx(-prof.value(-l))
            assert abs(prof.value(l)) < PI
        assert abs(prof.value(4.0)) >= abs(prof.value(0.3)) - 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        DeltaProfile.tanh(amplitude=PI)
    with pytest.raises(ValueError):
        DeltaProfile.tanh(gain=0.0)
    with pytest.raises(ValueError):
        DeltaProfile.constant(-0.1)
    with pytest.raises(ValueError):
        DeltaProfile.custom([0.0, 1.0], [0.1, 0.5])  # must start at (0, 0)
    with pytest.raises(ValueError):
        DeltaProfile.custom([0.0, 1.0], [0.0, 3.2])  # magnitude >= pi
    with pytest.raises(ValueError):
        DeltaProfile(kind="spline")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("gain", [NAN, INF])
def test_tanh_profile_rejects_nonfinite_gain(gain):
    with pytest.raises(ValueError, match="gain"):
        DeltaProfile.tanh(gain=gain)


@pytest.mark.parametrize(
    "offsets, magnitudes",
    [
        ([0.0, 1.0, NAN], [0.0, 0.5, 0.6]),
        ([0.0, 1.0, INF], [0.0, 0.5, 0.6]),
        ([0.0, NAN, 2.0], [0.0, 0.5, 0.6]),
        ([0.0, 1.0, 2.0], [0.0, NAN, 0.6]),
        ([0.0, 1.0, 2.0], [0.0, 0.5, NAN]),
    ],
)
def test_custom_profile_rejects_nonfinite_tables(offsets, magnitudes):
    with pytest.raises(ValueError, match="finite"):
        DeltaProfile.custom(offsets, magnitudes)


@pytest.mark.parametrize("table_l, table_delta, message", [
    ([0.0], [0.0], "custom profile needs matching tables, >= 2 points"),
    ([0.0, 1.0, 2.0], [0.0, 0.5], "custom profile needs matching tables, >= 2 points"),
    ([0.0, 1.0, 1.0], [0.0, 0.5, 0.6], "custom profile offsets must increase"),
    ([0.0, 2.0, 1.0], [0.0, 0.5, 0.6], "custom profile offsets must increase"),
])
def test_custom_profile_spec_rejects_short_unmatched_or_unordered_tables(
    table_l, table_delta, message
):
    spec = {"kind": "custom", "table_l": table_l, "table_delta": table_delta}
    with pytest.raises(ValueError, match=f"^{message}$"):
        DeltaProfile.from_spec(spec)


def test_profile_spec_round_trip():
    for prof in (
        DeltaProfile.constant(0.7),
        DeltaProfile.tanh(1.2, 3.0),
        DeltaProfile.custom([0.0, 2.0], [0.0, 1.0]),
    ):
        assert DeltaProfile.from_spec(prof.spec()) == prof


def test_tanh_and_an_absent_spec_key_take_the_field_defaults():
    assert DeltaProfile.tanh() == DeltaProfile("tanh")
    assert DeltaProfile.from_spec({"kind": "tanh", "gain": 2.0}) == DeltaProfile("tanh", gain=2.0)
    assert DeltaProfile.from_spec({"kind": "constant"}) == DeltaProfile("constant")


@pytest.mark.parametrize("offsets, magnitudes, verdict", [
    # Steep: 2.4 rad per l~ up to 0.5, so |delta' * sin(delta)| > 1 once
    # sin(2.4 * l~) > 1 / 2.4, at l~ > 0.1791: the first sample past it is 0.18.
    ((0.0, 0.5, 1.0, 2.0), (0.0, 1.2, 1.4, 1.5), (False, 0.18)),
    # Gentle: at most 0.3 rad per l~, so feasible everywhere.
    ((0.0, 2.0, 4.0), (0.0, 0.6, 1.0), (True, math.inf)),
], ids=["steep", "gentle"])
def test_custom_profile_feasibility_reads_its_finite_difference_slope(
    offsets, magnitudes, verdict
):
    # A custom profile has no closed-form slope: curvature_feasible reads the
    # central difference of value() over +-1e-6.
    profile = DeltaProfile.custom(offsets, magnitudes)
    assert curvature_feasible(profile, 1.0, 0.3) == verdict
    assert profile.slope(0.25) == pytest.approx(-magnitudes[1] / offsets[1], rel=1e-9)


def test_controller_config_rejects_a_radius_that_is_not_positive():
    for radius in (0.0, -0.3, NAN):
        with pytest.raises(ValueError, match="^radius must be positive$"):
            ControllerConfig(radius=radius)


def test_constant_profile_feasible_everywhere():
    feasible, l_hat = curvature_feasible(DeltaProfile.constant(PI / 3), 1.0, 0.3)
    assert feasible and l_hat == math.inf


def test_tanh_unit_gain_feasible():
    profile = DeltaProfile.tanh(PI / 2, 1.0)
    feasible, l_hat = curvature_feasible(profile, 1.0, 0.3)
    assert feasible and l_hat == math.inf
    # cross-check the analytic bound by dense grid maximization
    grid = np.linspace(-8, 8, 20001)
    g = np.abs(
        [profile.slope(float(l)) * math.sin(profile.value(float(l))) for l in grid]
    )
    assert g.max() < 1.0


def test_tanh_high_gain_infeasible_near_origin():
    feasible, l_hat = curvature_feasible(DeltaProfile.tanh(PI / 2, 10.0), 1.0, 0.3)
    assert not feasible
    assert 0.0 < l_hat < 0.5


@pytest.mark.parametrize(
    "bad",
    [
        {"v": NAN}, {"v": INF}, {"v": 0.0}, {"v": -1.0},
        {"turning_radius": NAN}, {"turning_radius": INF}, {"turning_radius": 0.0},
        {"l_max": NAN}, {"l_max": INF}, {"l_max": 0.0}, {"l_max": -1.0},
        {"samples": 0}, {"samples": 1},
    ],
    ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
)
def test_curvature_feasible_rejects_an_undefined_check(bad):
    # The profile is infeasible near 0, so a vacuous (True, inf) is wrong.
    args = {"v": 1.0, "turning_radius": 0.3, "l_max": 10.0, "samples": 4001, **bad}
    with pytest.raises(ValueError):
        curvature_feasible(DeltaProfile.tanh(PI / 2, 10.0), **args)


def interp_reference(offsets, magnitudes, l_norm):
    """The custom profile's value, computed with np.interp."""
    mag = float(np.interp(abs(l_norm), offsets, magnitudes))
    return -math.copysign(mag, l_norm) if l_norm != 0.0 else 0.0


@st.composite
def custom_profile_query(draw):
    knots = draw(st.lists(st.floats(1e-6, 100.0), min_size=1, max_size=6, unique=True))
    offsets = [0.0, *sorted(knots)]
    magnitudes = [0.0, *sorted(
        draw(st.lists(st.floats(0.0, 3.1), min_size=len(knots), max_size=len(knots)))
    )]
    knot = draw(st.sampled_from(offsets))
    x = draw(st.one_of(
        st.just(knot),
        st.just(math.nextafter(knot, math.inf)),
        st.just(math.nextafter(knot, -math.inf)),
        st.floats(0.0, 2.0 * offsets[-1]),
    ))
    return offsets, magnitudes, draw(st.sampled_from([1.0, -1.0])) * x


@settings(max_examples=500, deadline=None)
@given(custom_profile_query())
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], 1.0))  # on a knot
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], -math.nextafter(1.0, 2.0)))
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], math.nextafter(1.0, 0.0)))
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], 3.0))  # the last knot
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], -7.5))  # past it
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], 0.0))
@example(([0.0, 1.0, 3.0], [0.0, 0.8, 1.2], -0.0))
@example(([0.0, 0.1, 0.7], [0.0, 1.1, 1.1], 0.3))  # a flat stretch
def test_custom_profile_value_is_np_interp_bitwise(query):
    offsets, magnitudes, l_norm = query
    got = DeltaProfile.custom(offsets, magnitudes).value(l_norm)
    assert got.hex() == interp_reference(offsets, magnitudes, l_norm).hex()


def test_custom_profile_value_keeps_nan():
    assert math.isnan(DeltaProfile.custom([0.0, 1.0], [0.0, 0.5]).value(NAN))


# -- phase switching -----------------------------------------------------------


def fren(l_norm, th=0.0, radius=1.0):
    return FrenetState(s=0.0, l=l_norm * radius, theta_tilde=th)


def test_phase_switch_spec_cases():
    approach = ControllerState(phase=Phase.APPROACH)
    track = ControllerState(phase=Phase.TRACK)
    cfg = ControllerConfig(radius=1.0, threshold_l=1.0, re_approach_factor=2.0)
    assert phase_switch(fren(0.5), approach, cfg).phase is Phase.TRACK
    assert phase_switch(fren(1.05), track, cfg).phase is Phase.TRACK
    assert phase_switch(fren(2.5), track, cfg).phase is Phase.APPROACH
    assert phase_switch(fren(2.5), approach, cfg).phase is Phase.APPROACH
    # The offset is normalized by the config's turning radius.
    cfg = ControllerConfig(threshold_l=1.0)
    assert phase_switch(fren(0.5, radius=cfg.radius), approach, cfg).phase is Phase.TRACK
    assert phase_switch(fren(1.5, radius=cfg.radius), approach, cfg).phase is Phase.APPROACH
    with pytest.raises(ValueError, match="thresholds"):
        ControllerConfig(threshold_l=0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("name", ["eps_theta", "eps_b", "threshold_l", "re_approach_factor"])
def test_config_rejects_non_finite_bands_and_thresholds(name, value):
    # An infinite band would hold every state inside it, and an infinite
    # threshold would never switch phase back.
    with pytest.raises(ValueError, match="finite"):
        ControllerConfig(**{name: value})


# -- maneuver selection ---------------------------------------------------------


def test_far_state_turns_right_toward_approach_angle():
    cfg = cfg_approach(threshold=1.0)
    f = FrenetState(s=0.0, l=4.0 * cfg.radius, theta_tilde=0.0)
    cmd, state = select_maneuver(f, ControllerState(), cfg)
    assert cmd is Maneuver.TURN_RIGHT
    assert state.phase is Phase.APPROACH
    assert state.hybrid_state is HybridState.TURNING


def test_on_manifold_state_goes_straight():
    cfg = cfg_track()
    l_norm = 0.8
    th = cfg.delta_profile.value(l_norm)
    cmd, state = select_maneuver(
        FrenetState(s=0.0, l=l_norm * cfg.radius, theta_tilde=th), ControllerState(), cfg
    )
    assert cmd is Maneuver.GO_STRAIGHT
    assert state.hybrid_state is HybridState.STRAIGHT


def test_origin_emits_straight_and_stays():
    cfg = cfg_track()
    cmd, state = select_maneuver(FrenetState(0.0, 0.0, 0.0), ControllerState(), cfg)
    assert cmd is Maneuver.GO_STRAIGHT
    rows = rollout(0.0, 0.0, cfg, steps=500)
    assert all(r[3] is Maneuver.GO_STRAIGHT for r in rows)
    assert abs(rows[-1][1]) < 1e-9 and abs(rows[-1][2]) < 1e-9


def test_band_regulation_directions():
    cfg = cfg_track()
    l_norm = 1.0
    delta = cfg.delta_profile.value(l_norm)
    above = FrenetState(0.0, l_norm * cfg.radius, delta + 5 * cfg.eps_theta)
    below = FrenetState(0.0, l_norm * cfg.radius, delta - 5 * cfg.eps_theta)
    assert select_maneuver(above, ControllerState(), cfg)[0] is Maneuver.TURN_RIGHT
    assert select_maneuver(below, ControllerState(), cfg)[0] is Maneuver.TURN_LEFT


# -- the records the loop hands out ------------------------------------------


@pytest.mark.parametrize(
    "record",
    [
        FrenetState(0.0, 0.1, 0.2),
        ControllerState(),
        VehicleState(0.0, 0.0, 0.0, 1.0, 0.0, 10.0, 10.0),
        FieldSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, Region.ON_DELTA_LINE),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_immutable_values(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert hash(record) == hash(tuple(record))


def test_controller_state_defaults_and_keyword_construction():
    state = ControllerState()
    assert (state.phase, state.hybrid_state, state.turn_dir) == (
        Phase.APPROACH, HybridState.STRAIGHT, 0
    )
    assert (state.prev_err, state.prev_handoff, state.prev_side) == (None, None, 0)
    assert ControllerState(phase=Phase.TRACK, prev_err=0.5) == ControllerState(
        Phase.TRACK, HybridState.STRAIGHT, 0, 0.5, None, 0
    )


def test_select_maneuver_hands_out_one_command_per_action():
    cfg = ControllerConfig()
    handed_out = set()
    for l_norm in np.linspace(-1.5, 1.5, 7):
        for th in np.linspace(-3.0, 3.0, 7):
            fren = FrenetState(0.0, float(l_norm) * cfg.radius, float(th))
            handed_out.add(select_maneuver(fren, ControllerState(), cfg)[0])
    assert handed_out == {Maneuver.GO_STRAIGHT, Maneuver.TURN_LEFT, Maneuver.TURN_RIGHT}


def test_projection_lost_on_nonfinite_state():
    cfg = cfg_track()
    with pytest.raises(ValueError, match="invalid frenet state"):
        select_maneuver(FrenetState(0.0, math.nan, 0.0), ControllerState(), cfg)


def test_controller_is_pure():
    cfg = cfg_track()
    f = FrenetState(0.0, 0.6, -1.1)
    first = select_maneuver(f, ControllerState(), cfg)
    second = select_maneuver(f, ControllerState(), cfg)
    assert first == second


def test_maneuver_output_is_always_one_of_four():
    cfg = cfg_track()
    rng = np.random.default_rng(3)
    state = ControllerState()
    for _ in range(500):
        f = FrenetState(0.0, float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-PI, PI)))
        cmd, state = select_maneuver(f, state, cfg)
        assert cmd in (Maneuver.GO_STRAIGHT, Maneuver.TURN_LEFT, Maneuver.TURN_RIGHT)


# -- closed-loop behavior of the automaton --------------------------------------


def test_track_converges_from_far_corner():
    rows = rollout(4.0, -3.0, cfg_track(), steps=6000)
    tail = rows[-500:]
    assert all(abs(r[1]) < 0.05 and abs(r[2]) < 0.05 for r in tail)


def test_track_lyapunov_decreases_between_manifold_visits():
    cfg = cfg_track()
    rows = rollout(3.0, 1.0, cfg, steps=6000)
    visits = [
        0.5 * (l * l + th * th)
        for _, l, th, _, ctrl in rows
        if ctrl.prev_err is not None and abs(ctrl.prev_err) <= cfg.eps_theta
    ]
    assert visits, "trajectory never reached the manifold band"
    drops = [b - a for a, b in zip(visits, visits[1:])]
    assert all(d <= 1e-3 for d in drops)
    assert visits[-1] < 1e-3


def test_full_approach_sequence_turn_straight_controlled():
    rows = rollout(4.0, 0.0, cfg_approach(), steps=4000)
    seq = hybrid_sequence(rows)
    assert seq[:3] == [HybridState.TURNING, HybridState.STRAIGHT, HybridState.CONTROLLED]


def test_approach_from_delta_line_skips_turning():
    cfg = cfg_approach()
    rows = rollout(3.0, -PI / 3, cfg, steps=4000)
    seq = hybrid_sequence(rows)
    assert seq[:2] == [HybridState.STRAIGHT, HybridState.CONTROLLED]


def test_approach_two_turn_region_skips_straight():
    # Inside the critical turning circle the turn crosses the final-turn
    # boundary before the approach angle is reached.
    cfg = cfg_approach()
    rows = rollout(0.8, 0.0, cfg, steps=3000)
    seq = hybrid_sequence(rows)
    assert seq[0] is HybridState.TURNING
    assert HybridState.CONTROLLED in seq[:3]
    i_ctrl = seq.index(HybridState.CONTROLLED)
    assert HybridState.STRAIGHT not in seq[:i_ctrl]


def test_approach_on_final_turn_curve_rides_it():
    th0 = -0.9
    l0 = 1.0 - math.cos(th0)
    rows = rollout(l0, th0, cfg_approach(), steps=2500)
    assert rows[0][4].hybrid_state is HybridState.CONTROLLED
    assert rows[0][3] is Maneuver.TURN_LEFT
    tail = rows[-300:]
    assert all(abs(r[1]) < 0.05 and abs(r[2]) < 0.05 for r in tail)


def test_approach_mirrored_side():
    rows = rollout(-4.0, 0.0, cfg_approach(), steps=4000)
    assert rows[0][3] is Maneuver.TURN_LEFT
    seq = hybrid_sequence(rows)
    assert seq[:3] == [HybridState.TURNING, HybridState.STRAIGHT, HybridState.CONTROLLED]


def test_perpendicular_approach_angle_runs_full_sequence():
    rows = rollout(4.0, 0.0, cfg_approach(delta=PI / 2), steps=4000)
    seq = hybrid_sequence(rows)
    assert seq[:3] == [HybridState.TURNING, HybridState.STRAIGHT, HybridState.CONTROLLED]
    tail = rows[-300:]
    assert all(abs(r[1]) < 0.1 for r in tail)


def test_infeasible_profile_reentry_contraction():
    cfg = cfg_track(profile=DeltaProfile.tanh(PI / 2, 10.0))
    _, l_hat = curvature_feasible(cfg.delta_profile, 1.0, cfg.radius)
    rows = rollout(2.0, 0.0, cfg, steps=8000)
    entries = []
    prev_in = None
    for _, l, th, _, _ in rows:
        err = wrap_angle(th - cfg.delta_profile.value(l))
        inside = abs(err) <= cfg.eps_theta
        if inside and prev_in is False and abs(l) >= l_hat:
            entries.append((abs(l), abs(th)))
        prev_in = inside
    assert len(entries) >= 3
    for (l_a, th_a), (l_b, th_b) in zip(entries, entries[1:]):
        assert l_b < l_a
        assert th_b < th_a
    tail = rows[-500:]
    assert all(abs(r[1]) < 0.05 and abs(r[2]) < 0.05 for r in tail)


# -- bitwise oracle for the transition ---------------------------------------
#
# The reference below is the transition as it was written when each phase
# step returned a positional 6-tuple ``(action, hybrid, turn_dir, err,
# handoff, side)`` that select_maneuver folded into the previous state with
# dataclasses.replace.  select_maneuver must match it field for field.

REF_FIELDS = ("phase", "hybrid_state", "turn_dir", "prev_err", "prev_handoff", "prev_side")


@dataclass(frozen=True)
class RefState:
    phase: Phase = Phase.APPROACH
    hybrid_state: HybridState = HybridState.STRAIGHT
    turn_dir: int = 0
    prev_err: Optional[float] = None
    prev_handoff: Optional[float] = None
    prev_side: int = 0


def ref_latch_released(err, prev_err, turn_dir, eps):
    if abs(err) <= eps:
        return True
    if prev_err is None:
        return False
    step = wrap_angle(err - prev_err)
    if turn_dir > 0:
        return err > eps and prev_err <= eps and 0.0 < step < PI / 2.0
    return err < -eps and prev_err >= -eps and -PI / 2.0 < step < 0.0


def ref_relay(err, state, eps):
    if (
        state.hybrid_state is HybridState.TURNING
        and state.turn_dir != 0
        and not ref_latch_released(err, state.prev_err, state.turn_dir, eps)
    ):
        action = Maneuver.TURN_LEFT if state.turn_dir > 0 else Maneuver.TURN_RIGHT
        return action, HybridState.TURNING, state.turn_dir
    if err > eps:
        return Maneuver.TURN_RIGHT, HybridState.TURNING, -1
    if err < -eps:
        return Maneuver.TURN_LEFT, HybridState.TURNING, 1
    return Maneuver.GO_STRAIGHT, HybridState.STRAIGHT, 0


def ref_track_step(l_norm, th, state, cfg):
    b = cfg.eps_b
    err = wrap_angle(th - cfg.delta_profile.value(l_norm))
    if abs(l_norm) <= b and abs(th) <= b:
        return Maneuver.GO_STRAIGHT, HybridState.STRAIGHT, 0, err, None, 0
    th_clear = math.sqrt(2.0 * b)
    if abs(sigma_l(l_norm, th)) <= b and -math.pi < th < -th_clear:
        return Maneuver.TURN_LEFT, HybridState.CONTROLLED, 0, err, None, 0
    if abs(sigma_r(l_norm, th)) <= b and th_clear < th:
        return Maneuver.TURN_RIGHT, HybridState.CONTROLLED, 0, err, None, 0
    action, hybrid, turn_dir = ref_relay(err, state, cfg.eps_theta)
    return action, hybrid, turn_dir, err, None, 0


def ref_approach_step(l_norm, th, state, cfg):
    b = cfg.eps_b
    if abs(l_norm) <= b and abs(th) <= b:
        return Maneuver.GO_STRAIGHT, HybridState.STRAIGHT, 0, th, None, 0
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
        and abs(handoff) <= 0.15
    ):
        if abs(th) <= cfg.eps_theta:
            return Maneuver.GO_STRAIGHT, HybridState.STRAIGHT, 0, err, handoff, side
        return final_turn, HybridState.CONTROLLED, 0, err, handoff, side
    receptive = (-math.pi < th < -b) if side > 0 else (b < th)
    if receptive:
        if state.prev_handoff is None or state.prev_side != side:
            crossed = abs(handoff) <= b
        elif side > 0:
            crossed = state.prev_handoff > b and handoff <= b
        else:
            crossed = state.prev_handoff < -b and handoff >= -b
        if crossed:
            return final_turn, HybridState.CONTROLLED, 0, err, handoff, side
    action, hybrid, turn_dir = ref_relay(err, state, cfg.eps_theta)
    return action, hybrid, turn_dir, err, handoff, side


def ref_select_maneuver(frenet, ctrl, cfg):
    offset = abs(frenet.l / cfg.radius)
    if ctrl.phase is Phase.APPROACH and offset <= cfg.threshold_l:
        ctrl = RefState(phase=Phase.TRACK)
    elif ctrl.phase is Phase.TRACK and offset > cfg.re_approach_factor * cfg.threshold_l:
        ctrl = RefState(phase=Phase.APPROACH)
    l_norm = frenet.l / cfg.radius
    th = wrap_angle(frenet.theta_tilde)
    step = ref_track_step if ctrl.phase is Phase.TRACK else ref_approach_step
    action, hybrid, turn_dir, err, handoff, side = step(l_norm, th, ctrl, cfg)
    return action, replace(
        ctrl, hybrid_state=hybrid, turn_dir=turn_dir,
        prev_err=err, prev_handoff=handoff, prev_side=side,
    )


ORACLE_PROFILES = (
    DeltaProfile.tanh(PI / 2, 1.0),
    DeltaProfile.tanh(PI / 2, 10.0),
    DeltaProfile.constant(PI / 4),
    DeltaProfile.custom([0.0, 1.0, 3.0], [0.0, 0.8, 1.2]),
)

# A start at the origin, anywhere, or on a final-turn curve (sigma_L = 0
# below the path's heading, sigma_R = 0 above it).
oracle_starts = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(-4.0, 4.0), st.floats(-PI, PI)),
    st.floats(0.05, 3.0).map(lambda th: (1.0 - math.cos(th), -th)),
    st.floats(0.05, 3.0).map(lambda th: (math.cos(th) - 1.0, th)),
)


@settings(max_examples=300, deadline=None)
@given(
    start=oracle_starts,
    threshold=st.sampled_from([1e-4, 0.05, 0.5, 1.0, 1e9]),
    delta=st.sampled_from([0.0, PI / 6, PI / 3, PI / 2]),
    profile=st.sampled_from(ORACLE_PROFILES),
    dt=st.sampled_from([0.005, 0.01, 0.02]),
    kicks=st.dictionaries(
        st.integers(1, 399), st.tuples(st.floats(-3.0, 3.0), st.floats(-PI, PI)), max_size=4
    ),
)
@example(start=(4.0, 0.0), threshold=0.05, delta=PI / 3, profile=ORACLE_PROFILES[0],
         dt=0.02, kicks={})
@example(start=(-4.0, 0.0), threshold=0.05, delta=PI / 3, profile=ORACLE_PROFILES[0],
         dt=0.02, kicks={})
@example(start=(5e-4, 0.0), threshold=1e-4, delta=PI / 3, profile=ORACLE_PROFILES[0],
         dt=0.01, kicks={200: (2.0, 0.0)})
@example(start=(1.0 - math.cos(0.9), -0.9), threshold=1e9, delta=PI / 3,
         profile=ORACLE_PROFILES[0], dt=0.01, kicks={})
@example(start=(0.0, 0.0), threshold=0.5, delta=PI / 3, profile=ORACLE_PROFILES[0],
         dt=0.01, kicks={100: (3.0, 0.0), 250: (-2.5, 1.0)})
def test_select_maneuver_matches_reference_transition_bitwise(
    start, threshold, delta, profile, dt, kicks
):
    # Closed loop on an ideal straight path, as in rollout(), with kicks
    # that knock the state across the phase thresholds both ways.
    cfg = ControllerConfig(
        radius=0.3, delta_approach=delta, delta_profile=profile, threshold_l=threshold
    )
    turn = 1.0 / cfg.radius * dt
    l_norm, th = start
    ctrl, ref = ControllerState(), RefState()
    for k in range(400):
        dl, dth = kicks.get(k, (0.0, 0.0))
        l_norm, th = l_norm + dl, wrap_angle(th + dth)
        fren = FrenetState(s=0.0, l=l_norm * cfg.radius, theta_tilde=th)
        cmd, ctrl = select_maneuver(fren, ctrl, cfg)
        action, ref = ref_select_maneuver(fren, ref, cfg)
        assert cmd is action, k
        assert [getattr(ctrl, f) for f in REF_FIELDS] == [getattr(ref, f) for f in REF_FIELDS], k
        if action is Maneuver.TURN_LEFT:
            l_norm += math.cos(th) - math.cos(th + turn)
            th = wrap_angle(th + turn)
        elif action is Maneuver.TURN_RIGHT:
            l_norm += math.cos(th - turn) - math.cos(th)
            th = wrap_angle(th - turn)
        else:
            l_norm += turn * math.sin(th)


def _nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def one_step_cases(draw):
    """A config, any prior state and one Frenet state, often within a few
    ulps of a band edge: the manifold error at +-eps_theta, sigma_L or
    sigma_R at +-eps_b."""
    # radius 1: l / radius is l itself, so the nudged offset reaches the step.
    # A wrapped error is a multiple of 2**-51 near 0, so only a band such as
    # 2**-6 can be met exactly.
    cfg = ControllerConfig(
        radius=1.0,
        eps_theta=draw(st.sampled_from([0.02, 2.0**-6])),
        delta_approach=draw(st.sampled_from([0.0, PI / 6, PI / 3, PI / 2])),
        delta_profile=draw(st.sampled_from(ORACLE_PROFILES)),
        threshold_l=draw(st.sampled_from([1e-4, 0.05, 0.5, 1.0, 1e9])),
    )
    angle = st.floats(-PI, PI, exclude_max=True)
    state = ControllerState(
        draw(st.sampled_from(list(Phase))),
        draw(st.sampled_from(list(HybridState))),
        draw(st.sampled_from([-1, 0, 1])),
        draw(st.one_of(st.none(), angle, st.sampled_from([cfg.eps_theta, -cfg.eps_theta]))),
        draw(st.one_of(st.none(), st.floats(-0.2, 0.2))),
        draw(st.sampled_from([-1, 0, 1])),
    )
    edge = draw(st.sampled_from(["none", "err", "sigma_l", "sigma_r"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    ulps = draw(st.integers(-3, 3))
    if edge == "sigma_l":
        th = draw(st.floats(-3.0, -0.05))
        l_norm = _nudge(1.0 - math.cos(th) + sign * cfg.eps_b, ulps)
    elif edge == "sigma_r":
        th = draw(st.floats(0.05, 3.0))
        l_norm = _nudge(math.cos(th) - 1.0 + sign * cfg.eps_b, ulps)
    else:
        l_norm = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
        th = draw(angle)
        if edge == "err":
            th = wrap_angle(_nudge(cfg.delta_profile.value(l_norm) + sign * cfg.eps_theta, ulps))
    return cfg, state, FrenetState(s=0.0, l=l_norm, theta_tilde=th)


@settings(max_examples=1000, deadline=None)
@given(case=one_step_cases())
# A latched turn whose error lands exactly on the band's edge is released.
@example(case=(
    ControllerConfig(radius=1.0, eps_theta=2.0**-6, threshold_l=1e9),
    ControllerState(Phase.TRACK, HybridState.TURNING, 1, 0.5),
    FrenetState(s=0.0, l=0.0, theta_tilde=2.0**-6),
))
@example(case=(
    ControllerConfig(radius=1.0, eps_theta=2.0**-6, threshold_l=1e9),
    ControllerState(Phase.TRACK, HybridState.TURNING, -1, -0.5),
    FrenetState(s=0.0, l=0.0, theta_tilde=-(2.0**-6)),
))
def test_select_maneuver_matches_reference_transition_from_any_state_bitwise(case):
    # One transition from an arbitrary prior state, so that the band edges
    # and latch releases a closed loop rarely lands on exactly are reached.
    cfg, ctrl, fren = case
    cmd, state = select_maneuver(fren, ctrl, cfg)
    action, ref = ref_select_maneuver(fren, RefState(*ctrl), cfg)
    assert cmd is action
    assert [getattr(state, f) for f in REF_FIELDS] == [getattr(ref, f) for f in REF_FIELDS]
