import bisect
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brakesteer.path_geometry import (
    _CLOTHOID_NODE_STEP,
    MAX_CLOTHOID_NODES,
    AmbiguousProjection,
    ContinuityError,
    EmptyPath,
    FrenetState,
    OutOfRange,
    Path,
    PathError,
    PathSegment,
    SingularProjection,
    build_path,
    linspace,
    wrap_angle,
)
from brakesteer.simulator import build_demo_scenario


def mixed_path():
    return build_path(
        [
            {"kind": "line", "length": 4},
            {"kind": "clothoid", "length": 3, "curvature_start": 0, "curvature_end": 0.5},
            {"kind": "arc", "length": 2, "curvature": 0.5},
            {"kind": "clothoid", "length": 3, "curvature_start": 0.5, "curvature_end": 0},
            {"kind": "line", "length": 4},
        ]
    )


def offset_pose(path, s, l, heading=None):
    px, py, thd = path.pose_at(s)
    x = px - l * math.sin(thd)
    y = py + l * math.cos(thd)
    return (x, y, thd if heading is None else heading)


# -- wrap ------------------------------------------------------------------


def test_wrap_pi_maps_to_minus_pi():
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_range_and_periodicity(theta):
    w = wrap_angle(theta)
    assert -math.pi <= w < math.pi
    assert abs(wrap_angle(theta + 2 * math.pi) - w) < 1e-9


# -- construction ----------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=2000),
)
@example(0.0, 0.0, 1)
@example(-0.0, 1.0, 1)  # numpy turns the lone -0.0 into 0.0
@example(2.5, 2.5, 7)  # an empty range
@example(3.0, -7.5, 4)  # a falling range
@example(-40.0, -1.0, 9)
@example(0.0, 5e-324, 3)  # the step underflows to 0
@example(-1e300, 1e300, 11)
@example(0.0, 1234.56789, 4940)  # a point every 0.25 m over 1.2 km
def test_linspace_is_numpy_linspace_bitwise(lo, hi, n):
    # A range wider than the largest float overflows to inf on both sides.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [v.hex() for v in np.linspace(lo, hi, n).tolist()]
    assert [v.hex() for v in linspace(lo, hi, n)] == expected


@pytest.mark.parametrize("n", [0, -3])
def test_linspace_needs_a_point(n):
    with pytest.raises(ValueError, match="at least one point"):
        linspace(0.0, 1.0, n)


def test_single_line():
    p = build_path([{"kind": "line", "length": 10}])
    assert p.total_length == 10
    assert p.pose_at(5) == pytest.approx((5, 0, 0))


def test_half_circle_arc():
    p = build_path([{"kind": "arc", "length": math.pi, "curvature": 1.0}])
    x, y, th = p.pose_at(math.pi)
    assert (x, y, th) == pytest.approx((0, 2, math.pi), abs=1e-12)


def test_quarter_circle_arc():
    p = build_path([{"kind": "arc", "length": math.pi / 2, "curvature": 1.0}])
    assert p.pose_at(math.pi / 2) == pytest.approx((1, 1, math.pi / 2), abs=1e-12)


def test_line_then_arc_joint_validation():
    specs = [
        {"kind": "line", "length": 5},
        {"kind": "arc", "length": math.pi, "curvature": 0.5, "start_pose": [5, 0, 0]},
    ]
    p = build_path(specs)
    assert p.total_length == pytest.approx(5 + math.pi)
    bad = [
        {"kind": "line", "length": 5},
        {"kind": "arc", "length": math.pi, "curvature": 0.5, "start_pose": [5, 0, 0.1]},
    ]
    with pytest.raises(ContinuityError):
        build_path(bad)


def test_empty_path_rejected():
    with pytest.raises(EmptyPath):
        build_path([])


def test_invalid_segments_rejected():
    with pytest.raises(ValueError):
        build_path([{"kind": "line", "length": 0}])
    with pytest.raises(ValueError):
        build_path([{"kind": "arc", "length": 1, "curvature": 0.0}])
    with pytest.raises(ValueError):
        build_path([{"kind": "helix", "length": 1}])


@pytest.mark.parametrize("kind, c0, c1, message", [
    ("helix", 0.0, 0.0, "unknown segment kind 'helix'"),
    ("line", 0.5, 0.5, "line segments must have zero curvature"),
    ("arc", 0.5, 0.6, "arc segments need equal start/end curvature"),
])
def test_path_segment_rejects_what_the_dict_form_cannot_say(kind, c0, c1, message):
    # build_path's reader rejects each of these by key first; the public
    # constructor holds the rule for any other caller.
    with pytest.raises(ValueError, match=f"^{message}$"):
        PathSegment(kind, 1.0, c0, c1, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("pose", [(0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)],
                         ids=["nan-heading", "infinite-x"])
def test_nonfinite_start_pose_rejected(pose):
    # A NaN start heading used to build a path whose projection raised
    # IndexError; an infinite x, one whose runs stopped at the first row.
    with pytest.raises(ValueError, match="segment start_pose must be finite"):
        build_path([{"kind": "line", "length": 5}], pose)


def test_nonfinite_segment_start_pose_rejected():
    # A NaN heading fails no comparison, so it passes the joint check.
    given = [5.0, 0.0, math.nan]
    with pytest.raises(ValueError, match="segment start_pose must be finite"):
        build_path([{"kind": "line", "length": 5},
                    {"kind": "clothoid", "length": 1, "curvature_end": 0.5, "start_pose": given}])


def test_a_clothoid_over_the_node_cap_is_rejected_before_it_integrates():
    # A 1e300 m clothoid used to integrate nodes without end, and a 1e5 m
    # one took about 5 s; the largest length overflows length / step.
    at_cap = MAX_CLOTHOID_NODES * _CLOTHOID_NODE_STEP
    path = build_path([{"kind": "clothoid", "length": at_cap, "curvature_end": 1e-3}])
    assert len(path.segments[0]._node_xy) == MAX_CLOTHOID_NODES + 1
    for length in (at_cap * (1.0 + 1e-12), 1e300, sys.float_info.max):
        with pytest.raises(ValueError, match=f"at most {MAX_CLOTHOID_NODES:,} are allowed"):
            build_path([{"kind": "clothoid", "length": length, "curvature_end": 1e-3}])


@pytest.mark.parametrize("c", [5e-324, -1e-310])
def test_an_arc_whose_radius_overflows_is_rejected(c):
    # Such an arc used to build, and a run on it stopped after one row as
    # nonfinite_state.
    with pytest.raises(ValueError, match=f"arc curvature {c!r} is too small"):
        build_path([{"kind": "arc", "length": 1.0, "curvature": c}])


# -- pose_at / curvature ---------------------------------------------------


def test_clothoid_position_against_quadrature_oracle():
    # Frozen from an adaptive-quadrature evaluation of the heading integral
    # (scipy.integrate.quad at 1e-13 abs tolerance).
    p = build_path([{"kind": "clothoid", "length": 1, "curvature_start": 0, "curvature_end": 1}])
    x, y, th = p.pose_at(1.0)
    assert x == pytest.approx(0.9752876882003446, abs=1e-8)
    assert y == pytest.approx(0.16371404737570058, abs=1e-8)
    assert th == pytest.approx(0.5, abs=1e-12)

    p2 = build_path([{"kind": "clothoid", "length": 4, "curvature_start": 0, "curvature_end": 0.8}])
    x2, y2, _ = p2.pose_at(2.5)
    assert x2 == pytest.approx(2.4040939781273987, abs=1e-8)
    assert y2 == pytest.approx(0.50648054676235, abs=1e-8)


def test_clothoid_matches_scipy_quad_along_whole_segment():
    quad = pytest.importorskip("scipy.integrate").quad
    length, c1 = 3.0, 0.7

    def heading(u):
        return c1 * u * u / (2 * length)

    p = build_path(
        [{"kind": "clothoid", "length": length, "curvature_start": 0, "curvature_end": c1}]
    )
    for s in np.linspace(0.1, length, 17):
        x_ref, _ = quad(lambda u: math.cos(heading(u)), 0, s, epsabs=1e-12)
        y_ref, _ = quad(lambda u: math.sin(heading(u)), 0, s, epsabs=1e-12)
        x, y, _ = p.pose_at(float(s))
        assert x == pytest.approx(x_ref, abs=1e-8)
        assert y == pytest.approx(y_ref, abs=1e-8)


def test_curvature_queries():
    p = build_path([{"kind": "line", "length": 3}])
    assert p.curvature(1.0) == (0.0, 0.0)
    p = build_path([{"kind": "arc", "length": 3, "curvature": 0.5}])
    assert p.curvature(2.0) == (0.5, 0.0)
    p = build_path([{"kind": "clothoid", "length": 2, "curvature_start": 0, "curvature_end": 1}])
    c, cp = p.curvature(1.0)
    assert (c, cp) == pytest.approx((0.5, 0.5))


def test_curvature_right_limit_at_joint():
    p = build_path(
        [
            {"kind": "line", "length": 5},
            {"kind": "arc", "length": 2, "curvature": 0.5},
        ]
    )
    c, cp = p.curvature(5.0)
    assert c == 0.5  # right limit
    assert cp == 0.0  # jump: derivative reported as zero at the joint


def test_out_of_range():
    p = build_path([{"kind": "line", "length": 5}])
    with pytest.raises(OutOfRange):
        p.pose_at(5.1)
    with pytest.raises(OutOfRange):
        p.curvature(-0.1)


def test_a_hint_outside_the_path_domain_is_out_of_range():
    p = build_path([{"kind": "line", "length": 5}])
    with pytest.raises(OutOfRange, match="hint_s=6"):
        p.frenet_project((1.0, 0.1, 0.0), hint_s=p.total_length + 1)
    with pytest.raises(OutOfRange, match="hint_s=-1"):
        p.frenet_project((1.0, 0.1, 0.0), hint_s=-1.0)


def test_pose_continuity_in_s():
    p = mixed_path()
    max_c = 0.5
    h = 1e-4
    for s in np.linspace(0, p.total_length - h, 200):
        x1, y1, t1 = p.pose_at(float(s))
        x2, y2, t2 = p.pose_at(float(s) + h)
        assert math.hypot(x2 - x1, y2 - y1) <= (1 + max_c) * h
        assert abs(t2 - t1) <= max_c * h * (1 + 1e-9)


# -- projection ------------------------------------------------------------


def test_project_onto_line():
    p = build_path([{"kind": "line", "length": 10}])
    f = p.frenet_project((3, 2, 0))
    assert (f.s, f.l, f.theta_tilde) == pytest.approx((3, 2, 0))
    f = p.frenet_project((3, -2, math.pi / 4))
    assert (f.s, f.l, f.theta_tilde) == pytest.approx((3, -2, math.pi / 4))


def test_project_at_arc_center_is_singular():
    p = build_path([{"kind": "arc", "length": math.pi, "curvature": 1.0}])
    with pytest.raises(SingularProjection):
        p.frenet_project((0, 1, 0))
    with pytest.raises(SingularProjection):
        p.frenet_project((-0.2, 1.0, 0))  # beyond the center
    # a pose between a path point and the center is still regular
    f = p.frenet_project((0, 1.5, 0))
    assert (f.s, f.l) == pytest.approx((math.pi, 0.5))


def test_ambiguous_projection_between_parallel_branches():
    # A U-shaped path: points midway between the two straights are
    # equidistant from path points far apart in s.
    p = build_path(
        [
            {"kind": "line", "length": 4},
            {"kind": "arc", "length": math.pi, "curvature": 1.0},
            {"kind": "line", "length": 4},
        ]
    )
    with pytest.raises(AmbiguousProjection):
        p.frenet_project((2.0, 1.0, 0.0))


def test_global_projection_onto_a_turn_and_a_half_is_ambiguous_where_it_turns_twice():
    # The arc covers its first half turn twice, at u and u + 2 pi: the first
    # period and the rest are searched apart, so both copies are offered.
    p = build_path([{"kind": "arc", "length": 3.0 * math.pi, "curvature": 1.0}])
    with pytest.raises(AmbiguousProjection) as exc:
        p.frenet_project(offset_pose(p, 1.0, 0.2))
    # Either copy may round nearer; the message names both in six digits.
    assert str(exc.value) in ("equidistant projections at s=1 and s=7.28319",
                              "equidistant projections at s=7.28319 and s=1")
    # Its second half turn is covered once.
    f = p.frenet_project(offset_pose(p, 4.0, 0.2))
    assert (f.s, f.l) == pytest.approx((4.0, 0.2))


def test_a_singular_projection_says_so_in_one_short_line():
    # Formatted with .6f, the 1e300 curvature made a 374-character message.
    p = build_path([{"kind": "line", "length": 5}, {"kind": "arc", "length": 2, "curvature": 1e300},
                    {"kind": "line", "length": 5}])
    with pytest.raises(SingularProjection) as exc:
        p.frenet_project((5.5, 0.5, 0.0), hint_s=5.0)
    assert len(str(exc.value)) < 100


def test_round_trip_random_offsets():
    p = mixed_path()
    rng = np.random.default_rng(7)
    for _ in range(200):
        s0 = float(rng.uniform(0, p.total_length))
        l0 = float(rng.uniform(-0.9, 0.9))
        c, _ = p.curvature(s0)
        if abs(c * l0) > 0.95:
            continue
        f = p.frenet_project(offset_pose(p, s0, l0))
        assert f.s == pytest.approx(s0, abs=1e-6)
        assert f.l == pytest.approx(l0, abs=1e-6)
        assert f.theta_tilde == pytest.approx(0, abs=1e-9)


def test_hint_matches_global_projection():
    p = mixed_path()
    radius = 0.3
    rng = np.random.default_rng(11)
    for _ in range(100):
        s0 = float(rng.uniform(0.5, p.total_length - 0.5))
        l0 = float(rng.uniform(-0.25, 0.25))
        pose = offset_pose(p, s0, l0, heading=float(rng.uniform(-math.pi, math.pi)))
        f_global = p.frenet_project(pose, radius=radius)
        hint = min(max(f_global.s + float(rng.uniform(-0.12, 0.12)), 0.0), p.total_length)
        f_hint = p.frenet_project(pose, hint_s=hint, radius=radius)
        assert f_hint.s == pytest.approx(f_global.s, abs=1e-6)
        assert f_hint.l == pytest.approx(f_global.l, abs=1e-9)


def clothoid_bounds(path, pose, lo, hi):
    """c_max * (|pose - P(ua)| + (ub - ua)) for each clothoid part of [lo, hi].

    Below 1 the hinted projection takes the single-root Newton path on
    that part; at or above 1 it brackets roots on the grid.
    """
    out = []
    for seg, s0 in zip(path.segments, path.cumulative_s):
        ua, ub = max(0.0, lo - s0), min(seg.length, hi - s0)
        if seg.kind != "clothoid" or ub <= ua:
            continue
        px, py = seg.point(ua)
        c_max = max(abs(seg.curvature_start), abs(seg.curvature_end))
        out.append(c_max * (math.hypot(pose[0] - px, pose[1] - py) + (ub - ua)))
    return out


@st.composite
def near_or_far_pose(draw):
    if draw(st.booleans()):  # near: |l| <= 0.3 anywhere on the bend
        s0 = draw(st.floats(3.7, 12.3))
        l0 = draw(st.floats(-0.3, 0.3))
    else:  # far: 1.2 <= |l| <= 1.8 where the clothoids meet the c = 0.5 arc
        s0 = draw(st.sampled_from((7.0, 9.0))) + draw(st.floats(-0.4, 0.4))
        l0 = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1.2, 1.8))
    heading = draw(st.floats(-math.pi, math.pi))
    return s0, l0, heading, draw(st.floats(-0.12, 0.12))


def test_hinted_clothoid_projection_matches_global_on_both_branches():
    p = mixed_path()
    radius = 0.3
    bounds = []

    @settings(max_examples=300, deadline=None)
    @given(near_or_far_pose())
    def check(drawn):
        s0, l0, heading, shift = drawn
        pose = offset_pose(p, s0, l0, heading=heading)
        f_global = p.frenet_project(pose, radius=radius)
        hint = min(max(f_global.s + shift, 0.0), p.total_length)
        f_hint = p.frenet_project(pose, hint_s=hint, radius=radius)
        assert f_hint.s == pytest.approx(f_global.s, abs=1e-6)
        assert f_hint.l == pytest.approx(f_global.l, abs=1e-9)
        lo, hi = max(0.0, hint - radius), min(p.total_length, hint + radius)
        bounds.extend(clothoid_bounds(p, pose, lo, hi))

    check()
    assert any(b < 1.0 for b in bounds), "no draw took the Newton path"
    assert any(b >= 1.0 for b in bounds), "no draw took the grid fallback"


def test_tangent_root_solves_a_single_sign_change():
    seg = mixed_path().segments[1]  # clothoid, c from 0 to 0.5
    u_star, l0 = 1.3, 0.2
    px, py, th = seg.pose(u_star)
    x, y = px - l0 * math.sin(th), py + l0 * math.cos(th)

    def root(a, b):
        ga = Path._tangency(seg, x, y, a)[0]
        gb = Path._tangency(seg, x, y, b)[0]
        return Path._tangent_root(seg, x, y, a, b, ga, gb)

    assert abs(root(1.0, 1.6) - u_star) <= 1e-12
    assert root(1.4, 1.8) is None  # root before the window: g(ua) < 0
    x, y = seg.point(1.0)
    assert root(1.0, 1.6) == 1.0  # g(ua) == 0 exactly


# -- the clothoid evaluator against the loop-form rule ---------------------

# 5-point Gauss-Legendre (abscissa, weight) pairs on [-1, 1].
GL5 = (
    (-0.9061798459386640, 0.2369268850561891),
    (-0.5384693101056831, 0.4786286704993665),
    (0.0, 0.5688888888888889),
    (0.5384693101056831, 0.4786286704993665),
    (0.9061798459386640, 0.2369268850561891),
)


def reference_gl5(seg, a, b):
    """The clothoid's displacement from a to b, the rule summed in a loop."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    th0, c0 = seg.start_pose[2], seg.curvature_start
    dc = seg.curvature_end - c0
    two_len = 2.0 * seg.length
    sx = sy = 0.0
    for xk, wk in GL5:
        u = mid + half * xk
        th = th0 + c0 * u + dc * u * u / two_len
        sx += wk * math.cos(th)
        sy += wk * math.sin(th)
    return half * sx, half * sy


def reference_nodes(seg):
    """The node step and the cumulative positions at the nodes."""
    h = seg.length / max(1, math.ceil(seg.length / 0.05))
    x, y = float(seg.start_pose[0]), float(seg.start_pose[1])
    nodes = [(x, y)]
    for k in range(round(seg.length / h)):
        dx, dy = reference_gl5(seg, k * h, (k + 1) * h)
        x, y = x + dx, y + dy
        nodes.append((x, y))
    return h, nodes


def reference_point(seg, h, nodes, u):
    k = min(int(u / h), len(nodes) - 1)
    x, y = nodes[k]
    if u > k * h:
        dx, dy = reference_gl5(seg, k * h, u)
        x, y = x + dx, y + dy
    return x, y


# Clothoids that curve left, right and through zero, from start headings
# -0.0 and beyond pi, one shorter than a node step; each with its reference
# node step and nodes.
REFERENCE_CLOTHOIDS = tuple(
    (seg, *reference_nodes(seg))
    for seg in (
        PathSegment("clothoid", 3.0, 0.0, 0.5, (0.3, -1.1, 0.7)),
        PathSegment("clothoid", 2.7, -0.2, -1.3, (-123.4, 56.7, -0.0)),
        PathSegment("clothoid", 1.234567, -1.3, 0.9, (1e4, -3e3, 2.9)),
        PathSegment("clothoid", 0.037, 2.0, 0.0, (0.0, 0.0, -3.5)),
        mixed_path().segments[3],
    )
)


def hex_pair(p):
    return tuple(float(v).hex() for v in p)


def test_clothoid_nodes_match_the_loop_form_rule_bitwise():
    for seg, _, nodes in REFERENCE_CLOTHOIDS:
        assert [hex_pair(p) for p in seg._node_xy] == [hex_pair(p) for p in nodes]


@st.composite
def clothoid_abscissa(draw):
    """A reference clothoid and an abscissa on it: anywhere, at a node or
    an ulp off one, or at an end."""
    seg, h, nodes = draw(st.sampled_from(REFERENCE_CLOTHOIDS))
    where = draw(st.sampled_from(("inside", "node", "ends")))
    if where == "inside":
        u = draw(st.floats(0.0, seg.length))
    elif where == "node":
        u = draw(st.integers(0, len(nodes) - 1)) * h
        u = draw(st.sampled_from((u, math.nextafter(u, -1.0), math.nextafter(u, 10.0))))
        u = min(max(u, 0.0), seg.length)
    else:
        u = draw(st.sampled_from((0.0, seg.length)))
    return seg, h, nodes, u


@settings(max_examples=300, deadline=None)
@given(clothoid_abscissa())
def test_clothoid_evaluator_matches_the_loop_form_rule_bitwise(drawn):
    seg, h, nodes, u = drawn
    want = reference_point(seg, h, nodes, u)
    assert hex_pair(seg.point(u)) == hex_pair(want)
    # The tangency condition reads the same point, and heading(u).
    x, y = want[0] + 0.25, want[1] - 0.5
    th = seg.heading(u)
    dx, dy = x - want[0], y - want[1]
    g = (dx * math.cos(th) + dy * math.sin(th), dy * math.cos(th) - dx * math.sin(th))
    assert hex_pair(Path._tangency(seg, x, y, u)) == hex_pair(g)


@pytest.mark.parametrize("u", [-1e-3, -0.1, -1.0, -3.0, -1e6])
def test_clothoid_point_before_the_start_is_the_start_point(u):
    # The node index is clamped at 0: it never wraps to a node near the end.
    seg = REFERENCE_CLOTHOIDS[0][0]
    assert seg.point(u) == seg.start_pose[:2]


@pytest.mark.parametrize("foot_s, l", [(5.5123, 0.2), (5.5123, -0.2), (4.9, 0.2), (6.1, -0.2)],
                         ids=["inside-left", "inside-right", "before-lo", "past-hi"])
def test_hinted_clothoid_projection_evaluates_each_window_end_once(monkeypatch, foot_s, l):
    # The walk scores lo and hi and hands those points to the clothoid
    # search, which evaluates the tangency condition at both ends: each end
    # is evaluated once.  Neither end lies on a node, where the evaluator
    # would not be called at all.
    path = mixed_path()
    seg, s0, hint = path.segments[1], path.cumulative_s[1], 5.51  # the window: [5.21, 5.81]
    ua, ub = hint - 0.3 - s0, hint + 0.3 - s0
    h = seg._clothoid[0]
    assert int(ua / h) * h < ua and int(ub / h) * h < ub
    calls = []
    gl5 = PathSegment._gl5
    monkeypatch.setattr(
        PathSegment, "_gl5", lambda seg, x, y, a, b: calls.append(b) or gl5(seg, x, y, a, b)
    )
    path.frenet_project(offset_pose(path, foot_s, l), hint_s=hint)
    assert (calls.count(ua), calls.count(ub)) == (1, 1)


def test_projection_theta_wrap():
    p = build_path([{"kind": "line", "length": 10}])
    f = p.frenet_project((5, 0.5, math.pi))  # wrap(pi) = -pi
    assert f.theta_tilde == -math.pi


def test_projection_rejects_nonfinite_pose():
    p = build_path([{"kind": "line", "length": 10}])
    with pytest.raises(ValueError):
        p.frenet_project((math.nan, 0, 0))


@pytest.mark.parametrize("hint", [5.0, None], ids=["hinted", "global"])
def test_projection_of_a_far_pose_overflows_with_one_fixed_message(hint):
    # 1e200 squared overflows quietly to inf; frenet_project alone turns the
    # infinite best distance into an error, with no C library text in it.
    p = build_path([{"kind": "line", "length": 10}])
    with pytest.raises(OverflowError) as exc:
        p.frenet_project((5.0, 1e200, 0.0), hint_s=hint)
    assert str(exc.value) == "pose too far from the path to project"


def test_projection_of_a_pose_too_far_gives_up_before_any_window_pass(monkeypatch):
    # Every segment-minimum candidate's distance overflows: the path's ends,
    # each line's foot point, the arc's stationary point and each clothoid's
    # integration nodes, which all tie as local minima.  Refining each
    # clothoid's would find only infinities again.
    calls = []
    window = Path._best_in_window
    monkeypatch.setattr(
        Path, "_best_in_window", lambda self, *args: calls.append(args) or window(self, *args)
    )
    path = build_demo_scenario().build_path()
    with pytest.raises(OverflowError, match="^pose too far from the path to project$"):
        path.frenet_project((1e300, 0.0, 0.0))
    assert calls == []


@pytest.mark.parametrize("radius", [-0.3, math.nan])
@pytest.mark.parametrize("hint", [5.0, None], ids=["hinted", "global"])
def test_projection_rejects_a_negative_or_nan_radius(hint, radius):
    p = build_path([{"kind": "line", "length": 10}])
    with pytest.raises(ValueError, match="radius"):
        p.frenet_project((5.0, 1.0, 0.0), hint_s=hint, radius=radius)


# -- bitwise oracle: the window search before its single pass --------------


def reference_window(path, x, y, lo, hi):
    """The earlier window search: ``lo``, then every segment's candidates,
    then ``hi``, each scored through ``pose_at``; strictly smaller wins."""

    def dist2(s):
        px, py, _ = path.pose_at(s)
        return (x - px) * (x - px) + (y - py) * (y - py)

    cum = path.cumulative_s
    i_lo = max(0, bisect.bisect_right(cum, lo) - 1)
    # A window shorter than 1e-12 m just past a joint still searches i_lo.
    i_hi = max(i_lo, bisect.bisect_right(cum, min(hi, path.total_length) - 1e-12) - 1)
    candidates = []
    for i in range(i_lo, min(i_hi, len(path.segments) - 1) + 1):
        seg, s0 = path.segments[i], cum[i]
        ua, ub = max(0.0, lo - s0), min(seg.length, hi - s0)
        if ub <= ua:
            continue
        if seg.kind == "line":
            x0, y0, th0 = seg.start_pose
            us = [(x - x0) * math.cos(th0) + (y - y0) * math.sin(th0)]
        elif seg.kind == "arc":
            us = Path._project_arc(seg, x, y, ua, ub)[0]
        else:
            u = path._project_clothoid(seg, x, y, ua, ub)
            us = [] if u is None else [u]
        candidates += [s0 + min(max(u, ua), ub) for u in us]
    best_s, best_d2 = lo, dist2(lo)
    for s in candidates + [hi]:
        d2 = dist2(s)
        if d2 < best_d2:
            best_s, best_d2 = s, d2
    return best_s, best_d2


# The loop-form nodes of each clothoid the oracle meets, computed once.
reference_nodes_of = functools.lru_cache(maxsize=None)(reference_nodes)


def reference_global(path, x, y, radius):
    """The global search's rule, spelled apart from it: the path's two ends,
    each line's foot point clamped to the line, each arc's stationary points
    (over its first period and the rest apart, when it is longer), and each
    clothoid's local minima on its loop-form node grid (ties included), each
    searched by ``reference_window`` between its neighbouring nodes.  Each
    point is scored through ``pose_at``.  The nearest wins, the lowest s on
    a tie, unless another equally near lies farther than ``radius`` off."""

    def dist2(s):
        px, py, _ = path.pose_at(s)
        return (x - px) * (x - px) + (y - py) * (y - py)

    found = [0.0]
    for seg, s0 in zip(path.segments, path.cumulative_s):
        if seg.kind == "line":
            x0, y0, th0 = seg.start_pose
            u = (x - x0) * math.cos(th0) + (y - y0) * math.sin(th0)
            found.append(s0 + min(max(u, 0.0), seg.length))
        elif seg.kind == "arc":
            period = 2.0 * math.pi / abs(seg.curvature_start)
            cuts = [0.0, period, seg.length] if seg.length > period else [0.0, seg.length]
            for ua, ub in zip(cuts, cuts[1:]):
                found += [s0 + u for u in Path._project_arc(seg, x, y, ua, ub)[0]]
        else:
            h, nodes = reference_nodes_of(seg)
            xy = np.array(nodes)
            d2 = (xy[:, 0] - x) * (xy[:, 0] - x) + (xy[:, 1] - y) * (xy[:, 1] - y)
            padded = np.r_[np.inf, d2, np.inf]
            # The node abscissae clamped to the clothoid, and one past its end.
            u = np.minimum(np.arange(len(nodes) + 1) * h, seg.length)
            for k in np.flatnonzero((d2 <= padded[:-2]) & (d2 <= padded[2:])):
                lo, hi = float(s0 + u[max(k - 1, 0)]), float(s0 + u[k + 1])
                found.append(reference_window(path, x, y, lo, hi)[0])
    found.append(path.total_length)
    scored = sorted(((s, dist2(s)) for s in found), key=lambda c: c[1])
    s, d_best = scored[0]
    for s_other, d_other in scored[1:]:
        if abs(s_other - s) > radius and abs(math.sqrt(d_other) - math.sqrt(d_best)) <= 1e-9:
            raise AmbiguousProjection(f"{s} and {s_other}")
    return s


def reference_project(path, pose, hint_s=None, radius=0.3):
    x, y, th = (float(v) for v in pose)
    if hint_s is not None:
        lo, hi = max(0.0, hint_s - radius), min(path.total_length, hint_s + radius)
        s = reference_window(path, x, y, lo, hi)[0]
    else:
        s = reference_global(path, x, y, radius)
    px, py, thd = path.pose_at(s)
    l = (x - px) * -math.sin(thd) + (y - py) * math.cos(thd)
    c, _ = path.curvature(s)
    if 1.0 - c * l <= 1e-12:
        raise SingularProjection(f"s={s}")
    return FrenetState(s=s, l=l, theta_tilde=wrap_angle(th - thd))


# Joints at sqrt(2) and pi / 3 plus lengths: sums with every mantissa bit
# set, on segments longer than their start s, so that ``s0 + (hi - s0)``
# can differ from ``hi`` in the last bit.
ORACLE_PATHS = (
    build_path(
        [
            {"kind": "line", "length": math.sqrt(2.0)},
            {"kind": "arc", "length": 2.1, "curvature": 0.7},
            {"kind": "line", "length": 5.0},
        ]
    ),
    build_path(
        [
            {"kind": "line", "length": math.pi / 3.0},
            {"kind": "clothoid", "length": 3.0, "curvature_start": 0.0, "curvature_end": 0.5},
            {"kind": "arc", "length": 2.0, "curvature": 0.5},
            {"kind": "clothoid", "length": 3.0, "curvature_start": 0.5, "curvature_end": 0.0},
            {"kind": "line", "length": 4.0},
        ],
        start_pose=(0.3, -1.1, 0.7),
    ),
)


@st.composite
def oracle_query(draw):
    """A path, a pose near it, and a hint (None for the global search)."""
    path = draw(st.sampled_from(ORACLE_PATHS))
    ends = (0.0, *path.cumulative_s[1:], path.total_length)
    if draw(st.booleans()):
        s0 = draw(st.floats(0.0, path.total_length))
    else:  # a foot point on or right next to a joint or a path end
        s0 = draw(st.sampled_from(ends)) + draw(
            st.sampled_from((0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6))
        )
        s0 = min(max(s0, 0.0), path.total_length)
    l0 = draw(st.floats(-1.2, 1.2))
    heading = draw(st.floats(-math.pi, math.pi))
    kind = draw(st.sampled_from(("global", "near", "end_wins", "touches")))
    if kind == "global":
        hint = None
    elif kind == "near":
        hint = s0 + draw(st.floats(-0.12, 0.12))
    elif kind == "end_wins":  # the foot point lies outside the window
        hint = s0 + draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.3, 0.6))
    else:  # the window ends at s = 0, total_length or a joint
        hint = draw(st.sampled_from(ends)) + draw(st.sampled_from((-0.3, 0.0, 0.3)))
    if hint is not None:
        hint = min(max(hint, 0.0), path.total_length)
    return path, offset_pose(path, s0, l0, heading=heading), hint


def outcome(project):
    """The projection's bits (``float.hex`` tells -0.0 from 0.0), or its error."""
    try:
        f = project()
    except PathError as exc:
        return type(exc).__name__
    return tuple(float(v).hex() for v in (f.s, f.l, f.theta_tilde))


LINE_250 = build_path([{"kind": "line", "length": 250.0}])
ARC_6 = build_path([{"kind": "arc", "length": 6.0, "curvature": 1.0}])
ARC_TIGHT = build_path([{"kind": "arc", "length": 2.0, "curvature": 12.0}])
ARC_TURN_AND_A_HALF = build_path([{"kind": "arc", "length": 3.0 * math.pi, "curvature": 1.0}])
# A hint whose window lies inside the last line of ORACLE_PATHS[0].
MARGIN_HINT = math.sqrt(2.0) + 2.1 + 2.5


def margin_pose(path, hint, end, factor, l=0.3):
    """A pose ``l`` left of the line or arc holding ``hint``, its foot
    ``factor`` skip margins inside the end ``hint + end * 0.3`` of the
    hinted window (``end`` is -1 for lo, +1 for hi).  The margin is
    ``2**-15 * sqrt((d2 + scale**2) / w)``, as ``Path.frenet_project``
    states it: ``scale = |x| + |y| + |x0| + |y0| + s``, plus ``(2 + |th0|) /
    |c|`` on an arc, and ``w`` is 1 on a line and ``0.4 * rho * |c|`` on an
    arc, whose center lies ``rho = |1 / c - l|`` from the pose.  A few
    fixed-point passes settle ``scale`` at the pose."""
    s_end = hint + end * 0.3
    x0, y0, th0 = path.segments[bisect.bisect_right(path.cumulative_s, hint) - 1].start_pose
    c = path.curvature(hint)[0]
    w, reach = 1.0, 0.0
    if c != 0.0:
        w, reach = 0.4 * abs(1.0 / c - l) * abs(c), (2.0 + abs(th0)) / abs(c)
    s = s_end
    for _ in range(3):
        x, y, _ = offset_pose(path, s, l)
        scale = abs(x) + abs(y) + abs(x0) + abs(y0) + s + reach
        s = s_end - end * factor * 2.0**-15 * math.sqrt((l * l + scale * scale) / w)
    return offset_pose(path, s, l, heading=0.2)


@settings(max_examples=400, deadline=None)
@given(oracle_query())
# lo on the arc wins: the foot point lies before the window.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], 2.0, 0.3, heading=1.0), 2.45))
# hi on the clothoid wins, and s0 + (hi - s0) != hi there.
@example((ORACLE_PATHS[1], offset_pose(ORACLE_PATHS[1], 3.3, 0.2, heading=0.4), 2.7506))
# An exact tie between the samples 10.0 and 10.25 of a coarse scan, which
# once seeded the global search: both were local minima.
@example((build_path([{"kind": "line", "length": 256.0}]), (10.125, 1.0, 0.0), None))
# A line's foot just within and just beyond the skip margin, at lo and at hi.
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], MARGIN_HINT, -1, 0.9), MARGIN_HINT))
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], MARGIN_HINT, -1, 1.1), MARGIN_HINT))
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], MARGIN_HINT, 1, 0.9), MARGIN_HINT))
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], MARGIN_HINT, 1, 1.1), MARGIN_HINT))
# Windows across the line -> arc and the arc -> line joint.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], math.sqrt(2.0) + 0.05, 0.2),
          math.sqrt(2.0)))
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], math.sqrt(2.0) + 2.05, -0.2),
          math.sqrt(2.0) + 2.1))
# Across the line -> arc joint, 325 m to the left: the line's foot lies
# well inside its part, yet hi on the arc is nearer (and singular).
@example((ORACLE_PATHS[0], (0.9599907362034998, 325.29766788667416, -1.684124997242204),
          1.1509883469601703))
# Hints at the path's two ends.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], 0.1, 0.3), 0.0))
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], ORACLE_PATHS[0].total_length - 0.1, -0.3),
          ORACLE_PATHS[0].total_length))
# 1e6 m off a line the scores round at about 1e-4: lo wins against a foot
# 2 mm inside the window, which only the scaled margin leaves to the ends.
@example((LINE_250, (99.702, 1e6, 0.0), 100.0))
# Arc windows: an ordinary one; one whose pose lies 2.7e-12 m from the
# center, where the scores hardly vary and lo wins against the stationary
# point 5.8 mm inside; and one longer than 3 / |c|, where hi lies 4.4e-12 m
# short of the next stationary point (too far for that to be offered) and
# wins against the one 76 mm inside.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], math.sqrt(2.0) + 1.0, 0.4),
          math.sqrt(2.0) + 1.05))
@example((ARC_6, (1.2663821125330031e-12, 1.0000000000027196, 0.0), 3.0))
@example((ARC_TIGHT, (0.02037320187588751, 0.27130451608233386, 0.0), 1.0))
# A global search on an arc of one and a half turns: where it turns twice
# (ambiguous), and where it turns once.
@example((ARC_TURN_AND_A_HALF, offset_pose(ARC_TURN_AND_A_HALF, 1.0, 0.2), None))
@example((ARC_TURN_AND_A_HALF, offset_pose(ARC_TURN_AND_A_HALF, 4.0, -0.3), None))
def test_projection_matches_reference_window_search_bitwise(query):
    path, pose, hint = query
    got = outcome(lambda: path.frenet_project(pose, hint_s=hint, radius=0.3))
    want = outcome(lambda: reference_project(path, pose, hint_s=hint, radius=0.3))
    assert got == want


# An arc that turns right from a heading of -0.0 (at its start the heading
# is -0.0 + c * 0.0 = -0.0, and its sine -0.0), a line and an arc.  For hi
# one ulp short of the line's end, s0 + (hi - s0) rounds up onto that
# joint: sqrt(10) ends in binary ...11 and hi - s0 falls in hi's binade,
# so both sums are ties that round up to even.  (On ORACLE_PATHS[0] the
# same sums round down, off the joint.)
NEG_ARC = build_path(
    [
        {"kind": "arc", "length": math.sqrt(10.0), "curvature": -0.9},
        {"kind": "line", "length": math.e + 2.0},
        {"kind": "arc", "length": 1.5, "curvature": 0.5},
    ],
    start_pose=(0.0, 0.0, -0.0),
)
NEG_JOINT = NEG_ARC.cumulative_s[2]


@st.composite
def one_segment_query(draw):
    """A pose and a window, mostly inside one line or arc: ``(path, pose,
    hint, radius)``.  The cases are where answering such a window in place
    could part from the full search: a foot near the skip margin at either
    end; a pose near an arc's center or at ``l = 1 / c`` (singular); an
    offer that rounds onto the next joint; hints at the path's ends; and
    ``radius`` 0.  Some feet lie outside the window."""
    path = draw(st.sampled_from((ORACLE_PATHS[0], NEG_ARC)))
    k = draw(st.integers(0, len(path.segments) - 1))
    s0, c = path.cumulative_s[k], path.segments[k].curvature_start
    s1 = s0 + path.segments[k].length
    hint = draw(st.floats(s0 + 0.3, s1 - 0.3))
    radius = 0.3
    s = hint + draw(st.floats(-0.25, 0.25))
    l = draw(st.floats(-1.0, 1.0))
    case = draw(st.sampled_from(("near", "outside", "margin", "center", "joint", "ends")))
    if case == "outside":  # the foot lies beyond an end of the window
        s = hint + draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.3, 0.6))
    elif case == "margin":
        end, factor = draw(st.sampled_from((-1, 1))), draw(st.sampled_from((0.9, 1.1)))
        return path, margin_pose(path, hint, end, factor, l=l), hint, radius
    elif case == "center" and c != 0.0:
        l = 1.0 / c * (1.0 + draw(st.sampled_from((0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-9))))
    elif case == "joint" and k + 1 < len(path.segments):
        # hi ends a few ulps short of the joint, and the foot lies on or past it.
        hint = s1 - radius - draw(st.integers(0, 3)) * math.ulp(s1)
        s = s1 + draw(st.sampled_from((0.0, 1e-13, 1e-9, 1e-6, 0.1)))
    elif case == "ends":
        hint = draw(st.sampled_from((0.0, path.total_length, hint)))
        radius = draw(st.sampled_from((0.0, 0.3)))
        s = hint + draw(st.floats(-0.25, 0.25))
    s = min(max(s, 0.0), path.total_length)
    return path, offset_pose(path, s, l, heading=draw(st.floats(-math.pi, math.pi))), hint, radius


# Arc margin poses: the foot 0.9 and 1.1 skip margins inside lo and hi.
ARC_HINT = math.sqrt(2.0) + 1.05
# A hint 5e-13 m past the line -> arc joint.
JOINT_HINT = ORACLE_PATHS[0].cumulative_s[1] + 5e-13


@settings(max_examples=400, deadline=None)
@given(one_segment_query())
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], ARC_HINT, -1, 0.9), ARC_HINT, 0.3))
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], ARC_HINT, -1, 1.1), ARC_HINT, 0.3))
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], ARC_HINT, 1, 0.9), ARC_HINT, 0.3))
@example((ORACLE_PATHS[0], margin_pose(ORACLE_PATHS[0], ARC_HINT, 1, 1.1), ARC_HINT, 0.3))
@example((NEG_ARC, margin_pose(NEG_ARC, 1.0, 1, 1.1, l=-0.5), 1.0, 0.3))
# A pose 1e-12 m from the arc's center, and one at l = 1 / c: singular.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], ARC_HINT, 1.0 / 0.7 * (1.0 - 1e-12)),
          ARC_HINT, 0.3))
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], ARC_HINT, 1.0 / 0.7), ARC_HINT, 0.3))
# hi an ulp short of the line -> arc joint, the foot beyond it: the
# clamped offer s0 + ub rounds onto the joint, which belongs to the arc.
@example((NEG_ARC, offset_pose(NEG_ARC, NEG_JOINT + 0.1, 0.2),
          NEG_JOINT - 0.3 - math.ulp(NEG_JOINT), 0.3))
# Hints at the path's ends, and a zero radius.
@example((NEG_ARC, offset_pose(NEG_ARC, 0.1, 0.2), 0.0, 0.3))
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], ORACLE_PATHS[0].total_length - 0.1, 0.2),
          ORACLE_PATHS[0].total_length, 0.3))
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], ARC_HINT, 0.2), ARC_HINT, 0.0))
# A window longer than 3 / |c|, where hi wins, and one across the line ->
# arc joint, where the line's foot lies well inside its part, yet hi on the
# arc is nearer (see the oracle above for both).
@example((ARC_TIGHT, (0.02037320187588751, 0.27130451608233386, 0.0), 1.0, 0.3))
@example((ORACLE_PATHS[0], (0.9599907362034998, 325.29766788667416, -1.684124997242204),
          1.1509883469601703, 0.3))
# A window 1e-13 m long at the path's start, its foot 5e-14 inside it: the
# foot is offered, and wins, though the window ends within 1e-12 of s0.
# Near the origin it is answered in place; 1 m from it the margin leaves
# the window to the walk.
@example((ORACLE_PATHS[0], (5e-14, 1e-20, 0.0), 5e-14, 5e-14))
@example((ORACLE_PATHS[1], offset_pose(ORACLE_PATHS[1], 5e-14, 1e-20), 5e-14, 5e-14))
# A window 6e-13 m long, 2e-13 m past the line -> arc joint, the pose 1e-7 m
# left of the foot at the hint: the arc's foot is offered, and wins.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], JOINT_HINT, 1e-7), JOINT_HINT, 3e-13))
def test_one_segment_projection_matches_reference_bitwise(query):
    path, pose, hint, radius = query
    got = outcome(lambda: path.frenet_project(pose, hint_s=hint, radius=radius))
    want = outcome(lambda: reference_project(path, pose, hint_s=hint, radius=radius))
    assert got == want


@settings(max_examples=200, deadline=None)
@given(oracle_query())
# The foot lies past the joint that ends the window: the clamped offer is
# the joint, which belongs to the next segment.
@example((ORACLE_PATHS[0], (math.sqrt(2.0) + 0.1, -0.5, 0.0), math.sqrt(2.0) - 0.15))
def test_window_search_returns_the_segment_that_holds_its_answer(query):
    path, (x, y, _), hint = query
    if hint is None:
        hint = path.total_length / 2.0
    lo, hi = max(0.0, hint - 0.15), min(path.total_length, hint + 0.15)
    s, d2, i, p = path._best_in_window(x, y, lo, hi)
    assert i == path._locate(s)[2]
    # The point it scored is the path point at s, which _finish reuses.
    assert p == path.pose_at(s)[:2]


# ids: "within-lo" and so on for a hinted projection, "walk-within-lo" and
# so on for the walk.
@pytest.mark.parametrize("via, end, factor", [
    pytest.param(via, end, factor, id=f"{'walk-' if via == 'walk' else ''}{fid}-{eid}")
    for via in ("hinted", "walk")
    for factor, fid in ((0.9, "within"), (1.1, "beyond"))
    for end, eid in ((-1, "lo"), (1, "hi"))
])
def test_window_search_scores_the_ends_only_within_the_margin(monkeypatch, via, end, factor):
    # A hinted projection evaluates the window's ends lo and hi as offers
    # within the margin and never beyond it, whichever code scores the foot
    # point.  The walk evaluates both ends always.  The result carries its
    # segment, so no projection locates it again.
    path = ORACLE_PATHS[0]
    pose = margin_pose(path, MARGIN_HINT, end, factor)
    lo, hi = MARGIN_HINT - 0.3, MARGIN_HINT + 0.3
    us = []
    point = PathSegment.point
    monkeypatch.setattr(PathSegment, "point", lambda seg, u: us.append(u) or point(seg, u))
    monkeypatch.setattr(Path, "_locate", lambda *args: pytest.fail("located again"))
    if via == "hinted":
        path.frenet_project(pose, hint_s=MARGIN_HINT)
    else:
        path._best_in_window(pose[0], pose[1], lo, hi)
    s0 = path.cumulative_s[-1]  # the window lies inside the last line
    ends = {lo - s0, hi - s0}
    assert ends & set(us) == (ends if via == "walk" or factor < 1.0 else set())


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(-math.pi, math.pi),
    st.floats(1.0, 500.0),
    st.floats(0.0, 1.0),
    st.floats(-0.05, 1.05),
    st.floats(-20.0, 20.0),
)
def test_hinted_line_projection_is_the_clamped_foot_point(x0, y0, th0, length, h, f, l):
    path = build_path([{"kind": "line", "length": length}], start_pose=(x0, y0, th0))
    hint = h * length
    lo, hi = max(0.0, hint - 0.3), min(length, hint + 0.3)
    u = f * length
    x = x0 + u * math.cos(th0) - l * math.sin(th0)
    y = y0 + u * math.sin(th0) + l * math.cos(th0)
    foot = (x - x0) * math.cos(th0) + (y - y0) * math.sin(th0)
    # A foot a hair inside the window can tie with an end by rounding.
    assume(not lo < foot < hi or min(foot - lo, hi - foot) > 1e-4)
    assert path.frenet_project((x, y, 0.0), hint_s=hint).s == min(max(foot, lo), hi)


def test_global_projection_returns_python_floats():
    # The unhinted search works in plain floats throughout, so no numpy
    # scalar reaches the result.  At this pose near the demo course a
    # numpy coarse scan made s a numpy.float64.
    path = build_demo_scenario().build_path()
    f = path.frenet_project((20.197401659079283, 1.092016168567227, 0.3819557256764625))
    assert [type(v) for v in (f.s, f.l, f.theta_tilde)] == [float, float, float]
    assert f.s == 17.99677956757714


# -- a window inside one clothoid, answered by the walk ---------------------

# A clothoid that ends the path, after an arc: a window on it can end at
# total_length, with no joint past it.
END_CLOTHOID = build_path(
    [
        {"kind": "arc", "length": 1.1, "curvature": -0.4},
        {"kind": "clothoid", "length": 2.3, "curvature_start": -0.4, "curvature_end": 1.7},
    ],
    start_pose=(-3.0, 2.0, 2.5),
)


def walk(path, pose, hint, radius):
    """The hinted projection through ``_best_in_window`` and ``_finish``."""
    x, y, th = pose
    lo, hi = max(0.0, hint - radius), min(path.total_length, hint + radius)
    s, d2, i, p = path._best_in_window(x, y, lo, hi)
    if not d2 < math.inf:
        raise OverflowError("pose too far from the path to project")
    return path._finish(x, y, th, s, i, p)


def log_walks(monkeypatch):
    """The list to which each later ``_best_in_window`` call appends its arguments."""
    calls = []
    window = Path._best_in_window
    monkeypatch.setattr(
        Path, "_best_in_window", lambda self, *args: calls.append(args) or window(self, *args)
    )
    return calls


def outcome_or_overflow(project):
    """``outcome``, which names an OverflowError too."""
    try:
        return outcome(project)
    except OverflowError:
        return "OverflowError"


def inside_one_clothoid(path, hint, radius):
    lo, hi = max(0.0, hint - radius), min(path.total_length, hint + radius)
    i = bisect.bisect_right(path.cumulative_s, lo) - 1
    nxt = path.cumulative_s[i + 1] if i + 1 < len(path.cumulative_s) else math.inf
    return path.segments[i].kind == "clothoid" and hi < nxt


@st.composite
def clothoid_window_query(draw):
    """A pose and a hinted window inside one clothoid: ``(path, pose, hint,
    radius)``.  The window lies anywhere, starts or ends on an integration
    node, starts at the clothoid's first point, ends a few ulps short of its
    last one, or ends the path; its radius is 0.3, 0 or small.  The foot
    lies inside the window, 1e-13 to 1e-3 m inside or outside either end,
    or beyond an end; the pose is near, far enough that the single-root
    bound fails, or at the center of curvature (singular)."""
    path = draw(st.sampled_from((ORACLE_PATHS[1], END_CLOTHOID)))
    k = draw(st.sampled_from([j for j, seg in enumerate(path.segments) if seg.kind == "clothoid"]))
    seg, s0 = path.segments[k], path.cumulative_s[k]
    s1 = s0 + seg.length
    radius = draw(st.sampled_from((0.3, 0.0, 0.05)))
    where = draw(st.sampled_from(("anywhere", "node", "first", "last")))
    if where == "anywhere":
        hint = draw(st.floats(s0 + radius, s1 - radius))
    elif where == "node":
        node = s0 + draw(st.integers(0, seg._clothoid[1])) * seg._clothoid[0]
        hint = node + draw(st.sampled_from((-1.0, 1.0))) * radius
    elif where == "first":
        hint = s0 + radius
    elif k + 1 < len(path.segments):
        hint = s1 - radius - draw(st.integers(1, 3)) * math.ulp(s1)
    else:
        hint = path.total_length
    hint = min(max(hint, 0.0), path.total_length)
    assume(inside_one_clothoid(path, hint, radius))
    lo, hi = max(0.0, hint - radius), min(path.total_length, hint + radius)
    foot = draw(st.sampled_from(("inside", "edge", "outside")))
    if foot == "inside":
        s = draw(st.floats(lo, hi))
    elif foot == "edge":  # a root just inside or just outside an end
        s = draw(st.sampled_from((lo, hi))) + draw(
            st.sampled_from((0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3))
        )
    else:
        s = draw(st.sampled_from((lo, hi))) + draw(st.floats(-0.5, 0.5))
    s = min(max(s, 0.0), path.total_length)
    pose = draw(st.sampled_from(("near", "far", "center")))
    if pose == "near":
        l = draw(st.floats(-1.0, 1.0))
    elif pose == "far":  # c_max * (|pose - P(ua)| + (ub - ua)) >= 1
        l = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(2.0, 60.0))
    else:
        c = path.curvature(s)[0]
        assume(c != 0.0)
        l = 1.0 / c * (1.0 + draw(st.sampled_from((0.0, 1e-13, -1e-13, 1e-9))))
    return path, offset_pose(path, s, l, heading=draw(st.floats(-math.pi, math.pi))), hint, radius


# The pose at the center of curvature of the window's one point: singular.
CENTER_HINT = END_CLOTHOID.total_length - 0.4


@settings(max_examples=500, deadline=None)
@given(clothoid_window_query())
@example((END_CLOTHOID, offset_pose(END_CLOTHOID, CENTER_HINT, 1.0 / END_CLOTHOID.curvature(
    CENTER_HINT)[0]), CENTER_HINT, 0.0))
# 40 m right of the clothoid of ORACLE_PATHS[1]: the single-root bound fails.
@example((ORACLE_PATHS[1], offset_pose(ORACLE_PATHS[1], 3.0, -40.0), 3.0, 0.3))
def test_clothoid_windows_match_the_reference_bitwise(query):
    path, pose, hint, radius = query
    got = outcome_or_overflow(lambda: path.frenet_project(pose, hint_s=hint, radius=radius))
    assert got == outcome_or_overflow(lambda: reference_project(path, pose, hint, radius))


@pytest.mark.parametrize("foot_s, l", [
    (3.0, 0.2), (3.0, -0.2), (2.5, 0.2), (3.5, -0.2), (3.0, -40.0), (3.0, -1e300),
], ids=["root-left", "root-right", "lo-wins", "hi-wins", "far", "overflow"])
def test_a_window_inside_one_clothoid_is_answered_by_one_walk(monkeypatch, foot_s, l):
    # Whether the root, lo or hi wins, and when the single-root bound fails
    # (40 m right of a bend that curves left), the answer is the reference's
    # and comes from one walk.  An overflowing distance raises.
    path = ORACLE_PATHS[1]
    pose = offset_pose(path, foot_s, l)
    calls = log_walks(monkeypatch)
    got = outcome_or_overflow(lambda: path.frenet_project(pose, hint_s=3.0))
    if l == -1e300:
        assert got == "OverflowError"
    else:
        assert got == outcome(lambda: reference_project(path, pose, 3.0))
    assert len(calls) == 1


# NEG_ARC with a clothoid for its line: hi one ulp short of the clothoid's
# end, where s0 + (hi - s0) rounds up onto the joint (see NEG_ARC).
NEG_CLOTHOID = build_path(
    [
        {"kind": "arc", "length": math.sqrt(10.0), "curvature": -0.9},
        {"kind": "clothoid", "length": math.e + 2.0, "curvature_start": -0.9, "curvature_end": 0.5},
        {"kind": "arc", "length": 1.5, "curvature": 0.5},
    ],
    start_pose=(0.0, 0.0, -0.0),
)


def test_a_clothoid_root_that_rounds_onto_the_next_joint_is_left_to_the_walk(monkeypatch):
    # A root at ub, as Newton returns when the tangency root lies within an
    # ulp of it: its s = s0 + ub is the next joint, which belongs to the next
    # segment, where the walk scores it.
    path = NEG_CLOTHOID
    s0, joint = path.cumulative_s[1], path.cumulative_s[2]
    hint = joint - 0.3 - math.ulp(joint)
    hi = hint + 0.3
    assert hi < joint and s0 + (hi - s0) == joint
    monkeypatch.setattr(Path, "_project_clothoid", lambda self, seg, x, y, ua, ub, *ends: ub)
    pose = offset_pose(path, joint, 0.2)
    want = outcome(lambda: walk(path, pose, hint, 0.3))
    calls = log_walks(monkeypatch)
    assert outcome(lambda: path.frenet_project(pose, hint_s=hint)) == want
    assert len(calls) == 1


def test_a_singular_pose_on_a_clothoid_window_is_left_to_the_walk(monkeypatch):
    # A window of radius 0 at the path's end, the pose at that point's
    # center of curvature: the walk takes it, and its _finish raises.
    path, s = END_CLOTHOID, END_CLOTHOID.total_length
    pose = offset_pose(path, s, 1.0 / path.curvature(s)[0])
    calls = log_walks(monkeypatch)
    with pytest.raises(SingularProjection):
        path.frenet_project(pose, hint_s=s, radius=0.0)
    assert len(calls) == 1


# -- arc offers ------------------------------------------------------------


def arc_offers_by_loop(seg, x, y, ua, ub):
    """The arc's offers as a loop over every period near ``[ua, ub]``: the
    stationary points ``u0 + k * period`` within 1e-12 of the window, each
    clamped to it.  Its cost grows with the window's length in periods."""
    c = seg.curvature_start
    x0, y0, th0 = seg.start_pose
    cos0, sin0 = seg._dir
    cx, cy = x0 - sin0 / c, y0 + cos0 / c
    phi = math.atan2(y - cy, x - cx)
    u0 = wrap_angle(phi + math.copysign(0.5 * math.pi, c) - th0) / c
    period = 2.0 * math.pi / abs(c)
    out = []
    for k in range(math.floor((ua - u0) / period) - 1, math.ceil((ub - u0) / period) + 2):
        u = u0 + k * period
        if ua - 1e-12 <= u <= ub + 1e-12:
            u = ua if ua > u else u
            out.append(ub if ub < u else u)
    return out


@st.composite
def arc_windows(draw, periods):
    """An arc segment, a pose off its center and a window ``[ua, ub]`` of
    ``periods`` (a strategy of fractions) periods; one end sometimes lies
    within 1e-12 of a stationary point."""
    c = draw(st.floats(0.05, 12.0)) * draw(st.sampled_from([-1.0, 1.0]))
    start = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)), draw(st.floats(-4.0, 4.0)))
    seg = build_path([{"kind": "arc", "length": 10.0, "curvature": c}],
                     start_pose=start).segments[0]
    x, y = draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))
    period = 2.0 * math.pi / abs(c)
    width = draw(periods) * period
    if draw(st.booleans()):
        ua = draw(st.floats(0.0, 5.0))
    else:
        points = arc_offers_by_loop(seg, x, y, 1.0, 1.0 + period)
        edge = points[0] + draw(st.sampled_from([-1e-12, -5e-13, 0.0, 5e-13, 1e-12]))
        ua = edge if draw(st.booleans()) else edge - width
    return seg, x, y, ua, ua + width


@settings(max_examples=300, deadline=None)
@given(arc_windows(st.floats(0.0, 1.0, exclude_max=True)))
def test_a_short_arc_window_offers_what_the_loop_over_periods_offers_bitwise(query):
    seg, x, y, ua, ub = query
    assume(abs(seg.curvature_start) * (ub - ua) < 2.0 * math.pi)
    assume(math.hypot(x - seg.start_pose[0] + seg._dir[1] / seg.curvature_start,
                      y - seg.start_pose[1] - seg._dir[0] / seg.curvature_start) >= 1e-15)
    got = Path._project_arc(seg, x, y, ua, ub)[0]
    want = arc_offers_by_loop(seg, x, y, ua, ub)
    assert [u.hex() for u in got] == [u.hex() for u in want]


def project_arc_by_loop_over_k(seg, x, y, ua, ub):
    """``Path._project_arc`` as it was written with a loop over every ``k``
    from ``k_min`` to ``k_max``, before it walked up from ``k_min`` and
    stopped past the window."""
    c = seg.curvature_start
    x0, y0, th0 = seg.start_pose
    cos0, sin0 = seg._dir
    cx = x0 - sin0 / c
    cy = y0 + cos0 / c
    rho = math.hypot(x - cx, y - cy)
    if rho < 1e-15:
        return [0.5 * (ua + ub)], rho
    phi = math.atan2(y - cy, x - cx)
    u0 = wrap_angle(phi + math.copysign(0.5 * math.pi, c) - th0) / c
    period = 2.0 * math.pi / abs(c)
    if (ub - ua) * abs(c) >= 2.0 * math.pi:
        u = ua + (u0 - ua) % period
        return [ub if ub < u else u], rho
    out = []
    k_min = math.floor((ua - u0) / period) - 1
    k_max = math.ceil((ub - u0) / period) + 1
    for k in range(k_min, k_max + 1):
        u = u0 + k * period
        if ua - 1e-12 <= u <= ub + 1e-12:
            u = ua if ua > u else u
            out.append(ub if ub < u else u)
    return out, rho


# A period of 6.3e-14 m, a sixteenth of the 1e-12 slack: every point from
# k_min to k_max lies within the slack of a window of half a period, and so
# do the next dozen, so k_max alone ends the walk.
TINY_PERIOD_ARC = build_path([{"kind": "arc", "length": 1.0, "curvature": 1e14}]).segments[0]
# Centred on (0, 2).
HALF_CURVATURE_ARC = build_path([{"kind": "arc", "length": 5.0, "curvature": 0.5}]).segments[0]


@settings(max_examples=300, deadline=None)
@given(arc_windows(st.floats(0.0, 4.0)))
@example((TINY_PERIOD_ARC, 0.3, 0.2, 0.25, 0.25 + 0.5 * 2.0 * math.pi / 1e14))
@example((HALF_CURVATURE_ARC, 0.0, 2.0, 1.0, 2.0))
def test_arc_offers_and_distance_match_the_loop_over_k_bitwise(query):
    # Windows of up to four periods, some with an end within 1e-12 of a
    # stationary point; the examples add a pose at the centre.
    got_offers, got_rho = Path._project_arc(*query)
    want_offers, want_rho = project_arc_by_loop_over_k(*query)
    assert [u.hex() for u in got_offers] == [u.hex() for u in want_offers]
    assert got_rho.hex() == want_rho.hex()


@settings(max_examples=200, deadline=None)
@given(arc_windows(st.floats(1.0, 4.0)))
def test_a_long_arc_window_offers_its_first_stationary_point_once(query):
    # Every stationary point in a window of a period or more is the same
    # point of the circle, so the window offers one: the first at or after
    # ua, which wins a tie with any later copy.
    seg, x, y, ua, ub = query
    c = seg.curvature_start
    assume(abs(c) * (ub - ua) >= 2.0 * math.pi)
    (u,) = Path._project_arc(seg, x, y, ua, ub)[0]
    assert ua <= u <= ub
    assert u <= ua + 2.0 * math.pi / abs(c)
    loop = arc_offers_by_loop(seg, x, y, ua, ub)
    px, py = seg.point(u)
    for v in loop:
        qx, qy = seg.point(v)
        assert math.hypot(px - qx, py - qy) < 1e-9 * (1.0 + 1.0 / abs(c))


def test_a_window_of_1e299_periods_offers_one_point_without_looping():
    # The loop over periods took about 1e299 turns here.
    path = build_path([{"kind": "line", "length": 1.0},
                       {"kind": "arc", "length": 2.0, "curvature": 1e300}])
    seg = path.segments[1]
    offers, _ = Path._project_arc(seg, 1.5, 0.2, 0.25, 0.85)
    assert len(offers) == 1 and 0.25 <= offers[0] <= 0.85
    # The arc's center lies 1e-300 m from it, so nearly every pose is
    # beyond it: the hinted projection ends, and says so.
    with pytest.raises(SingularProjection):
        path.frenet_project((1.5, 0.2, 0.0), hint_s=1.5, radius=0.3)
