import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from brakesteer.path_geometry import (
    AmbiguousProjection,
    ContinuityError,
    EmptyPath,
    FrenetState,
    OutOfRange,
    Path,
    PathError,
    SingularProjection,
    build_path,
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


def test_projection_theta_wrap():
    p = build_path([{"kind": "line", "length": 10}])
    f = p.frenet_project((5, 0.5, math.pi))  # wrap(pi) = -pi
    assert f.theta_tilde == -math.pi


def test_projection_rejects_nonfinite_pose():
    p = build_path([{"kind": "line", "length": 10}])
    with pytest.raises(ValueError):
        p.frenet_project((math.nan, 0, 0))


# -- bitwise oracle: the window search before its single pass --------------


def reference_window(path, x, y, lo, hi):
    """The earlier window search: ``lo``, then every segment's candidates,
    then ``hi``, each scored through ``pose_at``; strictly smaller wins."""

    def dist2(s):
        px, py, _ = path.pose_at(s)
        return (x - px) ** 2 + (y - py) ** 2

    cum = path.cumulative_s
    i_lo = max(0, bisect.bisect_right(cum, lo) - 1)
    i_hi = max(0, bisect.bisect_right(cum, min(hi, path.total_length) - 1e-12) - 1)
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
            us = Path._project_arc(seg, x, y, ua, ub)
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


def reference_project(path, pose, hint_s=None, radius=0.3):
    x, y, th = (float(v) for v in pose)
    if hint_s is not None:
        lo, hi = max(0.0, hint_s - radius), min(path.total_length, hint_s + radius)
        s = reference_window(path, x, y, lo, hi)[0]
    else:
        # build_path's scan: the path point every ~0.25 m (finer on short
        # paths), at np.linspace's abscissae.
        total = path.total_length
        n = max(2, math.ceil(total / min(0.25, max(total / 1000.0, 1e-3))))
        scan_s = np.linspace(0.0, total, n + 1)
        xy = np.array([path.pose_at(s)[:2] for s in scan_s])
        d2 = (xy[:, 0] - x) ** 2 + (xy[:, 1] - y) ** 2
        local_min = np.r_[False, (d2[1:-1] <= d2[:-2]) & (d2[1:-1] <= d2[2:]), False]
        local_min[0] = d2[0] <= d2[1]
        local_min[-1] = d2[-1] <= d2[-2]
        step = scan_s[1] - scan_s[0]
        found = sorted(
            (
                reference_window(path, x, y, max(0.0, scan_s[i] - step),
                                 min(path.total_length, scan_s[i] + step))
                for i in np.flatnonzero(local_min)
            ),
            key=lambda c: c[1],
        )
        s, d_best = found[0]
        for s_other, d_other in found[1:]:
            if abs(s_other - s) > radius and abs(math.sqrt(d_other) - math.sqrt(d_best)) <= 1e-9:
                raise AmbiguousProjection(f"{s} and {s_other}")
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


@settings(max_examples=400, deadline=None)
@given(oracle_query())
# lo on the arc wins: the foot point lies before the window.
@example((ORACLE_PATHS[0], offset_pose(ORACLE_PATHS[0], 2.0, 0.3, heading=1.0), 2.45))
# hi on the clothoid wins, and s0 + (hi - s0) != hi there.
@example((ORACLE_PATHS[1], offset_pose(ORACLE_PATHS[1], 3.3, 0.2, heading=0.4), 2.7506))
# An exact tie between scan samples 10.0 and 10.25: both are local minima.
@example((build_path([{"kind": "line", "length": 256.0}]), (10.125, 1.0, 0.0), None))
def test_projection_matches_reference_window_search_bitwise(query):
    path, pose, hint = query
    got = outcome(lambda: path.frenet_project(pose, hint_s=hint, radius=0.3))
    want = outcome(lambda: reference_project(path, pose, hint_s=hint, radius=0.3))
    assert got == want


def test_global_projection_returns_python_floats():
    # The unhinted search works in plain floats throughout, so no numpy
    # scalar reaches the result.  At this pose near the demo course a
    # numpy coarse scan made s a numpy.float64.
    path = build_demo_scenario().build_path()
    f = path.frenet_project((20.197401659079283, 1.092016168567227, 0.3819557256764625))
    assert [type(v) for v in (f.s, f.l, f.theta_tilde)] == [float, float, float]
    assert f.s == 17.99677956757714
