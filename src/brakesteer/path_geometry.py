"""Planar paths built from lines, circular arcs and clothoids.

A path is an ordered chain of constant-or-linear-curvature segments,
parameterized by arc length ``s``.  The module provides pose and curvature
queries along the path and the projection of an arbitrary world pose onto
the path in Frenet coordinates ``(s, l, theta_tilde)``.

Conventions
-----------
* Headings are measured from the world X axis, counter-clockwise positive.
* Curvature is signed: positive curves to the left.
* The lateral offset ``l`` is positive on the left of the tangent direction
  (along the Frenet Y axis), so that ``dl/dt = v * sin(theta_tilde)``.
* ``theta_tilde`` is always wrapped to ``[-pi, pi)``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

TWO_PI = 2.0 * math.pi

# Joint matching tolerances for chained segments.
JOINT_POS_TOL = 1e-9
JOINT_HEAD_TOL = 1e-9

# Spacing of the cached clothoid integration nodes.  Positions between nodes
# are recovered with a 5-point Gauss-Legendre rule whose error on a 0.05 m
# sub-interval is far below the 1e-10 m position budget.
_CLOTHOID_NODE_STEP = 0.05

# 5-point Gauss-Legendre (abscissa, weight) pairs on [-1, 1].  The rule is
# summed, and the nodes are kept, in plain Python floats: numpy scalars and
# 5-element arrays cost more in call overhead than the arithmetic, and a
# numpy dot product is a fused multiply-add sum whose last bits depend on
# the BLAS build.
_GL5 = (
    (-0.9061798459386640, 0.2369268850561891),
    (-0.5384693101056831, 0.4786286704993665),
    (0.0, 0.5688888888888889),
    (0.5384693101056831, 0.4786286704993665),
    (0.9061798459386640, 0.2369268850561891),
)


class PathError(Exception):
    """Base class for path construction and query errors."""


class EmptyPath(PathError):
    """Raised when a path is built from an empty segment list."""


class ContinuityError(PathError):
    """Raised when consecutive segments do not join with matching pose."""


class OutOfRange(PathError):
    """Raised when an arc-length query falls outside ``[0, total_length]``."""


class SingularProjection(PathError):
    """Raised when a pose is at or beyond the local center of curvature."""


class AmbiguousProjection(PathError):
    """Raised when two distant path points are equally close to the pose."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to ``[-pi, pi)``; ``wrap_angle(pi) == -pi``."""
    return (angle + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class FrenetState:
    """Path-relative coordinates of a world pose.

    ``s`` is arc length along the path, ``l`` the signed lateral offset
    (positive left) and ``theta_tilde`` the heading error versus the path
    tangent, wrapped to ``[-pi, pi)``.
    """

    s: float
    l: float
    theta_tilde: float


@dataclass(frozen=True)
class PathSegment:
    """One constant-or-linear-curvature piece of a path.

    Lines carry zero curvature, arcs a constant nonzero curvature, and
    clothoids interpolate curvature linearly in arc length.  ``start_pose``
    is the world pose ``(x, y, heading)`` at the segment's first point.
    """

    kind: str
    length: float
    curvature_start: float
    curvature_end: float
    start_pose: tuple[float, float, float]
    _node_xy: tuple[tuple[float, float], ...] = field(default=(), repr=False, compare=False)
    # (cos, sin) of the start heading, computed once for line and arc queries.
    _dir: tuple[float, float] = field(default=(1.0, 0.0), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("line", "arc", "clothoid"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not self.length > 0.0:
            raise ValueError("segment length must be > 0")
        if self.kind == "line" and (self.curvature_start != 0.0 or self.curvature_end != 0.0):
            raise ValueError("line segments must have zero curvature")
        if self.kind == "arc":
            if self.curvature_start != self.curvature_end:
                raise ValueError("arc segments need equal start/end curvature")
            if self.curvature_start == 0.0:
                raise ValueError("arc segments need nonzero curvature")
        th0 = self.start_pose[2]
        object.__setattr__(self, "_dir", (math.cos(th0), math.sin(th0)))
        if self.kind == "clothoid":
            object.__setattr__(self, "_node_xy", self._integrate_nodes())

    # -- local queries (u is arc length from the segment start) ---------

    def heading(self, u: float) -> float:
        c0, c1 = self.curvature_start, self.curvature_end
        return self.start_pose[2] + c0 * u + (c1 - c0) * u * u / (2.0 * self.length)

    def curvature(self, u: float) -> float:
        c0, c1 = self.curvature_start, self.curvature_end
        return c0 + (c1 - c0) * u / self.length

    def curvature_rate(self) -> float:
        return (self.curvature_end - self.curvature_start) / self.length

    def point(self, u: float) -> tuple[float, float]:
        x0, y0, th0 = self.start_pose
        cos0, sin0 = self._dir
        if self.kind == "line":
            return x0 + u * cos0, y0 + u * sin0
        if self.kind == "arc":
            c = self.curvature_start
            th = th0 + c * u
            return x0 + (math.sin(th) - sin0) / c, y0 - (math.cos(th) - cos0) / c
        return self._clothoid_point(u)

    def pose(self, u: float) -> tuple[float, float, float]:
        x, y = self.point(u)
        return x, y, self.heading(u)

    def _node_step(self) -> float:
        n = max(1, math.ceil(self.length / _CLOTHOID_NODE_STEP))
        return self.length / n

    def _integrate_nodes(self) -> tuple[tuple[float, float], ...]:
        """Cumulative clothoid positions at evenly spaced nodes."""
        h = self._node_step()
        n = round(self.length / h)
        x, y = float(self.start_pose[0]), float(self.start_pose[1])
        nodes = [(x, y)]
        for k in range(n):
            dx, dy = self._gl5(k * h, (k + 1) * h)
            x, y = x + dx, y + dy
            nodes.append((x, y))
        return tuple(nodes)

    def _gl5(self, a: float, b: float) -> tuple[float, float]:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        th0, c0 = self.start_pose[2], self.curvature_start
        dc = self.curvature_end - c0
        two_len = 2.0 * self.length
        sx = sy = 0.0
        for xk, wk in _GL5:
            u = mid + half * xk
            th = th0 + c0 * u + dc * u * u / two_len
            sx += wk * math.cos(th)
            sy += wk * math.sin(th)
        return half * sx, half * sy

    def _clothoid_point(self, u: float) -> tuple[float, float]:
        h = self._node_step()
        k = min(int(u / h), len(self._node_xy) - 1)
        x, y = self._node_xy[k]
        a = k * h
        if u > a:
            dx, dy = self._gl5(a, u)
            x, y = x + dx, y + dy
        return x, y


def _segment_from_spec(spec: dict, start_pose: tuple[float, float, float]) -> PathSegment:
    kind = str(spec["kind"]).lower()
    length = float(spec["length"])
    if "curvature" in spec and kind != "clothoid":
        c0 = c1 = float(spec["curvature"])
    else:
        c0 = float(spec.get("curvature_start", 0.0))
        c1 = float(spec.get("curvature_end", c0 if kind != "clothoid" else 0.0))
    if kind == "line":
        c0 = c1 = 0.0
    if "start_pose" in spec:
        given = tuple(float(v) for v in spec["start_pose"])
        dx = given[0] - start_pose[0]
        dy = given[1] - start_pose[1]
        dth = wrap_angle(given[2] - start_pose[2])
        if math.hypot(dx, dy) > JOINT_POS_TOL or abs(dth) > JOINT_HEAD_TOL:
            raise ContinuityError(
                f"segment start pose {given} does not match chained pose {start_pose}"
            )
        start_pose = given
    return PathSegment(kind, length, c0, c1, start_pose)


@dataclass(frozen=True)
class Path:
    """Immutable chain of segments with arc-length bookkeeping.

    Instances are safe to share across threads/processes: all queries are
    pure and every cache is fixed at construction time.
    """

    segments: tuple[PathSegment, ...]
    total_length: float
    cumulative_s: tuple[float, ...]
    # Coarse scan: path points at s = j * step, the last at total_length.
    _scan_xy: tuple[tuple[float, float], ...] = field(repr=False, compare=False)

    # -- queries ---------------------------------------------------------

    def _locate(self, s: float) -> tuple[PathSegment, float, int]:
        if s < -1e-9 or s > self.total_length + 1e-9:
            raise OutOfRange(f"s={s} outside [0, {self.total_length}]")
        s = min(max(s, 0.0), self.total_length)
        i = bisect.bisect_right(self.cumulative_s, s) - 1
        i = min(i, len(self.segments) - 1)
        return self.segments[i], s - self.cumulative_s[i], i

    def pose_at(self, s: float) -> tuple[float, float, float]:
        """World pose ``(x, y, theta_d)`` of the path point at arc length s."""
        seg, u, _ = self._locate(s)
        return seg.pose(u)

    def curvature(self, s: float) -> tuple[float, float]:
        """Curvature and its arc-length derivative at s.

        At an interior joint the right-limit curvature is returned and the
        derivative is reported as 0 (the jump is not differentiable).
        """
        seg, u, i = self._locate(s)
        c = seg.curvature(u)
        at_joint = i > 0 and u == 0.0
        return c, 0.0 if at_joint else seg.curvature_rate()

    # -- projection ------------------------------------------------------

    def frenet_project(
        self,
        pose: Sequence[float],
        hint_s: Optional[float] = None,
        radius: float = 0.3,
    ) -> FrenetState:
        """Project a world pose onto the path.

        With ``hint_s`` the search is restricted to ``hint_s +- radius``
        (continuity mode for tracking loops); otherwise a global coarse
        scan seeds local refinement.  ``radius`` also sets the separation
        beyond which two equally near minima raise AmbiguousProjection.
        """
        x, y, th = float(pose[0]), float(pose[1]), float(pose[2])
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
            raise ValueError("pose must be finite")
        if hint_s is not None:
            if hint_s < -1e-9 or hint_s > self.total_length + 1e-9:
                raise OutOfRange(f"hint_s={hint_s} outside path domain")
            lo = max(0.0, hint_s - radius)
            hi = min(self.total_length, hint_s + radius)
            s_best, _ = self._best_in_window(x, y, lo, hi)
        else:
            s_best = self._global_minimum(x, y, radius)
        return self._finish(x, y, th, s_best)

    def _finish(self, x: float, y: float, th: float, s: float) -> FrenetState:
        seg, u, _ = self._locate(s)
        px, py = seg.point(u)
        thd = seg.heading(u)
        nx, ny = -math.sin(thd), math.cos(thd)
        l = (x - px) * nx + (y - py) * ny
        c = seg.curvature(u)
        if 1.0 - c * l <= 1e-12:
            raise SingularProjection(
                f"pose at or beyond center of curvature (s={s:.6f}, c={c:.6f}, l={l:.6f})"
            )
        return FrenetState(s, l, wrap_angle(th - thd))

    def _global_minimum(self, x: float, y: float, radius: float) -> float:
        # Squares as products: those are exactly rounded everywhere, while
        # ``** 2`` calls libm's pow, which can be an ulp off and so break a
        # near-tie between two samples differently.
        d2 = [(sx - x) * (sx - x) + (sy - y) * (sy - y) for sx, sy in self._scan_xy]
        last = len(d2) - 1
        step = self.total_length / last
        # Local minima of the sampled distance, ties included, refined
        # independently.
        candidates = []
        for j, d in enumerate(d2):
            if (j == 0 or d <= d2[j - 1]) and (j == last or d <= d2[j + 1]):
                s = j * step if j < last else self.total_length
                lo, hi = max(0.0, s - step), min(self.total_length, s + step)
                candidates.append(self._best_in_window(x, y, lo, hi))
        candidates.sort(key=lambda c: c[1])
        s_best, d_best = candidates[0]
        for s_other, d_other in candidates[1:]:
            if abs(s_other - s_best) > radius and abs(
                math.sqrt(d_other) - math.sqrt(d_best)
            ) <= 1e-9:
                # A pose at/beyond a center of curvature is equidistant from a
                # whole arc; report that as the singularity it is.
                px, py, thd = self.pose_at(s_best)
                l = -(x - px) * math.sin(thd) + (y - py) * math.cos(thd)
                c, _ = self.curvature(s_best)
                if 1.0 - c * l <= 1e-9:
                    raise SingularProjection(
                        f"pose at or beyond center of curvature (s={s_best:.6f})"
                    )
                raise AmbiguousProjection(
                    f"equidistant projections at s={s_best:.6f} and s={s_other:.6f}"
                )
        return s_best

    def _best_in_window(self, x: float, y: float, lo: float, hi: float) -> tuple[float, float]:
        """Minimize squared distance to the path over ``[lo, hi]``.

        One bisect finds the segment holding ``lo``, and one pass walks the
        segments the window touches.  Each offers its own nearest point on
        its part ``[ua, ub]`` of the window: a line its foot point, an arc
        its stationary points, a clothoid its tangency root, clamped to the
        part and offered as ``s0 + u``.  The window's ends are offered as
        ``lo`` first and ``hi`` last.  A joint inside the window needs no
        offer: the path is G1 there, so a nearest point on it is a
        stationary point of a segment.  Each offer is scored at ``s - s0``
        on the segment holding ``s``, as ``pose_at`` locates it (scoring at
        ``u`` itself moves the last bits and can flip a near-tie next to a
        joint), and the first strictly smaller squared distance wins.
        """
        cum = self.cumulative_s
        first = bisect.bisect_right(cum, lo) - 1
        px, py = self.segments[first].point(lo - cum[first])
        best_s, best_d2 = lo, (x - px) ** 2 + (y - py) ** 2
        for i in range(first, len(self.segments)):
            s0 = cum[i]
            if s0 > hi - 1e-12:
                break
            seg = self.segments[i]
            ua = max(0.0, lo - s0)
            ub = min(seg.length, hi - s0)
            if ub <= ua:
                continue
            if seg.kind == "line":
                x0, y0, _ = seg.start_pose
                inner = ((x - x0) * seg._dir[0] + (y - y0) * seg._dir[1],)
            elif seg.kind == "arc":
                inner = self._project_arc(seg, x, y, ua, ub)
            else:
                u = self._project_clothoid(seg, x, y, ua, ub)
                inner = () if u is None else (u,)
            for u in inner:
                s = s0 + min(max(u, ua), ub)
                d2 = self._d2_from(i, x, y, s)
                if d2 < best_d2:
                    best_s, best_d2 = s, d2
        d2 = self._d2_from(first, x, y, hi)
        if d2 < best_d2:
            best_s, best_d2 = hi, d2
        return best_s, best_d2

    def _d2_from(self, i: int, x: float, y: float, s: float) -> float:
        """Squared distance to the path point at ``s``, located as
        ``_locate`` does, walking on from segment ``i`` (at or before the
        segment holding ``s``) instead of bisecting."""
        cum = self.cumulative_s
        while i + 1 < len(cum) and cum[i + 1] <= s:
            i += 1
        px, py = self.segments[i].point(min(s, self.total_length) - cum[i])
        return (x - px) ** 2 + (y - py) ** 2

    @staticmethod
    def _project_arc(seg: PathSegment, x: float, y: float, ua: float, ub: float) -> list[float]:
        c = seg.curvature_start
        x0, y0, th0 = seg.start_pose
        cos0, sin0 = seg._dir
        cx = x0 - sin0 / c
        cy = y0 + cos0 / c
        if math.hypot(x - cx, y - cy) < 1e-15:
            return [0.5 * (ua + ub)]  # at the center: every arc point equidistant
        phi = math.atan2(y - cy, x - cx)
        # Heading at the nearest circle point: phi + pi/2 * sign(c).
        th_target = phi + math.copysign(0.5 * math.pi, c)
        u0 = wrap_angle(th_target - th0) / c
        period = TWO_PI / abs(c)
        out = []
        k_min = math.floor((ua - u0) / period) - 1
        k_max = math.ceil((ub - u0) / period) + 1
        for k in range(k_min, k_max + 1):
            u = u0 + k * period
            if ua - 1e-12 <= u <= ub + 1e-12:
                out.append(min(max(u, ua), ub))
        return out

    def _project_clothoid(
        self, seg: PathSegment, x: float, y: float, ua: float, ub: float
    ) -> Optional[float]:
        # The nearest point solves the tangency condition g(u) = 0, where g is
        # the pose's offset from P(u) along the tangent and g' = c * l_perp - 1.
        # Since |l_perp(u)| <= |pose - P(ua)| + (u - ua), the bound below
        # makes g' < 0 on the whole window: g has at most one root there,
        # and the window's end values decide whether it has one.
        ga, lpa = self._tangency(seg, x, y, ua)
        c_max = max(abs(seg.curvature_start), abs(seg.curvature_end))
        if c_max * (math.hypot(ga, lpa) + (ub - ua)) < 1.0:
            gb = self._tangency(seg, x, y, ub)[0]
            return self._tangent_root(seg, x, y, ua, ub, ga, gb)
        # Far from the segment g may have several roots: bracket them on a
        # fine grid and keep the nearest.  Only + to - sign changes are
        # solved; a - to + change is a distance maximum.
        n = max(2, math.ceil((ub - ua) / 0.02))
        us = [ua + (ub - ua) * k / n for k in range(n + 1)]
        gs = [ga] + [self._tangency(seg, x, y, u)[0] for u in us[1:]]
        best, best_d2 = None, math.inf
        for a, b, g_a, g_b in zip(us, us[1:], gs, gs[1:]):
            u = self._tangent_root(seg, x, y, a, b, g_a, g_b)
            if u is not None:
                d2 = self._seg_d2(seg, x, y, u)
                if d2 < best_d2:
                    best, best_d2 = u, d2
        return best

    @staticmethod
    def _tangency(seg: PathSegment, x: float, y: float, u: float) -> tuple[float, float]:
        """Offset of the pose from P(u) along and across the tangent: (g, l_perp)."""
        px, py = seg.point(u)
        th = seg.heading(u)
        ct, st = math.cos(th), math.sin(th)
        dx, dy = x - px, y - py
        return dx * ct + dy * st, dy * ct - dx * st

    @staticmethod
    def _tangent_root(
        seg: PathSegment, x: float, y: float, a: float, b: float, ga: float, gb: float
    ) -> Optional[float]:
        """Root of a decreasing tangency condition on ``[a, b]``, or None.

        ``ga`` and ``gb`` are g at the window's ends.  Returns ``a`` when
        ``ga == 0`` and None unless ``ga > 0 > gb``.  Otherwise Newton runs
        from the secant point, shrinking the bracket ``[a, b]`` with the
        sign of each g and bisecting when a step would leave it.
        """
        if ga == 0.0:
            return a
        if not ga > 0.0 > gb:
            return None
        u = a + ga * (b - a) / (ga - gb)
        for _ in range(60):
            gu, lp = Path._tangency(seg, x, y, u)
            if gu == 0.0:
                return u
            if gu > 0.0:
                a = u
            else:
                b = u
            dg = seg.curvature(u) * lp - 1.0
            u_new = 0.5 * (a + b)
            if dg != 0.0 and a <= u - gu / dg <= b:
                u_new = u - gu / dg
            if abs(u_new - u) < 1e-12:
                return u_new
            u = u_new
        return u

    @staticmethod
    def _seg_d2(seg: PathSegment, x: float, y: float, u: float) -> float:
        px, py = seg.point(u)
        return (x - px) ** 2 + (y - py) ** 2


def build_path(
    segment_specs: Sequence[dict],
    start_pose: Sequence[float] = (0.0, 0.0, 0.0),
) -> Path:
    """Build a path by chaining segment specs from a start pose.

    Each spec is a mapping with ``kind`` (line | arc | clothoid), ``length``
    and curvature fields (``curvature`` or ``curvature_start`` /
    ``curvature_end``).  A spec may carry an explicit ``start_pose``; it is
    checked against the chained pose and a mismatch beyond 1e-9 (m or rad)
    raises ContinuityError.
    """
    if not segment_specs:
        raise EmptyPath("path needs at least one segment")
    pose = (float(start_pose[0]), float(start_pose[1]), float(start_pose[2]))
    segments: list[PathSegment] = []
    cumulative = [0.0]
    for spec in segment_specs:
        seg = _segment_from_spec(dict(spec), pose)
        segments.append(seg)
        cumulative.append(cumulative[-1] + seg.length)
        pose = seg.pose(seg.length)
    total = cumulative[-1]
    scan_step = min(0.25, max(total / 1000.0, 1e-3))
    n = max(2, math.ceil(total / scan_step))
    step = total / n
    scan_xy = []
    for j in range(n + 1):
        s = j * step if j < n else total
        i = min(bisect.bisect_right(cumulative, s) - 1, len(segments) - 1)
        scan_xy.append(segments[i].point(s - cumulative[i]))
    return Path(
        segments=tuple(segments),
        total_length=total,
        cumulative_s=tuple(cumulative[:-1]),
        _scan_xy=tuple(scan_xy),
    )
