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
* Squared distances are products, ``dx * dx + dy * dy``: exactly rounded
  everywhere, where the ``**`` operator calls libm's pow, which can be an
  ulp off and so break a near-tie differently.  Products overflow quietly.
"""

from __future__ import annotations

import bisect
import math
import numbers
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

TWO_PI = 2.0 * math.pi

# Joint matching tolerances for chained segments.
JOINT_POS_TOL = 1e-9
JOINT_HEAD_TOL = 1e-9

# Spacing of the cached clothoid integration nodes.  Positions between nodes
# are recovered with a 5-point Gauss-Legendre rule whose error on a 0.05 m
# sub-interval is far below the 1e-10 m position budget.
_CLOTHOID_NODE_STEP = 0.05

# The most integration nodes one clothoid may keep, ceil(length /
# _CLOTHOID_NODE_STEP): a clothoid of at most 5 km.  Such a clothoid builds
# in about 0.23 s (median of seven builds on a 2-vCPU x86 VM with Python
# 3.11, about 2.3 us a node), while a 1e300 m one would never finish.
MAX_CLOTHOID_NODES = 100_000

# The keys of each segment kind's spec besides ``kind`` and ``start_pose``:
# the first, the length, is required; a curvature left out is 0.0.
_SEGMENT_KEYS = {"line": ("length",), "arc": ("length", "curvature"),
                 "clothoid": ("length", "curvature_start", "curvature_end")}

# 5-point Gauss-Legendre abscissae on [-1, 1], +-_GL_X1, +-_GL_X2 and 0, and
# their weights.  The rule is summed, and the nodes are kept, in plain
# Python floats: numpy scalars and 5-element arrays cost more in call
# overhead than the arithmetic, and a numpy dot product is a fused
# multiply-add sum whose last bits depend on the BLAS build.
_GL_X1, _GL_W1 = 0.9061798459386640, 0.2369268850561891
_GL_X2, _GL_W2 = 0.5384693101056831, 0.4786286704993665
_GL_W0 = 0.5688888888888889


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


# Sets an attribute of a record, past the __setattr__ that refuses it.
_setattr = object.__setattr__


class Record:
    """Base of the immutable records: the paths, configs, scenarios and results.

    A subclass's annotated names, in order, are its fields, ``_fields``; a
    value the class body gives one is its default, ``_defaults``, shared by
    every instance, so it must itself be immutable.  ``__init__`` takes the
    fields by position or keyword, then calls ``__post_init__``, which may
    check them and add plain attributes with ``object.__setattr__``.  Records
    compare (within one class), hash and print by their fields, and refuse
    assignment.  This is ``dataclass(frozen=True)`` without importing
    ``dataclasses`` and ``inspect`` or compiling methods at start-up.

    A default stays a class attribute, unless it is itself a record: on
    CPython 3.11 a class attribute that is an instance of a Python class
    keeps the reads of the instance attribute of that name from being
    specialized, at about 14 ns a read.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # the class's own annotations
        body = vars(cls)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{name: body[name] for name in own if name in body}}
        for name in own:
            if isinstance(body.get(name), Record):
                delattr(cls, name)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(names, args))
        repeated, unknown = given.keys() & kwargs.keys(), kwargs.keys() - names
        if repeated:
            raise TypeError(f"{cls.__name__}() got multiple values for argument "
                            f"{min(repeated)!r}")
        if unknown:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument "
                            f"{min(unknown)!r}")
        values = {**self._defaults, **kwargs, **given}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            _setattr(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields) + ")")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def wrap_angle(angle: float) -> float:
    """Wrap an angle to ``[-pi, pi)``; ``wrap_angle(pi) == -pi``."""
    return (angle + math.pi) % TWO_PI - math.pi


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from ``lo`` to ``hi``, both ends included.

    Point ``i`` is ``i * step + lo`` with ``step = (hi - lo) / (n - 1)``, and
    the last point is ``hi`` itself.  These are ``numpy.linspace``'s
    operations, so the result equals it bit for bit.
    """
    if not n >= 1:
        raise ValueError(f"linspace needs at least one point, got {n}")
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]  # as numpy: a lo of -0.0 comes out as 0.0
    div = n - 1
    step = delta / div
    if step == 0.0:
        # The step underflowed: numpy scales i / div by the range instead.
        out = [i / div * delta + lo for i in range(n)]
    else:
        out = [i * step + lo for i in range(n)]
    out[-1] = hi
    return out


# Builds a record from a tuple of all its fields, without the Python-level
# ``__new__`` of a NamedTuple: for the per-step records, whose callers (the
# projection, the steps and ``run``) give every field, each already valid.
_new = tuple.__new__


class FrenetState(NamedTuple):
    """Path-relative coordinates of a world pose.

    ``s`` is arc length along the path, ``l`` the signed lateral offset
    (positive left) and ``theta_tilde`` the heading error versus the path
    tangent, wrapped to ``[-pi, pi)``.
    """

    s: float
    l: float
    theta_tilde: float


class PathSegment(Record):
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

    # Caches: plain attributes that __post_init__ sets, not fields, so no
    # comparison or repr shows them.  _dir, the (cos, sin) of the start
    # heading for line and arc queries, is set on every segment; each cache
    # below is set on the kind that reads it and is this class value on the
    # others.
    # A clothoid's positions at its integration nodes.
    _node_xy = ()
    # A clothoid's node step h, last node index, th0, c0, c1 - c0 and
    # 2 * length, fixed at construction for the Gauss-Legendre evaluator.
    _clothoid = ()
    # A clothoid's largest |curvature|, for the bound _project_clothoid checks.
    _c_max = 0.0
    # A line's heading and left normal (-sin, cos), as heading(u) gives them
    # for every finite u: th0 + 0.0, which turns a -0.0 start heading to 0.0.
    _frame = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        if self.kind not in ("line", "arc", "clothoid"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        for name in ("length", "curvature_start", "curvature_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"segment {name} must be finite, got {value}")
        if not self.length > 0.0:
            raise ValueError("segment length must be > 0")
        if not all(math.isfinite(v) for v in self.start_pose):
            raise ValueError(f"segment start_pose must be finite, got {self.start_pose}")
        if self.kind == "line" and (self.curvature_start != 0.0 or self.curvature_end != 0.0):
            raise ValueError("line segments must have zero curvature")
        if self.kind == "arc":
            if self.curvature_start != self.curvature_end:
                raise ValueError("arc segments need equal start/end curvature")
            if self.curvature_start == 0.0:
                raise ValueError("arc segments need nonzero curvature")
            if not math.isfinite(1.0 / self.curvature_start):
                raise ValueError(f"arc curvature {self.curvature_start!r} is too small: "
                                 "its radius 1/c is not finite")
        # Compared as a float: length / step may overflow, where ceil() raises.
        if self.kind == "clothoid" and self.length / _CLOTHOID_NODE_STEP > MAX_CLOTHOID_NODES:
            raise ValueError(
                f"clothoid of length {self.length:g} needs "
                f"{self.length / _CLOTHOID_NODE_STEP:.6g} integration nodes; "
                f"at most {MAX_CLOTHOID_NODES:,} are allowed"
            )
        th0 = self.start_pose[2]
        object.__setattr__(self, "_dir", (math.cos(th0), math.sin(th0)))
        if self.kind == "line":
            h = th0 + 0.0
            object.__setattr__(self, "_frame", (h, -math.sin(h), math.cos(h)))
        if self.kind == "clothoid":
            c0 = self.curvature_start
            step = self.length / max(1, math.ceil(self.length / _CLOTHOID_NODE_STEP))
            last = round(self.length / step)
            object.__setattr__(
                self, "_clothoid", (step, last, th0, c0, self.curvature_end - c0, 2.0 * self.length)
            )
            object.__setattr__(self, "_node_xy", self._integrate_nodes())
            object.__setattr__(self, "_c_max", max(abs(c0), abs(self.curvature_end)))

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
        kind = self.kind
        if kind == "clothoid":  # first: the walk evaluates each clothoid point here
            return self._clothoid_point(u)
        x0, y0, th0 = self.start_pose
        cos0, sin0 = self._dir
        if kind == "line":
            return x0 + u * cos0, y0 + u * sin0
        c = self.curvature_start
        th = th0 + c * u
        return x0 + (math.sin(th) - sin0) / c, y0 - (math.cos(th) - cos0) / c

    def pose(self, u: float) -> tuple[float, float, float]:
        x, y = self.point(u)
        return x, y, self.heading(u)

    def _integrate_nodes(self) -> tuple[tuple[float, float], ...]:
        """Cumulative clothoid positions at evenly spaced nodes."""
        h, last = self._clothoid[:2]
        x, y = float(self.start_pose[0]), float(self.start_pose[1])
        nodes = [(x, y)]
        for k in range(last):
            x, y = self._gl5(x, y, k * h, (k + 1) * h)
            nodes.append((x, y))
        return tuple(nodes)

    def _gl5(self, x: float, y: float, a: float, b: float) -> tuple[float, float]:
        """The point ``(x, y)`` plus the clothoid's displacement from ``a``
        to ``b > a >= 0``, by the 5-point Gauss-Legendre rule.

        The rule is unrolled with the operations of a loop over the
        abscissae ``xk``, in its order: ``u = mid + half * xk`` (which is
        ``mid - half * |xk|`` for a negative ``xk``, and ``mid`` for 0), the
        heading at ``u`` as ``heading(u)`` computes it, and each sum from
        0.0, first abscissa to last.
        """
        _, _, th0, c0, dc, two_len = self._clothoid
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        d1 = half * _GL_X1
        d2 = half * _GL_X2
        u1, u2, u4, u5 = mid - d1, mid - d2, mid + d2, mid + d1
        t1 = th0 + c0 * u1 + dc * u1 * u1 / two_len
        t2 = th0 + c0 * u2 + dc * u2 * u2 / two_len
        t3 = th0 + c0 * mid + dc * mid * mid / two_len
        t4 = th0 + c0 * u4 + dc * u4 * u4 / two_len
        t5 = th0 + c0 * u5 + dc * u5 * u5 / two_len
        cos, sin = math.cos, math.sin
        sx = (0.0 + _GL_W1 * cos(t1) + _GL_W2 * cos(t2) + _GL_W0 * cos(t3)
              + _GL_W2 * cos(t4) + _GL_W1 * cos(t5))
        sy = (0.0 + _GL_W1 * sin(t1) + _GL_W2 * sin(t2) + _GL_W0 * sin(t3)
              + _GL_W2 * sin(t4) + _GL_W1 * sin(t5))
        return x + half * sx, y + half * sy

    def _clothoid_point(self, u: float) -> tuple[float, float]:
        h, last, _, _, _, _ = self._clothoid  # unpacked: a slice builds a tuple
        k = int(u / h)
        k = (k if k < last else last) if k > 0 else 0
        x, y = self._node_xy[k]
        a = k * h
        if u > a:
            return self._gl5(x, y, a, u)
        return x, y


def _number(key: str, value: Any) -> float:
    """``float(value)`` for a real number (a bool is not one), or ValueError
    naming ``key`` for anything else: a null, a string, an int too large."""
    if type(value) is float:  # most values; the ABC check below is slow
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _pop(given: dict, name: str, block: str) -> Any:
    """``given.pop(name)``; when ``given`` lacks it, ValueError naming the key
    ``block.name`` (just ``name`` when ``block`` is "", the top level)."""
    if name not in given:
        raise ValueError(f"missing key {f'{block}.{name}' if block else name}")
    return given.pop(name)


def _read_kind(spec: Any, block: str, keys: Mapping, read: Callable) -> tuple[str, dict]:
    """The kind of the ``block`` mapping ``spec`` and its other values, each
    as ``read(block.key, value)`` gives it; ``keys[kind]`` lists them.  No
    mapping, a missing or unknown kind, a key no kind has, a value ``read``
    rejects and a key of another kind raise ValueError, in that order."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"{block} must be a mapping, got {spec!r}")
    rest = dict(spec)
    kind = _pop(rest, "kind", block)
    if not (isinstance(kind, str) and kind in keys):
        raise ValueError(f"{block}.kind must be one of {', '.join(keys)}, got {kind!r}")
    values = {}
    for key, value in rest.items():
        name = f"{block}.{key}"
        if not any(key in kind_keys for kind_keys in keys.values()):
            raise ValueError(f"unknown key {name}")
        values[key] = read(name, value)
        if key not in keys[kind]:
            raise ValueError(f"{name} is not a key of kind {kind}")
    return kind, values


def _pose(key: str, value: Any) -> tuple[float, float, float]:
    """``value`` as an ``(x, y, theta)`` of floats, or ValueError naming ``key``."""
    if isinstance(value, Sequence) and not isinstance(value, str) and len(value) == 3:
        try:
            return (_number(key, value[0]), _number(key, value[1]), _number(key, value[2]))
        except ValueError:
            pass
    raise ValueError(f"{key} must be three numbers, got {value!r}")


def _segment_from_spec(
    spec: Mapping[str, Any], start_pose: tuple[float, float, float], key: str
) -> PathSegment:
    """The segment ``spec`` gives from ``start_pose``.  ``key`` names the spec
    in the ValueError for a start pose that is not three numbers, for what
    ``_read_kind`` rejects, and for a missing length."""
    rest = dict(spec)
    if "start_pose" in rest:
        given = _pose(f"{key}.start_pose", rest.pop("start_pose"))
        dx = given[0] - start_pose[0]
        dy = given[1] - start_pose[1]
        dth = wrap_angle(given[2] - start_pose[2])
        if math.hypot(dx, dy) > JOINT_POS_TOL or abs(dth) > JOINT_HEAD_TOL:
            raise ContinuityError(
                f"segment start pose {given} does not match chained pose {start_pose}"
            )
        start_pose = given
    kind, values = _read_kind(rest, key, _SEGMENT_KEYS, _number)
    length_key, *curvature_keys = _SEGMENT_KEYS[kind]
    length = _pop(values, length_key, key)
    # A line has no curvature key; an arc's one curvature holds at both ends.
    c = [values.get(name, 0.0) for name in curvature_keys]
    c0, c1 = (c[0], c[-1]) if c else (0.0, 0.0)
    return PathSegment(kind, length, c0, c1, start_pose)


class Path(Record):
    """Immutable chain of segments with arc-length bookkeeping.

    Instances are safe to share across threads/processes: all queries are
    pure and every cache is fixed at construction time.
    """

    segments: tuple[PathSegment, ...]
    total_length: float
    cumulative_s: tuple[float, ...]

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

        ``pose`` is read as its first three items, ``(x, y, heading)``, so a
        ``VehicleState`` is projected as it is.  With ``hint_s`` the search
        is restricted to ``hint_s +- radius`` (continuity mode for tracking
        loops); otherwise each segment's own minima and the path's ends compete.
        ``radius`` also sets the separation beyond which two equally near
        minima raise AmbiguousProjection.  A pose at or beyond its nearest
        point's center of curvature raises SingularProjection instead,
        ambiguous or not.  A finite pose whose squared distance to the path
        overflows raises OverflowError("pose too far from the path to
        project"); a finite one bounds ``|x - px|``, so ``l`` is finite.  A
        negative or NaN ``radius`` raises ValueError.
        """
        x, y, th = float(pose[0]), float(pose[1]), float(pose[2])
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
            raise ValueError("pose must be finite")
        if not radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if hint_s is not None:
            if hint_s < -1e-9 or hint_s > self.total_length + 1e-9:
                raise OutOfRange(f"hint_s={hint_s} outside path domain")
            # max(0.0, hint_s - radius) and min(total_length, hint_s + radius),
            # spelled out here and below: on the path every control step
            # takes, a call to the builtin costs ten times the comparison.
            lo = hint_s - radius
            lo = lo if lo > 0.0 else 0.0
            end = self.total_length
            hi = hint_s + radius
            hi = hi if hi < end else end
            cum = self.cumulative_s
            i = bisect.bisect_right(cum, lo) - 1
            seg = self.segments[i]
            kind = seg.kind
            # A window inside one line or arc is answered here, with the
            # operations of _best_in_window in its order, when the segment's
            # one offer (at s, scoring d2) must beat both of the window's
            # ends: it lies m or more inside both ends of [ua, ub], and
            # w * m * m > 2**-30 * (d2 + scale * scale).  An end D >= m from
            # the offer is farther in exact squared distance by D * D on a
            # line (w = 1).  On an arc of curvature c whose center lies rho
            # from the pose it is farther by 4 * rho / |c| * sin(|c| * D / 2)**2,
            # at least 0.4 * rho * |c| * D * D (w) while |c| * D < 3, as in a
            # window under 3 / |c|.  scale sums the magnitudes that enter a
            # score, |x| + |y| + |x0| + |y0| + s, plus reach = (2 + |th0|) / |c|
            # for an arc's sines and heading.  So each computed score is
            # within a few times 2**-52 of d2 + scale * scale (plus D * D at
            # an end) of its exact value, and the gap exceeds both errors by a
            # factor near 2**20, however far the pose lies.  A fixed margin
            # would not do: 1e6 m from a line the scores round at about 1e-4,
            # and an end 2 mm from the foot point can win.  Any other window,
            # one inside a clothoid too, goes on to the walk.
            s0 = cum[i]
            nxt = cum[i + 1] if i + 1 < len(cum) else math.inf
            if hi < nxt and kind != "clothoid":
                ua = lo - s0
                ua = ua if ua > 0.0 else 0.0
                ub = hi - s0
                ub = ub if ub < seg.length else seg.length
                x0, y0, th0 = seg.start_pose
                cos0, sin0 = seg._dir
                line = kind == "line"
                if line:
                    u = (x - x0) * cos0 + (y - y0) * sin0
                    u = ua if u < ua else ub if u > ub else u
                    w, reach = 1.0, 0.0
                else:
                    offers, rho = self._project_arc(seg, x, y, ua, ub)
                    c = seg.curvature_start
                    ac = c if c > 0.0 else -c
                    u = offers[0] if len(offers) == 1 else ua  # ua: m = 0, not taken
                    w = 0.4 * rho * ac if (ub - ua) * ac < 3.0 else 0.0
                    reach = (2.0 + (th0 if th0 > 0.0 else -th0)) / ac
                s = s0 + u
                if ub > ua and s < nxt:  # and s is not rounded onto the next joint
                    v = (end if end < s else s) - s0
                    if line:
                        px, py = x0 + v * cos0, y0 + v * sin0
                    else:
                        th_p = th0 + c * v
                        sn, cs = math.sin(th_p), math.cos(th_p)
                        px, py = x0 + (sn - sin0) / c, y0 - (cs - cos0) / c
                    d2 = (x - px) * (x - px) + (y - py) * (y - py)
                    m = u - ua if u - ua < ub - u else ub - u
                    scale = ((x if x > 0.0 else -x) + (y if y > 0.0 else -y)
                             + (x0 if x0 > 0.0 else -x0) + (y0 if y0 > 0.0 else -y0) + s + reach)
                    if w * m * m > 2.0**-30 * (d2 + scale * scale):
                        if line:
                            thd, nx, ny = seg._frame
                        else:  # heading(v) is th_p + 0.0, as is its sine
                            thd, nx, ny = th_p + 0.0, -(sn + 0.0), cs
                        # Never singular: on an arc the test forces rho * |c| >
                        # 4e-9, as m < 1.5 / |c| and scale >= 2 / |c|, and
                        # 1 - c * l is rho * |c| or 1 + rho * |c| at the offer.
                        l = (x - px) * nx + (y - py) * ny
                        return _new(FrenetState, (s, l, (th - thd + math.pi) % TWO_PI - math.pi))
            s_best, d2, i, p = self._best_in_window(x, y, lo, hi, i)
        else:
            s_best, d2, i, p = self._global_minimum(x, y, th, radius)
        if not d2 < math.inf:
            raise OverflowError("pose too far from the path to project")
        return self._finish(x, y, th, s_best, i, p)

    def _finish(
        self, x: float, y: float, th: float, s: float, i: int, p: tuple[float, float]
    ) -> FrenetState:
        """Frenet coordinates of the pose at ``s``, on segment ``i`` that
        holds it, whose path point ``p`` the window search scored."""
        seg = self.segments[i]
        px, py = p
        if seg.kind == "line":
            thd, nx, ny = seg._frame
            c = 0.0
        else:
            end = self.total_length
            u = (0.0 if s < 0.0 else end if s > end else s) - self.cumulative_s[i]
            thd = seg.heading(u)
            nx, ny = -math.sin(thd), math.cos(thd)
            c = seg.curvature(u)
        l = (x - px) * nx + (y - py) * ny
        if 1.0 - c * l <= 1e-12:
            raise SingularProjection(
                f"pose at or beyond center of curvature (s={s:.6g}, c={c:.6g}, l={l:.6g})"
            )
        return _new(FrenetState, (s, l, (th - thd + math.pi) % TWO_PI - math.pi))  # wrap_angle

    def _global_minimum(
        self, x: float, y: float, th: float, radius: float
    ) -> tuple[float, float, int, Optional[tuple[float, float]]]:
        # The path's ends and each segment's minima over the whole segment,
        # in s order, so the stable sort gives a tie to the lowest s: scored,
        # as (s, d2, i, p), or for a clothoid's node-grid minima (ties
        # included) as windows (lo, d2, hi) over the neighbouring nodes.
        cum = self.cumulative_s
        found = [(0.0, *self._d2_from(0, x, y, 0.0))]
        for i, seg in enumerate(self.segments):
            s0, length = cum[i], seg.length
            if seg.kind == "line":
                x0, y0, _ = seg.start_pose
                u = (x - x0) * seg._dir[0] + (y - y0) * seg._dir[1]
                us = [0.0 if u < 0.0 else length if u > length else u]
            elif seg.kind == "arc":  # past a period, the rest apart: two copies are ambiguous
                period = TWO_PI / abs(seg.curvature_start)
                parts = [(0.0, period), (period, length)] if period < length else [(0.0, length)]
                us = [u for ua, ub in parts for u in self._project_arc(seg, x, y, ua, ub)[0]]
            else:
                h, last = seg._clothoid[:2]
                d2 = [(px - x) * (px - x) + (py - y) * (py - y) for px, py in seg._node_xy]
                found += [(s0 + max(k - 1, 0) * h, d, s0 + min((k + 1) * h, length))
                          for k, d in enumerate(d2)
                          if (k == 0 or d <= d2[k - 1]) and (k == last or d <= d2[k + 1])]
                us = []
            found += [(s0 + u, *self._d2_from(i, x, y, s0 + u)) for u in us]
        end = self.total_length
        found.append((end, *self._d2_from(len(cum) - 1, x, y, end)))
        if not min(c[1] for c in found) < math.inf:
            return 0.0, math.inf, 0, None  # every distance overflowed, as would every window's
        candidates = [c if len(c) == 4 else self._best_in_window(x, y, c[0], c[2]) for c in found]
        candidates.sort(key=lambda c: c[1])
        s_best, d_best, i_best, p_best = candidates[0]
        for s_other, d_other, _, _ in candidates[1:]:
            if abs(s_other - s_best) > radius and abs(
                math.sqrt(d_other) - math.sqrt(d_best)
            ) <= 1e-9:
                # A pose at/beyond a center of curvature is equidistant from a
                # whole arc: _finish reports that as the singularity it is.
                self._finish(x, y, th, s_best, i_best, p_best)
                raise AmbiguousProjection(
                    f"equidistant projections at s={s_best:.6g} and s={s_other:.6g}"
                )
        return s_best, d_best, i_best, p_best

    def _best_in_window(
        self, x: float, y: float, lo: float, hi: float, first: Optional[int] = None
    ) -> tuple[float, float, int, tuple[float, float]]:
        """Minimize squared distance to the path over ``[lo, hi]``.

        Returns ``(s, d2, i, p)``, with ``i`` the segment holding ``s`` and
        ``p`` the path point at ``s`` that was scored.  ``first`` is the
        segment holding ``lo``, if the caller has bisected for it already;
        otherwise one bisect finds it.  The window's first end ``lo`` is
        always scored first.  One pass then walks the segments the window
        touches.  Each offers its own nearest point on its part ``[ua, ub]``
        of the window: a line its foot point, an arc its stationary points,
        a clothoid its tangency root, clamped to the part and offered as
        ``s0 + u``.  A joint within the window needs no offer: the path is
        G1 there, so a nearest point on it is a stationary point of a
        segment.  Each offer is scored at ``s - s0`` on the segment holding
        ``s``, as ``pose_at`` locates it (scoring at ``u`` itself moves the
        last bits and can flip a near-tie next to a joint).  The other end
        ``hi``, at most ``total_length``, is always scored last.  The first
        strictly smaller squared distance wins, so ``lo`` wins a tie.  A
        clothoid's search is handed the points at ``lo`` and ``hi`` where
        its part ends there, so neither end is evaluated twice.
        ``frenet_project`` answers a hinted window within one line or arc
        whose one offer must win itself, with these same operations, and
        hands any other window to this search.
        """
        cum = self.cumulative_s
        if first is None:
            first = bisect.bisect_right(cum, lo) - 1
        p_lo = self.segments[first].point(lo - cum[first])
        px, py = p_lo
        best_s, best_i, best_p = lo, first, p_lo
        best_d2 = (x - px) * (x - px) + (y - py) * (y - py)
        # hi is scored last, but evaluated here, for a clothoid to reuse.
        d2_hi, j_hi, p_hi = self._d2_from(first, x, y, hi)
        ub_hi = hi - cum[j_hi]
        for i in range(first, len(cum)):
            s0 = cum[i]
            if i > first and s0 > hi - 1e-12:
                break
            seg = self.segments[i]
            ua = lo - s0
            ua = ua if ua > 0.0 else 0.0
            ub = hi - s0
            ub = ub if ub < seg.length else seg.length
            if ub <= ua:
                continue
            if seg.kind == "line":
                x0, y0, _ = seg.start_pose
                inner = ((x - x0) * seg._dir[0] + (y - y0) * seg._dir[1],)
            elif seg.kind == "arc":
                inner = self._project_arc(seg, x, y, ua, ub)[0]
            else:
                # The ends' points, where ua is lo - cum[first] and ub is
                # hi - cum[j_hi]: each point is evaluated once.
                u = self._project_clothoid(
                    seg, x, y, ua, ub,
                    p_lo if i == first else None,
                    p_hi if i == j_hi and ub == ub_hi else None,
                )
                inner = () if u is None else (u,)
            for u in inner:
                u = ua if u < ua else ub if u > ub else u
                s = s0 + u
                d2, j, p = self._d2_from(i, x, y, s)
                if d2 < best_d2:
                    best_s, best_d2, best_i, best_p = s, d2, j, p
        if d2_hi < best_d2:
            best_s, best_d2, best_i, best_p = hi, d2_hi, j_hi, p_hi
        return best_s, best_d2, best_i, best_p

    def _d2_from(
        self, i: int, x: float, y: float, s: float
    ) -> tuple[float, int, tuple[float, float]]:
        """Squared distance to the path point at ``s``, the index of the
        segment holding ``s`` and the point itself.  The segment is located
        as ``_locate`` does, walking on from segment ``i`` (at or before it)
        instead of bisecting."""
        cum = self.cumulative_s
        while i + 1 < len(cum) and cum[i + 1] <= s:
            i += 1
        end = self.total_length
        p = self.segments[i].point((end if end < s else s) - cum[i])
        px, py = p
        return (x - px) * (x - px) + (y - py) * (y - py), i, p

    @staticmethod
    def _project_arc(
        seg: PathSegment, x: float, y: float, ua: float, ub: float
    ) -> tuple[list[float], float]:
        """The arc's nearest points to the pose on ``[ua, ub]`` and the
        pose's distance ``rho`` from the arc's center.

        The nearest points are the stationary points ``u0 + k * period``
        within 1e-12 of the window, each clamped to it.  A window of one
        period ``2 * pi / |c|`` or more holds the same point of the circle
        once a period, so it is offered once: the first such point at or
        after ``ua``, found without a loop over ``k`` (the first offer wins
        a tie, so a later copy could only lose)."""
        c = seg.curvature_start
        x0, y0, th0 = seg.start_pose
        cos0, sin0 = seg._dir
        cx = x0 - sin0 / c
        cy = y0 + cos0 / c
        rho = math.hypot(x - cx, y - cy)
        if rho < 1e-15:
            return [0.5 * (ua + ub)], rho  # at the center: every arc point equidistant
        phi = math.atan2(y - cy, x - cx)
        # Heading at the nearest circle point: phi + pi/2 * sign(c).
        th_target = phi + math.copysign(0.5 * math.pi, c)
        u0 = wrap_angle(th_target - th0) / c
        period = TWO_PI / abs(c)
        if (ub - ua) * abs(c) >= TWO_PI:
            u = ua + (u0 - ua) % period
            return [ub if ub < u else u], rho
        # Walk k up from below the window.  u0 + k * period never falls as k
        # grows (each rounding is monotone), so the walk stops at the first
        # point past the window's far end; k_max still bounds it where a
        # period is under 1e-12.
        out = []
        lo, hi = ua - 1e-12, ub + 1e-12
        k_min = math.floor((ua - u0) / period) - 1
        k_max = math.ceil((ub - u0) / period) + 1
        for k in range(k_min, k_max + 1):
            u = u0 + k * period
            if u > hi:
                break
            if lo <= u:
                # min(max(u, ua), ub), spelled out: each comparison keeps the
                # operand the builtin keeps, on a tie and a signed zero too.
                u = ua if ua > u else u
                out.append(ub if ub < u else u)
        return out, rho

    def _project_clothoid(
        self,
        seg: PathSegment,
        x: float,
        y: float,
        ua: float,
        ub: float,
        pa: Optional[tuple[float, float]] = None,
        pb: Optional[tuple[float, float]] = None,
    ) -> Optional[float]:
        # The nearest point solves the tangency condition g(u) = 0, where g is
        # the pose's offset from P(u) along the tangent and g' = c * l_perp - 1.
        # Since |l_perp(u)| <= |pose - P(ua)| + (u - ua), the bound below
        # makes g' < 0 on the whole window: g has at most one root there,
        # and the window's end values decide whether it has one.  pa and pb
        # are P(ua) and P(ub), if the caller has them already.
        ga, lpa = self._tangency(seg, x, y, ua, pa)
        if seg._c_max * (math.hypot(ga, lpa) + (ub - ua)) < 1.0:
            gb = self._tangency(seg, x, y, ub, pb)[0]
            return self._tangent_root(seg, x, y, ua, ub, ga, gb)
        # Far from the segment g may have several roots: bracket them on a
        # fine grid and keep the nearest.  Only + to - sign changes are
        # solved; a - to + change is a distance maximum.
        n = max(2, math.ceil((ub - ua) / 0.02))
        us = [ua + (ub - ua) * k / n for k in range(n + 1)]
        gs = [ga] + [self._tangency(seg, x, y, u, pb if u == ub else None)[0] for u in us[1:]]
        best, best_d2 = None, math.inf
        for a, b, g_a, g_b in zip(us, us[1:], gs, gs[1:]):
            u = self._tangent_root(seg, x, y, a, b, g_a, g_b)
            if u is not None:
                px, py = seg._clothoid_point(u)
                d2 = (x - px) * (x - px) + (y - py) * (y - py)
                if d2 < best_d2:
                    best, best_d2 = u, d2
        return best

    @staticmethod
    def _tangency(
        seg: PathSegment, x: float, y: float, u: float, p: Optional[tuple[float, float]] = None
    ) -> tuple[float, float]:
        """Offset of the pose from the clothoid point P(u) along and across
        the tangent: (g, l_perp).  ``p`` is P(u), if the caller has it."""
        px, py = seg._clothoid_point(u) if p is None else p
        _, _, th0, c0, dc, two_len = seg._clothoid
        th = th0 + c0 * u + dc * u * u / two_len  # heading(u)
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
        _, _, _, c0, dc, _ = seg._clothoid
        length = seg.length
        u = a + ga * (b - a) / (ga - gb)
        for _ in range(60):
            gu, lp = Path._tangency(seg, x, y, u)
            if gu == 0.0:
                return u
            if gu > 0.0:
                a = u
            else:
                b = u
            dg = (c0 + dc * u / length) * lp - 1.0  # curvature(u) * lp - 1
            u_new = 0.5 * (a + b)
            if dg != 0.0 and a <= u - gu / dg <= b:
                u_new = u - gu / dg
            if abs(u_new - u) < 1e-12:
                return u_new
            u = u_new
        return u


def build_path(
    segment_specs: Sequence[dict],
    start_pose: Sequence[float] = (0.0, 0.0, 0.0),
) -> Path:
    """Build a path by chaining segment specs from a start pose.

    Each spec is a mapping with ``kind`` (line | arc | clothoid) and the
    keys ``_SEGMENT_KEYS`` gives that kind: a required ``length`` and the
    curvatures, 0.0 when left out.  A spec may carry an explicit
    ``start_pose``; it is checked against the chained pose and a mismatch
    beyond 1e-9 (m or rad) raises ContinuityError.  Segments that are no
    list, a spec that is no mapping, a missing, unknown or foreign key, a
    value that is not a number or a start pose that is not three numbers
    raises ValueError naming it as the scenario's dict form does
    (``path.segments.<i>.length``, ``path.start_pose``).
    """
    if not isinstance(segment_specs, (list, tuple)):
        raise ValueError(f"path.segments must be a list, got {segment_specs!r}")
    if not segment_specs:
        raise EmptyPath("path needs at least one segment")
    pose = _pose("path.start_pose", start_pose)
    segments: list[PathSegment] = []
    cumulative = [0.0]
    for i, spec in enumerate(segment_specs):
        if not isinstance(spec, Mapping):
            raise ValueError(f"path.segments.{i} must be a mapping, got {spec!r}")
        seg = _segment_from_spec(spec, pose, f"path.segments.{i}")
        segments.append(seg)
        cumulative.append(cumulative[-1] + seg.length)
        pose = seg.pose(seg.length)
    return Path(tuple(segments), cumulative[-1], tuple(cumulative[:-1]))
