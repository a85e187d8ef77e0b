"""Post-run metrics: Lyapunov values, convergence detection, field dumps."""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple, Optional

from .controller import ControllerConfig, DeltaProfile, Region, _heading_half, _offset_half
from .path_geometry import Record, wrap_angle

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Trace

# Convergence thresholds on |l~| and |th~| and the trailing trace fraction
# that must satisfy them.
CONV_L = 0.05
CONV_THETA = 0.05
CONV_WINDOW_FRAC = 0.05

# The stop reasons of a run that played out.  Any other reason (a lost
# projection, a non-finite state) means the run was aborted; a trace built
# by hand carries no reason.
_PLAYED_OUT = (None, "t_max", "path_end", "converged")


class EmptyTrace(ValueError):
    """Raised when a summary is requested for a trace with no rows."""


def lyapunov(l_norm: float, theta_tilde: float) -> float:
    """Quadratic convergence measure ``(l~^2 + th~^2) / 2``."""
    return 0.5 * (l_norm * l_norm + theta_tilde * theta_tilde)


def in_convergence_band(l: float, theta_tilde: float, radius: float) -> bool:
    """``|l / radius| < CONV_L`` and ``|theta_tilde| < CONV_THETA``."""
    return abs(l / radius) < CONV_L and abs(theta_tilde) < CONV_THETA


def abort_reason(trace: "Trace") -> Optional[str]:
    """The stop reason of an aborted run; None for a run that played out."""
    reason = trace.meta.get("stop_reason")
    return None if reason in _PLAYED_OUT else reason


class RunSummary(Record):
    converged: bool
    t_converge: Optional[float]
    path_length: float
    switch_count: int
    max_V: float
    final_V: float
    lyapunov_violations: int

    def as_dict(self) -> dict:
        return self._asdict()


def ripple_bound(l_norm: float, eps_theta: float, dt: float, v: float, radius: float) -> float:
    """Allowed Lyapunov increase between samples due to band + step quantization."""
    return 0.5 * (eps_theta * eps_theta + 2.0 * abs(l_norm) * dt * v / radius)


def _lyapunov_samples(trace: "Trace") -> list[int]:
    """Rows where the manifold band is entered or a Controlled state begins."""
    profile = DeltaProfile.from_spec(trace.meta["delta_profile"])
    eps = float(trace.meta["eps_theta"])
    radius = float(trace.meta["radius"])
    samples = []
    prev_in_band = None
    prev_hybrid = None
    for i, row in enumerate(trace.rows):
        l_norm = row.l / radius
        err = wrap_angle(row.theta_tilde - profile.value(l_norm))
        in_band = abs(err) <= eps
        if in_band and prev_in_band is False:
            samples.append(i)
        elif row.hybrid_state == "controlled" and prev_hybrid != "controlled":
            samples.append(i)
        prev_in_band = in_band
        prev_hybrid = row.hybrid_state
    return samples


def count_lyapunov_violations(trace: "Trace") -> int:
    """Lyapunov increases, beyond the quantization ripple, between samples."""
    idx = _lyapunov_samples(trace)
    if len(idx) < 2:
        return 0
    eps = float(trace.meta["eps_theta"])
    dt = float(trace.meta["dt_control"])
    v = float(trace.meta["v_user"])
    radius = float(trace.meta["radius"])
    violations = 0
    for a, b in zip(idx, idx[1:]):
        ra, rb = trace.rows[a], trace.rows[b]
        allowed = ripple_bound(ra.l / radius, eps, dt, v, radius)
        if rb.V > ra.V + allowed:
            violations += 1
    return violations


def summarize(trace: "Trace") -> RunSummary:
    """Reduce a trace to its convergence and switching statistics.

    A run counts as converged when every row in the trailing 5% of the
    trace satisfies ``|l~| < 0.05`` and ``|th~| < 0.05``; ``t_converge`` is
    the first time from which the thresholds hold through the end.  An
    aborted run (see ``abort_reason``) is never converged.
    """
    rows = trace.rows
    if not rows:
        raise EmptyTrace("trace has no rows")
    radius = float(trace.meta["radius"])
    window = max(1, math.ceil(CONV_WINDOW_FRAC * len(rows)))
    converged = abort_reason(trace) is None and all(
        in_convergence_band(r.l, r.theta_tilde, radius) for r in rows[-window:]
    )
    t_converge = None
    if converged:
        t_converge = rows[-1].t
        for row in reversed(rows):
            if not in_convergence_band(row.l, row.theta_tilde, radius):
                break
            t_converge = row.t
    switch_count = sum(
        1 for a, b in zip(rows, rows[1:]) if a.maneuver != b.maneuver
    )
    path_length = sum(r.v for r in rows[:-1]) * float(trace.meta["dt_control"])
    vs = [r.V for r in rows]
    return RunSummary(
        converged=converged,
        t_converge=t_converge,
        path_length=path_length,
        switch_count=switch_count,
        max_V=max(vs),
        final_V=vs[-1],
        lyapunov_violations=count_lyapunov_violations(trace),
    )


class FieldSample(NamedTuple):
    l_norm: float
    theta_tilde: float
    sigma_r: float
    sigma_l: float
    sigma_n: float
    sigma_p: float
    region: Region


class GridSpec(Record):
    l_min: float = -4.0
    l_max: float = 4.0
    theta_min: float = -math.pi
    theta_max: float = math.pi
    n_l: int = 81
    n_theta: int = 81

    def __post_init__(self) -> None:
        for axis, lo, hi in (("l", self.l_min, self.l_max),
                             ("theta", self.theta_min, self.theta_max)):
            if not math.isfinite(hi - lo):  # also fails unless both bounds are finite
                raise ValueError(f"--{axis}-min and --{axis}-max must be finite and span "
                                 f"a finite range, got {lo!r} and {hi!r}")
        for n in (self.n_l, self.n_theta):
            if type(n) is not int or n < 2:
                raise ValueError(f"grid needs an int of at least 2 points per axis, got {n!r}")


# Region codes of a field dump index this tuple.
REGIONS = tuple(Region)
# Keyed by label: a str hash is cached, while Enum.__hash__ runs in Python.
_REGION_CODE = {region.label: code for code, region in enumerate(REGIONS)}


class FieldDump(Sequence):
    """A sampled switching field, held in columns.

    Six ``array('d')`` columns (``l_norm`` ... ``sigma_p``) and
    ``region_codes``, one byte per sample indexing :data:`REGIONS`.
    Indexing and iteration build each :class:`FieldSample` on access;
    every value was computed by :func:`field_dump`.
    """

    __slots__ = ("l_norm", "theta_tilde", "sigma_r", "sigma_l", "sigma_n", "sigma_p",
                 "region_codes")

    def __init__(self, l_norm: array, theta_tilde: array, sigma_r: array, sigma_l: array,
                 sigma_n: array, sigma_p: array, region_codes: bytes) -> None:
        self.l_norm = l_norm
        self.theta_tilde = theta_tilde
        self.sigma_r = sigma_r
        self.sigma_l = sigma_l
        self.sigma_n = sigma_n
        self.sigma_p = sigma_p
        self.region_codes = region_codes

    def __len__(self) -> int:
        return len(self.region_codes)

    def __getitem__(self, index: int | slice) -> FieldSample | list[FieldSample]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return FieldSample(
            self.l_norm[index], self.theta_tilde[index], self.sigma_r[index],
            self.sigma_l[index], self.sigma_n[index], self.sigma_p[index],
            REGIONS[self.region_codes[index]],
        )

    def __iter__(self) -> Iterator[FieldSample]:
        for l_norm, th, s_r, s_l, s_n, s_p, code in zip(
            self.l_norm, self.theta_tilde, self.sigma_r, self.sigma_l,
            self.sigma_n, self.sigma_p, self.region_codes,
        ):
            yield FieldSample(l_norm, th, s_r, s_l, s_n, s_p, REGIONS[code])


def field_dump(
    delta: float, grid: GridSpec, band: float = ControllerConfig.eps_b
) -> FieldDump:
    """Evaluate the boundary functions and the region labels on a grid.

    The values are the ``sigma_*`` functions' and the regions
    :func:`classify`'s for ``ControllerConfig(delta_approach=delta,
    eps_b=band)``; ``sigma_n``/``sigma_p`` are drawn for reference only.
    Rows vary ``theta_tilde`` fastest, for contour or heat-map replotting;
    every value is computed here, the per-heading ones once per column.  A
    row off the origin band is labelled whole, from its side's off-curve
    codes and hand-off values; a row within ``band`` of ``l~ = 0`` takes
    the partition a sample at a time.  A
    ``delta`` outside [0, pi) or a ``band`` outside (0, inf) raises
    ValueError, from the config.
    """
    cfg = ControllerConfig(delta_approach=delta, eps_b=band)
    thetas = [
        grid.theta_min + (grid.theta_max - grid.theta_min) * j / (grid.n_theta - 1)
        for j in range(grid.n_theta)
    ]
    # The per-heading work, once per column: the cosine the sigma_* take of
    # th~, and the partition's heading half of wrap(th~), as classify takes it.
    cos_th = [math.cos(th) for th in thetas]
    columns = [(th, _heading_half(th, cfg)) for th in map(wrap_angle, thetas)]
    two_cos_delta, b = 2.0 * math.cos(delta), cfg.eps_b
    # A row off the origin band (|l~| > b) lies wholly on one side, where
    # _offset_half gives that side's off-curve region except on its
    # final-turn curve.  So per side: the row of off-curve codes, and the
    # receptive columns with the cosine of the wrapped th~ the hand-off takes.
    left_off, right_off = (
        bytes([_REGION_CODE[heading[side][2].label] for _, heading in columns])
        for side in (1, 2)
    )
    left_cos, right_cos = (
        [(j, heading[0]) for j, (_, heading) in enumerate(columns) if heading[side][0]]
        for side in (1, 2)
    )
    on_l, on_r = _REGION_CODE[Region.ON_SIGMA_L.label], _REGION_CODE[Region.ON_SIGMA_R.label]
    l_col, s_r, s_l, s_n, s_p = (array("d") for _ in range(5))
    codes = bytearray()
    # Each row is appended as one array: array.extend takes an iterable an
    # item at a time.
    for i in range(grid.n_l):
        l_norm = grid.l_min + (grid.l_max - grid.l_min) * i / (grid.n_l - 1)
        l_col += array("d", (l_norm,)) * grid.n_theta
        # The sigma_* operations in their order, each row's part hoisted.
        up, down = l_norm + 1.0, l_norm - 1.0
        up_n, down_p = up - two_cos_delta, down + two_cos_delta
        s_r += array("d", [up - c for c in cos_th])
        s_l += array("d", [down + c for c in cos_th])
        s_n += array("d", [up_n + c for c in cos_th])
        s_p += array("d", [down_p - c for c in cos_th])
        if l_norm > b:  # side +1, hand-off sigma_l = (l~ - 1) + cos(th~)
            row = bytearray(left_off)
            for j, c in left_cos:
                if abs(down + c) <= b:
                    row[j] = on_l
        elif l_norm < -b:  # side -1, hand-off sigma_r = (l~ + 1) - cos(th~)
            row = bytearray(right_off)
            for j, c in right_cos:
                if abs(up - c) <= b:
                    row[j] = on_r
        else:  # the origin band, or a NaN l~: the partition, a sample at a time
            row = bytes([_REGION_CODE[_offset_half(l_norm, th, heading, b)[0].label]
                         for th, heading in columns])
        codes += row
    return FieldDump(l_col, array("d", thetas) * grid.n_l, s_r, s_l, s_n, s_p, bytes(codes))
