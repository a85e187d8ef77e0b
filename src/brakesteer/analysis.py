"""Post-run metrics: Lyapunov values, convergence detection, field dumps."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from .controller import (
    ControllerConfig, DeltaProfile, Region, classify, sigma_l, sigma_n, sigma_p, sigma_r,
)
from .path_geometry import wrap_angle

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


@dataclass(frozen=True)
class RunSummary:
    converged: bool
    t_converge: Optional[float]
    path_length: float
    switch_count: int
    max_V: float
    final_V: float
    lyapunov_violations: int

    def as_dict(self) -> dict:
        return asdict(self)


def ripple_bound(l_norm: float, eps_theta: float, dt: float, v: float, radius: float) -> float:
    """Allowed Lyapunov increase between samples due to band + step quantization."""
    return 0.5 * (eps_theta**2 + 2.0 * abs(l_norm) * dt * v / radius)


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


@dataclass(frozen=True)
class FieldSample:
    l_norm: float
    theta_tilde: float
    sigma_r: float
    sigma_l: float
    sigma_n: float
    sigma_p: float
    region: Region


@dataclass(frozen=True)
class GridSpec:
    l_min: float = -4.0
    l_max: float = 4.0
    theta_min: float = -math.pi
    theta_max: float = math.pi
    n_l: int = 81
    n_theta: int = 81

    def __post_init__(self) -> None:
        for v in (self.l_min, self.l_max, self.theta_min, self.theta_max):
            if not math.isfinite(v):
                raise ValueError("grid bounds must be finite")
        if self.n_l < 2 or self.n_theta < 2:
            raise ValueError("grid needs at least 2 points per axis")


def field_dump(
    delta: float, grid: GridSpec, band: float = ControllerConfig.eps_b
) -> list[FieldSample]:
    """Evaluate all boundary functions and region labels on a grid.

    Rows vary ``theta_tilde`` fastest; the output is suitable for contour
    or heat-map replotting of the switching partition.
    """
    out = []
    for i in range(grid.n_l):
        l_norm = grid.l_min + (grid.l_max - grid.l_min) * i / (grid.n_l - 1)
        for j in range(grid.n_theta):
            th = grid.theta_min + (grid.theta_max - grid.theta_min) * j / (grid.n_theta - 1)
            out.append(
                FieldSample(
                    l_norm=l_norm,
                    theta_tilde=th,
                    sigma_r=sigma_r(l_norm, th),
                    sigma_l=sigma_l(l_norm, th),
                    sigma_n=sigma_n(l_norm, th, delta),
                    sigma_p=sigma_p(l_norm, th, delta),
                    region=classify(l_norm, th, delta, band),
                )
            )
    return out
