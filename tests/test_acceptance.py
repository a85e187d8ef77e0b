"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
The suite is self-contained: scenarios are synthesized here and the demo
ships with the package.
"""

import math
import time

import numpy as np
import pytest

from brakesteer.analysis import lyapunov, ripple_bound, summarize
from brakesteer.controller import (
    ControllerConfig,
    DeltaProfile,
    Region,
    classify,
    curvature_feasible,
    sigma_l,
    sigma_n,
    sigma_p,
    sigma_r,
)
from brakesteer.dynamics import (
    Maneuver,
    UserInput,
    VehicleParams,
    VehicleState,
    step_dynamic,
    step_kinematic,
)
from brakesteer.path_geometry import build_path, wrap_angle
from brakesteer.simulator import Scenario, build_demo_scenario, frenet_grid, run, sweep

RADIUS = 0.3


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def tracking_scenario(**patch) -> Scenario:
    data = {
        "path": {"start_pose": [0, 0, 0], "segments": [{"kind": "line", "length": 250}]},
        "initial_frenet": {"s": 10.0, "l_norm": 0.0, "theta_tilde": 0.0},
        "vehicle": {"d": 2 * RADIUS},
        "user": {"v": 1.0},
        "controller": {
            "threshold_l": 1e9,  # the tracking law governs from the start
            "delta_profile": {"kind": "tanh", "amplitude": math.pi / 2, "gain": 1.0},
            "eps_theta": 0.02,
        },
        "dt_control": 0.005,
        "t_max": 90.0,
        "mode": "kinematic",
        "seed": 0,
        "stop_when_converged": True,
        "converged_hold": 2.0,
    }
    data.update(patch)
    return Scenario.from_dict(data)


@pytest.fixture(scope="module")
def convergence_sweep():
    base = tracking_scenario()
    grid = frenet_grid(np.linspace(-4, 4, 9), np.linspace(-3, 3, 9), s0=10.0)
    t0 = time.monotonic()
    results = sweep(base, grid)
    elapsed = time.monotonic() - t0
    return results, elapsed


def test_criterion_01_convergence_grid(convergence_sweep):
    results, elapsed = convergence_sweep
    converged = [r for r in results if r.summary is not None and r.summary.converged]
    ok = len(converged) == 81 == len(results) and elapsed < 10.0
    report(1, ok, f"{len(converged)}/81 converged, {elapsed:.2f} s")


def test_criterion_02_lyapunov_monotonicity(convergence_sweep):
    results, _ = convergence_sweep
    violations = sum(r.summary.lyapunov_violations for r in results if r.summary)
    ok = all(r.summary is not None for r in results) and violations == 0
    report(2, ok, f"{violations} ripple-bound violations across 81 runs")


def test_criterion_03_single_wheel_circle_exact():
    params = VehicleParams(d=2 * RADIUS)
    v, n = 1.0, 1000
    dt = 2 * math.pi * params.R / v / n
    state = VehicleState.from_body_rates(0.4, -0.9, 1.1, v, 0.0, params)
    for _ in range(n):
        state = step_kinematic(state, Maneuver.TURN_RIGHT, v, dt, params)
    closure = math.hypot(state.x - 0.4, state.y + 0.9)
    ok = closure < 1e-9 and abs(state.theta - (1.1 - 2 * math.pi)) < 1e-9
    report(3, ok, f"closure error {closure:.2e} m after a full revolution")


def test_criterion_04_boundary_algebra():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        l = float(rng.uniform(-6, 6))
        th = float(rng.uniform(-math.pi, math.pi))
        de = float(rng.uniform(-math.pi, math.pi))
        worst = max(
            worst,
            abs(sigma_r(l, th) - (l + 1 - math.cos(th))),
            abs(sigma_l(l, th) - (l - 1 + math.cos(th))),
            abs(sigma_n(l, th, de) - (l + 1 - 2 * math.cos(de) + math.cos(th))),
            abs(sigma_p(l, th, de) - (l - 1 + 2 * math.cos(de) - math.cos(th))),
            # zero-angle collapse: the generalized boundaries fold onto the
            # final-turn curves (N onto L and P onto R; cos(0) = 1)
            abs(sigma_n(l, th, 0.0) - sigma_l(l, th)),
            abs(sigma_p(l, th, 0.0) - sigma_r(l, th)),
        )
    ok = worst <= 1e-12
    report(4, ok, f"max |residual| {worst:.2e} over 10^4 points")


def test_criterion_05_partition_totality_and_symmetry():
    # delta is a magnitude, so the mirror (l~, th~) -> (-l~, -th~) keeps it.
    cfg = ControllerConfig(delta_approach=math.pi / 3)
    n = 1000
    ls = np.linspace(-4, 4, n)
    ths = np.linspace(-math.pi, math.pi, n, endpoint=False)
    swap = {
        Region.RIGHT_TURN_FIRST: Region.LEFT_TURN_FIRST,
        Region.LEFT_TURN_FIRST: Region.RIGHT_TURN_FIRST,
        Region.ON_SIGMA_R: Region.ON_SIGMA_L,
        Region.ON_SIGMA_L: Region.ON_SIGMA_R,
    }
    counts = {r: 0 for r in Region}
    asymmetric = 0
    for l in ls:
        for th in ths:
            r = classify(float(l), float(th), cfg)
            counts[r] += 1
            if classify(float(-l), float(-th), cfg) is not swap.get(r, r):
                asymmetric += 1
    total = sum(counts.values())
    ok = total == n * n and asymmetric == 0
    report(5, ok, f"{total} labels assigned, {asymmetric} symmetry mismatches")


# The first (maneuver, hybrid state) of the approach step from a fresh
# state, per region: the table in classify's docstring.
FIRST_MOVE = {
    Region.ON_DELTA_LINE: ("go_straight", "straight"),
    Region.RIGHT_TURN_FIRST: ("turn_right", "turning"),
    Region.LEFT_TURN_FIRST: ("turn_left", "turning"),
    Region.ON_SIGMA_L: ("turn_left", "controlled"),
    Region.ON_SIGMA_R: ("turn_right", "controlled"),
}


def test_approach_sweep_converges_and_starts_as_classified():
    # The default controller block: the approach phase governs beyond
    # |l~| = threshold_l = 1, so every start off l~ = 0 begins there.
    base = tracking_scenario(controller={})
    grid = frenet_grid(np.linspace(-20, 20, 9), np.linspace(-3, 3, 9), s0=10.0)
    n_converged, approach_starts, mismatches = 0, 0, []
    for overrides in grid:
        scenario = base.with_overrides(overrides)
        trace = run(scenario)
        n_converged += summarize(trace).converged
        first = trace.rows[0]
        l_norm = first.l / scenario.control.radius
        if abs(l_norm) > scenario.control.threshold_l:
            approach_starts += 1
            region = classify(l_norm, first.theta_tilde, scenario.control)
            if (first.maneuver, first.hybrid_state) != FIRST_MOVE[region]:
                mismatches.append((l_norm, first.theta_tilde, region.label, first.maneuver))
    assert n_converged == len(grid) == 81
    assert approach_starts == 72
    assert mismatches == []


def test_criterion_06_demo_reproduction():
    scenario = build_demo_scenario()
    t0 = time.monotonic()
    trace = run(scenario)
    elapsed = time.monotonic() - t0
    summary = summarize(trace)
    # the approach is complete once |l| stays under 0.1 m to the end of the run
    settle = len(trace.rows)
    for i in range(len(trace.rows) - 1, -1, -1):
        if abs(trace.rows[i].l) >= 0.1:
            break
        settle = i
    settled_early = (
        settle < len(trace.rows)
        and trace.rows[settle].t < 0.5 * trace.rows[-1].t
        and trace.rows[settle].phase == "track"
    )
    # residual oscillation after convergence stays inside the ripple bound
    conv = next(i for i, r in enumerate(trace.rows) if r.t >= summary.t_converge)
    bound = ripple_bound(0.05, scenario.control.eps_theta, scenario.dt_control,
                         scenario.v_user, scenario.vehicle.R)
    max_v = max(r.V for r in trace.rows[conv:])
    ok = summary.converged and elapsed < 1.0 and settled_early and max_v <= bound
    report(6, ok, f"converged={summary.converged}, wall {elapsed:.2f} s, "
                  f"|l| < 0.1 m from t={trace.rows[min(settle, len(trace.rows) - 1)].t:.1f} s, "
                  f"ripple V {max_v:.2e} <= {bound:.2e}")


def test_criterion_07_infeasible_profile_contraction():
    profile = DeltaProfile.tanh(math.pi / 2, 10.0)
    feasible, l_hat = curvature_feasible(profile, 1.0, RADIUS)
    scenario = tracking_scenario(
        controller={
            "threshold_l": 1e9,
            "delta_profile": {"kind": "tanh", "amplitude": math.pi / 2, "gain": 10.0},
        },
        initial_frenet={"s": 10.0, "l_norm": 2.0, "theta_tilde": 0.0},
    )
    trace = run(scenario)
    entries = []
    prev_in = None
    for r in trace.rows:
        l_norm = r.l / RADIUS
        err = wrap_angle(r.theta_tilde - profile.value(l_norm))
        inside = abs(err) <= scenario.control.eps_theta
        if inside and prev_in is False and abs(l_norm) >= l_hat:
            # re-entries inside the feasible core are discretization ripple,
            # not excursions forced by the turn-rate limit
            entries.append((abs(l_norm), abs(r.theta_tilde)))
        prev_in = inside
    contracting = all(
        lb < la and tb < ta for (la, ta), (lb, tb) in zip(entries, entries[1:])
    )
    converged = summarize(trace).converged
    ok = not feasible and l_hat < 0.5 and len(entries) >= 3 and contracting and converged
    report(7, ok, f"l_hat={l_hat:.3f}, {len(entries)} re-entries, "
                  f"contracting={contracting}, converged={converged}")


def test_criterion_08_frenet_projection_oracle():
    path = build_path(
        [
            {"kind": "line", "length": 4},
            {"kind": "clothoid", "length": 3, "curvature_start": 0, "curvature_end": 0.5},
            {"kind": "arc", "length": 2, "curvature": 0.5},
            {"kind": "clothoid", "length": 3, "curvature_start": 0.5, "curvature_end": 0},
            {"kind": "line", "length": 4},
        ]
    )
    # Independent dense table: cumulative trapezoid integration of the
    # piecewise heading polynomial at 1e-4 spacing.
    ds = 1e-4
    s_grid = np.arange(0.0, path.total_length + ds / 2, ds)
    th_grid = np.empty_like(s_grid)
    offset = 0.0
    for seg, s0 in zip(path.segments, path.cumulative_s):
        mask = (s_grid >= s0 - 1e-12) & (s_grid <= s0 + seg.length + 1e-12)
        u = s_grid[mask] - s0
        th_grid[mask] = (
            seg.start_pose[2]
            + seg.curvature_start * u
            + (seg.curvature_end - seg.curvature_start) * u * u / (2 * seg.length)
        )
    cos_t, sin_t = np.cos(th_grid), np.sin(th_grid)
    x_grid = ds * (np.cumsum(cos_t) - 0.5 * (cos_t + cos_t[0]))
    y_grid = ds * (np.cumsum(sin_t) - 0.5 * (sin_t + sin_t[0]))

    rng = np.random.default_rng(99)
    worst_s = worst_l = 0.0
    for _ in range(1000):
        s0 = float(rng.uniform(0.2, path.total_length - 0.2))
        l0 = float(rng.uniform(-0.8, 0.8))
        px, py, thd = path.pose_at(s0)
        pose = (px - l0 * math.sin(thd), py + l0 * math.cos(thd),
                float(rng.uniform(-math.pi, math.pi)))
        fr = path.frenet_project(pose)
        j = int(np.argmin((x_grid - pose[0]) ** 2 + (y_grid - pose[1]) ** 2))
        th_b = th_grid[j]
        l_b = -(pose[0] - x_grid[j]) * math.sin(th_b) + (pose[1] - y_grid[j]) * math.cos(th_b)
        worst_s = max(worst_s, abs(fr.s - s_grid[j]))
        worst_l = max(worst_l, abs(fr.l - l_b))
    ok = worst_s <= 1e-3 and worst_l <= 1e-3
    report(8, ok, f"worst |ds| {worst_s:.2e}, worst |dl| {worst_l:.2e} over 1000 poses")


def test_criterion_09_dynamic_integrator():
    params = VehicleParams(b_max=2.0)
    user = UserInput(0.3, 0.25)

    def final(dt, T=1.0):
        s = VehicleState.from_body_rates(0, 0, 0.2, 1.2, 0.3, params)
        for _ in range(round(T / dt)):
            s = step_dynamic(s, Maneuver.TURN_RIGHT, user, dt, params, "viscous")
        return np.array([s.x, s.y, s.theta, s.v, s.omega])

    a, b, c = final(0.01), final(0.005), final(0.0025)
    ratio = float(np.max(np.abs(a - b)) / np.max(np.abs(b - c)))
    ratio_ok = 16 * 0.7 <= ratio <= 16 * 1.3

    dissipative = True
    for cmd in (Maneuver.GO_STRAIGHT, Maneuver.TURN_RIGHT, Maneuver.TURN_LEFT, Maneuver.STOP):
        s = VehicleState.from_body_rates(0, 0, 0, 1.5, 0.8, params)
        e = s.kinetic_energy(params)
        for _ in range(1000):
            s = step_dynamic(s, cmd, UserInput(), 1e-3, params, "viscous")
            e2 = s.kinetic_energy(params)
            dissipative &= e2 <= e + 1e-12
            e = e2
    ok = ratio_ok and dissipative
    report(9, ok, f"Richardson ratio {ratio:.1f} (target 16 +- 30%), "
                  f"dissipative={dissipative}")


def test_criterion_10_determinism():
    scenario = build_demo_scenario()
    a = run(scenario).to_csv()
    b = run(Scenario.from_dict(scenario.to_dict())).to_csv()
    ok = a == b
    report(10, ok, f"{len(a)} CSV bytes, identical={ok}")
