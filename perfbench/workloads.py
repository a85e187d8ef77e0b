"""Seeded inputs for the benchmark workloads.

``generate`` turns a workload name and a seed into plain scenario dicts
(the JSON form ``Scenario.from_dict`` and ``brakesteer simulate --config``
accept); the program under test only ever sees those dicts.  ``prepare``
builds and validates them, which is the work ``setup_s`` times.

Every workload keeps the amount of work per batch close to constant across
seeds (fixed segment lengths, fixed grid, fixed ``t_max``), so that seed
changes move the inputs without moving the timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("curvy-course", "convergence-study", "dynamic-track")

# curvy-course: courses per batch and bends per course.  Clothoid lengths
# are fixed because clothoid projection dominates the run cost.  Many short
# courses average out the seed and keep each timed CLI call short.
CURVY_COURSES = 6
CURVY_BENDS = 1
CLOTHOID_LEN = 3.0

# convergence-study: the 9x9 grid of acceptance criterion 1, jittered.
GRID_L = 9
GRID_THETA = 9
GRID_JITTER = 0.1
FIELD_RESOLUTION = 301
FIELD_DELTA = math.pi / 3.0

# dynamic-track: runs per batch; brake models alternate.
DYNAMIC_RUNS = 8
DYNAMIC_T_MAX = 15.0


def _curvy_course(rng: random.Random) -> dict:
    segments = [{"kind": "line", "length": 10.0}]
    sign = rng.choice((-1.0, 1.0))
    for _ in range(CURVY_BENDS):
        # |c| * R <= 0.6 * 0.3 < 1: every course is followable.
        c = sign * rng.uniform(0.3, 0.6)
        segments += [
            {"kind": "clothoid", "length": CLOTHOID_LEN,
             "curvature_start": 0.0, "curvature_end": c},
            {"kind": "arc", "length": rng.uniform(1.0, 2.0), "curvature": c},
            {"kind": "clothoid", "length": CLOTHOID_LEN,
             "curvature_start": c, "curvature_end": 0.0},
            {"kind": "line", "length": 15.0},
        ]
        sign = -sign  # alternate bends: a course never loops back onto itself
    side = rng.choice((-1.0, 1.0))
    return {
        "path": {"start_pose": [0.0, 0.0, 0.0], "segments": segments},
        "initial_frenet": {
            "s": rng.uniform(2.0, 4.0),
            "l_norm": side * rng.uniform(3.0, 10.0),
            "theta_tilde": rng.uniform(-1.0, 1.0),
        },
        "user": {"v": 1.0},
        "dt_control": 0.01,
        "t_max": 90.0,
        "mode": "kinematic",
        "seed": 0,
    }


def _tracking_base() -> dict:
    """The 250 m line of acceptance criterion 1, tracking law from the start."""
    return {
        "path": {"start_pose": [0, 0, 0], "segments": [{"kind": "line", "length": 250}]},
        "initial_frenet": {"s": 10.0, "l_norm": 0.0, "theta_tilde": 0.0},
        "vehicle": {"d": 0.6},
        "user": {"v": 1.0},
        "controller": {
            "threshold_l": 1e9,
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


def _jittered_grid(rng: random.Random) -> list[dict]:
    grid = []
    for i in range(GRID_L):
        for j in range(GRID_THETA):
            l_norm = -4.0 + 8.0 * i / (GRID_L - 1) + rng.uniform(-GRID_JITTER, GRID_JITTER)
            theta = -3.0 + 6.0 * j / (GRID_THETA - 1) + rng.uniform(-GRID_JITTER, GRID_JITTER)
            # Same override shape as brakesteer.frenet_grid.
            grid.append({
                "initial_pose": None,
                "initial_frenet": {"s": 10.0, "l_norm": l_norm, "theta_tilde": theta},
            })
    return grid


def _dynamic_run(rng: random.Random, brake_model: str) -> dict:
    # The cart covers 1.5-4 m in t_max, almost all of it on the arc (at most
    # 8 * 0.5 = 4 rad of turn, so the course never overlaps itself).
    curvature = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.5)
    tau = rng.uniform(0.05, 0.3)
    return {
        "path": {
            "start_pose": [0.0, 0.0, 0.0],
            "segments": [
                {"kind": "line", "length": 0.5},
                {"kind": "arc", "length": 8.0, "curvature": curvature},
                {"kind": "line", "length": 30.0},
            ],
        },
        # Inside the track threshold (|l~| <= 1), so the run starts tracking.
        "initial_frenet": {
            "s": rng.uniform(0.5, 1.0),
            "l_norm": rng.uniform(-0.8, 0.8),
            "theta_tilde": rng.uniform(-0.3, 0.3),
        },
        "user": {
            "v": 1.0,
            "tau_r": tau * rng.uniform(0.9, 1.1),
            "tau_l": tau * rng.uniform(0.9, 1.1),
        },
        "dt_control": 0.01,
        "dt_physics": 0.001,
        "t_max": DYNAMIC_T_MAX,
        "mode": "dynamic",
        "brake_model": brake_model,
        "seed": 0,
    }


def generate(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload batch; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "curvy-course":
        return {"scenarios": [_curvy_course(rng) for _ in range(CURVY_COURSES)]}
    if workload == "convergence-study":
        return {
            "base": _tracking_base(),
            "grid": _jittered_grid(rng),
            "field": {"delta": FIELD_DELTA, "resolution": FIELD_RESOLUTION},
        }
    if workload == "dynamic-track":
        models = ("instant", "viscous")
        return {"scenarios": [_dynamic_run(rng, models[i % 2]) for i in range(DYNAMIC_RUNS)]}
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def prepare(inputs: dict):
    """Build and validate every run's scenario.

    Returns ``(base, runs)``: ``base`` is the sweep's base Scenario (None
    outside convergence-study) and ``runs`` one ``(scenario, errors)`` pair
    per run, ``scenario`` None when ``from_dict`` itself rejected the dict.
    A run with errors is a generation failure; it stays in the batch and
    counts as failed.
    """
    from brakesteer import Scenario

    if "grid" in inputs:
        base = Scenario.from_dict(inputs["base"])
        makers = [lambda ov=ov: base.with_overrides(ov) for ov in inputs["grid"]]
    else:
        base = None
        makers = [lambda d=d: Scenario.from_dict(d) for d in inputs["scenarios"]]
    runs = []
    for make in makers:
        try:
            scenario = make()
        except (ValueError, KeyError, TypeError) as exc:
            runs.append((None, [str(exc)]))
            continue
        errors = [msg for level, msg in scenario.validate() if level == "error"]
        runs.append((scenario, errors))
    return base, runs
