"""Tests of the benchmark itself: the replay check, inputs, and failure exits.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import run as bench

brakesteer = bench.import_program()

import replay  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402


def short_dynamic_scenario():
    data = workloads.generate("dynamic-track", 0)["scenarios"][1]
    data["t_max"] = 2.0
    return brakesteer.Scenario.from_dict(data)


def replay_fresh(scenario, trace):
    samples = defaultdict(list)
    replay.replay(scenario, scenario.build_path(), trace, samples)
    return samples


def tampered(trace, k, **fields):
    rows = trace.rows
    return brakesteer.Trace(rows=rows[:k] + (rows[k]._replace(**fields),) + rows[k + 1:],
                            meta=trace.meta)


@pytest.fixture(scope="module")
def demo():
    scenario = brakesteer.build_demo_scenario()
    return scenario, brakesteer.run(scenario)


def test_replay_reproduces_demo_and_times_every_layer(demo):
    scenario, trace = demo
    samples = replay_fresh(scenario, trace)
    steps = len(trace.rows) - 1  # the last row is the path-end stop row
    assert trace.meta["stop_reason"] == "path_end"
    assert len(samples["select"]) == len(samples["ctl_step"]) == steps
    assert len(samples["step_kinematic"]) == steps
    assert len(samples["project.global"]) == 1
    hinted = sum(len(samples["project." + k]) for k in ("line", "arc", "clothoid"))
    assert hinted == len(trace.rows) - 1
    assert all(samples["project." + k] for k in ("line", "arc", "clothoid"))


def test_replay_reproduces_dynamic_run():
    scenario = short_dynamic_scenario()
    trace = brakesteer.run(scenario)
    samples = replay_fresh(scenario, trace)
    assert len(samples["step_dynamic"]) == 10 * (len(trace.rows) - 1)


@pytest.mark.parametrize("field", ["l", "maneuver"])
def test_replay_trips_on_a_tampered_row(demo, field):
    scenario, trace = demo
    k = len(trace.rows) // 2
    row = trace.rows[k]
    value = row.l + 1e-9 if field == "l" else (
        "turn_left" if row.maneuver != "turn_left" else "turn_right")
    with pytest.raises(replay.ReplayMismatch) as info:
        replay_fresh(scenario, tampered(trace, k, **{field: value}))
    assert info.value.row == k
    assert field in str(info.value)


def test_traced_pass_counts_a_tampered_trace_as_a_failed_check(monkeypatch):
    scenario = short_dynamic_scenario()
    real_run = brakesteer.run

    def run_with_tampered_row(s):
        trace = real_run(s)
        k = len(trace.rows) // 2
        return tampered(trace, k, l=trace.rows[k].l + 1e-9)

    clean = bench.TracedPass(brakesteer, "dynamic-track")
    clean.add(scenario, [])
    assert clean.mismatches == 0 and not clean.problems
    monkeypatch.setattr(brakesteer, "run", run_with_tampered_row)
    traced = bench.TracedPass(brakesteer, "dynamic-track")
    traced.add(scenario, [])
    assert traced.mismatches == 1
    assert traced.problems and "replay mismatch" in traced.problems[0]


def lost_course():
    """A course whose run loses its projection: it starts at an arc's centre."""
    data = workloads.generate("curvy-course", 0)["scenarios"][0]
    data["path"]["segments"] = [
        {"kind": "line", "length": 1.0},
        {"kind": "arc", "length": 3.0, "curvature": 1.0},
        {"kind": "line", "length": 10.0},
    ]
    del data["initial_frenet"]
    data["initial_pose"] = [1.0, 1.0, 0.0]
    return data


def test_a_curvy_run_that_loses_its_projection_counts_as_failed(tmp_path):
    from speed import Speed

    datas = [lost_course(), workloads.generate("curvy-course", 0)["scenarios"][0]]
    configs = []
    for i, data in enumerate(datas):
        configs.append(tmp_path / f"scenario{i}.json")
        configs[-1].write_text(json.dumps(data), encoding="utf-8")
    _, runs = workloads.prepare({"scenarios": datas})
    ends = [bench.path_end(scenario) for scenario, _ in runs]
    batch = bench.curvy_batch(Speed(), tmp_path, configs, ends)
    traced = bench.TracedPass(brakesteer, "curvy-course")
    for scenario, errors in runs:
        traced.add(scenario, errors)
    assert [failed for failed, _, _ in batch.outcomes] == [True, False]
    assert [failed for failed, _, _ in traced.outcomes] == [True, False]
    assert not traced.problems
    assert bench.compare_outcomes(batch.outcomes, traced.outcomes) == []


def test_a_curvy_run_that_raises_counts_as_failed(tmp_path, monkeypatch):
    from brakesteer import cli
    from speed import Speed

    def broken_run(scenario):
        raise RuntimeError("numerical trouble")

    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(workloads.generate("curvy-course", 0)["scenarios"][0]))
    monkeypatch.setattr(cli, "run", broken_run)
    batch = bench.curvy_batch(Speed(), tmp_path, [config], [None])
    assert batch.outcomes == [(True, False, "RuntimeError: numerical trouble")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed_and_validate(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert workloads.inputs_digest(a) != workloads.inputs_digest(workloads.generate(workload, 8))
    base, runs = workloads.prepare(a)
    assert all(s is not None and not errors for s, errors in runs)
    assert (base is not None) == (workload == "convergence-study")


def test_segment_kind_uses_the_joints():
    path = brakesteer.build_demo_scenario().build_path()
    assert [replay.segment_kind(path, s) for s in (0.0, 14.9, 15.0, 18.5, 34.9)] == [
        "line", "line", "clothoid", "arc", "line"]


def test_exits_nonzero_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curvy-course",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
    assert not Path(tmp_path, ".perfbench_work").exists()
