"""brakesteer benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload curvy-course --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Each invocation interleaves, serially, for ``--seconds``:

1. the untraced pass: the workload's batch through the user's entry points
   (``cli.main``, ``sweep``, ``run``, ``summarize``, ``field_dump``), repeated;
   medians over batches give the end-to-end metrics;
2. set-up probes, three after each batch: fresh interpreters (probe.py) that
   import brakesteer, generate the workload's inputs from the seed and build
   and validate its scenarios (``setup_s``), each followed by one that only
   imports numpy, to scale the imports by;
3. the traced pass, spread between the batches: each run once through
   ``run``, then replayed call by call through the layer functions (see
   replay.py) for the per-layer metrics and the control-step latency.

Every duration is scaled to a reference machine speed (see speed.py, and
``setup_s`` below).
Both passes always run; ``--trace`` picks which metric set the final JSON
line carries (0: end-to-end, 1: per-layer).  All metrics are printed above
it by name with their unit.  The exit code is non-zero when any correctness
check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from speed import REFERENCE_S, Speed, loop_time

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # set-up probe pairs after each untraced batch
NUMPY_IMPORT_S = 0.15  # median time of a numpy-only probe in a quiet stretch
MIN_BATCHES = 3
GRID_ROW = 9  # theta values per l~ row of the convergence-study grid


def import_program():
    """Import brakesteer from this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "brakesteer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import brakesteer

    if Path(brakesteer.__file__).resolve().parent != (src / "brakesteer").resolve():
        raise SystemExit(f"perfbench: imported brakesteer from {brakesteer.__file__}")
    return brakesteer


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def now() -> float:
    """System-wide monotonic clock, comparable between processes on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for a layer the workload never calls."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- set-up ------------------------------------------------------------------


def probe(*args: str) -> tuple[float, dict]:
    """Start probe.py with ``args``: the start time and the probe's report."""
    start = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_s(imports: list[float], numpy_imports: list[float], builds: list[float]) -> float:
    """Median set-up time at reference speed: the imports plus the build.

    The imports (file reads, page faults, thread start) are not tracked by
    the reference loop of speed.py, so they are scaled by a reference of
    their own kind: fresh interpreters that only import numpy, started in
    turn with the program's probes.  Building the inputs is Python work like
    the rest, so ``builds`` come scaled by the loop.  On 10 blocks of 12
    convergence-study probes, the block medians spread by 0.09 unscaled, by
    0.11 with all of set-up scaled by the numpy imports, and by 0.06 so.
    """
    return median(imports) * NUMPY_IMPORT_S / median(numpy_imports) + median(builds)


# -- untraced pass -------------------------------------------------------------
#
# Each batch function returns a Batch.  Only the entry-point calls are inside
# the timed spans; every span is scaled by the reference speed around it.


class Batch(NamedTuple):
    wall: float      # scaled seconds, everything the user waits for
    sim: float       # scaled seconds in simulation calls (no field_dump)
    raw_wall: float  # the same wall, unscaled
    outcomes: list   # (failed, converged, fingerprint) per run
    calls: dict      # entry point -> scaled per-call seconds


def path_end(scenario):
    """Arc length from which run() stops at the end of the scenario's path."""
    if scenario is None:
        return None
    margin = max(2.0 * scenario.v_user * scenario.dt_control, 1e-6)
    return scenario.build_path().total_length - margin


def curvy_batch(speed: Speed, workdir: Path, configs: list[Path], ends: list) -> Batch:
    """``ends[i]``: the arc length past which run i stops at the path's end."""
    from brakesteer import cli

    raw, scaled, results = [], [], []
    speed.restart()
    for i, config in enumerate(configs):
        out = workdir / f"run{i}"
        captured = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        except Exception as exc:  # counted in fail_frac
            code = f"{type(exc).__name__}: {exc}"
        raw.append(perf_counter() - t0)
        scaled.append(speed.scale(raw[-1]))
        results.append((code, out, captured.getvalue()))
    outcomes = []
    for (code, out, text), end in zip(results, ends):
        if code not in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED):
            outcomes.append((True, False, code if isinstance(code, str) else text.strip()))
            continue
        csv = (out / "trace.csv").read_text(encoding="utf-8")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        # The outputs carry no stop reason.  run() ends a lost projection
        # with a Stop row short of the path's end; path-end Stop rows lie
        # past ``end``.
        lines = csv.rstrip("\n").split("\n")
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        lost = last["hybrid_state"] == "stopped" and float(last["s"]) < end
        outcomes.append((lost, code == cli.EXIT_OK,
                         (hashlib.sha256(csv.encode()).hexdigest(), summary)))
    return Batch(sum(scaled), sum(scaled), sum(raw), outcomes, {"cli.main": scaled})


def convergence_batch(speed: Speed, brakesteer, base, grid, field: dict) -> Batch:
    # The sweep is issued one l~ row of the grid at a time (9 calls of 9
    # runs, the same serial work), so the speed probes bracket ~0.2 s each.
    rows = [grid[i:i + GRID_ROW] for i in range(0, len(grid), GRID_ROW)]
    grid_spec = brakesteer.GridSpec(n_l=field["resolution"], n_theta=field["resolution"])
    results, raw, scaled = [], [], []
    speed.restart()
    for row in rows:
        t0 = perf_counter()
        results += brakesteer.sweep(base, row)
        raw.append(perf_counter() - t0)
        scaled.append(speed.scale(raw[-1]))
    t0 = perf_counter()
    samples = brakesteer.field_dump(field["delta"], grid_spec)
    raw.append(perf_counter() - t0)
    field_s = speed.scale(raw[-1])
    outcomes = [
        (r.summary is None or r.error is not None,
         r.summary is not None and r.summary.converged,
         r.summary if r.summary is not None else r.error)
        for r in results
    ]
    labels = hashlib.sha256(",".join(s.region.label for s in samples).encode()).hexdigest()
    outcomes.append((len(samples) != field["resolution"] ** 2, False, (len(samples), labels)))
    return Batch(sum(scaled) + field_s, sum(scaled), sum(raw), outcomes,
                 {"field_dump": [field_s]})


def dynamic_batch(speed: Speed, brakesteer, scenarios) -> Batch:
    raw, scaled, outcomes = [], [], []
    speed.restart()
    for scenario in scenarios:
        t0 = perf_counter()
        try:
            trace = brakesteer.run(scenario)
            summary = brakesteer.summarize(trace)
        except Exception as exc:  # counted in fail_frac, like sweep's isolation
            trace, error = None, f"{type(exc).__name__}: {exc}"
        raw.append(perf_counter() - t0)
        scaled.append(speed.scale(raw[-1]))
        if trace is None:
            outcomes.append((True, False, error))
            continue
        lost = str(trace.meta.get("stop_reason") or "").startswith("projection lost")
        outcomes.append((lost, summary.converged, (len(trace.rows), hash(trace.rows), summary)))
    return Batch(sum(scaled), sum(scaled), sum(raw), outcomes, {})


# -- traced pass -----------------------------------------------------------------


class TracedPass:
    """Runs and replays runs one at a time, in order, accumulating the results.

    ``samples`` holds scaled seconds per layer key, except ``csv_bytes``;
    ``span`` is each run's whole traced span (run, replay, summarize, to_csv).
    """

    def __init__(self, brakesteer, workload: str) -> None:
        self.brakesteer = brakesteer
        self.workload = workload
        self.samples = defaultdict(list)
        self.outcomes = []
        self.rows = 0
        self.mismatches = 0
        self.problems = []
        self.factors = []
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def add(self, scenario, errors) -> None:
        import replay as rp

        bs = self.brakesteer
        if scenario is None or errors:
            self.outcomes.append((True, False, None))
            return
        own = defaultdict(list)
        start = perf_counter()
        scenario.validate()
        t1 = perf_counter()
        spec = scenario.path_spec
        path = bs.build_path(spec["segments"], spec.get("start_pose", (0, 0, 0)))
        t2 = perf_counter()
        own["validate"].append(t1 - start)
        own["build_path"].append(t2 - t1)
        t0 = perf_counter()
        try:
            trace = bs.run(scenario)
        except Exception as exc:  # counted in fail_frac
            self.outcomes.append((True, False, f"{type(exc).__name__}: {exc}"))
            return
        own["run"].append(perf_counter() - t0)
        try:
            rp.replay(scenario, path, trace, own, probe=loop_time)
        except rp.ReplayMismatch as exc:
            self.mismatches += 1
            self.problems.append(f"replay mismatch: {exc}")
        t0 = perf_counter()
        summary = bs.summarize(trace)
        t1 = perf_counter()
        text = trace.to_csv()
        t2 = perf_counter()
        own["summarize"].append(t1 - t0)
        own["to_csv"].append(t2 - t1)
        own["span"].append(t2 - start)
        # The reference loop ran every few rows of the replay, so its median
        # is the machine's typical speed over this run's traced span.
        factor = REFERENCE_S / statistics.median(own.pop("reference"))
        self.factors.append(factor)
        for key, values in own.items():
            self.samples[key].extend(v * factor for v in values)
        csv = text.encode()
        self.samples["csv_bytes"].append(len(csv))
        summary_dict = summary.as_dict()
        self._digest.update(csv)
        self._digest.update(json.dumps(summary_dict, sort_keys=True).encode())
        self.rows += len(trace.rows)
        lost = str(trace.meta.get("stop_reason") or "").startswith("projection lost")
        if self.workload == "curvy-course":
            fingerprint = (hashlib.sha256(csv).hexdigest(), summary_dict)
        elif self.workload == "convergence-study":
            fingerprint = summary
        else:
            fingerprint = (len(trace.rows), hash(trace.rows), summary)
        self.outcomes.append((lost, summary.converged, fingerprint))


# -- one workload ------------------------------------------------------------------


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def compare_outcomes(untraced, traced) -> list[str]:
    """Untraced and traced runs of the same inputs must agree exactly."""
    problems = []
    if len(untraced) != len(traced):
        return [f"untraced pass has {len(untraced)} runs, traced pass {len(traced)}"]
    for i, (a, b) in enumerate(zip(untraced, traced)):
        failed_a, converged_a, fp_a = a
        failed_b, converged_b, fp_b = b
        if failed_a != failed_b or converged_a != converged_b:
            problems.append(f"run {i}: untraced (failed={failed_a}, converged={converged_a})"
                            f" != traced (failed={failed_b}, converged={converged_b})")
        elif not failed_a and fp_a != fp_b:
            problems.append(f"run {i}: untraced outputs differ from the traced run's")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace_flag: int) -> int:
    specs = metric_specs()
    brakesteer = import_program()
    import numpy
    import workloads

    inputs = workloads.generate(workload, seed)
    base, runs = workloads.prepare(inputs)
    inputs_sha = workloads.inputs_digest(inputs)

    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Speed()
    try:
        if workload == "curvy-course":
            configs = []
            for i, data in enumerate(inputs["scenarios"]):
                config = workdir / f"scenario{i}.json"
                config.write_text(json.dumps(data), encoding="utf-8")
                configs.append(config)
            ends = [path_end(s) for s, _ in runs]
            batch = lambda: curvy_batch(speed, workdir, configs, ends)  # noqa: E731
        elif workload == "convergence-study":
            batch = lambda: convergence_batch(  # noqa: E731
                speed, brakesteer, base, inputs["grid"], inputs["field"])
        else:
            scenarios = [s for s, _ in runs]
            batch = lambda: dynamic_batch(speed, brakesteer, scenarios)  # noqa: E731

        # The traced runs are spread between the untraced batches, so both
        # passes sample the machine over the whole run, not one stretch of it.
        traced = TracedPass(brakesteer, workload)
        pending = list(runs)
        # So are the set-up probes, a few after each batch.
        batches, problems, per_slot = [], [], len(runs)
        setup_speed, imports, builds, numpy_imports = Speed(), [], [], []
        began = perf_counter()
        # An iteration starts only if one like the last still fits.
        iteration_s = 0.0
        while len(batches) < MIN_BATCHES or perf_counter() - began + iteration_s < seconds:
            t0 = iteration_start = perf_counter()
            batches.append(batch())
            batch_s = perf_counter() - t0
            if batches[-1].outcomes != batches[0].outcomes:
                problems.append(f"batch {len(batches)} outputs differ from batch 1")
            t0 = perf_counter()
            for _ in range(SETUP_PROBES):
                setup_speed.restart()
                start, report = probe(workload, str(seed))
                if report["inputs"] != inputs_sha:
                    raise SystemExit("perfbench: set-up probe generated different inputs")
                imports.append(report["imported"] - start)
                builds.append(setup_speed.scale(report["ready"] - report["imported"]))
                start, report = probe("numpy")
                numpy_imports.append(report["ready"] - start)
            if len(batches) == 1:
                # A traced run costs about twice its untraced run.
                slot_s = 3.0 * batch_s + perf_counter() - t0
                slots = max(MIN_BATCHES, int(seconds / slot_s))
                per_slot = math.ceil(len(runs) / slots)
            for _ in range(min(per_slot, len(pending))):
                traced.add(*pending.pop(0))
            iteration_s = perf_counter() - iteration_start
        for scenario, errors in pending:
            traced.add(scenario, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = batches[0].outcomes
    if workload == "convergence-study" and untraced[-1][0]:
        problems.append(f"field_dump returned {untraced[-1][2][0]} samples, "
                        f"expected {inputs['field']['resolution'] ** 2}")
    # The last convergence-study outcome is the field_dump's.
    run_outcomes = untraced[:-1] if workload == "convergence-study" else untraced
    problems += traced.problems
    problems += compare_outcomes(run_outcomes, traced.outcomes)
    n_runs = len(run_outcomes)
    # The operations are the untraced pass's: every run and field_dump of
    # every batch.  The traced pass only cross-checks them.
    attempted = sum(len(b.outcomes) for b in batches)
    failed = sum(1 for b in batches for f, _, _ in b.outcomes if f)
    converged = sum(1 for _, c, _ in run_outcomes if c)
    wall = median([b.wall for b in batches])
    calls = defaultdict(list)
    for b in batches:
        for name, values in b.calls.items():
            calls[name].extend(values)

    s = traced.samples
    us = 1e6
    ms = 1e3
    layer_keys = [k for k in s if k.startswith("project.")] + [
        "select", "step_kinematic", "step_dynamic"]
    layer_busy = sum(sum(s[k]) for k in layer_keys)
    run_busy = sum(s["run"])
    metrics = {
        "setup_s": setup_s(imports, numpy_imports, builds),
        "wall_s": wall,
        "steps_per_s": traced.rows / median([b.sim for b in batches]),
        "ctl_step_us_p50": median(s["ctl_step"]) * us,
        "ctl_step_us_p99": percentile(s["ctl_step"], 0.99) * us,
        "peak_rss_mb": peak_rss_mb,
        "converged_frac": converged / n_runs,
        "fail_frac": failed / attempted,
        "bench.trace_overhead": sum(s["span"]) / wall,
        "bench.replay_mismatches": traced.mismatches,
        "simulator.run.calls": len(s["run"]),
        "simulator.run.busy_s": run_busy,
        "simulator.run.self_s": run_busy - layer_busy,
        "path_geometry.build_path.calls": len(s["build_path"]),
        "path_geometry.build_path.ms_p50": median(s["build_path"]) * ms,
        "simulator.Scenario.validate.ms_p50": median(s["validate"]) * ms,
        "analysis.summarize.calls": len(s["summarize"]),
        "analysis.summarize.ms_p50": median(s["summarize"]) * ms,
        "analysis.summarize.busy_s": sum(s["summarize"]),
        "simulator.Trace.to_csv.ms_p50": median(s["to_csv"]) * ms,
        "simulator.Trace.to_csv.bytes": sum(s["csv_bytes"]),
        "cli.main.ms_p50": median(calls["cli.main"]) * ms,
        "analysis.field_dump.s": median(calls["field_dump"]),
        "analysis.field_dump.samples": (
            untraced[-1][2][0] if workload == "convergence-study" else 0),
    }
    for kind in ("clothoid", "line", "arc", "global"):
        values = s["project." + kind]
        prefix = f"path_geometry.frenet_project.{kind}."
        metrics[prefix + "calls"] = len(values)
        metrics[prefix + "us_p50"] = median(values) * us
        metrics[prefix + "us_p99"] = percentile(values, 0.99) * us
        metrics[prefix + "busy_s"] = sum(values)
    for name, key in (("controller.select_maneuver", "select"),
                      ("dynamics.step_kinematic", "step_kinematic"),
                      ("dynamics.step_dynamic", "step_dynamic")):
        metrics[name + ".calls"] = len(s[key])
        metrics[name + ".us_p50"] = median(s[key]) * us
        metrics[name + ".busy_s"] = sum(s[key])

    for group in ("end_to_end", "per_layer"):
        missing = [n for n in specs[group] if not math.isfinite(metrics.get(n, math.nan))]
        if missing:
            problems.append(f"{group} metrics missing or not finite: {', '.join(missing)}")

    print(f"workload {workload}, seed {seed}: {len(batches)} untraced batches, "
          f"{n_runs} runs per batch, {traced.rows} control steps")
    for group in ("end_to_end", "per_layer"):
        print(f"{group}:")
        for name, unit in specs[group].items():
            print(f"  {name:<48} {metrics.get(name, math.nan):>16.6f} {unit}")
    sample_keys = ("ctl_step", "project.clothoid", "project.line", "project.arc",
                   "project.global", "select", "step_kinematic", "step_dynamic",
                   "build_path", "validate", "summarize", "to_csv")
    meta = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seconds": seconds,
        "untraced_batches": len(batches),
        "setup_probes": len(imports),
        "trace_overhead": metrics["bench.trace_overhead"],
        "samples": {**{k: len(s[k]) for k in sample_keys},
                    "cli.main": len(calls["cli.main"]), "field_dump": len(calls["field_dump"])},
        "unscaled": {
            "setup_import_s": median(imports),
            "numpy_import_s": median(numpy_imports),
            "wall_s": median([b.raw_wall for b in batches]),
            "speed_factor_untraced": median(speed.factors),
            "speed_factor_traced": median(traced.factors),
        },
        "layer_share_of_run": {
            k: sum(s[k]) / run_busy for k in sorted(layer_keys) if run_busy},
        "outputs_sha256": traced.digest,
        "inputs_sha256": inputs_sha,
    }
    print("meta: " + json.dumps(meta, sort_keys=True))
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    group = "per_layer" if trace_flag else "end_to_end"
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in specs[group].items()
                    if n in metrics},
    }))
    return 1 if problems else 0


def run_all(args) -> int:
    import workloads

    worst = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=900,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    # Exit through the finally blocks (work directory, child processes) on a kill.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="curvy-course, convergence-study, dynamic-track or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the untraced batches, set-up probes and traced runs"
                             " take together (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: print end-to-end metrics as JSON, 1: per-layer")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
