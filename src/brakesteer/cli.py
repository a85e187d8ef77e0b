"""Command-line entry point.

Verbs:
  simulate   run a scenario config, write trace.csv + summary.json
  sweep      run an initial-condition grid, write sweep.csv
  field      dump switching-boundary values and region labels to field.csv
  validate   check a scenario config and report
  demo       run the built-in demonstration scenario

Exit codes: 0 success (converged), 1 error, 2 ran but did not converge.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path as FilePath

import numpy as np

from .analysis import GridSpec, field_dump, summarize
from .controller import ControllerConfig, curvature_feasible
from .simulator import (
    Scenario,
    ScenarioInvalid,
    apply_overrides,
    build_demo_scenario,
    frenet_grid,
    run,
    sweep,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_scenario(args: argparse.Namespace) -> Scenario:
    data = json.loads(FilePath(args.config).read_text(encoding="utf-8"))
    return _finalize_scenario(data, args)


def _finalize_scenario(data: dict, args: argparse.Namespace) -> Scenario:
    overrides = dict(kv.split("=", 1) for kv in (args.set or []))
    apply_overrides(data, overrides)
    if getattr(args, "mode", None):
        data["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return Scenario.from_dict(data)


def _write_outputs(trace, out_dir: FilePath) -> bool:
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out_dir / "trace.csv")
    summary = summarize(trace)
    (out_dir / "summary.json").write_text(
        json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary.converged


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    trace = run(scenario)
    converged = _write_outputs(trace, FilePath(args.out))
    print(f"trace rows: {len(trace.rows)}, converged: {converged}")
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _cmd_demo(args: argparse.Namespace) -> int:
    data = build_demo_scenario().to_dict()
    scenario = _finalize_scenario(data, args)
    out_dir = FilePath(args.out)
    trace = run(scenario)
    converged = _write_outputs(trace, out_dir)
    (out_dir / "scenario.json").write_text(
        json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"demo trace rows: {len(trace.rows)}, converged: {converged}")
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _parse_linspace(spec: str) -> list[float]:
    lo, hi, n = spec.split(":")
    n = int(n)
    if n < 1:
        raise ValueError("grid needs at least one point")
    return [float(v) for v in np.linspace(float(lo), float(hi), n)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    grid = frenet_grid(
        _parse_linspace(args.grid_l), _parse_linspace(args.grid_theta), s0=args.grid_s
    )
    results = sweep(scenario, grid, parallel=args.parallel)
    out_dir = FilePath(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_converged = True
    with (out_dir / "sweep.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["l_norm", "theta_tilde", "converged", "t_converge", "path_length",
                         "switch_count", "final_V", "error"])
        for res in results:
            ic = res.overrides["initial_frenet"]
            s = res.summary
            if s is None:
                all_converged = False
                cells = [""] * 5
            else:
                all_converged &= s.converged
                t_conv = f"{s.t_converge:.9g}" if s.t_converge is not None else ""
                cells = [int(s.converged), t_conv, f"{s.path_length:.9g}", s.switch_count,
                         f"{s.final_V:.9g}"]
            writer.writerow([f"{ic['l_norm']:.9g}", f"{ic['theta_tilde']:.9g}", *cells,
                             res.error or ""])
    n_ok = sum(1 for r in results if r.summary and r.summary.converged)
    print(f"{n_ok}/{len(results)} runs converged")
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _cmd_field(args: argparse.Namespace) -> int:
    if args.resolution < 2:
        print("resolution must be >= 2", file=sys.stderr)
        return EXIT_ERROR
    grid = GridSpec(
        l_min=args.l_min, l_max=args.l_max,
        theta_min=args.theta_min, theta_max=args.theta_max,
        n_l=args.resolution, n_theta=args.resolution,
    )
    samples = field_dump(args.delta, grid)
    out = FilePath(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["l_norm,theta_tilde,sigma_r,sigma_l,sigma_n,sigma_p,region"]
    for s in samples:
        lines.append(
            f"{s.l_norm:.9g},{s.theta_tilde:.9g},{s.sigma_r:.9g},{s.sigma_l:.9g},"
            f"{s.sigma_n:.9g},{s.sigma_p:.9g},{s.region.label}"
        )
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(samples)} grid points to {out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    issues = scenario.validate()
    failed = False
    for level, msg in issues:
        if level == "error" or level == "curvature":
            failed = True
            print(f"FAIL: {msg}")
        else:
            print(f"warning: {msg}")
    if not any(level == "error" for level, _ in issues):
        feasible, l_hat = curvature_feasible(
            scenario.control.delta_profile, scenario.v_user, scenario.vehicle.R
        )
        if feasible:
            print("delta profile feasible: yes")
        else:
            print(
                "delta profile feasible: no "
                f"(warning: turn-rate limit exceeded from |l~| = {l_hat:.4g}; "
                "convergence proceeds by re-entry contraction)"
            )
        if not failed:
            print("path continuity: ok")
            print("scenario: ok")
    return EXIT_ERROR if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brakesteer",
        description="Brake-steered path following: simulate, sweep, analyze.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        if config_required:
            p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-key override, repeatable")
        p.add_argument("--mode", choices=["kinematic", "dynamic"], default=None)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_demo = sub.add_parser("demo", help="run the built-in demo scenario")
    add_common(p_demo, config_required=False)
    p_demo.set_defaults(func=_cmd_demo)

    p_sweep = sub.add_parser("sweep", help="run an initial-condition grid")
    add_common(p_sweep)
    p_sweep.add_argument("--grid-l", default="-4:4:9", help="l~ grid as min:max:n")
    p_sweep.add_argument("--grid-theta", default="-3:3:9", help="th~ grid as min:max:n")
    p_sweep.add_argument("--grid-s", type=float,
                         default=inspect.signature(frenet_grid).parameters["s0"].default,
                         help="start abscissa")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_field = sub.add_parser("field", help="dump boundary functions on a grid")
    p_field.add_argument("--delta", type=float, default=ControllerConfig.delta_approach,
                         help="approach angle, rad")
    p_field.add_argument("--l-min", type=float, default=GridSpec.l_min)
    p_field.add_argument("--l-max", type=float, default=GridSpec.l_max)
    p_field.add_argument("--theta-min", type=float, default=GridSpec.theta_min)
    p_field.add_argument("--theta-max", type=float, default=GridSpec.theta_max)
    p_field.add_argument("--resolution", type=int, default=201)
    p_field.add_argument("--out", default="field.csv")
    p_field.set_defaults(func=_cmd_field)

    p_val = sub.add_parser("validate", help="check a scenario config")
    add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ScenarioInvalid, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
