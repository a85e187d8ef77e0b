"""Command-line entry point.

Verbs:
  simulate   run a scenario config, write trace.csv + summary.json
  sweep      run an initial-condition grid, write sweep.csv
  field      dump switching-boundary values and region labels to field.csv
  validate   check a scenario config and report
  demo       simulate the built-in demonstration scenario, and also write
             it to scenario.json

Exit codes: 0 success (converged), 1 error, 2 ran but did not converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path as FilePath

from .analysis import REGIONS, GridSpec, field_dump, summarize
from .controller import ControllerConfig, curvature_feasible
from .path_geometry import linspace
from .simulator import (
    GRID_S0,
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
    """The scenario of ``--config`` (the built-in demo's for ``demo``, which
    has no such option) with the ``--set`` overrides applied."""
    if args.config is None:
        data = build_demo_scenario().to_dict()
    else:
        data = json.loads(FilePath(args.config).read_text(encoding="utf-8"))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set {item!r} is not KEY=VALUE")
    apply_overrides(data, dict(item.split("=", 1) for item in args.set or []))
    return Scenario.from_dict(data)


def _cmd_simulate(args: argparse.Namespace) -> int:
    """``simulate``, and ``demo`` as ``simulate`` of the built-in scenario,
    which also writes that scenario to scenario.json."""
    scenario = _load_scenario(args)
    trace = run(scenario)
    summary = summarize(trace)
    out_dir = FilePath(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.csv").write_text(trace.to_csv(), encoding="utf-8", newline="\n")
    documents = {"summary.json": summary.as_dict()}
    if args.config is None:
        documents["scenario.json"] = scenario.to_dict()
    for name, doc in documents.items():
        (out_dir / name).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"trace rows: {len(trace.rows)}, converged: {summary.converged}")
    return EXIT_OK if summary.converged else EXIT_NOT_CONVERGED


def _parse_linspace(option: str, spec: str) -> list[float]:
    """The points of a sweep grid spec ``MIN:MAX:N``, N >= 1, given as ``option``."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if n < 1:
            raise ValueError  # linspace's own message would name no option
    except ValueError:
        raise ValueError(f"{option} must be MIN:MAX:N, got {spec!r}") from None
    return linspace(lo, hi, n)


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    grid = frenet_grid(
        _parse_linspace("--grid-l", args.grid_l),
        _parse_linspace("--grid-theta", args.grid_theta),
        s0=args.grid_s,
    )
    # The grid sets only the initial condition, so one point's validation
    # covers everything its points share.
    errors = [msg for level, msg in scenario.with_overrides(grid[0]).validate()
              if level == "error"]
    if errors:
        raise ScenarioInvalid(errors)
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
    grid = GridSpec(
        l_min=args.l_min, l_max=args.l_max,
        theta_min=args.theta_min, theta_max=args.theta_max,
        n_l=args.resolution, n_theta=args.resolution,
    )
    field = field_dump(args.delta, grid)
    out = FilePath(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    labels = [region.label for region in REGIONS]
    with out.open("w", encoding="utf-8") as f:
        f.write("l_norm,theta_tilde,sigma_r,sigma_l,sigma_n,sigma_p,region\n")
        f.writelines(
            f"{l_norm:.9g},{th:.9g},{s_r:.9g},{s_l:.9g},{s_n:.9g},{s_p:.9g},{labels[code]}\n"
            for l_norm, th, s_r, s_l, s_n, s_p, code in zip(
                field.l_norm, field.theta_tilde, field.sigma_r, field.sigma_l,
                field.sigma_n, field.sigma_p, field.region_codes,
            )
        )
    print(f"wrote {len(field)} grid points to {out}")
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
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-key override of any scenario value, repeatable")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_demo = sub.add_parser("demo", help="run the built-in demo scenario")
    add_common(p_demo, config_required=False)
    p_demo.set_defaults(func=_cmd_simulate, config=None)

    p_sweep = sub.add_parser("sweep", help="run an initial-condition grid")
    add_common(p_sweep)
    p_sweep.add_argument("--grid-l", default="-4:4:9", help="l~ grid as min:max:n")
    p_sweep.add_argument("--grid-theta", default="-3:3:9", help="th~ grid as min:max:n")
    p_sweep.add_argument("--grid-s", type=float, default=GRID_S0, help="start abscissa")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_field = sub.add_parser("field", help="dump boundary functions on a grid")
    p_field.add_argument("--delta", type=float, default=ControllerConfig.delta_approach,
                         help="approach angle magnitude, rad, in [0, pi)")
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
    # ScenarioInvalid and json.JSONDecodeError are ValueErrors.
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
