import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brakesteer
from brakesteer.cli import main
from brakesteer.simulator import Scenario, ScenarioInvalid, SweepResult, build_demo_scenario, run


@pytest.fixture()
def demo_config(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(build_demo_scenario().to_dict()), encoding="utf-8")
    return cfg


def test_demo_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["demo", "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "scenario.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "t,x,y,theta,v,omega,s,l,theta_tilde,maneuver,hybrid_state,phase,V"


def test_demo_output_bytes_are_pinned(tmp_path):
    # The shipped kinematic demo tracks the course to its end: 3,675 rows,
    # the last a path_end Stop row.  These digests hold both outputs to
    # their bytes.
    out = tmp_path / "out"
    assert main(["demo", "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_bytes()
    assert trace.count(b"\n") == 1 + 3675
    assert trace.splitlines()[-1].endswith(b",stop,stopped,track,9.10434553e-06")
    assert hashlib.sha256(trace).hexdigest() == (
        "2572d55d48d5ce086caac4e958fb563c5248c06c8fd5d917e4fd945ff2330763"
    )
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == (
        "31461d4aaa160d504be1e81a4914588cdabfbb22b253d6e3a3ea9531230748a5"
    )


def test_demo_is_simulate_of_the_scenario_it_writes(tmp_path, capsys):
    demo, sim = tmp_path / "demo", tmp_path / "sim"
    assert main(["demo", "--set", "t_max=4", "--out", str(demo)]) == 2
    demo_line = capsys.readouterr().out
    assert main(["simulate", "--config", str(demo / "scenario.json"), "--out", str(sim)]) == 2
    assert capsys.readouterr().out == demo_line == "trace rows: 401, converged: False\n"
    for name in ("trace.csv", "summary.json"):
        assert (demo / name).read_bytes() == (sim / name).read_bytes()
    assert sorted(p.name for p in demo.iterdir()) == ["scenario.json", "summary.json", "trace.csv"]
    assert sorted(p.name for p in sim.iterdir()) == ["summary.json", "trace.csv"]


def test_simulate_exit_codes(tmp_path, demo_config):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(demo_config), "--out", str(out)]) == 0
    # too little time: runs but does not converge
    assert (
        main(["simulate", "--config", str(demo_config), "--out", str(out),
              "--set", "t_max=0.1"])
        == 2
    )
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 1


def test_simulate_outputs_reproducible(tmp_path, demo_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(demo_config), "--out", str(out1)])
    main(["simulate", "--config", str(demo_config), "--out", str(out2)])
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_field_grid_output(tmp_path):
    out = tmp_path / "field.csv"
    assert main(["field", "--delta", str(math.pi / 3), "--resolution", "21",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 21 * 21
    assert lines[0] == "l_norm,theta_tilde,sigma_r,sigma_l,sigma_n,sigma_p,region"


def test_field_csv_bytes_pinned(tmp_path):
    # Digest of the 301x301 field at the default delta.  The region column
    # is the approach step's fresh-state decision, whose commanded error is
    # -sign(l~) * delta "so both sides converge"; the six numeric columns
    # are byte for byte those of the list-building field_dump.
    out = tmp_path / "field.csv"
    assert main(["field", "--resolution", "301", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 1 + 301 * 301
    assert hashlib.sha256(data).hexdigest() == (
        "d268b71d4fde99b19b546e146518549ac9e888dcaefdc3169c4139a735f11c93"
    )


@pytest.mark.parametrize(
    "option, value",
    [("--resolution", "1"), ("--delta", "nan"), ("--delta", "inf"), ("--delta", "-1")],
    ids=["resolution-1", "delta-nan", "delta-inf", "delta-negative"],
)
def test_field_rejects_bad_arguments(tmp_path, option, value):
    out = tmp_path / "f.csv"
    assert main(["field", option, value, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("axis", ["l", "theta"])
def test_field_rejects_a_span_that_overflows(tmp_path, capsys, axis):
    # Each bound is finite, but max - min is not: the l axis used to write
    # nan and inf rows, each labelled a region, and the theta axis to fail
    # with a bare "math domain error".
    out = tmp_path / "f.csv"
    assert main(["field", f"--{axis}-min=-1e308", f"--{axis}-max=1e308", "--resolution", "3",
                 "--out", str(out)]) == 1
    assert f"--{axis}-min and --{axis}-max must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_field_zero_delta_columns_collapse(tmp_path):
    out = tmp_path / "field0.csv"
    assert main(["field", "--delta", "0", "--resolution", "15", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for r in rows:
        assert float(r[4]) == pytest.approx(float(r[3]), abs=1e-9)  # sigma_n == sigma_l
        assert float(r[5]) == pytest.approx(float(r[2]), abs=1e-9)  # sigma_p == sigma_r


def test_validate_ok_config(demo_config, capsys):
    assert main(["validate", "--config", str(demo_config)]) == 0
    out = capsys.readouterr().out
    assert "delta profile feasible: yes" in out
    assert "path continuity: ok" in out


def test_validate_rejects_infeasible_path(tmp_path, demo_config, capsys):
    data = json.loads(demo_config.read_text())
    data["path"]["segments"] = [
        {"kind": "line", "length": 5},
        {"kind": "arc", "length": 1.0, "curvature": 2.0 / 0.3},
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "segment 1" in capsys.readouterr().out


@pytest.mark.parametrize("index, key", [(0, "length"), (1, "curvature_end")])
def test_validate_names_a_nonfinite_segment_field(tmp_path, demo_config, capsys, index, key):
    # An infinite first line used to overflow build_path's scan (a
    # traceback), and an infinite clothoid curvature reached cos (a bare
    # "math domain error").  Each is now one error naming the field.
    data = json.loads(demo_config.read_text())
    data["path"]["segments"][index][key] = math.inf
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")  # written as Infinity
    message = f"path: segment {key} must be finite, got inf"
    assert main(["validate", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [f"FAIL: {message}"]
    with pytest.raises(ScenarioInvalid) as info:
        run(Scenario.from_dict(data))
    assert info.value.reasons == [message]


@pytest.mark.parametrize("pose", [[0.0, 0.0, math.nan], [math.inf, 0.0, 0.0]],
                         ids=["nan-heading", "infinite-x"])
def test_validate_rejects_a_nonfinite_path_start_pose(tmp_path, demo_config, capsys, pose):
    # A NaN start heading used to validate and then make run raise
    # IndexError; an infinite x validated and stopped at the first row.
    data = json.loads(demo_config.read_text())
    data["path"]["start_pose"] = pose
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")  # written as NaN / Infinity
    message = f"path: segment start_pose must be finite, got {tuple(pose)}"
    assert main(["validate", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [f"FAIL: {message}"]
    with pytest.raises(ScenarioInvalid) as info:
        run(Scenario.from_dict(data))
    assert info.value.reasons == [message]


def test_validate_warns_on_infeasible_profile(tmp_path, demo_config, capsys):
    data = json.loads(demo_config.read_text())
    data["controller"]["delta_profile"] = {
        "kind": "tanh", "amplitude": math.pi / 2, "gain": 10.0
    }
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "delta profile feasible: no" in out
    assert "|l~| =" in out


def test_sweep_writes_grid_results(tmp_path, demo_config):
    data = json.loads(demo_config.read_text())
    data["path"]["segments"] = [{"kind": "line", "length": 120}]
    data["initial_pose"] = None
    del data["initial_pose"]
    data["initial_frenet"] = {"s": 5.0, "l_norm": 0.0, "theta_tilde": 0.0}
    data["stop_when_converged"] = True
    data["t_max"] = 30.0
    cfg = tmp_path / "line.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(cfg), "--out", str(out),
        "--grid-l=-2:2:3", "--grid-theta=-1:1:3", "--grid-s", "5",
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 9
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_set_overrides_apply_before_validation(tmp_path, demo_config):
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(demo_config), "--out", str(out),
                 "--set", "t_max=-5"]) == 1


def _subprocess_env():
    """The environment for a child interpreter that imports this brakesteer."""
    src = str(Path(brakesteer.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


@pytest.mark.parametrize("override", [
    "controller.eps_b=Infinity",  # json.loads reads Infinity and NaN as floats
    "controller.eps_theta=NaN",
    "controller.eps_b=inf",  # and leaves inf and abc as strings
    "controller.eps_b=abc",
    "vehicle.m=abc",
    "dt_control=null",  # a JSON null, and keys the blocks do not have
    "controller.eps_b=null",
    "controller.foo=1",
    "vehicle.bogus=1",
    "user.foo=1",  # and keys the top level and the user block do not have
    "t_maxx=5",
])
def test_demo_rejects_a_bad_scalar_in_one_line(tmp_path, override):
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "brakesteer.cli", "demo", "--set", override,
         "--set", "t_max=1", "--out", str(out)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("controller.delta_profile.kind=tanhh",
     "controller.delta_profile.kind must be one of constant, tanh, custom, got 'tanhh'"),
    ("stop_when_converged=no", "stop_when_converged must be true or false, got 'no'"),
])
def test_demo_rejects_an_unknown_profile_kind_or_a_non_bool_in_one_line(
    tmp_path, capsys, override, message
):
    # The kind used to end in a bare KeyError ("error: 'table_l'"), and "no"
    # to read as True.
    out = tmp_path / "o"
    assert main(["demo", "--set", override, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    (["initial_pose=5"], "initial_pose must be three numbers, got 5"),
    (["initial_pose=[1,2]"], "initial_pose must be three numbers, got [1, 2]"),
    (["controller.radius=abc"], "unknown key controller.radius"),
    (["foo"], "--set 'foo' is not KEY=VALUE"),
    (["seed=-1", "user.noise_amplitude=0.1"], "seed must be nonnegative, got -1"),
    (["vehicle.d=5e-324"], "d must be large enough that R = d / 2 is positive, got 5e-324"),
])
def test_demo_rejects_a_value_that_skipped_its_check_in_one_line(
    tmp_path, capsys, overrides, message
):
    # initial_pose=5 used to end in a TypeError traceback, [1,2] to fail to
    # unpack in run, controller.radius=abc to be dropped, foo to read
    # "dictionary update sequence element #0 has length 1; 2 is required",
    # seed -1 to raise numpy's "expected non-negative integer" mid-run, and
    # vehicle.d=5e-324 to say "radius must be positive", a key it no longer
    # has, because d / 2 rounds to 0.
    out = tmp_path / "o"
    argv = ["demo", "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("option", ["--mode=dynamic", "--seed=1"])
def test_set_is_the_one_override(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["demo", option, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_demo_on_a_1e300_curvature_arc_ends(tmp_path):
    # The arc projection used to loop over each of its ~1e299 periods.
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="cannot hold this curvature"):
        code = main(["demo", "--set", "path.segments.2.curvature=1e300", "--set", "t_max=1",
                     "--out", str(out)])
    assert code in (0, 2)
    assert (out / "trace.csv").exists()


def test_demo_warns_of_a_1e300_curvature_in_one_short_line(tmp_path):
    # |c|*R used to print with .3f: a number of about 300 digits.
    with pytest.warns(UserWarning) as record:
        main(["demo", "--set", "path.segments.2.curvature=1e300", "--set", "t_max=1",
              "--out", str(tmp_path / "o")])
    [message] = [str(w.message) for w in record]
    assert message == "segment 2 needs |c|*R = 3e+299 > 1; the cart cannot hold this curvature"


@pytest.mark.parametrize("override, message", [
    ("t_max=true", "t_max must be a number, got True"),
    ('user.v="2"', "user.v must be a number, got '2'"),
    ('initial_pose=["1",true,0]', "initial_pose must be three numbers, got ['1', True, 0]"),
])
def test_demo_rejects_a_bool_or_a_string_as_a_number(tmp_path, capsys, override, message):
    # t_max=true used to run for 1.0 s.
    out = tmp_path / "o"
    assert main(["demo", "--set", override, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_set_reads_a_number_as_json(tmp_path):
    out = tmp_path / "o"
    assert main(["demo", "--set", "user.v=2", "--set", "t_max=1", "--out", str(out)]) in (0, 2)
    assert json.loads((out / "scenario.json").read_text())["user"]["v"] == 2


def test_demo_rejects_a_curvature_on_a_line(tmp_path, capsys):
    # The curvature used to be zeroed, and the demo ran on a straight line.
    out = tmp_path / "o"
    assert main(["demo", "--set", "path.segments.0.curvature=0.5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: path: path.segments.0.curvature is not a key of kind line\n"
    )


def test_demo_overrides_a_segment_by_its_index(tmp_path):
    # A list in the key used to die with AttributeError: no setdefault.
    out = tmp_path / "o"
    code = main(["demo", "--set", "path.segments.0.length=5", "--set", "t_max=1",
                 "--out", str(out)])
    assert code in (0, 2)
    saved = json.loads((out / "scenario.json").read_text())
    assert saved["path"]["segments"][0]["length"] == 5


def test_demo_rejects_a_segment_index_out_of_range_in_one_line(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["demo", "--set", "path.segments.9.length=5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: override path.segments.9.length: no item '9' in a list of 5\n"
    assert not out.exists()


@pytest.mark.parametrize("length", [1e6, 1e300])
def test_validate_accepts_a_very_long_first_line(tmp_path, demo_config, capsys, length):
    data = json.loads(demo_config.read_text())
    data["path"]["segments"][0]["length"] = length
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.endswith("scenario: ok\n")


def test_validate_names_a_null_segment_length(tmp_path, demo_config, capsys):
    # A null length used to end validate with TypeError from float().
    data = json.loads(demo_config.read_text())
    data["path"]["segments"][0]["length"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: path: path.segments.0.length must be a number, got None"
    ]


@pytest.mark.parametrize("brake_model", ['x",y', 'a"b'])
def test_sweep_csv_error_field_round_trips(tmp_path, demo_config, monkeypatch, brake_model):
    # The error message quotes the bad value, so the field holds a quote
    # and, for the first model, a comma.  The CLI rejects such a scenario
    # before sweeping, so the error row comes from a stubbed sweep carrying
    # the message a run of it raises.
    bad = build_demo_scenario().with_overrides({"brake_model": brake_model})
    message = str(ScenarioInvalid([msg for level, msg in bad.validate() if level == "error"]))
    monkeypatch.setattr(
        "brakesteer.cli.sweep",
        lambda base, grid, parallel=1: [SweepResult(dict(grid[0]), None, message)],
    )
    out = tmp_path / "sweep"
    main(["sweep", "--config", str(demo_config), "--out", str(out),
          "--grid-l=1:1:1", "--grid-theta=0:0:1"])
    with (out / "sweep.csv").open(newline="", encoding="utf-8") as f:
        header, row = csv.reader(f)
    assert len(header) == len(row) == 8
    assert row[:7] == ["1", "0", "", "", "", "", ""]
    assert f"unknown brake model {brake_model!r}" in row[7]


def test_sweep_rejects_an_invalid_scenario_before_running(tmp_path, demo_config, capsys):
    data = json.loads(demo_config.read_text())
    data["brake_model"] = "bogus"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--grid-l=1:2:2", "--grid-theta=0:0:1"]) == 1
    assert "unknown brake model 'bogus'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("option, spec", [("--grid-l", "1:2"), ("--grid-l", "1:2:x"),
                                          ("--grid-theta", "0:1:2:3"), ("--grid-l", "1:2:0")])
def test_sweep_names_the_option_of_a_malformed_grid_spec(tmp_path, demo_config, capsys,
                                                         option, spec):
    # Exit 1, not argparse's 2, which here means "ran, did not converge".
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(demo_config), "--out", str(out),
                 f"{option}={spec}"]) == 1
    assert f"error: {option} must be MIN:MAX:N, got {spec!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_csv_carries_the_fixed_overflow_reason(tmp_path, demo_config):
    # Torques of 1e300 N m fling the cart out of reach in one step.  The
    # error cell holds the projection's own overflow verdict, the same text
    # on every platform, and no C library error text.
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(demo_config), "--out", str(out),
                 "--set", "mode=dynamic", "--set", "user.tau_r=1e300",
                 "--set", "user.tau_l=1e300", "--set", "t_max=2",
                 "--grid-l=-1:-1:1", "--grid-theta=0:0:1"])
    assert code == 2
    with (out / "sweep.csv").open(newline="", encoding="utf-8") as f:
        header, row = csv.reader(f)
    assert row[7] == (
        "nonfinite_state: projection raised OverflowError: pose too far from the path to project"
    )


# Each stage prints which of the four modules it has loaded so far.
START_UP = """
import sys

def loaded():
    print(*(name in sys.modules
            for name in ("numpy", "concurrent.futures", "dataclasses", "inspect")))

import brakesteer
loaded()
import brakesteer.cli
loaded()
from brakesteer import build_demo_scenario, run
run(build_demo_scenario().with_overrides({"t_max": 0.5}))
loaded()
run(build_demo_scenario().with_overrides({"t_max": 0.5, "user.noise_amplitude": 0.05}))
loaded()
"""


def test_numpy_loads_only_for_a_noisy_run():
    out = subprocess.run(
        [sys.executable, "-c", START_UP], env=_subprocess_env(), capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.splitlines()
    assert out[:3] == [
        "False False False False",  # import brakesteer
        "False False False False",  # import brakesteer.cli
        "False False False False",  # a run without noise
    ]
    # A noisy run draws from numpy's generator; numpy itself imports inspect.
    assert out[3].split()[:2] == ["True", "False"]
