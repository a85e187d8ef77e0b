import csv
import json
import math

import pytest

from brakesteer.cli import main
from brakesteer.simulator import build_demo_scenario


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


def test_field_rejects_tiny_resolution(tmp_path):
    assert main(["field", "--resolution", "1", "--out", str(tmp_path / "f.csv")]) == 1


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


@pytest.mark.parametrize("brake_model", ['x",y', 'a"b'])
def test_sweep_csv_error_field_round_trips(tmp_path, demo_config, brake_model):
    # The error message quotes the bad value, so the field holds a quote
    # and, for the first model, a comma.
    data = json.loads(demo_config.read_text())
    data["brake_model"] = brake_model
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "sweep"
    main(["sweep", "--config", str(cfg), "--out", str(out),
          "--grid-l=1:1:1", "--grid-theta=0:0:1"])
    with (out / "sweep.csv").open(newline="", encoding="utf-8") as f:
        header, row = csv.reader(f)
    assert len(header) == len(row) == 8
    assert row[:7] == ["1", "0", "", "", "", "", ""]
    assert f"unknown brake model {brake_model!r}" in row[7]
