"""The immutable records: construction, immutability, equality, repr, copies.

Every configuration and result record stands on ``path_geometry.Record``;
one parametrized test holds each of them to the behaviour a frozen
dataclass gave.
"""

import copy
import pickle

import pytest

from brakesteer import (
    ControllerConfig,
    DeltaProfile,
    GridSpec,
    Path,
    PathSegment,
    RunSummary,
    Scenario,
    SweepResult,
    Trace,
    UserInput,
    VehicleParams,
    build_demo_scenario,
    run,
)

SUMMARY = {"converged": True, "t_converge": 1.5, "path_length": 10.0, "switch_count": 3,
           "max_V": 2.0, "final_V": 0.01, "lyapunov_violations": 0}

# Each record class and a function that gives all its fields, in order.
RECORDS = [
    (RunSummary, lambda: dict(SUMMARY)),
    (GridSpec, lambda: {"l_min": -2.0, "l_max": 2.0, "theta_min": -1.0, "theta_max": 1.0,
                        "n_l": 5, "n_theta": 7}),
    (DeltaProfile, lambda: {"kind": "custom", "delta0": 0.0, "amplitude": 1.0, "gain": 1.0,
                            "table_l": (0.0, 1.0), "table_delta": (0.0, 0.5)}),
    (ControllerConfig, lambda: {"radius": 0.3, "delta_approach": 1.0,
                                "delta_profile": DeltaProfile.constant(0.5), "eps_theta": 0.02,
                                "eps_b": 1e-3, "threshold_l": 1.0, "re_approach_factor": 2.0}),
    (VehicleParams, lambda: {"m": 20.0, "J": 1.0, "d": 0.6, "r": 0.1, "b_w": 0.05,
                             "b_max": 50.0}),
    (UserInput, lambda: {"tau_r": 1.0, "tau_l": -1.0}),
    (PathSegment, lambda: {"kind": "clothoid", "length": 3.0, "curvature_start": 0.0,
                           "curvature_end": -0.6, "start_pose": (1.0, 2.0, 0.5)}),
    (Path, lambda: build_demo_scenario().build_path()._asdict()),
    (Trace, lambda: run(build_demo_scenario().with_overrides({"t_max": 0.05}))._asdict()),
    (Scenario, lambda: build_demo_scenario()._asdict()),
    (SweepResult, lambda: {"overrides": {"t_max": 1.0}, "summary": RunSummary(**SUMMARY),
                           "error": None}),
]


@pytest.mark.parametrize("cls, make", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_behaves_as_a_frozen_dataclass(cls, make):
    values = make()
    assert tuple(values) == cls._fields
    record = cls(**values)
    assert cls(*values.values()) == record and record._asdict() == values

    # A missing, unknown, repeated or surplus argument raises TypeError.
    required = [name for name in cls._fields if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError, match=required[0]):
            cls(**{k: v for k, v in values.items() if k != required[0]})
    with pytest.raises(TypeError, match="bogus"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match=cls._fields[0]):
        cls(next(iter(values.values())), **values)
    with pytest.raises(TypeError):
        cls(*values.values(), None)

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record._asdict() == values

    rebuilt = cls(**make())
    assert record == rebuilt and not record != rebuilt
    try:
        hash(tuple(values.values()))
    except TypeError:  # a field holds a dict, as a frozen dataclass's would
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt)
    twin = type(cls.__name__, (cls,), {})(**values)  # the same fields and values
    assert record != twin and twin != record and record != tuple(values.values())

    text = repr(record)
    assert text == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    assert not [name for name in vars(record) if name not in cls._fields and f"{name}=" in text]

    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and vars(clone) == vars(record)
        if cls is PathSegment:
            us = [0.0, 0.01, 1.234567, 2.5, 3.0]
            assert ([(x.hex(), y.hex()) for x, y in map(clone.point, us)]
                    == [(x.hex(), y.hex()) for x, y in map(record.point, us)])
