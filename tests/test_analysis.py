import math
import tracemalloc
from collections.abc import Sequence

import pytest
from hypothesis import example, given, strategies as st

from brakesteer import analysis
from brakesteer.analysis import (
    EmptyTrace,
    FieldSample,
    GridSpec,
    field_dump,
    lyapunov,
    ripple_bound,
    summarize,
)
from brakesteer.controller import (
    ControllerConfig, Region, classify, sigma_l, sigma_n, sigma_p, sigma_r,
)
from brakesteer.simulator import Trace, TraceRow

META = {
    "radius": 0.3,
    "dt_control": 0.02,
    "v_user": 1.0,
    "eps_theta": 0.02,
    "delta_profile": {"kind": "tanh", "amplitude": math.pi / 2, "gain": 1.0},
}


def make_trace(rows):
    return Trace(rows=tuple(rows), meta=dict(META))


def row(t, l=0.0, th=0.0, maneuver="go_straight", hybrid="straight", v=1.0):
    return TraceRow(
        t=t, x=t, y=0.0, theta=0.0, v=v, omega=0.0, s=t, l=l, theta_tilde=th,
        maneuver=maneuver, hybrid_state=hybrid, phase="track",
        V=lyapunov(l / META["radius"], th),
    )


# -- lyapunov ---------------------------------------------------------------


def test_lyapunov_values():
    assert lyapunov(0, 0) == 0.0
    assert lyapunov(1, 0) == 0.5
    assert lyapunov(3, -math.pi / 2) == pytest.approx(0.5 * (9 + math.pi**2 / 4))


_nondenormal = st.floats(-10, 10).filter(lambda x: x == 0.0 or abs(x) > 1e-150)


@given(_nondenormal, _nondenormal)
def test_lyapunov_even_and_positive(l, th):
    v = lyapunov(l, th)
    assert v >= 0.0
    assert v == lyapunov(-l, th) == lyapunov(l, -th)
    assert (v == 0.0) == (l == 0.0 and th == 0.0)


def test_ripple_bound_formula():
    assert ripple_bound(2.0, 0.02, 0.01, 1.0, 0.3) == pytest.approx(
        0.5 * (0.02**2 + 2 * 2.0 * 0.01 * 1.0 / 0.3)
    )


# -- summaries ---------------------------------------------------------------


def test_summarize_equilibrium_trace():
    tr = make_trace([row(0.02 * k) for k in range(100)])
    s = summarize(tr)
    assert s.converged
    assert s.switch_count == 0
    assert s.final_V == 0.0
    assert s.t_converge == 0.0
    assert s.lyapunov_violations == 0
    assert s.path_length == pytest.approx(99 * 0.02)


def test_summarize_truncated_run_not_converged():
    tr = make_trace([row(0.02 * k, l=1.0) for k in range(100)])
    s = summarize(tr)
    assert not s.converged
    assert s.t_converge is None


def test_summarize_counts_switches():
    maneuvers = ["go_straight", "turn_left", "turn_left", "go_straight", "turn_right"]
    tr = make_trace([row(0.02 * k, maneuver=m) for k, m in enumerate(maneuvers)])
    assert summarize(tr).switch_count == 3


def test_summarize_rejects_empty():
    with pytest.raises(EmptyTrace):
        summarize(make_trace([]))


def test_summarize_is_pure():
    tr = make_trace([row(0.02 * k, l=0.01 * k) for k in range(50)])
    assert summarize(tr) == summarize(tr)


# -- field dumps ---------------------------------------------------------------


def test_field_dump_shape_and_content():
    grid = GridSpec(n_l=11, n_theta=7)
    samples = field_dump(math.pi / 3, grid)
    assert len(samples) == 77
    cfg = ControllerConfig(delta_approach=math.pi / 3)
    for s in samples[::13]:
        assert s.region is classify(s.l_norm, s.theta_tilde, cfg)


@pytest.mark.parametrize(
    "delta, band",
    [(math.nan, ControllerConfig.eps_b), (math.inf, ControllerConfig.eps_b),
     (-math.inf, ControllerConfig.eps_b), (-0.5, ControllerConfig.eps_b),
     (math.pi, ControllerConfig.eps_b), (0.5, 0.0), (0.5, -0.1), (0.5, math.nan),
     (0.5, math.inf)],
)
def test_field_dump_rejects_a_bad_delta_or_band(delta, band):
    with pytest.raises(ValueError):
        field_dump(delta, GridSpec(n_l=3, n_theta=3), band)


def test_field_dump_zero_delta_collapse():
    # cos(0) folds the generalized boundaries onto the final-turn curves
    samples = field_dump(0.0, GridSpec(n_l=21, n_theta=21))
    for s in samples:
        assert s.sigma_n == pytest.approx(s.sigma_l, abs=1e-12)
        assert s.sigma_p == pytest.approx(s.sigma_r, abs=1e-12)


def test_field_dump_mirror_symmetry():
    # delta is a magnitude, so the mirror (l~, th~) -> (-l~, -th~) keeps it.
    grid = GridSpec(l_min=-3, l_max=3, theta_min=-3, theta_max=3, n_l=13, n_theta=13)
    delta = 1.1
    swap = {
        Region.RIGHT_TURN_FIRST: Region.LEFT_TURN_FIRST,
        Region.LEFT_TURN_FIRST: Region.RIGHT_TURN_FIRST,
        Region.ON_SIGMA_R: Region.ON_SIGMA_L,
        Region.ON_SIGMA_L: Region.ON_SIGMA_R,
    }
    a = field_dump(delta, grid)
    by_point = {(round(s.l_norm, 9), round(s.theta_tilde, 9)): s for s in a}
    for s in a:
        m = by_point[(round(-s.l_norm, 9), round(-s.theta_tilde, 9))]
        assert m.region is swap.get(s.region, s.region)
        assert m.sigma_r == pytest.approx(-s.sigma_l, abs=1e-12)
        assert m.sigma_n == pytest.approx(-s.sigma_p, abs=1e-12)


def reference_field_dump(delta, grid, band=ControllerConfig.eps_b):
    """The list-building field_dump that the column version replaced."""
    out = []
    for i in range(grid.n_l):
        l_norm = grid.l_min + (grid.l_max - grid.l_min) * i / (grid.n_l - 1)
        for j in range(grid.n_theta):
            th = grid.theta_min + (grid.theta_max - grid.theta_min) * j / (grid.n_theta - 1)
            out.append(
                FieldSample(
                    l_norm,
                    th,
                    sigma_r(l_norm, th),
                    sigma_l(l_norm, th),
                    sigma_n(l_norm, th, delta),
                    sigma_p(l_norm, th, delta),
                    classify(l_norm, th, ControllerConfig(delta_approach=delta, eps_b=band)),
                )
            )
    return out


def assert_same_sample(got, want):
    assert type(got) is FieldSample
    assert [float.hex(v) for v in got[:6]] == [float.hex(v) for v in want[:6]]
    assert got.region is want.region


_bound = st.floats(-6.0, 6.0)
_grid = st.builds(
    GridSpec, l_min=_bound, l_max=_bound, theta_min=_bound, theta_max=_bound,
    n_l=st.integers(2, 25), n_theta=st.integers(2, 25),
)
_delta = st.floats(0.0, math.pi, exclude_max=True)


@given(_grid, _delta, st.sampled_from([1e-6, ControllerConfig.eps_b, 0.05, 0.4]))
@example(GridSpec(n_l=9, n_theta=9), 0.0, ControllerConfig.eps_b)
@example(GridSpec(n_l=9, n_theta=9), -0.0, ControllerConfig.eps_b)
@example(GridSpec(l_min=3.0, l_max=-3.0, theta_min=2.5, theta_max=-2.5, n_l=7, n_theta=5),
         1.2, 0.05)
# A th~ axis of exactly [-pi, pi] (both ends wrap to -pi) and an l~ axis
# through -band, 0 and band, the origin band's edges.
@example(GridSpec(l_min=-0.05, l_max=0.05, theta_min=-math.pi, theta_max=math.pi,
                  n_l=3, n_theta=17), 0.0, 0.05)
@example(GridSpec(l_min=-0.05, l_max=0.05, theta_min=-math.pi, theta_max=math.pi,
                  n_l=3, n_theta=17), -0.0, 0.05)
@example(GridSpec(l_min=-0.4, l_max=0.4, theta_min=-math.pi, theta_max=math.pi,
                  n_l=5, n_theta=9), math.pi / 3, 0.4)
# The default band's edges: rows at -0.002, -band, 0, band and 0.002, so
# the origin band's per-sample rows sit beside whole rows on each side.
@example(GridSpec(l_min=-0.002, l_max=0.002, n_l=5, n_theta=33), math.pi / 3,
         ControllerConfig.eps_b)
# Hand-off values exactly on the band's edge: at (l0, -1.46) sigma_l is
# -0.05 and at (-l0, 1.46) sigma_r is +0.05, both receptive (l0 is about
# 0.8394); and at (l1, -1.5663), (-l1, 1.5663) the same at the default band.
@example(GridSpec(l_min=float.fromhex("0x1.adc9cc3de4cd8p-1"),
                  l_max=-float.fromhex("0x1.adc9cc3de4cd8p-1"),
                  theta_min=-1.46, theta_max=1.46, n_l=2, n_theta=2), 1.0, 0.05)
@example(GridSpec(l_min=float.fromhex("0x1.fd2f966279d2cp-1"),
                  l_max=-float.fromhex("0x1.fd2f966279d2cp-1"),
                  theta_min=-1.5663, theta_max=1.5663, n_l=2, n_theta=2),
         1.0, ControllerConfig.eps_b)
# A th~ beyond pi, whose cosine differs from its wrapped one's: at
# (l2, 4.58729), l2 about 1.0748, sigma_l of the wrapped th~ is exactly
# -0.05 (on the curve), and of the unwrapped one just beyond the band.
@example(GridSpec(l_min=float.fromhex("0x1.132451c7b5cfap+0"), l_max=0.0,
                  theta_min=4.58729, theta_max=0.0, n_l=2, n_theta=2), 1.0, 0.05)
# A descending l~ axis through 0 on the default th~ axis.
@example(GridSpec(l_min=2.5, l_max=-2.5, n_l=11, n_theta=41), math.pi / 4,
         ControllerConfig.eps_b)
# A wide band: nine of the 21 rows lie in the origin band.
@example(GridSpec(l_min=-1.0, l_max=1.0, n_l=21, n_theta=33), 1.0, 0.4)
def test_field_dump_matches_reference_bitwise(grid, delta, band):
    want = reference_field_dump(delta, grid, band)
    got = field_dump(delta, grid, band)
    assert len(got) == len(want)
    for g, w in zip(got, want):  # iteration
        assert_same_sample(g, w)
    for k in range(-len(want), len(want)):  # indexing, negative indices included
        assert_same_sample(got[k], want[k])


def test_field_dump_is_a_read_only_sequence():
    grid = GridSpec(n_l=11, n_theta=7)
    got = field_dump(math.pi / 3, grid)
    want = reference_field_dump(math.pi / 3, grid)
    assert isinstance(got, Sequence)
    assert len(got) == 77
    for index in (slice(None, None, 13), slice(5, 2, -1), slice(-3, None), slice(70, 99),
                  slice(4, 4)):
        part = got[index]
        assert len(part) == len(want[index])
        for g, w in zip(part, want[index]):
            assert_same_sample(g, w)
    assert_same_sample(got[-1], want[-1])
    assert_same_sample(got[-77], want[0])
    for k in (77, -78):
        with pytest.raises(IndexError):
            got[k]
    assert list(got) == want
    assert [s.region for s in reversed(got)] == [s.region for s in reversed(want)]
    with pytest.raises(TypeError):
        got[0] = want[1]
    with pytest.raises(TypeError):
        del got[0]


def test_field_dump_memory_stays_compact():
    # 90,601 FieldSample tuples took a 21 MB peak; the columns take about 4.8 MB.
    grid = GridSpec(n_l=301, n_theta=301)
    tracemalloc.start()
    try:
        field = field_dump(math.pi / 3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(field) == 301 * 301
    assert peak < 6e6


def test_field_dump_labels_only_the_origin_band_a_sample_at_a_time(monkeypatch):
    # A row off the origin band is labelled whole from its side's codes, so
    # only rows with |l~| <= eps_b call _offset_half, once per sample.  At
    # 301 x 301 that is the l~ = 0 row: 301 calls, where labelling every
    # sample would make 90,601.
    calls = 0
    offset_half = analysis._offset_half

    def counted(*args):
        nonlocal calls
        calls += 1
        return offset_half(*args)

    monkeypatch.setattr(analysis, "_offset_half", counted)
    grid = GridSpec(n_l=301, n_theta=301)
    field = field_dump(ControllerConfig.delta_approach, grid)
    band_rows = [l for l in field.l_norm[::301] if abs(l) <= ControllerConfig.eps_b]
    assert band_rows == [0.0]
    assert calls == 301 * len(band_rows)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_l=1)
    with pytest.raises(ValueError):
        GridSpec(l_min=math.inf)
    for size in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError):
            GridSpec(n_l=size)
        with pytest.raises(ValueError):
            GridSpec(n_theta=size)
    assert GridSpec(n_l=2, n_theta=2).n_l == 2
