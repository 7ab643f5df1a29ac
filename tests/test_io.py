import csv
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frogkit import (
    FrogTrace,
    InvalidParametersError,
    RecoverySettings,
    Signal,
    frog_trace,
    idft,
    recover,
)
from frogkit import io
from conftest import random_band_spectrum, random_signal, same_bits


def test_signal_json_round_trip(rng, tmp_path):
    x = random_signal(rng, 16)
    path = tmp_path / "sig.json"
    io.write_signal(path, x)
    back = io.read_signal(path)
    assert np.array_equal(back.values, x.values)


def test_signal_write_is_deterministic(rng, tmp_path):
    x = random_signal(rng, 8)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.write_signal(p1, x)
    io.write_signal(p2, x)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_csv_round_trip(rng, tmp_path):
    tr = frog_trace(random_signal(rng, 12), 3)
    path = tmp_path / "trace.csv"
    io.write_trace(path, tr)
    header = path.read_text().splitlines()[0]
    assert header == "k,m,value"
    back = io.read_trace(path, 3)
    assert np.array_equal(back.data, tr.data)
    assert back.l == 3


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1.0\n")
    with pytest.raises(InvalidParametersError):
        io.read_trace(path, 1)


def test_trace_csv_rejects_missing_repeated_and_negative_cells(rng, tmp_path):
    good = tmp_path / "good.csv"
    io.write_trace(good, frog_trace(random_signal(rng, 8), 2))
    header, *rows = good.read_text().splitlines()
    assert io.read_trace(good, 2).data.shape == (8, 4)
    broken = {
        "missing": rows[:5] + rows[6:],
        "repeated": rows[:5] + [rows[4]] + rows[6:],
        "negative": ["-1" + rows[0][1:]] + rows[1:],
        "blank": rows[:5] + [""] + rows[5:],
        "leading blank": [""] + rows,
        "trailing blank": rows + [""],
    }
    for name, lines in broken.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(InvalidParametersError):
            io.read_trace(path, 2)


def test_trace_csv_accepts_quotes_spaces_and_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    for text in (
        'k,m,value\r\n"0",0,1.5\r\n1,"0",2.5\r\n',
        "k, m, value\n0, 0, 1.5\n1, 0, 2.5",
        "k,m,value\r0,0,1.5\r1,0,2.5\r",
    ):
        path.write_bytes(text.encode())
        assert np.array_equal(io.read_trace(path, 2).data, [[1.5], [2.5]])


def _reference_write_trace(path, trace):
    """The trace writer as one csv.writer row per cell: the format's reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "m", "value"])
        n, r = trace.data.shape
        for k in range(n):
            for m in range(r):
                writer.writerow([k, m, "%.17g" % trace.data[k, m]])


_TRACE_VALUES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=sys.float_info.min),  # subnormals
    st.floats(min_value=1e307, max_value=sys.float_info.max),
    st.sampled_from([0.0, 5e-324, sys.float_info.min, 1e308, sys.float_info.max]),
)


@st.composite
def _traces(draw):
    r, l = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return FrogTrace(draw(hnp.arrays(np.float64, (r * l, r), elements=_TRACE_VALUES)), l)


_TRACE_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_TRACE_SETTINGS
@given(trace=_traces())
def test_trace_csv_round_trip_is_bitwise_exact(tmp_path, trace):
    path = tmp_path / "t.csv"
    io.write_trace(path, trace)
    back = io.read_trace(path, trace.l)
    assert back.data.shape == trace.data.shape
    assert back.data.tobytes() == trace.data.tobytes()


@_TRACE_SETTINGS
@given(trace=_traces())
def test_trace_csv_bytes_equal_csv_writer(tmp_path, trace):
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    io.write_trace(path, trace)
    _reference_write_trace(ref, trace)
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n,l", [(256, 1), (128, 2)])
def test_trace_csv_bytes_equal_csv_writer_at_three_digit_indices(tmp_path, n, l):
    """k and m reach three digits, and the cells include -0.0, a subnormal
    and the largest float, which the drawn traces never combine."""
    data = np.random.default_rng(n).random((n, n // l)) * 1e3
    data[0, 0], data[n // 2, 7], data[-1, -1] = -0.0, 5e-324, sys.float_info.max
    trace = FrogTrace(data, l)
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    io.write_trace(path, trace)
    _reference_write_trace(ref, trace)
    assert path.read_bytes() == ref.read_bytes()
    assert io.read_trace(path, l).data.tobytes() == data.tobytes()


def _mirrored_trace_cases():
    trace = frog_trace(random_signal(np.random.default_rng(256), 256), 1)
    nudged = trace.data.copy()  # row 9's column 200 is one ulp off column 56
    nudged[9, 200] = np.nextafter(nudged[9, 200], np.inf)
    # row 0 pairs 0.0 with -0.0, so it cannot reuse text; row 1 holds -0.0 twice
    zeros = np.array([[1.0, 0.0, 2.0, -0.0], [1.0, -0.0, 2.0, -0.0], [3.0] * 4, [4.0] * 4])
    return {"frog_trace": trace, "one ulp": FrogTrace(nudged, 1), "signed zeros": FrogTrace(zeros, 1)}


@pytest.mark.parametrize("case", ["frog_trace", "one ulp", "signed zeros"])
def test_trace_csv_bytes_equal_csv_writer_with_mirrored_columns(tmp_path, case):
    """A row whose columns r - m and m agree bit for bit reuses the text of
    its left half; any other row formats its right half cell by cell."""
    trace = _mirrored_trace_cases()[case]
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    io.write_trace(path, trace)
    _reference_write_trace(ref, trace)
    assert path.read_bytes() == ref.read_bytes()
    if case == "signed zeros":
        assert path.read_bytes().splitlines()[2:10:2] == [b"0,1,0", b"0,3,-0", b"1,1,-0", b"1,3,-0"]


# every finite float, with signed zeros, subnormals and the extremes drawn often
_FINITE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, sys.float_info.max, -sys.float_info.max]),
)


def _finite_vectors(size=st.integers(1, 12)):
    return size.flatmap(lambda n: hnp.arrays(np.float64, n, elements=_FINITE_VALUES))


@_TRACE_SETTINGS
@given(parts=st.integers(1, 12).flatmap(lambda n: st.tuples(*[_finite_vectors(st.just(n))] * 2)))
def test_signal_json_round_trip_is_bitwise_exact(tmp_path, parts):
    values = np.empty(len(parts[0]), dtype=np.complex128)
    values.real, values.imag = parts
    path = tmp_path / "s.json"
    io.write_signal(path, Signal(values))
    assert same_bits(io.read_signal(path).values, values)


@_TRACE_SETTINGS
@given(values=_finite_vectors().map(lambda v: np.where(v < 0, -v, v)))  # nonnegative, -0.0 kept
def test_power_spectrum_round_trip_is_bitwise_exact(tmp_path, values):
    path = tmp_path / "ps.json"
    io.write_power_spectrum(path, values)
    assert same_bits(io.read_power_spectrum(path), values)


def test_power_spectrum_round_trip(rng, tmp_path):
    ps = rng.uniform(0, 3, 15)
    path = tmp_path / "ps.json"
    io.write_power_spectrum(path, ps)
    assert np.array_equal(io.read_power_spectrum(path), ps)


@pytest.mark.parametrize(
    "values",
    [["a"], [[1, 2], [3, 4]], None, 5.0, [float("nan")], [float("inf")], [-1.0], [], [10**400]],
    ids=["text", "2-D", "None", "scalar", "nan", "inf", "negative", "empty", "1e400"],
)
def test_power_spectrum_writer_takes_only_what_recover_takes(tmp_path, values):
    # these raised a bare ValueError or TypeError, or wrote NaN (not JSON) or n = 0
    path = tmp_path / "ps.json"
    with pytest.raises(InvalidParametersError, match="power spectrum"):
        io.write_power_spectrum(path, values)
    assert not path.exists()


def test_report_json_shape(rng, tmp_path):
    xhat, band = random_band_spectrum(rng, 16, 4)
    report = recover(frog_trace(idft(xhat), 4), band, RecoverySettings(r=4))
    obj = io.report_to_dict(report)
    assert set(obj) == {
        "spectrum",
        "step_residuals",
        "x3_branch",
        "x3_branch_residuals",
        "equations_used",
        "success",
        "measurement_reads",
        "tail_residual",
    }
    assert obj["success"] is True
    assert len(obj["step_residuals"]) == band.b
    path = tmp_path / "report.json"
    io.write_report(path, report)
    assert path.exists()


def test_basin_grid_csv(tmp_path):
    from frogkit import BasinGrid

    grid = BasinGrid(
        sigma_values=np.array([0.0, 0.5]),
        l_values=np.array([1, 2]),
        trials=4,
        success_rate=np.array([[1.0, 1.0], [0.5, 0.25]]),
        seed=3,
    )
    path = tmp_path / "grid.csv"
    io.write_basin_grid(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma,L,trials,successes,rate"
    assert len(lines) == 5
    assert lines[1].split(",") == ["0", "1", "4", "4", "1"]
    assert lines[4].split(",") == ["0.5", "2", "4", "1", "0.25"]


def _reference_write_basin_grid(path, grid):
    """The basin-grid writer as one csv.writer row per cell: the format's reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "L", "trials", "successes", "rate"])
        for i, sigma in enumerate(grid.sigma_values):
            for j, l in enumerate(grid.l_values):
                rate = grid.success_rate[i, j]
                writer.writerow(
                    [
                        "%.17g" % sigma,
                        int(l),
                        grid.trials,
                        int(round(rate * grid.trials)),
                        "%.17g" % rate,
                    ]
                )


_SIGMAS = st.one_of(
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),  # subnormals
    st.integers(-10, 10).map(float),
    st.floats(min_value=1e300, max_value=sys.float_info.max),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _basin_grids(draw):
    from frogkit import BasinGrid

    sigmas = draw(st.lists(_SIGMAS, min_size=1, max_size=4))
    l_values = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
    trials = draw(st.integers(1, 1000))
    shape = (len(sigmas), len(l_values))
    wins = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, trials)))
    return BasinGrid(np.array(sigmas), np.array(l_values), trials, wins / trials, seed=0)


@_TRACE_SETTINGS
@given(grid=_basin_grids())
def test_basin_grid_bytes_equal_csv_writer(tmp_path, grid):
    path, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
    io.write_basin_grid(path, grid)
    _reference_write_basin_grid(ref, grid)
    assert path.read_bytes() == ref.read_bytes()
