import numpy as np
import pytest

from frogkit import (
    AmbiguityElement,
    InvalidParametersError,
    RecoverySettings,
    frog_trace,
    idft,
    recover,
)
from frogkit import io
from conftest import random_band_spectrum, random_signal


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
    }
    for name, lines in broken.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(InvalidParametersError):
            io.read_trace(path, 2)


def test_power_spectrum_round_trip(rng, tmp_path):
    ps = rng.uniform(0, 3, 15)
    path = tmp_path / "ps.json"
    io.write_power_spectrum(path, ps)
    assert np.array_equal(io.read_power_spectrum(path), ps)


def test_element_dict_round_trip():
    g = AmbiguityElement(psi=1.25, shift=3.5, reflected=True)
    assert io.element_from_dict(io.element_to_dict(g)) == g


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
