import contextlib
import io as stdio
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogkit import AmbiguityElement, Signal, Spectrum, apply, dft, frog_trace, idft
from frogkit import io
from frogkit.cli import main
from conftest import fig2_spectrum


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "frogkit.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_synthesize_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 7, "--out", out)
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_synthesize_band_conformance(tmp_path):
    out = tmp_path / "sig.json"
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--start", 3, "--seed", 1, "--out", out).returncode == 0
    xhat = dft(io.read_signal(out))
    mask = np.ones(16, dtype=bool)
    mask[[3, 4, 5, 6]] = False
    assert np.max(np.abs(xhat.values[mask])) <= 1e-10 * np.max(np.abs(xhat.values))


def test_synthesize_usage_error(tmp_path):
    res = run_cli("synthesize", "--n", 16, "--b", 9, "--out", tmp_path / "x.json")
    assert res.returncode == 2


def test_trace_fig2_variants_equal(tmp_path):
    xhat, band = fig2_spectrum()
    variants = [
        xhat,
        apply(AmbiguityElement(shift=3.0), xhat),
        apply(AmbiguityElement(shift=1.5), xhat, band),
    ]
    csvs = []
    for i, spec in enumerate(variants):
        sig = tmp_path / f"sig{i}.json"
        out = tmp_path / f"trace{i}.csv"
        io.write_signal(sig, idft(spec))
        assert run_cli("trace", "--signal", sig, "--l", 1, "--out", out).returncode == 0
        csvs.append(io.read_trace(out, 1).data)
    assert np.max(np.abs(csvs[0] - csvs[1])) <= 1e-10 * np.max(csvs[0])
    assert np.max(np.abs(csvs[0] - csvs[2])) <= 1e-10 * np.max(csvs[0])


def test_trace_delta_signal(tmp_path):
    sig = tmp_path / "delta.json"
    values = np.zeros(4, dtype=complex)
    values[0] = 1.0
    io.write_signal(sig, Signal(values))
    out = tmp_path / "trace.csv"
    assert run_cli("trace", "--signal", sig, "--l", 1, "--out", out).returncode == 0
    data = io.read_trace(out, 1).data
    assert np.allclose(data[:, 0], 1.0) and np.allclose(data[:, 1:], 0.0)


def test_trace_bad_step_exits_nonzero(tmp_path):
    sig = tmp_path / "sig.json"
    io.write_signal(sig, Signal(np.ones(6)))
    res = run_cli("trace", "--signal", sig, "--l", 4, "--out", tmp_path / "t.csv")
    assert res.returncode == 2


def test_recover_round_trip(tmp_path):
    sig, tr, rep = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "r.json"
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 3, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 4, "--out", tr).returncode == 0
    res = run_cli("recover", "--trace", tr, "--l", 4, "--b", 4, "--out", rep)
    assert res.returncode == 0, res.stderr
    report = json.loads(rep.read_text())
    assert report["success"] is True
    assert max(report["step_residuals"]) <= 1e-7


def test_recover_with_inconsistent_tail_exits_1(tmp_path):
    # every step residual of this seed is ~1e-12, but the consistency rows
    # past the band miss by ~2e-4: a wrong recovery, not a success
    sig, tr, rep = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "r.json"
    assert run_cli("synthesize", "--n", 256, "--b", 8, "--seed", 100012, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 1, "--out", tr).returncode == 0
    res = run_cli("recover", "--trace", tr, "--l", 1, "--b", 8, "--out", rep)
    assert res.returncode == 1, res.stderr
    report = json.loads(rep.read_text())
    assert report["success"] is False
    assert max(report["step_residuals"]) <= 1e-6 < report["tail_residual"]


def test_recover_r3_without_power_spectrum_is_usage_error(tmp_path):
    sig, tr = tmp_path / "s.json", tmp_path / "t.csv"
    assert run_cli("synthesize", "--n", 15, "--b", 5, "--seed", 3, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 5, "--out", tr).returncode == 0
    res = run_cli("recover", "--trace", tr, "--l", 5, "--b", 5, "--out", tmp_path / "r.json")
    assert res.returncode == 2


def test_recover_r3_with_power_spectrum(tmp_path):
    sig, tr, ps, rep = (
        tmp_path / "s.json",
        tmp_path / "t.csv",
        tmp_path / "ps.json",
        tmp_path / "r.json",
    )
    assert run_cli("synthesize", "--n", 15, "--b", 5, "--seed", 3, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 5, "--out", tr).returncode == 0
    io.write_power_spectrum(ps, np.abs(dft(io.read_signal(sig)).values) ** 2)
    res = run_cli(
        "recover", "--trace", tr, "--l", 5, "--b", 5, "--power-spectrum", ps, "--out", rep
    )
    assert res.returncode == 0, res.stderr


def test_recover_ls_mode(tmp_path):
    rng = np.random.default_rng(2)
    x = Signal(rng.standard_normal(12))
    sig, init, tr, rep = (
        tmp_path / "s.json",
        tmp_path / "init.json",
        tmp_path / "t.csv",
        tmp_path / "r.json",
    )
    io.write_signal(sig, x)
    io.write_signal(init, Signal(x.values + 0.01 * (rng.integers(0, 2, 12) * 2 - 1)))
    assert run_cli("trace", "--signal", sig, "--l", 1, "--out", tr).returncode == 0
    res = run_cli(
        "recover", "--trace", tr, "--l", 1, "--b", 6, "--mode", "ls", "--init", init, "--out", rep
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(rep.read_text())
    assert report["final_objective"] >= 0
    assert report["trace_mismatch"] <= 1e-6


def test_recover_ls_mode_requires_init(tmp_path):
    sig, tr = tmp_path / "s.json", tmp_path / "t.csv"
    assert run_cli("synthesize", "--n", 12, "--b", 3, "--seed", 0, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 2, "--out", tr).returncode == 0
    res = run_cli("recover", "--trace", tr, "--l", 2, "--b", 3, "--mode", "ls", "--out", tmp_path / "r.json")
    assert res.returncode == 2


def test_experiment_deterministic_and_shaped(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli(
            "experiment",
            "--n", 8,
            "--l-list", "1,2",
            "--sigma-list", "0,0.1",
            "--trials", 3,
            "--seed", 5,
            "--out", out,
        )
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    first_cells = lines[1].split(",")
    assert first_cells[0] == "0" and first_cells[4] == "1"


def test_verify_bandlimited_all_pass(tmp_path):
    sig = tmp_path / "s.json"
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 9, "--out", sig).returncode == 0
    res = run_cli("verify", "--signal", sig, "--l", 4, "--b", 4)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "fractional shift" in res.stdout
    assert "NOT invariant" not in res.stdout


def test_verify_full_band_reports_noninvariance(tmp_path):
    rng = np.random.default_rng(4)
    sig = tmp_path / "s.json"
    io.write_signal(sig, Signal(rng.standard_normal(12) + 1j * rng.standard_normal(12)))
    res = run_cli("verify", "--signal", sig, "--l", 3)
    assert res.returncode == 0
    assert "NOT invariant" in res.stdout


def assert_usage_error(res):
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr


def test_experiment_zero_trials_is_usage_error(tmp_path):
    res = run_cli("experiment", "--n", 8, "--l-list", "1", "--trials", 0, "--out", tmp_path / "g.csv")
    assert_usage_error(res)
    assert "trials" in res.stderr


def test_malformed_signal_json_is_usage_error(tmp_path):
    contents = [
        '{"n": 2, "re": [1, 2',  # truncated JSON
        '{"n": 2, "re": [1, 2]}',  # missing "im"
        '{"n": 2, "re": [1, "x"], "im": [0, 0]}',  # not a number
        '{"n": 2, "re": [1, NaN], "im": [0, 0]}',  # not finite
        "[1, 2]",  # not an object
        '{"n": 2.5, "re": [1, 2], "im": [0, 0]}',  # n not an integer
        '{"n": 2.0, "re": [1, 2], "im": [0, 0]}',  # n a float, even a whole one
        '{"n": true, "re": [1], "im": [0]}',  # n a bool
        '{"n": "2", "re": [1, 2], "im": [0, 0]}',  # n a string
    ]
    for i, text in enumerate(contents):
        sig = tmp_path / f"s{i}.json"
        sig.write_text(text)
        assert_usage_error(run_cli("trace", "--signal", sig, "--l", 1, "--out", tmp_path / "t.csv"))


def test_malformed_power_spectrum_is_usage_error(tmp_path):
    sig, tr, ps = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "ps.json"
    assert run_cli("synthesize", "--n", 15, "--b", 5, "--seed", 3, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 5, "--out", tr).returncode == 0
    values = json.dumps((np.abs(dft(io.read_signal(sig)).values) ** 2).tolist())
    contents = [
        '{"values": [1, 2, 3]}',  # missing "n"
        '{"n": 3, "values": [1, 2, 3]',  # truncated JSON
        '{"n": 15.0, "values": %s}' % values,  # n not an integer
        '{"n": "15", "values": %s}' % values,  # n a string
        '{"n": true, "values": [1]}',  # n a bool
    ]
    for text in contents:
        ps.write_text(text)
        res = run_cli(
            "recover", "--trace", tr, "--l", 5, "--b", 5, "--power-spectrum", ps,
            "--out", tmp_path / "r.json",
        )
        assert_usage_error(res)


def test_malformed_trace_csv_is_usage_error(tmp_path):
    tr = tmp_path / "t.csv"
    contents = [
        "",  # no header
        "k,m,value\n0,0\n",  # short row
        "k,m,value\n0,zero,1.0\n",  # not an integer
        "k,m,value\n0,0,1.0\n0,1,2.0\n\n1,0,3.0\n1,1,4.0\n",  # blank line
        "k,m,value\n0,0,1.0,5\n",  # extra column
        "k,m,value\n0.0,0,1.0\n",  # float index
        "k,m,value\n0,0,1.0 # note\n",  # comment
        "k,m,value\n",  # header only
    ]
    for text in contents:
        tr.write_text(text)
        res = run_cli("recover", "--trace", tr, "--l", 1, "--b", 1, "--out", tmp_path / "r.json")
        assert_usage_error(res)
    assert res.stderr.strip() == "error: empty trace CSV"


def test_negative_seed_is_usage_error(tmp_path):
    sig = tmp_path / "s.json"
    res = run_cli("synthesize", "--n", 16, "--b", 4, "--seed", -3, "--out", sig)
    assert_usage_error(res)
    assert "seed" in res.stderr and not sig.exists()
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 3, "--out", sig).returncode == 0
    res = run_cli("verify", "--signal", sig, "--l", 4, "--b", 4, "--seed", -3)
    assert_usage_error(res)
    assert "seed" in res.stderr
    out = tmp_path / "g.csv"
    res = run_cli("experiment", "--n", 8, "--l-list", "1", "--trials", 1, "--seed", -3, "--out", out)
    assert_usage_error(res)
    assert "seed" in res.stderr and not out.exists()


def test_experiment_bad_grid_is_usage_error(tmp_path):
    out = tmp_path / "g.csv"
    for option, value in [
        ("--sigma-list", "0,nan"),
        ("--sigma-list", "inf"),
        ("--sigma-list", "-inf,0.5"),
        ("--sigma-list", ""),
        ("--l-list", ""),
    ]:
        res = run_cli("experiment", "--n", 8, f"{option}={value}", "--trials", 1, "--out", out)
        assert_usage_error(res)
        assert "RuntimeWarning" not in res.stderr
        assert not out.exists()


def test_bad_power_spectrum_values_are_usage_errors(tmp_path):
    sig, tr, ps = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "ps.json"
    assert run_cli("synthesize", "--n", 15, "--b", 5, "--seed", 3, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 5, "--out", tr).returncode == 0
    for bad in (float("nan"), float("inf"), -1.0):
        values = np.abs(dft(io.read_signal(sig)).values) ** 2
        values[4] = bad
        io.write_power_spectrum(ps, values)
        res = run_cli(
            "recover", "--trace", tr, "--l", 5, "--b", 5, "--power-spectrum", ps,
            "--out", tmp_path / "r.json",
        )
        assert_usage_error(res)
        assert "power spectrum" in res.stderr


def test_bad_tol_is_usage_error_in_both_modes(tmp_path):
    sig, tr, out = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "r.json"
    assert run_cli("synthesize", "--n", 12, "--b", 3, "--seed", 0, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 1, "--out", tr).returncode == 0
    recover = ("recover", "--trace", tr, "--l", 1, "--b", 3, "--out", out)
    for tol in ("nan", "inf", "-1"):
        res = run_cli(*recover, f"--tol={tol}")
        assert_usage_error(res)
        assert "--tol" in res.stderr
    for tol in ("nan", "-1"):  # the descent starts at the answer
        res = run_cli(*recover, "--mode", "ls", "--init", sig, f"--tol={tol}")
        assert_usage_error(res)
        assert "--tol" in res.stderr


def test_verify_one_sample_signal_is_usage_error(tmp_path):
    sig = tmp_path / "s.json"
    io.write_signal(sig, Signal(np.ones(1)))
    res = run_cli("verify", "--signal", sig, "--l", 1)
    assert_usage_error(res)


def test_verify_band_wider_than_signal_fails_before_any_verdict(tmp_path):
    sig = tmp_path / "s.json"
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 9, "--out", sig).returncode == 0
    res = run_cli("verify", "--signal", sig, "--l", 4, "--b", 20)
    assert_usage_error(res)
    assert res.stdout == ""
    assert "b=20 exceeds N=16" in res.stderr


def test_synthesize_nonpositive_sizes_are_usage_errors(tmp_path):
    for n, b in ((-1, -1), (0, 0), (4, 0)):
        assert_usage_error(run_cli("synthesize", f"--n={n}", f"--b={b}", "--out", tmp_path / "s.json"))


# Property: whatever the argv and the input files, the CLI exits 0, 1 or 2
# with at most one line on stderr, or argparse rejects the argv.


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Valid and malformed input files, and output paths that can or cannot
    be written."""
    d = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(12)
    for n, b in ((1, 1), (2, 1), (12, 3), (15, 5), (16, 4)):
        values = np.zeros(n, dtype=complex)
        values[:b] = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        signal = idft(Spectrum(values))
        io.write_signal(d / f"sig{n}.json", signal)
        io.write_power_spectrum(d / f"ps{n}.json", np.abs(values) ** 2)
        for l in {1, n // 4 or 1, n // 3 or 1}:
            if n % l == 0:
                io.write_trace(d / f"trace{n}_l{l}.csv", frog_trace(signal, l))
    (d / "ps_nan.json").write_text('{"n": 15, "values": %s}' % json.dumps([float("nan")] * 15))
    (d / "ps_neg.json").write_text('{"n": 16, "values": %s}' % json.dumps([-1.0] * 16))
    (d / "truncated.json").write_text('{"n": 2, "re": [1, 2')
    (d / "nan_signal.json").write_text('{"n": 2, "re": [1, NaN], "im": [0, 0]}')
    (d / "huge_signal.json").write_text('{"n": 4, "re": [1e200, 1, 2, 3], "im": [0, 0, 0, 1e300]}')
    (d / "zero_signal.json").write_text('{"n": 4, "re": [0, 0, 0, 0], "im": [0, 0, 0, 0]}')
    (d / "empty.csv").write_text("")
    (d / "short.csv").write_text("k,m,value\n0,0\n")
    (d / "negative.csv").write_text("k,m,value\n0,0,-1.0\n")
    inputs = sorted(str(p) for p in d.iterdir()) + [str(d / "missing.json")]
    outputs = [str(d / "out"), str(d), str(d / "missing" / "out")]
    return inputs, outputs


_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-6", "0.5", "2", "1e300"])


@st.composite
def _argv(draw, inputs, outputs):
    """One subcommand with its required options and some of its optional ones,
    each passed as ``--flag=value`` so that values starting with '-' stay
    values.  Sizes and iteration counts are always given and small, so that
    no call runs long."""

    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    path = st.sampled_from(inputs)
    out = [("--out", draw(st.sampled_from(outputs)))]
    command = draw(st.sampled_from(["synthesize", "trace", "recover", "experiment", "verify"]))
    if command == "synthesize":
        required = [("--n", num(-2, 32)), ("--b", num(-2, 17))] + out
        optional = [("--start", num(-3, 40)), ("--seed", num(-2, 3))]
    elif command == "trace":
        required = [("--signal", draw(path)), ("--l", num(-1, 17))] + out
        optional = []
    elif command == "recover":
        required = [("--trace", draw(path)), ("--l", num(-1, 17)), ("--b", num(-2, 9))]
        required += [("--max-iters", num(-1, 50))] + out
        optional = [
            ("--start", num(-3, 20)),
            ("--mode", draw(st.sampled_from(["recursive", "ls"]))),
            ("--power-spectrum", draw(path)),
            ("--init", draw(path)),
            ("--tol", draw(_FLOATS)),
        ]
    elif command == "experiment":
        required = [("--n", num(-2, 12)), ("--trials", num(-1, 2))] + out
        optional = [
            ("--l-list", ",".join(draw(st.lists(st.integers(-1, 5).map(str), max_size=2)))),
            ("--sigma-list", ",".join(draw(st.lists(_FLOATS, max_size=2)))),
            ("--seed", num(-2, 3)),
        ]
    else:
        required = [("--signal", draw(path)), ("--l", num(-1, 17))]
        optional = [("--b", num(-2, 9)), ("--start", num(-3, 20)), ("--seed", num(-2, 3))]
    chosen = required + [pair for pair in optional if draw(st.booleans())]
    return [command] + [f"{flag}={value}" for flag, value in chosen]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_any_argv_and_input(cli_files, data):
    argv = data.draw(_argv(*cli_files))
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert len(lines) <= 1, (argv, lines)
