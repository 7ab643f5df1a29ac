import argparse
import contextlib
import io as stdio
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogkit import (
    AmbiguityElement,
    BandlimitSpec,
    FrogTrace,
    Signal,
    Spectrum,
    apply,
    dft,
    frog_trace,
    idft,
    trace_invariant,
)
from frogkit import ambiguities, cli, io
from frogkit.cli import main
from conftest import fig2_spectrum


def run_cli(*args):
    """``frogkit <args>`` through ``main`` in this process, reported as a
    finished child process would report it: the exit code, with argparse's
    ``SystemExit`` turned into its code, and what was written to stdout and
    stderr.  Every warning is written to stderr, as an interpreter prints it.
    An exception that escapes ``main`` escapes this call too."""
    argv, out, err = [str(a) for a in args], stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_module(*args):
    """``python -m frogkit.cli <args>`` in a child interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "frogkit.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_module_exit_codes_cross_the_process_boundary(tmp_path):
    # main's return value becomes the exit status of ``python -m frogkit.cli``
    sig, tr = tmp_path / "s.json", tmp_path / "t.csv"
    res = run_module("synthesize", "--n", 16, "--b", 4, "--seed", 7, "--out", sig)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    assert sig.exists()
    values = np.zeros(16, dtype=complex)
    values[1:4] = [1.0, 1.0 - 0.5j, 0.3 + 0.2j]  # entry 0 of the band is zero
    io.write_trace(tr, frog_trace(idft(Spectrum(values)), 4))
    res = run_module("recover", "--trace", tr, "--l", 4, "--b", 4, "--out", tmp_path / "r.json")
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["failure: leading band entry vanishes"]


def test_module_usage_error_is_one_line_without_traceback(tmp_path):
    res = run_module("synthesize", "--n", 16, "--b", 9, "--out", tmp_path / "x.json")
    assert_usage_error(res)
    assert res.stderr == "error: need b <= N/2 (b=9, N=16)\n"
    assert not (tmp_path / "x.json").exists()


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


def test_verify_fractional_shift_at_huge_band_start(tmp_path):
    start, sig, out = 4611686018427388412, tmp_path / "sig.json", stdio.StringIO()
    with contextlib.redirect_stdout(out):
        synth = main(["synthesize", "--n", "64", "--b", "8", "--start", str(start),
                      "--seed", "3", "--out", str(sig)])
        code = main(["verify", "--signal", str(sig), "--l", "4", "--b", "8", "--start", str(start)])
    assert (synth, code) == (0, 0), out.getvalue()
    assert "fractional shift             invariant" in out.getvalue()


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


def test_recover_with_a_tail_row_inconsistent_by_construction_exits_1(tmp_path):
    # this seed recovers to ~1e-12; scaling trace row 10, past the band, by
    # 1 + 2e-4 leaves every band row fitting and the consistency rows not
    sig, tr, rep = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "r.json"
    assert run_cli("synthesize", "--n", 256, "--b", 8, "--seed", 100001, "--out", sig).returncode == 0
    data = frog_trace(io.read_signal(sig), 1).data.copy()
    data[10] *= 1 + 2e-4
    io.write_trace(tr, FrogTrace(data, 1))
    res = run_cli("recover", "--trace", tr, "--l", 1, "--b", 8, "--out", rep)
    assert res.returncode == 1, res.stderr
    report = json.loads(rep.read_text())
    assert report["success"] is False
    assert max(report["step_residuals"]) <= 1e-6 < report["tail_residual"]


def test_recover_that_raises_exits_1_with_one_line(tmp_path):
    values = np.zeros(16, dtype=complex)
    values[1:4] = [1.0, 1.0 - 0.5j, 0.3 + 0.2j]  # entry 0 of the band is zero
    tr = tmp_path / "t.csv"
    io.write_trace(tr, frog_trace(idft(Spectrum(values)), 4))
    res = run_cli("recover", "--trace", tr, "--l", 4, "--b", 4, "--out", tmp_path / "r.json")
    assert res.returncode == 1
    assert res.stderr.strip().splitlines() == ["failure: leading band entry vanishes"]


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


def test_recover_ls_mode_reports_an_overflowing_model_trace_as_a_failed_descent(tmp_path):
    # the trace of a start scaled by 1e100 overflows; that is a failed
    # descent, not an invalid trace
    x = Signal(np.random.default_rng(3).standard_normal(16))
    init, tr, rep = tmp_path / "init.json", tmp_path / "t.csv", tmp_path / "r.json"
    io.write_trace(tr, frog_trace(x, 4))
    io.write_signal(init, Signal(1e100 * x.values))
    res = run_cli(
        "recover", "--trace", tr, "--l", 4, "--b", 4, "--mode", "ls", "--init", init,
        "--max-iters", 20, "--out", rep,
    )
    assert res.returncode == 1, res.stderr
    assert len(res.stdout.splitlines()) == 1 and not res.stderr
    report = json.loads(rep.read_text())
    assert report["trace_mismatch"] == np.inf and not report["success"]


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


def test_verify_fractional_shift_of_a_full_band_signal_fails(tmp_path):
    rng = np.random.default_rng(6)
    sig = tmp_path / "s.json"
    io.write_signal(sig, Signal(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    res = run_cli("verify", "--signal", sig, "--l", 1, "--b", 4)
    assert res.returncode == 1
    assert re.search(r"^fractional shift +NOT invariant$", res.stdout, re.MULTILINE), res.stdout


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    sig = tmp_path / "s.json"
    for seed in (1, 2):
        assert run_cli("synthesize", "--n", 8, "--b", 2, "--seed", seed, "--out", sig).returncode == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_experiment_defaults_are_immutable_and_repeat(tmp_path):
    # a parser shared by every call in the process holds no mutable default
    args = cli.build_parser().parse_args(["experiment", "--out", "grid.csv"])
    assert args.l_list == (1, 2, 4, 8) and args.sigma_list == (0.0, 0.25, 0.5, 1.0, 2.0)
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        res = run_cli("experiment", "--n", 8, "--trials", 1, "--seed", 3, "--out", out)
        assert res.returncode == 0, res.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 1 + 4 * 5


@pytest.mark.parametrize("band", [[], ["--b", 4]], ids=["full band", "band"])
def test_verify_computes_each_trace_once(tmp_path, monkeypatch, band):
    # one reference trace and one per check: 5 traces, where 4 checks of
    # trace_invariant computed 8
    calls = []

    def counted(signal, l):
        calls.append(l)
        return frog_trace(signal, l)

    for module in (cli, ambiguities):
        monkeypatch.setattr(module, "frog_trace", counted)
    sig = tmp_path / "s.json"
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 9, "--out", sig).returncode == 0
    assert run_cli("verify", "--signal", sig, "--l", 4, *band).returncode == 0
    assert calls == [4] * 5


def _verdicts_by_trace_invariant(signal, l, b, seed):
    """The lines ``frogkit verify`` prints, from ``trace_invariant`` itself."""
    xhat = dft(signal)
    rng = np.random.default_rng(seed)
    psi, ell = float(rng.uniform(0, 2 * np.pi)), int(rng.integers(1, signal.n))
    checks = [
        ("rotation", AmbiguityElement(psi=psi), None, ""),
        ("integer shift", AmbiguityElement(shift=float(ell)), None, ""),
        ("reflection", AmbiguityElement(reflected=True), None, ""),
    ]
    if b is None:
        checks.append(("fractional shift (full band)", AmbiguityElement(shift=0.37),
                       BandlimitSpec(signal.n, 0), " (no guarantee without a bandlimit)"))
    else:
        checks.append(("fractional shift", AmbiguityElement(shift=0.37), BandlimitSpec(b), ""))
    return [
        f"{name:28s} {'invariant' if trace_invariant(xhat, g, l, band) else 'NOT invariant'}{note}"
        for name, g, band, note in checks
    ]


@pytest.mark.parametrize("l", [1, 4])
@pytest.mark.parametrize("b", [None, 4])
def test_verify_prints_the_verdicts_of_trace_invariant(tmp_path, l, b):
    rng = np.random.default_rng(31)
    sig = tmp_path / "s.json"
    for seed in range(4):
        if seed % 2:  # a full-band signal: the fractional shift is not invariant
            io.write_signal(sig, Signal(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
        else:
            assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", seed, "--out", sig).returncode == 0
        band = [] if b is None else ["--b", b]
        res = run_cli("verify", "--signal", sig, "--l", l, *band, "--seed", seed)
        assert res.stdout.splitlines() == _verdicts_by_trace_invariant(io.read_signal(sig), l, b, seed)


def assert_usage_error(res):
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr


@pytest.mark.parametrize(
    "command, options",
    [
        ("synthesize", ["--b", 1]),
        ("experiment", ["--l-list", "1", "--sigma-list", "0", "--trials", 1]),
    ],
)
def test_a_length_numpy_cannot_hold_is_usage_error(tmp_path, command, options):
    # numpy refused a 2**62-entry array with a traceback, before allocating it
    out = tmp_path / "out"
    res = run_cli(command, "--n", 2**62, *options, "--out", out)
    assert_usage_error(res)
    assert "N <=" in res.stderr and not out.exists()


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


def test_truncated_trace_csv_is_usage_error(tmp_path):
    """An N = 256 trace cut short, as a writer that fails partway leaves
    it, makes ``recover`` exit 2 with one ``error:`` line: cut after a line
    inside trace row 3, after the whole of trace row 99, or in the middle of
    a line (in its m field or in its value).  A cut inside the value of the
    file's last cell leaves a shorter number that still parses, with every
    cell present; this format cannot tell that file from a whole one, so
    no such cut is tested."""
    sig, full = tmp_path / "s.json", tmp_path / "full.csv"
    assert run_cli("synthesize", "--n", 256, "--b", 8, "--seed", 5, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 1, "--out", full).returncode == 0
    text = full.read_bytes()

    def end_of_line(i):  # byte offset just past CSV line i (the header is line 0)
        return len(b"".join(text.splitlines(keepends=True)[: i + 1]))

    tr = tmp_path / "t.csv"
    cuts = {
        "line boundary": end_of_line(1000),
        "row boundary": end_of_line(100 * 256),
        "mid-line, in m": end_of_line(1000) + 3,
        "mid-line, in the value": end_of_line(1000) + 12,
    }
    for name, size in cuts.items():
        tr.write_bytes(text[:size])
        res = run_cli("recover", "--trace", tr, "--l", 1, "--b", 8, "--out", tmp_path / "r.json")
        assert_usage_error(res)
        assert res.stderr.startswith("error: "), (name, res.stderr)


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


@pytest.fixture
def recover_files(tmp_path):
    """A bandlimited signal, its trace and its power spectrum."""
    sig, tr, ps = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "ps.json"
    assert run_cli("synthesize", "--n", 12, "--b", 3, "--seed", 0, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 1, "--out", tr).returncode == 0
    io.write_power_spectrum(ps, np.abs(dft(io.read_signal(sig)).values) ** 2)
    return sig, ps, ("recover", "--trace", tr, "--l", 1, "--b", 3, "--out", tmp_path / "r.json")


def test_recursive_mode_rejects_init(recover_files):
    sig, _, recover = recover_files
    res = run_cli(*recover, "--init", sig)
    assert_usage_error(res)
    assert "--init does not apply to --mode recursive" in res.stderr


def test_recursive_mode_rejects_max_iters(recover_files):
    _, _, recover = recover_files
    res = run_cli(*recover, "--max-iters", 5)
    assert_usage_error(res)
    assert "--max-iters does not apply to --mode recursive" in res.stderr


def test_ls_mode_rejects_power_spectrum(recover_files):
    sig, ps, recover = recover_files
    res = run_cli(*recover, "--mode", "ls", "--init", sig, "--power-spectrum", ps)
    assert_usage_error(res)
    assert "--power-spectrum does not apply to --mode ls" in res.stderr


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


def test_band_start_beyond_int64_is_usage_error(tmp_path):
    sig, tr = tmp_path / "s.json", tmp_path / "t.csv"
    assert run_cli("synthesize", "--n", 16, "--b", 4, "--seed", 9, "--out", sig).returncode == 0
    assert run_cli("trace", "--signal", sig, "--l", 4, "--out", tr).returncode == 0
    for start in ("99999999999999999999", "-99999999999999999999"):
        for argv in (
            ("synthesize", "--n", 16, "--b", 4, "--out", tmp_path / "x.json"),
            ("verify", "--signal", sig, "--l", 4, "--b", 4),
            ("recover", "--trace", tr, "--l", 4, "--b", 4, "--out", tmp_path / "r.json"),
        ):
            res = run_cli(*argv, "--start", start)
            assert_usage_error(res)
            assert res.stderr.startswith("error: ") and "int64" in res.stderr


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
    no call runs long; N may also be 2**62, which numpy refuses before it
    allocates anything."""

    def num(lo, hi, extra=st.nothing()):
        return str(draw(st.integers(lo, hi) | extra))

    path = st.sampled_from(inputs)
    out = [("--out", draw(st.sampled_from(outputs)))]
    command = draw(st.sampled_from(["synthesize", "trace", "recover", "experiment", "verify"]))
    if command == "synthesize":
        required = [("--n", num(-2, 32, st.just(2**62))), ("--b", num(-2, 17))] + out
        optional = [("--start", num(-3, 40)), ("--seed", num(-2, 3))]
    elif command == "trace":
        required = [("--signal", draw(path)), ("--l", num(-1, 17))] + out
        optional = []
    elif command == "recover":
        required = [("--trace", draw(path)), ("--l", num(-1, 17)), ("--b", num(-2, 9))] + out
        # --max-iters belongs to mode ls, where it is always given
        mode = draw(st.sampled_from(["default", "recursive", "ls"]))
        if mode != "default":
            required += [("--mode", mode)]
        if mode == "ls":
            required += [("--max-iters", num(-1, 50))]
        optional = [
            ("--start", num(-3, 20)),
            ("--power-spectrum", draw(path)),
            ("--init", draw(path)),
            ("--tol", draw(_FLOATS)),
        ]
    elif command == "experiment":
        required = [("--n", num(-2, 12, st.just(2**62))), ("--trials", num(-1, 2))] + out
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
