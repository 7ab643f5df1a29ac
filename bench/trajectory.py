"""Performance record of one change: writes BENCH_<pr>.json at the repository root.

    python3 bench/trajectory.py --pr 21 [--seconds 20] [--tier1 1] [--out PATH]

The library is imported from the ./src of the checkout this script sits in.
One run records, in this order:

* the median time of perfbench/speed.py's ``reference_kernel``, the machine's
  speed at the start of the run (the file is imported, not changed);
* layer timings, best of 5, each right after a short median of the
  reference kernel (``layer.<name>.ref_ms``, the machine's speed at that
  moment), at N = 24, 64 and 256: ``frog_trace``,
  ``frog_freq_coeffs``, banded and unbanded ``dist_mod_group``,
  ``ls_objective`` with ``ls_gradient``, ``solve_generic`` and
  ``solve_real_centers``; one ``_solve_row`` on a three-circle and one on a
  two-circle row of an N = 64 ``recursion`` input; one whole ``recover`` of
  the first N = 32 and the first N = 64 ``recursion`` inputs; ``_descend``
  on real criterion-8 stacks of 1, 2 and 10 trials per cell; and at N = 256
  ``read_trace``, ``write_trace``, one build of the command's parser and one
  ``frogkit verify``;
* the result and info lines of ``perfbench/run.py --trace 0`` for the
  basin, recursion and cli workloads at seed ``SEED``;
* with ``--tier1 1``, the tier-1 wall clock and the criterion-8 and
  criterion-3 times from the acceptance lines;
* the per-corpus input counts, outcome counts and SHA-256s of one
  ``bench/outcomes.py`` run, its seed-2024 basin CSV hash and its LS scale
  record;
* the reference kernel's median time again, at the end of the run;
* the ``src/`` line count, the commit and the machine.

Every metric is ``{"value": ..., "unit": ...}``; README.md gives the schema.
The exit code is 0 when every part ran and passed, else 1; the file is
written either way, with what was measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("basin", "recursion", "cli")
SEED = 1201  # the perfbench seed of every file, so that files compare across changes
LAYER_SIZES = (24, 64, 256)
REPEATS = 5
REF_SAMPLES = 21  # reference-kernel runs per median, about 0.1 s
LAYER_REF_SAMPLES = 5  # reference-kernel runs right before each layer timing
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-rP"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_time(fn) -> float:
    """The best of ``REPEATS`` mean times of ``fn()``, in seconds, each over
    enough calls to take 0.2 s."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def layer_calls(workdir: Path) -> dict:
    """Name -> zero-argument call, for every layer timing."""
    import numpy as np

    from frogkit import (
        AmbiguityElement, BandlimitSpec, Signal, Spectrum, apply, dist_mod_group,
        frog_freq_coeffs, frog_trace, idft, io, ls_gradient, ls_objective, solve_generic,
        solve_real_centers,
    )
    from frogkit.cli import build_parser, main

    calls = {}
    for n in LAYER_SIZES:
        rng = np.random.default_rng(n)
        signal = Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        spectrum = Spectrum(np.fft.fft(signal.values))
        other = Spectrum(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        trace = frog_trace(signal, 1)
        band = BandlimitSpec(n // 4)
        values = np.zeros(n, dtype=complex)
        values[band.indices(n)] = rng.standard_normal(n // 4) + 1j * rng.standard_normal(n // 4)
        truth = Spectrum(values)
        moved = apply(AmbiguityElement(psi=1.0, shift=0.3), truth, band)
        start = Signal(signal.values + 0.1 * rng.standard_normal(n))
        # planted three-circle systems at the scale of a length-n trace
        z = complex(*rng.standard_normal(2)) * n
        generic = rng.standard_normal(3) * n + 1j * rng.standard_normal(3) * n
        real = rng.standard_normal(3) * n
        calls.update({
            f"frog_trace.n{n}": lambda s=signal: frog_trace(s, 1),
            f"frog_freq_coeffs.n{n}": lambda x=spectrum: frog_freq_coeffs(x, 1),
            f"dist_mod_group_integer.n{n}": lambda a=spectrum, b=other: dist_mod_group(a, b),
            f"dist_mod_group_banded.n{n}": lambda a=moved, b=truth, band=band: dist_mod_group(a, b, band),
            f"ls_objective_gradient.n{n}": lambda s=start, t=trace: (ls_objective(s, t), ls_gradient(s, t)),
            f"solve_generic.n{n}": lambda v=generic.tolist(), r=np.abs(z + generic).tolist():
                solve_generic(v, r),
            f"solve_real_centers.n{n}": lambda v=real.tolist(), r=np.abs(z + real).tolist():
                solve_real_centers(v, r),
        })

    n, b = 256, 8
    rng = np.random.default_rng(n)
    values = np.zeros(n, dtype=complex)
    values[:b] = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    signal = idft(Spectrum(values))
    trace = frog_trace(signal, 1)
    sig_path, trace_path = workdir / "signal.json", workdir / "trace.csv"
    io.write_signal(sig_path, signal)
    io.write_trace(trace_path, trace)

    def verify():
        with contextlib.redirect_stdout(stdio.StringIO()):
            assert main(["verify", "--signal", str(sig_path), "--l", "1", "--b", str(b)]) == 0

    calls.update({
        "solve_row.n64": solve_row_call(12),
        "solve_row_pair.n64": solve_row_call(13),
        **{f"recover.n{n}": recover_call(n) for n in (32, 64)},
        **{f"descend_basin.{per_cell}_per_cell": descend_call(per_cell) for per_cell in (1, 2, 10)},
        f"read_trace.n{n}": lambda: io.read_trace(trace_path, 1),
        f"write_trace.n{n}": lambda: io.write_trace(workdir / "written.csv", trace),
        "build_parser": build_parser,
        f"verify.n{n}": verify,
    })
    return calls


def recursion_input(n: int):
    """The trace, band and settings of the first N = n ``recursion`` input
    (B = n/4, r = 4), drawn by perfbench's ``Recursion.make_input``."""
    from frogkit import frog_trace

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import Recursion

    workload = Recursion(None, SEED, "")
    _, signal, band = workload.make_input(Recursion.CYCLE.index(n))
    return frog_trace(signal, n // Recursion.R), band, workload.settings


def recover_call(n: int):
    """One whole ``recover`` of the first N = n ``recursion`` input."""
    from frogkit import recover

    trace, band, settings = recursion_input(n)
    return lambda: recover(trace, band, settings)


def solve_row_call(k: int):
    """One ``_solve_row`` at row k of the first N = 64 ``recursion`` input
    (B = 16, r = 4), on the branch ``recover`` returns: row 12 is a
    three-circle row, row 13 a two-circle (collinear) one."""
    import math

    from frogkit import recover
    from frogkit.recursive_recovery import _Branch, _columns, _solve_row
    from frogkit.signal_model import _roots_of_unity

    n, r = 64, 4
    trace, band, settings = recursion_input(n)
    report = recover(trace, band, settings)
    w, ms, row = _roots_of_unity(r).tolist(), _columns(k % r, r)[:3], trace.data[k].tolist()
    denoms = [1.0 + w[(k * m) % r] for m in ms]
    radii = [n * math.sqrt(row[m]) / abs(d) for m, d in zip(ms, denoms)]
    scale = 1.0 + max(radii)
    branch = _Branch(tuple(report.spectrum.values[:k].tolist()), (0.0,) * k)
    return lambda: _solve_row(branch, k, ms, w, denoms, radii, scale, 1e-7 * scale)


def descend_call(per_cell: int):
    """One whole ``_descend`` of the real stack that ``basin_experiment`` builds
    for the criterion-8 grid (N = 24, L = 1, 2, 4, 8, five sigmas, seed 2024)
    with ``per_cell`` trials per cell: 1 (the ``basin`` workload's stack shape)
    starts at K = 4 backtracking steps per kernel call, 2 at K = 2, 10 at K = 1."""
    import numpy as np

    from frogkit import LsOptions, Signal, frog_trace
    from frogkit.ls_solver import _descend, _draw_trial, _RealWorkspace

    n, l_values, sigmas = 24, (1, 2, 4, 8), (0.0, 0.25, 0.5, 1.0, 2.0)
    runs = [(i, j, t) for j in range(len(l_values))
            for i in range(len(sigmas)) for t in range(per_cell)]
    draws = [_draw_trial(n, sigmas[i], (2024, i, j, t)) for i, j, t in runs]
    steps = [l_values[j] for _, j, _ in runs]
    ws = _RealWorkspace(n)
    data = ws.stack(steps, [frog_trace(Signal(x), l).data for (x, _), l in zip(draws, steps)])
    starts = np.array([start for _, start in draws])
    return lambda: _descend(ws, starts, data, LsOptions())


def reference_kernel_ms(samples: int = REF_SAMPLES) -> float:
    """The median of ``samples`` runs of perfbench's fixed reference kernel,
    in ms, after its warm-up: the speed of the machine right now."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import speed

    speed.warm_up()
    return statistics.median(speed.reference_kernel() for _ in range(samples)) * 1e3


def layer_timings() -> dict:
    """Each layer's best time, after the reference kernel's time right before it."""
    metrics = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, fn in layer_calls(Path(tmp)).items():
            metrics[f"layer.{name}.ref_ms"] = metric(reference_kernel_ms(LAYER_REF_SAMPLES), "ms")
            metrics[f"layer.{name}"] = metric(best_time(fn) * 1e6, "us")
    return metrics


def perfbench(workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = {"command": cmd[1:], "exit_code": proc.returncode, "stderr": proc.stderr.strip()}
    with contextlib.suppress(IndexError, KeyError, ValueError):  # no result: the run failed
        out.update(info=json.loads(lines[-2])["info"], result=json.loads(lines[-1]))
    return out


def outcomes() -> dict:
    """The input counts, outcome counts and SHA-256 of every corpus of one
    ``bench/outcomes.py`` run, its basin CSV hash and its LS scale record; the
    per-input lists stay in that script's own file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outcomes.json"
        cmd = [sys.executable, "bench/outcomes.py", "--out", str(path)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        out = {"command": [cmd[1], "--out", "<temporary file>"], "exit_code": proc.returncode,
               "stderr": proc.stderr.strip()}
        with contextlib.suppress(OSError, KeyError, ValueError):  # no file: the run failed
            found = json.loads(path.read_text())
            out["corpora"] = {name: {key: corpus[key] for key in ("inputs", "counts", "sha256")}
                              for name, corpus in found.items()
                              if isinstance(corpus, dict) and "outcomes" in corpus}
            out["basin_csv"] = found["basin_csv"]
            out["ls_scales"] = found["ls_scales"]
    return out


def tier1() -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = re.findall(r"^criterion \d+ (?:PASS|FAIL): .*$", proc.stdout, re.MULTILINE)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    record = {"command": ["python", *TIER1], "exit_code": proc.returncode,
              "summary": summary, "acceptance": lines}
    metrics = {"tier1.wall_s": metric(wall, "s")}
    for number, pattern in ((8, r"^criterion 8 .*, (\d+)s$"), (3, r"^criterion 3 .* in ([\d.]+)s,")):
        found = re.search(pattern, proc.stdout, re.MULTILINE)
        if found:
            metrics[f"tier1.criterion_{number}_s"] = metric(float(found.group(1)), "s")
    return record, metrics


def git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    import numpy as np

    blas = None
    with contextlib.suppress(Exception):  # the build record differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--seconds", type=float, default=20.0, help="perfbench seconds per workload (default 20)")
    p.add_argument("--tier1", type=int, choices=(0, 1), default=1, help="run the tier-1 tests (default 1)")
    p.add_argument("--out", type=Path, default=None, help="output path (default BENCH_<pr>.json at the root)")
    args = p.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads, as in perfbench
    sys.path.insert(0, str(SRC))
    started = time.monotonic()
    metrics = {"reference_kernel.start_ms": metric(reference_kernel_ms(), "ms")}
    metrics.update(layer_timings())
    runs = {w: perfbench(w, args.seconds) for w in WORKLOADS}
    for w, run in runs.items():
        for name, m in run.get("result", {}).get("metrics", {}).items():
            metrics[f"perfbench.{w}.{name}"] = m
    record = {}
    if args.tier1:
        record, tier1_metrics = tier1()
        metrics.update(tier1_metrics)
    same_results = outcomes()
    metrics["reference_kernel.end_ms"] = metric(reference_kernel_ms(), "ms")
    metrics["src_lines"] = metric(
        sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))), "lines")
    metrics["bench.wall_s"] = metric(time.monotonic() - started, "s")

    status = git("status", "--porcelain", "--untracked-files=no")
    bench = {
        "schema": 1,
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "machine": machine(),
        "settings": {"seed": SEED, "seconds": args.seconds, "repeats": REPEATS,
                     "ref_samples": REF_SAMPLES, "layer_ref_samples": LAYER_REF_SAMPLES},
        "metrics": metrics,
        "perfbench": runs,
        "tier1": record,
        "outcomes": same_results,
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    ok = all(run["exit_code"] == 0 for run in runs.values())
    ok = ok and (not args.tier1 or record["exit_code"] == 0)
    ok = ok and same_results["exit_code"] == 0
    ok = ok and all(key in same_results for key in ("basin_csv", "ls_scales"))
    print(f"wrote {out} in {metrics['bench.wall_s']['value']:.0f} s ({'ok' if ok else 'FAILED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
