"""Same results as one command: the outcome of every corpus input, in one JSON file.

    python3 bench/outcomes.py --out PATH
    python3 bench/outcomes.py --compare A.json B.json

The library is imported from the ./src of the checkout this script sits in,
and the ``recursion`` inputs and the band draws of ``table`` come from that
checkout's perfbench/workloads.py.  To compare two checkouts, run a copy of
this script in each.  Corpora:

* ``recursion``: ``Recursion.make_input`` of seed 7 (inputs 0..449) and seed 8
  (inputs 0..1499), run as the workload runs them: ``frog_trace`` at r = 4,
  ``recover`` and the banded ``dist_mod_group`` against the truth;
* ``recursion_noisy``: the same inputs, with input i of seed s recovered from
  its trace times 1 + eps*u, u in {-1, 0, 1} per entry drawn by
  ``default_rng((s, i))``; ``changed`` lists each input whose outcome differs
  from ``recursion``'s as ``[s, i, clean outcome, noisy outcome]``;
* ``cli_shaped``: what ``frogkit synthesize --n 256 --b 8 --seed s`` writes,
  for s = 1..300, recovered at L = 1 with ``consistency_tol`` 1e-6 and scored
  against the DFT of the signal;
* ``cli_shaped_starts``: the same with ``--start`` 3, 250 and -7 in turn;
* ``table``: four routes (r = 4, r = 4 with the power spectrum, r = 8, r = 3
  with the power spectrum) at six sizes each, seeds 0..19 per cell, with
  B = N/4 (N/3 at r = 3), L = N/r and the default ``RecoverySettings``; the
  spectrum of seed s is ``band_spectrum(default_rng(s), N, B)``.
  ``recovered`` holds each route's count within 1e-6 per size;
* ``sweeps``: the same at r = 8 (N = 24, 64, 128, 256), r = 16 (N = 32, 64,
  128, 256) and r = 32 (N = 64, 128, 256), with B = N/4 (N/8 at r = 32),
  without the power spectrum; ``recovered`` as in ``table``;
* ``scales``: the N = 16, B = 4, r = 4 spectra of seeds 0..2 drawn as in
  ``table``, each trace multiplied by s = 16^k for k = -64, -60, ..., 64 and by
  1e-16, 1e250 and 1e-300, and each recovery scored against the truth times
  s^(1/4);
* ``basin_csv``: the SHA-256 of the seed-2024 criterion-8 grid as
  ``frogkit experiment --seed 2024`` writes it (N = 24, default lists, 100 trials);
* ``ls_scales``: the LS descent at scale s, not a corpus, since its results are
  descents: a complex N = 16, L = 4 truth and start drawn by ``default_rng(1)``,
  the start times s and the trace times s^4, 200 iterations; per s the
  iterations and the final objective over s^8.

Per input the outcome is ``recovered`` (within 1e-6 of the truth modulo the
group), ``missed`` (a report further away) or ``raised <type>``, with a digest
of every report field, or of the raise's type, message and step.  Per corpus
the file holds the counts, a SHA-256 over those fields in input order and the
per-input list.  ``--compare`` prints the inputs whose outcome or digest
differ, then one line per corpus with the inputs compared, the outcome changes
and the changes in report bits only, and exits 1 if any input, hash or
``ls_scales`` entry differs; a corpus that only one file holds is named and
skipped, so files without the later corpora still compare.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCURACY = 1e-6  # distance modulo the group that counts as a recovery
RECURSION_SEEDS = ((7, 450), (8, 1500))  # (workload seed, inputs)
CLI_N, CLI_B, CLI_SEEDS, CLI_TOL = 256, 8, range(1, 301), 1e-6
CLI_STARTS = (3, 250, -7)  # the band starts of ``cli_shaped_starts``
TABLE_ROUTES = {  # route: (r, with the power spectrum, B = N // this, sizes N)
    "r=4": (4, False, 4, (24, 64, 96, 128, 192, 256)),
    "r=4, power spectrum": (4, True, 4, (24, 64, 96, 128, 192, 256)),
    "r=8": (8, False, 4, (24, 64, 96, 128, 192, 256)),
    "r=3, power spectrum": (3, True, 3, (18, 48, 72, 96, 144, 192)),
}
SWEEP_ROUTES = {  # as TABLE_ROUTES
    "r=8": (8, False, 4, (24, 64, 128, 256)),
    "r=16": (16, False, 4, (32, 64, 128, 256)),
    "r=32": (32, False, 8, (64, 128, 256)),
}
TABLE_SEEDS = range(20)
SCALE_N, SCALE_B, SCALE_R, SCALE_SEEDS = 16, 4, 4, range(3)
SCALES = (*(16.0**k for k in range(-64, 65, 4)), 1e-16, 1e250, 1e-300)  # trace factors s
CORPORA = ("recursion", "recursion_noisy", "cli_shaped", "cli_shaped_starts", "table",
           "sweeps", "scales")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BASIN = dict(n=24, l_values=(1, 2, 4, 8), sigma_values=(0.0, 0.25, 0.5, 1.0, 2.0),
             trials=100, seed=2024)
LS_N, LS_L, LS_SEED, LS_ITERS = 16, 4, 1, 200
LS_SCALES = (2.0**-40, 2.0**-10, 1.0, 2.0**5, 300.0, 2.0**20, 2.0**100)  # start factors s


def _fields(result) -> bytes:
    """The bytes of every report field, or of a raise's type, message and step."""
    import numpy as np

    from frogkit import FrogkitError

    if isinstance(result, FrogkitError):
        fields = [type(result).__name__, str(result), repr(getattr(result, "step", None))]
    else:
        fields = [
            result.spectrum.values.tobytes().hex(),
            np.asarray(result.step_residuals, dtype=float).tobytes().hex(),
            repr(result.x3_branch),
            repr(None if result.x3_branch_residuals is None
                 else [float(v).hex() for v in result.x3_branch_residuals]),
            repr(sorted(result.equations_used.items())),
            repr(bool(result.success)),
            repr(int(result.measurement_reads)),
            float(result.tail_residual).hex(),
        ]
    return "\x1f".join(fields).encode() + b"\x1e"


def _corpus(results) -> dict:
    """Counts, corpus hash and per-input outcomes of ``(result, distance)`` pairs."""
    from frogkit import FrogkitError

    total, inputs, counts = hashlib.sha256(), [], Counter()
    for result, dist in results:
        if isinstance(result, FrogkitError):
            outcome = f"raised {type(result).__name__}"
        else:
            outcome = "recovered" if dist <= ACCURACY else "missed"
        counts[outcome] += 1
        data = _fields(result)
        total.update(data)
        inputs.append([outcome, hashlib.sha256(data).hexdigest()[:16]])
    return {"inputs": len(inputs), "counts": dict(sorted(counts.items())),
            "sha256": total.hexdigest(), "outcomes": inputs}


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def _scored(trace, band, settings, truth, power=None):
    """``(report, group distance to truth)`` of one ``recover``, or ``(raise, None)``."""
    from frogkit import FrogkitError, dist_mod_group, recover

    try:
        report = recover(trace, band, settings, power)
    except FrogkitError as exc:
        return exc, None
    return report, dist_mod_group(report.spectrum, truth, band)[0]


def recursion_results():
    workloads = _workloads()
    lib = workloads.library()
    for seed, count in RECURSION_SEEDS:
        work = workloads.Recursion(lib, seed, None)
        for i in range(count):
            yield work.run(work.make_input(i))


def recursion_noisy_results():
    import numpy as np

    from frogkit import FrogTrace, frog_trace

    workloads, eps = _workloads(), np.finfo(np.float64).eps
    for seed, count in RECURSION_SEEDS:
        work = workloads.Recursion(workloads.library(), seed, None)
        for i in range(count):
            xhat, signal, band = work.make_input(i)
            trace = frog_trace(signal, signal.n // work.R)
            u = np.random.default_rng((seed, i)).integers(-1, 2, size=trace.data.shape)
            yield _scored(FrogTrace(trace.data * (1 + eps * u), trace.l), band, work.settings, xhat)


def cli_shaped_results(starts=(0,)):
    import numpy as np

    from frogkit import BandlimitSpec, RecoverySettings, Spectrum, dft, frog_trace, idft

    settings = RecoverySettings(r=CLI_N, consistency_tol=CLI_TOL)
    for start in starts:
        band = BandlimitSpec(CLI_B, start)
        for seed in CLI_SEEDS:
            rng = np.random.default_rng(seed)  # as ``frogkit synthesize`` draws the band
            values = np.zeros(CLI_N, dtype=complex)
            values[band.indices(CLI_N)] = rng.standard_normal(CLI_B) + 1j * rng.standard_normal(CLI_B)
            signal = idft(Spectrum(values))
            yield _scored(frog_trace(signal, 1), band, settings, dft(signal))


def table_results(routes=TABLE_ROUTES):
    import numpy as np

    from frogkit import BandlimitSpec, RecoverySettings, frog_trace, idft

    workloads = _workloads()
    for r, power, per_b, sizes in routes.values():
        settings = RecoverySettings(r=r, use_power_spectrum=power)
        for n in sizes:
            band = BandlimitSpec(n // per_b)
            for seed in TABLE_SEEDS:
                xhat = workloads.band_spectrum(np.random.default_rng(seed), n, band.b)
                trace = frog_trace(idft(xhat), n // r)
                yield _scored(trace, band, settings, xhat, np.abs(xhat.values) ** 2 if power else None)


def scales_results():
    import numpy as np

    from frogkit import BandlimitSpec, FrogTrace, RecoverySettings, Spectrum, frog_trace, idft

    workloads, band = _workloads(), BandlimitSpec(SCALE_B)
    settings = RecoverySettings(r=SCALE_R)
    for seed in SCALE_SEEDS:
        xhat = workloads.band_spectrum(np.random.default_rng(seed), SCALE_N, SCALE_B)
        trace = frog_trace(idft(xhat), SCALE_N // SCALE_R)
        for s in SCALES:  # the trace is homogeneous of degree 4 in the signal
            truth = Spectrum(xhat.values * s**0.25)
            yield _scored(FrogTrace(trace.data * s, trace.l), band, settings, truth)


def _recovered(corpus: dict, routes: dict) -> dict:
    """Each route's count of inputs recovered within 1e-6, per size."""
    cells = iter(corpus["outcomes"])
    return {route: [sum(next(cells)[0] == "recovered" for _ in TABLE_SEEDS) for _ in sizes]
            for route, (*_, sizes) in routes.items()}


def basin_csv_sha256() -> str:
    from frogkit import basin_experiment, io

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        io.write_basin_grid(path, basin_experiment(**BASIN))
        return hashlib.sha256(path.read_bytes()).hexdigest()


def ls_scales() -> dict:
    """Iterations and f/s^8 of the LS descent from the start times s on the
    trace times s^4, for each s in ``LS_SCALES``."""
    import numpy as np

    from frogkit import FrogTrace, LsOptions, Signal, frog_trace, ls_minimize

    rng = np.random.default_rng(LS_SEED)
    trace = frog_trace(Signal(rng.standard_normal(LS_N) + 1j * rng.standard_normal(LS_N)), LS_L)
    start = rng.standard_normal(LS_N) + 1j * rng.standard_normal(LS_N)
    runs = []
    for s in LS_SCALES:
        with np.errstate(over="ignore", invalid="ignore"):  # as ``frogkit recover --mode ls``
            _, f, iters = ls_minimize(Signal(start * s), FrogTrace(trace.data * s**4, LS_L),
                                      LsOptions(max_iters=LS_ITERS))
        runs.append({"s": s, "iterations": iters, "f_over_s8": f / s**8})
    return {"n": LS_N, "l": LS_L, "seed": LS_SEED, "max_iters": LS_ITERS, "scales": runs}


def outcomes() -> dict:
    recursion, noisy = _corpus(recursion_results()), _corpus(recursion_noisy_results())
    keys = [(seed, i) for seed, count in RECURSION_SEEDS for i in range(count)]
    noisy["changed"] = [[*key, x[0], y[0]] for key, x, y in
                        zip(keys, recursion["outcomes"], noisy["outcomes"]) if x[0] != y[0]]
    table, sweeps = _corpus(table_results()), _corpus(table_results(SWEEP_ROUTES))
    table["recovered"] = _recovered(table, TABLE_ROUTES)
    sweeps["recovered"] = _recovered(sweeps, SWEEP_ROUTES)
    return {
        "schema": 1,
        "accuracy": ACCURACY,
        "recursion": recursion,
        "recursion_noisy": noisy,
        "cli_shaped": _corpus(cli_shaped_results()),
        "cli_shaped_starts": _corpus(cli_shaped_results(CLI_STARTS)),
        "table": table,
        "sweeps": sweeps,
        "scales": _corpus(scales_results()),
        "basin_csv": {"seed": BASIN["seed"], "sha256": basin_csv_sha256()},
        "ls_scales": ls_scales(),
    }


def compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """One line per input, corpus hash or ``ls_scales`` run that differs
    between two files, over the corpora both hold; and one summary line per
    such corpus."""
    lines, summary = [], []
    for name in [c for c in CORPORA if c in a and c in b]:
        changed = Counter()
        for i, (x, y) in enumerate(zip(a[name]["outcomes"], b[name]["outcomes"])):
            if x != y:
                what = "outcome" if x[0] != y[0] else "report bits"
                changed[what] += 1
                lines.append(f"{name} input {i}: {what}: {x[0]} -> {y[0]}")
        if a[name]["inputs"] != b[name]["inputs"]:
            lines.append(f"{name}: {a[name]['inputs']} -> {b[name]['inputs']} inputs")
        summary.append(f"{name}: {min(a[name]['inputs'], b[name]['inputs'])} inputs compared, "
                       f"{changed['outcome']} outcome changes, "
                       f"{changed['report bits']} changes in report bits only")
    if a["basin_csv"] != b["basin_csv"]:
        lines.append(f"basin_csv: {a['basin_csv']['sha256']} -> {b['basin_csv']['sha256']}")
    if "ls_scales" in a and "ls_scales" in b:
        for x, y in zip(a["ls_scales"]["scales"], b["ls_scales"]["scales"]):
            if x != y:
                lines.append(f"ls_scales s={x['s']!r}: {x['iterations']} -> {y['iterations']} "
                             f"iterations, f/s^8 {x['f_over_s8']!r} -> {y['f_over_s8']!r}")
    return lines, summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, help="output path of a run")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="print the inputs whose outcome or report bits differ between two files")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        for name in (*CORPORA, "ls_scales"):
            if (name in a) != (name in b):
                print(f"{name}: only in {args.compare[0] if name in a else args.compare[1]}, skipped")
            elif name in a and name in CORPORA:
                print(f"{name}: {a[name]['counts']} -> {b[name]['counts']}")
        lines, summary = compare(a, b)
        print("\n".join(lines) if lines else "no outcome, report digest or CSV hash differs")
        print("\n".join(summary))
        return 1 if lines else 0
    if args.out is None:
        p.error("give --out, or --compare A B")

    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads, as in perfbench
    sys.path.insert(0, str(ROOT / "src"))
    result = outcomes()
    args.out.write_text(json.dumps(result, sort_keys=True) + "\n")
    for name in CORPORA:
        print(f"{name}: {result[name]['counts']} sha256 {result[name]['sha256']}")
    print(f"recursion_noisy changed: {result['recursion_noisy']['changed']}")
    for name in ("table", "sweeps"):
        for route, recovered in result[name]["recovered"].items():
            print(f"{name} {route}: {recovered}")
    print(f"basin_csv: sha256 {result['basin_csv']['sha256']}")
    for run in result["ls_scales"]["scales"]:
        print(f"ls_scales s={run['s']!r}: {run['iterations']} iterations, f/s^8 {run['f_over_s8']!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
