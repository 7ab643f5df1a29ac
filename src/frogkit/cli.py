"""Command-line front end.

Subcommands: synthesize, trace, recover, experiment, verify.  Exit codes:
0 success, 1 recovery/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
# trace_invariant stays a name here for perfbench/tracing.py, which wraps it by name
from .ambiguities import AmbiguityElement, _trace_matches, trace_invariant  # noqa: F401
from .errors import FrogkitError, InvalidParametersError
from .ls_solver import LsOptions, basin_experiment, ls_minimize
from .recursive_recovery import RecoverySettings, recover
from .signal_model import _MAX_N, BandlimitSpec, Spectrum, _seed, _tolerance, dft, frog_trace, idft

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _synthesize(args) -> int:
    band = BandlimitSpec(args.b, args.start)
    if args.b > args.n // 2:
        raise InvalidParametersError(f"need b <= N/2 (b={args.b}, N={args.n})")
    if args.n > _MAX_N:
        raise InvalidParametersError(f"need N <= {_MAX_N} (got N={args.n})")
    rng = np.random.default_rng(_seed(args.seed))
    values = np.zeros(args.n, dtype=complex)
    idx = band.indices(args.n)
    values[idx] = rng.standard_normal(args.b) + 1j * rng.standard_normal(args.b)
    io.write_signal(args.out, idft(Spectrum(values)))
    print(f"wrote {args.out} (N={args.n}, b={args.b}, start={args.start}, seed={args.seed})")
    return EXIT_OK


def _trace(args) -> int:
    signal = io.read_signal(args.signal)
    io.write_trace(args.out, frog_trace(signal, args.l))
    print(f"wrote {args.out} (N={signal.n}, L={args.l})")
    return EXIT_OK


def _recover(args) -> int:
    _tolerance(args.tol, "--tol")
    for flag in {"recursive": ("--init", "--max-iters"), "ls": ("--power-spectrum",)}[args.mode]:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise InvalidParametersError(f"{flag} does not apply to --mode {args.mode}")
    trace = io.read_trace(args.trace, args.l)
    band = BandlimitSpec(args.b, args.start)
    if args.mode == "recursive":
        power = None
        if args.power_spectrum is not None:
            power = io.read_power_spectrum(args.power_spectrum)
        settings = RecoverySettings(
            r=trace.r,
            use_power_spectrum=power is not None,
            consistency_tol=args.tol,
        )
        report = recover(trace, band, settings, power)
        io.write_report(args.out, report)
        worst = float(np.max(report.step_residuals))
        print(f"recovered {band.b} entries, max step residual {worst:.3e}")
        return EXIT_OK if report.success else EXIT_FAILURE
    # least-squares mode
    if args.init is None:
        raise InvalidParametersError("mode=ls needs --init (starting signal file)")
    z0 = io.read_signal(args.init)
    opts = LsOptions() if args.max_iters is None else LsOptions(max_iters=args.max_iters)
    z_fin, objective, iters = ls_minimize(z0, trace, opts)
    try:
        model = frog_trace(z_fin, args.l).data
    except InvalidParametersError:  # z_fin and L are valid: its trace overflowed
        model = np.inf
    mismatch = float(np.max(np.abs(model - trace.data)) / max(np.max(trace.data), 1e-300))
    success = mismatch <= args.tol
    io.write_ls_result(args.out, dft(z_fin), objective, iters, mismatch, success)
    print(f"descent finished: objective {objective:.6e}, trace mismatch {mismatch:.3e}")
    return EXIT_OK if success else EXIT_FAILURE


def _experiment(args) -> int:
    grid = basin_experiment(
        n=args.n,
        l_values=args.l_list,
        sigma_values=args.sigma_list,
        trials=args.trials,
        seed=args.seed,
    )
    io.write_basin_grid(args.out, grid)
    print(f"wrote {args.out} ({len(args.sigma_list)}x{len(args.l_list)} cells, {args.trials} trials each)")
    return EXIT_OK


def _verify(args) -> int:
    signal = io.read_signal(args.signal)
    xhat = dft(signal)
    n = xhat.n
    if n < 2:
        raise InvalidParametersError(f"verify needs a signal of N >= 2 samples (got N={n})")
    rng = np.random.default_rng(_seed(args.seed))
    psi = float(rng.uniform(0, 2 * np.pi))
    ell = int(rng.integers(1, n))
    checks = [
        ("rotation", AmbiguityElement(psi=psi), None, True),
        ("integer shift", AmbiguityElement(shift=float(ell)), None, True),
        ("reflection", AmbiguityElement(reflected=True), None, True),
    ]
    if args.b is not None:
        band = BandlimitSpec(args.b, args.start)
        band.indices(n)  # a band wider than N is a usage error before any verdict
        checks.append(("fractional shift", AmbiguityElement(shift=0.37), band, True))
    else:
        full = BandlimitSpec(n, 0)
        checks.append(("fractional shift (full band)", AmbiguityElement(shift=0.37), full, False))

    # the reference trace of every check, with trace_invariant's bits
    reference = frog_trace(idft(xhat), args.l).data
    failed = False
    for name, g, band, guaranteed in checks:
        ok = _trace_matches(reference, xhat, g, args.l, band)
        verdict = "invariant" if ok else "NOT invariant"
        note = "" if guaranteed else " (no guarantee without a bandlimit)"
        print(f"{name:28s} {verdict}{note}")
        if guaranteed and not ok:
            failed = True
    return EXIT_FAILURE if failed else EXIT_OK


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frogkit",
        description="Synthesize, transform and invert discrete SHG-FROG traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write a random bandlimited signal")
    p.add_argument("--n", type=int, required=True, help="signal length N")
    p.add_argument("--b", type=int, required=True, help="band width (nonzero spectrum entries)")
    p.add_argument("--start", type=int, default=0, help="band start index (default 0)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output signal JSON path")
    p.set_defaults(func=_synthesize)

    p = sub.add_parser("trace", help="write the trace of a signal as CSV")
    p.add_argument("--signal", required=True, help="input signal JSON path")
    p.add_argument("--l", type=int, required=True, help="shift step L (must divide N)")
    p.add_argument("--out", required=True, help="output trace CSV path")
    p.set_defaults(func=_trace)

    p = sub.add_parser("recover", help="recover a signal spectrum from a trace")
    p.add_argument("--trace", required=True, help="input trace CSV path")
    p.add_argument("--l", type=int, required=True, help="shift step L used for the trace")
    p.add_argument("--b", type=int, required=True, help="band width")
    p.add_argument("--start", type=int, default=0, help="band start index (default 0)")
    p.add_argument("--mode", choices=("recursive", "ls"), default="recursive")
    p.add_argument("--power-spectrum", default=None, help="power-spectrum JSON, recursive mode (needed for r=3)")
    p.add_argument("--init", default=None, help="starting signal JSON for mode=ls")
    p.add_argument("--tol", type=float, default=1e-6, help="success tolerance (default 1e-6)")
    p.add_argument("--max-iters", type=int, default=None, help="mode=ls iteration cap (default 2000)")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=_recover)

    p = sub.add_parser("experiment", help="success-rate grid of the descent")
    p.add_argument("--n", type=int, default=24, help="signal length N (default 24)")
    p.add_argument("--l-list", type=_int_list, default=(1, 2, 4, 8), help="comma-separated L values")
    p.add_argument(
        "--sigma-list",
        type=_float_list,
        default=(0.0, 0.25, 0.5, 1.0, 2.0),
        help="comma-separated perturbation sizes",
    )
    p.add_argument("--trials", type=int, default=100, help="trials per cell (default 100)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_experiment)

    p = sub.add_parser("verify", help="check trace invariance under the symmetry group")
    p.add_argument("--signal", required=True, help="input signal JSON path")
    p.add_argument("--l", type=int, required=True, help="shift step L")
    p.add_argument("--b", type=int, default=None, help="band width, if the signal is bandlimited")
    p.add_argument("--start", type=int, default=0, help="band start index (default 0)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random group elements")
    p.set_defaults(func=_verify)

    return parser


# one parser for every main call in the process, built on the first; its
# defaults are immutable, so the calls share nothing they could change
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if (l := getattr(args, "l", 1)) < 1:  # before any read, which would blame the file
            raise InvalidParametersError(f"--l must be >= 1 (got {l})")
        # overflow is an outcome here (a failed descent, a trace that is not
        # finite), reported by the exit code and its one line, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (InvalidParametersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FrogkitError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
