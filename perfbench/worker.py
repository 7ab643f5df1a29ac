"""One benchmark process: set up a workload, then run it.

Started by run.py, never by hand.  Roles:

  timed   set up, then run the closed loop for --seconds without tracing,
          on operations --part, --part + --parts, --part + 2 --parts, ...
  passes  set up, then repeat a fixed prefix of operations for --seconds;
          with --traced 1 every pass is traced

The result is one JSON object on the last line of standard output.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here: before numpy or frogkit load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402  (installs nothing until asked)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAX_LOOP_S = 150.0  # a loop that has not reached its minimum work by now gives up


def set_up(name: str, seed: int, workdir: str):
    """Import the library, build the workload and warm it up."""
    import frogkit
    import workloads

    source = Path(frogkit.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"frogkit imported from {source}, not from {ROOT / 'src'}")
    wl = workloads.WORKLOADS[name](workloads.library(), seed, workdir)
    wl.warm_up()
    return wl


def run_op(wl, i, tracer=None, op_id=None):
    """Build, run and check operation i; returns (start, seconds, outcome).
    With a tracer, the operation's spans carry ``op_id``."""
    inp = wl.make_input(i)
    if tracer is not None:
        tracer.op = op_id
    t = perf_counter()
    result = wl.run(inp)
    dt = perf_counter() - t
    if tracer is not None:
        tracer.op = None
    return t, dt, wl.score(i, inp, result)


def totals(outcomes):
    whys = [o.why for o in outcomes if o.why]
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "done": sum(o.done for o in outcomes),
        "rated": sum(o.rated for o in outcomes),
        "successes": sum(o.successes for o in outcomes),
        "misses": {w: whys.count(w) for w in sorted(set(whys))},
        "errors": [e for o in outcomes for e in o.errors],
    }


def timed(wl, seconds: float, part: int, parts: int) -> dict:
    log = speed.SpeedLog()
    spans, outcomes = [], []
    min_ops = -(-wl.min_ops // parts)
    start = perf_counter()
    while len(outcomes) < min_ops or perf_counter() - start < seconds:
        if perf_counter() - start > MAX_LOOP_S:
            raise SystemExit(f"{wl.name}: {len(outcomes)} operations in {MAX_LOOP_S} s")
        log.sample()
        t, dt, outcome = run_op(wl, part + parts * len(outcomes))
        spans.append((t, dt))
        outcomes.append(outcome)
    log.sample(force=True)
    result = totals(outcomes)
    if part == 0:
        result["errors"] += wl.recheck(outcomes)
    result.update(
        op_s=[dt * log.scale(t, t + dt) for t, dt in spans],
        raw_op_s=[dt for _, dt in spans],
    )
    return result


def passes(wl, seconds: float, tracer) -> dict:
    """Run operations 0..pass_ops-1 over and over; every pass must give the
    same outcomes, and with a tracer the same layer counts."""
    pass_s, raw_pass_s, outcomes, keys, layer = [], [], [], [], []
    start = perf_counter()
    while len(pass_s) < 2 or perf_counter() - start < seconds:
        if perf_counter() - start > MAX_LOOP_S:
            raise SystemExit(f"{wl.name}: {len(pass_s)} passes in {MAX_LOOP_S} s")
        first_span = len(tracer.spans) if tracer else 0
        spent, these = 0.0, []
        before = speed.median_scale(3)
        for i in range(wl.pass_ops):
            _, dt, outcome = run_op(wl, i, tracer, len(pass_s) * wl.pass_ops + i)
            spent += dt
            these.append(outcome)
        scale = (before + speed.median_scale(3)) / 2
        pass_s.append(spent * scale)
        raw_pass_s.append(spent)
        outcomes += these
        keys.append([o.key for o in these])
        if tracer:
            layer.append(tracing.pass_metrics(tracer.spans[first_span:], scale))
    result = totals(outcomes)
    if any(k != keys[0] for k in keys):
        result["errors"].append("repeated passes over the same inputs gave different results")
    result.update(pass_s=pass_s, raw_pass_s=raw_pass_s)
    if tracer:
        counts = [{m: p[m] for m in tracing.COUNT_METRICS} for p in layer]
        if any(c != counts[0] for c in counts):
            result["errors"].append(f"layer counts differ between passes: {counts}")
        metrics = {m: statistics.median(p[m] for p in layer) for m in layer[0]}
        metrics.update(counts[0])
        result["layer"] = metrics
    return result


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("timed", "passes"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    args = p.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = set_up(args.workload, args.seed, workdir)
        setup_s = perf_counter() - T0
        speed.warm_up()
        result = {"setup_s": setup_s * speed.median_scale(), "raw_setup_s": setup_s}
        if args.role == "timed":
            result.update(timed(wl, args.seconds, args.part, args.parts))
        elif args.role == "passes":
            tracer = None
            if args.traced:
                tracer = tracing.Tracer()
                tracer.install(wl.lib, sys.modules)
            try:
                result.update(passes(wl, args.seconds, tracer))
            finally:
                if tracer:
                    tracer.uninstall()
                    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", T0)
        result["machine"] = machine()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
