"""frogkit benchmark: one command, three workloads, end-to-end and layer metrics.

    python3 perfbench/run.py --workload {basin,recursion,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  Every process it starts is a worker (worker.py)
with the BLAS/OpenMP thread counts pinned to 1.  Standard output ends with
one JSON line {"correct", "attempted", "failed", "metrics"}; the line before
it records the machine, the run's details and the workload's own metric
names.  The exit code is 0 when every output check passed, 1 when one
failed and 2 when the benchmark could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The timed run is split over this many fresh processes, one after another.
# Each also gives one set-up sample, and the split evens out what differs
# between processes (memory layout, hash seeds).
PARTS = 5
BUDGET_S = 170.0  # the whole command must end well within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "FROGKIT_THREADS")

# Per workload: what the generic end-to-end metrics mean, under the names
# the workload's own reports use.
WORKLOAD_NAMES = {
    "basin": {"throughput_per_s": "basin.trials_per_s",
              "latency_p50_ms": "basin.grid_p50_ms",
              "success_rate": "basin.success_rate"},
    "recursion": {"throughput_per_s": "recursion.recovered_per_s",
                  "latency_p50_ms": "recursion.op_p50_ms",
                  "success_rate": "recursion.recovered_frac"},
    "cli": {"throughput_per_s": "cli.roundtrips_per_s",
            "latency_p50_ms": "cli.roundtrip_p50_ms",
            "success_rate": "cli.passed_frac"},
}
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
                    "latency_p50_ms": "ms", "success_rate": "fraction"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


def worker(args, role: str, deadline: float, seconds: float, **extra) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {role} worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{role} worker did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 < q < 100."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def tail_percentiles(n: int) -> list[int]:
    """The 90th and 99th percentiles, where at least ten of n samples lie
    beyond them."""
    return [q for q in (90, 99) if n * (100 - q) / 100 >= 10]


def end_to_end(args, deadline) -> tuple[dict, dict]:
    parts = [worker(args, "timed", deadline, args.seconds / PARTS, part=k, parts=PARTS)
             for k in range(PARTS)]
    res = {key: sum(p[key] for p in parts)
           for key in ("attempted", "failed", "done", "rated", "successes")}
    for key in ("errors", "op_s", "raw_op_s"):
        res[key] = [x for p in parts for x in p[key]]
    res["misses"] = dict(sum((Counter(p["misses"]) for p in parts), Counter()))
    ms = [t * 1e3 for t in res["op_s"]]
    raw_ms = [t * 1e3 for t in res["raw_op_s"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "throughput_per_s": res["done"] / sum(res["op_s"]),
        "latency_p50_ms": statistics.median(ms),
        "success_rate": res["successes"] / res["rated"],
    }
    own = {WORKLOAD_NAMES[args.workload][k]: {"value": v, "unit": END_TO_END_UNITS[k]}
           for k, v in values.items() if k != "setup_s"}
    for q in tail_percentiles(len(ms)):
        own[WORKLOAD_NAMES[args.workload]["latency_p50_ms"].replace("p50", f"p{q}")] = {
            "value": percentile(ms, q), "unit": "ms"}
    raw = {"throughput_per_s": res["done"] / sum(res["raw_op_s"]),
           "latency_p50_ms": statistics.median(raw_ms),
           "setup_s": statistics.median(p["raw_setup_s"] for p in parts)}
    info = {"operations": len(ms), "workload_metrics": own, "uncalibrated": raw,
            "machine_speed": sum(res["raw_op_s"]) / sum(res["op_s"]),
            "misses": res["misses"], "machine": parts[0]["machine"]}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return res | {"metrics": metrics}, info


def per_layer(args, deadline) -> tuple[dict, dict]:
    # Untraced and traced passes over the same operations, each in its own
    # process, so the wrappers never run in the process the baseline comes from.
    plain = worker(args, "passes", deadline, args.seconds / 2)
    traced = worker(args, "passes", deadline, args.seconds / 2, traced=1)
    # Medians of the scaled passes: the minimum would pick out the pass whose
    # speed sample happened to read fastest.
    base_s = statistics.median(plain["pass_s"])
    traced_s = statistics.median(traced["pass_s"])
    layer = dict(traced["layer"], **{"trace.overhead_frac": 1.0 - base_s / traced_s,
                                     "trace.pass_s": base_s})
    units = dict(tracing.LAYER_UNITS, **{"trace.overhead_frac": "fraction", "trace.pass_s": "s"})
    metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    errors = plain["errors"] + traced["errors"]
    info = {"untraced_pass_s": plain["pass_s"], "traced_pass_s": traced["pass_s"],
            "uncalibrated": {"untraced_pass_s": plain["raw_pass_s"],
                             "traced_pass_s": traced["raw_pass_s"]},
            "misses": traced["misses"],
            "spans_file": f"perfbench/out/spans-{args.workload}-{args.seed}.jsonl",
            "machine": traced["machine"]}
    return {"attempted": traced["attempted"], "failed": traced["failed"],
            "errors": errors, "metrics": metrics}, info


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOAD_NAMES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "frogkit" / "__init__.py").is_file():
        print(f"error: no frogkit sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        result, info = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(), platform=platform.platform(),
                src_lines=src_lines(), errors=result["errors"])
    correct = not result["errors"]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
