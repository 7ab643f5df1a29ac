"""Spans around the calls into each frogkit module, and the layer metrics
computed from them.

A span records one call across a module boundary: its name, start, end, the
id of the span it ran inside (-1 at the top) and the operation it belongs to.
Spans stay in memory until the run ends.  Wrappers replace module attributes,
so they only see calls that look the name up at call time; that is how every
boundary listed in ``install`` is reached (each frogkit module binds the names
it imports as module globals).

Only the traced worker process installs a tracer.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import statistics
from time import perf_counter

# (module, attribute, span name) for boundaries inside the library.  Span
# names are "<layer>.<function>"; dist_mod_group is split by whether a band
# was given, because the two paths share nothing but the entry point.
INNER_BOUNDARIES = [
    ("frogkit.ls_solver", "ls_minimize", "ls_solver.ls_minimize"),
    ("frogkit.ls_solver", "frog_trace", "signal_model.frog_trace"),
    ("frogkit.ls_solver", "dist_mod_group", "ambiguities.dist_mod_group"),
    ("frogkit.recursive_recovery", "solve_generic", "circle_solver.solve_generic"),
    ("frogkit.recursive_recovery", "solve_real_centers", "circle_solver.solve_real_centers"),
    ("frogkit.cli", "recover", "recursive_recovery.recover"),
    ("frogkit.cli", "frog_trace", "signal_model.frog_trace"),
    ("frogkit.cli", "trace_invariant", "ambiguities.trace_invariant"),
    ("frogkit.ambiguities", "frog_trace", "signal_model.frog_trace"),
]

# Calls the benchmark makes itself, by the attribute of its library namespace.
OWN_CALLS = {
    "basin_experiment": "ls_solver.basin_experiment",
    "frog_trace": "signal_model.frog_trace",
    "recover": "recursive_recovery.recover",
    "dist_mod_group": "ambiguities.dist_mod_group",
    "cli_main": "cli.main",
}


def _dist_name(args, kwargs):
    band = args[2] if len(args) > 2 else kwargs.get("band")
    return "ambiguities.dist_mod_group_" + ("integer" if band is None else "banded")


def _ls_minimize_info(fn):
    sig = inspect.signature(fn)

    def info(result, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        _, objective, iters = result
        return {
            "iters": int(iters),
            "capped": int(iters) >= bound.arguments["opts"].max_iters,
            "finite": math.isfinite(objective),
        }

    return info


def _kind_info(result, args, kwargs):
    return {"kind": result.kind}


def _recover_info(result, args, kwargs):
    return {"reads": int(result.measurement_reads)}


def _bytes_info(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Per span name: given the wrapped function, what to record from its result.
_INFO = {
    "ls_solver.ls_minimize": _ls_minimize_info,
    "circle_solver.solve_generic": lambda fn: _kind_info,
    "circle_solver.solve_real_centers": lambda fn: _kind_info,
    "recursive_recovery.recover": lambda fn: _recover_info,
    "io.write_trace": lambda fn: _bytes_info,
}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = None

    def _wrap(self, fn, name, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = len(tracer.spans)
            span = {
                "id": sid,
                "name": span_name,
                "parent": tracer._stack[-1] if tracer._stack else -1,
                "op": tracer.op,
                "raised": True,
            }
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["raised"] = False
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if info is not None:
                span["info"] = info(result, args, kwargs)
            return result

        return wrapper

    def _patch(self, obj, attr, name, info=None):
        original = getattr(obj, attr)
        self._restore.append((obj, attr, original))
        setattr(obj, attr, self._wrap(original, name, info))

    def install(self, lib, modules):
        """Wrap the benchmark's own calls (attributes of ``lib``) and the
        library's module boundaries.  ``modules`` maps module names to the
        imported modules."""
        io = modules["frogkit.io"]
        boundaries = [(lib, attr, name) for attr, name in OWN_CALLS.items()]
        boundaries += [(modules[m], attr, name) for m, attr, name in INNER_BOUNDARIES]
        boundaries += [
            (io, attr, f"io.{attr}")
            for attr, fn in vars(io).items()
            if inspect.isfunction(fn) and fn.__module__ == io.__name__ and not attr.startswith("_")
        ]
        for obj, attr, name in boundaries:
            fn = getattr(obj, attr)
            info = _INFO[name](fn) if name in _INFO else None
            self._patch(obj, attr, _dist_name if name == "ambiguities.dist_mod_group" else name, info)

    def uninstall(self):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def write(self, path, t0: float):
        """Write the spans as JSON lines, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - t0, end=span["end"] - t0)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Calls are single-threaded and strictly nested, so the direct children of
    a span never overlap and their durations simply add up.
    """
    index = {span["id"]: i for i, span in enumerate(spans)}
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = index.get(span["parent"])
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own


# Layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "ls_solver.basin_experiment.self_s": "s",
    "ls_solver.ls_minimize.calls": "count",
    "ls_solver.ls_minimize.self_s": "s",
    "ls_solver.descent_iters": "count",
    "ls_solver.capped": "count",
    "ls_solver.nonfinite": "count",
    "ambiguities.dist_mod_group_integer.calls": "count",
    "ambiguities.dist_mod_group_integer.self_s": "s",
    "ambiguities.dist_mod_group_integer.us_p50": "us",
    "ambiguities.dist_mod_group_banded.calls": "count",
    "ambiguities.dist_mod_group_banded.self_s": "s",
    "ambiguities.dist_mod_group_banded.us_p50": "us",
    "ambiguities.trace_invariant.self_s": "s",
    "recursive_recovery.recover.calls": "count",
    "recursive_recovery.recover.self_s": "s",
    "recursive_recovery.recover.us_p50": "us",
    "recursive_recovery.reads": "count",
    "recursive_recovery.raised": "count",
    "circle_solver.solve_generic.calls": "count",
    "circle_solver.solve_generic.self_s": "s",
    "circle_solver.solve_real_centers.calls": "count",
    "circle_solver.solve_real_centers.self_s": "s",
    "circle_solver.unique": "count",
    "circle_solver.pair": "count",
    "circle_solver.none": "count",
    "circle_solver.none_frac": "fraction",
    "io.write_trace.self_s": "s",
    "io.read_trace.self_s": "s",
    "io.signal.self_s": "s",
    "io.write_report.self_s": "s",
    "io.self_s": "s",
    "io.trace_bytes": "bytes",
    "signal_model.frog_trace.calls": "count",
    "signal_model.frog_trace.self_s": "s",
    "signal_model.frog_trace.us_p50": "us",
    "cli.main.self_s": "s",
    "trace.spans": "count",
}

# Layer metrics that are exact counts: they must repeat exactly for the same
# inputs, which is how the benchmark checks its own determinism.
COUNT_METRICS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def pass_metrics(spans: list[dict], scale: float = 1.0) -> dict[str, float]:
    """Layer metrics of one pass over the traced operations, with times
    multiplied by ``scale`` (see speed.py)."""
    own = [t * scale for t in self_times(spans)]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, t in zip(spans, own):
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + t

    def infos(name):
        return [s.get("info", {}) for s in spans if s["name"] == name and not s["raised"]]

    descents = infos("ls_solver.ls_minimize")
    kinds = [i["kind"] for n in ("solve_generic", "solve_real_centers")
             for i in infos(f"circle_solver.{n}")]
    solves = len(kinds)
    out = {
        "ls_solver.descent_iters": sum(i["iters"] for i in descents),
        "ls_solver.capped": sum(i["capped"] for i in descents),
        "ls_solver.nonfinite": sum(not i["finite"] for i in descents),
        "recursive_recovery.reads": sum(i["reads"] for i in infos("recursive_recovery.recover")),
        "recursive_recovery.raised": sum(
            s["raised"] for s in spans if s["name"] == "recursive_recovery.recover"
        ),
        "circle_solver.unique": kinds.count("unique"),
        "circle_solver.pair": kinds.count("pair"),
        "circle_solver.none": kinds.count("none"),
        "circle_solver.none_frac": kinds.count("none") / solves if solves else 0.0,
        "io.signal.self_s": self_s.get("io.read_signal", 0.0) + self_s.get("io.write_signal", 0.0),
        "io.self_s": sum(t for name, t in self_s.items() if name.startswith("io.")),
        "io.trace_bytes": sum(i["bytes"] for i in infos("io.write_trace")),
        "trace.spans": len(spans),
    }
    for metric in LAYER_UNITS:
        if metric in out:
            continue
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(name, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(name, 0.0)
        elif stat == "us_p50":
            durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
            out[metric] = statistics.median(durs) * 1e6 * scale if durs else 0.0
    return out
