"""File formats: JSON for complex vectors and reports, CSV for real grids.

Complex vectors (signals and spectra alike) are stored as
``{"n": N, "re": [...], "im": [...]}``.  Traces are CSV with header
``k,m,value`` in row-major order; floats carry 17 significant digits so
round-trips are exact.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .ambiguities import AmbiguityElement
from .errors import InvalidParametersError
from .ls_solver import BasinGrid
from .recursive_recovery import RecoveryReport
from .signal_model import FrogTrace, Signal, Spectrum

_FLOAT_FMT = "%.17g"
_TRACE_ROW = np.dtype([("k", np.intp), ("m", np.intp), ("value", np.float64)])


@contextmanager
def _parsing(path):
    """Report a file that cannot be parsed, or lacks a field, as a usage
    error naming the file."""
    try:
        yield
    except InvalidParametersError:
        raise
    except KeyError as exc:
        raise InvalidParametersError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParametersError(f"{path}: malformed file ({exc})") from exc


def _read_json(path) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise InvalidParametersError(f"{path}: expected a JSON object")
    return obj


def _vector_to_dict(values: np.ndarray) -> dict:
    return {
        "n": int(values.size),
        "re": [float(v) for v in values.real],
        "im": [float(v) for v in values.imag],
    }


def _vector_from_dict(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n,) or im.shape != (n,):
        raise InvalidParametersError("vector JSON lengths disagree with n")
    return re + 1j * im


def write_signal(path, signal: Signal):
    Path(path).write_text(json.dumps(_vector_to_dict(signal.values), sort_keys=True))


def read_signal(path) -> Signal:
    with _parsing(path):
        return Signal(_vector_from_dict(_read_json(path)))


def write_spectrum(path, spectrum: Spectrum):
    Path(path).write_text(json.dumps(_vector_to_dict(spectrum.values), sort_keys=True))


def read_spectrum(path) -> Spectrum:
    with _parsing(path):
        return Spectrum(_vector_from_dict(_read_json(path)))


def write_trace(path, trace: FrogTrace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "m", "value"])
        n, r = trace.data.shape
        for k in range(n):
            for m in range(r):
                writer.writerow([k, m, _FLOAT_FMT % trace.data[k, m]])


def read_trace(path, l: int) -> FrogTrace:
    rows = []
    with open(path, newline="") as fh, _parsing(path):
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header] != ["k", "m", "value"]:
            raise InvalidParametersError(f"unexpected trace CSV header: {header}")
        for k, m, value in reader:
            rows.append((int(k), int(m), float(value)))
        cells = np.fromiter(rows, dtype=_TRACE_ROW, count=len(rows))
    if not rows:
        raise InvalidParametersError("empty trace CSV")
    k, m = cells["k"], cells["m"]
    if k.min() < 0 or m.min() < 0:
        raise InvalidParametersError(f"{path}: negative trace index")
    n, r = int(k.max()) + 1, int(m.max()) + 1
    seen = np.zeros(len(rows), dtype=bool)
    if n * r == len(rows):
        seen[k * r + m] = True
    if not seen.all():  # with n*r rows, every cell then appears once
        raise InvalidParametersError(f"{path}: trace cells missing or repeated")
    data = np.empty((n, r))
    data[k, m] = cells["value"]
    return FrogTrace(data, l)


def write_power_spectrum(path, values: np.ndarray):
    arr = np.asarray(values, dtype=float)
    obj = {"n": int(arr.size), "values": [float(v) for v in arr]}
    Path(path).write_text(json.dumps(obj, sort_keys=True))


def read_power_spectrum(path) -> np.ndarray:
    with _parsing(path):
        obj = _read_json(path)
        arr = np.asarray(obj["values"], dtype=float)
        if arr.ndim != 1 or arr.size != int(obj["n"]):
            raise InvalidParametersError("power-spectrum JSON length disagrees with n")
    return arr


def element_to_dict(g: AmbiguityElement) -> dict:
    return {"psi": float(g.psi), "shift": float(g.shift), "reflected": bool(g.reflected)}


def element_from_dict(obj: dict) -> AmbiguityElement:
    return AmbiguityElement(
        psi=float(obj["psi"]), shift=float(obj["shift"]), reflected=bool(obj["reflected"])
    )


def report_to_dict(report: RecoveryReport) -> dict:
    return {
        "spectrum": _vector_to_dict(report.spectrum.values),
        "step_residuals": [float(v) for v in report.step_residuals],
        "x3_branch": report.x3_branch,
        "x3_branch_residuals": (
            None
            if report.x3_branch_residuals is None
            else [float(v) for v in report.x3_branch_residuals]
        ),
        "equations_used": {str(k): list(v) for k, v in report.equations_used.items()},
        "success": bool(report.success),
        "measurement_reads": int(report.measurement_reads),
        "tail_residual": float(report.tail_residual),
    }


def write_report(path, report: RecoveryReport):
    Path(path).write_text(json.dumps(report_to_dict(report), sort_keys=True, indent=2))


def write_ls_result(path, spectrum: Spectrum, objective: float, iterations: int,
                    trace_mismatch: float, success: bool):
    obj = {
        "spectrum": _vector_to_dict(spectrum.values),
        "final_objective": float(objective),
        "iterations": int(iterations),
        "trace_mismatch": float(trace_mismatch),
        "success": bool(success),
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2))


def write_basin_grid(path, grid: BasinGrid):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "L", "trials", "successes", "rate"])
        for i, sigma in enumerate(grid.sigma_values):
            for j, l in enumerate(grid.l_values):
                rate = grid.success_rate[i, j]
                writer.writerow(
                    [
                        _FLOAT_FMT % sigma,
                        int(l),
                        grid.trials,
                        int(round(rate * grid.trials)),
                        _FLOAT_FMT % rate,
                    ]
                )
