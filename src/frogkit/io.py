"""File formats: JSON for complex vectors and reports, CSV for real grids.

Complex vectors (signals and spectra alike) are stored as
``{"n": N, "re": [...], "im": [...]}`` with ``n`` a JSON integer.  A trace
is the header line ``k,m,value`` and then one line ``k,m,value`` per cell
in row-major order: decimal indices, the value as ``%.17g`` (so round-trips
are exact), every line ended by ``\r\n``; a row whose column r - m repeats
column m bit for bit reuses the text of that delay pair, with the same bytes.
The reader also takes ``\n`` or ``\r`` line ends, spaces around fields and
double-quoted fields, but no blank lines, comments or other cell order.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidParametersError
from .ls_solver import BasinGrid
from .recursive_recovery import RecoveryReport
from .signal_model import FrogTrace, Signal, Spectrum, _power_spectrum

_FLOAT_FMT = "%.17g"
_TRACE_ROW = np.dtype([("k", np.intp), ("m", np.intp), ("value", np.float64)])


@contextmanager
def _parsing(path):
    """Report every error of a read as a usage error that names the file once:
    a file that cannot be parsed, lacks a field or breaks a rule of its type."""
    try:
        yield
    except InvalidParametersError as exc:
        raise InvalidParametersError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise InvalidParametersError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParametersError(f"{path}: malformed file ({exc})") from exc


def _read_json(path) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise InvalidParametersError("expected a JSON object")
    return obj


def _vector_to_dict(values: np.ndarray) -> dict:
    return {
        "n": int(values.size),
        "re": [float(v) for v in values.real],
        "im": [float(v) for v in values.imag],
    }


def _json_count(n) -> int:
    if type(n) is not int:  # rejects floats, strings and bools (an int subclass)
        raise InvalidParametersError(f"'n' must be a JSON integer, got {n!r}")
    return n


def _vector_from_dict(obj: dict) -> np.ndarray:
    n = _json_count(obj["n"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n,) or im.shape != (n,):
        raise InvalidParametersError("vector JSON lengths disagree with n")
    values = np.empty(n, dtype=np.complex128)
    values.real, values.imag = re, im  # re + 1j*im would turn -0.0 into 0.0
    return values


def write_signal(path, signal: Signal):
    Path(path).write_text(json.dumps(_vector_to_dict(signal.values), sort_keys=True))


def read_signal(path) -> Signal:
    with _parsing(path):
        return Signal(_vector_from_dict(_read_json(path)))


def write_trace(path, trace: FrogTrace):
    # str(k).join(cells) is row k's template "k,0,%s\r\nk,1,%s\r\n...", filled with the
    # texts of m = 0..r//2, formatted by one % call, and of m > r//2: mirrored from r - m
    # where it repeats bit for bit (every frog_trace row), else formatted one by one.
    r, half, bits = trace.r, trace.r // 2 + 1, trace.data.view(np.uint64)
    mirrored = (bits[:, 1:] == bits[:, :0:-1]).all(axis=1).tolist()
    cells, left = ["", *(f",{m},%s\r\n" for m in range(r))], "\n".join([_FLOAT_FMT] * half)

    def row(k, values):
        strs = (left % tuple(values[:half])).split("\n")
        strs += strs[(r - 1) // 2 : 0 : -1] if mirrored[k] else [_FLOAT_FMT % v for v in values[half:]]
        return str(k).join(cells) % tuple(strs)

    with open(path, "w", newline="") as fh:
        fh.write("k,m,value\r\n")
        fh.writelines(row(k, values) for k, values in enumerate(trace.data.tolist()))


def read_trace(path, l: int) -> FrogTrace:
    with open(path) as fh, _parsing(path):
        header = [h.strip() for h in fh.readline().split(",")]
        if header != ["k", "m", "value"]:
            raise InvalidParametersError(f"unexpected trace CSV header: {header}")
        body = fh.read()
        if not body.strip():
            raise InvalidParametersError("empty trace CSV")
        lines = body.removesuffix("\n").split("\n")
        cells = np.loadtxt(lines, _TRACE_ROW, delimiter=",", quotechar='"', comments=None, ndmin=1)
        if len(cells) != len(lines):  # loadtxt skips blank lines
            raise InvalidParametersError("blank line in trace CSV")
        # cell i must be (i // r, i % r): r is the last cell's m + 1, at most the cell count
        r, i = min(int(cells["m"][-1]) + 1, len(cells)), np.arange(len(cells))
        if r < 1 or not (np.array_equal(cells["k"], i // r) and np.array_equal(cells["m"], i % r)):
            raise InvalidParametersError("trace cells missing, repeated or out of row-major order")
        return FrogTrace(cells["value"].reshape(-1, r), l)


def write_power_spectrum(path, values: np.ndarray):
    arr = _power_spectrum(values)
    obj = {"n": int(arr.size), "values": [float(v) for v in arr]}
    Path(path).write_text(json.dumps(obj, sort_keys=True))


def read_power_spectrum(path) -> np.ndarray:
    with _parsing(path):
        obj = _read_json(path)
        arr = _power_spectrum(obj["values"])
        if arr.size != _json_count(obj["n"]):
            raise InvalidParametersError("power-spectrum JSON length disagrees with n")
    return arr


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
    rows = (
        f"{_FLOAT_FMT % sigma},{int(l)},{grid.trials},"
        f"{int(round(rate * grid.trials))},{_FLOAT_FMT % rate}\r\n"
        for sigma, rates in zip(grid.sigma_values, grid.success_rate)
        for l, rate in zip(grid.l_values, rates)
    )
    with open(path, "w", newline="") as fh:
        fh.write("sigma,L,trials,successes,rate\r\n" + "".join(rows))
