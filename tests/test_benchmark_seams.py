"""The library names the benchmark scripts reach still exist.

``perfbench/tracing.py`` replaces module globals of frogkit by name and
``bench/trajectory.py`` records the arguments of private ones; a rename
would otherwise surface only as a failed benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frogkit import LsOptions
from frogkit.ls_solver import ls_minimize

ROOT = Path(__file__).resolve().parent.parent


def _script(path: Path, name: str):
    """The script at ``path`` loaded as module ``name``; skips if it is absent."""
    if not path.exists():
        pytest.skip(f"{path.relative_to(ROOT)} is absent")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _script(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")  # the standard library only


def test_every_inner_boundary_resolves(tracing):
    assert tracing.INNER_BOUNDARIES
    for module, attr, _ in tracing.INNER_BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_ls_minimize_takes_opts_with_an_iteration_cap(tracing):
    # the tracer binds the call's arguments and reads opts.max_iters
    opts = inspect.signature(ls_minimize).parameters["opts"]
    assert opts.default.max_iters == LsOptions().max_iters


def test_bench_layer_calls_build_on_the_library_arguments(monkeypatch):
    if not (ROOT / "perfbench").exists():
        pytest.skip("perfbench/ is absent")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # the recursion inputs
    trajectory = _script(ROOT / "bench" / "trajectory.py", "bench_trajectory")
    assert callable(trajectory.descend_call(1))
    for k in (12, 13):  # solve_row.n64 and solve_row_pair.n64
        children = trajectory.solve_row_call(k)()
        assert children and all(len(child.coeffs) == k + 1 for child in children)
