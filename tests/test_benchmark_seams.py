"""The library names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` replaces module globals of frogkit by name; a
rename there would otherwise surface only as a failed benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frogkit import LsOptions
from frogkit.ls_solver import ls_minimize

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the standard library only
    return module


def test_every_inner_boundary_resolves(tracing):
    assert tracing.INNER_BOUNDARIES
    for module, attr, _ in tracing.INNER_BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_ls_minimize_takes_opts_with_an_iteration_cap(tracing):
    # the tracer binds the call's arguments and reads opts.max_iters
    opts = inspect.signature(ls_minimize).parameters["opts"]
    assert opts.default.max_iters == LsOptions().max_iters
