"""Discrete SHG-FROG toolkit: forward model, symmetry group, entrywise
recursive recovery, and nonconvex least squares."""

from .ambiguities import AmbiguityElement, apply, dist_mod_group, trace_invariant
from .circle_solver import (
    CircleSolution,
    ratio_is_nonreal,
    solve_generic,
    solve_real_centers,
)
from .errors import (
    AmbiguousBranchError,
    DegenerateSignalError,
    DegenerateSystemError,
    FrogkitError,
    InconsistentTraceError,
    InvalidParametersError,
    InvalidUseError,
    UnderdeterminedSystemError,
)
from .ls_solver import (
    BasinGrid,
    LsOptions,
    basin_experiment,
    ls_gradient,
    ls_minimize,
    ls_objective,
)
from .recursive_recovery import (
    RecoveryReport,
    RecoverySettings,
    recover,
)
from .signal_model import (
    BandlimitSpec,
    FrogTrace,
    Signal,
    Spectrum,
    dft,
    frog_freq_coeffs,
    frog_trace,
    idft,
)

__all__ = [
    "AmbiguityElement",
    "AmbiguousBranchError",
    "BandlimitSpec",
    "BasinGrid",
    "CircleSolution",
    "DegenerateSignalError",
    "DegenerateSystemError",
    "FrogkitError",
    "FrogTrace",
    "InconsistentTraceError",
    "InvalidParametersError",
    "InvalidUseError",
    "LsOptions",
    "RecoveryReport",
    "RecoverySettings",
    "Signal",
    "Spectrum",
    "UnderdeterminedSystemError",
    "apply",
    "basin_experiment",
    "dft",
    "dist_mod_group",
    "frog_freq_coeffs",
    "frog_trace",
    "idft",
    "ls_gradient",
    "ls_minimize",
    "ls_objective",
    "ratio_is_nonreal",
    "recover",
    "solve_generic",
    "solve_real_centers",
    "trace_invariant",
]

__version__ = "0.1.0"
