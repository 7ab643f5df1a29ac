"""Entrywise recovery of a bandlimited spectrum from its trace.

The bandlimit gives each trace row a triangular ("pyramid") structure: row k
mixes only band entries 0..k, so scanning rows in order determines the band
entry by entry.  Each step reduces to a circle-intersection system whose
offsets are built from already-recovered entries:

    | x0*z + v_m | = N * sqrt(trace[k, m]) / |1 + w^(k*m)|,   w = exp(2*pi*i/r)

with z the unknown entry and v_m the pyramid offset for column m.  Columns
with w^(k*m) = -1 carry no information about z and are skipped; columns m and
r-m duplicate each other and only one of the pair is used.  Each row reads
the first three columns left, the same ones on every branch.

Rows run on Python scalars.  ``_read_row`` is the one place a row's inputs
are formed, once for every branch.  Per branch, ``_row_sums`` forms the row's
sums over products of known entries, which are the offsets of a row that adds
an entry and the prediction of a row that only checks.

Gauge fixing absorbs the symmetry group: entries 0 and 1 of the band are made
real nonnegative (rotation and continuous translation), and the reflection
branch is fixed by requiring a nonnegative imaginary part at entry 2.

Row 3's offsets are collinear through the origin, so it always yields a
conjugate pair of candidates; the spurious one becomes inconsistent at row 4.
Any later row with only two usable columns likewise yields a pair, resolved
by consistency at the following rows (rows 2, 3 and these go through
``_solve_collinear``).  Rows past the band contain no unknown and act as pure
consistency checks.  All of this is handled uniformly by
carrying candidate branches forward and pruning those whose residual exceeds
the consistency tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle_solver import _COINCIDENT_TOL, solve_generic, solve_real_centers
from .errors import (
    AmbiguousBranchError,
    DegenerateSignalError,
    DegenerateSystemError,
    InconsistentTraceError,
    InvalidParametersError,
    UnderdeterminedSystemError,
)
from .signal_model import (
    BandlimitSpec, FrogTrace, Spectrum, _integer, _power_spectrum, _roots_of_unity, _tolerance,
)

_BRANCH_RATIO = 1e2  # pruning keeps candidates within this factor of the best
_FAIL_FACTOR = 1e3  # best branch above consistency_tol * this => inconsistent


@dataclass(frozen=True)
class RecoverySettings:
    """Knobs for the recursion.

    ``consistency_tol`` is a relative tolerance: every step residual is
    normalized by (1 + largest radius in that step's system).  Branch
    pruning is comparative (a candidate survives while within a factor 100
    of the best one, or under the tolerance outright), because residuals of
    the true branch degrade continuously as a signal approaches the
    non-generic set.
    """

    r: int
    use_power_spectrum: bool = False
    consistency_tol: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "r", _integer(self.r, "r"))
        if self.r < 3 or (self.r == 3 and not self.use_power_spectrum):
            raise InvalidParametersError(
                "need r >= 4, or r = 3 together with the power spectrum"
            )
        object.__setattr__(self, "consistency_tol", _tolerance(self.consistency_tol, "consistency_tol"))


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a recovery run.  Residuals are relative, and one
    tolerance bounds two scales: a step residual is divided by 1 + the
    largest radius of its row's system, the tail residual by 1 + the largest
    measured N*sqrt(trace) of its three columns.

    ``x3_branch`` names the surviving candidate of the entry-3 fork ("first"
    has the nonnegative imaginary part in the rotated frame, and is also the
    name when the pair collapsed to one point); None when the band is too
    short for a fork.  ``x3_branch_residuals`` holds each candidate's
    smallest residual at the row that separated them (inf for a candidate
    whose branches all raised there); None without a fork or if the pair
    collapsed.
    ``equations_used`` maps band-relative row index to the trace columns
    read for it, one plan for every branch, and ``measurement_reads``
    counts its cells.  ``success``: every step residual and the worst
    consistency row past the band (``tail_residual``) within tolerance.
    """

    spectrum: Spectrum
    step_residuals: np.ndarray
    x3_branch: str | None
    x3_branch_residuals: tuple[float, float] | None
    equations_used: dict[int, list[int]]
    success: bool
    measurement_reads: int
    tail_residual: float


@functools.lru_cache(maxsize=None)
def _columns(k: int | None, r: int) -> tuple[int, ...]:
    """One column per duplicate pair {m, r-m}, the smaller; for k not None
    also without row k's degenerate ones, those with w^(k*m) = -1, which say
    nothing about row k's entry (degeneracy depends on k only through k mod r,
    and m and r-m are degenerate together: 2k(r-m) - r = -(2km - r) mod 2r)."""
    return tuple(m for m in range(r // 2 + 1) if k is None or (2 * k * m - r) % (2 * r))


@functools.lru_cache(maxsize=128)  # every row of a recursion with b <= 64
def _twiddles(r: int, lo: int, top: int, ms) -> tuple[tuple[complex, ...], ...]:
    """Per column m of ``ms``, the phases ``w^(j*m)`` of ``_roots_of_unity(r)``, j = lo..top."""
    w = _roots_of_unity(r).tolist()
    return tuple(tuple(w[(j * m) % r] for j in range(lo, top + 1)) for m in ms)


def _row_sums(coeffs, k: int, ms, w) -> list[complex]:
    """Row k's sums ``sum_j x_j * x_(k-j) * w^(j*m)`` over every product of
    two known entries ``coeffs``, one per column m of the tuple ``ms``.  With
    entries 0..k-1 known, the sum over 1 + w^(k*m) is the offset v_m of entry
    k; with the whole band known (k >= b) the sum is the row's prediction."""
    top = len(coeffs) - 1
    lo = k - top
    q = [coeffs[j] * coeffs[k - j] for j in range(lo, top + 1)]
    return [sum(map(operator.mul, q, row), 0j) for row in _twiddles(len(w), lo, top, ms)]


class _Branch(NamedTuple):
    coeffs: tuple[complex, ...]
    residuals: tuple[float, ...]
    x3_choice: int | None = None

    def extended(self, z, res, x3_choice=None):
        """This branch with one more row read: entry ``z`` appended, or none
        for a consistency row."""
        return _Branch(
            self.coeffs if z is None else self.coeffs + (complex(z),),
            self.residuals + (float(res),),
            self.x3_choice if x3_choice is None else x3_choice,
        )


def _solve_collinear(offsets, radii, point, direction, tol) -> tuple[tuple[complex, ...], float]:
    """Solve ``|z + v_i| = n_i`` with the offsets on the line ``point + t * direction``.

    In the frame ``w = (z + point) / u``, ``u = direction / |direction|``, the
    offsets ``(v_i - point) / u`` are real: ``solve_real_centers`` gives the
    pair there.  Returns its candidates mapped back, ``Im w >= 0`` first (one
    if they map to one point), and its residual: all that the recursion reads,
    so no second ``CircleSolution`` is built.  Coincident offsets or offsets
    off the line raise ``DegenerateSystemError``."""
    if max([abs(v - offsets[0]) for v in offsets]) <= _COINCIDENT_TOL * (1.0 + max(radii)):
        raise DegenerateSystemError("coincident offsets")
    # rounds as numpy's complex / real did; the recursion amplifies the last bit
    u = direction * (1.0 / abs(direction))
    rotated = [(v - point) / u for v in offsets]
    if max([abs(w.imag) for w in rotated]) > 1e-9 * (1.0 + max(map(abs, rotated))):
        raise DegenerateSystemError("offsets are not on the given line")
    # the module global, as for every solve here, so that a wrapper sees the call
    sol = solve_real_centers([w.real for w in rotated], radii, tol=tol)
    return tuple(dict.fromkeys([w * u - point for w in sol.candidates])), sol.residual


def _solve_row(branch, k, ms, w, denoms, radii, scale, tol):
    """Candidate continuations of one branch at row k, from the row's inputs as
    ``_read_row`` forms them (the last radius past ``ms`` is the power-spectrum
    circle).  Children above tolerance are produced too; the caller prunes."""
    coeffs = branch.coeffs
    x0 = coeffs[0].real
    offsets = [v / d for v, d in zip(_row_sums(coeffs, k, ms, w), denoms)]
    offsets += [0j] * (len(radii) - len(ms))

    if len(offsets) >= 3 and k > 3:
        sol = solve_generic(offsets, radii, tol=tol)
        zs, res = sol.candidates, sol.residual
    else:
        # collinear offsets: row 2's are real, row 3's lie on the line through
        # the origin along x2 (which ``recover`` checked), and two circles always are
        if k == 2:
            point, direction = 0j, 1.0 + 0j
        elif k == 3:
            point, direction = 0j, coeffs[2]
        else:
            point, direction = offsets[0], offsets[1] - offsets[0]
        zs, res = _solve_collinear(offsets, radii, point, direction, tol)
    # row 2 keeps its pair's first point (Im >= 0: the reflection gauge); row 3 forks
    return [branch.extended(z / x0, res / scale, x3_choice=idx if k == 3 else None)
            for idx, z in enumerate(zs[:1] if k == 2 else zs)]


def _check_row(branch, k, ms, w, meas, scale):
    """The branch with row k >= b read as a pure consistency check: its
    mismatch against the measured N*sqrt(trace) ``meas`` of the columns
    ``ms``, over ``scale``, is the row's residual."""
    mismatch = [abs(abs(v) - mag) for v, mag in zip(_row_sums(branch.coeffs, k, ms, w), meas)]
    return branch.extended(None, max(0.0, *mismatch) / scale)


def _read_row(branches, k, b, ms, row, n, w, tol, ps_radii=None):
    """Row k read on every branch: a band row (k < b) gives ``_solve_row``'s
    children and the errors of degenerate branches, a row past the band one
    ``_check_row`` child per branch.  The one place a row's inputs are formed
    from trace ``row`` at the columns ``ms``: N*sqrt(trace), 1 + w^(km), the
    radii (with the circle ``ps_radii[k]`` from row 4 on), scale and tolerance."""
    if k >= b:
        meas = [n * math.sqrt(row[m]) for m in ms]
        scale = 1.0 + max(meas)
        return [_check_row(br, k, ms, w, meas, scale) for br in branches], []
    denoms = [1.0 + w[(k * m) % len(w)] for m in ms]
    radii = [n * math.sqrt(row[m]) / abs(d) for m, d in zip(ms, denoms)]
    if ps_radii is not None and k > 3:
        radii.append(ps_radii[k])
    scale = 1.0 + max(radii)
    children, errors = [], []
    for br in branches:
        try:
            children.extend(_solve_row(br, k, ms, w, denoms, radii, scale, tol * scale))
        except (DegenerateSystemError, UnderdeterminedSystemError) as exc:
            errors.append(exc)
    return children, errors


def recover(
    trace: FrogTrace,
    band: BandlimitSpec,
    settings: RecoverySettings,
    power_spectrum: np.ndarray | None = None,
) -> RecoveryReport:
    """Recover the band entries of a spectrum from its trace.

    The power spectrum (squared spectrum magnitudes at every physical index)
    is required for r = 3 and optional otherwise, and is given exactly when
    ``settings.use_power_spectrum`` is set; it contributes one extra circle
    centered at the origin per row from 4 on.
    """
    n, r, b = trace.n, trace.r, band.b
    if settings.r != r:
        raise InvalidParametersError(f"settings r={settings.r} but trace has r={r}")
    if b > n // 2:
        raise InvalidParametersError(f"recovery requires b <= N/2 (b={b}, N={n})")
    if power_spectrum is not None and not settings.use_power_spectrum:
        raise InvalidParametersError("a power spectrum was given: set use_power_spectrum")
    if settings.use_power_spectrum:
        if power_spectrum is None:
            raise InvalidParametersError("settings request a power spectrum: none given")
        power_spectrum = _power_spectrum(power_spectrum)
        if power_spectrum.size != n:
            raise InvalidParametersError("power spectrum must have length N")
    if r == 3:
        # the two shift columns are reflections of each other and must agree
        gap = float(np.max(np.abs(trace.data[:, 1] - trace.data[:, 2])))
        if gap > 1e-10 * max(float(np.max(trace.data)), 1e-300):
            raise InvalidParametersError(
                "columns 1 and 2 of an r=3 trace must be equal (reflected shifts)"
            )

    # band row k is trace row k + 2*start: the demodulation that moves the
    # band to index 0 shifts the trace rows cyclically by 2*start
    w = _roots_of_unity(r).tolist()
    rows = trace.data[(np.arange(2 * b - 1) + (2 * band.start) % n) % n].tolist()
    peak = float(np.max(trace.data))
    if peak <= 0.0:
        raise DegenerateSignalError("trace is identically zero")
    amp_scale = float(np.sqrt(n * np.sqrt(peak)))
    # trace entries are squared magnitudes, so a coefficient that is zero up
    # to float noise surfaces at the sqrt(eps) scale, not at eps
    tiny = 1e-7 * amp_scale

    x0 = math.sqrt(n * math.sqrt(rows[0][0]))
    if x0 <= tiny:
        raise DegenerateSignalError("leading band entry vanishes")

    ps_radii = None if power_spectrum is None else (x0 * np.sqrt(power_spectrum[band.indices(n)])).tolist()

    branches = [_Branch((complex(x0),), (0.0,))]
    if b >= 2:
        x1 = n * math.sqrt(rows[1][0]) / (2.0 * x0)
        if x1 <= tiny:
            raise DegenerateSignalError("band entry 1 vanishes")
        branches = [branches[0].extended(x1, 0.0)]

    # the columns every branch reads: column 0 at rows 0 and 1, then the
    # first three usable ones of each row, one per duplicate pair past the band
    plan = [(0,), (0,)][:b] + [
        _columns(k % r if k < b else None, r)[:3] for k in range(2, 2 * b - 1)
    ]
    tol = settings.consistency_tol
    x3_pair = None
    # rows 2..b-1 each add an entry; rows b..2b-2 hold none and only check
    for k in range(2, 2 * b - 1):
        if k == 3 and b > 3 and abs(branches[0].coeffs[2]) <= tiny:
            raise DegenerateSignalError("band entry 2 vanishes; the row-3 rotation is undefined")
        children, errors = _read_row(branches, k, b, plan[k], rows[k], n, w, tol, ps_radii)
        if not children:
            raise InconsistentTraceError(
                f"every branch degenerated at row {k}", step=k
            ) from (errors[0] if errors else None)
        # keep candidates within the tolerance or within a factor 100 of the
        # best one; at the row where the parents hold both entry-3 sides and
        # the kept children one, record each side's smallest residual (inf
        # for a side whose branches all raised)
        best = min([c.residuals[-1] for c in children])
        if best > _FAIL_FACTOR * tol:
            raise InconsistentTraceError(f"no branch fits the trace at row {k}", step=k)
        keep = max(tol, _BRANCH_RATIO * best)
        kept = [c for c in children if c.residuals[-1] <= keep]
        if x3_pair is None and (len({br.x3_choice for br in branches}) == 2
                                and len({c.x3_choice for c in kept}) == 1):
            x3_pair = tuple(
                min((c.residuals[-1] for c in children if c.x3_choice == side), default=np.inf)
                for side in (0, 1)
            )
        branches = kept

    if len({br.x3_choice for br in branches}) > 1:
        raise AmbiguousBranchError(
            "both entry-3 candidates remain consistent with the trace"
        )
    if len(branches) > 1:
        raise AmbiguousBranchError(
            f"{len(branches)} branches remain consistent with the trace"
        )

    winner = branches[0]
    values = np.zeros(n, dtype=np.complex128)
    values[band.indices(n)] = np.asarray(winner.coeffs, dtype=np.complex128)
    step_residuals = np.asarray(winner.residuals[:b], dtype=float)
    tail = max(winner.residuals[b:], default=0.0)

    return RecoveryReport(
        spectrum=Spectrum(values),
        step_residuals=step_residuals,
        x3_branch=None if winner.x3_choice is None else ("first", "second")[winner.x3_choice],
        x3_branch_residuals=x3_pair,
        equations_used={row: list(ms) for row, ms in enumerate(plan)},
        success=bool(np.max(step_residuals, initial=0.0) <= tol and tail <= tol),
        measurement_reads=sum(map(len, plan)),
        tail_residual=float(tail),
    )
