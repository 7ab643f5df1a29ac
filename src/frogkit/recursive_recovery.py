"""Entrywise recovery of a bandlimited spectrum from its trace.

The bandlimit gives each trace row a triangular ("pyramid") structure: row k
mixes only band entries 0..k, so scanning rows in order determines the band
entry by entry.  Each step reduces to a circle-intersection system whose
offsets are built from already-recovered entries:

    | x0*z + v_m | = N * sqrt(trace[k, m]) / |1 + w^(k*m)|,   w = exp(2*pi*i/r)

with z the unknown entry and v_m the pyramid offset for column m.  Columns
with w^(k*m) = -1 carry no information about z and are skipped; columns m and
r-m duplicate each other and only one of the pair is used.

Rows run on Python scalars: the twiddles w^j come from one cached table per
r, and each column's offset, a sum over the products x_j * x_(k-j) formed
once per branch and row, is computed at most once per row.

Gauge fixing absorbs the symmetry group: entries 0 and 1 of the band are made
real nonnegative (rotation and continuous translation), and the reflection
branch is fixed by requiring a nonnegative imaginary part at entry 2.

Row 3's offsets are collinear through the origin, so it always yields a
conjugate pair of candidates; the spurious one becomes inconsistent at row 4.
Any later row with only two usable columns likewise yields a pair, resolved
by consistency at the following rows (rows 2, 3 and these go through
``solve_collinear``).  Rows past the band contain no unknown and act as pure
consistency checks.  All of this is handled uniformly by
carrying candidate branches forward and pruning those whose residual exceeds
the consistency tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circle_solver import any_nonreal, solve_collinear, solve_generic, solve_real_centers
from .errors import (
    AmbiguousBranchError,
    DegenerateSignalError,
    DegenerateSystemError,
    EquationSelectionError,
    InconsistentTraceError,
    InvalidParametersError,
    UnderdeterminedSystemError,
)
from .signal_model import BandlimitSpec, FrogTrace, Spectrum

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
        if self.r < 3 or (self.r == 3 and not self.use_power_spectrum):
            raise InvalidParametersError(
                "need r >= 4, or r = 3 together with the power spectrum"
            )
        if not (math.isfinite(self.consistency_tol) and self.consistency_tol > 0):
            raise InvalidParametersError("consistency_tol must be finite and positive")


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
    read for it.  ``success``: every step residual and the worst
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


def is_degenerate_column(k: int, m: int, r: int) -> bool:
    """True iff w^(k*m) = -1, i.e. column m says nothing about row k's entry."""
    return (2 * k * m - r) % (2 * r) == 0


@functools.lru_cache(maxsize=None)
def _twiddles(r: int) -> tuple[complex, ...]:
    """w^j = exp(2*pi*i*j/r) for j = 0..r-1."""
    return tuple(np.exp(2j * np.pi * np.arange(r) / r).tolist())


@functools.lru_cache(maxsize=None)
def _columns(k: int | None, r: int) -> tuple[int, ...]:
    """One column per duplicate pair {m, r-m}; for k not None (degeneracy
    depends on k only through k mod r) also without row k's degenerate ones."""
    keep: dict[int, None] = {}  # an ordered set
    for m in range(r):
        if (k is None or not is_degenerate_column(k, m, r)) and (r - m) % r not in keep:
            keep[m] = None
    return tuple(keep)


def usable_columns(k: int, r: int) -> list[int]:
    """Columns informative for row k: nondegenerate, one per {m, r-m} pair."""
    return list(_columns(k % r, r))


def distinct_columns(r: int) -> list[int]:
    """One column per duplicate pair {m, r-m}, no degeneracy filter."""
    return list(_columns(None, r))


def _twiddled_sum(q, lo: int, m: int, r: int) -> complex:
    """``sum_i q[i] * w^((lo + i) * m)``: the column-m sum of products
    ``q[i] = x_(lo+i) * x_(k-lo-i)`` of one trace row."""
    w = _twiddles(r)
    return sum([qj * w[(j * m) % r] for j, qj in enumerate(q, lo)], 0j)


def pyramid_centers(prefix, k: int, m: int, r: int) -> complex:
    """Offset v_m of row k's circle system, from band entries 0..k-1.

    ``v_m = sum_{j=1..k-1} prefix[j] * prefix[k-j] * w^(j*m) / (1 + w^(k*m))``,
    which equals the row-k frequency-domain coefficient (times N, normalized)
    with the unknown entry zeroed out.
    """
    prefix = np.asarray(prefix, dtype=np.complex128).tolist()
    if len(prefix) < k:
        raise InvalidParametersError(f"need entries 0..{k - 1} to form row {k} offsets")
    if is_degenerate_column(k, m, r):
        raise InvalidParametersError(
            f"column m={m} is degenerate for row {k} (w^(k*m) = -1)"
        )
    return _row_offsets(prefix, k, r)(m)


def _row_offsets(prefix, k: int, r: int):
    """Row k's offset v_m as a function of the column, memoised: the products
    x_j * x_(k-j) are formed once."""
    q = [prefix[j] * prefix[k - j] for j in range(1, k)]
    w = _twiddles(r)
    memo: dict[int, complex] = {}

    def offset(m: int) -> complex:
        if m not in memo:
            memo[m] = _twiddled_sum(q, 1, m, r) / (1.0 + w[(k * m) % r])
        return memo[m]

    return offset


def select_equations(k, r, centers_fn):
    """Pick three trace columns for row k whose offsets are not collinear.

    Prefers (0, 1, 2); otherwise scans combinations of usable columns in
    increasing order.  Columns summing to r are never paired (they duplicate
    each other).
    """
    if r < 4:
        raise InvalidParametersError("a trace-only triple needs r >= 4")
    for combo in itertools.combinations(_columns(k % r, r), 3):
        if any_nonreal([centers_fn(m) for m in combo], [(1, 2)]):
            return tuple(combo)
    raise EquationSelectionError(f"no admissible column triple for row {k} with r={r}")


class _TraceReader:
    """Band-relative access to trace magnitudes with a read log.

    A band starting at i corresponds, after the demodulation that moves the
    band to index 0, to a cyclic row shift of the trace by 2*i.
    """

    def __init__(self, trace: FrogTrace, start: int):
        self._data = trace.data
        self._n = trace.n
        self._shift = (2 * start) % trace.n
        self.reads: set[tuple[int, int]] = set()

    def magnitude(self, k: int, m: int) -> float:
        self.reads.add((k, m))
        return math.sqrt(self._data[(k + self._shift) % self._n, m])


@dataclass(frozen=True)
class _Branch:
    coeffs: tuple[complex, ...]
    residuals: tuple[float, ...]
    equations: tuple[tuple[int, tuple[int, ...]], ...]
    x3_choice: int | None = None

    def extended(self, z, res, row, ms, x3_choice=None):
        return _Branch(
            self.coeffs + (complex(z),),
            self.residuals + (float(res),),
            self.equations + ((row, tuple(ms)),),
            self.x3_choice if x3_choice is None else x3_choice,
        )

    def checked(self, res, row, ms):
        return _Branch(
            self.coeffs,
            self.residuals + (float(res),),
            self.equations + ((row, tuple(ms)),),
            self.x3_choice,
        )


def _solve_row(branch, k, n, reader, settings, ps_radius):
    """Candidate continuations of one branch at row k.

    Children above tolerance are produced too; the caller prunes them and
    does the fork accounting.
    """
    r = settings.r
    coeffs = branch.coeffs
    x0 = coeffs[0].real
    w = _twiddles(r)
    center = _row_offsets(coeffs, k, r)

    def radius(m):
        return n * reader.magnitude(k, m) / abs(1.0 + w[(k * m) % r])

    cols = _columns(k % r, r)
    if k in (2, 3):
        ms = cols[:3]
    elif len(cols) >= 3:
        ms = select_equations(k, r, center)
    else:
        ms = cols
    offsets = [center(m) for m in ms]
    radii = [radius(m) for m in ms]
    if ps_radius is not None and k > 3:
        offsets.append(0j)
        radii.append(ps_radius(k))
    scale = 1.0 + max(radii)
    tol = settings.consistency_tol * scale

    if len(offsets) >= 3 and k > 3:
        sol = solve_generic(([-v for v in offsets], radii), tol=tol)
        return [branch.extended(sol.z / x0, sol.residual / scale, k, ms)]

    # collinear offsets: row 2's are real, row 3's lie on the line through
    # the origin along x2, and two circles always are
    if k == 2:
        point, direction = 0j, 1.0 + 0j
    elif k == 3:
        x2 = coeffs[2]
        if abs(x2) <= 1e-13 * (1.0 + max(map(abs, coeffs))):
            raise DegenerateSignalError(
                "band entry 2 vanishes; the row-3 rotation is undefined"
            )
        point, direction = 0j, x2
    else:
        point, direction = offsets[0], offsets[1] - offsets[0]
    # this module's name for the solver, so that a wrapper around it sees the call
    sol = solve_collinear(offsets, radii, point, direction, tol, solve=solve_real_centers)
    rel = sol.residual / scale
    if k == 2:
        # reflection gauge: the pair has Im >= 0 first
        return [branch.extended(sol.z / x0, rel, k, ms)]
    return [
        branch.extended(u / x0, rel, k, ms, x3_choice=idx if k == 3 else None)
        for idx, u in enumerate(sol.candidates)
    ]


def _tail_residual(branch, k, n, r, reader, b):
    """Consistency mismatch of a fully-known row k >= b (relative)."""
    coeffs = branch.coeffs
    lo, hi = max(0, k - b + 1), min(b - 1, k)
    q = [coeffs[j] * coeffs[k - j] for j in range(lo, hi + 1)]
    # the sum's phases may start at any j: a different start multiplies the
    # sum by a unit factor w^(shift*m), which abs() removes
    ms = _columns(None, r)[:3]
    worst = 0.0
    scale = 1.0
    for m in ms:
        pred = abs(_twiddled_sum(q, lo, m, r))
        meas = n * reader.magnitude(k, m)
        scale = max(scale, 1.0 + meas)
        worst = max(worst, abs(pred - meas))
    return worst / scale, ms


def recover(
    trace: FrogTrace,
    band: BandlimitSpec,
    settings: RecoverySettings,
    power_spectrum: np.ndarray | None = None,
) -> RecoveryReport:
    """Recover the band entries of a spectrum from its trace.

    The power spectrum (squared spectrum magnitudes at every physical index)
    is required for r = 3 and optional otherwise; when present it contributes
    one extra circle centered at the origin per row from 4 on.
    """
    n, r, b = trace.n, trace.r, band.b
    if settings.r != r:
        raise InvalidParametersError(f"settings r={settings.r} but trace has r={r}")
    if b > n // 2:
        raise InvalidParametersError(f"recovery requires b <= N/2 (b={b}, N={n})")
    if settings.use_power_spectrum:
        if power_spectrum is None:
            raise InvalidParametersError("settings request a power spectrum: none given")
        power_spectrum = np.asarray(power_spectrum, dtype=np.float64)
        if power_spectrum.shape != (n,):
            raise InvalidParametersError("power spectrum must have length N")
        if not np.all(np.isfinite(power_spectrum) & (power_spectrum >= 0)):
            raise InvalidParametersError("power spectrum entries must be finite and nonnegative")
    if r == 3:
        # the two shift columns are reflections of each other and must agree
        gap = float(np.max(np.abs(trace.data[:, 1] - trace.data[:, 2])))
        if gap > 1e-10 * max(float(np.max(trace.data)), 1e-300):
            raise InvalidParametersError(
                "columns 1 and 2 of an r=3 trace must be equal (reflected shifts)"
            )

    reader = _TraceReader(trace, band.start)
    peak = float(np.max(trace.data))
    if peak <= 0.0:
        raise DegenerateSignalError("trace is identically zero")
    amp_scale = float(np.sqrt(n * np.sqrt(peak)))
    # trace entries are squared magnitudes, so a coefficient that is zero up
    # to float noise surfaces at the sqrt(eps) scale, not at eps
    tiny = 1e-7 * amp_scale

    x0 = float(np.sqrt(n * reader.magnitude(0, 0)))
    if x0 <= tiny:
        raise DegenerateSignalError("leading band entry vanishes")

    if settings.use_power_spectrum:
        start = band.start

        def ps_radius(k):
            return x0 * float(np.sqrt(power_spectrum[(start + k) % n]))

    else:
        ps_radius = None

    branches = [_Branch((complex(x0),), (0.0,), ((0, (0,)),))]
    if b >= 2:
        x1 = n * reader.magnitude(1, 0) / (2.0 * x0)
        if x1 <= tiny:
            raise DegenerateSignalError("band entry 1 vanishes")
        branches = [branches[0].extended(x1, 0.0, 1, (0,))]

    tol = settings.consistency_tol
    x3_pair = None

    def prune(children, row, raised=()):
        """Keep candidates within the tolerance or within a factor 100 of
        the best one.  At the row where the kept ones stop holding both
        entry-3 sides, record each side's smallest residual (inf for a side
        whose branches all raised)."""
        nonlocal x3_pair
        best = min(c.residuals[-1] for c in children)
        if best > _FAIL_FACTOR * tol:
            raise InconsistentTraceError(f"no branch fits the trace at row {row}", step=row)
        keep = max(tol, _BRANCH_RATIO * best)
        live = [c for c in children if c.residuals[-1] <= keep]
        sides = dict.fromkeys(raised, np.inf)
        for c in children:
            if c.x3_choice is not None:
                sides[c.x3_choice] = min(sides.get(c.x3_choice, np.inf), c.residuals[-1])
        if len(sides) == 2 and len({c.x3_choice for c in live}) == 1:
            x3_pair = (sides[0], sides[1])
        return live

    for k in range(2, b):
        children: list[_Branch] = []
        raised: set[int] = set()
        errors: list[Exception] = []
        for br in branches:
            try:
                children.extend(_solve_row(br, k, n, reader, settings, ps_radius))
            except (
                DegenerateSystemError,
                EquationSelectionError,
                UnderdeterminedSystemError,
            ) as exc:
                if br.x3_choice is not None:
                    raised.add(br.x3_choice)
                errors.append(exc)
        if not children:
            if errors and all(isinstance(e, EquationSelectionError) for e in errors):
                raise errors[0]
            raise InconsistentTraceError(
                f"every branch degenerated at row {k}", step=k
            ) from (errors[0] if errors else None)
        branches = prune(children, k, raised)

    for k in range(b, 2 * b - 1):
        checked = []
        for br in branches:
            res, ms = _tail_residual(br, k, n, r, reader, b)
            checked.append(br.checked(res, k, ms))
        branches = prune(checked, k)

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
        equations_used={row: list(ms) for row, ms in winner.equations},
        success=bool(np.max(step_residuals, initial=0.0) <= tol and tail <= tol),
        measurement_reads=len(reader.reads),
        tail_residual=float(tail),
    )
