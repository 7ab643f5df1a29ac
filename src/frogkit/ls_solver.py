"""Nonconvex least-squares route: objective, analytic gradient, descent.

The loss is half the sum of squared differences between the measured trace
and the trace of the iterate; as a polynomial of degree eight in the iterate
it is smooth but nonconvex, so a local method may stop at a local minimum.
The minimizer here is gradient descent with Armijo backtracking, which keeps
the objective sequence monotone.

Gradients are with respect to the real and imaginary parts, packaged as one
complex vector g = df/dRe + i*df/dIm (twice the conjugate-coordinate
derivative), so a step is plain ``z - t*g``.  ``basin_experiment`` draws
real signals and real starts; there the imaginary part of the gradient is
zero, so it runs the same descent in float64.

A small real stack backtracks speculatively: each iteration evaluates the
steps t, t/2, ..., t/2^(K-1) of every live trial in one kernel call, and a
trial takes the first that passes the Armijo test; one that passes none goes
on halving from t/2^K, one kernel call per round.  K is 1 for a stack whose
live state holds more than ``_SPECULATE_ENTRIES / 2`` entries, so a large
stack evaluates only the steps it needs, and at most the kernel's ``steps``:
always 1 for the complex kernel of ``ls_minimize``.  The halved steps are
exact, so the accepted step, the iterate and the objective do not depend on K.
The speculative call computes the objective of every step tried but forms
the state the gradient reads only for the step each trial accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .ambiguities import dist_mod_group
from .errors import InvalidParametersError
from .signal_model import (
    FrogTrace,
    Signal,
    _MAX_N,
    _check_step,
    _frozen_array,
    _integer,
    _seed,
    dft,
    frog_trace,
    shift_product_coeffs,
)

SUCCESS_DISTANCE = 1e-6
_GRAD_TOL = 1e-9  # stop when |grad| <= this * (1 + objective)
_STEP0 = 1.0  # first trial step
_MIN_STEP = 1e-18  # backtracking gives up below this step
_SHRINK = 0.5  # backtracking step factor
_DECREASE = 1e-4  # Armijo sufficient-decrease constant
# Most trace entries (the sum of N*r over trials) descended as one stack;
# bounds memory only.  Criterion 8 (N = 24, L = 1, 2, 4, 8, five sigmas,
# 100 trials per cell, 540,000 entries) fits in one stack, with a peak RSS
# of 69 MiB for the whole process.
_BATCH_ENTRIES = 1 << 20
# A stack whose live state holds E entries evaluates K = min(steps, max(1,
# _SPECULATE_ENTRIES // E)) backtracking steps per kernel call, where the
# real kernel's ``steps`` is 4 and the complex kernel's 1.  Four steps cover
# all but 0.1% of accepted steps on basin grids.  CPU time on a 2-core x86
# machine, N = 24 basin grids over L = 1, 2, 4, 8 and five sigmas: 1 trial
# per cell (1,690 entries) 2.2-2.7 s at K = 1, 1.6 s at K = 4; 2 per cell
# (3,380 entries) 3.1-3.2 s at K = 1, 2.3-2.7 s at K = 2; a 200-trial L = 8
# grid (5,200 entries) 1.6-1.9 s at K = 1, 2.6-2.9 s at K = 2; and K = 4 on
# the criterion-8 grid (100 trials per cell) took 40 s of wall time against
# 21 s.  On a large stack the extra steps cost more than the calls they save.
# The K = 3 range (2,049-2,730 entries) and the cut to K = 1 above 4,096
# entries were not measured directly; they are interpolated between those
# grids.  The complex kernel keeps K = 1: on single ``ls_minimize`` descents
# at N = 12-64, K = 2-4 saved up to 20% at some (N, L) and cost up to 20% at
# others (N = 48, L = 1 at K = 3 and N = 64, L = 2 at K = 4), with no entry
# budget that separates the two.  Those times predate the speculative call
# that forms the gradient's state for the accepted step only (``pick``) and
# the cached start index of the shifted factor (``_Columns.start``).  With
# both, whole ``_descend`` runs of the seed-2024 criterion-8 stacks at 1, 2
# and 10 trials per cell took 445, 589 and 2,184 ms against 551, 1,024 and
# 2,720 ms, and the 100-per-cell grid 21.2 s against 20.9 s (medians of six
# alternating runs on the loaded 2-core machine); the budget was kept.
_SPECULATE_ENTRIES = 8192


@dataclass(frozen=True)
class LsOptions:
    max_iters: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise InvalidParametersError("max_iters must be >= 1")


@dataclass(frozen=True)
class BasinGrid:
    """Empirical success rates of the descent per (sigma, L) cell."""

    sigma_values: np.ndarray
    l_values: np.ndarray
    trials: int
    success_rate: np.ndarray
    seed: int


# A descent kernel evaluates a stack of trials against their data:
#   evaluate(z, data) -> (f, state): objective per trial and the state the
#       gradient reuses;  gradient(z, data, state) -> g;
#   norm2(g) -> squared norm per trial;
#   select(data, trials) -> (data, rows): the data of the stack of ``trials``
#       (in that order, repeats allowed) and the rows of ``state`` they own;
#   steps: the most backtracking steps one kernel call tries per trial, on
#       the stack ``select(data, tile(arange(T), k))``, k <= steps;
# and the real kernel, whose steps exceed 1, also has
#   residual(z, data) -> (f, raw): evaluate's objective, with the pieces of
#       its state left unscaled, as the speculative call needs them;
#   pick(data, raw, first) -> from ``residual``'s raw of k copies of the
#       stack, the state of copy first[i] of each trial i, laid out as for
#       ``data``: the state evaluate gives for those copies, bit for bit.


class _Workspace:
    """Complex trials at one (N, L): ``z`` has shape (T, N), ``data`` (T, N, r).

    Each trial's block is laid out, transformed and summed exactly as a single
    trial would be, so stacking trials does not change any result bit.
    """

    steps = 1  # see _SPECULATE_ENTRIES

    def __init__(self, n: int, l: int):
        self.n = n
        self.l = l
        r = n // l
        p = np.arange(n)[:, None]
        m = np.arange(r)[None, :]
        self.fwd = (p + m * l) % n
        self.bwd = ((p - m * l) % n) * r + m  # flat index of ((p - m*L) mod N, m)

    def evaluate(self, z, data):
        coeffs = shift_product_coeffs(z, self.l)
        err = data - np.abs(coeffs) ** 2
        f = 0.5 * np.add.reduce((err**2).reshape(len(err), -1), axis=1)
        return f, err * coeffs

    def gradient(self, z, data, state):
        back = self.n * np.fft.ifft(state, axis=-2)
        zc = np.conj(z)
        term = zc.take(self.fwd, axis=-1) * back
        term2 = (zc[:, :, None] * back).reshape(len(z), -1).take(self.bwd, axis=-1)
        return -2.0 * np.add.reduce(term + term2, axis=-1)

    def norm2(self, g):
        return np.array([np.vdot(row, row).real for row in g])

    def select(self, data, trials):
        return data[trials], trials


class _Columns:
    """Layout of a ragged stack of real trials at one N: column c is the
    product of trial ``rows[c]`` with its own shift by ``shift[c]`` and stands
    for ``count[c]`` trace columns; a trial's columns are consecutive.
    ``half`` holds rows 0..N//2 of the trace column.  ``start``, built with
    the layout, locates each column's shifted factor for ``_shifted``, so an
    evaluation gathers it with one index.  ``own`` and ``fwd``, built when
    the gradient first asks, list column by column the flat indices of
    entries p and (p + shift) mod N of the column's trial in the (T, N)
    iterate."""

    def __init__(self, n, rows, shift, count, half):
        self.n, self.rows, self.shift, self.count, self.half = n, rows, shift, count, half
        self.start = rows * (2 * n) + shift

    @cached_property
    def own(self):
        return (self.rows[:, None] * self.n + np.arange(self.n)).ravel()

    @cached_property
    def fwd(self):
        return (self.rows[:, None] * self.n + (np.arange(self.n) + self.shift[:, None]) % self.n).ravel()


class _RealWorkspace:
    """Real trials at one N with any mix of steps L, stacked by columns.

    ``z`` is float64 of shape (T, N) and ``data`` a ``_Columns``.  For a real
    iterate the spectra of the shifted products are conjugate-symmetric, so
    one ``rfft`` gives rows 0..N//2 of every column, the objective counts each
    row that stands for a mirrored pair twice, and ``irfft`` gives the
    gradient.  Every column is transformed and every trial's columns summed
    as if the trial ran alone, so stacking does not change any result bit.
    """

    steps = 4  # see _SPECULATE_ENTRIES

    def __init__(self, n: int):
        self.n = n
        self.weight = np.full(n // 2 + 1, 2.0)
        self.weight[0] = 1.0
        if n % 2 == 0:
            self.weight[-1] = 1.0  # the Nyquist row is its own mirror

    def stack(self, steps, traces) -> _Columns:
        """The layout of trials with steps ``steps`` and (N, N/L) traces.

        Trace columns m and r - m are equal: the product for shift -m*L is the
        one for m*L rotated by m*L.  So a trial keeps m = 0..r//2, and each
        column that stands for such a pair counts twice.
        """
        steps = np.asarray(steps)
        r = self.n // steps
        rows = np.repeat(np.arange(len(steps)), r // 2 + 1)
        m = np.arange(len(rows)) - np.searchsorted(rows, rows)
        count = np.where((m == 0) | (2 * m == r.take(rows)), 1.0, 2.0)
        kept = len(self.weight)
        half = np.concatenate([np.asarray(tr)[:kept, : k // 2 + 1].T for tr, k in zip(traces, r)])
        return _Columns(self.n, rows, m * steps.take(rows), count, half)

    def residual(self, z, data):
        rows, count = data.rows, data.count
        # column c multiplies z[rows[c]] by the same row shifted by shift[c]
        # (in place, as err below: one buffer fewer each)
        product = z.take(rows, axis=0)
        product *= _shifted(z, data.start)
        coeffs = np.fft.rfft(product, axis=-1)
        err = coeffs.real**2
        err += coeffs.imag**2
        np.subtract(data.half, err, out=err)
        # einsum sums each column on its own, in the same order in any stack
        f = 0.5 * np.bincount(rows, count * np.einsum("ck,ck,k->c", err, err, self.weight), len(z))
        return f, (err, coeffs)

    def evaluate(self, z, data):
        f, (err, coeffs) = self.residual(z, data)
        return f, _state(data, err, coeffs)

    def gradient(self, z, data, state):
        # d/dz_p of |DFT(z * z[. + s])|^2 reaches z_p directly and, through
        # the shifted factor, z_(p + s); bincount adds both into each trial
        back = np.fft.irfft(state, self.n, axis=-1).ravel()
        term = z.take(data.fwd)
        term *= back
        g = np.bincount(data.own, term, z.size)
        term = z.take(data.own)
        term *= back
        g += np.bincount(data.fwd, term, z.size)
        return (-2.0 * self.n) * g.reshape(z.shape)

    def norm2(self, g):
        return np.add.reduce(g * g, axis=1)

    def select(self, data, trials):
        width = np.bincount(data.rows).take(trials)  # columns per selected trial
        rows = np.repeat(np.arange(len(trials)), width)
        # ``data.rows`` is sorted, so trial t's columns start at searchsorted(t)
        skip = np.searchsorted(data.rows, trials) - (np.cumsum(width) - width)
        cols = np.arange(len(rows)) + np.repeat(skip, width)
        return _Columns(
            self.n, rows, data.shift.take(cols), data.count.take(cols), data.half.take(cols, axis=0)
        ), cols

    def pick(self, data, raw, first):
        cols = len(data.rows)
        at = first.take(data.rows) * cols + np.arange(cols)  # copy first[i] of each column
        err, coeffs = raw
        return _state(data, err.take(at, axis=0), coeffs.take(at, axis=0))


def _shifted(z, start):
    """The rows z[t, (s + p) mod N], p = 0..N-1, for each ``start = t*2N + s``
    with 0 <= s < N.  Row j of the view below is entries j..j+N-1 of the
    flattened rows [z, z], so one index gathers every shifted row."""
    doubled = np.concatenate([z, z], axis=1).ravel()
    n, step = z.shape[1], doubled.itemsize
    windows = np.ndarray((max(doubled.size - n + 1, 0), n), doubled.dtype, doubled, 0, (step, step))
    return windows[start]


def _state(data, err, coeffs):
    """The gradient's state: each column's err times its count times coeffs."""
    err *= data.count[:, None]
    return err * coeffs


def _check_dims(z: Signal, trace: FrogTrace):
    if z.n != trace.n:
        raise InvalidParametersError("signal length does not match the trace")


def ls_objective(z: Signal, trace: FrogTrace) -> float:
    """Half the squared Frobenius mismatch between the trace of z and the
    measured trace (at the trace's step L)."""
    _check_dims(z, trace)
    f, _ = _Workspace(trace.n, trace.l).evaluate(z.values[None], trace.data[None])
    return float(f[0])


def ls_gradient(z: Signal, trace: FrogTrace) -> Signal:
    """Analytic gradient of the objective, as df/dRe + i*df/dIm."""
    _check_dims(z, trace)
    ws = _Workspace(trace.n, trace.l)
    _, state = ws.evaluate(z.values[None], trace.data[None])
    return Signal(ws.gradient(z.values[None], None, state)[0])


def _descend(ws, z: np.ndarray, data, opts: LsOptions):
    """Armijo descent of a stack of trials, each exactly as if run alone.

    ``ws`` is a descent kernel, ``z`` the (T, N) starts, typed as its class
    says, and ``data`` the kernel's data for the stack.  Every trial keeps its
    own step and its own stop test; a trial that stops leaves the stack.
    Returns the final iterates, objectives and iteration counts, in input order.
    """
    f, state = ws.evaluate(z, data)
    step = np.full(len(z), _STEP0)
    iters = np.zeros(len(z), dtype=np.int64)
    out_z, out_f, out_iters = np.empty_like(z), np.empty_like(f), np.empty_like(iters)
    live = np.arange(len(z))
    k, tiled, ladder, rank = _speculate(ws, data, state, len(z))
    while live.size:
        g = ws.gradient(z, data, state)
        gnorm2 = ws.norm2(g)
        moving = ~(np.sqrt(gnorm2) <= _GRAD_TOL * (1.0 + np.abs(f)))
        # Backtrack from a step that grew after the last success.  One call
        # tries the steps step/2^j, j < k, of every live trial, and each trial
        # takes the first that passes; later rounds halve on, one step per
        # call, for the trials still pending.  ``t`` is the step array itself:
        # a trial that finds no step stops, so its entry no longer matters.  A
        # pending trial's state is written whether or not its step is
        # accepted: it is read only if it is.
        if k == 1:
            t = step
            z_new = z - t[:, None] * g
            f_new, state_new = ws.evaluate(z_new, data)
            accepted = moving & (t > _MIN_STEP) & (f_new <= f - _DECREASE * t * gnorm2)
        else:  # each trial's first passing step, else its last one tried
            t_all = step * ladder
            z_all = (z - t_all[..., None] * g).reshape(-1, z.shape[1])
            f_all, raw = ws.residual(z_all, tiled)
            bound = f - _DECREASE * t_all * gnorm2
            passed = moving & (t_all > _MIN_STEP) & (f_all.reshape(k, -1) <= bound)
            accepted = passed.any(axis=0)
            first = np.where(accepted, passed.argmax(axis=0), k - 1)
            at = first * len(z) + rank  # row of trial i's copy first[i] in the k copies
            t, z_new, f_new = t_all.take(at), z_all.take(at, axis=0), f_all.take(at)
            state_new = ws.pick(data, raw, first)
        if not accepted.all():
            pending = np.flatnonzero(moving & ~accepted)
            while pending.size:
                t[pending] *= _SHRINK
                pending = pending[t[pending] > _MIN_STEP]
                if not pending.size:
                    break
                z_try = z[pending] - t[pending, None] * g[pending]
                part, rows = ws.select(data, pending)
                f_try, state_new[rows] = ws.evaluate(z_try, part)
                ok = f_try <= f[pending] - _DECREASE * t[pending] * gnorm2[pending]
                won = pending[ok]
                z_new[won], f_new[won] = z_try[ok], f_try[ok]
                accepted[won] = True
                pending = pending[~ok]
            kept = ~accepted  # no step found: keep the iterate
            z_new[kept], f_new[kept] = z[kept], f[kept]
        z, f, state = z_new, f_new, state_new
        step = t / _SHRINK  # allow the next step to be larger
        iters += accepted
        stop = ~accepted | (iters >= opts.max_iters)
        if stop.any():
            done, keep = live[stop], np.flatnonzero(~stop)
            out_z[done], out_f[done], out_iters[done] = z[stop], f[stop], iters[stop]
            live, z, f, step, iters = live[keep], z[keep], f[keep], step[keep], iters[keep]
            if live.size:
                data, rows = ws.select(data, keep)
                state = state[rows]
                k, tiled, ladder, rank = _speculate(ws, data, state, len(z))
    return out_z, out_f, out_iters


def _speculate(ws, data, state, size):
    """How many backtracking steps k one kernel call tries per trial, the data
    of k copies of the stack of ``size`` trials, the step factors 1, 1/2, ...,
    1/2^(k-1) as a column (exact: _SHRINK is 1/2) and ``arange(size)``."""
    k = min(ws.steps, max(1, _SPECULATE_ENTRIES // state.size))
    rank = np.arange(size)
    tiled = ws.select(data, np.tile(rank, k))[0] if k > 1 else data
    return k, tiled, _SHRINK ** np.arange(k)[:, None], rank


def ls_minimize(
    z0: Signal, trace: FrogTrace, opts: LsOptions = LsOptions()
) -> tuple[Signal, float, int]:
    """Gradient descent with backtracking from z0.

    Terminates on the gradient tolerance (relative to 1 + objective), step
    underflow, or the iteration cap; non-convergence is an outcome, not an
    error.
    """
    _check_dims(z0, trace)
    z, f, iters = _descend(_Workspace(trace.n, trace.l), z0.values[None], trace.data[None], opts)
    return Signal(z[0]), float(f[0]), int(iters[0])


def _draw_trial(n: int, sigma: float, seed_key) -> tuple[np.ndarray, np.ndarray]:
    """A real standard-normal signal and its start point, perturbed by sigma
    times a random sign vector."""
    rng = np.random.default_rng(seed_key)
    x = rng.standard_normal(n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return x, x + sigma * signs.astype(float)


def basin_experiment(
    n: int,
    l_values,
    sigma_values,
    trials: int,
    seed: int,
) -> BasinGrid:
    """Empirical success-rate grid of the descent under sign perturbations.

    Each trial draws a real standard-normal signal, perturbs it by sigma
    times a random sign vector, descends with the default ``LsOptions``, and
    scores success by the group distance threshold of 1e-6.  Every trial
    derives its own RNG stream from (seed, sigma index, L index, trial
    index), so the grid is reproducible and independent of how trials are
    batched.  The whole grid, every L and sigma, descends together as one
    real stack (split only to bound memory).
    """
    n, trials, seed = _integer(n, "N"), _integer(trials, "trials"), _seed(seed)
    sigma_values = _frozen_array(sigma_values, np.float64, 1, "sigma values")
    if n < 1 or trials < 1:
        raise InvalidParametersError(f"need N >= 1 and trials >= 1 (got N={n}, trials={trials})")
    if n > _MAX_N:
        raise InvalidParametersError(f"need N <= {_MAX_N} (got N={n})")
    l_values = [n // _check_step(n, l) for l in l_values]  # N // (N/L): each L as a Python int
    if not l_values:
        raise InvalidParametersError("need at least one L")
    if not np.all(np.isfinite(sigma_values)):
        raise InvalidParametersError(f"sigma values must be finite (got {sigma_values.tolist()})")

    ws = _RealWorkspace(n)
    wins = np.zeros((len(sigma_values), len(l_values)))
    runs = [
        (i, j, t)
        for j in range(len(l_values))
        for i in range(len(sigma_values))
        for t in range(trials)
    ]
    # batch b holds the runs whose first trace entry falls in [b, b + 1) * _BATCH_ENTRIES
    entries = np.array([n * (n // l_values[j]) for _, j, _ in runs])
    batch_of = (np.cumsum(entries) - entries) // _BATCH_ENTRIES
    for _, batch in groupby(zip(batch_of, runs), key=lambda pair: pair[0]):
        chunk = [run for _, run in batch]
        draws = [_draw_trial(n, sigma_values[i], (seed, i, j, t)) for i, j, t in chunk]
        steps = [l_values[j] for _, j, _ in chunk]
        data = ws.stack(steps, [frog_trace(Signal(x), l).data for (x, _), l in zip(draws, steps)])
        z_fin, _, _ = _descend(ws, np.array([start for _, start in draws]), data, LsOptions())
        for (i, j, _), (x, _), z in zip(chunk, draws, z_fin):
            zhat = dft(Signal(z))  # an iterate whose spectrum overflows is a miss
            if np.all(np.isfinite(zhat.values)):
                wins[i, j] += dist_mod_group(zhat, dft(Signal(x)))[0] <= SUCCESS_DISTANCE

    return BasinGrid(
        sigma_values=np.array(sigma_values),
        l_values=np.array(l_values),
        trials=trials,
        success_rate=wins / trials,
        seed=seed,
    )
