"""Nonconvex least-squares route: objective, analytic gradient, descent.

The loss is half the sum of squared differences between the measured trace
and the trace of the iterate; as a polynomial of degree eight in the iterate
it is smooth but nonconvex, so a local method may stop at a local minimum.
The minimizer here is gradient descent with Armijo backtracking, which keeps
the objective sequence monotone.

Gradients are with respect to the real and imaginary parts, packaged as one
complex vector g = df/dRe + i*df/dIm (twice the conjugate-coordinate
derivative), so a step is plain ``z - t*g``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguities import dist_mod_group
from .errors import InvalidParametersError
from .signal_model import (
    FrogTrace,
    Signal,
    dft,
    frog_trace,
    shift_product_coeffs,
    shift_product_table,
)

SUCCESS_DISTANCE = 1e-6
_MIN_STEP = 1e-18  # backtracking gives up below this step
# Most trace entries (trials x N x r) descended as one stack; bounds memory only.
_BATCH_ENTRIES = 1 << 19


@dataclass(frozen=True)
class LsOptions:
    max_iters: int = 2000
    grad_tol: float = 1e-9
    step0: float = 1.0
    shrink: float = 0.5
    decrease: float = 1e-4  # Armijo sufficient-decrease constant

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParametersError("max_iters must be >= 1")
        if not 0.0 < self.shrink < 1.0:
            raise InvalidParametersError("shrink factor must lie in (0, 1)")
        if self.step0 <= 0 or self.decrease <= 0:
            raise InvalidParametersError("step0 and decrease must be positive")


@dataclass(frozen=True)
class BasinGrid:
    """Empirical success rates of the descent per (sigma, L) cell."""

    sigma_values: np.ndarray
    l_values: np.ndarray
    trials: int
    success_rate: np.ndarray
    seed: int


class _Workspace:
    """Objective and gradient for one (N, L) on stacks of trials.

    ``z`` has shape (T, N) and ``data`` (T, N, r).  Each trial's block is
    laid out, transformed and summed exactly as a single trial would be, so
    stacking trials does not change any result bit.
    """

    def __init__(self, n: int, l: int):
        self.n = n
        self.l = l
        self.fwd = shift_product_table(n, l)  # (p + m*L) mod N
        r = n // l
        p = np.arange(n)[:, None]
        m = np.arange(r)[None, :]
        self.bwd = ((p - m * l) % n) * r + m  # flat index of ((p - m*L) mod N, m)

    def evaluate(self, z: np.ndarray, data: np.ndarray):
        """Objective per trial, with the residual and the model coefficients
        the gradient at the same point reuses."""
        coeffs = shift_product_coeffs(z, self.l)
        err = data - np.abs(coeffs) ** 2
        f = 0.5 * np.add.reduce((err**2).reshape(len(err), -1), axis=1)
        return f, err, coeffs

    def gradient(self, z: np.ndarray, err: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        back = self.n * np.fft.ifft(err * coeffs, axis=-2)
        zc = np.conj(z)
        term = zc.take(self.fwd, axis=-1) * back
        term2 = (zc[:, :, None] * back).reshape(len(z), -1).take(self.bwd, axis=-1)
        return -2.0 * np.add.reduce(term + term2, axis=-1)


def _workspace_for(trace: FrogTrace) -> _Workspace:
    return _Workspace(trace.n, trace.l)


def _check_dims(z: Signal, trace: FrogTrace, l: int):
    if l != trace.l:
        raise InvalidParametersError(f"step L={l} does not match the trace (L={trace.l})")
    if z.n != trace.n:
        raise InvalidParametersError("signal length does not match the trace")


def ls_objective(z: Signal, trace: FrogTrace, l: int) -> float:
    """Half the squared Frobenius mismatch between the trace of z and the
    measured trace."""
    _check_dims(z, trace, l)
    f, _, _ = _workspace_for(trace).evaluate(z.values[None], trace.data[None])
    return float(f[0])


def ls_gradient(z: Signal, trace: FrogTrace, l: int) -> Signal:
    """Analytic gradient of the objective, as df/dRe + i*df/dIm."""
    _check_dims(z, trace, l)
    ws = _workspace_for(trace)
    _, err, coeffs = ws.evaluate(z.values[None], trace.data[None])
    return Signal(ws.gradient(z.values[None], err, coeffs)[0])


def _descend(ws: _Workspace, z0: np.ndarray, data: np.ndarray, opts: LsOptions, on_iterate=None):
    """Armijo descent of a stack of trials, each exactly as if run alone.

    ``z0`` is (T, N) and ``data`` (T, N, r).  Every trial keeps its own step
    and its own stop test; a trial that stops leaves the stack.  Returns the
    final iterates, objectives and iteration counts, in input order.
    ``on_iterate(trial, iteration, objective)`` is called after each
    accepted step.
    """
    z = np.array(z0, dtype=np.complex128)
    f, err, coeffs = ws.evaluate(z, data)
    step = np.full(len(z), float(opts.step0))
    iters = np.zeros(len(z), dtype=np.int64)
    out_z, out_f, out_iters = np.empty_like(z), np.empty_like(f), np.empty_like(iters)
    live = np.arange(len(z))
    while live.size:
        g = ws.gradient(z, err, coeffs)
        gnorm2 = np.array([np.vdot(row, row).real for row in g])
        moving = ~(np.sqrt(gnorm2) <= opts.grad_tol * (1.0 + np.abs(f)))
        # Backtrack from a step that grew after the last success; the first
        # round tries every live trial, later rounds only those still pending.
        # ``t`` is the step array itself: a trial that finds no step stops, so
        # its entry no longer matters.
        t = step
        z_new = z - t[:, None] * g
        f_new, err_new, coeffs_new = ws.evaluate(z_new, data)
        trying = moving & (t > _MIN_STEP)
        accepted = trying & (f_new <= f - opts.decrease * t * gnorm2)
        pending = np.flatnonzero(trying & ~accepted)
        while pending.size:
            t[pending] *= opts.shrink
            pending = pending[t[pending] > _MIN_STEP]
            if not pending.size:
                break
            z_try = z[pending] - t[pending, None] * g[pending]
            f_try, err_try, coeffs_try = ws.evaluate(z_try, data[pending])
            ok = f_try <= f[pending] - opts.decrease * t[pending] * gnorm2[pending]
            won = pending[ok]
            z_new[won], f_new[won] = z_try[ok], f_try[ok]
            err_new[won], coeffs_new[won] = err_try[ok], coeffs_try[ok]
            accepted[won] = True
            pending = pending[~ok]

        stop = ~accepted
        if stop.any():  # no step found: keep the iterate
            z_new[stop], f_new[stop] = z[stop], f[stop]
        z, f, err, coeffs = z_new, f_new, err_new, coeffs_new
        step = t / opts.shrink  # allow the next step to be larger
        iters += accepted
        if on_iterate is not None:
            for k in np.flatnonzero(accepted):
                on_iterate(int(live[k]), int(iters[k]), float(f[k]))
        stop |= iters >= opts.max_iters
        if stop.any():
            done, keep = live[stop], ~stop
            out_z[done], out_f[done], out_iters[done] = z[stop], f[stop], iters[stop]
            live, z, f, err, coeffs = live[keep], z[keep], f[keep], err[keep], coeffs[keep]
            step, iters, data = step[keep], iters[keep], data[keep]
    return out_z, out_f, out_iters


def ls_minimize(
    z0: Signal,
    trace: FrogTrace,
    l: int,
    opts: LsOptions = LsOptions(),
    on_iterate=None,
) -> tuple[Signal, float, int]:
    """Gradient descent with backtracking from z0.

    Terminates on the gradient tolerance (relative to 1 + objective), step
    underflow, or the iteration cap; non-convergence is an outcome, not an
    error.  ``on_iterate(iteration, objective)`` is called after each
    accepted step.
    """
    _check_dims(z0, trace, l)
    report = None if on_iterate is None else (lambda _, i, f: on_iterate(i, f))
    z, f, iters = _descend(
        _workspace_for(trace), z0.values[None], trace.data[None], opts, report
    )
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
    opts: LsOptions = LsOptions(),
) -> BasinGrid:
    """Empirical success-rate grid of the descent under sign perturbations.

    Each trial draws a real standard-normal signal, perturbs it by sigma
    times a random sign vector, descends, and scores success by the group
    distance threshold of 1e-6.  Every trial derives its own RNG stream from
    (seed, sigma index, L index, trial index), so the grid is reproducible
    and independent of how trials are batched.  All trials of one L descend
    together as one stack (split only to bound memory).
    """
    l_values = [int(l) for l in l_values]
    sigma_values = [float(s) for s in sigma_values]
    if n < 1 or trials < 1:
        raise InvalidParametersError(f"need N >= 1 and trials >= 1 (got N={n}, trials={trials})")
    for l in l_values:
        if l < 1 or n % l != 0:
            raise InvalidParametersError(f"step L={l} must divide N={n}")

    wins = np.zeros((len(sigma_values), len(l_values)))
    runs = [(i, t) for i in range(len(sigma_values)) for t in range(trials)]
    for j, l in enumerate(l_values):
        ws = _Workspace(n, l)
        batch = max(1, _BATCH_ENTRIES // (n * (n // l)))
        for first in range(0, len(runs), batch):
            chunk = runs[first:first + batch]
            draws = [_draw_trial(n, sigma_values[i], (seed, i, j, t)) for i, t in chunk]
            data = np.array([frog_trace(Signal(x), l).data for x, _ in draws])
            z0 = np.array([start for _, start in draws], dtype=complex)
            z_fin, _, _ = _descend(ws, z0, data, opts)
            for (i, _), (x, _), z in zip(chunk, draws, z_fin):
                dist, _ = dist_mod_group(dft(Signal(z)), dft(Signal(x)))
                wins[i, j] += dist <= SUCCESS_DISTANCE

    return BasinGrid(
        sigma_values=np.array(sigma_values),
        l_values=np.array(l_values),
        trials=trials,
        success_rate=wins / trials,
        seed=seed,
    )
