import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogkit import (
    AmbiguityElement,
    InvalidParametersError,
    LsOptions,
    Signal,
    apply,
    basin_experiment,
    dft,
    dist_mod_group,
    frog_trace,
    idft,
    ls_gradient,
    ls_minimize,
    ls_objective,
)
from frogkit import ls_solver
from frogkit.signal_model import _cyclic_windows
from conftest import random_signal


def finite_difference_gradient(z, trace):
    n = z.n
    out = np.zeros(n, dtype=complex)
    for p in range(n):
        h = 1e-6 * (1 + abs(z.values[p]))
        for direction in (1.0, 1j):
            zp = z.values.copy()
            zm = z.values.copy()
            zp[p] += direction * h
            zm[p] -= direction * h
            diff = (ls_objective(Signal(zp), trace) - ls_objective(Signal(zm), trace)) / (2 * h)
            out[p] += direction * diff
    return out


def test_objective_zero_at_truth(rng):
    x = random_signal(rng, 12)
    trace = frog_trace(x, 3)
    scale = 0.5 * np.sum(trace.data**2)
    assert ls_objective(x, trace) <= 1e-18 * scale


def test_objective_invariant_under_group(rng):
    x = random_signal(rng, 12)
    trace = frog_trace(x, 3)
    z = random_signal(rng, 12)
    f0 = ls_objective(z, trace)
    for g in (
        AmbiguityElement(psi=1.2),
        AmbiguityElement(shift=4.0),
        AmbiguityElement(reflected=True),
    ):
        zt = idft(apply(g, dft(z)))
        assert abs(ls_objective(zt, trace) - f0) <= 1e-10 * (1 + f0)


def test_objective_at_zero_is_half_sum_of_squares(rng):
    x = random_signal(rng, 8)
    trace = frog_trace(x, 2)
    z0 = Signal(np.zeros(8, dtype=complex))
    assert np.isclose(ls_objective(z0, trace), 0.5 * np.sum(trace.data**2))


def test_objective_dimension_mismatch(rng):
    x = random_signal(rng, 8)
    trace = frog_trace(x, 2)
    with pytest.raises(InvalidParametersError):
        ls_objective(random_signal(rng, 6), trace)


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        n = int(rng.choice([6, 8, 12]))
        l = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        z = random_signal(rng, n)
        trace = frog_trace(random_signal(rng, n), l)
        g = ls_gradient(z, trace).values
        fd = finite_difference_gradient(z, trace)
        assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))


def test_gradient_vanishes_at_truth(rng):
    x = random_signal(rng, 10)
    trace = frog_trace(x, 2)
    g = ls_gradient(x, trace).values
    scale = 1 + ls_objective(Signal(2 * x.values), trace)
    assert np.linalg.norm(g) <= 1e-9 * scale


def test_gradient_real_restriction(rng):
    # for real signals, the derivative along real perturbations is Re(g)
    x = Signal(rng.standard_normal(8).astype(complex))
    trace = frog_trace(Signal(rng.standard_normal(8)), 2)
    g = ls_gradient(x, trace).values
    for p in range(8):
        h = 1e-6
        zp, zm = x.values.copy(), x.values.copy()
        zp[p] += h
        zm[p] -= h
        fd = (ls_objective(Signal(zp), trace) - ls_objective(Signal(zm), trace)) / (2 * h)
        assert abs(fd - g[p].real) <= 1e-5 * (1 + abs(fd))


def test_minimize_stops_immediately_at_truth(rng):
    x = random_signal(rng, 12)
    trace = frog_trace(x, 3)
    z, f, iters = ls_minimize(x, trace)
    assert iters == 0
    assert np.array_equal(z.values, x.values)


def test_minimize_monotone_objective(rng, monkeypatch):
    x = Signal(rng.standard_normal(16))
    trace = frog_trace(x, 4)
    z0 = Signal(x.values + 0.5 * (rng.integers(0, 2, 16) * 2 - 1))
    # the descent takes one gradient per accepted iterate, the start included
    iterates = []
    gradient = ls_solver._Workspace.gradient

    def spy(ws, z, data, state):
        iterates.append(Signal(z[0].copy()))
        return gradient(ws, z, data, state)

    monkeypatch.setattr(ls_solver._Workspace, "gradient", spy)
    _, f, iters = ls_minimize(z0, trace, LsOptions(max_iters=300))
    assert len(iterates) == iters == 300
    history = [ls_objective(z, trace) for z in iterates] + [f]
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_minimize_small_perturbation_recovers(rng):
    wins = 0
    for seed in range(10):
        srng = np.random.default_rng(seed)
        x = Signal(srng.standard_normal(24))
        trace = frog_trace(x, 1)
        z0 = Signal(x.values + 0.01 * (srng.integers(0, 2, 24) * 2 - 1))
        z, f, _ = ls_minimize(z0, trace)
        d, _ = dist_mod_group(dft(z), dft(x))
        if d <= 1e-6:
            wins += 1
    assert wins >= 9


def test_minimize_far_start_often_stalls(rng):
    stuck = 0
    for seed in range(5):
        srng = np.random.default_rng(100 + seed)
        x = Signal(srng.standard_normal(16))
        trace = frog_trace(x, 8)
        z0 = Signal(srng.standard_normal(16) * 3.0)
        _, f, _ = ls_minimize(z0, trace, LsOptions(max_iters=400))
        if f > 1e-10:
            stuck += 1
    assert stuck >= 1


def test_basin_sigma_zero_always_succeeds():
    grid = basin_experiment(12, [1, 3], [0.0], trials=5, seed=7)
    assert np.all(grid.success_rate == 1.0)


def test_basin_reproducible(monkeypatch):
    a = basin_experiment(12, [1, 2], [0.0, 0.3], trials=4, seed=11)
    b = basin_experiment(12, [1, 2], [0.0, 0.3], trials=4, seed=11)
    assert np.array_equal(a.success_rate, b.success_rate)
    # the grid must not depend on how trials are stacked: one trial per batch
    monkeypatch.setattr(ls_solver, "_BATCH_ENTRIES", 1)
    c = basin_experiment(12, [1, 2], [0.0, 0.3], trials=4, seed=11)
    assert np.array_equal(a.success_rate, c.success_rate)


def test_basin_scores_an_overflowing_iterate_as_a_miss():
    # a start x + 1e308 * signs is finite, but its spectrum overflows; the
    # command line runs the grid under this errstate
    with np.errstate(over="ignore", invalid="ignore"):
        grid = basin_experiment(8, [1, 2], [1e308], trials=2, seed=1)
    assert np.array_equal(grid.success_rate, [[0.0, 0.0]])


def _batch_inputs(n, l, sigmas, seed):
    starts, traces = [], []
    for k, sigma in enumerate(sigmas):
        x, z0 = ls_solver._draw_trial(n, sigma, (seed, k))
        starts.append(z0)
        traces.append(frog_trace(Signal(x), l))
    return np.array(starts, dtype=complex), traces


def _assert_batch_matches_serial(n, l, sigmas, seed, opts):
    starts, traces = _batch_inputs(n, l, sigmas, seed)
    data = np.array([tr.data for tr in traces])
    z, f, iters = ls_solver._descend(ls_solver._Workspace(n, l), starts, data, opts)
    for k, trace in enumerate(traces):
        z_ref, f_ref, iters_ref = ls_minimize(Signal(starts[k]), trace, opts)
        assert np.array_equal(z[k], z_ref.values)
        assert f[k] == f_ref
        assert iters[k] == iters_ref
    return iters


def test_batched_descent_matches_serial_on_mixed_batch(monkeypatch):
    # a loose tolerance, so that some trials stop on it before the cap
    monkeypatch.setattr(ls_solver, "_GRAD_TOL", 0.5)
    opts = LsOptions(max_iters=400)
    sigmas = [0.0, 0.02, 0.3, 0.0, 1.0, 2.0, 0.01, 0.5]
    iters = _assert_batch_matches_serial(12, 2, sigmas, 3, opts)
    assert iters[0] == 0 and iters[3] == 0  # sigma = 0 starts at the truth
    assert 0 < iters.min(where=iters > 0, initial=opts.max_iters) < opts.max_iters
    assert np.any(iters == opts.max_iters)


def test_batched_descent_when_all_trials_stop_together(monkeypatch):
    # all at the truth: every trial stops at iteration 0
    iters = _assert_batch_matches_serial(12, 3, [0.0] * 4, 5, LsOptions())
    assert np.all(iters == 0)
    # all far away with a tiny cap: every trial stops at the cap
    opts = LsOptions(max_iters=4)
    iters = _assert_batch_matches_serial(12, 3, [2.0] * 4, 5, opts)
    assert np.all(iters == opts.max_iters)
    # a first step below the backtracking floor: every trial gives up at once
    monkeypatch.setattr(ls_solver, "_STEP0", 1e-19)
    iters = _assert_batch_matches_serial(12, 3, [2.0] * 4, 5, LsOptions())
    assert np.all(iters == 0)


def _reference_minimize(z, data, l, opts):
    """One trial at a time, recomputing the model for every gradient: the
    descent as first written, kept as the bitwise reference."""
    n, r = data.shape
    fwd = (np.arange(n)[:, None] + np.arange(r)[None, :] * l) % n
    bwd = (np.arange(n)[:, None] - np.arange(r)[None, :] * l) % n

    def model(z):
        coeffs = np.fft.fft(z[:, None] * z[fwd], axis=0)
        return np.abs(coeffs) ** 2, coeffs

    def objective(z):
        return 0.5 * float(np.sum((data - model(z)[0]) ** 2))

    def gradient(z):
        m, coeffs = model(z)
        back = n * np.fft.ifft((data - m) * coeffs, axis=0)
        term2 = (np.conj(z)[:, None] * back)[bwd, np.arange(r)[None, :]]
        return -2.0 * np.sum(np.conj(z[fwd]) * back + term2, axis=1)

    f, step, iters = objective(z), ls_solver._STEP0, 0
    for _ in range(opts.max_iters):
        g = gradient(z)
        gnorm2 = float(np.vdot(g, g).real)
        if np.sqrt(gnorm2) <= ls_solver._GRAD_TOL * (1.0 + abs(f)):
            break
        t = step
        while t > 1e-18:
            z_new = z - t * g
            f_new = objective(z_new)
            if f_new <= f - 1e-4 * t * gnorm2:
                break
            t *= 0.5
        else:
            break
        z, f, step, iters = z_new, f_new, t / 0.5, iters + 1
    return z, f, iters


def test_minimize_matches_reference_loop(monkeypatch):
    opts = LsOptions(max_iters=300)
    cases = [  # (L, sigma, start scale, gradient tolerance): every way a descent stops
        (1, 0.1, 1.0, 1e-9),  # iteration cap
        (8, 0.25, 1.0, 1e-9),  # iteration cap
        (2, 0.02, 1.0, 0.5),  # gradient tolerance, mid-run
        (4, 1.0, 1.0, 0.5),  # gradient tolerance, early
        (3, 0.0, 1.0, 0.5),  # at the truth
        (4, 1.0, 1e4, 1e-9),  # no step decreases enough: underflow
    ]
    stops = set()
    for l, sigma, scale, grad_tol in cases:
        monkeypatch.setattr(ls_solver, "_GRAD_TOL", grad_tol)
        starts, traces = _batch_inputs(24, l, [sigma], 17)
        z, f, iters = ls_minimize(Signal(scale * starts[0]), traces[0], opts)
        z_ref, f_ref, iters_ref = _reference_minimize(scale * starts[0], traces[0].data, l, opts)
        assert np.array_equal(z.values, z_ref)
        assert f == f_ref
        assert iters == iters_ref
        stops.add("cap" if iters == opts.max_iters else "start" if iters == 0 else "mid")
    assert stops == {"cap", "start", "mid"}


@st.composite
def _real_stacks(draw):
    """Real trials at one N, odd or even, each with its own step L."""
    n = draw(st.sampled_from([1, 2, 5, 6, 7, 9, 12, 15, 16]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    steps = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    traces = [frog_trace(Signal(rng.standard_normal(n)), l) for l in steps]
    trial = st.sampled_from(range(len(steps)))
    sub = draw(st.lists(trial, unique=True).map(sorted))
    shuffled = draw(st.lists(trial))  # any order, with repeats, as tiling asks
    z = rng.standard_normal((len(steps), n))
    return n, steps, traces, z, np.array(sub, dtype=int), np.array(shuffled, dtype=int)


@settings(max_examples=60, deadline=None)
@given(stack=_real_stacks())
def test_real_stack_matches_complex_objective_and_gradient(stack):
    n, steps, traces, z, sub, shuffled = stack
    ws = ls_solver._RealWorkspace(n)
    data = ws.stack(steps, [tr.data for tr in traces])
    f, state = ws.evaluate(z, data)
    g = ws.gradient(z, data, state)
    for k, (l, trace) in enumerate(zip(steps, traces)):
        f_ref = ls_objective(Signal(z[k]), trace)
        g_ref = ls_gradient(Signal(z[k]), trace).values
        assert abs(f[k] - f_ref) <= 1e-12 * f_ref
        assert np.max(np.abs(g[k] - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    # a subset of the stack, as backtracking evaluates it, and trials in any
    # order with repeats, as speculation does, give the same bits, with their
    # state at the rows ``select`` names in the full evaluation's state
    for trials in (sub, shuffled):
        part, rows = ws.select(data, trials)
        f_part, state_part = ws.evaluate(z[trials], part)
        assert np.array_equal(f_part, f[trials])
        assert np.array_equal(state_part, state[rows])
        assert np.array_equal(ws.gradient(z[trials], part, state_part), g[trials])
    assert np.array_equal(ws.select(data, sub)[1], np.flatnonzero(np.isin(data.rows, sub)))


def _reference_evaluate(ws, z, data):
    """The real kernel's objective and state by its plain formulas: the
    shifted factor from the window of all cyclic shifts, and the state of
    every column."""
    windows = _cyclic_windows(z)
    coeffs = np.fft.rfft(z[data.rows] * windows[data.rows, data.shift], axis=-1)
    err = data.half - (coeffs.real**2 + coeffs.imag**2)
    f = 0.5 * np.bincount(data.rows, data.count * np.einsum("ck,ck,k->c", err, err, ws.weight), len(z))
    err *= data.count[:, None]
    return f, err * coeffs


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(stack=_real_stacks(), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_real_kernel_matches_its_plain_formulas_bit_for_bit(stack, k, seed):
    n, steps, traces, z, sub, shuffled = stack
    ws = ls_solver._RealWorkspace(n)
    data = ws.stack(steps, [tr.data for tr in traces])
    size = len(steps)
    # the whole stack, a subset, any order with repeats, and k tiled copies
    for trials in (np.arange(size), sub, shuffled, np.tile(np.arange(size), k)):
        part, _ = ws.select(data, trials)
        f, state = ws.evaluate(z[trials], part)
        f_ref, state_ref = _reference_evaluate(ws, z[trials], part)
        assert _same_bits(f, f_ref) and _same_bits(state, state_ref)
        assert _same_bits(ws.residual(z[trials], part)[0], f_ref)
    # k candidates per trial, as one speculative call tries them; ``pick``
    # gives the state of each trial's chosen candidate, from every column's
    # state by a fancy index, and the state ``evaluate`` gives that candidate
    rng = np.random.default_rng(seed)
    z_all = z - (0.5 ** np.arange(k))[:, None, None] * rng.standard_normal((1, size, n))
    tiled, _ = ws.select(data, np.tile(np.arange(size), k))
    f_all, raw = ws.residual(z_all.reshape(-1, n), tiled)
    _, state_all = _reference_evaluate(ws, z_all.reshape(-1, n), tiled)
    first = rng.integers(0, k, size)
    cols = len(data.rows)
    picked = ws.pick(data, raw, first)
    chosen = z_all[first, np.arange(size)]
    assert _same_bits(picked, state_all.reshape(k, cols, -1)[first[data.rows], np.arange(cols)])
    f_new, state_new = ws.evaluate(chosen, data)
    assert _same_bits(picked, state_new)
    assert _same_bits(f_new, f_all.reshape(k, -1)[first, np.arange(size)])


def _stop_reason(n, l, trace, z, f, iters, opts):
    """Why a real descent that ended at z stopped."""
    ws = ls_solver._RealWorkspace(n)
    data = ws.stack([l], [trace.data])
    _, state = ws.evaluate(z[None], data)
    g = ws.gradient(z[None], data, state)
    if np.sqrt(ws.norm2(g)[0]) <= ls_solver._GRAD_TOL * (1.0 + abs(f)):
        return "at truth" if iters == 0 else "grad_tol"
    return "max_iters" if iters == opts.max_iters else "step underflow"


def _assert_real_stack_matches_alone(n, runs, seed, opts):
    """Descend real trials (L, sigma, start scale) as one stack and each
    alone; return why each trial stopped."""
    starts, traces = [], []
    for k, (l, sigma, scale) in enumerate(runs):
        x, z0 = ls_solver._draw_trial(n, sigma, (seed, k))
        starts.append(scale * z0)
        traces.append(frog_trace(Signal(x), l))
    ws = ls_solver._RealWorkspace(n)
    data = ws.stack([l for l, _, _ in runs], [tr.data for tr in traces])
    z, f, iters = ls_solver._descend(ws, np.array(starts), data, opts)
    reasons = []
    for k, ((l, _, _), trace) in enumerate(zip(runs, traces)):
        z_one, f_one, iters_one = ls_solver._descend(
            ws, starts[k][None], ws.stack([l], [trace.data]), opts
        )
        assert np.array_equal(z[k], z_one[0])
        assert f[k] == f_one[0]
        assert iters[k] == iters_one[0]
        reasons.append(_stop_reason(n, l, trace, z[k], f[k], iters[k], opts))
    return reasons


def test_real_stack_trials_match_trials_run_alone(monkeypatch):
    runs = [(1, 0.0, 1.0), (2, 0.02, 1.0), (4, 0.3, 1.0), (12, 0.5, 1.0), (3, 1.0, 1.0),
            (6, 0.0, 1.0), (1, 2.0, 1.0), (2, 0.5, 1.0), (4, 0.01, 1.0), (3, 0.25, 1.0)]
    # a loose tolerance, so that some trials stop on it before the cap
    monkeypatch.setattr(ls_solver, "_GRAD_TOL", 0.5)
    reasons = _assert_real_stack_matches_alone(12, runs, 23, LsOptions(max_iters=300))
    assert {"at truth", "grad_tol", "max_iters"} <= set(reasons)
    monkeypatch.undo()
    # a start scaled by 1e4 finds no step that decreases the objective
    runs[4] = (3, 1.0, 1e4)
    reasons = _assert_real_stack_matches_alone(12, runs, 23, LsOptions(max_iters=300))
    assert reasons[4] == "step underflow"
    assert {"at truth", "max_iters"} <= set(reasons)


def _real_runs(n, runs, seed):
    """Starts and traces of real trials (L, sigma, start scale)."""
    starts, traces = [], []
    for k, (l, sigma, scale) in enumerate(runs):
        x, z0 = ls_solver._draw_trial(n, sigma, (seed, k))
        starts.append(scale * z0)
        traces.append(frog_trace(Signal(x), l))
    return np.array(starts), traces


def _count_evaluations(monkeypatch):
    """Record the stack size of each kernel call: ``evaluate`` and the
    speculative call both run ``residual`` once."""
    calls = []
    residual = ls_solver._RealWorkspace.residual

    def spy(ws, z, data):
        calls.append(len(z))
        return residual(ws, z, data)

    monkeypatch.setattr(ls_solver._RealWorkspace, "residual", spy)
    return calls


def _count_gradients(monkeypatch):
    """Record the stack size of each gradient call: one per iteration."""
    calls = []
    gradient = ls_solver._RealWorkspace.gradient

    def spy(ws, z, data, state):
        calls.append(len(z))
        return gradient(ws, z, data, state)

    monkeypatch.setattr(ls_solver._RealWorkspace, "gradient", spy)
    return calls


def _assert_speculation_matches_one_step_per_call(monkeypatch, n, runs, seed, opts, k):
    """Descend a real stack that tries k steps per call at first, and again
    one step per call; return why each trial stopped and whether a trial had
    to halve past the speculated steps."""
    starts, traces = _real_runs(n, runs, seed)
    ws = ls_solver._RealWorkspace(n)
    data = ws.stack([l for l, _, _ in runs], [tr.data for tr in traces])
    calls, iterations = _count_evaluations(monkeypatch), _count_gradients(monkeypatch)
    z, f, iters = ls_solver._descend(ws, starts, data, opts)
    assert max(calls) == k * len(runs)
    # one call for the start and one per iteration; any other call halved
    # past the speculated steps
    fallback = len(calls) > 1 + len(iterations)
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(ls_solver, "_SPECULATE_ENTRIES", 1)
        z_one, f_one, iters_one = ls_solver._descend(ws, starts, data, opts)
    assert max(calls) == len(runs)
    assert np.array_equal(z, z_one)
    assert np.array_equal(f, f_one)
    assert np.array_equal(iters, iters_one)
    reasons = [
        _stop_reason(n, l, trace, z[k], f[k], iters[k], opts)
        for k, ((l, _, _), trace) in enumerate(zip(runs, traces))
    ]
    return reasons, fallback


def test_speculative_backtracking_matches_one_step_per_call(monkeypatch):
    opts = LsOptions(max_iters=300)
    # a start scaled by 10 needs many more than four halvings at first
    runs = [(1, 0.0, 1.0), (2, 0.02, 1.0), (4, 0.3, 1.0), (12, 0.5, 1.0), (3, 1.0, 10.0),
            (6, 0.0, 1.0), (1, 2.0, 1.0), (2, 0.5, 1.0), (4, 0.01, 1.0), (3, 0.25, 1.0)]
    # a loose tolerance, so that some trials stop on it before the cap
    monkeypatch.setattr(ls_solver, "_GRAD_TOL", 0.5)
    reasons, fallback = _assert_speculation_matches_one_step_per_call(
        monkeypatch, 12, runs, 29, opts, 4
    )
    assert {"at truth", "grad_tol", "max_iters"} <= set(reasons)
    # every trial found its steps, so the halving past the fourth step ended
    # in an accepted one
    assert fallback and "step underflow" not in reasons
    monkeypatch.setattr(ls_solver, "_GRAD_TOL", 1e-9)
    # a start scaled by 1e4 halves down to the smallest step and stops there
    runs[4] = (3, 1.0, 1e4)
    reasons, fallback = _assert_speculation_matches_one_step_per_call(
        monkeypatch, 12, runs, 29, opts, 4
    )
    assert reasons[4] == "step underflow" and fallback


@pytest.mark.parametrize("k", [2, 3])
def test_speculating_two_or_three_steps_matches_one_step_per_call(monkeypatch, k):
    # the live state holds 245 entries (35 columns of 7 rows), then 231 once
    # the trial at the truth leaves, so a budget of k * 245 entries tries k
    # steps per call throughout
    runs = [(1, 0.05, 1.0), (2, 0.02, 1.0), (4, 0.3, 1.0), (12, 0.5, 1.0), (3, 1.0, 10.0),
            (6, 0.0, 1.0), (1, 2.0, 1.0), (2, 0.5, 1.0), (4, 0.01, 1.0), (3, 0.25, 1.0)]
    monkeypatch.setattr(ls_solver, "_SPECULATE_ENTRIES", k * 245)
    reasons, fallback = _assert_speculation_matches_one_step_per_call(
        monkeypatch, 12, runs, 29, LsOptions(max_iters=300), k
    )
    assert reasons.count("at truth") == 1 and "max_iters" in reasons and fallback


def test_small_grid_backtracks_in_about_one_call_per_iteration(monkeypatch):
    # one evaluation for the start, then one per iteration (a gradient) but
    # for the rare step that needs more than four halvings
    calls, iterations = _count_evaluations(monkeypatch), _count_gradients(monkeypatch)
    basin_experiment(24, [1, 2, 4, 8], [0.0, 0.25, 0.5, 1.0, 2.0], trials=1, seed=31)
    assert len(iterations) > 1000  # the stuck trials run to the cap
    assert len(calls) <= 1.1 * len(iterations)


def test_complex_stack_tries_one_step_per_call(monkeypatch):
    # the complex kernel does not speculate, however small the stack
    sizes = []
    evaluate = ls_solver._Workspace.evaluate

    def spy(ws, z, data):
        sizes.append(len(z))
        return evaluate(ws, z, data)

    monkeypatch.setattr(ls_solver._Workspace, "evaluate", spy)
    starts, traces = _batch_inputs(12, 1, [0.25, 0.5, 1.0], 17)
    data = np.array([tr.data for tr in traces])
    ls_solver._descend(ls_solver._Workspace(12, 1), starts, data, LsOptions(max_iters=50))
    assert len(sizes) > 50 and max(sizes) == 3


def test_options_reject_an_empty_iteration_cap():
    with pytest.raises(InvalidParametersError, match="max_iters"):
        LsOptions(max_iters=0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 2.5, 2.0])
def test_options_reject_a_non_integer_iteration_cap(bad):
    # an infinite cap never stops a stuck descent; 2.5 ran 3 iterations
    with pytest.raises(InvalidParametersError, match="max_iters must be an integer"):
        LsOptions(max_iters=bad)
    assert LsOptions(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize(
    "args",
    [(8, [1.5], [0.0], 1, 0), (8.0, [1], [0.0], 1, 0), (8, [1], [0.0], 1.0, 0), (8, [1], [0.0], 1, 0.0)],
    ids=["l", "n", "trials", "seed"],
)
def test_basin_rejects_non_integer_parameters(args):
    # a float L was truncated (1.5 ran as L = 1); a float N, trials or seed
    # gave a bare TypeError
    with pytest.raises(InvalidParametersError, match="must be an integer"):
        basin_experiment(*args)


def test_basin_rejects_empty_trials_and_signals():
    with pytest.raises(InvalidParametersError):
        basin_experiment(12, [1], [0.0], trials=0, seed=0)
    with pytest.raises(InvalidParametersError):
        basin_experiment(0, [1], [0.0], trials=1, seed=0)


def test_basin_rejects_bad_step():
    with pytest.raises(InvalidParametersError):
        basin_experiment(12, [5], [0.0], trials=2, seed=0)
    with pytest.raises(InvalidParametersError, match=r"^step L must be >= 1 \(got 0\)$"):
        basin_experiment(8, [0], [0.0], 1, 0)


@pytest.mark.parametrize(
    "l_values, sigma_values",
    [([], [0.0]), ([1], []), ([1, 2], [0.0, np.nan]), ([1], [np.inf]), ([2], [-np.inf, 0.1])]
    # float(s) raised a bare OverflowError, ValueError or TypeError on these
    + [([1], [10**400]), ([1], ["a"]), ([1], [None]), ([1], [1j]), ([1], [[0.1]])],
)
def test_basin_rejects_empty_or_nonfinite_grid(l_values, sigma_values):
    with pytest.raises(InvalidParametersError):
        basin_experiment(12, l_values, sigma_values, trials=1, seed=0)


def test_basin_rejects_a_length_numpy_cannot_hold():
    # numpy refused a 2**62-entry array with a bare ValueError, before allocating it
    with pytest.raises(InvalidParametersError, match="N <="):
        basin_experiment(2**62, [1], [0.0], 1, 0)


def test_basin_rejects_negative_seed():
    with pytest.raises(InvalidParametersError, match="seed"):
        basin_experiment(12, [1], [0.0], trials=1, seed=-3)
