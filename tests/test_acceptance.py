"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np
import pytest

from frogkit import (
    AmbiguityElement,
    BandlimitSpec,
    DegenerateSystemError,
    InvalidParametersError,
    RecoverySettings,
    Signal,
    Spectrum,
    apply,
    basin_experiment,
    dft,
    dist_mod_group,
    frog_freq_coeffs,
    frog_trace,
    idft,
    ls_gradient,
    ls_objective,
    ratio_is_nonreal,
    recover,
    solve_generic,
    trace_invariant,
)
from conftest import fig2_spectrum, grid_min_residual, random_band_spectrum


def report(number, ok, details):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {details}")
    assert ok, f"criterion {number}: {details}"


def test_criterion_1_forward_model_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 65))
        l = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        x = Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        trace = frog_trace(x, l).data
        coeffs = np.abs(frog_freq_coeffs(dft(x), l)) ** 2
        worst = max(worst, float(np.max(np.abs(trace - coeffs)) / np.max(trace)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"max rel deviation {worst:.3e} over 200 cases in {elapsed:.2f}s")


def test_criterion_2_trace_equalities_and_control():
    xhat, band = fig2_spectrum()
    base = frog_trace(idft(xhat), 1).data
    shifted = frog_trace(idft(apply(AmbiguityElement(shift=3.0), xhat)), 1).data
    modulated = frog_trace(idft(apply(AmbiguityElement(shift=1.5), xhat, band)), 1).data
    d_shift = float(np.max(np.abs(base - shifted)) / np.max(base))
    d_mod = float(np.max(np.abs(base - modulated)) / np.max(base))

    rng = np.random.default_rng(102)
    full = Spectrum(rng.standard_normal(11) + 1j * rng.standard_normal(11))
    control = frog_trace(
        idft(apply(AmbiguityElement(shift=1.5), full, BandlimitSpec(11, 0))), 1
    ).data
    d_control = float(np.max(np.abs(frog_trace(idft(full), 1).data - control)))

    ok = d_shift <= 1e-10 and d_mod <= 1e-10 and d_control > 1e-3
    report(
        2,
        ok,
        f"integer shift {d_shift:.2e}, fractional {d_mod:.2e}, control deviates {d_control:.2e}",
    )


@pytest.fixture(scope="module")
def recursion_corpus():
    """100 seeded recoveries at N in {16, 20, 24}, B = N/4, r = 4."""
    start = time.monotonic()
    outcomes = []
    for i in range(100):
        rng = np.random.default_rng(30_000 + i)
        n = [16, 20, 24][i % 3]
        b = n // 4
        xhat, band = random_band_spectrum(rng, n, b)
        trace = frog_trace(idft(xhat), n // 4)
        try:
            rep = recover(trace, band, RecoverySettings(r=4))
            d, _ = dist_mod_group(rep.spectrum, xhat, band)
            outcomes.append((d, rep))
        except Exception as exc:  # a failed run counts against the tally
            outcomes.append((np.inf, exc))
    return outcomes, time.monotonic() - start


def test_criterion_3_recursion_statistics(recursion_corpus):
    outcomes, elapsed = recursion_corpus
    wins = sum(1 for d, _ in outcomes if d <= 1e-6)
    budget_ok = all(
        rep.measurement_reads <= 3 * (2 * rep.step_residuals.size - 1)
        for d, rep in outcomes
        if d <= 1e-6
    )
    ok = wins >= 99 and elapsed < 60.0 and budget_ok
    report(3, ok, f"{wins}/100 recovered at 1e-6 in {elapsed:.1f}s, reads within 3(2B-1)")


def test_criterion_4_power_spectrum_variant():
    start = time.monotonic()
    wins = 0
    for i in range(100):
        rng = np.random.default_rng(40_000 + i)
        xhat, band = random_band_spectrum(rng, 15, 5)
        trace = frog_trace(idft(xhat), 5)
        settings = RecoverySettings(r=3, use_power_spectrum=True)
        try:
            rep = recover(trace, band, settings, np.abs(xhat.values) ** 2)
            d, _ = dist_mod_group(rep.spectrum, xhat, band)
            if d <= 1e-6:
                wins += 1
        except Exception:
            pass
    elapsed = time.monotonic() - start
    try:
        RecoverySettings(r=3, use_power_spectrum=False)
        validator_rejects = False
    except InvalidParametersError:
        validator_rejects = True
    ok = wins >= 99 and validator_rejects
    report(4, ok, f"{wins}/100 with power spectrum in {elapsed:.1f}s; r=3 alone rejected")


def test_criterion_5_branch_rejection(recursion_corpus):
    outcomes, _ = recursion_corpus
    ratios = []
    for d, rep in outcomes:
        if d > 1e-6 or rep.x3_branch_residuals is None:
            continue
        first, second = rep.x3_branch_residuals
        true_res, spur_res = (first, second) if rep.x3_branch == "first" else (second, first)
        ratios.append(spur_res / max(true_res, 1e-300))
    min_ratio = min(ratios) if ratios else 0.0
    ok = bool(ratios) and min_ratio >= 1e2
    report(5, ok, f"minimum spurious/true residual ratio {min_ratio:.3e} over {len(ratios)} forks")


def test_criterion_6_circle_solver_oracle():
    rng = np.random.default_rng(606)

    def nonreal_offsets():
        while True:
            v = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
            try:
                if ratio_is_nonreal(v, 1, 2):
                    return v
            except DegenerateSystemError:
                continue

    worst_planted = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = nonreal_offsets()
        sol = solve_generic(v, np.abs(z + v))
        assert sol.kind == "unique" and len(sol.candidates) == 1
        worst_planted = max(worst_planted, abs(sol.candidates[0] - z))

    disagreements = 0
    for _ in range(1000):
        v = nonreal_offsets()
        radii = rng.uniform(0.1, 4.0, 3)
        box = float(np.max(np.abs(v)) + np.max(radii) + 1.0)
        tol = 1e-3 * box
        sol = solve_generic(v, radii, tol=tol)
        oracle_exists = grid_min_residual(v, radii, box) <= tol
        if (sol.kind == "unique") != oracle_exists:
            disagreements += 1
    ok = worst_planted <= 1e-9 and disagreements == 0
    report(
        6,
        ok,
        f"planted worst error {worst_planted:.2e}; verdict disagreements {disagreements}/1000",
    )


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        n = int(rng.choice([6, 8, 10, 12]))
        l = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        z = Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        trace = frog_trace(Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n)), l)
        g = ls_gradient(z, trace).values
        fd = np.zeros(n, dtype=complex)
        for p in range(n):
            h = 1e-6 * (1 + abs(z.values[p]))
            for direction in (1.0, 1j):
                zp, zm = z.values.copy(), z.values.copy()
                zp[p] += direction * h
                zm[p] -= direction * h
                diff = (ls_objective(Signal(zp), trace) - ls_objective(Signal(zm), trace)) / (2 * h)
                fd[p] += direction * diff
        worst = max(worst, float(np.max(np.abs(g - fd)) / (1 + np.max(np.abs(fd)))))
    ok = worst <= 1e-5
    report(7, ok, f"worst finite-difference mismatch {worst:.3e} over 50 instances")


@pytest.mark.slow
def test_criterion_8_basin_trends():
    start = time.monotonic()
    grid = basin_experiment(
        24, [1, 2, 4, 8], [0.0, 0.25, 0.5, 1.0, 2.0], trials=100, seed=2024
    )
    elapsed = time.monotonic() - start
    rate = grid.success_rate
    zero_row_ok = bool(np.all(rate[0] == 1.0))
    monotone_ok = bool(np.all(np.diff(rate, axis=0) <= 0.1))
    aggregate_ok = bool(rate[:, 0].mean() >= rate[:, 3].mean())
    ok = zero_row_ok and monotone_ok and aggregate_ok and elapsed < 600.0
    report(
        8,
        ok,
        f"sigma=0 row {zero_row_ok}, monotone {monotone_ok}, "
        f"L=1 mean {rate[:, 0].mean():.2f} >= L=8 mean {rate[:, 3].mean():.2f}, {elapsed:.0f}s",
    )


def test_criterion_9_ambiguity_suite():
    rng = np.random.default_rng(909)
    checks = 0
    passed = 0

    for _ in range(10):
        n = int(rng.choice([12, 15, 16]))
        l = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        xhat = Spectrum(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for g in (
            AmbiguityElement(psi=float(rng.uniform(0, 2 * np.pi))),
            AmbiguityElement(shift=float(rng.integers(0, n))),
            AmbiguityElement(reflected=True),
        ):
            checks += 1
            passed += trace_invariant(xhat, g, l)

    for _ in range(10):
        n = 16
        xhat, band = random_band_spectrum(rng, n, n // 2)
        checks += 1
        passed += trace_invariant(xhat, AmbiguityElement(shift=0.37), 4, band)
        full = Spectrum(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        checks += 1
        passed += not trace_invariant(
            full, AmbiguityElement(shift=0.37), 4, BandlimitSpec(n, 0)
        )

    refl = AmbiguityElement(reflected=True)
    for _ in range(10):
        xhat = Spectrum(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        ell = float(rng.integers(1, 12))
        lhs = apply(refl, apply(AmbiguityElement(shift=ell), xhat))
        rhs = apply(AmbiguityElement(shift=-ell), apply(refl, xhat))
        checks += 1
        passed += bool(np.max(np.abs(lhs.values - rhs.values)) <= 1e-12)

    ok = passed == checks
    report(9, ok, f"{passed}/{checks} group checks passed")
