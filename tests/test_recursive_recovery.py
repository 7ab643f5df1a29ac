import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogkit import (
    AmbiguousBranchError,
    BandlimitSpec,
    DegenerateSignalError,
    FrogkitError,
    FrogTrace,
    InconsistentTraceError,
    InvalidParametersError,
    RecoverySettings,
    Spectrum,
    dist_mod_group,
    frog_freq_coeffs,
    frog_trace,
    idft,
    pyramid_centers,
    recover,
    select_equations,
)
from frogkit.recursive_recovery import (
    _Branch,
    _tail_residual,
    distinct_columns,
    is_degenerate_column,
    usable_columns,
)
from conftest import random_band_spectrum


def trace_of(xhat, l):
    return frog_trace(idft(xhat), l)


def roundtrip(xhat, band, l, r, power=False):
    settings = RecoverySettings(r=r, use_power_spectrum=power)
    ps = np.abs(xhat.values) ** 2 if power else None
    report = recover(trace_of(xhat, l), band, settings, ps)
    d, _ = dist_mod_group(report.spectrum, xhat, band)
    return report, d


class TestSettings:
    def test_r3_requires_power_spectrum(self):
        with pytest.raises(InvalidParametersError):
            RecoverySettings(r=3)
        RecoverySettings(r=3, use_power_spectrum=True)

    def test_r2_rejected(self):
        with pytest.raises(InvalidParametersError):
            RecoverySettings(r=2, use_power_spectrum=True)

    def test_tolerance_must_be_finite_and_positive(self):
        for tol in (float("nan"), float("inf"), 0.0, -1e-7):
            with pytest.raises(InvalidParametersError, match="consistency_tol"):
                RecoverySettings(r=4, consistency_tol=tol)

    def test_band_too_wide_rejected(self, rng):
        xhat, _ = random_band_spectrum(rng, 16, 4)
        with pytest.raises(InvalidParametersError):
            recover(trace_of(xhat, 4), BandlimitSpec(9, 0), RecoverySettings(r=4))


class TestPyramidCenters:
    def test_row4_column0_hand_value(self, rng):
        prefix = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = pyramid_centers(prefix, 4, 0, 8)
        assert abs(got - (prefix[1] * prefix[3] + prefix[2] ** 2 / 2)) < 1e-12

    def test_degenerate_column_rejected(self, rng):
        prefix = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # for r=8 and row 4, odd columns have w^(4m) = -1
        with pytest.raises(InvalidParametersError):
            pyramid_centers(prefix, 4, 1, 8)

    def test_matches_frequency_domain_oracle(self, rng):
        # offsets equal the zeroed-entry row coefficients, renormalized
        n, b, l = 24, 8, 6
        r = n // l
        xhat, _ = random_band_spectrum(rng, n, b)
        omega = np.exp(2j * np.pi / r)
        for k in range(2, b):
            zeroed = xhat.values.copy()
            zeroed[k] = 0.0
            coeffs = frog_freq_coeffs(Spectrum(zeroed), l)
            for m in usable_columns(k, r):
                expected = n * coeffs[k, m] / (1 + omega ** (k * m))
                got = pyramid_centers(xhat.values[:k], k, m, r)
                assert abs(got - expected) <= 1e-9 * (1 + abs(expected))


def _reference_pyramid_centers(prefix, k, m, r):
    """The one-column offset as numpy array arithmetic, per call."""
    prefix = np.asarray(prefix, dtype=np.complex128)
    j = np.arange(1, k)
    if j.size == 0:
        return 0j
    w_jm = np.exp(2j * np.pi * ((j * m) % r) / r)
    s = np.sum(prefix[j] * prefix[k - j] * w_jm)
    return complex(s / (1.0 + np.exp(2j * np.pi * ((k * m) % r) / r)))


def _reference_tail_residual(coeffs, k, n, r, reader, b):
    """The tail-row mismatch as numpy array arithmetic, per column."""
    prefix = np.asarray(coeffs, dtype=np.complex128)
    ms = distinct_columns(r)[:3]
    j = np.arange(max(0, k - b + 1), min(b - 1, k) + 1)
    worst, scale = 0.0, 1.0
    for m in ms:
        w_jm = np.exp(2j * np.pi * ((j * m) % r) / r)
        pred = float(abs(np.sum(prefix[j] * prefix[k - j] * w_jm))) if j.size else 0.0
        meas = n * reader.magnitude(k, m)
        scale = max(scale, 1.0 + meas)
        worst = max(worst, abs(pred - meas))
    return worst / scale, ms


def _reference_usable_columns(k, r):
    keep = []
    for m in range(r):
        if not is_degenerate_column(k, m, r) and (m == 0 or (r - m) % r not in keep):
            keep.append(m)
    return keep


class _ArrayReader:
    def __init__(self, data):
        self.data = data

    def magnitude(self, k, m):
        return float(np.sqrt(self.data[k, m]))


_entry = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(_entry, min_size=3, max_size=12),
    r=st.sampled_from([3, 4, 5, 6, 7, 8, 16, 256]),
    k=st.integers(0, 600),
    data=st.data(),
)
def test_offsets_and_tail_match_numpy_reference(coeffs, r, k, data):
    assert usable_columns(k, r) == _reference_usable_columns(k, r)
    b = len(coeffs)
    row = data.draw(st.integers(2, b - 1), label="row")
    for m in usable_columns(row, r):
        want = _reference_pyramid_centers(coeffs, row, m, r)
        assert abs(pyramid_centers(coeffs, row, m, r) - want) <= 1e-12 * (1 + abs(want))

    tail_row = data.draw(st.integers(b, 2 * b - 2), label="tail row")
    n = 2 * b
    reader = _ArrayReader(np.random.default_rng(r * b).uniform(0.0, 100.0, (n, r)))
    got, ms = _tail_residual(_Branch(tuple(coeffs), (), ()), tail_row, n, r, reader, b)
    want, want_ms = _reference_tail_residual(coeffs, tail_row, n, r, reader, b)
    assert list(ms) == want_ms
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


class TestSelectEquations:
    def centers(self, rng, k, r):
        prefix = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        prefix[0] = 1.0
        return lambda m: pyramid_centers(prefix, k, m, r)

    def test_r5_prefers_first_three(self, rng):
        assert select_equations(4, 5, self.centers(rng, 4, 5)) == (0, 1, 2)

    def test_r8_avoids_degenerate_columns(self, rng):
        triple = select_equations(4, 8, self.centers(rng, 4, 8))
        assert triple == (0, 2, 4)
        for m in triple:
            assert m not in (1, 3, 5, 7)

    def test_r16_avoids_column_two(self, rng):
        triple = select_equations(4, 16, self.centers(rng, 4, 16))
        assert 2 not in triple
        assert triple == (0, 1, 3)

    def test_no_pair_sums_to_r(self, rng):
        for r in (5, 6, 7, 8, 12, 16):
            for k in (4, 5, 6):
                if len(usable_columns(k, r)) < 3:
                    continue
                triple = select_equations(k, r, self.centers(rng, k, r))
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert (triple[i] + triple[j]) % r != 0 or triple[i] == triple[j] == 0


class TestUsableColumns:
    def test_duplicate_halves_dropped(self):
        assert usable_columns(4, 4) == [0, 1, 2]
        assert usable_columns(5, 4) == [0, 1]
        assert usable_columns(2, 4) == [0, 2]
        assert usable_columns(3, 4) == [0, 1]
        assert distinct_columns(3) == [0, 1]
        assert distinct_columns(4) == [0, 1, 2]


class TestRecover:
    def test_two_coefficient_band(self):
        values = np.zeros(8, dtype=complex)
        values[0] = values[1] = 1.0
        xhat = Spectrum(values)
        report, d = roundtrip(xhat, BandlimitSpec(2, 0), 2, 4)
        assert d <= 1e-8
        assert report.success

    def test_full_fork_band4(self, rng):
        for _ in range(5):
            xhat, band = random_band_spectrum(rng, 16, 4)
            report, d = roundtrip(xhat, band, 4, 4)
            assert d <= 1e-6
            assert report.x3_branch in ("first", "second")
            a, b = report.x3_branch_residuals
            winner, loser = (a, b) if report.x3_branch == "first" else (b, a)
            assert loser >= 1e2 * winner

    def test_band6_with_two_column_rows(self, rng):
        for _ in range(5):
            xhat, band = random_band_spectrum(rng, 24, 6)
            report, d = roundtrip(xhat, band, 6, 4)
            assert d <= 1e-6
            assert report.equations_used[5] == [0, 1]

    def test_r3_with_power_spectrum(self, rng):
        for _ in range(5):
            xhat, band = random_band_spectrum(rng, 15, 5)
            report, d = roundtrip(xhat, band, 5, 3, power=True)
            assert d <= 1e-6

    def test_r3_without_power_spectrum_rejected(self, rng):
        xhat, band = random_band_spectrum(rng, 15, 5)
        with pytest.raises(InvalidParametersError):
            recover(trace_of(xhat, 5), band, RecoverySettings(r=4))

    def test_bad_power_spectrum_values_rejected(self, rng):
        xhat, band = random_band_spectrum(rng, 15, 5)
        settings = RecoverySettings(r=3, use_power_spectrum=True)
        for bad in (np.nan, np.inf, -1.0):
            power = np.abs(xhat.values) ** 2
            power[7] = bad  # outside the band: no row reads it
            with pytest.raises(InvalidParametersError, match="power spectrum"):
                recover(trace_of(xhat, 5), band, settings, power)

    def test_r3_unequal_duplicate_columns_rejected(self, rng):
        from frogkit import FrogTrace

        xhat, band = random_band_spectrum(rng, 15, 5)
        data = trace_of(xhat, 5).data.copy()
        data[4, 2] *= 1.5
        with pytest.raises(InvalidParametersError):
            recover(
                FrogTrace(data, 5),
                band,
                RecoverySettings(r=3, use_power_spectrum=True),
                np.abs(xhat.values) ** 2,
            )

    def test_wrapped_band_start(self, rng):
        xhat, band = random_band_spectrum(rng, 16, 4, start=13)
        report, d = roundtrip(xhat, band, 4, 4)
        assert d <= 1e-8
        outside = np.ones(16, dtype=bool)
        outside[band.indices(16)] = False
        assert np.all(report.spectrum.values[outside] == 0)

    def test_gauge_contract(self, rng):
        for start in (0, 5):
            xhat, band = random_band_spectrum(rng, 20, 5, start=start)
            report, _ = roundtrip(xhat, band, 5, 4)
            entries = report.spectrum.values[band.indices(20)]
            assert entries[0].imag == 0 and entries[0].real > 0
            assert entries[1].imag == 0 and entries[1].real >= 0
            assert entries[2].imag >= 0

    def test_measurement_budget(self, rng):
        for n, b, l in ((16, 4, 4), (20, 5, 5), (24, 6, 6)):
            xhat, band = random_band_spectrum(rng, n, b)
            report = recover(trace_of(xhat, l), band, RecoverySettings(r=4))
            assert report.measurement_reads <= 3 * (2 * b - 1)

    def test_reads_stay_inside_pyramid_rows(self, rng, monkeypatch):
        from frogkit.recursive_recovery import _TraceReader

        xhat, band = random_band_spectrum(rng, 24, 6)
        seen = set()
        original = _TraceReader.magnitude

        def spy(self, k, m):
            seen.add((k, m))
            return original(self, k, m)

        monkeypatch.setattr(_TraceReader, "magnitude", spy)
        recover(trace_of(xhat, 6), band, RecoverySettings(r=4))
        assert max(k for k, _ in seen) <= 2 * band.b - 2
        assert len(seen) <= 3 * (2 * band.b - 1)

    def test_degenerate_first_entry(self):
        # spectrum with a zero leading band entry
        values = np.zeros(16, dtype=complex)
        values[1] = 1.0
        values[2] = 1.0 - 0.5j
        values[3] = 0.3 + 0.2j
        trace = trace_of(Spectrum(values), 4)
        with pytest.raises(DegenerateSignalError):
            recover(trace, BandlimitSpec(4, 0), RecoverySettings(r=4))

    def test_degenerate_second_entry(self):
        values = np.zeros(16, dtype=complex)
        values[0] = 1.0
        values[2] = 1.0 - 0.5j
        values[3] = 0.3 + 0.2j
        trace = trace_of(Spectrum(values), 4)
        with pytest.raises(DegenerateSignalError):
            recover(trace, BandlimitSpec(4, 0), RecoverySettings(r=4))

    def test_inconsistent_trace_raises(self, rng):
        xhat, band = random_band_spectrum(rng, 16, 4)
        data = trace_of(xhat, 4).data.copy()
        data[2, :] *= 4.0  # corrupt one pyramid row beyond any tolerance
        from frogkit import FrogTrace

        with pytest.raises((InconsistentTraceError, AmbiguousBranchError)):
            recover(FrogTrace(data, 4), band, RecoverySettings(r=4))

    def test_statistical_uniqueness(self):
        wins = 0
        for i in range(60):
            rng = np.random.default_rng(5000 + i)
            n = [16, 20, 24][i % 3]
            xhat, band = random_band_spectrum(rng, n, n // 4)
            _, d = roundtrip(xhat, band, n // 4, 4)
            if d <= 1e-6:
                wins += 1
        assert wins >= 59

    @pytest.mark.parametrize("scale", [1e-300, 1e-32, 1e-16, 1.0, 1e100, 1e250, 1e307])
    def test_extreme_trace_scales_report_or_raise_frogkit_error(self, scale):
        # Python floats raise ZeroDivisionError or OverflowError where numpy
        # returned inf; neither, nor a numpy warning, may escape recover.
        # Whether a scaled trace recovers is a separate matter (scale is not
        # yet invariant), so only the kind of outcome is pinned here.
        for seed in range(3):
            xhat, band = random_band_spectrum(np.random.default_rng(seed), 16, 4)
            trace = FrogTrace(trace_of(xhat, 4).data * scale, 4)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    recover(trace, band, RecoverySettings(r=4))
                except FrogkitError:
                    pass
