import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogkit import (
    AmbiguousBranchError,
    BandlimitSpec,
    DegenerateSignalError,
    DegenerateSystemError,
    FrogkitError,
    FrogTrace,
    InconsistentTraceError,
    InvalidParametersError,
    RecoverySettings,
    Spectrum,
    UnderdeterminedSystemError,
    dist_mod_group,
    frog_freq_coeffs,
    frog_trace,
    idft,
    recover,
)
from frogkit import recursive_recovery
from frogkit.circle_solver import CircleSolution
from frogkit.recursive_recovery import (
    _Branch,
    _check_row,
    _columns,
    _row_sums,
    _solve_row,
)
from frogkit.signal_model import _roots_of_unity
from conftest import direct_trace, random_band_spectrum


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

    @pytest.mark.parametrize("r", [4.0, 4.5])
    def test_r_must_be_an_integer(self, r):
        # r = 4.0 was accepted, and recover then failed with a bare TypeError
        with pytest.raises(InvalidParametersError, match="r must be an integer"):
            RecoverySettings(r=r)

    def test_tolerance_must_be_finite_and_positive(self):
        for tol in (float("nan"), float("inf"), 0.0, -1e-7):
            with pytest.raises(InvalidParametersError, match="consistency_tol"):
                RecoverySettings(r=4, consistency_tol=tol)

    @pytest.mark.parametrize(
        "tol", [10**400, "a", None, np.array([1e-7, 1e-7])], ids=["1e400", "text", "None", "pair"]
    )
    def test_tolerance_must_be_one_number(self, tol):
        # math.isfinite raised a bare OverflowError or TypeError on these
        with pytest.raises(InvalidParametersError, match="consistency_tol"):
            RecoverySettings(r=4, consistency_tol=tol)

    @pytest.mark.parametrize("tol", [np.float32(1e-6), "1e-6", 1e-6], ids=["float32", "text", "float"])
    def test_tolerance_is_stored_as_a_float(self, tol):
        # text was stored as given, and recover then raised a bare TypeError
        stored = RecoverySettings(r=4, consistency_tol=tol).consistency_tol
        assert type(stored) is float and stored == float(np.float64(tol))

    def test_text_tolerance_recovers_as_its_float(self, rng):
        xhat, band = random_band_spectrum(rng, 16, 4)
        runs = [recover(trace_of(xhat, 4), band, RecoverySettings(r=4, consistency_tol=tol))
                for tol in ("1e-7", 1e-7)]
        assert runs[0].spectrum.values.tobytes() == runs[1].spectrum.values.tobytes()
        assert runs[0].success and runs[1].success

    def test_band_too_wide_rejected(self, rng):
        xhat, _ = random_band_spectrum(rng, 16, 4)
        with pytest.raises(InvalidParametersError):
            recover(trace_of(xhat, 4), BandlimitSpec(9, 0), RecoverySettings(r=4))


def _offset(prefix, k, m, r):
    """Offset v_m of row k from band entries 0..k-1, as the recursion forms it."""
    w = _roots_of_unity(r).tolist()
    (s,) = _row_sums(list(map(complex, prefix[:k])), k, (m,), w)
    return s / (1.0 + w[(k * m) % r])


class TestPyramidCenters:
    def test_row4_column0_hand_value(self, rng):
        prefix = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = _offset(prefix, 4, 0, 8)
        assert abs(got - (prefix[1] * prefix[3] + prefix[2] ** 2 / 2)) < 1e-12

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
            for m in _columns(k % r, r):
                expected = n * coeffs[k, m] / (1 + omega ** (k * m))
                got = _offset(xhat.values[:k], k, m, r)
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
    ms = list(range(r // 2 + 1))[:3]  # one column per pair {m, r-m}
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
        degenerate = (2 * k * m - r) % (2 * r) == 0  # w^(k*m) = -1
        if not degenerate and (m == 0 or (r - m) % r not in keep):
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
    assert list(_columns(k % r, r)) == _reference_usable_columns(k, r)
    b = len(coeffs)
    row = data.draw(st.integers(2, b - 1), label="row")
    for m in _columns(row % r, r):
        want = _reference_pyramid_centers(coeffs, row, m, r)
        assert abs(_offset(coeffs, row, m, r) - want) <= 1e-12 * (1 + abs(want))

    tail_row = data.draw(st.integers(b, 2 * b - 2), label="tail row")
    n = 2 * b
    reader = _ArrayReader(np.random.default_rng(r * b).uniform(0.0, 100.0, (n, r)))
    ms = _columns(None, r)[:3]  # the plan's columns past the band
    meas = [n * reader.magnitude(tail_row, m) for m in ms]
    branch = _Branch(tuple(coeffs), ())
    checked = _check_row(branch, tail_row, ms, _roots_of_unity(r).tolist(), meas, 1.0 + max(meas))
    (got,) = checked.residuals
    assert checked.coeffs == tuple(coeffs)
    want, want_ms = _reference_tail_residual(coeffs, tail_row, n, r, reader, b)
    assert list(ms) == want_ms
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("r", [3, 4, 8, 256])
def test_row_sums_match_the_direct_formula_bitwise(r):
    # the cached phase rows multiply q_j * w in the order the direct sum does,
    # on rows that add an entry (k < b) and rows past the band (k >= b)
    rng = np.random.default_rng(r)
    w = _roots_of_unity(r).tolist()
    ms = tuple(range(r))
    for b in (2, 5, 9):
        band = (rng.standard_normal(b) + 1j * rng.standard_normal(b)) * 10.0 ** rng.uniform(-2, 2, b)
        for k in range(2, 2 * b - 1):
            coeffs = band[:k].tolist() if k < b else band.tolist()
            lo, top = k - len(coeffs) + 1, len(coeffs) - 1
            q = [coeffs[j] * coeffs[k - j] for j in range(lo, top + 1)]
            want = [sum([qj * w[(j * m) % r] for j, qj in enumerate(q, lo)], 0j) for m in ms]
            got = _row_sums(coeffs, k, ms, w)
            assert [(x.real.hex(), x.imag.hex()) for x in got] == [
                (x.real.hex(), x.imag.hex()) for x in want
            ], (b, k)


def _report_bits(report):
    """Every field of a report, with its arrays and floats as exact bits."""
    return (
        report.spectrum.values.tobytes(),
        report.step_residuals.tobytes(),
        report.x3_branch,
        report.x3_branch_residuals,
        report.equations_used,
        report.success,
        report.measurement_reads,
        report.tail_residual,
    )


def test_recover_calls_the_solvers_through_module_globals(monkeypatch):
    # a wrapper on these names, such as a benchmark tracer, sees every
    # circle solve of the recursion and changes nothing
    xhat, band = random_band_spectrum(np.random.default_rng(11), 32, 8)
    trace, settings = trace_of(xhat, 8), RecoverySettings(r=4)
    plain = _report_bits(recover(trace, band, settings))
    calls = dict.fromkeys(("solve_generic", "solve_real_centers"), 0)
    for name in calls:

        def counted(*args, _solve=getattr(recursive_recovery, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(recursive_recovery, name, counted)
    assert _report_bits(recover(trace, band, settings)) == plain
    assert min(calls.values()) >= 1, calls


def test_recover_builds_one_circle_solution_per_solve(monkeypatch):
    # a collinear row hands back the candidates of its real solve, it does
    # not build a second, mapped solution
    xhat, band = random_band_spectrum(np.random.default_rng(11), 32, 8)
    trace, settings = trace_of(xhat, 8), RecoverySettings(r=4)
    calls = dict.fromkeys(("solve_generic", "solve_real_centers", "CircleSolution"), 0)

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("solve_generic", "solve_real_centers"):
        monkeypatch.setattr(recursive_recovery, name, count(name, getattr(recursive_recovery, name)))
    monkeypatch.setattr(CircleSolution, "__init__", count("CircleSolution", CircleSolution.__init__))
    recover(trace, band, settings)
    assert min(calls.values()) >= 1, calls
    assert calls["CircleSolution"] == calls["solve_generic"] + calls["solve_real_centers"], calls


class TestSolveRowByKind:
    """``_solve_row`` on the winning branch of a recursion-style input
    (N = 64, B = 16, r = 4), one row of each kind."""

    N, R = 64, 4

    @pytest.fixture(scope="class")
    def case(self):
        xhat, band = random_band_spectrum(np.random.default_rng(21), self.N, self.N // self.R)
        trace = trace_of(xhat, self.N // self.R)
        report = recover(trace, band, RecoverySettings(r=self.R))
        assert report.success
        return trace, report.spectrum.values[: band.b].tolist()

    def solve(self, case, k, x3_choice=None):
        """The children of the winner's first k entries at row k, read as
        ``recover`` reads it, and the row's columns."""
        trace, values = case
        w, row = _roots_of_unity(self.R).tolist(), trace.data[k].tolist()
        ms = _columns(k % self.R, self.R)[:3]
        radii = [self.N * math.sqrt(row[m]) / abs(1.0 + w[(k * m) % self.R]) for m in ms]
        scale = 1.0 + max(radii)
        parent = _Branch(tuple(values[:k]), (0.0,) * k, x3_choice)
        children = _solve_row(parent, k, ms, w, radii, scale, 1e-7 * scale)
        for child in children:
            assert child.coeffs[:k] == parent.coeffs and len(child.coeffs) == k + 1
            assert child.residuals[:k] == parent.residuals and len(child.residuals) == k + 1
        # the winner's entry is among the children, within the tolerance
        assert min(abs(c.coeffs[k] - values[k]) for c in children) <= 1e-7 * scale, k
        return children, ms

    def test_row2_keeps_one_child_in_the_upper_half_plane(self, case):
        children, ms = self.solve(case, 2)
        assert len(ms) == 2 and len(children) == 1
        assert children[0].coeffs[2].imag >= 0 and children[0].x3_choice is None

    def test_row3_forks_into_both_candidates(self, case):
        children, ms = self.solve(case, 3)
        assert len(ms) == 2
        assert [c.x3_choice for c in children] == [0, 1]

    @pytest.mark.parametrize("k", [5, 6, 7, 9, 13, 15])
    def test_two_circle_row_keeps_the_parent_fork(self, case, k):
        children, ms = self.solve(case, k, x3_choice=1)
        assert len(ms) == 2 and 1 <= len(children) <= 2
        assert all(c.x3_choice == 1 for c in children)

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_three_circle_row_gives_one_child(self, case, k):
        children, ms = self.solve(case, k, x3_choice=0)
        assert len(ms) == 3 and len(children) == 1
        assert children[0].x3_choice == 0


class TestSelectEquations:
    def select(self, k, r):
        """The columns the plan reads at band row k."""
        return _columns(k % r, r)[:3]

    def test_r5_prefers_first_three(self):
        assert self.select(4, 5) == (0, 1, 2)

    def test_r8_avoids_degenerate_columns(self):
        triple = self.select(4, 8)
        assert triple == (0, 2, 4)
        for m in triple:
            assert m not in (1, 3, 5, 7)

    def test_r16_avoids_column_two(self):
        triple = self.select(4, 16)
        assert 2 not in triple
        assert triple == (0, 1, 3)

    def test_no_pair_sums_to_r(self):
        for r in (5, 6, 7, 8, 12, 16):
            for k in (4, 5, 6):
                if len(_columns(k % r, r)) < 3:
                    continue
                triple = self.select(k, r)
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert (triple[i] + triple[j]) % r != 0 or triple[i] == triple[j] == 0


class TestUsableColumns:
    def test_duplicate_halves_dropped(self):
        assert _columns(4, 4) == (0, 1, 2)
        assert _columns(5, 4) == (0, 1)
        assert _columns(2, 4) == (0, 2)
        assert _columns(3, 4) == (0, 1)
        assert _columns(None, 3) == (0, 1)
        assert _columns(None, 4) == (0, 1, 2)


def _without_third_entry(seed, b):
    xhat, band = random_band_spectrum(np.random.default_rng(seed), 16, b)
    values = xhat.values.copy()
    values[2] = 0.0
    return Spectrum(values), band


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

    @pytest.mark.parametrize(
        "power", [[10**400] * 15, [[1], [1, 2]], ["a"] * 15], ids=["1e400", "ragged", "text"]
    )
    def test_non_numeric_power_spectrum_rejected(self, rng, power):
        # these escaped as a bare OverflowError or ValueError from np.asarray
        xhat, band = random_band_spectrum(rng, 15, 3)
        settings = RecoverySettings(r=3, use_power_spectrum=True)
        with pytest.raises(InvalidParametersError, match="power spectrum"):
            recover(trace_of(xhat, 5), band, settings, power)

    @pytest.mark.parametrize(
        "power, message", [(None, "none given"), (np.ones(15), "length N")]
    )
    def test_missing_or_short_power_spectrum_rejected(self, rng, power, message):
        xhat, band = random_band_spectrum(rng, 16, 4)
        settings = RecoverySettings(r=4, use_power_spectrum=True)
        with pytest.raises(InvalidParametersError, match=message):
            recover(trace_of(xhat, 4), band, settings, power)

    def test_all_zero_trace_is_degenerate(self):
        with pytest.raises(DegenerateSignalError, match="identically zero"):
            recover(FrogTrace(np.zeros((16, 4)), 4), BandlimitSpec(4, 0), RecoverySettings(r=4))

    def test_power_spectrum_without_its_setting_rejected(self, rng):
        xhat, band = random_band_spectrum(rng, 16, 4)
        for power in (np.full(16, -5.0), np.abs(xhat.values) ** 2):
            with pytest.raises(InvalidParametersError, match="use_power_spectrum"):
                recover(trace_of(xhat, 4), band, RecoverySettings(r=4), power)

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

    @pytest.mark.parametrize("start", [0, 5, -7])
    def test_reads_stay_inside_the_plan(self, rng, start):
        # rescaling every trace cell outside the plan leaves every report bit
        # as it was; band row k sits at trace row k + 2*start mod N
        n, b, l = 24, 6, 6
        xhat, band = random_band_spectrum(rng, n, b, start=start)
        trace = trace_of(xhat, l)
        report = recover(trace, band, RecoverySettings(r=4))
        cells = {((k + 2 * start) % n, m) for k, ms in report.equations_used.items() for m in ms}
        factor = rng.uniform(0.5, 1.0, trace.data.shape)
        for cell in cells:
            factor[cell] = 1.0
        again = recover(FrogTrace(trace.data * factor, l), band, RecoverySettings(r=4))
        assert _report_bits(again) == _report_bits(report)
        assert max(report.equations_used) <= 2 * band.b - 2
        assert len(cells) <= 3 * (2 * band.b - 1)
        assert report.measurement_reads == len(cells)

    @pytest.mark.parametrize("n,b,l", [(24, 6, 6), (32, 8, 4), (256, 8, 1)])
    def test_mirrored_columns_cannot_move_a_report(self, rng, n, b, l):
        # frog_trace copies column m into column r - m; the recursion reads
        # only m <= r//2, so directly transformed columns above r//2 change
        # no report bit
        xhat, band = random_band_spectrum(rng, n, b)
        r, trace = n // l, trace_of(xhat, l)
        report = recover(trace, band, RecoverySettings(r=r))
        assert max(m for ms in report.equations_used.values() for m in ms) <= r // 2
        data = trace.data.copy()
        data[:, r // 2 + 1 :] = direct_trace(idft(xhat).values, l)[:, r // 2 + 1 :]
        assert not np.array_equal(data, trace.data)
        again = recover(FrogTrace(data, l), band, RecoverySettings(r=r))
        assert _report_bits(again) == _report_bits(report)

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

    def test_vanishing_third_entry(self):
        # row 2 recovers x2 from squared magnitudes, so a zero x2 comes back
        # at the sqrt(eps) scale; it must read as degenerate, as x0 and x1 do
        for seed in range(5):
            xhat, band = _without_third_entry(seed, 4)
            with pytest.raises(DegenerateSignalError, match="band entry 2"):
                recover(trace_of(xhat, 4), band, RecoverySettings(r=4))

    def test_vanishing_third_entry_of_a_three_entry_band(self):
        # with b = 3 no row divides by x2, so the band still recovers
        for seed in range(3):
            xhat, band = _without_third_entry(seed, 3)
            report, d = roundtrip(xhat, band, 4, 4)
            assert report.success and d <= 1e-6

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


class TestBranchAccounting:
    """The fork and failure bookkeeping of the row loop, driven by a
    ``_solve_row`` that raises or duplicates at chosen rows."""

    def _patch(self, monkeypatch, hook):
        original = recursive_recovery._solve_row

        def patched(branch, k, *args):
            return hook(branch, k, lambda: original(branch, k, *args))

        monkeypatch.setattr(recursive_recovery, "_solve_row", patched)

    def _input(self):
        xhat, band = random_band_spectrum(np.random.default_rng(3), 20, 5)
        return trace_of(xhat, 5), band, RecoverySettings(r=4)

    def test_side_whose_branches_all_raise_reads_inf(self, monkeypatch):
        trace, band, settings = self._input()
        plain = recover(trace, band, settings)
        winner = ("first", "second").index(plain.x3_branch)

        def hook(branch, k, solve):
            if k == 4 and branch.x3_choice != winner:
                raise DegenerateSystemError("planted")
            return solve()

        self._patch(monkeypatch, hook)
        report = recover(trace, band, settings)
        want = [float(plain.step_residuals[4])] * 2
        want[1 - winner] = np.inf
        assert report.x3_branch == plain.x3_branch
        assert report.x3_branch_residuals == tuple(want)

    def test_mixed_failures_on_every_branch_are_inconsistent(self, monkeypatch):
        trace, band, settings = self._input()

        def hook(branch, k, solve):
            if k == 4:
                error = UnderdeterminedSystemError if branch.x3_choice else DegenerateSystemError
                raise error("planted")
            return solve()

        self._patch(monkeypatch, hook)
        with pytest.raises(InconsistentTraceError, match="every branch degenerated at row 4") as info:
            recover(trace, band, settings)
        assert info.value.step == 4

    def test_collinear_row_drops_every_branch(self, monkeypatch):
        # a row whose plan columns have collinear offsets has no unique
        # solution on any branch: no other column triple is tried
        trace, band, settings = self._input()
        original = recursive_recovery._row_sums

        def collinear(coeffs, k, ms, w):
            sums = original(coeffs, k, ms, w)
            # at r = 4 every row-4 divisor 1 + w^(4m) is 2: offsets v_0 + m
            return [sums[0] + 2.0 * m for m in ms] if k == 4 else sums

        monkeypatch.setattr(recursive_recovery, "_row_sums", collinear)
        with pytest.raises(InconsistentTraceError, match="every branch degenerated at row 4") as info:
            recover(trace, band, settings)
        assert info.value.step == 4

    def test_two_branches_on_one_side_are_ambiguous(self, monkeypatch):
        trace, band, settings = self._input()

        def hook(branch, k, solve):
            return solve() * 2 if k == 4 else solve()

        self._patch(monkeypatch, hook)
        with pytest.raises(AmbiguousBranchError, match="^2 branches remain consistent with the trace$"):
            recover(trace, band, settings)
