import numpy as np
import pytest

from frogkit import (
    BandlimitSpec,
    FrogTrace,
    InvalidParametersError,
    Signal,
    Spectrum,
    dft,
    frog_freq_coeffs,
    frog_trace,
    idft,
)
from frogkit.signal_model import shift_product_coeffs
from conftest import direct_trace, random_band_spectrum, random_signal


def delta(n):
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return Signal(v)


def test_dft_of_delta_is_constant():
    assert np.allclose(dft(delta(4)).values, np.ones(4))


def test_dft_of_constant_is_delta():
    out = dft(Signal(np.ones(4))).values
    assert np.allclose(out, [4, 0, 0, 0])


def test_dft_round_trip(rng):
    x = random_signal(rng, 16)
    back = idft(dft(x)).values
    assert np.max(np.abs(back - x.values)) <= 1e-12 * np.max(np.abs(x.values))


def test_frog_trace_delta():
    tr = frog_trace(delta(4), 1)
    assert np.allclose(tr.data[:, 0], 1.0)
    assert np.allclose(tr.data[:, 1:], 0.0)


def test_frog_trace_constant():
    tr = frog_trace(Signal(np.ones(4)), 1)
    for m in range(4):
        assert np.allclose(tr.data[:, m], [16, 0, 0, 0])


def test_frog_trace_bitwise_equals_direct_formula(rng):
    # columns 0..r//2 are the direct formula bit for bit, and column r - m is
    # an exact copy of column m, within float noise of its own direct formula
    for n in (1, 2, 15, 24, 64, 256):
        for l in (d for d in range(1, n + 1) if n % d == 0):
            x = random_signal(rng, n)
            r, direct = n // l, direct_trace(x.values, l)
            mirrored = np.concatenate([direct[:, : r // 2 + 1], direct[:, (r - 1) // 2 : 0 : -1]], 1)
            got = frog_trace(x, l).data
            assert np.array_equal(got, mirrored)
            assert np.max(np.abs(got - direct)) <= 1e-15 * np.max(direct)


def test_shift_product_coeffs_stack_equals_single(rng):
    stack = np.array([random_signal(rng, 12).values for _ in range(5)])
    coeffs = shift_product_coeffs(stack, 3)
    assert coeffs.shape == (5, 12, 4)
    for row, block in zip(stack, coeffs):
        assert np.array_equal(shift_product_coeffs(row, 3), block)


def test_frog_trace_rejects_bad_step():
    with pytest.raises(InvalidParametersError):
        frog_trace(delta(6), 4)
    # each broken rule of the step is named: L >= 1, then L divides N
    for make in (lambda: frog_trace(delta(4), 0), lambda: frog_freq_coeffs(dft(delta(4)), -1),
                 lambda: FrogTrace(np.ones((4, 4)), 0)):
        with pytest.raises(InvalidParametersError, match=r"^step L must be >= 1 \(got"):
            make()
    with pytest.raises(InvalidParametersError, match="^step L=3 must divide N=8$"):
        FrogTrace(np.ones((8, 4)), 3)


@pytest.mark.parametrize("make", [lambda: FrogTrace(np.ones((8, 4)), 2.0),
                                  lambda: frog_trace(delta(8), 2.0)], ids=["FrogTrace", "frog_trace"])
def test_trace_rejects_a_non_integer_step(make):
    with pytest.raises(InvalidParametersError, match="step L must be an integer"):
        make()


def test_trace_type_rejects_negative_and_bad_shape():
    with pytest.raises(InvalidParametersError):
        FrogTrace(-np.ones((4, 4)), 1)
    with pytest.raises(InvalidParametersError):
        FrogTrace(np.ones((4, 3)), 1)
    with pytest.raises(InvalidParametersError, match="non-empty 2-D"):
        FrogTrace(np.ones((0, 0)), 1)


@pytest.mark.parametrize(
    "make",
    [lambda: FrogTrace([[1 + 2j]], 1), lambda: Signal([[1], [2, 3]]),
     lambda: Signal([10**400]), lambda: Spectrum(["x"])],
    ids=["complex trace", "ragged signal", "signal out of float range", "text spectrum"],
)
def test_types_reject_non_numeric_input(make):
    with pytest.raises(InvalidParametersError, match="must be numeric"):
        make()


def test_trace_columns_m_and_r_minus_m_equal(rng):
    # reflected shifts carry the same magnitudes for any signal
    for n, l in [(12, 2), (15, 5), (16, 4)]:
        x = random_signal(rng, n)
        tr = frog_trace(x, l).data
        r = n // l
        for m in range(1, r):
            assert np.max(np.abs(tr[:, m] - tr[:, (r - m) % r])) <= 1e-10 * np.max(tr)


def test_freq_coeffs_single_coefficient():
    n = 8
    c = 3.0
    values = np.zeros(n, dtype=complex)
    values[0] = c
    out = frog_freq_coeffs(Spectrum(values), 2)
    assert np.allclose(out[0, :], c**2 / n)
    assert np.allclose(out[1:, :], 0.0)


def test_freq_coeffs_two_coefficients_hand_value():
    # spectrum (1, 1, 0, 0), N=4, L=1: row 1 equals (1 + w^m)/4
    out = frog_freq_coeffs(Spectrum([1, 1, 0, 0]), 1)
    omega = np.exp(2j * np.pi / 4)
    for m in range(4):
        assert abs(out[1, m] - (1 + omega**m) / 4) < 1e-12


def test_freq_coeffs_match_time_domain(rng):
    for _ in range(20):
        n = int(rng.integers(4, 33))
        l = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        x = random_signal(rng, n)
        tr = frog_trace(x, l).data
        co = np.abs(frog_freq_coeffs(dft(x), l)) ** 2
        assert np.max(np.abs(tr - co)) <= 1e-9 * np.max(tr)


@pytest.mark.parametrize("n", [24, 64, 96, 128, 256])
def test_freq_coeffs_equal_shift_product_coeffs(n):
    # the complex values, not only the magnitudes: column m's phases are the
    # r-th roots of unity, read at exponents reduced mod r
    rng = np.random.default_rng(n)
    x = random_signal(rng, n)
    for l in [d for d in range(1, n + 1) if n % d == 0][:4]:
        want = shift_product_coeffs(x.values, l)
        got = frog_freq_coeffs(dft(x), l)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), l


def test_bandlimit_pyramid_rows_vanish(rng):
    n = 16
    xhat, _ = random_band_spectrum(rng, n, n // 2)
    out = frog_freq_coeffs(xhat, 4)
    rows_below = out[2 * (n // 2) - 1 :, :]
    assert np.max(np.abs(rows_below)) <= 1e-12 * np.max(np.abs(out))


def test_column_zero_energy_identity(rng):
    # sum_k trace[k, 0] = N * sum_n |x_n|^4
    x = random_signal(rng, 12)
    tr = frog_trace(x, 3)
    lhs = np.sum(tr.data[:, 0])
    rhs = 12 * np.sum(np.abs(x.values) ** 4)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_values_are_immutable(rng):
    x = random_signal(rng, 8)
    with pytest.raises(ValueError):
        x.values[0] = 0.0


def test_non_finite_values_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        for entry in (complex(bad, 0.0), complex(0.0, bad)):
            values = np.ones(4, dtype=complex)
            values[1] = entry
            with pytest.raises(InvalidParametersError):
                Signal(values)
        data = np.ones((4, 4))
        data[2, 3] = bad
        with pytest.raises(InvalidParametersError):
            FrogTrace(data, 1)


def test_band_exponents_must_fit_in_int64():
    top, b = 2**63 - 1, 4
    for start in (-(2**63), top - b + 1):
        band = BandlimitSpec(b, start)
        assert list(band.exponents(16)) == [start % 16 + j for j in range(b)]
        assert list(band.indices(16)) == [(start + j) % 16 for j in range(b)]
    for start in (-(2**63) - 1, top - b + 2, 10**20, -(10**20)):
        with pytest.raises(InvalidParametersError, match="int64"):
            BandlimitSpec(b, start)


@pytest.mark.parametrize("b, start", [(2.5, 0), (4, 2.5), (4.0, 0), (4, "1")])
def test_band_rejects_non_integral_width_or_start(b, start):
    name = "bandlimit b" if isinstance(start, int) else "bandlimit start"
    with pytest.raises(InvalidParametersError, match=f"^{name} must be an integer$"):
        BandlimitSpec(b, start)


def test_band_accepts_numpy_integers():
    assert list(BandlimitSpec(np.int64(3), np.int32(14)).indices(16)) == [14, 15, 0]


def test_spectrum_keeps_non_finite_values():
    # a failed recovery may hand back such a spectrum; it is reported, not rejected
    assert np.isnan(Spectrum([1.0, np.nan]).values[1])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_freq_coeffs_reject_non_finite_spectra(bad):
    # these returned NaN with a RuntimeWarning
    with pytest.raises(InvalidParametersError, match="finite"):
        frog_freq_coeffs(Spectrum([bad, 1.0, 1.0, 1.0]), 1)
