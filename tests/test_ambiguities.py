import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frogkit import (
    AmbiguityElement,
    BandlimitSpec,
    InvalidParametersError,
    InvalidUseError,
    RecoverySettings,
    Spectrum,
    apply,
    dist_mod_group,
    frog_trace,
    idft,
    recover,
    trace_invariant,
)
from conftest import fig2_spectrum, random_band_spectrum


def test_identity_leaves_spectrum(rng):
    xhat = Spectrum(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    out = apply(AmbiguityElement(), xhat)
    assert np.array_equal(out.values, xhat.values)


def test_fractional_shift_on_wrapped_band():
    # entries at 9, 10 pick up exactly exp(-2*pi*i*1.5*k/11); the wrapped
    # part of the band is modulated with unwrapped exponents 11, 12, 13
    xhat, band = fig2_spectrum()
    out = apply(AmbiguityElement(shift=1.5), xhat, band).values
    n = 11
    for k in (9, 10):
        assert abs(out[k] - xhat.values[k] * np.exp(-2j * np.pi * 1.5 * k / n)) < 1e-12
    for k, e in ((0, 11), (1, 12), (2, 13)):
        assert abs(out[k] - xhat.values[k] * np.exp(-2j * np.pi * 1.5 * e / n)) < 1e-12


def test_reflection_is_involution(rng):
    xhat = Spectrum(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    g = AmbiguityElement(reflected=True)
    out = apply(g, apply(g, xhat))
    assert np.allclose(out.values, xhat.values, atol=1e-15)


def test_fractional_shift_requires_band(rng):
    xhat = Spectrum(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    with pytest.raises(InvalidUseError):
        apply(AmbiguityElement(shift=0.37), xhat)


def test_semidirect_relation_exact(rng):
    # reflect . shift(l) == shift(-l) . reflect on spectra
    xhat = Spectrum(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    refl = AmbiguityElement(reflected=True)
    for ell in (1, 3, 7):
        lhs = apply(refl, apply(AmbiguityElement(shift=float(ell)), xhat))
        rhs = apply(AmbiguityElement(shift=float(-ell)), apply(refl, xhat))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


def test_trace_invariance_of_generators(rng):
    xhat = Spectrum(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    for g in (
        AmbiguityElement(psi=0.9),
        AmbiguityElement(shift=5.0),
        AmbiguityElement(reflected=True),
        AmbiguityElement(psi=2.2, shift=3.0, reflected=True),
    ):
        assert trace_invariant(xhat, g, 3)


def test_continuous_shift_invariant_only_for_bandlimited(rng):
    n = 16
    xhat, band = random_band_spectrum(rng, n, n // 2)
    assert trace_invariant(xhat, AmbiguityElement(shift=0.37), 4, band)
    full = Spectrum(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert not trace_invariant(
        full, AmbiguityElement(shift=0.37), 4, BandlimitSpec(n, 0)
    )


def test_dist_identity(rng):
    a = Spectrum(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    d, g = dist_mod_group(a, a)
    assert d == 0.0
    assert g.shift == 0.0 and not g.reflected


def test_dist_rejects_zero_reference(rng):
    a = Spectrum(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    with pytest.raises(InvalidParametersError):
        dist_mod_group(a, Spectrum(np.zeros(8)))


def test_dist_rejects_unequal_lengths(rng):
    a = Spectrum(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    with pytest.raises(InvalidParametersError, match="equal length"):
        dist_mod_group(a, Spectrum(np.ones(9)))


@pytest.mark.parametrize("band", [None, BandlimitSpec(1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_dist_rejects_non_finite_spectra(band, bad, which):
    pair = [Spectrum([1.0, 1.0]), Spectrum([1.0, 1.0])]
    pair[which] = Spectrum([bad, 1.0])
    with pytest.raises(InvalidParametersError, match="finite"):
        dist_mod_group(*pair, band)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "g, band",
    [(AmbiguityElement(shift=1.0), None), (AmbiguityElement(shift=0.5), BandlimitSpec(2)),
     (AmbiguityElement(psi=0.3), None)],
    ids=["integer shift", "fractional shift", "rotation"],
)
def test_apply_rejects_non_finite_spectra(g, band, bad):
    # these returned NaN with a RuntimeWarning
    with pytest.raises(InvalidParametersError, match="finite"):
        apply(g, Spectrum([bad, 1.0, 1.0, 1.0]), band)


def test_integer_shift_phases_are_exact_for_large_shifts():
    # (shift mod N) * k is reduced mod N in integers; unreduced, the phase of
    # an N = 4096 shift drifts by about 1e-13
    n = 4096
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = np.arange(n)
    shifts = [1, -1, n - 1, n + 1, 10**9, -(10**9), *rng.integers(-(10**9), 10**9, 40).tolist()]
    for band in (None, BandlimitSpec(n // 4, 5)):
        for s in shifts:
            got = apply(AmbiguityElement(shift=float(s)), Spectrum(x), band).values
            want = x * np.exp(2j * np.pi * ((-s * k) % n) / n)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(x), (s, band)


@pytest.mark.parametrize("field", ["psi", "shift"])
@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf]
    # integers beyond the float range, which math.isfinite cannot convert
    + [pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")]
    # not real numbers, on which math.isfinite raised a bare TypeError
    + [pytest.param("a", id="text"), pytest.param(None, id="None"), pytest.param(1j, id="complex")],
)
def test_element_rejects_non_finite_parameters(field, bad):
    with pytest.raises(InvalidParametersError, match="finite"):
        AmbiguityElement(**{field: bad})


def test_dist_recovers_group_element_on_orbit(rng):
    n, b = 16, 6
    for _ in range(100):
        xhat, band = random_band_spectrum(rng, n, b, start=int(rng.integers(0, n)))
        g = AmbiguityElement(
            psi=float(rng.uniform(0, 2 * np.pi)),
            shift=float(rng.uniform(0, n)),
            reflected=bool(rng.integers(0, 2)),
        )
        target = apply(g, xhat, band)
        d, found = dist_mod_group(xhat, target, band)
        assert d <= 1e-8
        back = apply(found, xhat, band)
        assert np.linalg.norm(back.values - target.values) <= 1e-6 * np.linalg.norm(
            target.values
        )


def test_dist_discrete_orbit(rng):
    n = 12
    for _ in range(10):
        a = Spectrum(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = AmbiguityElement(
            psi=float(rng.uniform(0, 2 * np.pi)),
            shift=float(rng.integers(0, n)),
            reflected=bool(rng.integers(0, 2)),
        )
        d, _ = dist_mod_group(a, apply(g, a))
        assert d <= 1e-12


def test_dist_discrete_orbit_with_one_dominant_entry(rng):
    # |overlap| is the same for every shift up to ~1e-18 of its size, below
    # its rounding: only the exact residual tells the shifts apart
    n = 16
    values = 1e-9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    values[3] = 1.0
    a = Spectrum(values)
    for shift in (0.0, 5.0, 11.0):
        for reflected in (False, True):
            g = AmbiguityElement(psi=0.7, shift=shift, reflected=reflected)
            d, found = dist_mod_group(a, apply(g, a))
            assert d <= 1e-15
            assert (found.shift, found.reflected) == (shift, reflected)


def test_dist_unrelated_spectra_is_large():
    rng = np.random.default_rng(99)
    lowest = np.inf
    for _ in range(100):
        u = Spectrum(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        v = Spectrum(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        d, _ = dist_mod_group(u, v)
        lowest = min(lowest, d)
    # observed minimum for this seed is ~0.79; anything above 0.1 is "far"
    assert lowest > 0.1


def test_fig2_trace_equalities():
    xhat, band = fig2_spectrum()
    t0 = frog_trace(idft(xhat), 1).data
    t_shift = frog_trace(idft(apply(AmbiguityElement(shift=3.0), xhat)), 1).data
    t_frac = frog_trace(idft(apply(AmbiguityElement(shift=1.5), xhat, band)), 1).data
    assert np.max(np.abs(t0 - t_shift)) <= 1e-10 * np.max(t0)
    assert np.max(np.abs(t0 - t_frac)) <= 1e-10 * np.max(t0)


def _reference_golden_max(f, lo, hi, tol):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _reference_newton_max(coeffs, freqs, s0, radius):
    s = s0
    for _ in range(60):
        phase = np.exp(1j * freqs * s)
        c = np.sum(coeffs * phase)
        c1 = np.sum(coeffs * (1j * freqs) * phase)
        c2 = np.sum(coeffs * (1j * freqs) ** 2 * phase)
        g = 2.0 * np.real(np.conj(c) * c1)
        h = 2.0 * (np.real(np.conj(c1) * c1) + np.real(np.conj(c) * c2))
        if h >= 0 or not np.isfinite(g):
            break
        delta = -g / h
        if abs(s + delta - s0) > radius:
            return s0
        s += delta
        if abs(delta) < 1e-14 * (1.0 + abs(s)):
            break
    return s


def _reference_dist_mod_group(a, b, band=None):
    """The group distance as first written, kept as the reference: a loop
    over every integer shift, or for a band a 16N-point grid of the overlap
    refined by golden section to 1e-10 and then by Newton.

    Returns the distance, the element and the distance of the runner-up
    candidate (the next integer shift or reflection; for a band, the other
    reflection).
    """
    n, bvals = a.n, b.values
    cands = []

    def score(shift, refl):
        u = apply(AmbiguityElement(shift=shift, reflected=bool(refl)), a, band).values
        inner = np.vdot(bvals, u)
        psi = float(-np.angle(inner)) if inner != 0 else 0.0
        d2 = float(np.linalg.norm(u * np.exp(1j * psi) - bvals) ** 2)
        cands.append((d2, shift, refl, psi))

    if band is None:
        for refl in (0, 1):
            for shift in range(n):
                score(float(shift), refl)
    else:
        exps, pos = band.exponents(n), band.indices(n)
        freqs = -2.0 * np.pi * exps / n
        grid = np.linspace(0.0, n, 16 * n, endpoint=False)
        step = grid[1] - grid[0]
        for refl in (0, 1):
            base = np.conj(a.values) if refl else a.values
            coeffs = base[pos] * np.conj(bvals[pos])

            def overlap(s):
                return abs(np.sum(coeffs * np.exp(1j * freqs * s)))

            vals = np.abs(np.exp(1j * np.outer(grid, freqs)) @ coeffs)
            i0 = int(np.argmax(vals))
            s = _reference_golden_max(overlap, grid[i0] - step, grid[i0] + step, 1e-10)
            if overlap(s) < vals[i0]:
                s = float(grid[i0])
            score(float(_reference_newton_max(coeffs, freqs, s, step)), refl)
    cands.sort(key=lambda c: c[:3])
    bnorm = np.linalg.norm(bvals)
    (d2, shift, refl, psi), runner_up = cands[0], cands[1][0]
    g = AmbiguityElement(psi=psi % (2 * np.pi), shift=shift, reflected=bool(refl))
    return np.sqrt(max(d2, 0.0)) / bnorm, g, np.sqrt(max(runner_up, 0.0)) / bnorm


def test_dist_matches_reference_search():
    rng = np.random.default_rng(2024)
    unique = 0
    for case in range(160):
        n = int(rng.integers(3, 33))
        band = None
        if case % 2:
            start = int(rng.integers(0, n))
            band = BandlimitSpec(int(rng.integers(1, n + 1)), start)  # wraps for most
        idx = np.arange(n) if band is None else band.indices(n)
        a = np.zeros(n, complex)
        a[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        if case % 4 < 2:  # unrelated spectra
            b = np.zeros(n, complex)
            b[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        else:  # near an orbit point
            g = AmbiguityElement(
                psi=float(rng.uniform(0, 2 * np.pi)),
                shift=float(rng.uniform(0, n) if band else rng.integers(0, n)),
                reflected=bool(rng.integers(0, 2)),
            )
            b = apply(g, Spectrum(a), band).values.copy()
            b[idx] += 1e-3 * (rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size))
        a, b = Spectrum(a), Spectrum(b)
        d, found = dist_mod_group(a, b, band)
        d_ref, g_ref, runner_up = _reference_dist_mod_group(a, b, band)
        assert abs(d - d_ref) <= 1e-12 * (1.0 + np.linalg.norm(a.values) / np.linalg.norm(b.values))
        if runner_up - d_ref > 1e-6:
            unique += 1
            assert found.reflected == g_ref.reflected
            assert abs(found.shift - g_ref.shift) <= 1e-9
            assert abs(np.exp(1j * found.psi) - np.exp(1j * g_ref.psi)) <= 1e-9
    assert unique >= 140


@st.composite
def _planted_elements(draw):
    """A spectrum, its band (None for integer shifts only) and a group
    element: an integer shift on a full spectrum, or a fractional shift on a
    band that starts past 0 and wraps past N."""
    n = draw(st.integers(2, 32))
    if draw(st.booleans()):
        start = draw(st.integers(1, n - 1))
        band = BandlimitSpec(draw(st.integers(n - start + 1, n)), start)
        idx = band.indices(n)
        shift = draw(st.integers(0, n - 1)) + draw(st.floats(0.01, 0.99))
    else:
        band, idx = None, np.arange(n)
        shift = float(draw(st.integers(0, n - 1)))
    # magnitudes within a factor 100: the overlap's dependence on a
    # fractional shift is of order |smallest entry|^2, and below float
    # resolution of the overlap the shift (and the distance) is unresolved
    mags = draw(hnp.arrays(np.float64, idx.size, elements=st.floats(0.01, 1.0)))
    phases = draw(hnp.arrays(np.float64, idx.size, elements=st.floats(0.0, 2 * np.pi)))
    values = np.zeros(n, complex)
    values[idx] = mags * np.exp(1j * phases)
    g = AmbiguityElement(
        psi=draw(st.floats(0.0, 2 * np.pi, exclude_max=True)),
        shift=shift,
        reflected=draw(st.booleans()),
    )
    return Spectrum(values), band, g


@settings(max_examples=200, deadline=None)
@given(planted=_planted_elements())
# the overlap has three near-equal peaks; the best lies midway between grid
# points and a lower one closer to a grid point tops the grid
@example(
    planted=(
        Spectrum(np.array([1.0, 1.0, 0.03125, 0.03125], dtype=complex)),
        BandlimitSpec(4, 1),
        AmbiguityElement(shift=0.96875),
    )
)
def test_dist_recovers_planted_element(planted):
    xhat, band, g = planted
    target = apply(g, xhat, band)
    d, found = dist_mod_group(xhat, target, band)
    assert d <= 1e-12
    back = apply(found, xhat, band)
    assert np.linalg.norm(back.values - target.values) <= 1e-12 * np.linalg.norm(target.values)


@pytest.mark.parametrize("start", [511, 512, 1000, -600])
@pytest.mark.parametrize("reflected", [False, True])
def test_dist_recovers_fractional_shift_at_far_band_start(start, reflected):
    # exponents start..start+b-1 beyond the 16N grid: they wrap onto it mod 16N
    n, b = 32, 4
    xhat, band = random_band_spectrum(np.random.default_rng(abs(start)), n, b, start=start)
    g = AmbiguityElement(psi=0.7, shift=5.3, reflected=reflected)
    target = apply(g, xhat, band)
    d, found = dist_mod_group(xhat, target, band)
    assert d <= 1e-12
    back = apply(found, xhat, band)
    assert np.linalg.norm(back.values - target.values) <= 1e-12 * np.linalg.norm(target.values)


@pytest.mark.parametrize("start", [12 + 16 * 10**6, 12 + 16 * 10**12, 2**63 - 4])
def test_exact_recovery_reads_zero_distance_at_huge_band_start(start):
    # float64 cannot hold exponents near 2^63; the band's phases come from
    # start mod N, so the distance is the one at start 12 (1.6e-14)
    xhat, band = random_band_spectrum(np.random.default_rng(1), 16, 4, start=start)
    report = recover(frog_trace(idft(xhat), 4), band, RecoverySettings(r=4))
    d, _ = dist_mod_group(report.spectrum, xhat, band)
    assert d <= 1e-12


@pytest.mark.parametrize("turns", [2**40, 2**52, 10**30])
def test_integer_shift_acts_through_its_value_mod_n(turns):
    # a shift by whole periods is the identity; its phases are read at
    # exponents reduced mod N in integers, never as a float product
    rng = np.random.default_rng(5)
    xhat = Spectrum(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    g = AmbiguityElement(shift=3 + 16 * turns)
    gap = np.linalg.norm(apply(g, xhat).values - apply(AmbiguityElement(shift=3), xhat).values)
    assert gap <= 1e-12 * np.linalg.norm(xhat.values)
    assert trace_invariant(xhat, g, 4)


@pytest.mark.parametrize("turns", [2**30, 2**40, -(2**40)])
def test_fractional_shift_acts_through_its_value_mod_n(turns):
    # 0.375 + 16 * turns is exact in float64 and reduces to 0.375 mod N, so
    # its phases are those of the small shift, bit for bit
    xhat, band = random_band_spectrum(np.random.default_rng(6), 16, 4, start=3)
    g = AmbiguityElement(shift=0.375 + 16 * turns)
    near = apply(AmbiguityElement(shift=0.375), xhat, band).values
    assert np.array_equal(apply(g, xhat, band).values, near)
    assert trace_invariant(xhat, g, 4, band)
