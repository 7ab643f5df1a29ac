"""The trace symmetry group and a distance between spectra modulo it.

Generators acting on a spectrum: global phase rotation, translation
(modulation of coefficient k by ``exp(-2*pi*i*shift*k/N)``) and reflection
(entrywise conjugation).  Reflection and translation do not commute:
conjugating a modulated spectrum negates the shift, so the discrete part of
the group is dihedral.

For bandlimited spectra the translation parameter may be any real number.
Fractional shifts must modulate with *unwrapped* band exponents
``s .. s+b-1``: when the band wraps past N the naive per-index modulation
inserts extra factors ``exp(-2*pi*i*shift)`` on the wrapped part and breaks
trace invariance, while the unwrapped exponents keep every trace row
multiplied by a single unimodular factor.  The representative is
``s = start mod N`` (``BandlimitSpec.exponents``): adding jN to every
exponent only multiplies the band by a global phase, and exponents below 2N
stay exact in float64, which starts near 2^63 do not.  Every shift multiplies
entry e by ``exp(-2*pi*i*((shift mod N) * e mod N) / N)``, e = 0..N-1 for an
integer shift and the band's exponents for a fractional one: a shift by N
multiplies each entry by exp(-2*pi*i*e) = 1, and an integer shift reduces
the product in integers, exact for shifts far outside [0, N).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError, InvalidUseError
from .signal_model import BandlimitSpec, Spectrum, frog_trace, idft

_INT_TOL = 1e-12


@dataclass(frozen=True)
class AmbiguityElement:
    """One symmetry: reflection, then translation by ``shift``, then global
    phase ``psi``.  ``shift`` must be an integer unless the spectrum it acts
    on is bandlimited."""

    psi: float = 0.0
    shift: float = 0.0
    reflected: bool = False

    def __post_init__(self):
        try:
            finite = math.isfinite(self.psi) and math.isfinite(self.shift)
        except (TypeError, OverflowError):  # not a real number, or an int beyond floats
            finite = False
        if not finite:
            raise InvalidParametersError("psi and shift must be finite real numbers")


@functools.lru_cache(maxsize=64)
def _band_table(band: BandlimitSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The band's exponents and positions in a length-``n`` spectrum, read-only."""
    exps, pos = band.exponents(n), band.indices(n)
    exps.flags.writeable = pos.flags.writeable = False
    return exps, pos


def _apply_raw(
    values: np.ndarray,
    psi: float,
    shift: float,
    reflected: bool,
    band: BandlimitSpec | None,
) -> np.ndarray:
    n = values.size
    out = np.conj(values) if reflected else values.copy()
    if shift != 0.0:
        if abs(shift - round(shift)) <= _INT_TOL:  # a Python int: reduced exactly
            shift, exps, pos = round(shift), np.arange(n), slice(None)
        elif band is None:
            raise InvalidUseError("fractional shift requires a bandlimit specification")
        else:
            exps, pos = _band_table(band, n)
        out[pos] *= np.exp(-2j * np.pi * ((shift % n) * exps % n) / n)
    if psi != 0.0:
        out = out * np.exp(1j * psi)
    return out


def apply(
    g: AmbiguityElement, xhat: Spectrum, band: BandlimitSpec | None = None
) -> Spectrum:
    """Act on a spectrum: reflection first, then translation, then rotation.

    A fractional shift modulates the band from the exponent ``start mod N``;
    for a band start outside [0, N) the result is the modulation from
    ``start`` times a global phase."""
    if not np.all(np.isfinite(xhat.values)):
        raise InvalidParametersError("spectrum must be finite")
    return Spectrum(_apply_raw(xhat.values, g.psi, g.shift, g.reflected, band))


def trace_invariant(
    xhat: Spectrum,
    g: AmbiguityElement,
    l: int,
    band: BandlimitSpec | None = None,
) -> bool:
    """True iff applying ``g`` leaves the trace unchanged entrywise, to
    1e-9 of its largest entry."""
    return _trace_matches(frog_trace(idft(xhat), l).data, xhat, g, l, band)


def _trace_matches(reference: np.ndarray, xhat: Spectrum, g: AmbiguityElement, l: int, band) -> bool:
    """True iff the trace of ``apply(g, xhat, band)`` equals the trace data
    ``reference`` entrywise, to 1e-9 of its largest entry."""
    moved = frog_trace(idft(apply(g, xhat, band)), l).data
    scale = max(float(np.max(reference)), 1e-300)
    return bool(np.max(np.abs(reference - moved)) <= 1e-9 * scale)


def _best_rotation_residual(u: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Distance and optimal phase for ``exp(i*psi)*u`` against ``b``.

    Returns ``(||exp(i*psi*)u - b||^2, psi*)`` minimized over psi.  The norm
    is evaluated on the actual difference: the inner-product shortcut cancels
    catastrophically when u is already close to b.
    """
    inner = np.vdot(b, u)  # sum conj(b) * u
    psi = float(-np.angle(inner)) if inner != 0 else 0.0
    d2 = float(np.linalg.norm(u * np.exp(1j * psi) - b) ** 2)
    return d2, psi


def _newton_polish(coeffs: np.ndarray, freqs: np.ndarray, s0: float, radius: float):
    """Sharpen a grid maximizer ``s0`` of ``|sum coeffs*exp(i*freqs*s)|``;
    returns the shift and the modulus there.

    The squared modulus is smooth, so Newton on its derivative reaches
    machine precision from a grid point.  Falls back to ``s0`` if the
    iteration leaves the bracket ``s0 +- radius``.
    """
    ifreqs = 1j * freqs
    derivs = np.stack([coeffs, coeffs * ifreqs, coeffs * ifreqs**2])
    s = s0
    for _ in range(60):
        c, c1, c2 = (derivs @ np.exp(ifreqs * s)).tolist()
        g = 2.0 * (c.conjugate() * c1).real
        h = 2.0 * (abs(c1) ** 2 + (c.conjugate() * c2).real)
        if h >= 0 or not math.isfinite(g):
            break
        delta = -g / h
        if abs(s + delta - s0) > radius:  # left the bracket: distrust Newton
            s = s0
            break
        s += delta
        if abs(delta) < 1e-14 * (1.0 + abs(s)):
            break
    return s, abs(np.dot(coeffs, np.exp(ifreqs * s)))


def dist_mod_group(
    a: Spectrum,
    b: Spectrum,
    band: BandlimitSpec | None = None,
) -> tuple[float, AmbiguityElement]:
    """Minimal relative l2 distance ``||apply(g, a) - b|| / ||b||`` over the
    group, with the minimizing element.

    The rotation-optimal squared distance at shift s is
    ``||a||^2 + ||b||^2 - 2|overlap(s)|`` and the overlap is a DFT of
    ``a * conj(b)`` (per reflection), so one FFT scores a grid of shifts.
    Without a band the grid is the integers 0..N-1.  With a band the shift
    is continuous: the FFT of the band placed at its unwrapped exponents in
    a buffer of 16N is the overlap at steps of 1/16, and Newton refines every
    grid peak that may lie next to the best shift to machine precision.
    Candidates within float noise of the best overlap are ranked by their
    exact residual.  Smaller shift, then unreflected, breaks only residuals
    that are bit-equal, so two elements whose distances agree to float noise
    can swap between builds that round differently.
    """
    if a.n != b.n:
        raise InvalidParametersError("spectra must have equal length")
    if not (np.all(np.isfinite(a.values)) and np.all(np.isfinite(b.values))):
        raise InvalidParametersError("spectra must be finite")
    bnorm = float(np.linalg.norm(b.values))
    if bnorm == 0.0:
        raise InvalidParametersError("reference spectrum must be nonzero")
    n = a.n
    # |overlap| rounds at about eps * ||a|| * ||b||
    noise = 1e-12 * float(np.linalg.norm(a.values)) * bnorm

    # a * conj(b) at the exponents a shift multiplies, on `over` grid points per
    # unit shift: point j is shift j/over, exp(-2*pi*i*e*j/(over*N)), of period over*N in e
    if band is None:  # the integer shifts 0..N-1
        over, exps, pos, width = 1, np.arange(n), slice(None), 0.0
    else:  # continuous shifts, at steps of 1/16
        over, (exps, pos) = 16, _band_table(band, n)
        # Bernstein: the overlap has exponential type w = pi*(b-1)/N about the
        # band centre, so the grid point nearest the best shift is within a
        # factor 1 - w/32 of it; polish every grid peak that high (or argmax)
        width = np.pi * (band.b - 1) / (32.0 * n)
    av, bc = a.values[pos], np.conj(b.values[pos])
    coeffs = np.array([av * bc, np.conj(av) * bc])  # unreflected, reflected
    grid = np.zeros((2, over * n), dtype=np.complex128)
    grid[:, exps % (over * n)] = coeffs
    on_grid = np.abs(np.fft.fft(grid, axis=-1))
    refls, at = np.nonzero(on_grid >= (1.0 - width) * on_grid.max() - noise)
    shifts, overlap = at / over, on_grid[refls, at]
    if band is not None:
        peak = (overlap >= on_grid[refls, at - 1]) & (overlap > on_grid[refls, (at + 1) % (over * n)])
        peak[np.argmax(overlap)] = True
        refls, at = refls[peak], at[peak]
        freqs = -2.0 * np.pi * exps / n
        polished = [_newton_polish(coeffs[r], freqs, j / over, 1.0 / over) for r, j in zip(refls, at)]
        shifts, overlap = np.array(polished).T

    candidates = []  # (d2, shift, refl, psi)
    for i in np.flatnonzero(overlap >= overlap.max() - noise).tolist():
        refl, shift = int(refls[i]), float(shifts[i])
        u = _apply_raw(a.values, 0.0, shift, bool(refl), band)
        d2, psi = _best_rotation_residual(u, b.values)
        candidates.append((d2, shift, refl, psi))
    d2, shift, refl, psi = min(candidates, key=lambda c: c[:3])
    g = AmbiguityElement(psi=psi % (2 * np.pi), shift=shift, reflected=bool(refl))
    return float(np.sqrt(max(d2, 0.0)) / bnorm), g
