"""Signals, spectra, DFT conventions and the SHG-FROG forward model.

Conventions used throughout the package:

* forward DFT is unnormalized, ``X_k = sum_n x_n exp(-2*pi*i*k*n/N)``;
  the inverse carries the ``1/N`` factor,
* all signals are periodic with period N; indices are taken mod N,
* a trace stores squared magnitudes, not magnitudes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError

# the longest signal: numpy refuses a longer complex128 vector before allocating it
_MAX_N = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


def _integer(value, name: str) -> int:
    """``value`` as a Python int; numpy integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParametersError(f"{name} must be an integer") from None


def _frozen_array(values, dtype, ndim: int | None, what: str) -> np.ndarray:
    """``values`` as a read-only, non-empty ``ndim``-D array of ``dtype``, or with
    ``ndim=None`` as a writable array of any shape, for a caller that checks it."""
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or out of range
        raise InvalidParametersError(f"{what} must be numeric") from None
    if ndim is None:
        return arr
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidParametersError(f"{what} must be a non-empty {ndim}-D array")
    arr.flags.writeable = False
    return arr


def _seed(value) -> int:
    """``value`` as a Python int >= 0, the seed of a ``np.random.default_rng``."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise InvalidParametersError(f"seed must be nonnegative (got {seed})")
    return seed


def _power_spectrum(values) -> np.ndarray:
    """``values`` as a read-only 1-D array of finite nonnegative floats."""
    arr = _frozen_array(values, np.float64, 1, "power spectrum")
    if not np.all(np.isfinite(arr) & (arr >= 0)):
        raise InvalidParametersError("power spectrum entries must be finite and nonnegative")
    return arr


def _tolerance(value, name: str) -> float:
    """``value`` as a finite positive Python float.  A Python float, as the
    recursion passes to the circle solvers, skips the array conversion."""
    if type(value) is not float:
        value = float(_frozen_array(value, np.float64, 0, name))
    if not (math.isfinite(value) and value > 0):
        raise InvalidParametersError(f"{name} must be finite and positive (got {value})")
    return value


@dataclass(frozen=True)
class Signal:
    """Length-N complex time-domain vector, cyclic in its index."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, np.complex128, 1, "signal values")
        if not np.all(np.isfinite(values)):
            raise InvalidParametersError("signal values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Spectrum:
    """Length-N complex frequency-domain vector (unnormalized-DFT values)."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, np.complex128, 1, "spectrum values")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class BandlimitSpec:
    """Support window of a spectrum: ``b`` possibly-nonzero consecutive
    coefficients starting at index ``start`` (cyclically).

    The remaining ``N - b`` coefficients are zero.  Recovery additionally
    requires ``b <= N/2``; the spec itself only pins the window.
    """

    b: int
    start: int = 0

    def __post_init__(self):
        # held as Python ints, so the int64 range test below cannot overflow
        object.__setattr__(self, "b", _integer(self.b, "bandlimit b"))
        object.__setattr__(self, "start", _integer(self.start, "bandlimit start"))
        if self.b < 1:
            raise InvalidParametersError("bandlimit b must be a positive integer")
        if not -(2**63) <= self.start <= 2**63 - self.b:
            raise InvalidParametersError("band exponents start .. start+b-1 must fit in int64")

    def indices(self, n: int) -> np.ndarray:
        """Cyclic positions of the band inside a length-``n`` spectrum."""
        return self.exponents(n) % n

    def exponents(self, n: int) -> np.ndarray:
        """The band's representative exponents ``start mod n .. start mod n +
        b-1``, not wrapped past ``n`` (a fractional shift modulates with them;
        see ``ambiguities``)."""
        if self.b > n:
            raise InvalidParametersError(f"bandlimit b={self.b} exceeds N={n}")
        return self.start % n + np.arange(self.b)


@dataclass(frozen=True)
class FrogTrace:
    """N x r matrix of squared Fourier magnitudes of the shifted products, r = N/L.
    Column m is shift m*L; in a ``frog_trace``, column r - m copies column m exactly."""

    data: np.ndarray
    l: int

    def __post_init__(self):
        arr = _frozen_array(self.data, np.float64, 2, "trace data")
        if _check_step(arr.shape[0], self.l) != arr.shape[1]:
            raise InvalidParametersError(
                f"trace shape {arr.shape} inconsistent with L={self.l}: need r = N/L"
            )
        object.__setattr__(self, "l", operator.index(self.l))
        if not np.all(np.isfinite(arr)):
            raise InvalidParametersError("trace entries must be finite")
        if np.min(arr) < 0:
            raise InvalidParametersError("trace entries must be nonnegative")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def r(self) -> int:
        return self.data.shape[1]


def _check_step(n: int, l) -> int:
    """r = N/L, for a step L that is an integer >= 1 dividing N: the one home of that rule."""
    if (step := _integer(l, "step L")) < 1:
        raise InvalidParametersError(f"step L must be >= 1 (got {step})")
    if n % step != 0:
        raise InvalidParametersError(f"step L={step} must divide N={n}")
    return n // step


def dft(x: Signal) -> Spectrum:
    """Unnormalized forward DFT."""
    return Spectrum(np.fft.fft(x.values))


def idft(xhat: Spectrum) -> Signal:
    """Inverse DFT with the 1/N factor."""
    return Signal(np.fft.ifft(xhat.values))


def _roots_of_unity(n: int) -> np.ndarray:
    """The table ``w**j = exp(2*pi*i*j/n)`` for j = 0..n-1; a phase ``w**e``
    is read at ``e mod n``, reduced exactly in integers."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _cyclic_windows(values: np.ndarray) -> np.ndarray:
    """View ``w[..., s, p] = values[..., (s + p) mod N]`` of all N cyclic
    shifts of the last axis, laid over one doubled copy of the values."""
    doubled = np.concatenate([values, values], axis=-1)
    *lead, step = doubled.strides
    shape = (*values.shape, values.shape[-1])
    return np.ndarray(shape, values.dtype, doubled, 0, (*lead, step, step))


def shift_product_coeffs(values: np.ndarray, l: int, shifts: int | None = None) -> np.ndarray:
    """Forward model on a stack: for values of shape (..., N), the DFTs of the
    first ``shifts`` (default all r = N/L) shifted self-products, shape
    (..., N, shifts), with ``out[..., k, m] = DFT_k(x * x[(. + m*L) mod N])``.

    The transform runs along axis -2, so each trial's block is contiguous
    and every product is transformed exactly as for a single signal; neither
    stacking trials nor dropping shifts changes any result bit.
    """
    _check_step(values.shape[-1], l)
    shifted = _cyclic_windows(values)[..., ::l, :][..., :shifts, :].swapaxes(-1, -2)  # [..., p, m]
    # a C-ordered buffer keeps each trial's block contiguous (``order="C"``
    # alone changes the last bit of an N = 1 trace)
    products = np.multiply(values[..., :, None], shifted, out=np.empty_like(shifted, order="C"))
    return np.fft.fft(products, axis=-2)


def frog_trace(x: Signal, l: int) -> FrogTrace:
    """Squared Fourier magnitudes of all r = N/L shifted self-products.  Shift -m*L
    rotates the product for m*L, so m = 0..r//2 are transformed; column r - m copies m."""
    r = _check_step(x.n, l)
    half = np.abs(shift_product_coeffs(x.values, l, r // 2 + 1)) ** 2
    return FrogTrace(np.concatenate([half, half[:, (r - 1) // 2 : 0 : -1]], axis=1), l)


def frog_freq_coeffs(xhat: Spectrum, l: int) -> np.ndarray:
    """Trace coefficients computed in the frequency domain.

    Returns the N x r complex array
    ``out[k, m] = (1/N) * sum_l xhat_l * xhat_{(k-l) mod N} * w**(l*m)``
    with ``w = exp(2*pi*i/r)``.  Entrywise squared magnitudes equal the
    time-domain trace.
    """
    n = xhat.n
    r = _check_step(n, l)
    if not np.all(np.isfinite(xhat.values)):
        raise InvalidParametersError("spectrum must be finite")
    # column m convolves xhat * w**(l*m) with xhat; one FFT call does every column
    weighted = xhat.values[:, None] * _roots_of_unity(r)[np.outer(np.arange(n), np.arange(r)) % r]
    return np.fft.ifft(np.fft.fft(weighted, axis=0) * np.fft.fft(xhat.values)[:, None], axis=0) / n
