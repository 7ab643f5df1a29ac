import numpy as np
import pytest

from frogkit import BandlimitSpec, Signal, Spectrum


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def grid_min_residual(offsets, radii, box: float, levels: int = 4) -> float:
    """Brute-force minimum of the max residual of |z + v_i| = n_i over
    [-box, box]^2 by successive grid refinement around the best cells.

    Independent of the solvers: only evaluates |distance - radius| on grids.
    """
    offsets, radii = np.asarray(offsets, dtype=complex), np.asarray(radii, dtype=float)
    spots = np.array([0j])
    half = box
    for _ in range(levels):
        axis = np.linspace(-half, half, 41)
        gx, gy = np.meshgrid(axis, axis)
        cells = (gx + 1j * gy).ravel()
        pts = (spots[:, None] + cells[None, :]).ravel()
        res = np.max(
            np.abs(np.abs(pts[:, None] + offsets[None, :]) - radii[None, :]),
            axis=1,
        )
        order = np.argsort(res)
        spots = pts[order[:5]]
        step = axis[1] - axis[0]
        half = 2 * step
    best = np.max(
        np.abs(np.abs(spots[:, None] + offsets[None, :]) - radii[None, :]),
        axis=1,
    )
    return float(np.min(best))


def random_signal(rng, n):
    return Signal(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def direct_trace(values, l):
    """The trace by its definition, every column transformed on its own:
    ``|DFT_k(x * x[(. + m*L) mod N])|**2`` for m = 0..N/L - 1."""
    n = len(values)
    idx = (np.arange(n)[:, None] + np.arange(n // l)[None, :] * l) % n
    return np.abs(np.fft.fft(values[:, None] * values[idx], axis=0)) ** 2


def random_band_spectrum(rng, n, b, start=0):
    band = BandlimitSpec(b, start)
    values = np.zeros(n, dtype=complex)
    values[band.indices(n)] = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    return Spectrum(values), band


def fig2_spectrum():
    """Real 11-point signal whose band wraps: entries at 0..2 and 9..10."""
    values = np.zeros(11, dtype=complex)
    values[[0, 1, 2, 9, 10]] = [1.0, 1j, -1j, 1j, -1j]
    return Spectrum(values), BandlimitSpec(5, 9)
