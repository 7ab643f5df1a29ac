"""Phaseless linear systems |z + v_i| = n_i.

Geometrically these are circle-intersection problems in the complex plane:
equation i is the circle of radius n_i centered at -v_i.  ``CircleSystem``
stores the geometric centers (-v_i).  Two solver regimes:

* generic complex centers, at least three equations, some center-difference
  ratio nonreal: the pairwise differences of the squared equations form a
  full-rank 2x2 (or overdetermined) real linear system with at most one
  solution;
* all centers real: the system is symmetric under conjugation, giving a
  conjugate pair (or nothing).

Both return the achieved residual; callers decide what tolerance means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DegenerateSystemError,
    InvalidParametersError,
    UnderdeterminedSystemError,
)

_COINCIDENT_TOL = 1e-14
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class CircleSystem:
    """Circles |z - centers[i]| = radii[i]; the offsets v_i are -centers[i]."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.array(self.centers, dtype=np.complex128)
        n = np.array(self.radii, dtype=np.float64)
        if c.ndim != 1 or n.shape != c.shape or c.size < 2:
            raise InvalidParametersError("need s >= 2 centers with matching radii")
        if np.min(n) < 0:
            raise InvalidParametersError("radii must be nonnegative")
        c.flags.writeable = False
        n.flags.writeable = False
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", n)

    @property
    def offsets(self) -> np.ndarray:
        return -self.centers


def _max_circle_error(z: complex, pairs) -> float:
    """Largest ``| |z - center| - radius |`` over (center, radius) pairs."""
    return max(abs(abs(z - c) - r) for c, r in pairs)


@dataclass(frozen=True)
class CircleSolution:
    """Outcome of a solve.  ``kind`` is "unique", "pair" or "none"; the
    residual is always reported so callers can apply their own tolerance."""

    kind: Literal["unique", "pair", "none"]
    z: complex | None
    z_conjugate: complex | None
    residual: float

    @property
    def candidates(self) -> tuple[complex, ...]:
        """Both points of a pair (one if it collapsed), else ``z``; for kind
        "none" that is the least-residual point, for callers that prune."""
        if self.kind == "pair" and self.z_conjugate != self.z:
            return (self.z, self.z_conjugate)
        return (self.z,)


def default_tolerance(radii) -> float:
    return 1e-8 * (1.0 + float(np.max(radii)))


def ratio_is_nonreal(v: np.ndarray, p: int, q: int) -> bool:
    """True iff (v[0]-v[p])/(v[0]-v[q]) has imaginary part above
    ``1e-10 * (1 + |ratio|)``.

    Equivalent to the three points being non-collinear, which is what makes
    the difference equations full rank.
    """
    v = np.asarray(v, dtype=np.complex128)
    dp = v[0] - v[p]
    dq = v[0] - v[q]
    scale = max(abs(dp), abs(dq))
    if abs(dp) <= _COINCIDENT_TOL * (1.0 + scale) or abs(dq) <= _COINCIDENT_TOL * (
        1.0 + scale
    ):
        raise DegenerateSystemError("coincident offsets: ratio undefined")
    ratio = dp / dq
    return bool(abs(ratio.imag) > 1e-10 * (1.0 + abs(ratio)))


def _difference_rows(v: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the real linear system in (Re z, Im z) from subtracting
    equation pairs (1, j)."""
    d = np.conj(v[0]) - np.conj(v[1:])
    # Re{z * (c + i*d)} = Re(z)*c - Im(z)*d per row
    mat = np.column_stack([d.real, -d.imag])
    rhs = 0.5 * (
        radii[0] ** 2 - radii[1:] ** 2 + np.abs(v[1:]) ** 2 - np.abs(v[0]) ** 2
    )
    return mat, rhs


def _least_squares_2(rows, rhs) -> tuple[float, float]:
    """``np.linalg.lstsq(rows, rhs, rcond=None)`` for s x 2 ``rows``, in floats:
    Cramer's rule on the normal equations ``A x = g`` (``A = rows^T rows``),
    each determinant summed over the 2x2 minors of ``rows`` (Cauchy-Binet).
    Where lstsq's rcond rule makes ``rows`` rank 1, ``A = lam u u^T`` and the
    minimum-norm solution is ``pinv(A) g = A g / tr(A)^2``.
    """
    a11 = a12 = a22 = g1 = g2 = det = num1 = num2 = 0.0
    for i, ((xi, yi), bi) in enumerate(zip(rows, rhs)):
        a11 += xi * xi
        a12 += xi * yi
        a22 += yi * yi
        g1 += xi * bi
        g2 += yi * bi
        for (xj, yj), bj in zip(rows[:i], rhs[:i]):
            minor = xj * yi - xi * yj
            det += minor * minor
            num1 += minor * (bj * yi - bi * yj)
            num2 += minor * (xj * bi - xi * bj)
    tr = a11 + a22
    lam1 = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
    if det <= (_EPS * max(len(rhs), 2) * lam1) ** 2:
        return (a11 * g1 + a12 * g2) / tr**2, (a12 * g1 + a22 * g2) / tr**2
    return num1 / det, num2 / det


def _refine_candidate(z: complex, pairs: list) -> tuple[complex, float]:
    """Iterative refinement of a candidate by Gauss-Newton on the distance
    errors to the (center, radius) ``pairs``; returns the best point seen
    and its residual.

    For consistent systems this polishes the linear-reduction answer to the
    exact intersection; for inconsistent ones it brings the reported
    residual down to the local infeasibility level instead of whatever the
    radical-center point happens to give.
    """
    best, best_res = z, _max_circle_error(z, pairs)
    for _ in range(12):
        d = [(z - c, abs(z - c), r) for c, r in pairs]
        if min(dist for _, dist, _ in d) < 1e-300:  # on a center: direction undefined
            break
        dx, dy = _least_squares_2(
            [(v.real / dist, v.imag / dist) for v, dist, _ in d],
            [r - dist for _, dist, r in d],
        )
        z = z + complex(dx, dy)
        res = _max_circle_error(z, pairs)
        if res < best_res:
            best, best_res = z, res
        if math.hypot(dx, dy) < 1e-15 * (1.0 + abs(z)):
            break
    return best, best_res


def solve_generic(sys: CircleSystem, tol: float | None = None) -> CircleSolution:
    """Solve with s >= 3 complex offsets whose difference ratios are not all
    real.  Returns the unique candidate if its residual passes ``tol``,
    otherwise kind "none" (with the residual)."""
    v = sys.offsets
    radii = sys.radii
    if v.size < 3:
        raise InvalidParametersError("generic solve needs at least 3 equations")
    if tol is None:
        tol = default_tolerance(radii)

    nonreal = False
    for p in range(1, v.size):
        for q in range(p + 1, v.size):
            try:
                if ratio_is_nonreal(v, p, q):
                    nonreal = True
                    break
            except DegenerateSystemError:
                continue
        if nonreal:
            break
    if not nonreal:
        raise DegenerateSystemError(
            "all offset-difference ratios are real (collinear centers)"
        )

    mat, rhs = _difference_rows(v, radii)
    z0 = complex(*_least_squares_2(mat.tolist(), rhs.tolist()))
    z, residual = _refine_candidate(z0, list(zip(sys.centers.tolist(), radii.tolist())))
    if residual <= tol:
        return CircleSolution("unique", z, None, residual)
    return CircleSolution("none", z, None, residual)


def solve_real_centers(sys: CircleSystem, tol: float | None = None) -> CircleSolution:
    """Solve with all offsets real: solutions come in conjugate pairs.

    The real part comes from the (least-squares) linear difference equations;
    the imaginary part from the first circle.  Returns kind "none" when the
    required squared imaginary part is negative beyond ``tol``.
    """
    v = sys.offsets.tolist()
    radii = sys.radii.tolist()
    pairs = list(zip(sys.centers.tolist(), radii))
    if max(abs(c.imag) for c in v) > _COINCIDENT_TOL * (1.0 + max(map(abs, v))):
        raise InvalidParametersError("offsets must be real for this solver")
    vr = [c.real for c in v]
    if tol is None:
        tol = default_tolerance(radii)

    diffs = [vr[0] - x for x in vr[1:]]
    if max(map(abs, diffs)) <= _COINCIDENT_TOL * (1.0 + max(map(abs, vr))):
        raise UnderdeterminedSystemError("all offsets equal: real part unconstrained")
    rhs = [0.5 * (radii[0] ** 2 - n**2 + x**2 - vr[0] ** 2)
           for n, x in zip(radii[1:], vr[1:])]
    a = sum(d * h for d, h in zip(diffs, rhs)) / sum(d * d for d in diffs)

    b_sq = radii[0] ** 2 - (a + vr[0]) ** 2
    if b_sq < -tol:
        z = complex(a, 0.0)
        return CircleSolution("none", z, None, _max_circle_error(z, pairs))
    b = math.sqrt(max(b_sq, 0.0))
    z = complex(a, b)
    return CircleSolution("pair", z, complex(a, -b), _max_circle_error(z, pairs))


def solve_collinear(
    offsets, radii, point: complex, direction: complex, tol=None, solve=None
) -> CircleSolution:
    """Solve with offsets on the line ``point + t * direction``.

    In the frame ``w = (z + point) / u``, ``u = direction / |direction|``, the
    offsets ``(v_i - point) / u`` are real: ``solve`` (default
    ``solve_real_centers``; a caller may pass its own, wrapped, name for it)
    gives the pair there, ``Im w >= 0`` first, mapped back.  Coincident offsets
    or offsets off the line raise ``DegenerateSystemError``."""
    if max(abs(v - offsets[0]) for v in offsets) <= _COINCIDENT_TOL * (1.0 + max(radii)):
        raise DegenerateSystemError("coincident offsets")
    # rounds as numpy's complex / real did; the recursion amplifies the last bit
    u = direction * (1.0 / abs(direction))
    rotated = [(v - point) / u for v in offsets]
    if max(abs(w.imag) for w in rotated) > 1e-9 * (1.0 + max(map(abs, rotated))):
        raise DegenerateSystemError("offsets are not on the given line")
    sys = CircleSystem([-w.real for w in rotated], radii)
    sol = (solve or solve_real_centers)(sys, tol=tol)

    def back(w):
        return None if w is None else w * u - point

    return CircleSolution(sol.kind, back(sol.z), back(sol.z_conjugate), sol.residual)
