"""Phaseless linear systems |z + v_i| = n_i.

Geometrically these are circle-intersection problems in the complex plane:
equation i is the circle of radius n_i centered at -v_i.  The solvers take
the offsets v_i and the radii n_i as two 1-D numeric sequences (lists or
arrays), check them and work on Python scalars, which is the form the
recursion builds its systems in.  Two solver regimes:

* generic complex offsets, at least three equations, some offset-difference
  ratio nonreal: the pairwise differences of the squared equations form a
  full-rank 2x2 (or overdetermined) real linear system with at most one
  solution;
* all offsets real: the system is symmetric under conjugation, giving a
  conjugate pair (or nothing).

Both return the achieved residual; callers decide what tolerance means.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DegenerateSystemError,
    InvalidParametersError,
    UnderdeterminedSystemError,
)
from .signal_model import _frozen_array, _tolerance

_COINCIDENT_TOL = 1e-14
_EPS = float(np.finfo(np.float64).eps)


def _check(offsets, radii) -> tuple[list, list]:
    """Offsets and radii as lists of Python scalars, after the rules every
    circle system obeys: two 1-D sequences of s >= 2 finite values each, the
    radii nonnegative."""
    v = _frozen_array(offsets, np.complex128, None, "offsets and radii")
    n = _frozen_array(radii, np.float64, None, "offsets and radii")
    if v.ndim != 1 or n.ndim != 1 or len(v) != len(n) or len(n) < 2:
        raise InvalidParametersError("need s >= 2 offsets with matching radii")
    v, n = v.tolist(), n.tolist()
    if not (all(map(cmath.isfinite, v)) and all(map(math.isfinite, n))):
        raise InvalidParametersError("offsets and radii must be finite")
    if min(n) < 0:
        raise InvalidParametersError("radii must be nonnegative")
    return v, n


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


def ratio_is_nonreal(v, p: int, q: int) -> bool:
    """True iff (v[0]-v[p])/(v[0]-v[q]) has imaginary part above
    ``1e-10 * (1 + |ratio|)``.

    Equivalent to the three points being non-collinear, which is what makes
    the difference equations full rank.
    """
    dp = v[0] - v[p]
    dq = v[0] - v[q]
    scale = max(abs(dp), abs(dq))
    if min(abs(dp), abs(dq)) <= _COINCIDENT_TOL * (1.0 + scale):
        raise DegenerateSystemError("coincident offsets: ratio undefined")
    ratio = dp / dq
    return bool(abs(ratio.imag) > 1e-10 * (1.0 + abs(ratio)))


def any_nonreal(v, pairs) -> bool:
    """True iff ``ratio_is_nonreal(v, p, q)`` for some (p, q) in ``pairs``;
    coincident offsets count as collinear."""
    for p, q in pairs:
        try:
            if ratio_is_nonreal(v, p, q):
                return True
        except DegenerateSystemError:
            pass
    return False


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
    seen = []  # rows j < i, for the minors (j, i)
    for (xi, yi), bi in zip(rows, rhs):
        a11 += xi * xi
        a12 += xi * yi
        a22 += yi * yi
        g1 += xi * bi
        g2 += yi * bi
        for xj, yj, bj in seen:
            minor = xj * yi - xi * yj
            det += minor * minor
            num1 += minor * (bj * yi - bi * yj)
            num2 += minor * (xj * bi - xi * bj)
        seen.append((xi, yi, bi))
    tr = a11 + a22
    lam1 = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
    if det <= (_EPS * max(len(rhs), 2) * lam1) ** 2:
        return (a11 * g1 + a12 * g2) / tr**2, (a12 * g1 + a22 * g2) / tr**2
    return num1 / det, num2 / det


def _refine_candidate(z: complex, offsets: list, radii: list) -> tuple[complex, float]:
    """Gauss-Newton refinement of a candidate on its distance errors to the
    circles; returns the best point seen and its residual.

    For consistent systems this polishes the linear-reduction answer to the
    exact intersection; for inconsistent ones it brings the reported
    residual down to the local infeasibility level instead of whatever the
    radical-center point happens to give.
    """
    diffs = [z + v for v in offsets]
    dists = list(map(abs, diffs))
    best, best_res = z, max(map(abs, map(operator.sub, dists, radii)))
    for _ in range(12):
        if min(dists) < 1e-300:  # on a center: direction undefined
            break
        dx, dy = _least_squares_2(
            [(v.real / dist, v.imag / dist) for v, dist in zip(diffs, dists)],
            list(map(operator.sub, radii, dists)),
        )
        z = z + complex(dx, dy)
        diffs = [z + v for v in offsets]
        dists = list(map(abs, diffs))
        res = max(map(abs, map(operator.sub, dists, radii)))
        if res < best_res:
            best, best_res = z, res
        if math.hypot(dx, dy) < 1e-15 * (1.0 + abs(z)):
            break
    return best, best_res


def solve_generic(offsets, radii, tol: float | None = None) -> CircleSolution:
    """Solve with s >= 3 complex offsets whose difference ratios are not all
    real.  Returns the unique candidate if its residual passes ``tol``,
    otherwise kind "none" (with the residual)."""
    v, radii = _check(offsets, radii)
    if len(v) < 3:
        raise InvalidParametersError("generic solve needs at least 3 equations")
    tol = default_tolerance(radii) if tol is None else _tolerance(tol, "tol")

    if not any_nonreal(v, itertools.combinations(range(1, len(v)), 2)):
        raise DegenerateSystemError(
            "all offset-difference ratios are real (collinear offsets)"
        )

    # numpy's |v|^2: Python's abs() can differ in the last bit, which the recursion amplifies
    mat, rhs = _difference_rows(np.array(v), np.array(radii))
    z0 = complex(*_least_squares_2(mat.tolist(), rhs.tolist()))
    z, residual = _refine_candidate(z0, v, radii)
    if residual <= tol:
        return CircleSolution("unique", z, None, residual)
    return CircleSolution("none", z, None, residual)


def solve_real_centers(offsets, radii, tol: float | None = None) -> CircleSolution:
    """Solve with all offsets real: solutions come in conjugate pairs.

    The real part comes from the (least-squares) linear difference equations;
    the imaginary part from the first circle.  Returns kind "none" when the
    required squared imaginary part is negative beyond ``tol``.
    """
    v, radii = _check(offsets, radii)
    if max(abs(c.imag) for c in v) > _COINCIDENT_TOL * (1.0 + max(map(abs, v))):
        raise InvalidParametersError("offsets must be real for this solver")
    vr = [c.real for c in v]
    tol = default_tolerance(radii) if tol is None else _tolerance(tol, "tol")

    diffs = [vr[0] - x for x in vr[1:]]
    if max(map(abs, diffs)) <= _COINCIDENT_TOL * (1.0 + max(map(abs, vr))):
        raise UnderdeterminedSystemError("all offsets equal: real part unconstrained")
    rhs = [0.5 * (radii[0] ** 2 - n**2 + x**2 - vr[0] ** 2)
           for n, x in zip(radii[1:], vr[1:])]
    a = sum(d * h for d, h in zip(diffs, rhs)) / sum(d * d for d in diffs)

    b_sq = radii[0] ** 2 - (a + vr[0]) ** 2
    if b_sq < -tol:
        kind, z, z_conjugate = "none", complex(a, 0.0), None
    else:
        b = math.sqrt(max(b_sq, 0.0))
        kind, z, z_conjugate = "pair", complex(a, b), complex(a, -b)
    residual = max([abs(abs(z + c) - r) for c, r in zip(v, radii)])
    return CircleSolution(kind, z, z_conjugate, residual)
