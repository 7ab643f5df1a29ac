"""Phaseless linear systems |z + v_i| = n_i.

Geometrically these are circle-intersection problems in the complex plane:
equation i is the circle of radius n_i centered at -v_i.  The solvers take
the offsets v_i and the real radii n_i as two 1-D sequences, check them and
work on Python scalars: lists (the recursion's form) convert item by item,
arrays through numpy, to the same values and messages.  Two solver regimes:

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


def _scalars(values, convert, dtype) -> list | None:
    """``values`` as a list of Python scalars, or None if not 1-D.  A list or tuple
    converts item by item with ``convert``, which rounds as numpy's cast; numpy
    reads arrays, other inputs and what ``convert`` refuses (None is nan)."""
    if isinstance(values, (list, tuple)):
        try:
            return list(map(convert, values))
        except (TypeError, ValueError, OverflowError):
            pass
    arr = _frozen_array(values, dtype, None, "offsets and radii")
    return arr.tolist() if arr.ndim == 1 else None


def _real(x) -> float:
    """``float(x)``, refusing a numpy complex as it refuses a Python one."""
    if isinstance(x, np.complexfloating):
        raise TypeError("complex radius")
    return float(x)


def _check(offsets, radii, tol) -> tuple[list, list, float]:
    """Offsets and radii as lists of Python scalars, after the rules every
    circle system obeys: two 1-D sequences of s >= 2 finite values each, the
    radii nonnegative; and the tolerance, ``default_tolerance`` for None."""
    v = _scalars(offsets, complex, np.complex128)
    n = _scalars(radii, _real, np.float64)
    if v is None or n is None or len(v) != len(n) or len(n) < 2:
        raise InvalidParametersError("need s >= 2 offsets with matching radii")
    if not (all(map(cmath.isfinite, v)) and all(map(math.isfinite, n))):
        raise InvalidParametersError("offsets and radii must be finite")
    if min(n) < 0:
        raise InvalidParametersError("radii must be nonnegative")
    return v, n, default_tolerance(n) if tol is None else _tolerance(tol, "tol")


@dataclass(frozen=True)
class CircleSolution:
    """Outcome of a solve.  ``kind`` is "unique", "pair" or "none".
    ``candidates`` holds both points of a pair (one if it collapsed), else the
    one point, for kind "none" the least-residual one; the residual is always
    reported so callers can apply their own tolerance."""

    kind: Literal["unique", "pair", "none"]
    candidates: tuple[complex, ...]
    residual: float


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
    residual down to the local infeasibility level.  It stops at the first
    step that does not lower the residual: below rounding noise the steps
    only wander (they ran half of all polishes to the cap), and a spurious
    branch's residual only has to be large enough to prune.
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
        if not res < best_res:
            break
        best, best_res = z, res
        if math.hypot(dx, dy) < 1e-15 * (1.0 + abs(z)):
            break
    return best, best_res


def solve_generic(offsets, radii, tol: float | None = None) -> CircleSolution:
    """Solve with s >= 3 complex offsets whose difference ratios are not all
    real.  Returns one candidate, the refined point: kind "unique" if its
    residual passes ``tol``, otherwise kind "none" (with the residual)."""
    v, radii, tol = _check(offsets, radii, tol)
    if len(v) < 3:
        raise InvalidParametersError("generic solve needs at least 3 equations")
    if not any_nonreal(v, itertools.combinations(range(1, len(v)), 2)):
        raise DegenerateSystemError(
            "all offset-difference ratios are real (collinear offsets)"
        )

    # rows (0, j) of the system in (Re z, Im z), rounded as numpy did (the recursion amplifies the
    # last bit): |v|^2 by numpy, whose complex abs is not Python's; r0^2 by pow, r_j^2 by n * n
    c0, r0_sq = v[0].conjugate(), radii[0] ** 2
    v0_sq = float(np.abs(np.complex128(v[0])) ** 2)
    d = [c0 - c.conjugate() for c in v[1:]]  # Re{z * d} = Re(z)*Re(d) - Im(z)*Im(d)
    rows = [(c.real, -c.imag) for c in d]
    rhs = [0.5 * (r0_sq - nj * nj + vj_sq - v0_sq)
           for nj, vj_sq in zip(radii[1:], (np.abs(np.array(v[1:])) ** 2).tolist())]
    z0 = complex(*_least_squares_2(rows, rhs))
    z, residual = _refine_candidate(z0, v, radii)
    return CircleSolution("unique" if residual <= tol else "none", (z,), residual)


def solve_real_centers(offsets, radii, tol: float | None = None) -> CircleSolution:
    """Solve with all offsets real: solutions come in conjugate pairs.

    The real part comes from the (least-squares) linear difference equations;
    the imaginary part b from the first circle.  Kind "pair" holds a + ib and
    a - ib, one point if b is 0 (tangent circles); kind "none", when b^2 is
    negative beyond ``tol``, holds the point a.  The residual is the first point's.
    """
    v, radii, tol = _check(offsets, radii, tol)
    if max([abs(c.imag) for c in v]) > _COINCIDENT_TOL * (1.0 + max(map(abs, v))):
        raise InvalidParametersError("offsets must be real for this solver")
    vr = [c.real for c in v]

    diffs = [vr[0] - x for x in vr[1:]]
    if max(map(abs, diffs)) <= _COINCIDENT_TOL * (1.0 + max(map(abs, vr))):
        raise UnderdeterminedSystemError("all offsets equal: real part unconstrained")
    rhs = [0.5 * (radii[0] ** 2 - n**2 + x**2 - vr[0] ** 2)
           for n, x in zip(radii[1:], vr[1:])]
    a = sum(map(operator.mul, diffs, rhs)) / sum(map(operator.mul, diffs, diffs))

    b_sq = radii[0] ** 2 - (a + vr[0]) ** 2
    if b_sq < -tol:
        kind, candidates = "none", (complex(a, 0.0),)
    else:
        b = math.sqrt(max(b_sq, 0.0))
        kind, candidates = "pair", (complex(a, b), complex(a, -b)) if b else (complex(a, b),)
    residual = max([abs(abs(candidates[0] + c) - r) for c, r in zip(v, radii)])
    return CircleSolution(kind, candidates, residual)
