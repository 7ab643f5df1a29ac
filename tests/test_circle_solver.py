import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogkit import (
    DegenerateSystemError,
    InvalidParametersError,
    UnderdeterminedSystemError,
    circle_solver,
    ratio_is_nonreal,
    solve_generic,
    solve_real_centers,
)
from frogkit.circle_solver import (
    _COINCIDENT_TOL,
    _EPS,
    CircleSolution,
    _least_squares_2,
    default_tolerance,
)
from frogkit.recursive_recovery import _solve_collinear
from frogkit.signal_model import _frozen_array, _tolerance

from conftest import grid_min_residual


def planted_system(offsets, z):
    offsets = np.asarray(offsets, dtype=complex)
    return offsets, np.abs(z + offsets)


def test_generic_planted_example():
    z = 2 + 1j
    offsets, radii = planted_system([0, -1, -1j], z)
    assert np.allclose(radii, [abs(2 + 1j), abs(1 + 1j), 2.0])
    sol = solve_generic(offsets, radii)
    assert sol.kind == "unique"
    assert abs(sol.candidates[0] - z) <= 1e-12
    assert sol.residual <= 1e-12


def test_generic_no_solution_example():
    offsets, radii = [0, -1, -1j], [1.0, 1.0, 10.0]
    sol = solve_generic(offsets, radii)
    assert sol.kind == "none"
    assert sol.residual > 1.0
    # independent confirmation: nothing in a generous box comes close
    assert grid_min_residual(offsets, radii, 5.0) > 1.0


def test_generic_rejects_collinear_offsets():
    with pytest.raises(DegenerateSystemError):
        solve_generic(np.array([0.0, -1.0, -2.0], dtype=complex), np.ones(3))


def test_generic_planted_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        while True:
            v = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
            try:
                if ratio_is_nonreal(v, 1, 2):
                    break
            except DegenerateSystemError:
                continue
        sol = solve_generic(*planted_system(v, z))
        assert sol.kind == "unique"
        assert abs(sol.candidates[0] - z) <= 1e-9


def test_generic_overdetermined_uses_all_equations():
    rng = np.random.default_rng(4)
    z = 0.3 - 1.2j
    v = rng.uniform(-2, 2, 6) + 1j * rng.uniform(-2, 2, 6)
    sol = solve_generic(*planted_system(v, z))
    assert sol.kind == "unique"
    assert abs(sol.candidates[0] - z) <= 1e-10


def test_real_centers_planted_pair():
    offsets, radii = planted_system([0.0, 1.0], 1j)
    assert np.allclose(radii, [1.0, np.sqrt(2)])
    sol = solve_real_centers(offsets, radii)
    assert sol.kind == "pair"
    assert abs(sol.candidates[0] - 1j) <= 1e-12
    assert abs(sol.candidates[1] - (-1j)) <= 1e-12


def test_real_centers_impossible():
    sol = solve_real_centers([0.0, 1.0], [1.0, 5.0])
    assert sol.kind == "none"


def test_real_centers_tangent_collapses():
    sol = solve_real_centers(*planted_system([0.0, 2.0], 1.0 + 0j))
    assert sol.kind == "pair"
    assert sol.candidates == (1.0 + 0j,)


def test_solution_is_kind_candidates_and_residual():
    # the points of a solve live only in ``candidates``, collapsed where solved
    assert [f.name for f in dataclasses.fields(CircleSolution)] == ["kind", "candidates", "residual"]
    solves = [
        ("unique", 1, solve_generic(*planted_system([0, -1, -1j], 2 + 1j))),
        ("none", 1, solve_generic([0, -1, -1j], [1.0, 1.0, 10.0])),
        ("none", 1, solve_real_centers([0.0, 1.0], [1.0, 5.0])),
        ("pair", 2, solve_real_centers(*planted_system([0.0, 1.0], 1j))),
        ("pair", 1, solve_real_centers(*planted_system([0.0, 2.0], 1.0 + 0j))),  # tangent
    ]
    for kind, count, sol in solves:
        assert sol.kind == kind and len(sol.candidates) == count, sol
        assert type(sol.candidates) is tuple and all(type(w) is complex for w in sol.candidates)


def test_real_centers_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = np.sort(rng.uniform(-2, 2, 3)).astype(complex)
        if np.min(np.diff(v.real)) < 0.1:
            continue
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sol = solve_real_centers(*planted_system(v, z))
        assert sol.kind == "pair"
        assert sol.candidates[1] == np.conj(sol.candidates[0])


def test_real_centers_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_real_centers(np.array([1.0, 1.0], dtype=complex), np.ones(2))


def test_real_centers_rejects_complex_offsets():
    with pytest.raises(InvalidParametersError):
        solve_real_centers(np.array([0.0, 1j]), np.ones(2))


def test_translation_equivariance():
    rng = np.random.default_rng(6)
    z = 1.1 - 0.4j
    v = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
    w = 0.7 + 0.2j
    _, radii = planted_system(v, z)
    base = solve_generic(v, radii)
    moved = solve_generic(v + w, radii)
    assert abs((base.candidates[0] - w) - moved.candidates[0]) <= 1e-12

    vr = np.array([0.0, 1.0], dtype=complex)
    zr = 0.5 + 0.8j
    _, radii = planted_system(vr, zr)
    base = solve_real_centers(vr, radii)
    shifted = solve_real_centers(vr + 0.25, radii)
    assert abs((base.candidates[0] - 0.25) - shifted.candidates[0]) <= 1e-12


def test_ratio_is_nonreal_cases():
    assert ratio_is_nonreal(np.array([0, 1, 1j]), 1, 2)
    assert not ratio_is_nonreal(np.array([0, 1, 2], dtype=complex), 1, 2)
    with pytest.raises(DegenerateSystemError):
        ratio_is_nonreal(np.array([1.0, 1.0, 2.0], dtype=complex), 1, 2)


def test_system_validation():
    for form in (list, np.array):
        with pytest.raises(InvalidParametersError):
            solve_real_centers(form([1.0 + 0j]), form([1.0]))
        with pytest.raises(InvalidParametersError):
            solve_real_centers(form([0j, 1j]), form([1.0, -0.5]))


def test_non_1d_or_non_numeric_systems_rejected():
    for solve in (solve_generic, solve_real_centers):
        with pytest.raises(InvalidParametersError, match="matching radii"):
            solve(np.zeros((3, 1), dtype=complex), np.ones(3))
        with pytest.raises(InvalidParametersError, match="matching radii"):
            solve([0j, 1 + 0j, 1j], [[1.0, 1.0, 1.0]])
        with pytest.raises(InvalidParametersError, match="numeric"):
            solve([0j, [1 + 0j, 2 + 0j], 1j], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidParametersError, match="numeric"):
            solve([0j, 1 + 0j, 1j], [1.0, "one", 1.0])


@pytest.mark.parametrize(
    "solve, offsets, radii",
    [
        (solve_generic, [10**400, 1, 1j], [1, 1, 1]),
        (solve_generic, [0, 1, 1j], [10**400, 1, 1]),
        (solve_real_centers, [10**400, 1], [1, 1]),
    ],
    ids=["generic offset", "generic radius", "real offset"],
)
def test_integers_beyond_the_float_range_rejected(solve, offsets, radii):
    # these escaped as a bare OverflowError from the conversion to floats
    with pytest.raises(InvalidParametersError, match="must be numeric"):
        solve(offsets, radii)


def test_the_old_system_forms_fail_loudly():
    # offsets and radii are two arguments: one pair, or a centres object, is
    # never read with flipped signs
    import frogkit.circle_solver

    assert not hasattr(frogkit.circle_solver, "CircleSystem")
    for solve in (solve_generic, solve_real_centers):
        with pytest.raises(TypeError, match="radii"):
            solve(([0j, 1 + 0j, 1j], [1.0, 1.0, 1.0]))


def test_a_center_too_many_rejected_by_real_solver():
    with pytest.raises(InvalidParametersError, match="matching radii"):
        solve_real_centers([0j, 1 + 0j, 2 + 0j], [1.0, 1.0])


def test_a_center_too_many_rejected_by_generic_solver():
    with pytest.raises(InvalidParametersError, match="matching radii"):
        solve_generic([0j, 1 + 0j, 1j, 1 + 1j], [1.0, 1.0, 1.0])


def test_one_circle_rejected():
    for solve in (solve_generic, solve_real_centers):
        with pytest.raises(InvalidParametersError, match="s >= 2"):
            solve([1 + 0j], [1.0])


def test_negative_radius_rejected():
    for solve, offsets in ((solve_generic, [0j, 2 + 0j, 1j]), (solve_real_centers, [0j, 2 + 0j, 3 + 0j])):
        with pytest.raises(InvalidParametersError, match="nonnegative"):
            solve(offsets, [1.0, 1.0, -0.5])


@pytest.mark.parametrize("solve", [solve_generic, solve_real_centers])
@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize(
    "offsets, radii",
    [
        ([0j, 1 + 0j, 2 + 0j], [1.0, math.inf, 1.0]),
        ([0j, 1 + 0j, 2 + 0j], [math.nan, 1.0, 1.0]),
        ([0j, complex(math.nan, 0.0), 2 + 0j], [1.0, 1.0, 1.0]),
        ([0j, 1 + 0j, complex(math.inf, 0.0)], [1.0, 1.0, 1.0]),
    ],
    ids=["inf radius", "nan radius", "nan offset", "inf offset"],
)
def test_nonfinite_systems_rejected(solve, as_array, offsets, radii):
    # lists and arrays are checked alike: both fail before any solve
    with pytest.raises(InvalidParametersError, match="finite"):
        solve(*map(np.array, (offsets, radii))) if as_array else solve(offsets, radii)


_SYSTEMS = [(solve_generic, [0, 1, 1j], [1, 1, 1]), (solve_real_centers, [0, 1, 2], [1, 1, 1])]


@pytest.mark.parametrize("solve, offsets, radii", _SYSTEMS, ids=["generic", "real"])
@pytest.mark.parametrize(
    "tol, match",
    [("a", "numeric"), (1j, "numeric"), ([1e-3, 1e-3], "0-D"), (math.nan, "finite"),
     (math.inf, "finite"), (0.0, "positive"), (-1e-3, "positive"), (np.float64(-1.0), "positive")],
    ids=["text", "complex", "pair", "nan", "inf", "zero", "negative", "negative numpy"],
)
def test_tol_must_be_one_finite_positive_number(solve, offsets, radii, tol, match):
    # text raised a bare TypeError, and nan returned kind "none" or "pair"
    with pytest.raises(InvalidParametersError, match=match):
        solve(offsets, radii, tol=tol)


@pytest.mark.parametrize("solve, offsets, radii", _SYSTEMS, ids=["generic", "real"])
def test_tol_is_converted_to_a_float(solve, offsets, radii):
    for tol in (np.float64(0.25), np.float32(0.25), "0.25", 1):
        assert solve(offsets, radii, tol=tol) == solve(offsets, radii, tol=float(tol))


def _reference_check(offsets, radii, tol):
    """``circle_solver._check`` as it was when both sequences went through
    numpy arrays: the item-by-item conversion must keep its values and texts."""
    v = _frozen_array(offsets, np.complex128, None, "offsets and radii")
    n = _frozen_array(radii, np.float64, None, "offsets and radii")
    if v.ndim != 1 or n.ndim != 1 or len(v) != len(n) or len(n) < 2:
        raise InvalidParametersError("need s >= 2 offsets with matching radii")
    v, n = v.tolist(), n.tolist()
    if not (all(map(cmath.isfinite, v)) and all(map(math.isfinite, n))):
        raise InvalidParametersError("offsets and radii must be finite")
    if min(n) < 0:
        raise InvalidParametersError("radii must be nonnegative")
    return v, n, default_tolerance(n) if tol is None else _tolerance(tol, "tol")


def _check_outcome(check, build_offsets, build_radii, tol):
    """A check's lists and tolerance as exact bits and types, or the error it raised."""
    try:
        v, n, tol = check(build_offsets(), build_radii(), tol)
    except Exception as exc:  # an escaping warning, too, must match
        return type(exc), str(exc)
    return ([(type(c), c.real.hex(), c.imag.hex()) for c in v],
            [(type(x), x.hex()) for x in n], tol.hex())


_NUMPY_SCALARS = (np.float32, np.float64, np.int64, np.bool_, np.complex64, np.complex128)
_ITEM = st.one_of(
    st.floats(), st.complex_numbers(), st.integers(-2**70, 2**70), st.booleans(),
    st.sampled_from([10**400, math.nan, math.inf, -0.0]),
    st.builds(lambda kind, x: kind(x), st.sampled_from(_NUMPY_SCALARS), st.floats(-1e3, 1e3)),
    st.sampled_from(["1.5", "2j", "(1+2j)", " 3 ", "-4", "nan", "inf", "1e400", "1_0", "abc", ""]),
    st.text(alphabet="0123456789.+-ejJinfa_() ", max_size=6),
    st.none(),
)
# the 1-D arrays, each dtype built from values it holds without a cast warning
_ARRAY = st.one_of(
    st.lists(st.floats(width=32), max_size=4).map(lambda x: np.array(x, dtype=np.float32)),
    st.lists(st.floats(), max_size=4).map(lambda x: np.array(x, dtype=np.float64)),
    st.lists(st.complex_numbers(width=64), max_size=4).map(lambda x: np.array(x, dtype=np.complex64)),
    st.lists(st.complex_numbers(), max_size=4).map(lambda x: np.array(x, dtype=np.complex128)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(lambda x: np.array(x, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda x: np.array(x, dtype=bool)),
)


@st.composite
def _system_input(draw):
    """A builder of one offsets or radii argument: a fresh object per call, so a
    generator is read once by each check."""
    items = draw(st.lists(_ITEM, max_size=4))
    form = draw(st.sampled_from(
        ["list", "tuple", "generator", "array", "column", "row", "nested", "ragged", "whole"]))
    if form == "tuple":
        return lambda: tuple(items)
    if form == "generator":
        return lambda: (x for x in items)
    if form == "array":
        array = draw(_ARRAY)
        return lambda: array.copy()
    if form in ("column", "row"):
        array = draw(_ARRAY)
        return lambda: array.reshape((-1, 1) if form == "column" else (1, -1))
    if form == "nested":
        return lambda: [[x] for x in items]
    if form == "ragged":
        return lambda: [[x] * (i % 2 + 1) for i, x in enumerate(items)]
    if form == "whole":
        item = draw(_ITEM)
        return lambda: item
    return lambda: list(items)


# plain lists of finite numbers, so that a good share of the pairs pass every rule
_VALID_OFFSETS = st.lists(st.complex_numbers(max_magnitude=1e3), min_size=2, max_size=4)
_VALID_RADII = st.lists(st.floats(0.0, 1e3), min_size=2, max_size=4)


@settings(max_examples=600, deadline=None)
@given(
    offsets=st.one_of(_system_input(), _VALID_OFFSETS.map(lambda v: lambda: list(v))),
    radii=st.one_of(_system_input(), _VALID_RADII.map(lambda n: lambda: list(n))),
    tol=st.sampled_from([None, 1e-7]),
)
def test_check_matches_the_array_conversion(offsets, radii, tol):
    """Lists, tuples, generators, arrays of six dtypes, nested and ragged lists
    and single values, of numbers, numpy scalars, strings and None: the same
    lists bit for bit, or the same error and message."""
    want = _check_outcome(_reference_check, offsets, radii, tol)
    assert _check_outcome(circle_solver._check, offsets, radii, tol) == want


def test_generic_solve_needs_three_circles():
    with pytest.raises(InvalidParametersError, match="at least 3"):
        solve_generic([0j, 1 + 0j], [1.0, 1.0])


def test_least_squares_step_matches_lstsq():
    # Gauss-Newton Jacobians: unit rows (z - c_i)/|z - c_i|; centres collinear
    # with z make them rank 1, where lstsq takes the minimum-norm step
    rng = np.random.default_rng(5)
    ranks = set()
    for _ in range(400):
        s = int(rng.integers(2, 5))
        z = complex(*rng.standard_normal(2))
        d = z - (rng.standard_normal(s) + 1j * rng.standard_normal(s))
        line = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.standard_normal(s)
        for d in (d, line):
            jac = np.column_stack([d.real, d.imag]) / np.abs(d)[:, None]
            f = rng.standard_normal(s)
            ref, _, rank, sv = np.linalg.lstsq(jac, -f, rcond=None)
            ranks.add(int(rank))
            step = _least_squares_2(jac.tolist(), (-f).tolist())
            # a rank-1 step is u * (u.f) / sigma^2; u.f may cancel, so the
            # scale of its rounding is |f| / sigma_max, not the step itself
            scale = np.linalg.norm(ref) + np.linalg.norm(f) / sv[0]
            assert np.linalg.norm(np.subtract(step, ref)) <= 1e-12 * scale
    assert ranks == {1, 2}


def test_polish_stops_at_its_first_step_that_does_not_lower_the_residual(monkeypatch):
    # an inconsistent system: without the stop rule the polish runs all 12
    # steps, though its residual stops falling after a few
    offsets, radii, z0 = [0j, 1 + 0j, 1j], [1.0, 1.0, 2.0], 0.3 + 0.4j
    steps = []

    def counted(rows, rhs):
        steps.append(_least_squares_2(rows, rhs))
        return steps[-1]

    monkeypatch.setattr(circle_solver, "_least_squares_2", counted)
    z, residual = circle_solver._refine_candidate(z0, offsets, radii)
    visited = [z0]
    for dx, dy in steps:
        visited.append(visited[-1] + complex(dx, dy))
    res = [max(abs(abs(p + v) - r) for v, r in zip(offsets, radii)) for p in visited]
    assert 1 < len(steps) < 12
    assert all(b < a for a, b in zip(res[:-2], res[1:-1]))  # every step but the last lowered it
    assert not res[-1] < res[-2]
    assert (z, residual) == (visited[-2], min(res))


def _mirror(z, point, u):
    """Reflection of z in the line of centres -point - t*u."""
    return np.conj((z + point) / u) * u - point


def test_collinear_planted_pair_off_origin():
    rng = np.random.default_rng(7)
    for _ in range(50):
        point = complex(*rng.uniform(-2, 2, 2))
        direction = complex(*rng.uniform(-2, 2, 2))
        offsets = [point + t * direction for t in (-1.0, 0.5, 2.0)]
        z = complex(*rng.uniform(-2, 2, 2))
        radii = [abs(z + v) for v in offsets]
        candidates, _ = _solve_collinear(offsets, radii, point, direction, None)
        assert len(candidates) == 2
        u = direction / abs(direction)
        got = sorted(candidates, key=lambda c: abs(c - z))
        assert abs(got[0] - z) <= 1e-10
        assert abs(got[-1] - _mirror(z, point, u)) <= 1e-10
        assert ((candidates[0] + point) / u).imag >= 0


def test_collinear_pair_that_maps_to_one_point_is_one_candidate():
    # the pair -0.5 +- 0.87i of the real frame differs only below the last
    # bit of the imaginary part -1e20 once mapped back: one candidate, as
    # the mapped solution's ``candidates`` gave
    candidates, residual = _solve_collinear([1e20j, 1e20j + 1], [1.0, 1.0], 1e20j, 1.0, None)
    assert candidates == (complex(-0.5, -1e20),)
    assert residual <= 1e-15


def test_collinear_coincident_offsets_rejected():
    with pytest.raises(DegenerateSystemError):
        _solve_collinear([1 + 1j, 1 + 1j], [1.0, 1.0], 1 + 1j, 1.0, None)
    with pytest.raises(DegenerateSystemError):
        _solve_collinear([0j, 1j, 1.0], [1.0] * 3, 0j, 1.0, None)  # off the line


def test_collinear_row3_keeps_upper_candidate_first():
    rng = np.random.default_rng(8)
    for _ in range(20):
        prefix = [1.3, 0.7] + [complex(*rng.standard_normal(2))]
        x3 = complex(*rng.standard_normal(2))
        # row 3's offsets lie on the line through the origin along x2
        offsets = [t * prefix[2] for t in rng.standard_normal(2)]
        radii = [abs(prefix[0] * x3 + v) for v in offsets]
        (upper, lower), _ = _solve_collinear(offsets, radii, 0j, prefix[2], None)
        u = prefix[2] / abs(prefix[2])
        assert (upper / u).imag >= 0 and (lower / u).imag <= 0
        assert min(abs(c - prefix[0] * x3) for c in (upper, lower)) <= 1e-10


# The solvers as they were when each solve took a validated system of numpy
# arrays, the centres -v_i and the radii, with the polish stopping at its
# first step that does not lower the residual.  The scalar solvers must
# reproduce them bit for bit: the recursion amplifies a one-ulp change
# tenfold per row.


def _reference_arrays(centers, radii):
    return np.array(centers, dtype=np.complex128), np.array(radii, dtype=np.float64)


def _reference_max_error(z, pairs):
    return max(abs(abs(z - c) - r) for c, r in pairs)


def _reference_difference_rows(v, radii):
    """Rows of the real linear system in (Re z, Im z) from subtracting
    equation pairs (0, j), in numpy: its rounding of |v|^2 and r^2 is the
    one the scalar solver must keep."""
    d = np.conj(v[0]) - np.conj(v[1:])
    # Re{z * (c + i*d)} = Re(z)*c - Im(z)*d per row
    mat = np.column_stack([d.real, -d.imag])
    rhs = 0.5 * (
        radii[0] ** 2 - radii[1:] ** 2 + np.abs(v[1:]) ** 2 - np.abs(v[0]) ** 2
    )
    return mat, rhs


def _reference_least_squares_2(rows, rhs):
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


def _reference_refine_candidate(z, pairs):
    best, best_res = z, _reference_max_error(z, pairs)
    for _ in range(12):
        d = [(z - c, abs(z - c), r) for c, r in pairs]
        if min(dist for _, dist, _ in d) < 1e-300:
            break
        dx, dy = _reference_least_squares_2(
            [(v.real / dist, v.imag / dist) for v, dist, _ in d],
            [r - dist for _, dist, r in d],
        )
        z = z + complex(dx, dy)
        res = _reference_max_error(z, pairs)
        if not res < best_res:
            break
        best, best_res = z, res
        if math.hypot(dx, dy) < 1e-15 * (1.0 + abs(z)):
            break
    return best, best_res


def _reference_solve_generic(centers, radii, tol=None):
    v = -centers
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
        raise DegenerateSystemError("collinear centers")
    mat, rhs = _reference_difference_rows(v, radii)
    z0 = complex(*_reference_least_squares_2(mat.tolist(), rhs.tolist()))
    pairs = list(zip(centers.tolist(), radii.tolist()))
    z, residual = _reference_refine_candidate(z0, pairs)
    return CircleSolution("unique" if residual <= tol else "none", (z,), residual)


def _reference_solve_real_centers(centers, radii, tol=None):
    v = (-centers).tolist()
    radii = radii.tolist()
    pairs = list(zip(centers.tolist(), radii))
    if max(abs(c.imag) for c in v) > _COINCIDENT_TOL * (1.0 + max(map(abs, v))):
        raise InvalidParametersError("offsets must be real for this solver")
    vr = [c.real for c in v]
    if tol is None:
        tol = default_tolerance(radii)
    diffs = [vr[0] - x for x in vr[1:]]
    if max(map(abs, diffs)) <= _COINCIDENT_TOL * (1.0 + max(map(abs, vr))):
        raise UnderdeterminedSystemError("all offsets equal")
    rhs = [0.5 * (radii[0] ** 2 - n**2 + x**2 - vr[0] ** 2)
           for n, x in zip(radii[1:], vr[1:])]
    a = sum(d * h for d, h in zip(diffs, rhs)) / sum(d * d for d in diffs)
    b_sq = radii[0] ** 2 - (a + vr[0]) ** 2
    if b_sq < -tol:
        z = complex(a, 0.0)
        return CircleSolution("none", (z,), _reference_max_error(z, pairs))
    b = math.sqrt(max(b_sq, 0.0))
    z = complex(a, b)
    # a pair whose points are equal (b == 0) is one candidate
    candidates = tuple(dict.fromkeys((z, complex(a, -b))))
    return CircleSolution("pair", candidates, _reference_max_error(z, pairs))


def _reference_solve_collinear(offsets, radii, point, direction, tol=None):
    if max(abs(v - offsets[0]) for v in offsets) <= _COINCIDENT_TOL * (1.0 + max(radii)):
        raise DegenerateSystemError("coincident offsets")
    u = direction * (1.0 / abs(direction))
    rotated = [(v - point) / u for v in offsets]
    if max(abs(w.imag) for w in rotated) > 1e-9 * (1.0 + max(map(abs, rotated))):
        raise DegenerateSystemError("offsets are not on the given line")
    sol = _reference_solve_real_centers(*_reference_arrays([-w.real for w in rotated], radii), tol=tol)
    # the candidates of the solution mapped back, as the recursion reads them,
    # with a pair that maps to one point kept as one candidate
    return tuple(dict.fromkeys(w * u - point for w in sol.candidates)), sol.residual


def _bits(call):
    """A solve's outcome with every float as its exact bits."""
    try:
        sol = call()
    except Exception as exc:  # the reference's exception type must match too
        return type(exc)
    exact = [(w.real.hex(), w.imag.hex()) for w in sol.candidates]
    return sol.kind, exact, sol.residual.hex()


def _candidate_bits(call):
    """A collinear solve's candidates and residual as exact bits."""
    try:
        candidates, residual = call()
    except Exception as exc:
        return type(exc)
    return [(w.real.hex(), w.imag.hex()) for w in candidates], residual.hex()


_coord = st.floats(-4.0, 4.0, allow_subnormal=False)
_point = st.builds(complex, _coord, _coord)


@settings(max_examples=300, deadline=None)
@given(
    s=st.sampled_from([3, 4]),
    z=_point,
    offsets=st.lists(_point, min_size=4, max_size=4),
    factors=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
    perturb=st.booleans(),
    tol=st.sampled_from([None, 1e-7]),
)
def test_generic_solve_matches_reference_bitwise(s, z, offsets, factors, perturb, tol):
    v = offsets[:s]
    radii = [abs(z + c) * (f if perturb else 1.0) for c, f in zip(v, factors)]
    ref = _bits(lambda: _reference_solve_generic(*_reference_arrays([-c for c in v], radii), tol))
    assert _bits(lambda: solve_generic(np.array(v), np.array(radii), tol)) == ref
    assert _bits(lambda: solve_generic(v, radii, tol)) == ref  # the recursion's input


def test_generic_solve_matches_reference_bitwise_on_seeded_systems():
    # 3,000 systems of 3-5 circles at scales 0.1..1000, half of them
    # inconsistent: about 1 in 1,200 squares differs between r ** 2 (C pow)
    # and numpy's r * r, and a third of the moduli between Python's abs()
    # and numpy's, so a solve that rounds either way misses the reference
    rng = np.random.default_rng(2027)
    for i in range(3000):
        s, scale = 3 + i % 3, 10.0 ** rng.uniform(-1.0, 3.0)
        v = ((rng.standard_normal(s) + 1j * rng.standard_normal(s)) * scale).tolist()
        z = complex(*rng.standard_normal(2)) * scale
        radii = [abs(z + c) * (rng.uniform(0.9, 1.1) if i % 2 else 1.0) for c in v]
        tol = (None, 1e-7 * scale)[i // 2 % 2]
        ref = _bits(lambda: _reference_solve_generic(*_reference_arrays([-c for c in v], radii), tol))
        assert _bits(lambda: solve_generic(v, radii, tol)) == ref, i


@settings(max_examples=300, deadline=None)
@given(
    s=st.sampled_from([3, 4]),
    z=_point,
    xs=st.lists(_coord, min_size=4, max_size=4),
    factors=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
    perturb=st.booleans(),
    line=st.tuples(_point, st.floats(0.0, 2 * np.pi)),
)
def test_real_and_collinear_solves_match_reference_bitwise(s, z, xs, factors, perturb, line):
    radii = [abs(z + x) * (f if perturb else 1.0) for x, f in zip(xs[:s], factors)]
    centers = [complex(-x) for x in xs[:s]]
    ref = _bits(lambda: _reference_solve_real_centers(*_reference_arrays(centers, radii)))
    assert _bits(lambda: solve_real_centers(np.array(xs[:s]), np.array(radii))) == ref
    assert _bits(lambda: solve_real_centers(xs[:s], radii)) == ref

    # the same offsets on the line point + t * direction
    point, angle = line
    direction = complex(math.cos(angle), math.sin(angle))
    offsets = [point + x * direction for x in xs[:s]]
    ref = _candidate_bits(lambda: _reference_solve_collinear(offsets, radii, point, direction, 1e-7))
    assert _candidate_bits(lambda: _solve_collinear(offsets, radii, point, direction, 1e-7)) == ref
