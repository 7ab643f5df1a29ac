import numpy as np
import pytest

from frogkit import (
    CircleSystem,
    DegenerateSystemError,
    InvalidParametersError,
    UnderdeterminedSystemError,
    pyramid_centers,
    ratio_is_nonreal,
    solve_generic,
    solve_real_centers,
)
from frogkit.circle_solver import _least_squares_2, solve_collinear

from conftest import grid_min_residual


def planted_system(offsets, z):
    offsets = np.asarray(offsets, dtype=complex)
    return CircleSystem(-offsets, np.abs(z + offsets))


def test_generic_planted_example():
    z = 2 + 1j
    sys = planted_system([0, -1, -1j], z)
    assert np.allclose(sys.radii, [abs(2 + 1j), abs(1 + 1j), 2.0])
    sol = solve_generic(sys)
    assert sol.kind == "unique"
    assert abs(sol.z - z) <= 1e-12
    assert sol.residual <= 1e-12


def test_generic_no_solution_example():
    sys = CircleSystem(-np.array([0, -1, -1j]), np.array([1.0, 1.0, 10.0]))
    sol = solve_generic(sys)
    assert sol.kind == "none"
    assert sol.residual > 1.0
    # independent confirmation: nothing in a generous box comes close
    assert grid_min_residual(sys, 5.0) > 1.0


def test_generic_rejects_collinear_offsets():
    sys = CircleSystem(-np.array([0.0, -1.0, -2.0], dtype=complex), np.ones(3))
    with pytest.raises(DegenerateSystemError):
        solve_generic(sys)


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
        sol = solve_generic(planted_system(v, z))
        assert sol.kind == "unique"
        assert abs(sol.z - z) <= 1e-9


def test_generic_overdetermined_uses_all_equations():
    rng = np.random.default_rng(4)
    z = 0.3 - 1.2j
    v = rng.uniform(-2, 2, 6) + 1j * rng.uniform(-2, 2, 6)
    sol = solve_generic(planted_system(v, z))
    assert sol.kind == "unique"
    assert abs(sol.z - z) <= 1e-10


def test_real_centers_planted_pair():
    sys = planted_system([0.0, 1.0], 1j)
    assert np.allclose(sys.radii, [1.0, np.sqrt(2)])
    sol = solve_real_centers(sys)
    assert sol.kind == "pair"
    assert abs(sol.z - 1j) <= 1e-12
    assert abs(sol.z_conjugate - (-1j)) <= 1e-12


def test_real_centers_impossible():
    sol = solve_real_centers(CircleSystem(-np.array([0.0, 1.0], dtype=complex), np.array([1.0, 5.0])))
    assert sol.kind == "none"


def test_real_centers_tangent_collapses():
    sol = solve_real_centers(planted_system([0.0, 2.0], 1.0 + 0j))
    assert sol.kind == "pair"
    assert sol.z == sol.z_conjugate == 1.0 + 0j


def test_real_centers_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = np.sort(rng.uniform(-2, 2, 3)).astype(complex)
        if np.min(np.diff(v.real)) < 0.1:
            continue
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sol = solve_real_centers(planted_system(v, z))
        assert sol.kind == "pair"
        assert sol.z_conjugate == np.conj(sol.z)


def test_real_centers_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_real_centers(CircleSystem(np.array([1.0, 1.0], dtype=complex), np.ones(2)))


def test_real_centers_rejects_complex_offsets():
    with pytest.raises(InvalidParametersError):
        solve_real_centers(CircleSystem(np.array([0.0, 1j]), np.ones(2)))


def test_translation_equivariance():
    rng = np.random.default_rng(6)
    z = 1.1 - 0.4j
    v = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
    w = 0.7 + 0.2j
    base = solve_generic(planted_system(v, z))
    moved = solve_generic(CircleSystem(-(v + w), planted_system(v, z).radii))
    assert abs((base.z - w) - moved.z) <= 1e-12

    vr = np.array([0.0, 1.0], dtype=complex)
    zr = 0.5 + 0.8j
    base = solve_real_centers(planted_system(vr, zr))
    shifted = solve_real_centers(CircleSystem(-(vr + 0.25), planted_system(vr, zr).radii))
    assert abs((base.z - 0.25) - shifted.z) <= 1e-12


def test_ratio_is_nonreal_cases():
    assert ratio_is_nonreal(np.array([0, 1, 1j]), 1, 2)
    assert not ratio_is_nonreal(np.array([0, 1, 2], dtype=complex), 1, 2)
    with pytest.raises(DegenerateSystemError):
        ratio_is_nonreal(np.array([1.0, 1.0, 2.0], dtype=complex), 1, 2)


def test_system_validation():
    with pytest.raises(InvalidParametersError):
        CircleSystem(np.array([1.0 + 0j]), np.array([1.0]))
    with pytest.raises(InvalidParametersError):
        CircleSystem(np.array([0j, 1j]), np.array([1.0, -0.5]))


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
        sol = solve_collinear(offsets, radii, point, direction)
        assert sol.kind == "pair"
        u = direction / abs(direction)
        got = sorted(sol.candidates, key=lambda c: abs(c - z))
        assert abs(got[0] - z) <= 1e-10
        assert abs(got[-1] - _mirror(z, point, u)) <= 1e-10
        assert ((sol.z + point) / u).imag >= 0


def test_collinear_coincident_offsets_rejected():
    with pytest.raises(DegenerateSystemError):
        solve_collinear([1 + 1j, 1 + 1j], [1.0, 1.0], 1 + 1j, 1.0)
    with pytest.raises(DegenerateSystemError):
        solve_collinear([0j, 1j, 1.0], [1.0] * 3, 0j, 1.0)  # off the line


def test_collinear_row3_keeps_upper_candidate_first():
    rng = np.random.default_rng(8)
    for _ in range(20):
        prefix = [1.3, 0.7] + [complex(*rng.standard_normal(2))]
        x3 = complex(*rng.standard_normal(2))
        offsets = [pyramid_centers(prefix, 3, m, 4) for m in (0, 1)]
        radii = [abs(prefix[0] * x3 + v) for v in offsets]
        sol = solve_collinear(offsets, radii, 0j, prefix[2])
        u = prefix[2] / abs(prefix[2])
        assert (sol.z / u).imag >= 0 and (sol.z_conjugate / u).imag <= 0
        assert min(abs(c - prefix[0] * x3) for c in sol.candidates) <= 1e-10
