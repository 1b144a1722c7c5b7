"""Kernel and interpolated-potential tests.

Expected values come from closed forms (asymptotic limits, the explicit
derivative formula) or from finite-difference oracles computed here.
"""

import numpy as np
import pytest

from capradon.greenfn import (
    GreenCoefficients,
    SingularMatrixError,
    SingularPointError,
    build_system,
    eval_green,
    eval_potential,
    potential_coefficients,
    solve_coefficients,
)

from potential_oracle import green_gradient, potential


def sample_points(count, seed=42, zmin=0.05, zmax=2.5):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2, 2, count)
    x2 = rng.uniform(zmin, zmax, count) * rng.choice([-1.0, 1.0], count)
    return x1, x2


def test_periodicity_in_x1():
    x1, x2 = sample_points(500)
    a = eval_green(x1 + 1.0, x2)
    b = eval_green(x1, x2)
    assert np.max(np.abs(a - b)) < 1e-15


def test_evenness():
    x1, x2 = sample_points(500)
    base = eval_green(x1, x2)
    assert np.max(np.abs(eval_green(-x1, x2) - base)) < 1e-15
    assert np.max(np.abs(eval_green(x1, -x2) - base)) < 1e-15


def test_far_field_limit():
    # high above the plane the kernel flattens to log(2)/(2 pi)
    limit = np.log(2.0) / (2.0 * np.pi)
    for x1 in (0.37, 0.0, -1.8):
        assert abs(eval_green(x1, 6.0) - limit) < 1e-6


def test_near_field_log_coefficient():
    # kernel + log(r)/(2 pi) tends to -log(pi)/(2 pi) at the origin
    offset = -np.log(np.pi) / (2.0 * np.pi)
    for r in (1e-3, 1e-4):
        for ang in (0.3, 1.2, 2.0):
            x1, x2 = r * np.cos(ang), r * np.sin(ang)
            got = eval_green(x1, x2) + np.log(r) / (2.0 * np.pi)
            assert abs(got - offset) < 1e-3


def test_lattice_singularities_rejected():
    for x1 in (0.0, 1.0, -3.0):
        with pytest.raises(SingularPointError):
            eval_green(x1, 0.0)
    with pytest.raises(SingularPointError):
        eval_green(np.array([0.5, 2.0]), np.array([0.3, 0.0]))
    # non-integer points on the plane are fine for the value...
    assert np.isfinite(eval_green(0.5, 0.0))
    # ...but not for the gradient (kink of |x2|/2)
    with pytest.raises(SingularPointError):
        green_gradient(0.5, 0.0)


def test_gradient_closed_form():
    d = np.sin(np.pi * 0.5) ** 2 + np.sinh(0.3 * np.pi) ** 2
    want = -np.sinh(2.0 * np.pi * 0.3) / (4.0 * d) + 0.5
    g1, g2 = green_gradient(0.5, 0.3)
    assert g2 == pytest.approx(want, rel=1e-12)
    assert g1 == pytest.approx(0.0, abs=1e-15)  # even in x1 at x1=1/2


def test_gradient_matches_central_differences():
    # restricted to |x2| <= 1.5: beyond that the gradient decays under the
    # cancellation noise floor of the differences themselves
    x1s, x2s = sample_points(300, seed=7, zmax=1.5)
    h = 1e-5
    for x1, x2 in zip(x1s, x2s):
        g1, g2 = green_gradient(x1, x2)
        f1 = (eval_green(x1 + h, x2) - eval_green(x1 - h, x2)) / (2 * h)
        f2 = (eval_green(x1, x2 + h) - eval_green(x1, x2 - h)) / (2 * h)
        assert np.hypot(g1 - f1, g2 - f2) / np.hypot(g1, g2) < 1e-6


def test_harmonic_away_from_singularities():
    h = 1e-3
    for x1, x2 in [(0.4, 0.7), (0.2, 0.4), (1.3, -0.6), (0.9, 1.1)]:
        lap = (eval_green(x1 + h, x2) + eval_green(x1 - h, x2)
               + eval_green(x1, x2 + h) + eval_green(x1, x2 - h)
               - 4.0 * eval_green(x1, x2)) / h**2
        assert abs(lap) < 1e-4


def test_build_system_entries():
    order, eps0 = 8, 0.1
    matrix, rhs = build_system(order, eps0)
    assert matrix.shape == (order + 1, order + 1)
    assert rhs[0] == 1.0 and not rhs[1:].any()
    # row for electrode position 0 against a direct kernel evaluation
    for col in range(order + 1):
        j = col + 1
        assert matrix[0, col] == pytest.approx(eval_green(0.0, eps0 / j), rel=1e-14)
    # spot-check an interior entry
    assert matrix[3, 1] == pytest.approx(eval_green(3.0 / 2.0, 0.05), rel=1e-14)


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system(0, 0.1)
    with pytest.raises(ValueError):
        build_system(8, 0.0)


def test_residuals_small_across_orders():
    for order, bound in [(8, 1e-9), (16, 1e-9), (32, 1e-9), (64, 1e-8)]:
        matrix, rhs = build_system(order, 0.1)
        alpha, residual = solve_coefficients(matrix, rhs)
        assert alpha.shape == (order + 1,)
        assert residual < bound


def test_interpolation_conditions_hold():
    coeffs = potential_coefficients(16, 0.1)
    value0, _ = potential(coeffs, 0.0, coeffs.eps0)
    assert abs(value0 - 1.0) < 1e-12
    for n in range(1, 17):
        value, _ = potential(coeffs, float(n), coeffs.eps0)
        assert abs(value) < 1e-12
    assert coeffs.order == 16
    assert coeffs.residual < 1e-9


def test_singular_matrix_rejected():
    matrix = np.ones((3, 3))
    matrix[2] = matrix[1]  # duplicate row
    with pytest.raises(SingularMatrixError):
        solve_coefficients(matrix, np.array([1.0, 0.0, 0.0]))


def test_near_singular_matrix_rejected():
    # LAPACK alone solves this one without complaint, to about +-9e14
    matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularMatrixError):
        solve_coefficients(matrix, np.array([1.0, 0.0]))


def test_solver_against_numpy_on_random_system():
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(12, 12))
    rhs = rng.normal(size=12)
    alpha, residual = solve_coefficients(matrix, rhs)
    np.testing.assert_allclose(alpha, np.linalg.solve(matrix, rhs), rtol=1e-10)
    assert residual < 1e-10


def test_potential_gradient_chain_rule():
    coeffs = potential_coefficients(16, 0.1)
    h = 1e-6
    for x1, x2 in [(0.3, 0.5), (1.7, 1.2), (-2.4, 0.8)]:
        g1, g2 = eval_potential(coeffs, x1, x2)
        f1 = (potential(coeffs, x1 + h, x2)[0]
              - potential(coeffs, x1 - h, x2)[0]) / (2 * h)
        f2 = (potential(coeffs, x1, x2 + h)[0]
              - potential(coeffs, x1, x2 - h)[0]) / (2 * h)
        assert g1 == pytest.approx(f1, rel=1e-5, abs=1e-8)
        assert g2 == pytest.approx(f2, rel=1e-5, abs=1e-8)


def test_potential_is_harmonic():
    coeffs = potential_coefficients(16, 0.1)
    h = 1e-3
    x1, x2 = 0.4, 0.7
    stencil = (potential(coeffs, x1 + h, x2)[0]
               + potential(coeffs, x1 - h, x2)[0]
               + potential(coeffs, x1, x2 + h)[0]
               + potential(coeffs, x1, x2 - h)[0]
               - 4.0 * potential(coeffs, x1, x2)[0])
    assert abs(stencil / h**2) < 1e-4


def test_vectorized_matches_scalar():
    coeffs = potential_coefficients(8, 0.1)
    x1 = np.array([0.2, 1.1, -0.7])
    x2 = np.array([0.4, 0.9, 1.3])
    g1, g2 = eval_potential(coeffs, x1, x2)
    for i in range(3):
        a, b = eval_potential(coeffs, float(x1[i]), float(x2[i]))
        assert g1[i] == a and g2[i] == b


@pytest.mark.parametrize("order", [16, 54])
def test_gradient_kernel_matches_pointwise_oracle(order):
    # the tensor-grid kernel against the term-by-term point-wise gradient,
    # on a grid that spans negative x and several periods of every copy
    coeffs = potential_coefficients(order, 0.1)
    x = np.linspace(-7.3, 9.1, 131)[None, :]
    z = np.linspace(0.05, 8.0, 97)[:, None]
    g1, g2 = eval_potential(coeffs, x, z)
    _, (w1, w2) = potential(coeffs, x, z)
    peak = max(np.abs(w1).max(), np.abs(w2).max())
    assert g1.shape == g2.shape == (97, 131)
    assert np.max(np.abs(g1 - w1)) <= 1e-13 * peak
    assert np.max(np.abs(g2 - w2)) <= 1e-13 * peak
    with pytest.raises(SingularPointError):
        eval_potential(coeffs, x, np.array([[0.3], [0.0]]))


def test_coefficients_validation():
    with pytest.raises(ValueError):
        GreenCoefficients(alpha=np.array([1.0]), eps0=0.1, residual=0.0)
