import math

import numpy as np
import pytest

from lyapint.numerics import cross, frobenius_norm, hat, norm


def cross_oracle(u, v):
    # componentwise cross product, written out independently
    return np.array([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def test_hat_matches_reference_matrix():
    expected = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    assert np.array_equal(hat((1.0, 1.0, 1.0)), expected)


def test_hat_zero_vector_is_zero_matrix():
    assert np.array_equal(hat((0.0, 0.0, 0.0)), np.zeros((3, 3)))


def test_hat_action_equals_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = rng.uniform(-5, 5, 3)
        v = rng.uniform(-5, 5, 3)
        expected = cross_oracle(u, v)
        # matmul may fuse multiply-adds, so allow one ulp there
        tol = 4e-16 * (1.0 + np.abs(expected).max())
        assert np.allclose(hat(u) @ v, expected, rtol=0.0, atol=tol)
        assert np.array_equal(cross(u, v), expected)


def test_hat_is_exactly_skew():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = hat(rng.standard_normal(3))
        assert np.array_equal(m + m.T, np.zeros((3, 3)))


def test_frobenius_norm_identity():
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_frobenius_norm_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_norm_scaled_identity():
    assert frobenius_norm(0.21 * np.eye(3)) == pytest.approx(
        math.sqrt(3 * 0.21**2), rel=1e-15)


def test_frobenius_norm_squared_is_entry_square_sum():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        assert frobenius_norm(a) ** 2 == pytest.approx(float(np.sum(a * a)), rel=1e-14)


def test_norm_matches_euclidean():
    v = np.array([3.0, 4.0, 12.0])
    assert norm(v) == pytest.approx(13.0, rel=1e-15)
