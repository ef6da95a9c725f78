import numpy as np
import pytest

from lyapint.numerics import cross, norm
from lyapint.systems import SYSTEM_NAMES, make_system


def cross_oracle(u, v):
    # componentwise cross product, written out independently
    return np.array([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def test_cross_matches_componentwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = rng.uniform(-5, 5, 3)
        v = rng.uniform(-5, 5, 3)
        assert np.array_equal(cross(u, v), cross_oracle(u, v))


def test_norm_matches_euclidean():
    v = np.array([3.0, 4.0, 12.0])
    assert norm(v) == pytest.approx(13.0, rel=1e-15)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_batches_are_c_contiguous_and_reduce_rows_like_single_states(name):
    # a reduction over a batch row rounds as the one over the single-state result
    system = make_system(name)
    states = system.initial_state + np.random.default_rng(5).uniform(-0.1, 0.1, (999, system.dim))
    for kernel in (system.field, system.gradient):
        batch = kernel(states)
        assert batch.shape == states.shape and batch.flags.c_contiguous
        for row, s in zip(batch, states):
            single = kernel(s)
            assert float(row @ row) == float(single @ single)
