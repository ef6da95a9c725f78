import numpy as np
import pytest

from conftest import stacked
from lyapint.numerics import dot, norm
from lyapint.systems import SYSTEM_NAMES, make_system


def test_dot_sums_products_in_component_order():
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = rng.uniform(-5, 5, 3).tolist()
        v = rng.uniform(-5, 5, 3).tolist()
        assert dot(u, v) == (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]
        assert dot(u, v) == pytest.approx(float(np.dot(u, v)), rel=1e-14, abs=1e-14)


def test_norm_matches_euclidean():
    v = (3.0, 4.0, 12.0)
    assert norm(v) == pytest.approx(13.0, rel=1e-15)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_batches_are_c_contiguous_and_reduce_rows_like_single_states(name):
    # a block's result columns, stacked as gradient_agreement_report stacks
    # them, form a C-contiguous (N, dim) array; a reduction over one of its
    # rows rounds as the one over the single-state result
    system = make_system(name)
    states = system.initial_state + np.random.default_rng(5).uniform(-0.1, 0.1, (999, system.dim))
    columns = tuple(states.T)
    for kernel in (system.field, system.gradient):
        batch = stacked(kernel(columns))
        assert batch.shape == states.shape and batch.flags.c_contiguous
        for row, s in zip(batch, states.tolist()):
            single = np.array(kernel(tuple(s)))
            assert float(row @ row) == float(single @ single)
