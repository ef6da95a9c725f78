import math

import numpy as np
import pytest

from conftest import contract_models, sampled
from lyapint.errors import DomainError
from lyapint.numerics import ORIGIN_RADIUS, dot, norm, radius


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


@pytest.mark.parametrize("r2", [ORIGIN_RADIUS**2, 1.0, 2.0, 1e300])
def test_radius_is_the_float_square_root_off_the_origin(r2):
    # the square of ORIGIN_RADIUS has the root ORIGIN_RADIUS itself, which is kept
    r = radius(r2)
    assert type(r) is float and r == math.sqrt(r2)


@pytest.mark.parametrize("r2", [0.0, 1e-30, math.nextafter(ORIGIN_RADIUS**2, 0.0)])
def test_radius_rejects_positions_at_the_origin(r2):
    with pytest.raises(DomainError, match="position radius .* below 1e-12"):
        radius(r2)


@pytest.mark.parametrize("model", contract_models("kepler", "perturbed_kepler"))
def test_accel_is_the_velocity_part_of_the_field_at_zero_velocity(model):
    # position_acceleration's contract, bit for bit, at 1,000 positions
    for s in sampled(model, 1000, 26).tolist():
        q = tuple(s[:3])
        a = model.accel(q)
        assert len(a) == 3 and {type(c) for c in a} == {float}
        assert np.array(a).tobytes() == np.array(model.field((*q, 0.0, 0.0, 0.0))[3:]).tobytes()
