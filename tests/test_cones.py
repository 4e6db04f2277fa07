import numpy as np
from hypothesis import given, settings, strategies as st

from minimaxcert.cones import (
    RAY_SUBSET_CAP,
    cone_contains,
    cone_is_trivial,
    min_quadratic_on_cone,
    sample_cone,
)


def test_sample_cone_directions_are_unit_distinct_and_in_the_cone():
    rng = np.random.default_rng(3)
    cones = [
        (np.zeros((0, 4)), np.eye(4), 4),  # the |beta| = 4 orthant
        (np.zeros((0, 20)), rng.standard_normal((1, 20)), 20),  # one face
        (rng.standard_normal((2, 5)), rng.standard_normal((3, 5)), 5),
    ]
    for E, F, dim in cones:
        dirs = sample_cone(E, F, dim, 256, 7)
        assert dirs
        keys = set()
        for d in dirs:
            assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
            assert cone_contains(E, F, d)
            keys.add(tuple(np.round(d, 9)))
        assert len(keys) == len(dirs)
        again = sample_cone(E, F, dim, 256, 7)
        assert [d.tobytes() for d in again] == [d.tobytes() for d in dirs]


@st.composite
def _quadratic_cones(draw):
    """(M, E, F, dim): dim <= 4, up to 4 F rows (none included), equality
    rows down to a trivial nullspace, faces from the equality rows' span,
    and M = c I (every unit direction a minimiser) as well as symmetric."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.standard_normal((draw(st.integers(0, dim)), dim))
    F = rng.standard_normal((draw(st.integers(0, 4)), dim))
    if E.shape[0] and F.shape[0] and draw(st.booleans()):
        F[0] = -E[0]
    if draw(st.booleans()):
        M = rng.uniform(-2.0, 2.0) * np.eye(dim)
    else:
        B = rng.standard_normal((dim, dim))
        M = B + B.T
    return M, E, F, dim


@settings(max_examples=300)
@given(_quadratic_cones())
def test_min_quadratic_on_cone_is_the_exact_minimum(case):
    M, E, F, dim = case
    value, witness = min_quadratic_on_cone(M, E, F, dim)
    scale = max(1.0, float(np.max(np.abs(M))))
    if witness is None:
        assert value == np.inf
        assert cone_is_trivial(E, F, dim)
        return
    assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
    assert cone_contains(E, F, witness)
    assert abs(float(witness @ M @ witness) - value) <= 1e-12 * scale
    for d in sample_cone(E, F, dim, 256, 0):
        assert value <= float(d @ M @ d) + 1e-9 * scale


def test_min_quadratic_on_cone_trivial_and_capped():
    # x >= 0 and x <= 0 in the plane, x2 = 0: only the origin is left
    E, F = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert min_quadratic_on_cone(-np.eye(2), E, F, 2) == (np.inf, None)
    many = np.vstack([np.eye(3)] * 5)
    assert many.shape[0] > RAY_SUBSET_CAP
    assert min_quadratic_on_cone(np.eye(3), np.zeros((0, 3)), many, 3) is None


def test_min_quadratic_on_cone_finds_a_thin_ray():
    # A*(x2 - 0.6 x1)^2 - 1e-3 |x|^2 on the quadrant: negative only on a
    # cone of angle ~1e-3 around the ray (1, 0.6)
    ray = np.array([1.0, 0.6]) / np.linalg.norm([1.0, 0.6])
    a = np.array([-0.6, 1.0])
    M = 1e6 * np.outer(a, a) - 1e-3 * np.eye(2)
    value, witness = min_quadratic_on_cone(M, np.zeros((0, 2)), -np.eye(2), 2)
    assert abs(value + 1e-3) <= 1e-9
    assert float(witness @ ray) >= 1.0 - 1e-12
