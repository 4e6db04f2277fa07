import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from minimaxcert.cones import (
    RAY_SUBSET_CAP,
    Cone,
    cone_rays,
    min_quadratic_on_cone,
    sample_cone,
)
from minimaxcert.problem import bundle_memo

from conftest import brute_force_min_quadratic_on_cone, cone_is_trivial


def test_sample_cone_directions_are_unit_distinct_and_in_the_cone():
    rng = np.random.default_rng(3)
    cones = [
        Cone(np.zeros((0, 4)), np.eye(4)),  # the |beta| = 4 orthant
        Cone(np.zeros((0, 20)), rng.standard_normal((1, 20))),  # one face
        Cone(rng.standard_normal((2, 5)), rng.standard_normal((3, 5))),
    ]
    for cone in cones:
        dirs = sample_cone(cone, 256, 7)
        assert dirs
        keys = set()
        for d in dirs:
            assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
            assert cone.contains(d)
            keys.add(tuple(np.round(d, 9)))
        assert len(keys) == len(dirs)
        again = sample_cone(cone, 256, 7)
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
    cone = Cone(E, F)
    value, witness = min_quadratic_on_cone(M, cone)
    scale = max(1.0, float(np.max(np.abs(M))))
    if witness is None:
        assert value == np.inf
        assert cone_is_trivial(E, F, dim)
        return
    assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
    assert cone.contains(witness)
    assert abs(float(witness @ M @ witness) - value) <= 1e-12 * scale
    for d in sample_cone(cone, 256, 0):
        assert value <= float(d @ M @ d) + 1e-9 * scale


@st.composite
def _awkward_cones(draw):
    """(M, E, F, dim): dim <= 5, random equality rows, and either up to 4
    random F rows or those of a trivial cone (d >= 0, sum d <= 0), plus any
    of a zero row, a duplicated and an opposing row (which leave a lineality
    space) and a row of norm 1e-12 (the gradient row at a stationary point),
    in shuffled order; M symmetric, c I, or of low rank."""
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.standard_normal((draw(st.integers(0, dim)), dim))
    if draw(st.booleans()):
        rows = list(rng.standard_normal((draw(st.integers(0, 4)), dim)))
    else:
        rows = [*(-np.eye(dim)), np.ones(dim)]
    if draw(st.booleans()):
        rows.append(np.zeros(dim))
    if rows and draw(st.booleans()):
        rows.append(rows[0].copy())
    if rows and draw(st.booleans()):
        rows.append(-rows[0])
    if draw(st.booleans()):
        tiny = rng.standard_normal(dim)
        rows.append(1e-12 * tiny / np.linalg.norm(tiny))
    F = np.array(rows).reshape(-1, dim)[rng.permutation(len(rows))]
    kind = draw(st.sampled_from(["symmetric", "scalar", "low rank"]))
    if kind == "scalar":
        M = rng.uniform(-2.0, 2.0) * np.eye(dim)
    elif kind == "low rank":
        B = rng.standard_normal((dim, 1))
        M = 10.0 ** rng.uniform(-3.0, 6.0) * (B @ B.T) - rng.uniform(0.0, 1e-2) * np.eye(dim)
    else:
        B = rng.standard_normal((dim, dim))
        M = B + B.T
    return M, E, F, dim


@settings(max_examples=300)
@given(_awkward_cones())
def test_branch_and_bound_matches_the_exhaustive_face_loop(case):
    M, E, F, dim = case
    ref_value, ref_witness = brute_force_min_quadratic_on_cone(M, E, F)
    value, witness = min_quadratic_on_cone(M, Cone(E, F))
    with bundle_memo():  # faces memoised, the second walk from the memo alone
        for _ in range(2):
            again = min_quadratic_on_cone(M, Cone(E, F))
            assert again[0] == value
            assert (again[1] is None) == (witness is None)
            assert witness is None or again[1].tobytes() == witness.tobytes()
    scale = 1.0 + float(np.max(np.abs(M)))
    if ref_witness is None:
        assert (value, witness) == (np.inf, None)
        return
    assert abs(value - ref_value) <= 1e-12 * scale
    assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
    assert Cone(E, F).contains(witness)
    assert abs(float(witness @ M @ witness) - value) <= 1e-12 * scale


def test_min_quadratic_on_cone_trivial_and_capped(monkeypatch):
    # x >= 0 and x <= 0 in the plane, x2 = 0: only the origin is left
    E, F = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert min_quadratic_on_cone(-np.eye(2), Cone(E, F)) == (np.inf, None)
    # more rows than cone_rays enumerates: decided at the first face
    many = np.vstack([np.eye(3)] * 5)
    assert many.shape[0] > RAY_SUBSET_CAP
    value, witness = min_quadratic_on_cone(np.eye(3), Cone(np.zeros((0, 3)), many))
    assert value == 1.0 and Cone(np.zeros((0, 3)), many).contains(witness)
    # on the quadrant the bottom eigenvector (1, -1) of [[0, 1], [1, 0]] is
    # outside the cone, so the walk visits the faces {}, {x1 = 0} (value 0,
    # witness e2, which prunes {x1 = x2 = 0}) and {x2 = 0}
    M, quadrant = np.array([[0.0, 1.0], [1.0, 0.0]]), -np.eye(2)
    monkeypatch.setattr("minimaxcert.cones.FACE_BUDGET", 3)
    value, witness = min_quadratic_on_cone(M, Cone(np.zeros((0, 2)), quadrant))
    assert value == 0.0 and witness.tolist() == [0.0, 1.0]
    for budget in (2, 0):
        monkeypatch.setattr("minimaxcert.cones.FACE_BUDGET", budget)
        assert min_quadratic_on_cone(M, Cone(np.zeros((0, 2)), quadrant)) is None
    assert min_quadratic_on_cone(-np.eye(2), Cone(E, F)) is None


def test_face_walk_memoises_only_its_root_face():
    # the quadrant walk visits three faces, but only the root face stays in
    # the memo, so a long walk does not grow the memo of a certify call
    from minimaxcert.problem import _bundle_memo

    M, quadrant = np.array([[0.0, 1.0], [1.0, 0.0]]), -np.eye(2)
    with bundle_memo():
        first = min_quadratic_on_cone(M, Cone(np.zeros((0, 2)), quadrant))
        assert len(_bundle_memo.get()) == 1
        second = min_quadratic_on_cone(M, Cone(np.zeros((0, 2)), quadrant))
        assert len(_bundle_memo.get()) == 1
    assert first[0] == second[0] == 0.0 and first[1].tobytes() == second[1].tobytes()


def test_min_quadratic_on_cone_finds_a_thin_ray():
    # A*(x2 - 0.6 x1)^2 - 1e-3 |x|^2 on the quadrant: negative only on a
    # cone of angle ~1e-3 around the ray (1, 0.6)
    ray = np.array([1.0, 0.6]) / np.linalg.norm([1.0, 0.6])
    a = np.array([-0.6, 1.0])
    M = 1e6 * np.outer(a, a) - 1e-3 * np.eye(2)
    value, witness = min_quadratic_on_cone(M, Cone(np.zeros((0, 2)), -np.eye(2)))
    assert abs(value + 1e-3) <= 1e-9
    assert float(witness @ ray) >= 1.0 - 1e-12


def _digest_cones():
    """(cone, count, seed) for 50 seeded cones in dims 1-5: empty E, a
    one-dimensional hull and a trivial one, random E; random F rows plus a
    zero row, a duplicated and an opposing row, or more rows than
    RAY_SUBSET_CAP (a repeated orthant)."""
    cases = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim, kind = 1 + (seed // 10) % 5, seed % 10
        if kind in (0, 5):
            E = np.zeros((0, dim))
        elif kind == 3:
            E = rng.standard_normal((dim - 1, dim))
        elif kind == 7:
            E = rng.standard_normal((dim, dim))
        else:
            E = rng.standard_normal((int(rng.integers(0, dim)), dim))
        rows = list(rng.standard_normal((int(rng.integers(0, 4)), dim)))
        if kind in (1, 5, 6):
            rows.append(np.zeros(dim))
        if rows and kind in (2, 5, 8):
            rows.append(rows[0].copy())
        if rows and kind in (4, 5, 9):
            rows.append(-rows[0])
        if kind == 6:
            rows = [*rows, *np.vstack([-np.eye(dim)] * 15)]
        cases.append((Cone(E, np.array(rows).reshape(-1, dim)), 16 + seed, seed))
    return cases


def test_rays_and_samples_are_bit_stable():
    # the bytes of every ray and sample, in order, pinned to the values the
    # (E, F, dim) form of cone_rays and sample_cone gave; the digest moves
    # when directions are de-duplicated without rounding
    digest = hashlib.sha256()
    for cone, count, seed in _digest_cones():
        assert cone.face(()) is cone.hull
        for group in (cone_rays(cone), sample_cone(cone, count, seed)):
            digest.update(b"|".join(d.tobytes() for d in group) + b";")
    assert digest.hexdigest() == (
        "fbdc60b2aaf37bb8c112a586dac694336e7a83ee370a8642c04247fe8661317a")
