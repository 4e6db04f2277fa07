import numpy as np
from hypothesis import given, settings, strategies as st

from minimaxcert.cones import (
    CONE_TOL,
    _as_rows,
    _BlockScreen,
    cone_contains,
    cone_rays,
    sample_cone,
)
from minimaxcert.linalg import nullspace_basis


def _reference_sample_cone(E, F, dim, count, seed, tol=1e-9):
    """The one-draw-at-a-time rejection sampler that sample_cone must repeat
    bit for bit: every draw pays for its own norm, divide and cone_contains."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    Z = nullspace_basis(E, CONE_TOL)
    k = Z.shape[1]
    out = []
    seen = set()

    def push(d):
        nrm = float(np.linalg.norm(d))
        if nrm < 1e-12:
            return False
        d = d / nrm
        if not cone_contains(E, F, d, tol):
            return False
        key = tuple(np.round(d, 9))
        if key in seen:
            return False
        seen.add(key)
        out.append(d)
        return True

    if k == 0:
        return out

    rays = cone_rays(E, F, dim, tol)
    for r in rays:
        push(r)
    if k == 1:
        push(Z[:, 0])
        push(-Z[:, 0])
        return out
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            push(rays[i] + rays[j])

    rng = np.random.default_rng(seed)
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        zeta = rng.standard_normal(k)
        nz = float(np.linalg.norm(zeta))
        if nz < 1e-12:
            continue
        zeta /= nz
        d = Z @ zeta
        if push(d) or push(-d):
            continue
        if F.shape[0]:
            viol = F @ d
            i = int(np.argmax(viol))
            face = F[i] @ Z
            nf = float(np.linalg.norm(face))
            if nf > 1e-12:
                zeta2 = zeta - (face @ zeta / nf**2) * face
                if float(np.linalg.norm(zeta2)) > 1e-9:
                    d2 = Z @ zeta2
                    push(d2) or push(-d2)
    return out[: max(count, len(rays))]


@st.composite
def _cones(draw):
    """(E, F, dim, count, seed): equality rows, k = dim - rank E down to 0 and
    1, duplicated and integer-valued faces (argmax ties), faces in the row
    space of E (violations at rounding level), rows scaled 1e-6 to 1e6, and
    F empty."""
    dim = draw(st.integers(1, 6))
    k = draw(st.sampled_from([0, 1, None]))
    n_eq = dim - k if k is not None else draw(st.integers(0, dim - 1))
    n_in = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.standard_normal((n_eq, dim))
    F = rng.standard_normal((n_in, dim))
    if draw(st.booleans()):
        F = np.round(2.0 * F)
    if n_in > 1 and draw(st.booleans()):
        F[-1] = F[0]
    if draw(st.booleans()):
        E = E * 10.0 ** rng.uniform(-6, 6, (n_eq, 1))
        F = F * 10.0 ** rng.uniform(-6, 6, (n_in, 1))
    if n_eq and draw(st.booleans()):
        F = np.vstack([F, E[:1] * 10.0 ** rng.uniform(-6, 6)])
    count = draw(st.integers(1, 256))
    seed = draw(st.integers(0, 4))
    return E, F, dim, count, seed


@settings(max_examples=300)
@given(_cones())
def test_sample_cone_matches_reference_bit_for_bit(cone):
    E, F, dim, count, seed = cone
    got = sample_cone(E, F, dim, count, seed)
    want = _reference_sample_cone(E, F, dim, count, seed)
    assert len(got) == len(want)
    assert [d.tobytes() for d in got] == [d.tobytes() for d in want]


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


def test_screen_leaves_argmax_ties_to_the_replay():
    # F = I: rows 0 and 1 tie for the largest violation of zeta = (1, 1, -1/2).
    # d and -d are outside, and projecting out either tied face gives a retry
    # that is outside too; the replay, not the screen, must settle the face.
    E, F = np.zeros((0, 3)), np.eye(3)
    screen = _BlockScreen(E, F, nullspace_basis(E, CONE_TOL), 1e-9)
    block = np.array([[1.0, 1.0, -0.5], [1.0, 0.25, -0.5]])
    live = {row[0]: row for row in screen.live(block)}
    assert 0 in live and live[0][3] == -1  # tied: replayed, face unsettled
    assert 1 not in live  # clear lead on face 0, every retry outside: dead
