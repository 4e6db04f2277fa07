"""Polyhedral cones {d : E d = 0, F d <= 0}, each one `Cone` (with the basis
`hull` of its affine hull ker E built once, and `face(S)` the kernel
ker [E; F_S] of a face): membership, rays, the exact minimum of a quadratic
over the cone, and sampling.  Rays and samples are unit directions, kept
once each by `_push` (equal to DEDUP_DIGITS decimals is one direction).

Every face of the cone lies in some ker [E; F_S], S a subset of F's rows.
`min_quadratic_on_cone` walks those faces depth first and prunes by
sub-faces, so it decides cone-curvature questions exactly where a sampler
could miss a thin ray, and usually stops at the first face; `cone_rays`
enumerates every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .linalg import nullspace_basis
from .problem import memoised

MEMBERSHIP_TOL = 1e-9  # |E d|, max(F d) allowed, times max(1, |d|): face-eigenvector rounding
ZERO_NORM = 1e-12  # a vector shorter than this has no direction
RETRY_MIN_NORM = 1e-9  # a shorter projected retry in sample_cone is rounding, not a direction
DEDUP_DIGITS = 9  # unit directions equal to this many decimals are one direction
# cone_rays enumerates all 2^nF subsets of F's rows, so it gives up above
# this many rows
RAY_SUBSET_CAP = 14
# min_quadratic_on_cone gives up (returns None) rather than visit more faces
# than this
FACE_BUDGET = 2**RAY_SUBSET_CAP


def budget_detail() -> str:
    """The detail of a check whose face walk ran out of FACE_BUDGET."""
    return f"face walk exceeded its budget of {FACE_BUDGET} faces: face test skipped"


@dataclass
class Cone:
    """The cone {d : E d = 0, F d <= 0}, E and F 2-D with one column per
    coordinate; ker E spans its affine hull."""

    E: np.ndarray
    F: np.ndarray

    @cached_property
    def hull(self) -> np.ndarray:
        """Orthonormal basis (columns) of ker E, built on first use."""
        return nullspace_basis(self.E)

    def face(self, S: tuple[int, ...]) -> np.ndarray:
        """Orthonormal basis (columns) of ker [E; F_S], the face where the
        rows S of F are active: the cached hull when S is empty."""
        if not S:
            return self.hull
        return nullspace_basis(np.vstack([self.E, self.F[list(S)]]))

    def contains(self, d: np.ndarray) -> bool:
        d = np.asarray(d, dtype=float)
        tol = MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(d), initial=0.0)))
        if self.E.shape[0] and float(np.max(np.abs(self.E @ d))) > tol:
            return False
        if self.F.shape[0] and float(np.max(self.F @ d)) > tol:
            return False
        return True


def _push(found: dict[tuple, np.ndarray], cone: Cone, d: np.ndarray) -> bool:
    """Add d / |d| to found, keyed by its rounding to DEDUP_DIGITS, when d
    has a direction, lies in the cone and is not there yet; True when added."""
    nrm = float(np.linalg.norm(d))
    if nrm < ZERO_NORM:
        return False
    d = d / nrm
    if not cone.contains(d):
        return False
    key = tuple(np.round(d, DEDUP_DIGITS))
    if key in found:
        return False
    found[key] = d
    return True


def cone_rays(cone: Cone) -> list[np.ndarray]:
    """Extreme-ray candidates via active-subset enumeration (small dims only):
    both unit directions of every one-dimensional face kernel in the cone."""
    found: dict[tuple, np.ndarray] = {}
    nF = cone.F.shape[0]
    if nF > RAY_SUBSET_CAP:
        return []
    for size in range(nF + 1):  # the face kernels, smallest S first
        for S in combinations(range(nF), size):
            basis = cone.face(S)
            if basis.shape[1] == 1:
                _push(found, cone, basis[:, 0])
                _push(found, cone, -basis[:, 0])
    return list(found.values())


def _face_minimum(M: np.ndarray, cone: Cone,
                  S: tuple[int, ...]) -> tuple[float, np.ndarray] | None:
    """(lambda_min, read-only unit bottom eigenvector) of d^T M d on the face
    ker [E; F_S], None when the kernel is {0}.  The root face (S empty) is
    the cone's hull; inside `bundle_memo` it is computed once per distinct
    (M, E), keyed on their shapes and bytes, so the necessary and sufficient
    checks share it; deeper faces are not kept, so a walk adds one memo
    entry however many faces it visits."""
    if S:
        return _bottom_eigenpair(M, cone.face(S))
    key = ("face", M.shape, M.tobytes(), cone.E.shape, cone.E.tobytes())
    return memoised(_face_minimum, key, lambda: _bottom_eigenpair(M, cone.hull))


def _bottom_eigenpair(M: np.ndarray, Z: np.ndarray) -> tuple[float, np.ndarray] | None:
    if Z.shape[1] == 0:
        return None
    reduced = Z.T @ M @ Z
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    v = Z @ vectors[:, 0]
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return float(values[0]), v


def min_quadratic_on_cone(M: np.ndarray, cone: Cone) -> tuple[float, np.ndarray | None] | None:
    """Exact minimum of d^T M d over the unit directions of the cone, with a
    unit witness attaining it: (+inf, None) on the trivial cone, None when
    the walk would visit more than FACE_BUDGET faces.

    A minimiser d lies in the relative interior of the face spanned by
    Z = ker [E; F_S], S the rows active at d, and is there a local, hence
    global, minimum of the Rayleigh quotient of Z^T M Z.  So the least
    bottom eigenvalue over the faces whose bottom eigenvector (either sign)
    lies in the cone is the minimum; when an eigenspace is wider than one
    direction, its extreme rays in the cone are bottom eigenvectors of
    smaller faces, and the face of all rows holds the lineality space.

    The walk is a depth-first branch and bound over the subsets S, each
    reached from the subset without its largest index.  A face's sub-faces
    (the supersets of S) span fewer directions, so their bottom eigenvalues
    are no smaller (Cauchy interlacing); the walk skips them when the kernel
    is {0}, when lambda_min is at or above the incumbent, or when the bottom
    eigenvector lies in the cone and becomes the incumbent."""
    M = np.asarray(M, dtype=float)
    best, witness = np.inf, None
    stack, visited = [()], 0
    while stack:
        if visited == FACE_BUDGET:
            return None
        visited += 1
        S = stack.pop()
        face = _face_minimum(M, cone, S)
        if face is None or face[0] >= best:
            continue
        value, v = face
        for d in (v, 0.0 - v):  # 0.0 - v: no negative zeros in witnesses
            if cone.contains(d):
                best, witness = value, d
                break
        else:  # children add one index above max S, the smallest popped first
            stack.extend((*S, i) for i in range(cone.F.shape[0] - 1, S[-1] if S else -1, -1))
    return best, witness


def sample_cone(cone: Cone, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic unit directions in the cone: rays, sums of ray pairs, then
    seeded rejection samples drawn one at a time from ker E (a draw outside
    the cone is retried once with its most violated face projected out).
    The condition checks use min_quadratic_on_cone; this sampler serves tests
    and tools that want spread-out cone directions."""
    Z, F = cone.hull, cone.F
    k = Z.shape[1]
    if k == 0:
        return []

    found: dict[tuple, np.ndarray] = {}
    rays = cone_rays(cone)
    for r in rays:
        _push(found, cone, r)
    if k == 1:  # only two unit directions exist in a 1-D nullspace
        _push(found, cone, Z[:, 0])
        _push(found, cone, -Z[:, 0])
        return list(found.values())
    # boundary emphasis: normalized sums of ray pairs
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            _push(found, cone, rays[i] + rays[j])

    rng = np.random.default_rng(seed)
    attempts = 0
    while len(found) < count and attempts < 50 * count:
        attempts += 1
        zeta = rng.standard_normal(k)
        nz = float(np.linalg.norm(zeta))
        if nz < ZERO_NORM:
            continue
        zeta /= nz
        d = Z @ zeta
        if _push(found, cone, d) or _push(found, cone, -d):
            continue
        if F.shape[0]:
            # project out the most violated face within ker E, then retry
            viol = F @ d
            i = int(np.argmax(viol))
            face = F[i] @ Z
            nf = float(np.linalg.norm(face))
            if nf > ZERO_NORM:
                zeta2 = zeta - (face @ zeta / nf**2) * face
                if float(np.linalg.norm(zeta2)) > RETRY_MIN_NORM:
                    d2 = Z @ zeta2
                    _push(found, cone, d2) or _push(found, cone, -d2)
    return list(found.values())[: max(count, len(rays))]
