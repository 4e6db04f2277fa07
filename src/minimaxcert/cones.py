"""Polyhedral cones {d : E d = 0, F d <= 0} (`Cone`, with the basis `hull`
of its affine hull ker E built once): membership, faces, rays, the exact
minimum of a quadratic over the cone, and sampling.

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
# cone_rays enumerates all 2^nF subsets of F's rows, so it gives up above
# this many rows
RAY_SUBSET_CAP = 14
# min_quadratic_on_cone gives up (returns None) rather than visit more faces
# than this
FACE_BUDGET = 2**RAY_SUBSET_CAP


def budget_detail() -> str:
    """The detail of a check whose face walk ran out of FACE_BUDGET."""
    return f"face walk exceeded its budget of {FACE_BUDGET} faces: face test skipped"


def _as_rows(A: np.ndarray | None, dim: int) -> np.ndarray:
    if A is None:
        return np.zeros((0, dim))
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.zeros((0, dim))
    return np.atleast_2d(A)


def cone_contains(E: np.ndarray, F: np.ndarray, d: np.ndarray) -> bool:
    d = np.asarray(d, dtype=float)
    tol = MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(d), initial=0.0)))
    if E.shape[0] and float(np.max(np.abs(E @ d))) > tol:
        return False
    if F.shape[0] and float(np.max(F @ d)) > tol:
        return False
    return True


@dataclass
class Cone:
    """The cone {d : E d = 0, F d <= 0}, E and F with one column per
    coordinate; ker E spans its affine hull."""

    E: np.ndarray
    F: np.ndarray

    @cached_property
    def hull(self) -> np.ndarray:
        """Orthonormal basis (columns) of ker E, built on first use."""
        return nullspace_basis(self.E)

    def contains(self, d: np.ndarray) -> bool:
        return cone_contains(self.E, self.F, d)


def cone_rays(E: np.ndarray, F: np.ndarray, dim: int) -> list[np.ndarray]:
    """Extreme-ray candidates via active-subset enumeration (small dims only)."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    rays: list[np.ndarray] = []
    seen: set[tuple] = set()

    def push(r: np.ndarray):
        nrm = float(np.linalg.norm(r))
        if nrm < ZERO_NORM:
            return
        r = r / nrm
        if not cone_contains(E, F, r):
            return
        key = tuple(np.round(r, 9))
        if key not in seen:
            seen.add(key)
            rays.append(r)

    if F.shape[0] > RAY_SUBSET_CAP:
        return rays
    for size in range(F.shape[0] + 1):  # the kernels ker [E; F_S], smallest S first
        for subset in combinations(range(F.shape[0]), size):
            basis = nullspace_basis(np.vstack([E, F[list(subset)]]))
            if basis.shape[1] == 1:
                push(basis[:, 0])
                push(-basis[:, 0])
    return rays


def _face_minimum(M: np.ndarray, cone: Cone,
                  S: tuple[int, ...]) -> tuple[float, np.ndarray] | None:
    """(lambda_min, read-only unit bottom eigenvector) of d^T M d on the face
    ker [E; F_S], None when the kernel is {0}.  The root face (S empty) is
    the cone's hull; inside `bundle_memo` it is computed once per distinct
    (M, E), keyed on their shapes and bytes, so the necessary and sufficient
    checks share it; deeper faces are not kept, so a walk adds one memo
    entry however many faces it visits."""
    if S:
        return _bottom_eigenpair(M, nullspace_basis(np.vstack([cone.E, cone.F[list(S)]])))
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


def sample_cone(E: np.ndarray, F: np.ndarray, dim: int, count: int,
                seed: int) -> list[np.ndarray]:
    """Deterministic unit directions in the cone: rays, sums of ray pairs, then
    seeded rejection samples drawn one at a time from ker E (a draw outside
    the cone is retried once with its most violated face projected out).
    The condition checks use min_quadratic_on_cone; this sampler serves tests
    and tools that want spread-out cone directions."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    Z = nullspace_basis(E)
    k = Z.shape[1]
    out: list[np.ndarray] = []
    seen: set[tuple] = set()

    def push(d: np.ndarray) -> bool:
        nrm = float(np.linalg.norm(d))
        if nrm < ZERO_NORM:
            return False
        d = d / nrm
        if not cone_contains(E, F, d):
            return False
        key = tuple(np.round(d, 9))
        if key in seen:
            return False
        seen.add(key)
        out.append(d)
        return True

    if k == 0:
        return out

    rays = cone_rays(E, F, dim)
    for r in rays:
        push(r)
    if k == 1:  # only two unit directions exist in a 1-D nullspace
        push(Z[:, 0])
        push(-Z[:, 0])
        return out
    # boundary emphasis: normalized sums of ray pairs
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            push(rays[i] + rays[j])

    rng = np.random.default_rng(seed)
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        zeta = rng.standard_normal(k)
        nz = float(np.linalg.norm(zeta))
        if nz < ZERO_NORM:
            continue
        zeta /= nz
        d = Z @ zeta
        if push(d) or push(-d):
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
                    push(d2) or push(-d2)
    return out[: max(count, len(rays))]
