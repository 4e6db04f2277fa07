"""Polyhedral cones {d : E d = 0, F d <= 0}: membership, faces, rays, the
exact minimum of a quadratic over the cone, and sampling.

Every face of the cone lies in some ker [E; F_S], S a subset of F's rows, so
the face loop (`_face_bases`) decides cone-curvature questions exactly where
a sampler could miss a thin ray.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import LpProblem, nullspace_basis, solve_lp

CONE_TOL = 1e-10
# the face loop enumerates all 2^nF subsets of F's rows, so it gives up above
# this many rows
RAY_SUBSET_CAP = 14


def _as_rows(A: np.ndarray | None, dim: int) -> np.ndarray:
    if A is None:
        return np.zeros((0, dim))
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.zeros((0, dim))
    return np.atleast_2d(A)


def cone_contains(E: np.ndarray, F: np.ndarray, d: np.ndarray, tol: float = 1e-9) -> bool:
    d = np.asarray(d, dtype=float)
    scale = max(1.0, float(np.max(np.abs(d), initial=0.0)))
    if E.shape[0] and float(np.max(np.abs(E @ d))) > tol * scale:
        return False
    if F.shape[0] and float(np.max(F @ d)) > tol * scale:
        return False
    return True


def cone_is_trivial(E: np.ndarray, F: np.ndarray, dim: int, tol: float = 1e-9) -> bool:
    """True when the cone is {0}: every coordinate extreme over cone-box is 0."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    for j in range(dim):
        for sgn in (1.0, -1.0):
            c = np.zeros(dim)
            c[j] = sgn
            sol = solve_lp(
                LpProblem(
                    c,
                    A_eq=E if E.shape[0] else None,
                    b_eq=np.zeros(E.shape[0]) if E.shape[0] else None,
                    A_in=F if F.shape[0] else None,
                    b_in=np.zeros(F.shape[0]) if F.shape[0] else None,
                    lower=-np.ones(dim),
                    upper=np.ones(dim),
                )
            )
            if sol.status != "optimal" or sol.value > tol:
                return False
    return True


def _face_bases(E: np.ndarray, F: np.ndarray):
    """Orthonormal bases of ker [E; F_S] for every subset S of F's rows,
    smallest subsets first (the caller checks RAY_SUBSET_CAP)."""
    nF = F.shape[0]
    for size in range(0, nF + 1):
        for subset in combinations(range(nF), size):
            yield nullspace_basis(np.vstack([E, F[list(subset)]]), CONE_TOL)


def cone_rays(E: np.ndarray, F: np.ndarray, dim: int, tol: float = 1e-9) -> list[np.ndarray]:
    """Extreme-ray candidates via active-subset enumeration (small dims only)."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    rays: list[np.ndarray] = []
    seen: set[tuple] = set()

    def push(r: np.ndarray):
        nrm = float(np.linalg.norm(r))
        if nrm < 1e-12:
            return
        r = r / nrm
        if not cone_contains(E, F, r, tol):
            return
        key = tuple(np.round(r, 9))
        if key not in seen:
            seen.add(key)
            rays.append(r)

    if F.shape[0] > RAY_SUBSET_CAP:
        return rays
    for basis in _face_bases(E, F):
        if basis.shape[1] == 1:
            push(basis[:, 0])
            push(-basis[:, 0])
    return rays


def min_quadratic_on_cone(M: np.ndarray, E: np.ndarray, F: np.ndarray, dim: int,
                          tol: float = 1e-9) -> tuple[float, np.ndarray | None] | None:
    """Exact minimum of d^T M d over the unit directions of the cone, with a
    unit witness attaining it: (+inf, None) on the trivial cone, None when F
    has more than RAY_SUBSET_CAP rows.

    A minimiser d lies in the relative interior of the face spanned by
    Z = ker [E; F_S], S the rows active at d, and is there a local, hence
    global, minimum of the Rayleigh quotient of Z^T M Z.  So the least
    bottom eigenvalue over the faces whose bottom eigenvector (either sign)
    lies in the cone is the minimum; when an eigenspace is wider than one
    direction, its extreme rays in the cone are bottom eigenvectors of
    smaller faces, and the face of all rows holds the lineality space."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    if F.shape[0] > RAY_SUBSET_CAP:
        return None
    M = np.asarray(M, dtype=float)
    best, witness = np.inf, None
    for Z in _face_bases(E, F):
        if Z.shape[1] == 0:
            continue
        reduced = Z.T @ M @ Z
        values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
        if values[0] >= best:
            continue
        v = Z @ vectors[:, 0]
        v = v / np.linalg.norm(v)
        for d in (v, 0.0 - v):  # 0.0 - v: no negative zeros in witnesses
            if cone_contains(E, F, d, tol):
                best, witness = float(values[0]), d
                break
    return best, witness


def sample_cone(E: np.ndarray, F: np.ndarray, dim: int, count: int, seed: int,
                tol: float = 1e-9) -> list[np.ndarray]:
    """Deterministic unit directions in the cone: rays, sums of ray pairs, then
    seeded rejection samples drawn one at a time from ker E (a draw outside
    the cone is retried once with its most violated face projected out).
    The condition checks use min_quadratic_on_cone; this sampler serves tests
    and tools that want spread-out cone directions."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    Z = nullspace_basis(E, CONE_TOL)
    k = Z.shape[1]
    out: list[np.ndarray] = []
    seen: set[tuple] = set()

    def push(d: np.ndarray) -> bool:
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
        if nz < 1e-12:
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
            if nf > 1e-12:
                zeta2 = zeta - (face @ zeta / nf**2) * face
                if float(np.linalg.norm(zeta2)) > 1e-9:
                    d2 = Z @ zeta2
                    push(d2) or push(-d2)
    return out[: max(count, len(rays))]
