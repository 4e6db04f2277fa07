"""Polyhedral cones {d : E d = 0, F d <= 0}: membership, rays, sampling.

Shared by the lower-level SOSC cone test and the upper-level second-order
conditions.  Sampling is deterministic given the seed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import LpProblem, nullspace_basis, solve_lp

CONE_TOL = 1e-10


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


def cone_is_subspace(E: np.ndarray, F: np.ndarray, dim: int, tol: float = 1e-9) -> bool:
    """True when every F row vanishes on the cone (then cone = ker [E; F])."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    for i in range(F.shape[0]):
        sol = solve_lp(
            LpProblem(
                -F[i],  # maximize -F_i d == minimize F_i d
                A_eq=E if E.shape[0] else None,
                b_eq=np.zeros(E.shape[0]) if E.shape[0] else None,
                A_in=F,
                b_in=np.zeros(F.shape[0]),
                lower=-np.ones(dim),
                upper=np.ones(dim),
            )
        )
        if sol.status != "optimal" or sol.value > tol:
            return False
    return True


def cone_subspace_basis(E: np.ndarray, F: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of ker [E; F] (valid as the cone when it is a subspace)."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    return nullspace_basis(np.vstack([E, F]), CONE_TOL)


def cone_rays(E: np.ndarray, F: np.ndarray, dim: int, tol: float = 1e-9,
              subset_cap: int = 14) -> list[np.ndarray]:
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

    nF = F.shape[0]
    if nF > subset_cap:
        return rays
    for size in range(0, nF + 1):
        for subset in combinations(range(nF), size):
            basis = nullspace_basis(np.vstack([E, F[list(subset)]]), CONE_TOL)
            if basis.shape[1] == 1:
                push(basis[:, 0])
                push(-basis[:, 0])
    return rays


def sample_cone(E: np.ndarray, F: np.ndarray, dim: int, count: int, seed: int,
                tol: float = 1e-9) -> list[np.ndarray]:
    """Deterministic unit directions in the cone: rays, then filtered samples."""
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
