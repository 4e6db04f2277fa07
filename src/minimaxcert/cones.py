"""Polyhedral cones {d : E d = 0, F d <= 0}: membership, rays, sampling.

Shared by the lower-level SOSC cone test and the upper-level second-order
conditions.  Sampling is deterministic given the seed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import LpProblem, nullspace_basis, solve_lp

CONE_TOL = 1e-10
# cone_rays enumerates all 2^nF active subsets, so it gives up above this many faces
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

    nF = F.shape[0]
    if nF > RAY_SUBSET_CAP:
        return rays
    for size in range(0, nF + 1):
        for subset in combinations(range(nF), size):
            basis = nullspace_basis(np.vstack([E, F[list(subset)]]), CONE_TOL)
            if basis.shape[1] == 1:
                push(basis[:, 0])
                push(-basis[:, 0])
    return rays


# sample_cone's block screen settles a draw only when its violation clears
# `tol` by more than SCREEN_ULPS * (dim + k + 1)^2 ulps of the row norm (scaled
# up by 1 / ||zeta2|| for the retry).  The screen's batched products and the
# replay's per-vector ones each stay within O(dim + k) ulps of the exact value,
# so the allowance covers their difference with room to spare.
SCREEN_ULPS = 8
_OUTSIDE, _INSIDE, _UNSURE = 0, 1, -1


class _BlockScreen:
    """Batched pre-pass of sample_cone over a block of raw draws.

    For each draw it settles whether d = Z zeta, -d and the face-projected
    retry +-d2 are surely inside or surely outside the cone.  A draw whose
    directions are all surely outside (or that gets no retry) cannot add a
    direction: it is dead and needs no replay."""

    def __init__(self, E: np.ndarray, F: np.ndarray, Z: np.ndarray, tol: float):
        dim, k = Z.shape
        self.E, self.F, self.Z, self.tol = E, F, Z, tol
        self.slack = SCREEN_ULPS * (dim + k + 1) ** 2 * np.finfo(float).eps
        self.e_norms = np.linalg.norm(E, axis=1)
        self.f_norms = np.linalg.norm(F, axis=1)
        # the faces the replay computes, bit for bit
        faces = [F[i] @ Z for i in range(F.shape[0])]
        self.face_norms = np.array([float(np.linalg.norm(f)) for f in faces])
        self.faces = np.array(faces).reshape(F.shape[0], k)

    def _states(self, D: np.ndarray, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cone states of the rows of D and of -D, for a per-row relative
        rounding allowance `slack`; NaN or infinite input stays unsure."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            D = D / np.linalg.norm(D, axis=1, keepdims=True)
            ev = np.abs(D @ self.E.T)
            fv = D @ self.F.T
            be = slack[:, None] * self.e_norms
            bf = slack[:, None] * self.f_norms
            # cone_contains compares with tol * max(1, max|d|), and max|d| <= ||d||
            lo, hi = self.tol, self.tol * (1.0 + self.slack)
            e_in = np.all(ev + be < lo, axis=1)
            e_out = np.any(ev - be > hi, axis=1)
            states = []
            for v in (fv, -fv):
                inside = e_in & np.all(v + bf < lo, axis=1)
                outside = e_out | np.any(v - bf > hi, axis=1)
                states.append(np.where(inside, _INSIDE, np.where(outside, _OUTSIDE, _UNSURE)))
        return states[0], states[1]

    def live(self, block: np.ndarray) -> list[list[int]]:
        """[row, state of d, of -d, retry face or -1, state of d2, of -d2] for
        every draw of `block` that is not surely dead, in draw order."""
        B = block.shape[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            U = block / np.linalg.norm(block, axis=1, keepdims=True)
        D = U @ self.Z.T
        d_state, nd_state = self._states(D, np.full(B, self.slack))
        dead = (d_state == _OUTSIDE) & (nd_state == _OUTSIDE)
        face = np.full(B, -1)
        d2_state = nd2_state = np.full(B, _UNSURE)
        if self.F.shape[0]:
            V = D @ self.F.T
            rows = np.arange(B)
            top = np.argmax(V, axis=1)
            bf = self.slack * self.f_norms
            rivals = V + bf
            rivals[rows, top] = -np.inf
            settled = V[rows, top] - bf[top] > np.max(rivals, axis=1)
            faces, nf = self.faces[top], self.face_norms[top]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                coef = np.einsum("ij,ij->i", faces, U) / nf**2
                zeta2 = U - coef[:, None] * faces
                nz2 = np.linalg.norm(zeta2, axis=1)
                d2_state, nd2_state = self._states(zeta2 @ self.Z.T, self.slack / nz2)
            no_retry = (nf <= 1e-12) | (nz2 + self.slack < 1e-9)
            retry_dead = ((nz2 - self.slack > 1e-9) & (d2_state == _OUTSIDE)
                          & (nd2_state == _OUTSIDE))
            dead &= settled & (no_retry | retry_dead)
            face = np.where(settled, top, -1)
        live = np.flatnonzero(~dead)
        return np.stack([live, d_state[live], nd_state[live], face[live],
                         d2_state[live], nd2_state[live]], axis=1).tolist()


def sample_cone(E: np.ndarray, F: np.ndarray, dim: int, count: int, seed: int,
                tol: float = 1e-9) -> list[np.ndarray]:
    """Deterministic unit directions in the cone: rays, then filtered samples.

    Random draws are screened a block at a time (_BlockScreen); the draws that
    can land are replayed one by one, in draw order, through the per-attempt
    code, which calls cone_contains only where the screen left the answer
    open.  The directions are the ones the plain one-draw-at-a-time rejection
    loop returns, bit for bit."""
    E = _as_rows(E, dim)
    F = _as_rows(F, dim)
    Z = nullspace_basis(E, CONE_TOL)
    k = Z.shape[1]
    out: list[np.ndarray] = []
    seen: set[tuple] = set()

    def push(d: np.ndarray, state: int = _UNSURE) -> bool:
        if state == _OUTSIDE:
            return False
        nrm = float(np.linalg.norm(d))
        if nrm < 1e-12:
            return False
        d = d / nrm
        if state == _UNSURE and not cone_contains(E, F, d, tol):
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
    screen = _BlockScreen(E, F, Z, tol)
    attempts, cap = 0, 50 * count
    while len(out) < count and attempts < cap:
        # row j of the block is the draw standard_normal(k) of attempt j
        block = rng.standard_normal((min(count, cap - attempts), k))
        attempts += block.shape[0]
        for j, d_state, nd_state, face_hint, d2_state, nd2_state in screen.live(block):
            if len(out) >= count:
                break
            zeta = block[j].copy()
            nz = float(np.linalg.norm(zeta))
            if nz < 1e-12:
                continue
            zeta /= nz
            d = Z @ zeta
            if push(d, d_state) or push(-d, nd_state):
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
                        if i != face_hint:
                            d2_state = nd2_state = _UNSURE
                        push(d2, d2_state) or push(-d2, nd2_state)
    return out[: max(count, len(rays))]
