"""Outer-minimization conditions: MFCQ, the multiplier polytope with its
critical cones, and the second-order / nonsmooth first-order optimality tests.

Every question of the form "is there an outer multiplier (u, v) for this
gradient, and which one" goes to `_outer_multiplier`, once per outer level
(`upper_kkt_and_polytope`): the polytope's emptiness and its LP point, where
the second-order checks start.  Both paths ask it of one gradient, grad_x
L, and `certify` builds that level once per call, for either path: on the
nonsmooth path `first_order_nonsmooth` reads the runner's polytope, since
under the standing assumption phi is C^1 with grad phi = grad_x L (Fiacco
1983), which every B-selector's candidate gradient equals at a KKT point.

The second-order checks bound min over unit cone directions d of
q_sup(d) = d^T hess(phi) d + max over the polytope of the constraint
curvature.  `_cone_curvature` does it by Kelley's cutting-plane method
(J. SIAM 1960) over the polytope: g(lambda) = min_d d^T M(lambda) d is
concave, so each multiplier tried gives a sound lower bound, and each face
witness a cut of the LP that bounds max g from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import (
    ERROR,
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    ConditionCheck,
)
from .config import CheckConfig
from .cones import Cone, budget_detail, min_quadratic_on_cone
from .linalg import RANK_TOL, LpProblem, smallest_singular_value, solve_lp
from .lower import KktSolution
from .nonsmooth import (
    GeneralizedDerivativeSet,
    SelectorSweep,
    _candidate_set,
    selector_sweep,
)
from .problem import ProblemSpec, memoised
from .value_function import ValueDerivatives

# the cutting-plane loop of `_cone_curvature` stops after this many face tests
CUT_ROUNDS = 10


@dataclass
class UpperData:
    """H, G values/Jacobians/Hessians at x (independent of y)."""

    H: np.ndarray
    JH: np.ndarray
    Hxx: np.ndarray
    G: np.ndarray
    JG: np.ndarray
    Gxx: np.ndarray


def upper_data(spec: ProblemSpec, x) -> UpperData:
    """Read-only H, G data at x from the problem's compiled x-only program
    (whose Hessians are symmetric by construction).  Inside `bundle_memo`
    each distinct x is evaluated once and the data shared."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return memoised(spec, ("upper", x.tobytes()),
                    lambda: UpperData(**spec._upper_program(x, np.zeros(0))))


@dataclass
class UpperActiveSet:
    I: tuple[int, ...]
    feasible: bool
    worst_violation: float


def compute_upper_active_set(spec: ProblemSpec, x,
                             config: CheckConfig | None = None) -> UpperActiveSet:
    tol_act = (config or CheckConfig()).tol_act
    data = upper_data(spec, x)
    viol = 0.0
    if data.H.size:
        viol = max(viol, float(np.max(np.abs(data.H))))
    if data.G.size:
        viol = max(viol, float(np.max(data.G)))
    active = tuple(i for i in range(spec.n2) if abs(data.G[i]) <= tol_act)
    return UpperActiveSet(I=active, feasible=viol <= tol_act, worst_violation=viol)


def check_mfcq(spec: ProblemSpec, x, config: CheckConfig | None = None) -> ConditionCheck:
    """Full-rank equality Jacobian plus a strictly feasible direction, found by
    LP: maximize t s.t. JH d = 0, dG_i . d + t <= 0 (active i), |d|_inf <= 1.
    A ValueError at an x that violates the outer constraints."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    aset = compute_upper_active_set(spec, x, config)
    if not aset.feasible:
        raise ValueError(
            f"x is infeasible for the outer constraints "
            f"(violation {aset.worst_violation:.3e})"
        )
    sigma = smallest_singular_value(data.JH) if spec.n1 else np.inf
    if spec.n1 and sigma < config.tol_mfcq:
        return ConditionCheck(
            "mfcq", VIOLATED, sigma, config.tol_mfcq,
            detail="equality-constraint Jacobian is rank deficient",
        )
    if not aset.I:
        return ConditionCheck(
            "mfcq", SATISFIED, np.inf, config.tol_mfcq,
            detail="no active inequalities",
        )
    n = spec.n
    nI = len(aset.I)
    # variables (d, t)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_in = np.zeros((nI, n + 1))
    A_in[:, :n] = data.JG[list(aset.I)]
    A_in[:, -1] = 1.0
    b_in = np.zeros(nI)
    A_eq = None
    b_eq = None
    if spec.n1:
        A_eq = np.hstack([data.JH, np.zeros((spec.n1, 1))])
        b_eq = np.zeros(spec.n1)
    lower = np.concatenate([-np.ones(n), [-np.inf]])
    upper = np.concatenate([np.ones(n), [np.inf]])
    sol = solve_lp(LpProblem(c, A_eq, b_eq, A_in, b_in, lower, upper), config.tol_mfcq)
    if sol.status != "optimal":
        return ConditionCheck(
            "mfcq", ERROR, None, config.tol_mfcq,
            detail=f"direction LP returned {sol.status}",
        )
    tstar = float(sol.value)
    ok = tstar > config.tol_mfcq
    return ConditionCheck(
        "mfcq",
        SATISFIED if ok else VIOLATED,
        tstar,
        config.tol_mfcq,
        witness=sol.z[:n].tolist() if ok else None,
    )


@dataclass
class LambdaPolytope:
    """Upper multipliers: {(u, v): JH^T u + JG^T v = -r0, v >= 0 on I, v = 0 off I},
    with the outer data it was read from (`data`) and its system's
    `_lambda_lp_parts` (`parts`).

    `cone` is the critical cone {JH d = 0, JG_I d <= 0, r0 . d <= 0}.
    `point` is the one member that `_outer_multiplier` found (None when the
    set is empty); `single` holds when `point` is the only member.  With a
    point, `reduced` is the critical cone in its reduced form, the cone of
    the sufficient check: rows of I whose multiplier exceeds tol_act become
    equalities and the gradient row goes.  Every multiplier reduces the cone
    to the same set, so the point serves."""

    r0: np.ndarray
    data: UpperData
    active: tuple[int, ...]
    parts: tuple
    cone: Cone
    point: tuple[np.ndarray, np.ndarray] | None = None
    reduced: Cone | None = None
    single: bool = False

    @property
    def nonempty(self) -> bool:
        return self.point is not None

    def residual(self, u: np.ndarray, v: np.ndarray) -> float:
        return _stationarity_residual(self.data.JH, self.data.JG, u, v, self.r0)


def _stationarity_residual(JH, JG, u, v, r) -> float:
    """max |JH^T u + JG^T v + r|."""
    return float(np.max(np.abs(JH.T @ u + JG.T @ v + r), initial=0.0))


def _lambda_lp_parts(data: UpperData, active: tuple[int, ...], r0: np.ndarray):
    """(A_eq, b_eq, lower, nvar) of the multiplier system over (u, v_I)."""
    cols = []
    if data.JH.shape[0]:
        cols.append(data.JH.T)
    if active:
        cols.append(data.JG[list(active)].T)
    nvar = data.JH.shape[0] + len(active)
    A_eq = np.hstack(cols) if cols else np.zeros((r0.shape[0], 0))
    lower = np.concatenate([np.full(data.JH.shape[0], -np.inf), np.zeros(len(active))])
    return A_eq, -r0, lower, nvar


def _split(z: np.ndarray, n1: int, active: tuple[int, ...], n2: int):
    """(u, v) from a vector over (u, v_I): v clipped at 0 and 0 off I.  The
    clip keeps a -0.0, as max(z, 0.0) does."""
    v = np.zeros(n2)
    v[list(active)] = np.where(z[n1:] < 0.0, 0.0, z[n1:])
    return z[:n1], v


def _outer_multiplier(data: UpperData, active: tuple[int, ...], r: np.ndarray,
                      tol_kkt: float, parts) -> tuple[np.ndarray, np.ndarray] | None:
    """One outer multiplier (u, v) for the gradient r, or None: the zero
    multiplier, or with multiplier variables the zero-objective LP's point,
    kept when its stationarity residual is at most tol_kkt, as every
    multiplier is.  `parts` are r's `_lambda_lp_parts`."""
    A_eq, b_eq, lower, nvar = parts
    z = np.zeros(0)
    if nvar:  # solve_lp finds a non-finite r infeasible
        sol = solve_lp(LpProblem(np.zeros(nvar), A_eq, b_eq, None, None, lower, None), tol_kkt)
        if sol.status != "optimal":
            return None
        z = sol.z
    u, v = _split(z, data.JH.shape[0], active, data.JG.shape[0])
    # written as `<=` so that a NaN fails it, as an inf does
    return (u, v) if _stationarity_residual(data.JH, data.JG, u, v, r) <= tol_kkt else None


def upper_kkt_and_polytope(
    spec: ProblemSpec, x, working_grad: np.ndarray, config: CheckConfig | None = None
) -> LambdaPolytope:
    """The outer level at x: emptiness and `point` by one `_outer_multiplier`
    solve, the critical cone and its reduced form, and `single` from the rank
    of the multiplier system.

    A nonempty polytope is bounded exactly when its recession cone
    {(u, v_I): JH^T u + JG_I^T v = 0, v >= 0} is {0}, and by Motzkin's
    transposition theorem that holds exactly when JH has full row rank and
    some d has JH d = 0 and JG_I d < 0, which is MFCQ at x (Gauvin 1977), so
    `check_mfcq` answers it.  It is a single point when there are no
    multiplier variables or the system's columns are independent."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    active = compute_upper_active_set(spec, x, config).I
    r0 = np.atleast_1d(np.asarray(working_grad, dtype=float))
    parts = _lambda_lp_parts(data, active, r0)
    point = _outer_multiplier(data, active, r0, config.tol_kkt, parts)
    cone = Cone(data.JH, np.vstack([data.JG[list(active)], r0.reshape(1, -1)]))
    poly = LambdaPolytope(r0, data, active, parts, cone, point)
    if point is None:
        return poly

    v = point[1]
    strong = [i for i in active if v[i] > config.tol_act]
    weak = [i for i in active if v[i] <= config.tol_act]
    poly.reduced = Cone(np.vstack([data.JH, data.JG[strong]]), data.JG[weak])
    A_eq, _, _, nvar = parts
    poly.single = nvar == 0 or smallest_singular_value(A_eq.T) > RANK_TOL
    return poly


def _curvature_coefficients(data: UpperData, active: tuple[int, ...],
                            d: np.ndarray) -> np.ndarray:
    """(<Hxx_j d, d>, <Gxx_i d, d> for i in active): the curvature along d
    per multiplier variable (u, v_I)."""
    return np.concatenate([np.einsum("a,jab,b->j", d, data.Hxx, d),
                           np.einsum("a,iab,b->i", d, data.Gxx[list(active)], d)])


def _curvature_lp_max(poly: LambdaPolytope, d: np.ndarray, tol_kkt: float) -> float:
    """max over the polytope of sum_j u_j <Hxx_j d, d> + sum_i v_i <Gxx_i d, d>,
    by LP feasible to tol_kkt (+inf when unbounded, NaN when the LP fails)."""
    A_eq, b_eq, lower, _ = poly.parts
    c = _curvature_coefficients(poly.data, poly.active, d)
    sol = solve_lp(LpProblem(c, A_eq, b_eq, None, None, lower, None), tol_kkt)
    if sol.status == "unbounded":
        return np.inf
    return float(sol.value) if sol.status == "optimal" else np.nan


def _cone_curvature(vd, poly, cone, config):
    """Lower bound of min q_sup(d) over the unit directions of `cone`, one of
    the polytope's critical cones, where q_sup(d) = d^T hess(phi) d + max over
    the multiplier polytope of the constraint curvature.

    Each multiplier lambda = (u, v) gives M(lambda) = hess(phi)
    + sum u_j Hxx_j + sum v_i Gxx_i, whose exact cone minimum g(lambda) is at
    most min q_sup; g is concave, and the best g found is the bound, exact
    when the polytope is a single point.  The loop starts at the polytope's
    LP point.  Each face witness d_k cuts g(lambda) <= d_k^T M(lambda) d_k,
    and the next lambda maximises t under every cut over the polytope (one LP
    at feas_tol = tol_kkt), whose value bounds max g from above.  It stops on
    a single point, when that value is within tol_pd of the best g, when the
    LP is not optimal (an unbounded polytope), when the LP's multiplier
    misses stationarity by more than tol_kkt, or after CUT_ROUNDS face tests.

    Returns None when a face walk runs out of its budget
    (`cones.FACE_BUDGET`), else (single point, lower bound, face witnesses);
    the bound is +inf and the list empty on the trivial cone."""
    data = poly.data
    A_eq, b_eq, lower, nvar = poly.parts
    n1, n2 = data.JH.shape[0], data.JG.shape[0]
    best, witnesses, cuts, rhs = -np.inf, [], [], []
    u, v = poly.point
    for _ in range(CUT_ROUNDS):
        M = vd.hessian + np.einsum("j,jab->ab", u, data.Hxx) + np.einsum("i,iab->ab", v, data.Gxx)
        face = min_quadratic_on_cone(M, cone)
        if face is None:
            return None
        g, d = face
        best = max(best, g)
        if d is None:  # the trivial cone
            break
        witnesses.append(d)
        if poly.single:
            break
        # the cut t <= d^T hess(phi) d + coefficients . (u, v_I), over (u, v_I, t)
        cuts.append(np.append(-_curvature_coefficients(data, poly.active, d), 1.0))
        rhs.append(float(d @ vd.hessian @ d))
        sol = solve_lp(LpProblem(np.append(np.zeros(nvar), 1.0),
                                 np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]), b_eq,
                                 np.array(cuts), np.array(rhs),
                                 np.append(lower, -np.inf), None), config.tol_kkt)
        if sol.status != "optimal" or sol.value - best <= config.tol_pd:
            break
        u, v = _split(sol.z[:nvar], n1, poly.active, n2)
        if not poly.residual(u, v) <= config.tol_kkt:
            break
    return poly.single, best, witnesses


def _cone_check(name, threshold, vd, poly, cone, config) -> ConditionCheck:
    """`satisfied` when the lower bound reaches `threshold`; on a single-point
    polytope the bound is exact, so `violated` otherwise; with several
    multipliers `violated` only at a face witness with q_sup <= -tol_pd,
    else `inconclusive`.  q_sup is evaluated only when the bound does not
    decide."""
    if not poly.nonempty:
        return ConditionCheck(name, INCONCLUSIVE, None, config.tol_pd,
                              detail="multiplier polytope is empty")
    test = _cone_curvature(vd, poly, cone, config)
    if test is None:
        return ConditionCheck(name, INCONCLUSIVE, None, config.tol_pd,
                              detail=budget_detail())
    single, lower, witnesses = test
    if lower >= threshold:
        detail = ("critical cone is trivial" if lower == np.inf
                  else "exact minimum over the cone's faces" if single
                  else "lower bound from the cutting-plane multipliers' face minima")
        return ConditionCheck(name, SATISFIED, lower, config.tol_pd, detail=detail)
    if single:
        return ConditionCheck(name, VIOLATED, lower, config.tol_pd,
                              witness=witnesses[0].tolist(),
                              detail="exact minimum over the cone's faces")
    d, q = min(((d, float(d @ vd.hessian @ d) + _curvature_lp_max(poly, d, config.tol_kkt))
                for d in witnesses), key=lambda item: item[1])
    if q <= -config.tol_pd:
        return ConditionCheck(name, VIOLATED, q, config.tol_pd, witness=d.tolist(),
                              detail="q_sup at a face witness")
    return ConditionCheck(name, INCONCLUSIVE, lower, config.tol_pd,
                          detail=f"min q_sup lies in [{lower:.6g}, {q:.6g}]")


def second_order_necessary(vd: ValueDerivatives, poly: LambdaPolytope,
                           config: CheckConfig | None = None) -> ConditionCheck:
    """q_sup(d) >= 0 (to tolerance) on the unit directions of the critical
    cone `poly.cone`, by the face test."""
    config = config or CheckConfig()
    return _cone_check("second_order_necessary", -config.tol_pd, vd, poly, poly.cone, config)


def second_order_sufficient(vd: ValueDerivatives, poly: LambdaPolytope,
                            config: CheckConfig | None = None) -> ConditionCheck:
    """q_sup(d) >= tol_pd on the unit directions of the reduced critical cone
    `poly.reduced`, by the face test; the margin is the growth rate estimate."""
    config = config or CheckConfig()
    return _cone_check("second_order_sufficient", config.tol_pd, vd, poly, poly.reduced, config)


def first_order_nonsmooth(sweep: SelectorSweep, poly: LambdaPolytope,
                          config: CheckConfig | None = None) -> ConditionCheck:
    """Outer first order at a nonsmooth solution: does grad phi = grad_x L
    admit an outer multiplier?  `poly` is the outer level built on the
    sweep's grad_x L (`upper_kkt_and_polytope`), as on the smooth path; in
    `certify` it is the runner's one polytope.  An empty polytope is a
    disproof only when the selector family is exact (beta empty); otherwise
    it is inconclusive.  It reads the sweep's singularity test and grad_x L,
    never H(x, W), so it makes no batched solve."""
    config = config or CheckConfig()
    if sweep.solved.singular.all():
        return ConditionCheck(
            "first_order_nonsmooth", ERROR, None, config.tol_kkt,
            detail="every selector matrix was singular: inconsistent with the "
            "standing regularity assumption",
        )
    if poly.nonempty:
        u, v = poly.point
        return ConditionCheck(
            "first_order_nonsmooth", SATISFIED, poly.residual(u, v), config.tol_kkt,
            witness={"u": u.tolist(), "v": v.tolist()},
        )
    if sweep.exact:
        return ConditionCheck(
            "first_order_nonsmooth", VIOLATED, float(np.max(np.abs(sweep.grad_x))),
            config.tol_kkt,
            detail="selector family is exact here and no multiplier exists",
        )
    return ConditionCheck(
        "first_order_nonsmooth", INCONCLUSIVE, None, config.tol_kkt,
        detail="grad_x L admits no outer multiplier; not a disproof "
        "while beta is nonempty",
    )


def first_order_nonsmooth_necessary(
    spec: ProblemSpec,
    x,
    sol: KktSolution,
    config: CheckConfig | None = None,
    sweep: SelectorSweep | None = None,
) -> tuple[ConditionCheck, GeneralizedDerivativeSet]:
    """`first_order_nonsmooth` at `sol`, with the B-subdifferential, whose
    every nonsingular candidate equals grad_x L at a KKT point; building it
    reads H(x, W), one batched solve.  The selectors and their A(x, W) come
    from `sweep`, built here when not given."""
    config = config or CheckConfig()
    sweep = sweep or selector_sweep(spec, sol, config)
    poly = upper_kkt_and_polytope(spec, x, sweep.grad_x, config)
    return (first_order_nonsmooth(sweep, poly, config),
            _candidate_set("b_subdifferential", sweep, sweep.phi_gradients()))
