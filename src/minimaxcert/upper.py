"""Outer-minimization conditions: MFCQ, the multiplier polytope, critical
cones, and the second-order / nonsmooth first-order optimality tests.

Every question of the form "is there an outer multiplier (u, v) for this
gradient, and which one" goes to `_outer_multiplier`: the polytope's
emptiness and its LP point, where the second-order checks start, and each
selector's first-order test.

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
    KIND_NECESSARY,
    KIND_QUALIFICATION,
    KIND_SUFFICIENT,
    SATISFIED,
    VIOLATED,
    ConditionCheck,
)
from .config import CheckConfig
from .cones import Cone, budget_detail, min_quadratic_on_cone
from .linalg import RANK_TOL, LpProblem, smallest_singular_value, solve_lp
from .lower import KktSolution
from .nonsmooth import GeneralizedDerivativeSet, SelectorSweep, selector_sweep
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
    n1: int
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
    return UpperActiveSet(I=active, n1=spec.n1, feasible=viol <= tol_act, worst_violation=viol)


def check_mfcq(spec: ProblemSpec, x, config: CheckConfig | None = None) -> ConditionCheck:
    """Full-rank equality Jacobian plus a strictly feasible direction, found by
    LP: maximize t s.t. JH d = 0, dG_i . d + t <= 0 (active i), |d|_inf <= 1.
    Inside `bundle_memo` each distinct (x, tol_act, tol_mfcq) is checked once
    and the result shared."""
    config = config or CheckConfig()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return memoised(spec, ("mfcq", x.tobytes(), config.tol_act, config.tol_mfcq),
                    lambda: _check_mfcq(spec, x, config))


def _check_mfcq(spec: ProblemSpec, x: np.ndarray, config: CheckConfig) -> ConditionCheck:
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
            kind=KIND_QUALIFICATION,
            detail="equality-constraint Jacobian is rank deficient",
        )
    if not aset.I:
        return ConditionCheck(
            "mfcq", SATISFIED, np.inf, config.tol_mfcq, kind=KIND_QUALIFICATION,
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
            "mfcq", ERROR, None, config.tol_mfcq, kind=KIND_QUALIFICATION,
            detail=f"direction LP returned {sol.status}",
        )
    tstar = float(sol.value)
    ok = tstar > config.tol_mfcq
    return ConditionCheck(
        "mfcq",
        SATISFIED if ok else VIOLATED,
        tstar,
        config.tol_mfcq,
        kind=KIND_QUALIFICATION,
        witness=sol.z[:n].tolist() if ok else None,
    )


@dataclass
class LambdaPolytope:
    """Upper multipliers: {(u, v): JH^T u + JG^T v = -r0, v >= 0 on I, v = 0 off I}.

    `point` is the one member that `_outer_multiplier` found (None when the
    set is empty); `single` holds when `point` is the only member."""

    r0: np.ndarray
    JH: np.ndarray
    JG: np.ndarray
    active: tuple[int, ...]
    nonempty: bool
    point: tuple[np.ndarray, np.ndarray] | None = None
    bounded: bool | None = None
    single: bool = False

    def residual(self, u: np.ndarray, v: np.ndarray) -> float:
        return _stationarity_residual(self.JH, self.JG, u, v, self.r0)


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
                      tol_kkt: float, parts=None) -> tuple[np.ndarray, np.ndarray] | None:
    """One outer multiplier (u, v) for the gradient r, or None: the zero
    multiplier, or with multiplier variables the zero-objective LP's point,
    kept when its stationarity residual is at most tol_kkt, as every
    multiplier is.  `parts` are r's `_lambda_lp_parts` when the caller has them."""
    A_eq, b_eq, lower, nvar = parts or _lambda_lp_parts(data, active, r)
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
    """Emptiness and `point` by one `_outer_multiplier` solve; boundedness
    from MFCQ; `single` from the rank of the multiplier system.

    A nonempty polytope is bounded exactly when its recession cone
    {(u, v_I): JH^T u + JG_I^T v = 0, v >= 0} is {0}, and by Motzkin's
    transposition theorem that holds exactly when JH has full row rank and
    some d has JH d = 0 and JG_I d < 0, which is MFCQ at x (Gauvin 1977).
    It is a single point when there are no multiplier variables or the
    system's columns are independent."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    active = compute_upper_active_set(spec, x, config).I
    r0 = np.atleast_1d(np.asarray(working_grad, dtype=float))
    parts = _lambda_lp_parts(data, active, r0)
    point = _outer_multiplier(data, active, r0, config.tol_kkt, parts)
    poly = LambdaPolytope(r0=r0, JH=data.JH, JG=data.JG, active=active,
                          nonempty=point is not None, point=point)
    if point is None:
        return poly

    poly.bounded = check_mfcq(spec, x, config).ok
    A_eq, _, _, nvar = parts
    poly.single = nvar == 0 or smallest_singular_value(A_eq.T) > RANK_TOL
    return poly


def critical_cone_upper(
    spec: ProblemSpec,
    x,
    working_grad: np.ndarray,
    multiplier: tuple[np.ndarray, np.ndarray] | None = None,
    config: CheckConfig | None = None,
) -> Cone:
    """Critical cone rows: E = JH, F = [JG_I; working-gradient row (<= 0)].
    With a multiplier, its reduced form (equalities forced by positive
    multipliers, no gradient row) is the cone's `reduced`."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    aset = compute_upper_active_set(spec, x, config)
    r0 = np.atleast_1d(np.asarray(working_grad, dtype=float))
    E = data.JH if spec.n1 else np.zeros((0, spec.n))
    F_rows = []
    if aset.I:
        F_rows.append(data.JG[list(aset.I)])
    F_rows.append(r0.reshape(1, -1))
    F = np.vstack(F_rows)
    cone = Cone(E, F)
    if multiplier is not None:
        v = multiplier[1]
        strong = [i for i in aset.I if v[i] > config.tol_act]
        weak = [i for i in aset.I if v[i] <= config.tol_act]
        cone.reduced = Cone(np.vstack([E, data.JG[strong]]), data.JG[weak])
    return cone


def _curvature_coefficients(data: UpperData, active: tuple[int, ...],
                            d: np.ndarray) -> np.ndarray:
    """(<Hxx_j d, d>, <Gxx_i d, d> for i in active): the curvature along d
    per multiplier variable (u, v_I)."""
    return np.concatenate([np.einsum("a,jab,b->j", d, data.Hxx, d),
                           np.einsum("a,iab,b->i", d, data.Gxx[list(active)], d)])


def _curvature_lp_max(poly: LambdaPolytope, data: UpperData, d: np.ndarray,
                      tol_kkt: float) -> float:
    """max over the polytope of sum_j u_j <Hxx_j d, d> + sum_i v_i <Gxx_i d, d>,
    by LP feasible to tol_kkt (+inf when unbounded, NaN when the LP fails)."""
    A_eq, b_eq, lower, _ = _lambda_lp_parts(data, poly.active, poly.r0)
    c = _curvature_coefficients(data, poly.active, d)
    sol = solve_lp(LpProblem(c, A_eq, b_eq, None, None, lower, None), tol_kkt)
    if sol.status == "unbounded":
        return np.inf
    return float(sol.value) if sol.status == "optimal" else np.nan


def _cone_curvature(spec, x, vd, poly, E, F, config):
    """Lower bound of min q_sup(d) over the unit directions of the cone
    {E d = 0, F d <= 0}, q_sup(d) = d^T hess(phi) d + max over the
    multiplier polytope of the constraint curvature.

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
    data = upper_data(spec, x)
    A_eq, b_eq, lower, nvar = _lambda_lp_parts(data, poly.active, poly.r0)
    n1, n2 = data.JH.shape[0], data.JG.shape[0]
    best, witnesses, cuts, rhs = -np.inf, [], [], []
    u, v = poly.point
    for _ in range(CUT_ROUNDS):
        M = vd.hessian + np.einsum("j,jab->ab", u, data.Hxx) + np.einsum("i,iab->ab", v, data.Gxx)
        face = min_quadratic_on_cone(M, E, F, spec.n)
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
        if not _stationarity_residual(data.JH, data.JG, u, v, poly.r0) <= config.tol_kkt:
            break
    return poly.single, best, witnesses


def _cone_check(name, kind, threshold, spec, x, vd, poly, E, F, config) -> ConditionCheck:
    """`satisfied` when the lower bound reaches `threshold`; on a single-point
    polytope the bound is exact, so `violated` otherwise; with several
    multipliers `violated` only at a face witness with q_sup <= -tol_pd,
    else `inconclusive`.  q_sup is evaluated only when the bound does not
    decide."""
    if not poly.nonempty:
        return ConditionCheck(name, INCONCLUSIVE, None, config.tol_pd, kind=kind,
                              detail="multiplier polytope is empty")
    test = _cone_curvature(spec, x, vd, poly, E, F, config)
    if test is None:
        return ConditionCheck(name, INCONCLUSIVE, None, config.tol_pd, kind=kind,
                              detail=budget_detail())
    single, lower, witnesses = test
    if lower >= threshold:
        detail = ("critical cone is trivial" if lower == np.inf
                  else "exact minimum over the cone's faces" if single
                  else "lower bound from the cutting-plane multipliers' face minima")
        return ConditionCheck(name, SATISFIED, lower, config.tol_pd, kind=kind, detail=detail)
    if single:
        return ConditionCheck(name, VIOLATED, lower, config.tol_pd, kind=kind,
                              witness=witnesses[0].tolist(),
                              detail="exact minimum over the cone's faces")
    data = upper_data(spec, x)
    d, q = min(((d, float(d @ vd.hessian @ d) + _curvature_lp_max(poly, data, d, config.tol_kkt))
                for d in witnesses), key=lambda item: item[1])
    if q <= -config.tol_pd:
        return ConditionCheck(name, VIOLATED, q, config.tol_pd, kind=kind, witness=d.tolist(),
                              detail="q_sup at a face witness")
    return ConditionCheck(name, INCONCLUSIVE, lower, config.tol_pd, kind=kind,
                          detail=f"min q_sup lies in [{lower:.6g}, {q:.6g}]")


def second_order_necessary(
    spec: ProblemSpec,
    x,
    vd: ValueDerivatives,
    poly: LambdaPolytope,
    cone: Cone,
    config: CheckConfig | None = None,
) -> ConditionCheck:
    """q_sup(d) >= 0 (to tolerance) on the unit directions of the critical
    cone, by the face test."""
    config = config or CheckConfig()
    return _cone_check("second_order_necessary", KIND_NECESSARY, -config.tol_pd,
                       spec, x, vd, poly, cone.E, cone.F, config)


def second_order_sufficient(
    spec: ProblemSpec,
    x,
    vd: ValueDerivatives,
    poly: LambdaPolytope,
    cone: Cone,
    config: CheckConfig | None = None,
) -> ConditionCheck:
    """q_sup(d) >= tol_pd on the unit directions of the reduced critical cone,
    by the face test; the margin is the growth rate estimate."""
    config = config or CheckConfig()
    reduced = cone.reduced or cone
    return _cone_check("second_order_sufficient", KIND_SUFFICIENT, config.tol_pd,
                       spec, x, vd, poly, reduced.E, reduced.F, config)


def first_order_nonsmooth_necessary(
    spec: ProblemSpec,
    x,
    sol: KktSolution,
    config: CheckConfig | None = None,
    sweep: SelectorSweep | None = None,
) -> tuple[ConditionCheck, GeneralizedDerivativeSet]:
    """Search the B-selectors W for one whose candidate gradient admits upper
    KKT multipliers, asking `_outer_multiplier` once per selector.  A failed
    search is a disproof only when the selector family is exact (beta empty);
    otherwise it is inconclusive.  The selectors and their solved A(x, W)
    come from `sweep`, built here when not given."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    aset = compute_upper_active_set(spec, x, config)
    sweep = sweep or selector_sweep(spec, sol, config)
    exact_family = "beta" not in sweep.selectors[0].provenance

    gset = GeneralizedDerivativeSet(kind="b_subdifferential")
    gradients = sweep.phi_gradients()
    singular = sweep.solved.singular
    for s, W in enumerate(sweep.selectors):
        if singular[s]:
            gset.errors.append((W, str(sweep.solved.error(s))))
            continue
        r = gradients[s]
        gset.items.append((W, r))
        point = _outer_multiplier(data, aset.I, r, config.tol_kkt)
        if point is not None:
            u, v = point
            check = ConditionCheck(
                "first_order_nonsmooth", SATISFIED,
                _stationarity_residual(data.JH, data.JG, u, v, r), config.tol_kkt,
                kind=KIND_NECESSARY,
                witness={"W": list(W.values), "u": u.tolist(), "v": v.tolist()},
            )
            return check, gset
    if singular.all():
        check = ConditionCheck(
            "first_order_nonsmooth", ERROR, None, config.tol_kkt,
            kind=KIND_NECESSARY,
            detail="every selector matrix was singular: inconsistent with the "
            "standing regularity assumption",
        )
        return check, gset
    if exact_family:
        dist = min(
            (float(np.max(np.abs(r))) for _, r in gset.items), default=np.inf
        )
        check = ConditionCheck(
            "first_order_nonsmooth", VIOLATED, dist, config.tol_kkt,
            kind=KIND_NECESSARY,
            detail="selector family is exact here and no multiplier exists",
        )
        return check, gset
    check = ConditionCheck(
        "first_order_nonsmooth", INCONCLUSIVE, None, config.tol_kkt,
        kind=KIND_NECESSARY,
        detail=f"no admissible selector among {len(sweep.selectors)} samples; "
        "not a disproof",
    )
    return check, gset
