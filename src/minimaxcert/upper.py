"""Outer-minimization conditions: MFCQ, the multiplier polytope, critical
cones, and the second-order / nonsmooth first-order optimality tests.

Every question of the form "is there an outer multiplier (u, v) for this
gradient, and which one" goes to `_outer_multiplier`: the polytope's
emptiness and its LP point, which the second-order checks reuse when no
vertices were enumerated, and each selector's first-order test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .conditions import (
    ERROR,
    INCONCLUSIVE,
    KIND_NECESSARY,
    KIND_QUALIFICATION,
    KIND_SUFFICIENT,
    NOT_FOUND_SAMPLED,
    SATISFIED,
    VIOLATED,
    ConditionCheck,
)
from .config import CheckConfig
from .cones import budget_detail, cone_contains, min_quadratic_on_cone
from .linalg import LpProblem, smallest_singular_value, solve_lp
from .lower import KktSolution
from .nonsmooth import GeneralizedDerivativeSet, SelectorSweep, selector_sweep
from .problem import ProblemSpec, memoised
from .value_function import ValueDerivatives


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


def compute_upper_active_set(spec: ProblemSpec, x, tol_act: float = 1e-8) -> UpperActiveSet:
    data = upper_data(spec, x)
    viol = 0.0
    if data.H.size:
        viol = max(viol, float(np.max(np.abs(data.H))))
    if data.G.size:
        viol = max(viol, float(np.max(data.G)))
    active = tuple(i for i in range(spec.n2) if abs(data.G[i]) <= tol_act)
    return UpperActiveSet(I=active, n1=spec.n1, feasible=viol <= tol_act, worst_violation=viol)


@dataclass
class MfcqResult:
    check: ConditionCheck
    witness: np.ndarray | None
    active: tuple[int, ...]
    jh_sigma_min: float
    lp_value: float | None


def check_mfcq(spec: ProblemSpec, x, config: CheckConfig | None = None) -> MfcqResult:
    """Full-rank equality Jacobian plus a strictly feasible direction, found by
    LP: maximize t s.t. JH d = 0, dG_i . d + t <= 0 (active i), |d|_inf <= 1.
    Inside `bundle_memo` each distinct (x, tol_act, tol_mfcq) is checked once
    and the result shared."""
    config = config or CheckConfig()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return memoised(spec, ("mfcq", x.tobytes(), config.tol_act, config.tol_mfcq),
                    lambda: _check_mfcq(spec, x, config))


def _check_mfcq(spec: ProblemSpec, x: np.ndarray, config: CheckConfig) -> MfcqResult:
    data = upper_data(spec, x)
    aset = compute_upper_active_set(spec, x, config.tol_act)
    if not aset.feasible:
        raise ValueError(
            f"x is infeasible for the outer constraints "
            f"(violation {aset.worst_violation:.3e})"
        )
    sigma = smallest_singular_value(data.JH) if spec.n1 else np.inf
    if spec.n1 and sigma < config.tol_mfcq:
        check = ConditionCheck(
            "mfcq", VIOLATED, sigma, config.tol_mfcq,
            kind=KIND_QUALIFICATION,
            detail="equality-constraint Jacobian is rank deficient",
        )
        return MfcqResult(check, None, aset.I, sigma, None)
    if not aset.I:
        check = ConditionCheck(
            "mfcq", SATISFIED, np.inf, config.tol_mfcq, kind=KIND_QUALIFICATION,
            detail="no active inequalities",
        )
        return MfcqResult(check, np.zeros(spec.n), aset.I, sigma, None)
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
    sol = solve_lp(LpProblem(c, A_eq, b_eq, A_in, b_in, lower, upper))
    if sol.status != "optimal":
        check = ConditionCheck(
            "mfcq", ERROR, None, config.tol_mfcq, kind=KIND_QUALIFICATION,
            detail=f"direction LP returned {sol.status}",
        )
        return MfcqResult(check, None, aset.I, sigma, None)
    tstar = float(sol.value)
    ok = tstar > config.tol_mfcq
    check = ConditionCheck(
        "mfcq",
        SATISFIED if ok else VIOLATED,
        tstar,
        config.tol_mfcq,
        kind=KIND_QUALIFICATION,
        witness=sol.z[:n].tolist() if ok else None,
    )
    return MfcqResult(check, sol.z[:n] if ok else None, aset.I, sigma, tstar)


@dataclass
class LambdaPolytope:
    """Upper multipliers: {(u, v): JH^T u + JG^T v = -r0, v >= 0 on I, v = 0 off I}.

    `point` is the one member that `_outer_multiplier` found (None when the
    set is empty); `vertices` are enumerated only up to `vertex_enum_cap`."""

    r0: np.ndarray
    JH: np.ndarray
    JG: np.ndarray
    active: tuple[int, ...]
    nonempty: bool
    point: tuple[np.ndarray, np.ndarray] | None = None
    vertices: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    bounded: bool | None = None
    enum_capped: bool = False

    def vertex_residual(self, u: np.ndarray, v: np.ndarray) -> float:
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
    clip keeps a -0.0, as max(z, 0.0) does, so vertices keep their bits."""
    v = np.zeros(n2)
    v[list(active)] = np.where(z[n1:] < 0.0, 0.0, z[n1:])
    return z[:n1], v


def _outer_multiplier(data: UpperData, active: tuple[int, ...], r: np.ndarray,
                      tol_kkt: float, parts=None) -> tuple[np.ndarray, np.ndarray] | None:
    """One outer multiplier (u, v) for the gradient r, or None when there is
    none.  With no multiplier variables the zero multiplier serves when
    max|r| <= tol_kkt; otherwise the zero-objective LP over (u, v_I) decides
    (`solve_lp` finds a non-finite r infeasible).  `parts` are r's
    `_lambda_lp_parts` when the caller has them."""
    A_eq, b_eq, lower, nvar = parts or _lambda_lp_parts(data, active, r)
    if nvar == 0:
        # written as `<=` so that a NaN fails it, as an inf does
        z = np.zeros(0) if float(np.max(np.abs(r), initial=0.0)) <= tol_kkt else None
    else:
        sol = solve_lp(LpProblem(np.zeros(nvar), A_eq, b_eq, None, None, lower, None))
        z = sol.z if sol.status == "optimal" else None
    return None if z is None else _split(z, data.JH.shape[0], active, data.JG.shape[0])


def _basic_multipliers(parts, n1: int, active: tuple[int, ...], n2: int):
    """The polytope's vertices: the basic solutions over the JH^T columns plus
    each subset of the active JG^T columns, kept when they solve the system
    to 1e-9 with v >= -1e-9."""
    A_eq, b_eq, _, nvar = parts
    vertices, seen = [], set()
    for size in range(0, len(active) + 1):
        for subset in combinations(range(n1, nvar), size):
            cols = [*range(n1), *subset]
            M = A_eq[:, cols]
            if smallest_singular_value(M.T) < 1e-10:
                continue  # columns dependent: not a basic solution
            z = np.zeros(nvar)
            if cols:
                z[cols], *_ = np.linalg.lstsq(M, b_eq, rcond=None)
            if float(np.max(np.abs(M @ z[cols] - b_eq), initial=0.0)) > 1e-9:
                continue
            if np.any(z[n1:] < -1e-9):
                continue
            u, v = _split(z, n1, active, n2)
            key = tuple(np.round(np.concatenate([u, v]), 9))
            if key not in seen:
                seen.add(key)
                vertices.append((u, v))
    return vertices


def upper_kkt_and_polytope(
    spec: ProblemSpec, x, working_grad: np.ndarray, config: CheckConfig | None = None
) -> LambdaPolytope:
    """Emptiness and `point` by one `_outer_multiplier` solve; boundedness
    from MFCQ; vertices by basis enumeration when small.

    A nonempty polytope is bounded exactly when its recession cone
    {(u, v_I): JH^T u + JG_I^T v = 0, v >= 0} is {0}, and by Motzkin's
    transposition theorem that holds exactly when JH has full row rank and
    some d has JH d = 0 and JG_I d < 0, which is MFCQ at x (Gauvin 1977)."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    active = compute_upper_active_set(spec, x, config.tol_act).I
    r0 = np.atleast_1d(np.asarray(working_grad, dtype=float))
    parts = _lambda_lp_parts(data, active, r0)
    point = _outer_multiplier(data, active, r0, config.tol_kkt, parts)
    poly = LambdaPolytope(r0=r0, JH=data.JH, JG=data.JG, active=active,
                          nonempty=point is not None, point=point)
    if point is None:
        return poly

    poly.bounded = check_mfcq(spec, x, config).check.ok
    nvar = parts[3]
    if nvar > config.vertex_enum_cap:
        poly.enum_capped = True
    else:
        # with no multiplier variables the polytope is the one point {0}
        poly.vertices = _basic_multipliers(parts, spec.n1, active, spec.n2) if nvar else [point]
    return poly


@dataclass
class UpperConeRep:
    """Critical cone rows: E = JH, F = [JG_I; working-gradient row (<= 0)].

    The reduced form (equalities forced by positive multipliers) is kept
    alongside when a multiplier is available.
    """

    E: np.ndarray
    F: np.ndarray
    dim: int
    reduced_E: np.ndarray | None = None
    reduced_F: np.ndarray | None = None

    def contains(self, d, tol: float = 1e-9) -> bool:
        return cone_contains(self.E, self.F, d, tol)


def critical_cone_upper(
    spec: ProblemSpec,
    x,
    working_grad: np.ndarray,
    multiplier: tuple[np.ndarray, np.ndarray] | None = None,
    config: CheckConfig | None = None,
) -> UpperConeRep:
    config = config or CheckConfig()
    data = upper_data(spec, x)
    aset = compute_upper_active_set(spec, x, config.tol_act)
    r0 = np.atleast_1d(np.asarray(working_grad, dtype=float))
    E = data.JH if spec.n1 else np.zeros((0, spec.n))
    F_rows = []
    if aset.I:
        F_rows.append(data.JG[list(aset.I)])
    F_rows.append(r0.reshape(1, -1))
    F = np.vstack(F_rows)
    rep = UpperConeRep(E=E, F=F, dim=spec.n)
    if multiplier is not None:
        u, v = multiplier
        strong = [i for i in aset.I if v[i] > config.tol_act]
        weak = [i for i in aset.I if v[i] <= config.tol_act]
        red_E_rows = [E]
        if strong:
            red_E_rows.append(data.JG[strong])
        rep.reduced_E = np.vstack([r for r in red_E_rows if r.size]) if any(
            r.size for r in red_E_rows
        ) else np.zeros((0, spec.n))
        rep.reduced_F = data.JG[weak] if weak else np.zeros((0, spec.n))
    return rep


def _curvature_lp_max(poly: LambdaPolytope, data: UpperData, d: np.ndarray) -> float:
    """max over the polytope of sum_j u_j <Hxx_j d, d> + sum_i v_i <Gxx_i d, d>:
    over the vertices when they were enumerated and the polytope is bounded,
    else by LP (+inf when unbounded, NaN when the LP fails)."""
    n1 = data.JH.shape[0]
    coef_u = np.array([float(d @ data.Hxx[j] @ d) for j in range(n1)])
    coef_v = np.array([float(d @ data.Gxx[i] @ d) for i in poly.active])
    if poly.vertices and poly.bounded:
        best = -np.inf
        for u, v in poly.vertices:
            val = float(coef_u @ u) + float(
                sum(coef_v[j] * v[i] for j, i in enumerate(poly.active))
            )
            best = max(best, val)
        return best
    A_eq, b_eq, lower, _ = _lambda_lp_parts(data, poly.active, poly.r0)
    c = np.concatenate([coef_u, coef_v])
    sol = solve_lp(LpProblem(c, A_eq, b_eq, None, None, lower, None))
    if sol.status == "unbounded":
        return np.inf
    return float(sol.value) if sol.status == "optimal" else np.nan


def _cone_curvature(spec, x, vd, poly, E, F):
    """Face test of q_sup(d) = d^T hess(phi) d + max over the multiplier
    polytope of the constraint curvature, on the cone {E d = 0, F d <= 0}.

    Each enumerated vertex (u, v), or the polytope's LP point when none were
    enumerated, gives the quadratic of hess(phi) + sum u_j Hxx_j
    + sum v_i Gxx_i, which is at most q_sup; so the largest of their exact
    cone minima is a lower bound of min q_sup over unit cone directions, and
    the bound is exact when the polytope is a single point.  Returns None
    when a face walk runs out of its budget (`cones.FACE_BUDGET`), else
    (single point, lower bound, [(witness d, q_sup(d))] over the quadratics'
    face witnesses); the bound is +inf and the list empty on the trivial
    cone."""
    data = upper_data(spec, x)
    single = spec.n1 + len(poly.active) == 0 or (len(poly.vertices) == 1 and poly.bounded)
    lower, witnesses = -np.inf, []
    for u, v in poly.vertices or [poly.point]:
        M = vd.hessian + np.einsum("j,jab->ab", u, data.Hxx) + np.einsum("i,iab->ab", v, data.Gxx)
        exact = min_quadratic_on_cone(M, E, F, spec.n)
        if exact is None:
            return None
        lower = max(lower, exact[0])
        if exact[1] is not None:
            d = exact[1]
            witnesses.append((d, float(d @ vd.hessian @ d) + _curvature_lp_max(poly, data, d)))
    return single, lower, witnesses


def _cone_verdict(name, kind, test, threshold, config) -> ConditionCheck:
    """`satisfied` when the lower bound reaches `threshold`; on a single-point
    polytope the bound is exact, so `violated` otherwise; with several
    multipliers `violated` only at a witness with q_sup <= -tol_pd, else
    `inconclusive`."""
    if test is None:
        return ConditionCheck(name, INCONCLUSIVE, None, config.tol_pd, kind=kind,
                              detail=budget_detail())
    single, lower, witnesses = test
    if lower >= threshold:
        detail = ("critical cone is trivial" if lower == np.inf
                  else "exact minimum over the cone's faces" if single
                  else "lower bound from the multiplier vertices' face minima")
        return ConditionCheck(name, SATISFIED, lower, config.tol_pd, kind=kind, detail=detail)
    if single:
        return ConditionCheck(name, VIOLATED, lower, config.tol_pd, kind=kind,
                              witness=witnesses[0][0].tolist(),
                              detail="exact minimum over the cone's faces")
    d, q = min(witnesses, key=lambda item: item[1])
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
    cone: UpperConeRep,
    config: CheckConfig | None = None,
) -> tuple[ConditionCheck, list[tuple[np.ndarray, float]]]:
    """q_sup(d) >= 0 (to tolerance) on the critical cone, by the face test;
    the evidence is (d, q_sup(d)) at each face witness."""
    config = config or CheckConfig()
    if not poly.nonempty:
        return (
            ConditionCheck(
                "second_order_necessary", INCONCLUSIVE, None, config.tol_pd,
                kind=KIND_NECESSARY, detail="multiplier polytope is empty",
            ),
            [],
        )
    test = _cone_curvature(spec, x, vd, poly, cone.E, cone.F)
    check = _cone_verdict("second_order_necessary", KIND_NECESSARY, test, -config.tol_pd,
                          config)
    return check, [] if test is None else test[2]


def second_order_sufficient(
    spec: ProblemSpec,
    x,
    vd: ValueDerivatives,
    poly: LambdaPolytope,
    cone: UpperConeRep,
    config: CheckConfig | None = None,
) -> ConditionCheck:
    """q_sup(d) >= tol_pd on the unit directions of the reduced critical cone,
    by the face test; the margin is the growth rate estimate."""
    config = config or CheckConfig()
    if not poly.nonempty:
        return ConditionCheck(
            "second_order_sufficient", INCONCLUSIVE, None, config.tol_pd,
            kind=KIND_SUFFICIENT, detail="multiplier polytope is empty",
        )
    E = cone.reduced_E if cone.reduced_E is not None else cone.E
    F = cone.reduced_F if cone.reduced_F is not None else cone.F
    test = _cone_curvature(spec, x, vd, poly, E, F)
    return _cone_verdict("second_order_sufficient", KIND_SUFFICIENT, test, config.tol_pd,
                         config)


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
    otherwise it reports not-found.  The selectors and their factored
    A(x, W) come from `sweep`, built here when not given."""
    config = config or CheckConfig()
    data = upper_data(spec, x)
    aset = compute_upper_active_set(spec, x, config.tol_act)
    sweep = sweep or selector_sweep(spec, sol, config)
    exact_family = "beta" not in sweep.selectors[0].provenance

    gset = GeneralizedDerivativeSet(kind="b_subdifferential")
    gradients = sweep.phi_gradients()
    singular = sweep.lu.step >= 0
    for s, W in enumerate(sweep.selectors):
        if singular[s]:
            gset.errors.append((W, str(sweep.lu.error(s))))
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
        "first_order_nonsmooth", NOT_FOUND_SAMPLED, None, config.tol_kkt,
        kind=KIND_NECESSARY,
        detail=f"no admissible selector among {len(sweep.selectors)} samples; "
        "not a disproof",
    )
    return check, gset
