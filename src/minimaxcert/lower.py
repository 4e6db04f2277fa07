"""Inner maximization analysis: KKT residuals, active-set partitions,
constraint qualifications, second-order conditions (sufficient `lower_sosc`,
necessary `lower_second_order_necessary`, strong `lower_strong_sosc`), and
the semismooth Newton solver for the parametric solution map.

Jacobian uniqueness and Assumption A are conditions on the same inner KKT
point, and `analyse_inner` makes each of their decisions once, in one
`InnerAnalysis`: inner feasibility at tol_act; the multipliers, supplied
ones when they pass the KKT test (`_kkt_fault`: the residual and the one
sign rule) and least-squares ones (`recover_multipliers`, stationarity
alone) otherwise; one partition by the one rule (`classify_partition`:
alpha above max(tol_act, tol_sc)), so strict complementarity holds exactly
when beta is empty; one LICQ check at the activity test `active_set`; and
`critical_curvature`, the critical cone with the largest eigenvalue of L_yy
on its affine hull (`Cone.hull`).  Each check carries the name a `certify`
report prints, and `JACOBIAN_UNIQUENESS` and `ASSUMPTION_A` list each
hypothesis's conditions once, in the order that names the first to fail;
`check_jacobian_uniqueness` and `check_assumption_a` build the analysis at
supplied and at recovered multipliers.  One analysis makes each of these
computations once, so of its inputs only the bundle and the Lagrangian
(`lagrangian_eval`) are kept in `bundle_memo` for the rest of the call.

`kkt_jacobian_blocks` is the one bordered-KKT assembler: the exact Jacobian
A(x, W) of the projected KKT map for a projection selector W.  The Newton
steps, the smooth-path sensitivity system (W = 1 on gamma, 0 on alpha) and
the nonsmooth selector sweep all build their matrices with it.

`solve_lower` stops at `tol_newton` with its last iterate's residual; it
has no path, which `certify.classify_path` alone picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import (
    INCONCLUSIVE,
    SATISFIED,
    SKIPPED,
    VIOLATED,
    ConditionCheck,
)
from .config import CheckConfig
from .cones import Cone, budget_detail, min_quadratic_on_cone
from .linalg import (
    SingularMatrixError,
    max_eigenvalue_on_subspace,
    smallest_singular_value,
    solve_linear,
)
from .problem import DerivativeBundle, ProblemSpec, eval_bundle, memoised

# noise floors of `solve_lower`'s divergence gate: after more than
# DIVERGENCE_MIN_STEPS iterates, a residual above DIVERGENCE_GROWTH times
# (1 + the seed's residual) is a diverging iteration, not a slow one
DIVERGENCE_MIN_STEPS = 3
DIVERGENCE_GROWTH = 1e8

# the conditions of each inner hypothesis, in the order that names the first
# to fail: Jacobian uniqueness (the smooth path) and Assumption A, strong
# regularity of the inner KKT system (Robinson 1980; the nonsmooth path)
JACOBIAN_UNIQUENESS = ("lower_kkt", "lower_licq", "lower_strict_complementarity", "lower_sosc")
ASSUMPTION_A = ("lower_kkt", "lower_licq", "lower_strong_sosc")


class NonsmoothDataError(ValueError):
    """The problem uses abs() or sign(), which the condition checks cannot
    handle."""


class NewtonError(Exception):
    def __init__(self, message: str, trace: list[float] | None = None):
        self.trace = trace or []
        super().__init__(message)


@dataclass
class LagrangianEval:
    """L(x; y, mu, lam) = f + mu^T h - lam^T g and its blocks at one point."""

    value: float
    grad_y: np.ndarray
    grad_x: np.ndarray
    yy: np.ndarray
    yx: np.ndarray
    xx: np.ndarray


def lagrangian_eval(bundle: DerivativeBundle, mu: np.ndarray, lam: np.ndarray) -> LagrangianEval:
    """The Lagrangian at the bundle's point, with read-only arrays.  Inside
    `bundle_memo` each distinct (bundle, mu, lam) is computed once."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    return memoised(bundle, ("lagrangian", mu.tobytes(), lam.tobytes()),
                    lambda: _lagrangian(bundle, mu, lam))


def _lagrangian(bundle: DerivativeBundle, mu: np.ndarray, lam: np.ndarray) -> LagrangianEval:
    value = bundle.f + float(mu @ bundle.h) - float(lam @ bundle.g)
    grad_y = bundle.fy + bundle.h_jy.T @ mu - bundle.g_jy.T @ lam
    grad_x = bundle.fx + bundle.h_jx.T @ mu - bundle.g_jx.T @ lam
    yy = bundle.fyy + np.einsum("k,kij->ij", mu, bundle.h_yy) - np.einsum(
        "k,kij->ij", lam, bundle.g_yy
    )
    yx = bundle.fyx + np.einsum("k,kij->ij", mu, bundle.h_yx) - np.einsum(
        "k,kij->ij", lam, bundle.g_yx
    )
    xx = bundle.fxx + np.einsum("k,kij->ij", mu, bundle.h_xx) - np.einsum(
        "k,kij->ij", lam, bundle.g_xx
    )
    for arr in (grad_y, grad_x, yy, yx, xx):
        arr.flags.writeable = False
    return LagrangianEval(value=value, grad_y=grad_y, grad_x=grad_x, yy=yy, yx=yx, xx=xx)


def kkt_residual_lower(spec: ProblemSpec, x, y, mu, lam) -> tuple[np.ndarray, float]:
    """Stacked residual (grad_y L; h; g - Pi_{<=0}(lam + g)) and its inf-norm."""
    bundle = eval_bundle(spec, x, y)
    return kkt_residual_from_bundle(bundle, lagrangian_eval(bundle, mu, lam), lam)


def kkt_residual_from_bundle(bundle: DerivativeBundle, lag: LagrangianEval,
                             lam) -> tuple[np.ndarray, float]:
    lam = np.asarray(lam, dtype=float).reshape(-1)
    proj = np.minimum(lam + bundle.g, 0.0)
    residual = np.concatenate([lag.grad_y, bundle.h, bundle.g - proj])
    norm = float(np.max(np.abs(residual), initial=0.0))
    return residual, norm


@dataclass
class ActivePartition:
    """Active-set split: alpha (active, multiplier above the SC threshold),
    beta (active, multiplier at or below it), gamma (inactive)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(self.alpha + self.beta))

    @property
    def size(self) -> int:
        return len(self.alpha) + len(self.beta) + len(self.gamma)


def active_set(g: np.ndarray, tol_act: float) -> tuple[int, ...]:
    """The inner activity test: the indices i with |g_i| <= tol_act."""
    return tuple(i for i in range(g.shape[0]) if abs(g[i]) <= tol_act)


def classify_partition(g: np.ndarray, lam: np.ndarray, tol_act: float,
                       tol_sc: float) -> ActivePartition:
    """The one partition rule: an active index is in alpha when its
    multiplier exceeds max(tol_act, tol_sc), else in beta; the others are
    gamma.  Whether (g, lam) is feasible and signed is `analyse_inner`'s
    decision, not the partition's."""
    g = np.asarray(g, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if g.shape != lam.shape:
        raise ValueError("g and lam must have equal lengths")
    active, threshold = active_set(g, tol_act), max(tol_act, tol_sc)
    alpha = tuple(i for i in active if lam[i] > threshold)
    beta = tuple(i for i in active if lam[i] <= threshold)
    return ActivePartition(alpha, beta, tuple(i for i in range(g.shape[0]) if i not in active))


@dataclass
class RecoveredMultipliers:
    """Least-squares multipliers over the active set and their KKT residual."""

    mu: np.ndarray
    lam: np.ndarray
    residual: float
    active: tuple[int, ...]


def licq_sigma(bundle: DerivativeBundle, active: tuple[int, ...]) -> float:
    """sigma_min of the inner constraint Jacobian (J_y h; J_y g[active]),
    +inf without constraint rows."""
    return smallest_singular_value(np.vstack([bundle.h_jy, bundle.g_jy[list(active)]]))


def critical_curvature(bundle: DerivativeBundle, lag: LagrangianEval,
                       partition: ActivePartition) -> tuple[Cone, float]:
    """The inner critical cone at a KKT point in reduced form (stationarity
    makes the objective-gradient row redundant: equalities on alpha,
    inequalities on beta), with read-only E and F, and the largest
    eigenvalue of L_yy on its affine hull ker E."""
    cone = Cone(np.vstack([bundle.h_jy, bundle.g_jy[list(partition.alpha)]]),
                bundle.g_jy[list(partition.beta)])
    cone.E.flags.writeable = cone.F.flags.writeable = False
    return cone, max_eigenvalue_on_subspace(lag.yy, cone.hull)


def recover_multipliers(spec: ProblemSpec, x, y,
                        config: CheckConfig | None = None) -> RecoveredMultipliers:
    """Least-squares multipliers from stationarity over the active set, as
    read-only arrays, with their KKT residual; whether they are KKT
    multipliers is `analyse_inner`'s decision."""
    bundle = eval_bundle(spec, x, y)
    active = active_set(bundle.g, (config or CheckConfig()).tol_act)
    M = np.hstack([bundle.h_jy.T, -bundle.g_jy[list(active)].T])
    mu, lam = np.zeros(spec.m1), np.zeros(spec.m2)
    if M.shape[1]:
        z, *_ = np.linalg.lstsq(M, -bundle.fy, rcond=None)
        mu, lam[list(active)] = z[: spec.m1], z[spec.m1:]
    _, norm = kkt_residual_from_bundle(bundle, lagrangian_eval(bundle, mu, lam), lam)
    mu.flags.writeable = lam.flags.writeable = False
    return RecoveredMultipliers(mu=mu, lam=lam, residual=norm, active=active)


# the lower_kkt fault whose evidence is the residual itself, not a detail
KKT_RESIDUAL_TOO_LARGE = "kkt residual too large"


def _kkt_fault(bundle: DerivativeBundle, lam: np.ndarray, residual: float,
               config: CheckConfig) -> str:
    """Why (mu, lam) are no KKT multipliers at the bundle's point, "" when
    they are: the residual beyond tol_kkt, or the one sign rule, a multiplier
    below -tol_act or one above tol_act on an inactive row."""
    if residual > config.tol_kkt:
        return KKT_RESIDUAL_TOO_LARGE
    tol = config.tol_act
    for i, (g, lam_i) in enumerate(zip(bundle.g, lam)):
        if lam_i < -tol:
            return f"no KKT multipliers: index {i + 1}: negative multiplier {lam_i:.3e}"
        if abs(g) > tol and lam_i > tol:
            return (f"no KKT multipliers: index {i + 1}: inactive (g = {g:.3e}) "
                    f"with positive multiplier {lam_i:.3e}")
    return ""


@dataclass
class InnerAnalysis:
    """One analysis of the inner KKT point at a candidate: its bundle, its
    inner feasibility notes (empty when feasible at tol_act), the multipliers
    it runs at with their `multipliers` report row, one partition and every
    inner check.  Jacobian uniqueness and Assumption A are two readings of
    it (`first_failing`)."""

    bundle: DerivativeBundle
    infeasible: list[str]
    multipliers: ConditionCheck
    mu: np.ndarray
    lam: np.ndarray
    checks: dict[str, ConditionCheck]
    partition: ActivePartition | None = None
    cone: Cone | None = None

    def first_failing(self, hypothesis: tuple[str, ...]) -> str | None:
        """The first condition of `hypothesis` that is not satisfied, None
        when it holds."""
        return next((name for name in hypothesis if not self.checks[name].ok), None)

    @property
    def jacobian_uniqueness(self) -> bool:
        return self.first_failing(JACOBIAN_UNIQUENESS) is None

    @property
    def assumption_a(self) -> bool:
        return self.first_failing(ASSUMPTION_A) is None


def _require_smooth(spec: ProblemSpec):
    if not spec.smooth_for_conditions:
        raise NonsmoothDataError(
            "problem uses abs() or sign(); condition checks require twice "
            "continuously differentiable data"
        )


def _resolve_multipliers(spec, bundle, mu, lam, config):
    """Supplied multipliers when they pass the KKT test, else recovered ones,
    reporting both on a mismatch: (mu, lam, their KKT residual, the
    `multipliers` row)."""
    supplied = None
    if mu is not None or lam is not None:
        mu = np.zeros(spec.m1) if mu is None else np.asarray(mu, dtype=float).reshape(-1)
        lam = np.zeros(spec.m2) if lam is None else np.asarray(lam, dtype=float).reshape(-1)
        _, supplied = kkt_residual_from_bundle(bundle, lagrangian_eval(bundle, mu, lam), lam)
        if not _kkt_fault(bundle, lam, supplied, config):
            return mu, lam, supplied, ConditionCheck(
                "multipliers", SATISFIED, supplied, config.tol_kkt,
                detail="supplied multipliers verified")
    rec = recover_multipliers(spec, bundle.x, bundle.y, config)
    detail = f"multipliers recovered by least squares (residual {rec.residual:.3e})"
    if supplied is not None:
        detail = (f"supplied multipliers rejected (residual {supplied:.3e}); "
                  f"recomputed values used (residual {rec.residual:.3e})")
    return rec.mu, rec.lam, rec.residual, ConditionCheck(
        "multipliers", SATISFIED, supplied, config.tol_kkt, detail=detail)


def analyse_inner(spec: ProblemSpec, x, y, mu=None, lam=None,
                  config: CheckConfig | None = None) -> InnerAnalysis:
    """The inner analysis at (x, y), at the supplied (mu, lam) when they pass
    the KKT test, else at least-squares ones.

    Its checks: `lower_kkt` (feasible, residual within tol_kkt, the sign
    rule); `lower_licq` at the active set {|g_i| <= tol_act}, decided whether
    or not KKT holds, since it is the hypothesis under which KKT is
    necessary; and at a KKT point `lower_strict_complementarity`, satisfied
    exactly when beta is empty (margin: the least active multiplier, +inf
    with none), `lower_strong_sosc` (the largest eigenvalue of L_yy on the
    critical cone's affine hull), and `lower_sosc` and
    `lower_second_order_necessary` on the cone itself, which read that bound
    unless the cone has faces and the bound fails; the exact face test
    settles them then."""
    config = config or CheckConfig()
    bundle = eval_bundle(spec, x, y)
    _require_smooth(spec)
    infeasible = []
    if bundle.h.size and float(np.max(np.abs(bundle.h))) > config.tol_act:
        infeasible.append(f"|h| = {float(np.max(np.abs(bundle.h))):.3e}")
    if bundle.g.size and float(np.max(bundle.g)) > config.tol_act:
        infeasible.append(f"max g = {float(np.max(bundle.g)):.3e}")
    mu, lam, residual, multipliers = _resolve_multipliers(spec, bundle, mu, lam, config)
    if infeasible:
        why = "infeasible: " + "; ".join(infeasible)
    else:
        why = _kkt_fault(bundle, lam, residual, config)
    sigma = licq_sigma(bundle, active_set(bundle.g, config.tol_act))
    analysis = InnerAnalysis(bundle, infeasible, multipliers, mu, lam, {
        "lower_kkt": ConditionCheck(
            "lower_kkt", VIOLATED if why else SATISFIED, residual, config.tol_kkt,
            detail="" if why == KKT_RESIDUAL_TOO_LARGE else why),
        "lower_licq": ConditionCheck(
            "lower_licq", SATISFIED if sigma >= config.tol_licq else VIOLATED, sigma,
            config.tol_licq),
    })
    checks = analysis.checks
    if why:
        for name in ("lower_strict_complementarity", "lower_sosc", "lower_strong_sosc"):
            checks[name] = ConditionCheck(name, INCONCLUSIVE, None, None, detail=why)
        checks["lower_second_order_necessary"] = ConditionCheck(
            "lower_second_order_necessary", SKIPPED, None, config.tol_pd, detail="no KKT point")
        return analysis

    partition = analysis.partition = classify_partition(bundle.g, lam, config.tol_act,
                                                        config.tol_sc)
    # the margin is the least active multiplier; 0.0 + clears a negative zero
    checks["lower_strict_complementarity"] = ConditionCheck(
        "lower_strict_complementarity", VIOLATED if partition.beta else SATISFIED,
        0.0 + float(np.min(lam[list(partition.active)], initial=np.inf)),
        max(config.tol_act, config.tol_sc))

    # one curvature bound on aff C = ker E serves every second-order check
    # unless C has faces and the bound fails; then the face test gives the
    # largest curvature on C itself, with a unit direction attaining it
    lag = lagrangian_eval(bundle, mu, lam)
    analysis.cone, hull = critical_curvature(bundle, lag, partition)
    top, witness, detail = hull, None, "negative definite on aff C" if partition.beta else ""
    if partition.beta and hull > -config.tol_pd:
        exact = min_quadratic_on_cone(-lag.yy, analysis.cone)
        if exact is None:
            top, detail = None, budget_detail()
        else:
            top, detail = 0.0 - exact[0], "largest curvature on C from its faces"
            witness = None if exact[1] is None else exact[1].tolist()
    for name, bound in (("lower_sosc", -config.tol_pd),
                        ("lower_second_order_necessary", config.tol_pd)):
        status = INCONCLUSIVE if top is None else SATISFIED if top <= bound else VIOLATED
        checks[name] = ConditionCheck(
            name, status, top, config.tol_pd, witness=witness if status == VIOLATED else None,
            detail=detail if name == "lower_sosc" or top is None else "")
    checks["lower_strong_sosc"] = ConditionCheck(
        "lower_strong_sosc", SATISFIED if hull <= -config.tol_pd else VIOLATED, hull,
        config.tol_pd)
    return analysis


def check_jacobian_uniqueness(
    spec: ProblemSpec, x, y, mu, lam, config: CheckConfig | None = None
) -> InnerAnalysis:
    """The inner analysis at the supplied multipliers (recovered ones when
    they fail the KKT test), read for Jacobian uniqueness
    (`JACOBIAN_UNIQUENESS`): (a) KKT, (b) LICQ, (c) strict complementarity,
    (d) second-order sufficiency on the critical cone."""
    return analyse_inner(spec, x, y, mu, lam, config)


def check_assumption_a(
    spec: ProblemSpec, x, y, config: CheckConfig | None = None
) -> InnerAnalysis:
    """The inner analysis at recovered multipliers, read for Assumption A
    (`ASSUMPTION_A`): KKT multipliers exist, LICQ, and strong SOSC on the
    affine hull of the critical cone.  LICQ makes the multiplier set a
    singleton, so the sup in the strong condition is a single evaluation."""
    return analyse_inner(spec, x, y, config=config)


# ---------------------------------------------------------------------------
# Newton solver for the parametric solution map


@dataclass
class KktSolution:
    """Inner KKT triple at one x, with slacks w_i = sqrt(max(0, -g_i))."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    residual: float
    trace: list[float] = field(default_factory=list)
    iterations: int = 0
    notes: str = ""  # solve_lower leaves it empty; perfbench's tracer still reads it


def kkt_jacobian_blocks(lag: LagrangianEval, bundle: DerivativeBundle, w_diag: np.ndarray):
    """Exact derivative of the projected KKT map w.r.t. (y, mu, lam) for a
    fixed projection selector W = Diag(w_diag): rows (stationarity; h; g-proj).
    A stack of selectors, w_diag of shape (S, m2), gives the stack of matrices."""
    w_diag = np.asarray(w_diag, dtype=float)
    m, m1, m2 = lag.yy.shape[0], bundle.h.shape[0], bundle.g.shape[0]
    size = m + m1 + m2
    A = np.zeros(w_diag.shape[:-1] + (size, size))
    A[..., :m, :m] = lag.yy
    A[..., :m, m : m + m1] = bundle.h_jy.T
    A[..., :m, m + m1 :] = -bundle.g_jy.T
    A[..., m : m + m1, :m] = bundle.h_jy
    if m2:
        A[..., m + m1 :, :m] = (1.0 - w_diag)[..., :, None] * bundle.g_jy
        # the bits of -np.diag(w_diag): -0.0 off the diagonal
        A[..., m + m1 :, m + m1 :] = -(w_diag[..., :, None] * np.eye(m2))
    return A


def solve_lower(
    spec: ProblemSpec,
    x,
    seed: tuple,
    config: CheckConfig | None = None,
) -> KktSolution:
    """Solve the inner KKT system at x from a seed (y0, mu0, lam0) by
    semismooth Newton on the projected system, until the residual is at most
    `tol_newton`.  The solution's residual and slacks are those of the last
    iterate, whose point is not evaluated again."""
    config = config or CheckConfig()
    m, m1, m2 = spec.m, spec.m1, spec.m2
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y0, mu0, lam0 = seed
    y = np.array(y0, dtype=float, ndmin=1)
    mu = np.zeros(m1) if mu0 is None else np.array(mu0, dtype=float, ndmin=1)
    lam = np.zeros(m2) if lam0 is None else np.array(lam0, dtype=float, ndmin=1)
    trace: list[float] = []
    for it in range(config.newton_max_iter):
        bundle = eval_bundle(spec, x, y)
        lag = lagrangian_eval(bundle, mu, lam)
        F, res = kkt_residual_from_bundle(bundle, lag, lam)
        trace.append(res)
        if res <= config.tol_newton:
            w = np.sqrt(np.maximum(0.0, -bundle.g))
            return KktSolution(x, y, w, mu, lam, res, trace, len(trace))
        if not np.isfinite(res) or (len(trace) > DIVERGENCE_MIN_STEPS
                                    and res > DIVERGENCE_GROWTH * (1.0 + trace[0])):
            raise NewtonError(f"divergence at iteration {it} (residual {res:.3e})", trace)
        w_diag = (lam + bundle.g < 0.0).astype(float) if m2 else np.zeros(0)
        A = kkt_jacobian_blocks(lag, bundle, w_diag)
        try:
            delta = solve_linear(A, -F)
        except SingularMatrixError as exc:
            raise NewtonError(f"singular semismooth Newton matrix: {exc}", trace) from exc
        y = y + delta[:m]
        mu = mu + delta[m : m + m1]
        lam = lam + delta[m + m1 :]
    raise NewtonError(
        f"no convergence in {config.newton_max_iter} iterations "
        f"(last residual {trace[-1]:.3e})",
        trace,
    )
