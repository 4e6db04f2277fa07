"""Inner maximization analysis: KKT residuals, active-set partitions,
constraint qualifications, second-order conditions (sufficient `lower_sosc`,
necessary `lower_second_order_necessary`, strong `lower_strong_sosc`), and
the semismooth Newton solver for the parametric solution map.

Jacobian uniqueness and Assumption A are conditions on the same inner KKT
point and share one analysis of it: the activity test `active_set`, one
LICQ check there, and `critical_curvature`, the critical cone with the
largest eigenvalue of L_yy on its affine hull (`Cone.hull`), once per
Lagrangian and partition.  Each check carries the name a `certify` report
prints, and `JACOBIAN_UNIQUENESS` and `ASSUMPTION_A` list each hypothesis's
conditions once, in the order that names the first to fail.

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
ASSUMPTION_A = ("multipliers_exist", "lower_licq", "lower_strong_sosc")


class PartitionError(Exception):
    """An index fits none of the (alpha, beta, gamma) classes."""


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
    """Active-set split: alpha (active, positive multiplier), beta (active,
    zero multiplier), gamma (inactive, zero multiplier)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(self.alpha + self.beta))

    @property
    def size(self) -> int:
        return len(self.alpha) + len(self.beta) + len(self.gamma)


def classify_partition(g: np.ndarray, lam: np.ndarray, tol_act: float) -> ActivePartition:
    g = np.asarray(g, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if g.shape != lam.shape:
        raise ValueError("g and lam must have equal lengths")
    alpha, beta, gamma = [], [], []
    for i in range(g.shape[0]):
        if g[i] > tol_act:
            raise PartitionError(f"index {i + 1}: infeasible inequality g = {g[i]:.3e} > 0")
        if lam[i] < -tol_act:
            raise PartitionError(f"index {i + 1}: negative multiplier {lam[i]:.3e}")
        if abs(g[i]) <= tol_act:
            (alpha if lam[i] > tol_act else beta).append(i)
        else:
            if lam[i] > tol_act:
                raise PartitionError(
                    f"index {i + 1}: inactive (g = {g[i]:.3e}) with positive "
                    f"multiplier {lam[i]:.3e}"
                )
            gamma.append(i)
    return ActivePartition(tuple(alpha), tuple(beta), tuple(gamma))


@dataclass
class RecoveredMultipliers:
    mu: np.ndarray
    lam: np.ndarray
    residual: float
    active: tuple[int, ...]
    admissible: bool  # feasible, no multiplier below -tol_act; lam then clipped at 0
    detail: str = ""


def active_set(bundle: DerivativeBundle, tol_act: float) -> tuple[int, ...]:
    """The inner activity test: the indices i with |g_i| <= tol_act."""
    return tuple(i for i in range(bundle.g.shape[0]) if abs(bundle.g[i]) <= tol_act)


def licq_sigma(bundle: DerivativeBundle, active: tuple[int, ...]) -> float:
    """sigma_min of the inner constraint Jacobian (J_y h; J_y g[active]),
    +inf without constraint rows.  Inside `bundle_memo` each distinct
    (bundle, active) runs one SVD."""
    return memoised(bundle, ("licq_sigma", active), lambda: _licq_sigma(bundle, active))


def _licq_sigma(bundle: DerivativeBundle, active: tuple[int, ...]) -> float:
    return smallest_singular_value(np.vstack([bundle.h_jy, bundle.g_jy[list(active)]]))


def _licq_check(bundle: DerivativeBundle, config: CheckConfig) -> ConditionCheck:
    """LICQ at the active set, which both inner hypotheses read."""
    sigma = licq_sigma(bundle, active_set(bundle, config.tol_act))
    return ConditionCheck("lower_licq", SATISFIED if sigma >= config.tol_licq else VIOLATED,
                          sigma, config.tol_licq)


def critical_curvature(bundle: DerivativeBundle, lag: LagrangianEval,
                       partition: ActivePartition) -> tuple[Cone, float]:
    """The inner critical cone at a KKT point in reduced form (stationarity
    makes the objective-gradient row redundant: equalities on alpha,
    inequalities on beta), and the largest eigenvalue of L_yy on its affine
    hull ker E.  Inside `bundle_memo` each distinct (Lagrangian, alpha, beta)
    is built once."""
    return memoised(lag, ("critical_curvature", partition.alpha, partition.beta),
                    lambda: _critical_curvature(bundle, lag, partition))


def _critical_curvature(bundle: DerivativeBundle, lag: LagrangianEval,
                        partition: ActivePartition) -> tuple[Cone, float]:
    cone = Cone(np.vstack([bundle.h_jy, bundle.g_jy[list(partition.alpha)]]),
                bundle.g_jy[list(partition.beta)])
    cone.E.flags.writeable = cone.F.flags.writeable = False
    return cone, max_eigenvalue_on_subspace(lag.yy, cone.hull)


def recover_multipliers(spec: ProblemSpec, x, y,
                        config: CheckConfig | None = None) -> RecoveredMultipliers:
    """Least-squares multipliers from stationarity over the active set, as
    read-only arrays.  Inside `bundle_memo` each distinct (x, y, tol_act) is
    recovered once."""
    tol_act = (config or CheckConfig()).tol_act
    bundle = eval_bundle(spec, x, y)
    return memoised(bundle, ("multipliers", tol_act),
                    lambda: _recover_multipliers(spec, bundle, tol_act))


def _recover_multipliers(spec: ProblemSpec, bundle: DerivativeBundle,
                         tol_act: float) -> RecoveredMultipliers:
    active = list(active_set(bundle, tol_act))
    feas_notes = []
    if np.any(bundle.g > tol_act):
        feas_notes.append("inequality infeasible")
    if bundle.h.size and float(np.max(np.abs(bundle.h))) > tol_act:
        feas_notes.append("equality infeasible")
    cols = []
    if spec.m1:
        cols.append(bundle.h_jy.T)
    if active:
        cols.append(-bundle.g_jy[active].T)
    mu = np.zeros(spec.m1)
    lam = np.zeros(spec.m2)
    if cols:
        M = np.hstack(cols)
        z, *_ = np.linalg.lstsq(M, -bundle.fy, rcond=None)
        mu = z[: spec.m1]
        for j, i in enumerate(active):
            lam[i] = z[spec.m1 + j]
    neg = float(np.min(lam[active], initial=0.0)) if active else 0.0
    if neg < -tol_act:
        feas_notes.append("negative recovered multiplier")
    elif not feas_notes:
        lam = np.maximum(lam, 0.0)
    _, norm = kkt_residual_from_bundle(bundle, lagrangian_eval(bundle, mu, lam), lam)
    mu.flags.writeable = lam.flags.writeable = False
    return RecoveredMultipliers(
        mu=mu,
        lam=lam,
        residual=norm,
        active=tuple(active),
        admissible=not feas_notes,
        detail="; ".join(feas_notes),
    )


@dataclass
class LowerConditionsReport:
    """Verdicts for the inner problem at a candidate, with numeric evidence."""

    checks: dict[str, ConditionCheck]
    partition: ActivePartition | None = None
    cone: Cone | None = None
    mu: np.ndarray | None = None
    lam: np.ndarray | None = None

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


def check_jacobian_uniqueness(
    spec: ProblemSpec, x, y, mu, lam, config: CheckConfig | None = None
) -> LowerConditionsReport:
    """Def-style check of (a) KKT, (b) LICQ, (c) strict complementarity,
    (d) second-order sufficiency on the critical cone (`lower_sosc`), plus
    the second-order necessary condition, curvature <= 0 on that cone
    (`lower_second_order_necessary`).
    LICQ is decided at the active set {|g_i| <= tol_act} whether or not KKT
    holds, since it is the hypothesis under which KKT is necessary; the
    others need a KKT point.  Both curvature checks read one eigenvalue
    bound on the cone's affine hull; when the cone has faces and the bound
    fails, the exact face test settles them."""
    config = config or CheckConfig()
    _require_smooth(spec)
    bundle = eval_bundle(spec, x, y)
    mu = np.zeros(spec.m1) if mu is None else np.asarray(mu, dtype=float).reshape(-1)
    lam = np.zeros(spec.m2) if lam is None else np.asarray(lam, dtype=float).reshape(-1)
    checks: dict[str, ConditionCheck] = {}
    lag = lagrangian_eval(bundle, mu, lam)
    _, norm = kkt_residual_from_bundle(bundle, lag, lam)
    # a residual within tol_kkt may still leave a sign outside tol_act
    partition, why, detail = None, "kkt residual too large", ""
    if norm <= config.tol_kkt:
        try:
            partition = classify_partition(bundle.g, lam, config.tol_act)
        except PartitionError as exc:
            why = detail = f"no active-set partition: {exc}"
    checks["lower_kkt"] = ConditionCheck("lower_kkt", VIOLATED if partition is None else SATISFIED,
                                         norm, config.tol_kkt, detail=detail)
    checks["lower_licq"] = _licq_check(bundle, config)
    if partition is None:
        for name in ("lower_strict_complementarity", "lower_sosc"):
            checks[name] = ConditionCheck(name, INCONCLUSIVE, None, None, detail=why)
        checks["lower_second_order_necessary"] = ConditionCheck(
            "lower_second_order_necessary", SKIPPED, None, config.tol_pd, detail="no KKT point")
        return LowerConditionsReport(checks=checks, mu=mu, lam=lam)

    margin = (
        float(np.min(lam - bundle.g)) if spec.m2 else np.inf
    )
    sc_ok = margin >= config.tol_sc
    checks["lower_strict_complementarity"] = ConditionCheck(
        "lower_strict_complementarity", SATISFIED if sc_ok else VIOLATED, margin, config.tol_sc
    )

    # one curvature bound on aff C = ker E serves both second-order checks
    # unless C has faces and the bound fails; then the face test gives the
    # largest curvature on C itself, with a unit direction attaining it
    cone, top = critical_curvature(bundle, lag, partition)
    witness, detail = None, "negative definite on aff C" if partition.beta else ""
    if partition.beta and top > -config.tol_pd:
        exact = min_quadratic_on_cone(-lag.yy, cone)
        if exact is None:
            detail = budget_detail()
            for name in ("lower_sosc", "lower_second_order_necessary"):
                checks[name] = ConditionCheck(name, INCONCLUSIVE, None, config.tol_pd,
                                              detail=detail)
            return LowerConditionsReport(checks=checks, partition=partition, cone=cone,
                                         mu=mu, lam=lam)
        top, detail = 0.0 - exact[0], "largest curvature on C from its faces"
        witness = None if exact[1] is None else exact[1].tolist()
    for name, ok in (("lower_sosc", top <= -config.tol_pd),
                     ("lower_second_order_necessary", top <= config.tol_pd)):
        checks[name] = ConditionCheck(
            name, SATISFIED if ok else VIOLATED, top, config.tol_pd,
            witness=None if ok else witness, detail=detail if name == "lower_sosc" else "",
        )
    return LowerConditionsReport(checks=checks, partition=partition, cone=cone, mu=mu, lam=lam)


def check_assumption_a(
    spec: ProblemSpec, x, y, config: CheckConfig | None = None
) -> LowerConditionsReport:
    """Nonempty multiplier set + LICQ + strong SOSC on the affine hull of the
    critical cone.  LICQ makes the multiplier set a singleton, so the sup in
    the strong condition is a single evaluation."""
    config = config or CheckConfig()
    _require_smooth(spec)
    bundle = eval_bundle(spec, x, y)
    rec = recover_multipliers(spec, x, y, config)
    checks: dict[str, ConditionCheck] = {}
    exist = rec.admissible and rec.residual <= config.tol_kkt
    checks["multipliers_exist"] = ConditionCheck(
        "multipliers_exist", SATISFIED if exist else VIOLATED, rec.residual, config.tol_kkt,
        detail=rec.detail,
    )
    checks["lower_licq"] = _licq_check(bundle, config)
    partition = cone = None
    if exist:
        partition = classify_partition(bundle.g, rec.lam, config.tol_act)
        cone, top = critical_curvature(bundle, lagrangian_eval(bundle, rec.mu, rec.lam),
                                       partition)
        checks["lower_strong_sosc"] = ConditionCheck(
            "lower_strong_sosc", SATISFIED if top <= -config.tol_pd else VIOLATED, top,
            config.tol_pd,
        )
    else:
        checks["lower_strong_sosc"] = ConditionCheck(
            "lower_strong_sosc", INCONCLUSIVE, None, config.tol_pd,
            detail="no KKT multipliers recovered",
        )
    return LowerConditionsReport(
        checks=checks, partition=partition, cone=cone, mu=rec.mu, lam=rec.lam
    )


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
