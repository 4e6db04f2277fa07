"""Certification pipeline: route a candidate down the smooth or nonsmooth
path, run every applicable condition, and assemble the verdict.

`classify_path` decides the path from the inner hypotheses
(`lower.JACOBIAN_UNIQUENESS`, `lower.ASSUMPTION_A`), and its `PathDecision`
carries the report rows it was read from, so each row is built once, where
its evidence is.

Each condition holds under named hypotheses, and `conditions.POLICY` is
their one table: for each deciding check, its kind and the checks that must
be `satisfied` in the same report, which every result reads from its name as
`kind` and `requires`.  A check that cannot be computed without its
requirements goes through `_gated`, which reports it `skipped` ("requires
...") when one is missing; the others are computed anyway and keep their
status.  `overall_verdict` is the one rule: a violated necessary check
refutes only when its requirements are all satisfied, and a satisfied
sufficient check with its requirements certifies, on the smooth path only.
It also names the checks the verdict was decided by.

After classification one runner, `_run_path`, serves both paths: the
smooth path is the |beta| = 0 case, one projection selector, and
`_PATH_ROWS` names each path's rows.  Both levels' second-order conditions
are decided exactly on the critical cone's faces.  Nonsmooth first order
(`first_order_nonsmooth`) asks of the runner's outer polytope whether
grad_x L admits an outer multiplier; while beta is nonempty a negative
answer does not refute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import (
    ERROR,
    FIRST_ORDER,
    INCONCLUSIVE,
    KIND_NECESSARY,
    KIND_SUFFICIENT,
    POLICY,
    SATISFIED,
    SKIPPED,
    VIOLATED,
    ConditionCheck,
)
from .config import CheckConfig
from .expressions import DomainError
from .lower import (
    ASSUMPTION_A,
    JACOBIAN_UNIQUENESS,
    NewtonError,
    NonsmoothDataError,
    check_assumption_a,
    check_jacobian_uniqueness,
    eval_bundle,
    kkt_residual_lower,
    recover_multipliers,
    solve_lower,
)
from .nonsmooth import LAMBDA_SIGN_CONVENTION, SelectorCapError, selector_sweep
from .oracle import GridTooLargeError, verify_minimax_definition
from .problem import (
    CandidatePoint,
    CandidateShapeError,
    ProblemSpec,
    bundle_memo,
    problem_digest,
)
from .upper import (
    check_mfcq,
    compute_upper_active_set,
    first_order_nonsmooth,
    second_order_necessary,
    second_order_sufficient,
    upper_kkt_and_polytope,
)
from .value_function import SingularSensitivityError, value_derivatives

VERSION = "0.1.0"

VERDICT_CERTIFIED = "certified-local-minimax"
VERDICT_NECESSARY = "necessary-conditions-pass"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"

PATH_SMOOTH = "smooth"
PATH_NONSMOOTH = "nonsmooth"
PATH_INVALID = "invalid"

# the error check that ends a run whose evaluation failed
CHECK_EVALUATION = "evaluation"

@dataclass
class PathDecision:
    """The path, the first failing condition on the invalid path, the inner
    multipliers the path runs at, and the report rows it was read from."""

    path: str
    first_failing: str | None
    mu: np.ndarray
    lam: np.ndarray
    rows: list[ConditionCheck]


def _resolve_multipliers(spec, candidate: CandidatePoint, config: CheckConfig):
    """Verify supplied multipliers or recover them, reporting both on a
    mismatch: (mu, lam, the `multipliers` row)."""
    rec = recover_multipliers(spec, candidate.x, candidate.y, config)
    mu, lam, residual = rec.mu, rec.lam, None
    detail = f"multipliers recovered by least squares (residual {rec.residual:.3e})"
    if candidate.lam is not None or candidate.mu is not None:
        supplied_mu = candidate.mu if candidate.mu is not None else np.zeros(spec.m1)
        supplied_lam = candidate.lam if candidate.lam is not None else np.zeros(spec.m2)
        _, residual = kkt_residual_lower(spec, candidate.x, candidate.y,
                                         supplied_mu, supplied_lam)
        if (residual <= config.tol_kkt
                and float(np.min(supplied_lam, initial=0.0)) >= -config.tol_act):
            mu, lam, detail = supplied_mu, supplied_lam, "supplied multipliers verified"
        else:
            detail = (
                f"supplied multipliers rejected (residual {residual:.3e}); "
                f"recomputed values used (residual {rec.residual:.3e})"
            )
    return mu, lam, ConditionCheck("multipliers", SATISFIED, residual, config.tol_kkt,
                                   detail=detail)


def classify_path(
    spec: ProblemSpec, candidate: CandidatePoint, config: CheckConfig | None = None
) -> PathDecision:
    """smooth iff Jacobian uniqueness holds; nonsmooth iff the standing
    regularity assumption holds while strict complementarity fails;
    invalid otherwise, naming the first failing condition.  The decision
    carries the report rows it was read from: feasibility, multipliers and
    the inner checks, then, when Assumption A was tested, `assumption_a`
    (after `lower_strong_sosc` on the nonsmooth path)."""
    config = config or CheckConfig()
    candidate.validate_against(spec)
    bundle = eval_bundle(spec, candidate.x, candidate.y)
    feas_notes = []
    if bundle.h.size and float(np.max(np.abs(bundle.h))) > config.tol_act:
        feas_notes.append(f"|h| = {float(np.max(np.abs(bundle.h))):.3e}")
    if bundle.g.size and float(np.max(bundle.g)) > config.tol_act:
        feas_notes.append(f"max g = {float(np.max(bundle.g)):.3e}")
    upper_set = compute_upper_active_set(spec, candidate.x, config)
    if not upper_set.feasible:
        feas_notes.append(f"outer violation {upper_set.worst_violation:.3e}")
    mu, lam, multipliers = _resolve_multipliers(spec, candidate, config)
    rows = [ConditionCheck("feasibility", VIOLATED if feas_notes else SATISFIED, None,
                           config.tol_act, detail="; ".join(feas_notes)),
            multipliers]
    if feas_notes:
        return PathDecision(PATH_INVALID, "feasibility", mu, lam, rows)
    ju = check_jacobian_uniqueness(spec, candidate.x, candidate.y, mu, lam, config)
    rows += ju.checks.values()
    first = ju.first_failing(JACOBIAN_UNIQUENESS)
    if first is None:
        return PathDecision(PATH_SMOOTH, None, mu, lam, rows)
    assa = check_assumption_a(spec, candidate.x, candidate.y, config)
    if first == "lower_strict_complementarity":
        # strict complementarity alone would route to the nonsmooth path, so
        # the real blocker is whatever failed in the standing assumption
        first = assa.first_failing(ASSUMPTION_A)
    strong = assa.checks["lower_strong_sosc"]
    # the qualification, valued by the strong SOSC bound
    qualification = ConditionCheck(
        "assumption_a", SATISFIED if assa.assumption_a else VIOLATED, strong.value,
        config.tol_pd, detail="" if first is None else f"first failing condition: {first}",
    )
    if first is None:
        return PathDecision(PATH_NONSMOOTH, None, assa.mu, assa.lam,
                            [*rows, strong, qualification])
    return PathDecision(PATH_INVALID, first, mu, lam, [*rows, qualification])


@dataclass
class CertificateReport:
    problem_digest: str
    candidate: CandidatePoint
    path: str
    results: list[ConditionCheck]
    verdict: str
    config: CheckConfig
    notes: list[str] = field(default_factory=list)
    decided_by: list[str] = field(default_factory=list)


def _gated(results: list[ConditionCheck], name: str, tolerance, run):
    """Append `run()` when every check `name` requires is satisfied so far,
    else a `skipped` check that names the missing ones."""
    satisfied = {c.name for c in results if c.ok}
    missing = [r for r in POLICY[name][1] if r not in satisfied]
    results.append(
        ConditionCheck(name, SKIPPED, None, tolerance,
                       detail="requires " + ", ".join(missing))
        if missing else run()
    )


def overall_verdict(path: str, results: list[ConditionCheck]) -> tuple[str, list[str]]:
    """The verdict and the names of the checks it was decided by.

    `refuted`: each violated necessary check whose `requires` are all
    satisfied.  `certified-local-minimax`: each satisfied sufficient check
    whose `requires` are all satisfied, on the smooth path.
    `necessary-conditions-pass`: on either path, a first-order check that ran
    and every necessary check that ran satisfied; they are its deciders."""
    satisfied = {c.name for c in results if c.ok}
    verified = [c for c in results if satisfied.issuperset(c.requires)]
    refuting = [c.name for c in verified if c.kind == KIND_NECESSARY and c.status == VIOLATED]
    if refuting:
        return VERDICT_REFUTED, refuting
    certifying = [c.name for c in verified if c.kind == KIND_SUFFICIENT and c.ok]
    if path == PATH_SMOOTH and certifying:
        return VERDICT_CERTIFIED, certifying
    if path in (PATH_SMOOTH, PATH_NONSMOOTH):
        first_order = next((c for c in results if c.name in FIRST_ORDER), None)
        evaluated = [c for c in results if c.kind == KIND_NECESSARY and c.status != SKIPPED]
        if (
            first_order is not None
            and first_order.status not in (SKIPPED, ERROR)
            and all(c.ok for c in evaluated)
        ):
            return VERDICT_NECESSARY, [c.name for c in evaluated]
    return VERDICT_INCONCLUSIVE, []


@dataclass
class _Progress:
    """What a certify run has established so far."""

    results: list[ConditionCheck]
    notes: list[str]
    path: str = PATH_INVALID
    stage: str = "path classification"


def certify(
    spec: ProblemSpec, candidate: CandidatePoint, config: CheckConfig | None = None
) -> CertificateReport:
    """Run every applicable condition at the candidate and give the verdict.

    Within one call each distinct (x, y) is evaluated once (`bundle_memo`).
    An evaluation that fails (a value leaves its domain, the problem uses
    abs() or sign()) or a candidate whose shape does not match the problem
    ends the run with an `error` check, CHECK_EVALUATION, that names the
    stage it was in; such a run is never certified.  Other exceptions
    propagate."""
    config = config or CheckConfig()
    progress = _Progress([], [f"lambda sign convention: {LAMBDA_SIGN_CONVENTION}"])
    with bundle_memo():
        try:
            _pipeline(spec, candidate, config, progress)
        except (DomainError, NonsmoothDataError, CandidateShapeError) as exc:
            progress.results.append(
                ConditionCheck(CHECK_EVALUATION, ERROR, None, None,
                               detail=f"{progress.stage} failed: {exc}")
            )
    verdict, decided_by = overall_verdict(progress.path, progress.results)
    return CertificateReport(
        problem_digest=problem_digest(spec),
        candidate=candidate,
        path=progress.path,
        results=progress.results,
        verdict=verdict,
        config=config,
        notes=progress.notes,
        decided_by=decided_by,
    )


def _pipeline(spec, candidate, config, progress: _Progress):
    results, notes = progress.results, progress.notes
    decision = classify_path(spec, candidate, config)
    results.extend(decision.rows)
    if decision.first_failing == "feasibility":
        results.append(
            ConditionCheck("path", INCONCLUSIVE, None, None, detail="candidate infeasible")
        )
        return
    if decision.path == PATH_INVALID:
        notes.append(f"path invalid: first failing condition {decision.first_failing}")
        return

    progress.path = decision.path
    progress.stage = f"{decision.path} path"
    _run_path(spec, candidate, decision, config, results, notes)

    if config.run_oracle and spec.n <= 2 and spec.m <= 2:
        grid = config.oracle_grid()
        try:
            rep = verify_minimax_definition(spec, candidate.x, candidate.y, grid)
        except GridTooLargeError as exc:
            results.append(ConditionCheck("definition_oracle", SKIPPED, None, grid.tol,
                                          detail=str(exc)))
            return
        results.append(
            ConditionCheck(
                "definition_oracle",
                SATISFIED if rep.passed else VIOLATED,
                rep.worst_violation,
                grid.tol,
                witness=rep.worst_witness,
                detail=f"worst side: {rep.worst_side}" if rep.worst_side else "",
            )
        )


# path -> (its sweep's nonsingularity row, its first-order row, the row a
# failed inner refinement ends in)
_PATH_ROWS = {
    PATH_SMOOTH: ("sensitivity_system", "first_order", "sensitivity_system"),
    PATH_NONSMOOTH: ("b_selector_nonsingularity", "first_order_nonsmooth",
                     "first_order_nonsmooth"),
}


def _run_path(spec, candidate, decision, config, results, notes):
    """Either path after classification: refine y, test the selector sweep
    (the smooth path's is its one selector), check MFCQ, build the outer
    level on grad_x L once, decide first order, verify supplied (u, v), and,
    on the smooth path, run both second-order checks."""
    sweep_row, first_row, newton_row = _PATH_ROWS[decision.path]
    try:
        sol = solve_lower(spec, candidate.x, (candidate.y, decision.mu, decision.lam), config)
    except NewtonError as exc:
        results.append(
            ConditionCheck(newton_row, ERROR, None, None,
                           detail=f"inner refinement failed: {exc}")
        )
        return
    drift = float(np.max(np.abs(sol.y - candidate.y), initial=0.0))
    if drift > config.tol_act:
        notes.append(f"inner refinement moved y by {drift:.3e}")

    smooth = decision.path == PATH_SMOOTH
    try:
        # the smooth path takes its sweep from value_derivatives, with hess phi
        vd = value_derivatives(spec, sol, config) if smooth else None
        sweep = vd.sweep if smooth else selector_sweep(spec, sol, config)
    except SingularSensitivityError as exc:
        results.append(ConditionCheck(sweep_row, VIOLATED, exc.sigma_min, None, detail=str(exc)))
        return
    except SelectorCapError as exc:
        results += [ConditionCheck(sweep_row, ERROR, None, None, detail=str(exc)),
                    check_mfcq(spec, candidate.x, config),
                    ConditionCheck(first_row, ERROR, None, config.tol_kkt, detail=str(exc))]
        return
    margin = float(np.min(sweep.solved.sigma_min))
    detail = (f"condition estimate {float(sweep.solved.sigma_max[0]) / margin:.3e}" if smooth
              else f"{len(sweep.selectors)} binary selectors")
    # every A(x, W) must be invertible here; on the nonsmooth path strong
    # regularity makes the whole Clarke generalized Jacobian so
    results.append(
        ConditionCheck(sweep_row, VIOLATED if sweep.solved.singular.any() else SATISFIED,
                       margin, None, detail=detail)
    )
    mfcq = check_mfcq(spec, candidate.x, config)
    results.append(mfcq)

    poly = upper_kkt_and_polytope(spec, candidate.x, sweep.grad_x, config)
    if not smooth:
        _gated(results, first_row, config.tol_kkt,
               lambda: first_order_nonsmooth(sweep, poly, config))
    elif poly.nonempty:
        results.append(ConditionCheck(
            first_row, SATISFIED, poly.residual(*poly.point), config.tol_kkt,
            # by Gauvin (1977) the polytope is bounded exactly when MFCQ holds
            detail="" if mfcq.ok else "polytope unbounded (flagged)",
        ))
    else:
        results.append(ConditionCheck(
            first_row, VIOLATED, None, config.tol_kkt, witness=sweep.grad_x.tolist(),
            detail="no upper multipliers reproduce the value-function gradient",
        ))
    if candidate.u is not None or candidate.v is not None:
        results.append(_verify_upper_multipliers(spec, candidate, poly, config))
    if smooth:
        # the necessary check runs on poly.cone and the sufficient one on
        # poly.reduced, which every multiplier gives alike, so the LP point serves
        _gated(results, "second_order_necessary", config.tol_pd,
               lambda: second_order_necessary(vd, poly, config))
        _gated(results, "second_order_sufficient", config.tol_pd,
               lambda: second_order_sufficient(vd, poly, config))


def _verify_upper_multipliers(spec, candidate, poly, config):
    """Supplied (u, v) are verified against the stationarity system rather
    than recomputed; the polytope's own point stays in the polytope result."""
    u = candidate.u if candidate.u is not None else np.zeros(spec.n1)
    v = candidate.v if candidate.v is not None else np.zeros(spec.n2)
    residual = poly.residual(u, v)
    neg = float(np.min(v, initial=0.0))
    comp = float(np.max(np.abs(v * poly.data.G), initial=0.0))
    ok = residual <= config.tol_kkt and neg >= -config.tol_act and comp <= config.tol_act
    return ConditionCheck(
        "upper_multipliers",
        SATISFIED if ok else VIOLATED,
        residual,
        config.tol_kkt,
        detail="supplied (u, v) verified against the stationarity system"
        if ok
        else f"supplied (u, v) rejected (residual {residual:.3e}, "
        f"min v {neg:.3e}, complementarity {comp:.3e})",
    )
