"""Certification pipeline: route a candidate down the smooth or nonsmooth
path, run every applicable condition, and assemble the verdict.

Verdict rules: a violated necessary condition (with its preconditions
verified) refutes; a satisfied sufficient condition on the smooth path
certifies.  Both levels' second-order conditions are decided exactly on the
critical cone's faces; a search that is not exhaustive (the nonsmooth
first-order selector search with beta nonempty) never refutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import (
    ERROR,
    INCONCLUSIVE,
    KIND_INFO,
    KIND_NECESSARY,
    KIND_QUALIFICATION,
    KIND_SUFFICIENT,
    SATISFIED,
    SKIPPED,
    VIOLATED,
    ConditionCheck,
)
from .config import CheckConfig
from .expressions import DomainError
from .lower import (
    LowerConditionsReport,
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
    critical_cone_upper,
    first_order_nonsmooth_necessary,
    second_order_necessary,
    second_order_sufficient,
    upper_data,
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
    path: str
    first_failing: str | None
    mu: np.ndarray
    lam: np.ndarray
    ju_report: LowerConditionsReport | None
    assa_report: LowerConditionsReport | None
    feasible: bool
    feasibility_detail: str
    multiplier_detail: str
    supplied_residual: float | None = None
    licq_sigma: float = np.inf


def _resolve_multipliers(spec, candidate: CandidatePoint, config: CheckConfig):
    """Verify supplied multipliers or recover them; report both on mismatch."""
    rec = recover_multipliers(spec, candidate.x, candidate.y, config)
    supplied_residual = None
    detail = ""
    if candidate.lam is not None or candidate.mu is not None:
        mu = candidate.mu if candidate.mu is not None else np.zeros(spec.m1)
        lam = candidate.lam if candidate.lam is not None else np.zeros(spec.m2)
        _, supplied_residual = kkt_residual_lower(spec, candidate.x, candidate.y, mu, lam)
        if supplied_residual <= config.tol_kkt and float(np.min(lam, initial=0.0)) >= -config.tol_act:
            return mu, lam, rec, supplied_residual, "supplied multipliers verified"
        detail = (
            f"supplied multipliers rejected (residual {supplied_residual:.3e}); "
            f"recomputed values used (residual {rec.residual:.3e})"
        )
    else:
        detail = f"multipliers recovered by least squares (residual {rec.residual:.3e})"
    return rec.mu, rec.lam, rec, supplied_residual, detail


def classify_path(
    spec: ProblemSpec, candidate: CandidatePoint, config: CheckConfig | None = None
) -> PathDecision:
    """smooth iff Jacobian uniqueness holds; nonsmooth iff the standing
    regularity assumption holds while strict complementarity fails;
    invalid otherwise, naming the first failing condition."""
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
    mu, lam, rec, supplied_residual, mult_detail = _resolve_multipliers(
        spec, candidate, config
    )
    if feas_notes:
        return PathDecision(
            path=PATH_INVALID,
            first_failing="feasibility",
            mu=mu,
            lam=lam,
            ju_report=None,
            assa_report=None,
            feasible=False,
            feasibility_detail="; ".join(feas_notes),
            multiplier_detail=mult_detail,
            supplied_residual=supplied_residual,
            licq_sigma=rec.licq_sigma_min,
        )
    ju = check_jacobian_uniqueness(spec, candidate.x, candidate.y, mu, lam, config)
    if ju.jacobian_uniqueness:
        return PathDecision(
            PATH_SMOOTH, None, mu, lam, ju, None, True, "", mult_detail,
            supplied_residual, rec.licq_sigma_min,
        )
    assa = check_assumption_a(spec, candidate.x, candidate.y, config)
    sc_failed = ju.checks["strict_complementarity"].status == VIOLATED
    if assa.assumption_a and sc_failed:
        return PathDecision(
            PATH_NONSMOOTH, None, assa.mu, assa.lam, ju, assa, True, "",
            mult_detail, supplied_residual, rec.licq_sigma_min,
        )
    order = ("kkt", "licq", "strict_complementarity", "sosc")
    first = next((name for name in order if not ju.checks[name].ok), "sosc")
    if first == "strict_complementarity":
        # strict complementarity alone would route to the nonsmooth path, so
        # the real blocker is whatever failed in the standing assumption
        for name in ("multipliers_exist", "licq", "strong_sosc"):
            if not assa.checks[name].ok:
                first = name
                break
    return PathDecision(
        PATH_INVALID, first, mu, lam, ju, assa, True, "", mult_detail,
        supplied_residual, rec.licq_sigma_min,
    )


@dataclass
class CertificateReport:
    problem_digest: str
    candidate: CandidatePoint
    path: str
    results: list[ConditionCheck]
    verdict: str
    config: CheckConfig
    notes: list[str] = field(default_factory=list)
    command: str = "certify"
    version: str = VERSION


def _lower_checks_to_results(ju: LowerConditionsReport, licq_sigma: float,
                             config: CheckConfig) -> list[ConditionCheck]:
    out = []
    mapping = {
        "kkt": ("lower_kkt", KIND_NECESSARY),
        "licq": ("lower_licq", KIND_QUALIFICATION),
        "strict_complementarity": ("lower_strict_complementarity", KIND_INFO),
        "sosc": ("lower_sosc", KIND_INFO),
        "sonc": ("lower_second_order_necessary", KIND_NECESSARY),
    }
    for src, (name, kind) in mapping.items():
        if src not in ju.checks:
            continue
        c = ju.checks[src]
        kind_eff = kind
        if src == "kkt" and c.status == VIOLATED and licq_sigma < config.tol_licq:
            # without LICQ the KKT system is not a necessary condition
            kind_eff = KIND_INFO
        if src == "sonc" and (c.status == SKIPPED or licq_sigma < config.tol_licq):
            # nor is the second-order condition, which needs a KKT point too
            kind_eff = KIND_INFO
        out.append(
            ConditionCheck(name, c.status, c.value, c.tolerance, kind_eff,
                           c.witness, c.detail)
        )
    return out


def overall_verdict(path: str, results: list[ConditionCheck]) -> str:
    necessary = [c for c in results if c.kind == KIND_NECESSARY]
    if any(c.status == VIOLATED for c in necessary):
        return VERDICT_REFUTED
    sufficient = next(
        (c for c in results if c.name == "second_order_sufficient"), None
    )
    if path == PATH_SMOOTH and sufficient is not None and sufficient.status == SATISFIED:
        return VERDICT_CERTIFIED
    if path in (PATH_SMOOTH, PATH_NONSMOOTH):
        first_order = next(
            (c for c in results if c.name in ("first_order", "first_order_nonsmooth")),
            None,
        )
        evaluated = [c for c in necessary if c.status != SKIPPED]
        if (
            first_order is not None
            and first_order.status not in (SKIPPED, ERROR)
            and evaluated
            and all(c.ok for c in evaluated)
        ):
            return VERDICT_NECESSARY
    return VERDICT_INCONCLUSIVE


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
    abs()) or a candidate whose shape does not match the problem ends the run
    with an `error` check, CHECK_EVALUATION, that names the stage it was in;
    such a run is never certified.  Other exceptions propagate."""
    config = config or CheckConfig()
    progress = _Progress([], [f"lambda sign convention: {LAMBDA_SIGN_CONVENTION}"])
    with bundle_memo():
        try:
            _pipeline(spec, candidate, config, progress)
        except (DomainError, NonsmoothDataError, CandidateShapeError) as exc:
            progress.results.append(
                ConditionCheck(CHECK_EVALUATION, ERROR, None, None, KIND_NECESSARY,
                               detail=f"{progress.stage} failed: {exc}")
            )
    return CertificateReport(
        problem_digest=problem_digest(spec),
        candidate=candidate,
        path=progress.path,
        results=progress.results,
        verdict=overall_verdict(progress.path, progress.results),
        config=config,
        notes=progress.notes,
    )


def _pipeline(spec, candidate, config, progress: _Progress):
    results, notes = progress.results, progress.notes
    decision = classify_path(spec, candidate, config)
    results.append(
        ConditionCheck(
            "feasibility",
            SATISFIED if decision.feasible else VIOLATED,
            None,
            config.tol_act,
            KIND_INFO,
            detail=decision.feasibility_detail,
        )
    )
    results.append(
        ConditionCheck(
            "multipliers",
            SATISFIED,
            decision.supplied_residual,
            config.tol_kkt,
            KIND_INFO,
            detail=decision.multiplier_detail,
        )
    )
    if not decision.feasible:
        results.append(
            ConditionCheck("path", INCONCLUSIVE, None, None, KIND_INFO,
                           detail="candidate infeasible")
        )
        return

    ju = decision.ju_report
    results.extend(_lower_checks_to_results(ju, decision.licq_sigma, config))
    if decision.path == PATH_INVALID:
        if decision.assa_report is not None:
            a = decision.assa_report
            results.append(
                ConditionCheck(
                    "assumption_a",
                    SATISFIED if a.assumption_a else VIOLATED,
                    a.checks["strong_sosc"].value,
                    config.tol_pd,
                    KIND_QUALIFICATION,
                    detail=f"first failing condition: {decision.first_failing}",
                )
            )
        notes.append(f"path invalid: first failing condition {decision.first_failing}")
        return

    progress.path = decision.path
    progress.stage = f"{decision.path} path"
    if decision.path == PATH_SMOOTH:
        _run_smooth(spec, candidate, decision, config, results, notes)
    else:
        _run_nonsmooth(spec, candidate, decision, config, results, notes)

    if config.run_oracle and spec.n <= 2 and spec.m <= 2:
        grid = config.oracle_grid()
        try:
            rep = verify_minimax_definition(spec, candidate.x, candidate.y, grid)
        except GridTooLargeError as exc:
            results.append(ConditionCheck("definition_oracle", SKIPPED, None, grid.tol,
                                          KIND_INFO, detail=str(exc)))
            return
        results.append(
            ConditionCheck(
                "definition_oracle",
                SATISFIED if rep.passed else VIOLATED,
                rep.worst_violation,
                grid.tol,
                KIND_INFO,
                witness=rep.worst_witness,
                detail=f"worst side: {rep.worst_side}" if rep.worst_side else "",
            )
        )


def _run_smooth(spec, candidate, decision, config, results, notes):
    try:
        sol = solve_lower(spec, candidate.x, (candidate.y, decision.mu, decision.lam), config)
    except NewtonError as exc:
        results.append(
            ConditionCheck("sensitivity_system", ERROR, None, None, KIND_INFO,
                           detail=f"inner refinement failed: {exc}")
        )
        return
    drift = float(np.max(np.abs(sol.y - candidate.y), initial=0.0))
    if drift > config.tol_act:
        notes.append(f"inner refinement moved y by {drift:.3e}")
    try:
        vd = value_derivatives(spec, sol, config)
    except SingularSensitivityError as exc:
        results.append(
            ConditionCheck("sensitivity_system", VIOLATED, exc.sigma_min, None,
                           KIND_INFO, detail=str(exc))
        )
        return
    sigma_min = float(vd.sweep.solved.sigma_min[0])
    condition = float(vd.sweep.solved.sigma_max[0]) / sigma_min
    results.append(
        ConditionCheck("sensitivity_system", SATISFIED, sigma_min, None, KIND_INFO,
                       detail=f"condition estimate {condition:.3e}")
    )
    mfcq = check_mfcq(spec, candidate.x, config)
    results.append(mfcq)
    mfcq_ok = mfcq.ok

    poly = upper_kkt_and_polytope(spec, candidate.x, vd.gradient, config)
    if poly.nonempty:
        fo = ConditionCheck(
            "first_order", SATISFIED, poly.residual(*poly.point),
            config.tol_kkt, KIND_NECESSARY,
            detail="" if poly.bounded else "polytope unbounded (flagged)",
        )
    elif mfcq_ok:
        fo = ConditionCheck(
            "first_order", VIOLATED, None, config.tol_kkt, KIND_NECESSARY,
            witness=vd.gradient.tolist(),
            detail="no upper multipliers reproduce the value-function gradient",
        )
    else:
        fo = ConditionCheck(
            "first_order", INCONCLUSIVE, None, config.tol_kkt, KIND_NECESSARY,
            detail="polytope empty but the constraint qualification failed",
        )
    results.append(fo)

    if candidate.u is not None or candidate.v is not None:
        results.append(
            _verify_upper_multipliers(spec, candidate, vd.gradient, poly, config)
        )

    # every multiplier gives the same reduced cone, the critical cone without
    # its gradient row, so the polytope's LP point serves
    cone = critical_cone_upper(spec, candidate.x, vd.gradient, poly.point, config)
    if mfcq_ok and poly.nonempty:
        results.append(second_order_necessary(spec, candidate.x, vd, poly, cone, config))
    else:
        results.append(
            ConditionCheck(
                "second_order_necessary", SKIPPED, None, config.tol_pd,
                KIND_NECESSARY,
                detail="requires the constraint qualification and a nonempty polytope",
            )
        )
    if poly.nonempty:
        results.append(
            second_order_sufficient(spec, candidate.x, vd, poly, cone, config)
        )
    else:
        results.append(
            ConditionCheck(
                "second_order_sufficient", SKIPPED, None, config.tol_pd,
                KIND_SUFFICIENT, detail="multiplier polytope is empty",
            )
        )


def _verify_upper_multipliers(spec, candidate, working_grad, poly, config):
    """Supplied (u, v) are verified against the stationarity system rather
    than recomputed; the polytope's own point stays in the polytope result."""
    u = candidate.u if candidate.u is not None else np.zeros(spec.n1)
    v = candidate.v if candidate.v is not None else np.zeros(spec.n2)
    residual = poly.residual(u, v)
    neg = float(np.min(v, initial=0.0))
    comp = 0.0
    if spec.n2:
        comp = float(np.max(np.abs(v * upper_data(spec, candidate.x).G), initial=0.0))
    ok = residual <= config.tol_kkt and neg >= -config.tol_act and comp <= config.tol_act
    return ConditionCheck(
        "upper_multipliers",
        SATISFIED if ok else VIOLATED,
        residual,
        config.tol_kkt,
        KIND_INFO,
        detail="supplied (u, v) verified against the stationarity system"
        if ok
        else f"supplied (u, v) rejected (residual {residual:.3e}, "
        f"min v {neg:.3e}, complementarity {comp:.3e})",
    )


def _run_nonsmooth(spec, candidate, decision, config, results, notes):
    a = decision.assa_report
    results.append(
        ConditionCheck(
            "lower_strong_sosc",
            a.checks["strong_sosc"].status,
            a.checks["strong_sosc"].value,
            config.tol_pd,
            KIND_INFO,
        )
    )
    results.append(
        ConditionCheck(
            "assumption_a",
            SATISFIED if a.assumption_a else VIOLATED,
            a.checks["strong_sosc"].value,
            config.tol_pd,
            KIND_QUALIFICATION,
        )
    )
    try:
        sol = solve_lower(spec, candidate.x, (candidate.y, decision.mu, decision.lam), config)
    except NewtonError as exc:
        results.append(
            ConditionCheck("first_order_nonsmooth", ERROR, None, None,
                           KIND_NECESSARY, detail=f"inner refinement failed: {exc}")
        )
        return

    # regularity suite: every B-selector matrix must be invertible here
    # (strong regularity makes the whole Clarke generalized Jacobian so)
    try:
        sweep = selector_sweep(spec, sol, config)
    except SelectorCapError as exc:
        sweep = None
        cap_detail = str(exc)
        results.append(
            ConditionCheck("b_selector_nonsingularity", ERROR, None, None,
                           KIND_INFO, detail=cap_detail)
        )
    else:
        margin = float(np.min(sweep.solved.sigma_min, initial=np.inf))
        status = VIOLATED if sweep.solved.singular.any() else SATISFIED  # the sweep's own test
        results.append(
            ConditionCheck("b_selector_nonsingularity", status, margin, None, KIND_INFO,
                           detail=f"{len(sweep.selectors)} binary selectors")
        )

    mfcq = check_mfcq(spec, candidate.x, config)
    results.append(mfcq)
    if sweep is None:
        results.append(
            ConditionCheck("first_order_nonsmooth", ERROR, None, config.tol_kkt,
                           KIND_NECESSARY, detail=cap_detail)
        )
        return
    if not mfcq.ok:
        results.append(
            ConditionCheck(
                "first_order_nonsmooth", SKIPPED, None, config.tol_kkt,
                KIND_NECESSARY,
                detail="requires the constraint qualification",
            )
        )
        return
    fo, _ = first_order_nonsmooth_necessary(spec, candidate.x, sol, config, sweep)
    results.append(fo)
