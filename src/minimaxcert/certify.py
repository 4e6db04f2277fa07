"""Certification pipeline: route a candidate down the smooth or nonsmooth
path, run every applicable condition, and assemble the verdict.

Each condition holds under named hypotheses, and `REQUIRES` is their one
table: for each gated check, the checks that must be `satisfied` in the same
report.  Every result carries its entry as `requires`.  A check that cannot
be computed without its requirements goes through `_gated`, which reports it
`skipped` ("requires ...") when one is missing; the others are computed
anyway and keep their status.  `overall_verdict` is the one rule: a violated
necessary check refutes only when its requirements are all satisfied, and
`second_order_sufficient`, satisfied with its requirements, certifies on the
smooth path only.  It also names the checks the verdict was decided by.

Both levels' second-order conditions are decided exactly on the critical
cone's faces; a search that is not exhaustive (the nonsmooth first-order
selector search with beta nonempty) never refutes.
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
    first_order_nonsmooth_necessary,
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

# the checks each gated check needs `satisfied` in the same report: the inner
# KKT conditions are necessary under LICQ; the outer ones need the value
# function's derivatives (the sensitivity system), first order needs MFCQ
# (Gauvin 1977), and both second-order checks a multiplier (first order)
REQUIRES = {
    "lower_kkt": ("lower_licq",),
    "lower_second_order_necessary": ("lower_kkt", "lower_licq"),
    "first_order": ("sensitivity_system", "mfcq"),
    "second_order_necessary": ("sensitivity_system", "mfcq", "first_order"),
    "second_order_sufficient": ("sensitivity_system", "first_order"),
    "first_order_nonsmooth": ("assumption_a", "mfcq"),
}


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
        )
    ju = check_jacobian_uniqueness(spec, candidate.x, candidate.y, mu, lam, config)
    if ju.jacobian_uniqueness:
        return PathDecision(
            PATH_SMOOTH, None, mu, lam, ju, None, True, "", mult_detail, supplied_residual
        )
    assa = check_assumption_a(spec, candidate.x, candidate.y, config)
    sc_failed = ju.checks["strict_complementarity"].status == VIOLATED
    if assa.assumption_a and sc_failed:
        return PathDecision(
            PATH_NONSMOOTH, None, assa.mu, assa.lam, ju, assa, True, "",
            mult_detail, supplied_residual,
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
        PATH_INVALID, first, mu, lam, ju, assa, True, "", mult_detail, supplied_residual
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
    decided_by: list[str] = field(default_factory=list)
    command: str = "certify"
    version: str = VERSION


def _lower_checks_to_results(ju: LowerConditionsReport) -> list[ConditionCheck]:
    mapping = {
        "kkt": ("lower_kkt", KIND_NECESSARY),
        "licq": ("lower_licq", KIND_QUALIFICATION),
        "strict_complementarity": ("lower_strict_complementarity", KIND_INFO),
        "sosc": ("lower_sosc", KIND_INFO),
        "sonc": ("lower_second_order_necessary", KIND_NECESSARY),
    }
    out = []
    for src, (name, kind) in mapping.items():
        c = ju.checks[src]
        out.append(ConditionCheck(name, c.status, c.value, c.tolerance, kind, c.witness,
                                  c.detail, c.requires))
    return out


def _gated(results: list[ConditionCheck], name: str, kind: str, tolerance, run):
    """Append `run()` when every check `name` requires is satisfied so far,
    else a `skipped` check that names the missing ones."""
    satisfied = {c.name for c in results if c.ok}
    missing = [r for r in REQUIRES[name] if r not in satisfied]
    results.append(
        ConditionCheck(name, SKIPPED, None, tolerance, kind,
                       detail="requires " + ", ".join(missing))
        if missing else run()
    )


def overall_verdict(path: str, results: list[ConditionCheck]) -> tuple[str, list[str]]:
    """The verdict and the names of the checks it was decided by.

    `refuted`: each violated necessary check whose `requires` are all
    satisfied.  `certified-local-minimax`: `second_order_sufficient`,
    satisfied with its `requires`, on the smooth path.
    `necessary-conditions-pass`: on either path, a first-order check that ran
    and every necessary check that ran satisfied; they are its deciders."""
    satisfied = {c.name for c in results if c.ok}
    verified = [c for c in results if satisfied.issuperset(c.requires)]
    refuting = [c.name for c in verified if c.kind == KIND_NECESSARY and c.status == VIOLATED]
    if refuting:
        return VERDICT_REFUTED, refuting
    if path == PATH_SMOOTH and any(
        c.name == "second_order_sufficient" and c.ok for c in verified
    ):
        return VERDICT_CERTIFIED, ["second_order_sufficient"]
    if path in (PATH_SMOOTH, PATH_NONSMOOTH):
        first_order = next(
            (c for c in results if c.name in ("first_order", "first_order_nonsmooth")),
            None,
        )
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
    for check in progress.results:
        check.requires = REQUIRES.get(check.name, ())
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
    results.extend(_lower_checks_to_results(ju))
    if decision.path == PATH_INVALID:
        if decision.assa_report is not None:
            results.append(_assumption_a_result(
                decision.assa_report, config,
                f"first failing condition: {decision.first_failing}"))
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

    poly = upper_kkt_and_polytope(spec, candidate.x, vd.gradient, config)
    if poly.nonempty:
        fo = ConditionCheck(
            "first_order", SATISFIED, poly.residual(*poly.point),
            config.tol_kkt, KIND_NECESSARY,
            # by Gauvin (1977) the polytope is bounded exactly when MFCQ holds
            detail="" if mfcq.ok else "polytope unbounded (flagged)",
        )
    else:
        fo = ConditionCheck(
            "first_order", VIOLATED, None, config.tol_kkt, KIND_NECESSARY,
            witness=vd.gradient.tolist(),
            detail="no upper multipliers reproduce the value-function gradient",
        )
    results.append(fo)

    if candidate.u is not None or candidate.v is not None:
        results.append(
            _verify_upper_multipliers(spec, candidate, poly, config)
        )

    # the necessary check runs on poly.cone and the sufficient one on
    # poly.reduced, which every multiplier gives alike, so the LP point serves
    _gated(results, "second_order_necessary", KIND_NECESSARY, config.tol_pd,
           lambda: second_order_necessary(vd, poly, config))
    _gated(results, "second_order_sufficient", KIND_SUFFICIENT, config.tol_pd,
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
        KIND_INFO,
        detail="supplied (u, v) verified against the stationarity system"
        if ok
        else f"supplied (u, v) rejected (residual {residual:.3e}, "
        f"min v {neg:.3e}, complementarity {comp:.3e})",
    )


def _assumption_a_result(a: LowerConditionsReport, config: CheckConfig,
                         detail: str = "") -> ConditionCheck:
    """The `assumption_a` qualification, valued by the strong SOSC bound."""
    return ConditionCheck("assumption_a", SATISFIED if a.assumption_a else VIOLATED,
                          a.checks["strong_sosc"].value, config.tol_pd, KIND_QUALIFICATION,
                          detail=detail)


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
    results.append(_assumption_a_result(a, config))
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

    results.append(check_mfcq(spec, candidate.x, config))
    if sweep is None:
        results.append(
            ConditionCheck("first_order_nonsmooth", ERROR, None, config.tol_kkt,
                           KIND_NECESSARY, detail=cap_detail)
        )
        return
    _gated(results, "first_order_nonsmooth", KIND_NECESSARY, config.tol_kkt,
           lambda: first_order_nonsmooth_necessary(spec, candidate.x, sol, config, sweep)[0])
