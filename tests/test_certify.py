import numpy as np
import pytest

from minimaxcert import (
    CandidatePoint,
    CheckConfig,
    certify,
    classify_path,
)
from minimaxcert.certify import (
    PATH_INVALID,
    PATH_NONSMOOTH,
    PATH_SMOOTH,
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NECESSARY,
    VERDICT_REFUTED,
)
from minimaxcert.conditions import SATISFIED, VIOLATED
from minimaxcert.oracle import grid_local_maximize
from minimaxcert.report import dumps_canonical, report_to_doc


def result(report, name):
    return next(c for c in report.results if c.name == name)


# --- path classification ----------------------------------------------------------

def test_classify_smooth(p1, config):
    d = classify_path(p1, CandidatePoint([0.0], [0.0]), config)
    assert d.path == PATH_SMOOTH


def test_classify_nonsmooth(p2, config):
    d = classify_path(p2, CandidatePoint([0.0], [0.0]), config)
    assert d.path == PATH_NONSMOOTH


def test_classify_invalid_on_non_kkt(p1, config):
    d = classify_path(p1, CandidatePoint([0.0], [0.5]), config)
    assert d.path == PATH_INVALID
    assert d.first_failing == "kkt"


def test_classify_invalid_on_infeasible(p4, config):
    d = classify_path(p4, CandidatePoint([0.5], [0.0]), config)
    assert d.path == PATH_INVALID
    assert d.first_failing == "feasibility"


def test_classify_invalid_on_curvature(config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 1 1 0 1 0 0\nf = (y1-x1)^2\ng1 = y1\n")
    d = classify_path(spec, CandidatePoint([0.0], [0.0]), config)
    assert d.path == PATH_INVALID
    assert d.first_failing == "strong_sosc"


# --- headline verdicts ---------------------------------------------------------------

def test_certify_p1_origin(p1, config):
    rep = certify(p1, CandidatePoint([0.0], [0.0]), config)
    assert rep.path == PATH_SMOOTH
    assert rep.verdict == VERDICT_CERTIFIED
    assert result(rep, "lower_strict_complementarity").value == pytest.approx(1.0)
    assert result(rep, "lower_sosc").value == pytest.approx(-1.0)
    assert result(rep, "second_order_sufficient").value == pytest.approx(1.0, abs=1e-8)


def test_certify_p2_origin(p2, config):
    rep = certify(p2, CandidatePoint([0.0], [0.0]), config)
    assert rep.path == PATH_NONSMOOTH
    assert rep.verdict == VERDICT_NECESSARY
    assert result(rep, "first_order_nonsmooth").status == SATISFIED


def test_certify_p1_shifted_refuted(p1, config):
    rep = certify(p1, CandidatePoint([0.5], [0.5]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "first_order").status == VIOLATED


def test_first_order_witness_at_an_exact_kkt_candidate(p1, config):
    # grad phi = y = 1 at x = 1.2, where G1 = x1 - 2 is inactive
    rep = certify(p1, CandidatePoint([1.2], [1.0], lam=[0.2]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "first_order").witness == [1.0]


def test_certify_p3_reports_mfcq_violated(p3, config):
    rep = certify(p3, CandidatePoint([0.0], [0.0]), config)
    assert result(rep, "mfcq").status == VIOLATED
    # sufficiency is vacuous on the pinned feasible set, so the point still
    # certifies; the oracle concordance test backs this up
    assert rep.verdict == VERDICT_CERTIFIED


def test_certify_p4_nonsmooth_necessary(p4, config):
    rep = certify(p4, CandidatePoint([1.0], [1.0]), config)
    assert rep.path == PATH_NONSMOOTH
    assert rep.verdict == VERDICT_NECESSARY
    w = result(rep, "first_order_nonsmooth").witness
    assert w["v"][0] == pytest.approx(1.0, abs=1e-9)


def test_certify_non_kkt_candidate_refuted(p1, config):
    # LICQ holds vacuously, so failing inner stationarity is a sound disproof
    rep = certify(p1, CandidatePoint([0.0], [0.5]), config)
    assert rep.path == PATH_INVALID
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "lower_kkt").status == VIOLATED


def test_certify_infeasible_candidate_inconclusive(p4, config):
    rep = certify(p4, CandidatePoint([0.5], [0.0]), config)
    assert rep.path == PATH_INVALID
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_certify_negative_curvature_refuted(config):
    from minimaxcert.problem import parse_problem

    # inner maximizer has positive curvature along the critical cone
    spec = parse_problem("dims 1 1 0 1 0 0\nf = (y1-x1)^2\ng1 = y1\n")
    rep = certify(spec, CandidatePoint([0.0], [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "lower_second_order_necessary").status == VIOLATED


def test_certify_flipped_outer_curvature_refuted(config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 1 1 0 0 0 0\nf = -0.5*x1^2 - 0.5*y1^2\n")
    rep = certify(spec, CandidatePoint([0.0], [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "second_order_necessary").status == VIOLATED


# --- supplied multipliers ---------------------------------------------------------------

def test_supplied_multipliers_verified(p2, config):
    rep = certify(p2, CandidatePoint([0.5], [0.0], lam=[1.0]), config)
    assert "verified" in result(rep, "multipliers").detail


def test_supplied_multipliers_mismatch_recomputed(p2, config):
    rep = certify(p2, CandidatePoint([0.5], [0.0], lam=[0.25]), config)
    assert "rejected" in result(rep, "multipliers").detail
    # the pipeline still reaches the correct verdict with recomputed values
    assert rep.path == PATH_SMOOTH


def test_supplied_upper_multipliers_verified(p1, config):
    rep = certify(p1, CandidatePoint([0.0], [0.0], v=[0.0]), config)
    assert result(rep, "upper_multipliers").status == SATISFIED
    rep = certify(p1, CandidatePoint([0.0], [0.0], v=[0.7]), config)
    assert result(rep, "upper_multipliers").status == VIOLATED
    # verification is informational: recomputed values drive the verdict
    assert rep.verdict == VERDICT_CERTIFIED


# --- determinism / consistency -----------------------------------------------------------

def test_certify_reports_byte_identical(p1, p2, config):
    for spec, x, y in ((p1, [0.0], [0.0]), (p2, [0.0], [0.0]),
                       (p1, [0.5], [0.5])):
        a = dumps_canonical(report_to_doc(certify(spec, CandidatePoint(x, y), config)))
        b = dumps_canonical(report_to_doc(certify(spec, CandidatePoint(x, y), config)))
        assert a == b


def test_certified_verdicts_confirmed_by_oracle(p1, p3, config):
    from minimaxcert.oracle import GridSpec, verify_minimax_definition

    for spec, x, y in ((p1, [0.0], [0.0]), (p3, [0.0], [0.0])):
        rep = certify(spec, CandidatePoint(x, y), config)
        if rep.verdict == VERDICT_CERTIFIED:
            oracle = verify_minimax_definition(
                spec, x, y, GridSpec(delta0=0.1, step=1e-3, tol=1e-9)
            )
            assert oracle.passed


def test_refuted_first_order_witness_descends(p1, config):
    # the oracle finds a strictly better feasible x near a refuted candidate
    rep = certify(p1, CandidatePoint([0.5], [0.5]), config)
    assert rep.verdict == VERDICT_REFUTED
    grad = result(rep, "first_order").witness
    assert grad is not None

    def phi_hat(x):
        return grid_local_maximize(p1, [x], [0.5], 0.5, 1001).value

    base = phi_hat(0.5)
    step = 0.05 * (-np.sign(grad[0]))
    assert phi_hat(0.5 + step) < base - 1e-4


def test_oracle_condition_included_when_requested(p1):
    config = CheckConfig(run_oracle=True)
    rep = certify(p1, CandidatePoint([0.0], [0.0]), config)
    oracle_check = result(rep, "definition_oracle")
    assert oracle_check.status == SATISFIED
    assert oracle_check.value <= 1e-9


def test_oracle_over_the_grid_cap_is_skipped(config):
    # n = m = 2 at the default grid: 201^2 x-points by 401^2 y-points at the
    # first level, refused before anything is evaluated
    import time

    from minimaxcert.conditions import KIND_INFO, SKIPPED
    from minimaxcert.oracle import MAX_LEVEL_POINTS
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 2 2 0 1 0 1\nf = x1^2 + x2^2 - y1^2 - y2^2\n"
                         "g1 = y1 - x1\nG1 = -x1\n")
    start = time.perf_counter()
    rep = certify(spec, CandidatePoint([0.0, 0.0], [0.0, 0.0]), config.replace(run_oracle=True))
    assert time.perf_counter() - start < 1.0
    check = result(rep, "definition_oracle")
    assert (check.status, check.kind) == (SKIPPED, KIND_INFO)
    assert 201**2 * 401**2 > MAX_LEVEL_POINTS
    assert str(201**2 * 401**2) in check.detail


@pytest.mark.parametrize("bad", [
    {"oracle_step": 0.5}, {"oracle_step": 0.0}, {"oracle_delta0": float("nan")},
    {"oracle_eta_factor": float("inf")}, {"oracle_eta_factor": -1.0},
])
def test_bad_oracle_grid_fails_at_config(p1, bad):
    # caught where the config is made, not as a traceback out of certify
    with pytest.raises(ValueError, match="delta0|step|eta_factor"):
        CheckConfig(run_oracle=True, **bad)
    with pytest.raises(ValueError):
        CheckConfig().replace(**bad)
    rep = certify(p1, CandidatePoint([0.0], [0.0]),
                  CheckConfig(run_oracle=True, oracle_step=0.1))
    assert result(rep, "definition_oracle").status == SATISFIED


def test_random_certified_instances_confirmed_by_oracle(config):
    from conftest import random_certifiable_instance
    from minimaxcert.oracle import GridSpec, verify_minimax_definition

    rng = np.random.default_rng(91)
    certified = 0
    for _ in range(4):
        spec, x, y = random_certifiable_instance(rng)
        rep = certify(spec, CandidatePoint(x, y), config)
        assert rep.verdict == VERDICT_CERTIFIED
        certified += 1
        if spec.m <= 2:
            oracle = verify_minimax_definition(
                spec, x, y,
                GridSpec(delta0=0.05, step=2e-3, eta_factor=1.5, tol=1e-5),
            )
            assert oracle.passed
    assert certified == 4


def _sampled_sufficiency_counterexample(n, A):
    """phi(x) = A*sum_{i>=2}(x_i - 0.3*i*x1)^2 - 1e-3*|x|^2 on x >= 0 is
    negative along the interior ray (1, 0.6, 0.9, ...): the origin is not a
    local minimax point, but the ray is too thin for sampled directions."""
    from minimaxcert.problem import parse_problem

    f = " + ".join(f"{A:g}*(x{i} - {0.3 * i:g}*x1)^2" for i in range(2, n + 1))
    f += "".join(f" - 1e-3*x{i}^2" for i in range(1, n + 1)) + " - y1^2"
    G = "".join(f"G{i} = -x{i}\n" for i in range(1, n + 1))
    return parse_problem(f"dims {n} 1 0 0 0 {n}\nf = {f}\n{G}")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sampled_sufficiency_counterexample_is_refuted_on_its_ray(n, config):
    # the exact face test finds the thin ray that random cone directions miss
    spec = _sampled_sufficiency_counterexample(n, 1e6)
    ray = np.array([1.0] + [0.3 * i for i in range(2, n + 1)])
    rep = certify(spec, CandidatePoint([0.0] * n, [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    son = result(rep, "second_order_necessary")
    assert son.status == VIOLATED
    witness = np.array(son.witness)
    assert float(witness @ ray) / (np.linalg.norm(witness) * np.linalg.norm(ray)) >= 0.999
    assert abs(son.value + 2e-3) <= 1e-6


# phi = x1 + c(x2, x3) with two outer constraints active at the origin along
# the same gradient (-1, 0, ...): the multipliers form the segment v1 + v2 = 1,
# the critical cone is {d1 = 0}, and the vertices (1, 0) and (0, 1) give two
# quadratics, each a lower bound of q_sup
@pytest.mark.parametrize("text, verdict, necessary, sufficient", [
    # q_sup = -2 + max(4, 0) = 2 on the line: the larger vertex minimum proves it
    ("dims 2 1 0 0 0 2\nf = x1 - x2^2 - y1^2\nG1 = -x1 + 2*x2^2\nG2 = -x1\n",
     VERDICT_CERTIFIED, SATISFIED, SATISFIED),
    # q_sup = -2 + max(0.5, 0) = -1.5 at the face witness (0, 1): refuted
    ("dims 2 1 0 0 0 2\nf = x1 - x2^2 - y1^2\nG1 = -x1 + 0.25*x2^2\nG2 = -x1\n",
     VERDICT_REFUTED, VIOLATED, VIOLATED),
    # q_sup = |d2^2 - d3^2| >= 0, each vertex quadratic has minimum -1, and
    # q_sup = 1 at both face witnesses: the test cannot tell
    ("dims 3 1 0 0 0 2\nf = x1 - y1^2\nG1 = -x1 + 0.5*x2^2 - 0.5*x3^2\n"
     "G2 = -x1 - 0.5*x2^2 + 0.5*x3^2\n",
     VERDICT_INCONCLUSIVE, "inconclusive", "inconclusive"),
])
def test_several_multipliers_bound_q_sup_from_below(text, verdict, necessary, sufficient,
                                                    config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem(text)
    rep = certify(spec, CandidatePoint([0.0] * spec.n, [0.0]), config)
    assert result(rep, "first_order").detail == "2 vertices"
    assert rep.verdict == verdict
    assert result(rep, "second_order_necessary").status == necessary
    assert result(rep, "second_order_sufficient").status == sufficient


def test_capped_vertex_enumeration_uses_one_lp_multiplier(config):
    # with no vertices enumerated, one feasible multiplier gives the quadratic
    # and q_sup at its face witness refutes
    rep = certify(_sampled_sufficiency_counterexample(2, 1e6),
                  CandidatePoint([0.0, 0.0], [0.0]), config.replace(vertex_enum_cap=1))
    assert result(rep, "first_order").detail == "0 vertices"
    assert rep.verdict == VERDICT_REFUTED
    son = result(rep, "second_order_necessary")
    assert son.status == VIOLATED
    assert abs(son.value + 2e-3) <= 1e-6


def test_face_test_above_the_cap_is_inconclusive(config, monkeypatch):
    # every critical cone below has more F rows than a cap of 0 allows
    from minimaxcert import cones
    from minimaxcert.problem import parse_problem

    monkeypatch.setattr(cones, "RAY_SUBSET_CAP", 0)
    rep = certify(_sampled_sufficiency_counterexample(2, 1e6),
                  CandidatePoint([0.0, 0.0], [0.0]), config)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    for name in ("second_order_necessary", "second_order_sufficient"):
        assert result(rep, name).status == "inconclusive"
    rep = certify(parse_problem(CURVED_QUADRANT), CandidatePoint([0.0, 0.0], [0.0, 0.0]),
                  config)
    for name in ("lower_sosc", "lower_second_order_necessary"):
        assert result(rep, name).status == "inconclusive"


@pytest.mark.parametrize("n, A", [(3, 1e6), (4, 1e4), (4, 1e6), (5, 1e6)])
def test_sampled_sufficiency_never_certifies(n, A, config):
    from minimaxcert.problem import eval_bundle

    spec = _sampled_sufficiency_counterexample(n, A)
    ray = np.array([1.0] + [0.3 * i for i in range(2, n + 1)])
    assert eval_bundle(spec, 1e-3 * ray, [0.0]).f < 0.0  # phi(x) = f(x, 0)
    rep = certify(spec, CandidatePoint([0.0] * n, [0.0]), config)
    assert rep.path == PATH_SMOOTH
    assert result(rep, "second_order_sufficient").status != SATISFIED
    assert rep.verdict != VERDICT_CERTIFIED


def test_certify_with_equality_constraints_both_levels(config):
    # inner equality y1 + y2 = 0 and outer equality x1 + x2 = 0; the reduced
    # value function is (x1 - x2)^2 / 4, minimized on the outer line at 0
    from minimaxcert.problem import parse_problem

    spec = parse_problem(
        "dims 2 2 1 0 1 1\n"
        "f = x1*y1 + x2*y2 - 0.5*y1^2 - 0.5*y2^2\n"
        "h1 = y1 + y2\n"
        "H1 = x1 + x2\n"
        "G1 = -x1 - 1\n"
    )
    rep = certify(spec, CandidatePoint([0.0, 0.0], [0.0, 0.0]), config)
    assert rep.path == PATH_SMOOTH
    assert rep.verdict == VERDICT_CERTIFIED
    suff = result(rep, "second_order_sufficient")
    assert suff.value == pytest.approx(1.0, abs=1e-6)
    # the definition oracle confirms at a coarser grid (2-D inner maximize)
    from minimaxcert.oracle import GridSpec, verify_minimax_definition

    oracle = verify_minimax_definition(
        spec, [0.0, 0.0], [0.0, 0.0],
        GridSpec(delta0=0.05, step=5e-3, tol=1e-9),
    )
    assert oracle.passed


# --- the selector sweep -------------------------------------------------------------

def test_selector_cap_is_an_error_check(config):
    # |beta| = 6 exceeds selector_cap = 5
    from conftest import degenerate_text
    from minimaxcert.conditions import ERROR
    from minimaxcert.problem import parse_problem

    spec = parse_problem(degenerate_text(6))
    rep = certify(spec, CandidatePoint([0.0] * 6, [0.0] * 6),
                  config.replace(selector_cap=5))
    assert rep.path == PATH_NONSMOOTH
    assert rep.verdict == VERDICT_INCONCLUSIVE
    for name in ("b_selector_nonsingularity", "first_order_nonsmooth"):
        check = result(rep, name)
        assert check.status == ERROR
        assert "exceed cap" in check.detail


@pytest.mark.parametrize("k", [6, 8])
def test_large_beta_reaches_necessary_conditions(k, config):
    # 2^k B-selectors stay inside selector_cap; no 5^k Clarke grid is built
    from conftest import degenerate_text
    from minimaxcert.problem import parse_problem

    spec = parse_problem(degenerate_text(k))
    rep = certify(spec, CandidatePoint([0.0] * k, [0.0] * k), config)
    assert rep.path == PATH_NONSMOOTH
    assert rep.verdict == VERDICT_NECESSARY
    assert result(rep, "b_selector_nonsingularity").detail == f"{2 ** k} binary selectors"
    assert result(rep, "first_order_nonsmooth").status == SATISFIED


def test_sweep_factors_each_selector_once(config, monkeypatch):
    # |beta| = 3: 8 binary selectors, and no Clarke grid
    import sys

    import minimaxcert.linalg
    import minimaxcert.nonsmooth
    import minimaxcert.upper
    from conftest import degenerate_text
    from minimaxcert.problem import eval_bundle, parse_problem

    factored = []
    batches = []
    bundles = []
    plu_batch = minimaxcert.linalg.plu_batch

    def counting_plu_batch(As):
        batches.append(len(As))
        factored.extend(np.asarray(A).tobytes() for A in As)
        return plu_batch(As)

    def counting_bundle(spec, x, y):
        bundles.append((x, y))
        return eval_bundle(spec, x, y)

    for name, module in list(sys.modules.items()):
        if name.startswith("minimaxcert") and getattr(module, "plu_batch", None) is plu_batch:
            monkeypatch.setattr(module, "plu_batch", counting_plu_batch)
    # the sweep lives in nonsmooth; the search in upper must read it rather
    # than evaluate the bundle again
    for module in (minimaxcert.nonsmooth, minimaxcert.upper):
        monkeypatch.setattr(module, "eval_bundle", counting_bundle, raising=False)

    spec = parse_problem(degenerate_text(3))
    rep = certify(spec, CandidatePoint([0.0] * 3, [0.0] * 3), config)
    assert rep.verdict == VERDICT_NECESSARY
    assert result(rep, "b_selector_nonsingularity").detail == "8 binary selectors"
    assert len(factored) == len(set(factored)) == 8
    assert len(bundles) == 1
    assert len(batches) == 1  # one batched factorisation per sweep


# --- evaluation failures and the per-call bundle memo -----------------------------

@pytest.mark.parametrize("text, x, message", [
    # the gradient of -sqrt(y1^2 + x1^2) divides by zero at the origin
    ("dims 1 1 0 0 0 0\nf = -sqrt(y1^2+x1^2)\n", "0", "division by zero"),
    ("dims 1 1 0 0 0 0\nf = -y1^2 + abs(x1)\n", "0", "problem uses abs()"),
    ("dims 1 1 0 1 0 0\nf = -y1^2 + log(x1)\ng1 = y1 - 1\n", "-1",
     "log of a non-positive value"),
], ids=["sqrt-at-origin", "abs", "log-of-negative"])
def test_evaluation_failure_is_an_error_check(text, x, message, config, tmp_path, capsys):
    import json

    from minimaxcert.cli import main
    from minimaxcert.conditions import ERROR
    from minimaxcert.problem import parse_problem

    rep = certify(parse_problem(text), CandidatePoint([float(x)], [0.0]), config)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.path == PATH_INVALID
    check = result(rep, "evaluation")
    assert check.status == ERROR
    assert check.detail.startswith("path classification failed: ")
    assert message in check.detail
    # the CLI writes the report and keeps the usage-error exit code
    prob, out = tmp_path / "p.prob", tmp_path / "r.json"
    prob.write_text(text, encoding="utf-8")
    assert main(["certify", str(prob), "--x", x, "--y", "0", "--json", str(out)]) == 1
    assert json.loads(out.read_text())["verdict"] == VERDICT_INCONCLUSIVE
    assert capsys.readouterr().err == f"error: {check.detail}\n"


def test_bundle_evaluated_once_per_point_per_call(config, monkeypatch):
    import sys

    from minimaxcert.expressions import Tape
    from minimaxcert.problem import eval_bundle, parse_problem

    # off the inner maximizer, so the refinement moves y: two distinct points
    spec = parse_problem("dims 1 1 0 0 0 0\nf = x1*y1 - 0.5*y1^2 + x1^2\n")
    candidate = CandidatePoint([0.0], [1e-9])
    runs, frozen = [], []
    run_tape = Tape.__call__

    def counting_run(tape, x, y, strict=True):
        if tape is spec._bundle_program.tape:
            runs.append(x.tobytes() + y.tobytes())
        return run_tape(tape, x, y, strict)

    def checking_bundle(spec, x, y):
        bundle = eval_bundle(spec, x, y)
        try:
            bundle.fyy[0, 0] = 0.0
        except ValueError:
            frozen.append(not any(a.flags.writeable for a in (bundle.x, bundle.fx, bundle.g)))
        else:
            frozen.append(False)
        return bundle

    monkeypatch.setattr(Tape, "__call__", counting_run)
    for name, module in list(sys.modules.items()):
        if name.startswith("minimaxcert") and getattr(module, "eval_bundle", None) is eval_bundle:
            monkeypatch.setattr(module, "eval_bundle", checking_bundle)

    rep = certify(spec, candidate, config)
    assert rep.path == PATH_SMOOTH
    assert len(runs) == len(set(runs)) == 2
    assert len(frozen) > len(runs) and all(frozen)
    # the memo closes with the call: a second call evaluates again
    certify(spec, candidate, config)
    assert runs[2:] == runs[:2]


# --- the remaining ValueErrors become evaluation error checks -----------------------

def _asymmetric_fyy(monkeypatch, spec):
    """Make the bundle program of spec return an f/yy block off by 1e-6."""
    from minimaxcert.problem import BlockProgram

    run = BlockProgram.__call__

    def skewed(program, x, y):
        blocks = run(program, x, y)
        if program is spec._bundle_program:
            fyy = blocks["fyy"].copy()
            fyy[0, 1] += 1e-6
            blocks["fyy"] = fyy
        return blocks

    monkeypatch.setattr(BlockProgram, "__call__", skewed)


@pytest.mark.parametrize("x, y, lam, message", [
    pytest.param([0.0, 0.0], [0.0], None, "x has shape (2,), expected (1,)", id="x-shape"),
    pytest.param([0.0], [0.0, 0.0], None, "y has shape (2,), expected (1,)", id="y-shape"),
    pytest.param([0.0], [0.0], [0.0, 0.0], "lam has shape (2,), expected (1,)",
                 id="lam-shape"),
    pytest.param([0.0], [0.0, 0.0], None,
                 "f/yy Hessian asymmetry 1.000e-06 exceeds tolerance",
                 id="hessian-asymmetry"),
])
def test_value_error_is_an_error_check(x, y, lam, message, config, p2, monkeypatch):
    from minimaxcert.conditions import ERROR
    from minimaxcert.problem import parse_problem

    spec, candidate = p2, CandidatePoint(x, y, lam=lam)
    if "asymmetry" in message:
        spec = parse_problem("dims 1 2 0 0 0 0\nf = x1*y1 - y1^2 - y2^2\n")
        _asymmetric_fyy(monkeypatch, spec)
    rep = certify(spec, candidate, config)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.path == PATH_INVALID
    check = result(rep, "evaluation")
    assert check.status == ERROR
    assert check.detail == f"path classification failed: {message}"


def test_other_value_errors_still_surface(config, p1, monkeypatch):
    import sys

    def broken(spec, candidate, config):
        raise ValueError("not an evaluation failure")

    monkeypatch.setattr(sys.modules["minimaxcert.certify"], "classify_path", broken)
    with pytest.raises(ValueError, match="not an evaluation failure"):
        certify(p1, CandidatePoint([0.0], [0.0]), config)


# --- metamorphic: relabelling the inner variables --------------------------------

@pytest.mark.parametrize("perm", [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_relabelling_y_and_g_keeps_the_verdict(perm, config):
    from minimaxcert.problem import parse_problem

    from conftest import degenerate_text

    # y_i and g_i become y_perm[i] and g_perm[i]; x keeps its labels
    f = " + ".join(f"-(y{perm[i] + 1}-x{i + 1})^2" for i in range(3))
    g = {perm[i] + 1: f"y{perm[i] + 1} - x{i + 1}" for i in range(3)}
    text = f"dims 3 3 0 3 0 0\nf = {f}\n" + "".join(f"g{j} = {g[j]}\n" for j in sorted(g))
    origin = CandidatePoint([0.0] * 3, [0.0] * 3)
    base = certify(parse_problem(degenerate_text(3)), origin, config)
    relabelled = certify(parse_problem(text), origin, config)
    assert relabelled.verdict == base.verdict == VERDICT_NECESSARY
    assert [(c.name, c.status) for c in relabelled.results] == [
        (c.name, c.status) for c in base.results]


# --- metamorphic: an inactive inner constraint ----------------------------------

def _with_inactive_g(text):
    """The problem of `text` with g = y1 - 50 appended: far from active at
    every reference point, so no condition may change."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("dims"))
    n, m, m1, m2, n1, n2 = map(int, lines[at].split()[1:])
    lines[at] = f"dims {n} {m} {m1} {m2 + 1} {n1} {n2}"
    return "\n".join(lines) + f"\ng{m2 + 1} = y1 - 50\n"


@pytest.mark.parametrize("name, text, x, y", [
    ("P1", None, [0.0], [0.0]),
    ("P1", None, [0.5], [0.5]),
    ("P2", None, [0.0], [0.0]),
    ("P3", None, [0.0], [0.0]),
    ("P4", None, [1.0], [1.0]),
    ("degenerate-1", 1, [0.0], [0.0]),
    ("degenerate-2", 2, [0.0] * 2, [0.0] * 2),
    ("degenerate-3", 3, [0.0] * 3, [0.0] * 3),
])
def test_inactive_inner_constraint_keeps_the_verdict(name, text, x, y, config):
    from minimaxcert.fixtures import fixture_text
    from minimaxcert.problem import parse_problem

    from conftest import degenerate_text

    text = fixture_text(name) if text is None else degenerate_text(text)
    candidate = CandidatePoint(x, y)
    base = certify(parse_problem(text), candidate, config)
    padded = certify(parse_problem(_with_inactive_g(text)), candidate, config)
    assert padded.verdict == base.verdict
    assert [(c.name, c.status) for c in padded.results] == [
        (c.name, c.status) for c in base.results]


# --- the inner second-order checks -------------------------------------------------

# L_yy = diag(2, -2) and both inner constraints degenerate at the origin: the
# critical cone is the nonpositive quadrant, and d = (-1, 0) has curvature 2
CURVED_QUADRANT = (
    "dims 2 2 0 2 0 0\nf = (y1-x1)^2 - (y2-x2)^2\ng1 = y1 - x1\ng2 = y2 - x2\n")
# positive curvature on the critical half-line {d <= 0}
CURVED_HALFLINE = "dims 1 1 0 1 0 0\nf = (y1-x1)^2\ng1 = y1\n"
# zero curvature along y2 on a cone with faces: the bound is 0, within tol_pd
FLAT_QUADRANT = "dims 1 2 0 2 0 0\nf = -(y1-x1)^2\ng1 = y1 - x1\ng2 = y2\n"


def _count_sample_cone_calls(monkeypatch):
    """Route every module's sample_cone through a counter; return the call list."""
    import sys

    from minimaxcert.cones import sample_cone

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_cone(*args, **kwargs)

    for module in ("minimaxcert.lower", "minimaxcert.upper", "minimaxcert.certify",
                   "minimaxcert.cones"):
        monkeypatch.setattr(sys.modules[module], "sample_cone", counting, raising=False)
    return calls


def test_lower_cone_sampled_once_per_call(config, monkeypatch):
    # the affine-hull bound fails on a cone with faces; the inner sufficient and
    # necessary checks then share one exact face test, so the cone is sampled at
    # most once per call -- in fact never
    from minimaxcert.problem import parse_problem

    calls = _count_sample_cone_calls(monkeypatch)
    rep = certify(parse_problem(CURVED_QUADRANT), CandidatePoint([0.0, 0.0], [0.0, 0.0]),
                  config)
    assert (rep.path, rep.verdict) == (PATH_INVALID, VERDICT_REFUTED)
    assert calls == []


def test_inner_cone_not_sampled_on_regular_paths(p1, config, monkeypatch):
    # both levels' second-order checks use the exact face test, on every path
    from minimaxcert.problem import parse_problem

    from conftest import degenerate_text

    calls = _count_sample_cone_calls(monkeypatch)
    rep = certify(p1, CandidatePoint([0.0], [0.0]), config)
    assert rep.path == PATH_SMOOTH
    for k in (2, 3, 4):
        rep = certify(parse_problem(degenerate_text(k)), CandidatePoint([0.0] * k, [0.0] * k),
                      config)
        assert rep.path == PATH_NONSMOOTH
    for n in (2, 3, 4, 5):
        rep = certify(_sampled_sufficiency_counterexample(n, 1e6),
                      CandidatePoint([0.0] * n, [0.0]), config)
        assert rep.path == PATH_SMOOTH
    assert calls == []


def _reference_lower_sonc(spec, candidate, config):
    """certify's inner second-order necessary check as it was when certify
    evaluated it itself: curvature of L_yy at the path's multipliers, exact on
    ker E when the cone has no faces, else the maximum over sample_cone."""
    from minimaxcert.cones import sample_cone
    from minimaxcert.linalg import max_eigenvalue_on_subspace, nullspace_basis
    from minimaxcert.lower import lagrangian_eval
    from minimaxcert.problem import eval_bundle

    decision = classify_path(spec, candidate, config)
    ju = decision.ju_report
    if ju.cone is None:
        return "skipped", None, None, None
    lag = lagrangian_eval(eval_bundle(spec, candidate.x, candidate.y),
                          decision.mu, decision.lam)
    bound = max_eigenvalue_on_subspace(lag.yy, nullspace_basis(ju.cone.E, 1e-10))
    if ju.cone.F.shape[0] == 0:
        worst, witness = bound, None
    else:
        worst, witness = -np.inf, None
        for d in sample_cone(ju.cone.E, ju.cone.F, spec.m, 256, 0):
            val = float(d @ lag.yy @ d)
            if val > worst:
                worst, witness = val, d.tolist()
    status = SATISFIED if worst <= config.tol_pd else VIOLATED
    return status, worst, witness if status == VIOLATED else None, (ju.cone, bound)


def _sonc_reference_cases():
    from minimaxcert.fixtures import fixture_text

    from conftest import degenerate_text

    feasible = {  # candidates inside both levels' feasible sets
        "P1": ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.0, 0.5), (-0.5, -0.5)),
        "P2": ((0.0, 0.0), (0.5, 0.0), (-0.5, -0.5), (0.5, -0.5), (0.0, -0.3)),
        "P3": ((0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.0, -1.0)),
        "P4": ((1.0, 1.0), (1.5, 1.0), (1.0, 0.5), (2.0, 1.0)),
    }
    cases = [pytest.param(fixture_text(name), [x], [y], id=f"{name}-{x}-{y}")
             for name, points in feasible.items() for x, y in points]
    cases += [pytest.param(degenerate_text(k), [v] * k, [v] * k, id=f"degenerate-{k}-{v}")
              for k in range(1, 6) for v in (0.0, 0.1)]
    cases += [
        pytest.param(CURVED_QUADRANT, [0.0, 0.0], [0.0, 0.0], id="curved-quadrant"),
        pytest.param(CURVED_HALFLINE, [0.0], [0.0], id="curved-halfline"),
        pytest.param(FLAT_QUADRANT, [0.0], [0.0, 0.0], id="flat-quadrant"),
    ]
    return cases


@pytest.mark.parametrize("text, x, y", _sonc_reference_cases())
def test_lower_sonc_agrees_with_reference(text, x, y, config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem(text)
    candidate = CandidatePoint(x, y)
    status, margin, witness, evidence = _reference_lower_sonc(spec, candidate, config)
    got = result(certify(spec, candidate, config), "lower_second_order_necessary")
    assert got.status == status
    if evidence is None:
        return
    cone, bound = evidence
    # the bound on ker E is at least the curvature of any unit direction of
    # the cone inside it, up to rounding in the sampled products
    assert got.value >= margin - 1e-12 * max(1.0, abs(margin))
    if cone.F.shape[0] == 0 or bound > config.tol_pd:
        assert got.value == margin
        assert got.witness == witness
    if got.status == VIOLATED and got.witness is not None:
        assert cone.contains(np.array(got.witness))
