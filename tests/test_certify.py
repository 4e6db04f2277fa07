import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from minimaxcert import (
    CandidatePoint,
    CheckConfig,
    certify,
    check_jacobian_uniqueness,
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
from minimaxcert.conditions import SATISFIED, SKIPPED, VIOLATED
from minimaxcert.fixtures import fixture_text
from minimaxcert.oracle import grid_local_maximize
from minimaxcert.report import dumps_canonical, report_to_doc

from conftest import basic_multipliers, degenerate_text, perfbench_workloads


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
    assert d.first_failing == "lower_kkt"


def test_classify_invalid_on_infeasible(p4, config):
    d = classify_path(p4, CandidatePoint([0.5], [0.0]), config)
    assert d.path == PATH_INVALID
    assert d.first_failing == "feasibility"


def test_classify_invalid_on_curvature(config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 1 1 0 1 0 0\nf = (y1-x1)^2\ng1 = y1\n")
    d = classify_path(spec, CandidatePoint([0.0], [0.0]), config)
    assert d.path == PATH_INVALID
    assert d.first_failing == "lower_strong_sosc"


# --- headline verdicts ---------------------------------------------------------------

def test_certify_p1_origin(p1, config):
    rep = certify(p1, CandidatePoint([0.0], [0.0]), config)
    assert rep.path == PATH_SMOOTH
    assert rep.verdict == VERDICT_CERTIFIED
    # g1 = y1 - 1 is inactive: no active multiplier, so the SC margin is +inf
    assert result(rep, "lower_strict_complementarity").value == np.inf
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
    mfcq = result(rep, "mfcq")
    assert mfcq.status == VIOLATED and mfcq.value == 0.0
    # the opposing bounds give a ray of outer multipliers: the polytope is
    # unbounded exactly where MFCQ fails (Gauvin 1977), and the first-order
    # check says so while it holds
    first_order = result(rep, "first_order")
    assert first_order.status == SATISFIED
    assert first_order.detail == "polytope unbounded (flagged)"
    assert result(rep, "second_order_necessary").status == SKIPPED
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


def test_supplied_upper_multipliers_verified_on_the_nonsmooth_path(p4, config):
    """P4 at x = y = 1 admits the outer multiplier v = 1 (golden
    `certify-P4-bound-v` rejects v = -3)."""
    rep = certify(p4, CandidatePoint([1.0], [1.0], v=[1.0]), config)
    assert rep.path == PATH_NONSMOOTH
    assert result(rep, "upper_multipliers").status == SATISFIED
    assert rep.verdict == VERDICT_NECESSARY


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


def test_oracle_judges_feasibility_at_tol_act(p1):
    # y = 1 + 5e-9 exceeds g1 = y1 - 1 <= 0 by 5e-9, within tol_act, so both
    # the pipeline and the grid oracle take it as feasible; the grid then
    # finds the right inequality fail, as phi'(1) = 1 says it must
    rep = certify(p1, CandidatePoint([1.0], [1.0 + 5e-9]), CheckConfig(run_oracle=True))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert result(rep, "definition_oracle").detail == "worst side: right"


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


@pytest.mark.parametrize("key, value, message", [
    ("tol_pd", float("nan"), "tol_pd must be finite"),
    ("tol_kkt", float("nan"), "tol_kkt must be finite"),
    ("tol_act", float("inf"), "tol_act must be finite"),
    ("tol_newton", 0.0, "tol_newton must be positive"),
    ("fd_step", float("nan"), "fd_step must be finite"),
    ("fd_step", 0.0, "fd_step must be positive"),
    ("fd_hess_step", -1e-3, "fd_hess_step must be positive"),
    ("oracle_tol", float("inf"), "oracle_tol must be finite"),
    ("oracle_tol", -1e-9, "tol and feas_tol must be finite and >= 0"),
    ("newton_max_iter", 2.5, "newton_max_iter must be an integer"),
    ("selector_cap", True, "selector_cap must be an integer"),
    ("beta_grid_resolution", "5", "beta_grid_resolution must be an integer"),
    ("clarke_grid_cap", 4096.0, "clarke_grid_cap must be an integer"),
    ("run_oracle", "no", "run_oracle must be a bool"),
    ("run_oracle", 1, "run_oracle must be a bool"),
])
def test_bad_config_value_fails_at_config(key, value, message):
    # a NaN tolerance fails every comparison, so certify would refute points it
    # certifies at the defaults; an infinite oracle_tol passes every violation;
    # a float count would raise out of certify, and "no" is a true run_oracle
    with pytest.raises(ValueError, match=message):
        CheckConfig(**{key: value})
    with pytest.raises(ValueError, match=message):
        CheckConfig().replace(**{key: value})
    assert CheckConfig(oracle_tol=0.0).oracle_grid().tol == 0.0


def test_config_dict_lists_every_field_in_declaration_order():
    from dataclasses import fields

    config = CheckConfig(tol_act=2e-8, selector_cap=5, run_oracle=True)
    want = [(f.name, getattr(config, f.name)) for f in fields(CheckConfig)]
    assert list(config.as_dict().items()) == want
    assert config.replace(tol_kkt=3e-8).as_dict() == {**dict(want), "tol_kkt": 3e-8}


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


@pytest.mark.parametrize("n", [10, 12, 15, 20])
def test_sampled_sufficiency_counterexample_is_refuted_at_large_n(n, config):
    # the root face holds the ray, so the walk stops there however many rows
    # the cone has (n + 1)
    spec = _sampled_sufficiency_counterexample(n, 1e6)
    rep = certify(spec, CandidatePoint([0.0] * n, [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    for name in ("second_order_necessary", "second_order_sufficient"):
        assert result(rep, name).status == VIOLATED


def test_face_walk_stops_early_on_the_counterexample(config, monkeypatch):
    # every cone test of the n = 13 counterexample visits at most n + 1 of
    # the 2^(n + 1) faces
    from minimaxcert import cones, upper

    faces, per_test = [], []
    face_minimum = cones._face_minimum
    monkeypatch.setattr(cones, "_face_minimum", lambda *a: faces.append(a) or face_minimum(*a))
    walk = upper.min_quadratic_on_cone

    def counted(*args):
        start = len(faces)
        out = walk(*args)
        per_test.append(len(faces) - start)
        return out

    monkeypatch.setattr(upper, "min_quadratic_on_cone", counted)
    n = 13
    rep = certify(_sampled_sufficiency_counterexample(n, 1e6),
                  CandidatePoint([0.0] * n, [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert len(per_test) == 2
    assert max(per_test) <= n + 1


def test_second_order_checks_share_only_equal_faces(config):
    # phi = x1 + x2^2 with G1 = -x1 active and v1 = 1: the necessary cone
    # {d1 <= 0, d1 >= 0} and the reduced cone {d1 = 0} are the same line,
    # reached through different rows, and both checks read 2 on it; a face
    # memo keyed on M alone would hand the reduced cone the whole plane's
    # bottom eigenvector e1, which it does not contain
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 2 1 0 0 0 1\nf = x1 + x2^2 - y1^2\nG1 = -x1\n")
    rep = certify(spec, CandidatePoint([0.0, 0.0], [0.0]), config)
    assert rep.verdict == VERDICT_CERTIFIED
    for name in ("second_order_necessary", "second_order_sufficient"):
        assert result(rep, name).value == pytest.approx(2.0, abs=1e-12)


def test_certified_smooth_candidate_runs_one_eigh(config, monkeypatch):
    # no outer or inner constraints: the necessary cone's one row, grad phi
    # = 0, is a zero row, so both second-order checks take the bottom eigenpair
    # of hess(phi) on all of R^3 and share it through the memo
    from minimaxcert.problem import parse_problem

    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    spec = parse_problem("dims 3 1 0 0 0 0\nf = x1^2 + x2^2 + x3^2 + x1*x2 - y1^2\n")
    rep = certify(spec, CandidatePoint([0.0] * 3, [0.0]), config)
    assert rep.verdict == VERDICT_CERTIFIED
    assert shapes == [(3, 3)]
    necessary, sufficient = (result(rep, name) for name in
                             ("second_order_necessary", "second_order_sufficient"))
    assert necessary.value == sufficient.value


# phi = x1 + c(x2, x3) with two outer constraints active at the origin along
# the same gradient (-1, 0, ...): the multipliers form the segment v1 + v2 = 1,
# the critical cone is {d1 = 0}, and every multiplier on the segment gives a
# quadratic whose cone minimum g(v) is a lower bound of min q_sup
@pytest.mark.parametrize("text, verdict, necessary, sufficient, margin", [
    # q_sup = -2 + max(4 v1) = 2 on the line, reached by g at v = (1, 0)
    ("dims 2 1 0 0 0 2\nf = x1 - x2^2 - y1^2\nG1 = -x1 + 2*x2^2\nG2 = -x1\n",
     VERDICT_CERTIFIED, SATISFIED, SATISFIED, 2.0),
    # q_sup = -2 + max(0.5 v1) = -1.5 at the face witness (0, 1): refuted
    ("dims 2 1 0 0 0 2\nf = x1 - x2^2 - y1^2\nG1 = -x1 + 0.25*x2^2\nG2 = -x1\n",
     VERDICT_REFUTED, VIOLATED, VIOLATED, -1.5),
    # g(v) = -|v1 - v2| on the plane {d1 = 0}, so max g = 0 at v = (1/2, 1/2)
    # = min q_sup, q_sup = |d2^2 - d3^2| >= 0: the necessary check holds at 0,
    # and 0 < tol_pd leaves the sufficient one undecided
    ("dims 3 1 0 0 0 2\nf = x1 - y1^2\nG1 = -x1 + 0.5*x2^2 - 0.5*x3^2\n"
     "G2 = -x1 - 0.5*x2^2 + 0.5*x3^2\n",
     VERDICT_NECESSARY, SATISFIED, "inconclusive", 0.0),
])
def test_several_multipliers_bound_q_sup_from_below(text, verdict, necessary, sufficient,
                                                    margin, config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem(text)
    rep = certify(spec, CandidatePoint([0.0] * spec.n, [0.0]), config)
    assert result(rep, "first_order").status == SATISFIED
    assert rep.verdict == verdict
    assert result(rep, "second_order_necessary").status == necessary
    assert result(rep, "second_order_sufficient").status == sufficient
    assert result(rep, "second_order_necessary").value == pytest.approx(margin, abs=1e-12)


@pytest.mark.parametrize("text", [
    "dims 2 1 0 0 0 0\nf = 5e-9*x1 + x1^2 + x2^2 - y1^2\n",
    # G1 active: v = 1 leaves the same stationarity residual, which decides
    # at tol_kkt whichever way the multiplier is found
    "dims 2 1 0 0 0 1\nf = 5e-9*x1 + x2 + x1^2 + x2^2 - y1^2\nG1 = -x2\n",
])
def test_first_order_residual_within_tol_kkt_with_or_without_constraints(text, config):
    from minimaxcert.problem import parse_problem

    rep = certify(parse_problem(text), CandidatePoint([0.0, 0.0], [0.0]), config)
    assert rep.verdict == VERDICT_CERTIFIED
    first_order = result(rep, "first_order")
    assert first_order.status == SATISFIED
    assert first_order.value == pytest.approx(5e-9, rel=1e-12)


def test_first_order_residual_beyond_tol_kkt_refutes_with_a_large_gradient(config):
    # v = 1000 leaves the residual 5e-6 > tol_kkt however large the gradient
    # the LP scales its feasibility by; phi(-t, 0) = -5e-6 t + t^2 < phi(0)
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 2 1 0 0 0 1\nf = 5e-6*x1 + 1000*x2 + x1^2 + x2^2 - y1^2\n"
                         "G1 = -x2\n")
    rep = certify(spec, CandidatePoint([0.0, 0.0], [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "first_order").status == VIOLATED


@pytest.mark.parametrize("rounds", [12, 1])
def test_multipliers_within_tol_kkt_by_vertices_and_by_lp(rounds, config, monkeypatch):
    # {v1 + 2 v2 = 1, v >= 0} solves stationarity to 5e-9: both its vertices
    # pass tol_kkt in the reference enumeration, and the multiplier LP, the
    # cut LP and the curvature LP read it at tol_kkt, whether the cutting-plane
    # loop may run 12 face tests or only the one at the LP point; and
    # phi(-t, 0) = -5e-9 t - t^2 < phi(0), so the candidate is refuted
    from minimaxcert import upper
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 2 1 0 0 0 2\nf = 5e-9*x1 + x2 - x1^2 + x2^2 - y1^2\n"
                         "G1 = -x2\nG2 = -2*x2\n")
    poly = upper.upper_kkt_and_polytope(spec, [0.0, 0.0], np.array([5e-9, 1.0]), config)
    assert poly.nonempty and not poly.single
    vertices = sorted(tuple(v) for _, v in basic_multipliers(poly, config))
    assert np.allclose(vertices, [(0.0, 0.5), (1.0, 0.0)], rtol=0.0, atol=1e-12)
    monkeypatch.setattr(upper, "CUT_ROUNDS", rounds)
    rep = certify(spec, CandidatePoint([0.0, 0.0], [0.0]), config)
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "first_order").status == SATISFIED
    son = result(rep, "second_order_necessary")
    assert son.status == VIOLATED
    assert son.value == pytest.approx(-2.0)


def test_capped_polytope_solves_its_multiplier_lp_once(config, monkeypatch):
    # one certify of the counterexample runs 2 upper-level LPs at any n: the
    # MFCQ direction LP, which also decides the polytope's boundedness, and
    # the polytope's one multiplier LP.  The JG_I columns -e_i are
    # independent, so the polytope is that one point, and each second-order
    # check is one face test at it, exact, with no cut LP
    from minimaxcert import upper

    calls, faces = [], []
    solve_lp, face_test = upper.solve_lp, upper.min_quadratic_on_cone
    monkeypatch.setattr(upper, "solve_lp",
                        lambda p, feas_tol: calls.append(p) or solve_lp(p, feas_tol))
    monkeypatch.setattr(upper, "min_quadratic_on_cone",
                        lambda *a: faces.append(a) or face_test(*a))
    for n in (2, 12):
        calls.clear()
        faces.clear()
        rep = certify(_sampled_sufficiency_counterexample(n, 1e6),
                      CandidatePoint([0.0] * n, [0.0]), config)
        assert rep.verdict == VERDICT_REFUTED
        assert (len(calls), len(faces)) == (2, 2)


def test_face_test_above_the_cap_is_inconclusive(config, monkeypatch):
    # a face budget of 0 leaves every face test below undecided
    from minimaxcert import cones
    from minimaxcert.problem import parse_problem

    monkeypatch.setattr(cones, "FACE_BUDGET", 0)
    rep = certify(_sampled_sufficiency_counterexample(2, 1e6),
                  CandidatePoint([0.0, 0.0], [0.0]), config)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    for name in ("second_order_necessary", "second_order_sufficient"):
        assert result(rep, name).status == "inconclusive"
        assert result(rep, name).detail == cones.budget_detail()
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

def test_selector_cap_does_not_bound_certify(config):
    # |beta| = 6 exceeds selector_cap = 5: the sweep of subdiff stops there,
    # but nonsmooth first order reads grad_x L alone and builds no sweep
    from conftest import degenerate_text
    from minimaxcert.lower import solve_lower
    from minimaxcert.nonsmooth import SelectorCapError, selector_sweep
    from minimaxcert.problem import parse_problem

    spec, origin = parse_problem(degenerate_text(6)), [0.0] * 6
    capped = config.replace(selector_cap=5)
    rep = certify(spec, CandidatePoint(origin, origin), capped)
    assert rep.path == PATH_NONSMOOTH
    assert rep.verdict == VERDICT_NECESSARY
    assert result(rep, "first_order_nonsmooth").status == SATISFIED
    with pytest.raises(SelectorCapError, match="exceed cap"):
        selector_sweep(spec, solve_lower(spec, origin, (origin, None, None), capped), capped)


@pytest.mark.parametrize("k", [6, 8])
def test_large_beta_reaches_necessary_conditions(k, config):
    # no 2^k B-selectors and no 5^k Clarke grid are built
    from conftest import degenerate_text
    from minimaxcert.problem import parse_problem

    spec = parse_problem(degenerate_text(k))
    rep = certify(spec, CandidatePoint([0.0] * k, [0.0] * k), config)
    assert rep.path == PATH_NONSMOOTH
    assert rep.verdict == VERDICT_NECESSARY
    assert "b_selector_nonsingularity" not in {c.name for c in rep.results}
    assert result(rep, "first_order_nonsmooth").status == SATISFIED


def test_exact_family_is_inconclusive_on_the_nonsmooth_path(config):
    # the `nonsmooth-exact-family` probe: lam = 1e-7 is at most tol_sc = 1e-6,
    # so g1 is in beta at the candidate and at the refined solution, and the
    # selector family is not exact.  phi(x) = x has no outer multiplier, but
    # while beta is nonempty that is no disproof
    from minimaxcert.problem import parse_problem

    rep = certify(parse_problem(KINK_TEXT.format(f="x1 - y1^2 + 1e-7*y1")),
                  CandidatePoint([0.0], [0.0]), config.replace(tol_sc=1e-6))
    sc = result(rep, "lower_strict_complementarity")
    assert (sc.status, sc.value, sc.tolerance) == (VIOLATED, 1e-7, 1e-6)
    check = result(rep, "first_order_nonsmooth")
    assert (rep.path, rep.verdict) == (PATH_NONSMOOTH, VERDICT_INCONCLUSIVE)
    assert (check.status, check.value) == ("inconclusive", None)
    assert rep.decided_by == []


def test_nonsmooth_report_carries_what_makes_every_selector_nonsingular(config):
    # LICQ with strong SOSC makes every A(x, W) nonsingular (Robinson 1980),
    # so the report states those two rows and no selector row of its own
    from conftest import degenerate_text
    from minimaxcert.problem import parse_problem

    rep = certify(parse_problem(degenerate_text(2)), CandidatePoint([0.0] * 2, [0.0] * 2),
                  config)
    assert rep.path == PATH_NONSMOOTH
    for name in ("lower_licq", "lower_strong_sosc", "assumption_a"):
        assert result(rep, name).status == SATISFIED, name
    assert "b_selector_nonsingularity" not in {c.name for c in rep.results}


@st.composite
def _strongly_regular_degenerate(draw):
    """(spec, x*, y*): a quadratic inner problem, n <= 2, m <= 3, at a KKT
    point with affine rows: m1 equalities, strongly active rows (multiplier
    in [0.5, 1.5]), one or more degenerate ones (active, zero multiplier)
    and perhaps an inactive one; perhaps an active affine outer row G.
    L_yy = Q is negative definite on the kernel of the equality and
    strongly active rows; where there are such rows, a multiple of their
    Gram form often makes it indefinite off that kernel.  f's linear x term
    puts grad_x L at 0, at -v JG with v >= 0 (admissible when G is there),
    or at a random vector."""
    from conftest import affine_expr, quadratic_objective
    from minimaxcert.lower import lagrangian_eval
    from minimaxcert.problem import ProblemSpec, eval_bundle

    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    m1 = draw(st.integers(0, m - 1))
    degenerate = draw(st.integers(1, m - m1))
    strong = draw(st.integers(0, m - m1 - degenerate))
    inactive = draw(st.integers(0, 1))
    outer = draw(st.booleans())
    target = draw(st.sampled_from(["zero", "admissible", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, m)

    def row(slack=0.0):
        a, b = rng.standard_normal(m), rng.standard_normal(n)
        return a, b, -float(a @ y + b @ x) - slack

    h = [row() for _ in range(m1)]
    g = [row() for _ in range(degenerate + strong)]
    g += [row(rng.uniform(0.5, 1.5)) for _ in range(inactive)]
    mu = rng.standard_normal(m1)
    lam = np.zeros(len(g))
    lam[degenerate:degenerate + strong] = rng.uniform(0.5, 1.5, strong)
    active = np.array([a for a, _, _ in h + g[:degenerate + strong]])
    assume(np.linalg.svd(active, compute_uv=False)[-1] >= 0.3)
    pinned = np.array([a for a, _, _ in h + g[degenerate:degenerate + strong]]).reshape(-1, m)
    L = rng.standard_normal((m, m))
    Q = -(L @ L.T + 0.3 * np.eye(m)) + rng.uniform(0.0, 5.0) * pinned.T @ pinned
    R, B = rng.standard_normal((m, n)), rng.standard_normal((n, n))
    q = -(Q @ y + R @ x) + lam @ np.array([a for a, _, _ in g]) - mu @ active[:m1]
    aG = rng.standard_normal(n)
    G = [affine_expr(np.zeros(0), aG, -float(aG @ x))] if outer else []
    want = {"zero": np.zeros(n), "admissible": -rng.uniform(0.5, 1.5) * aG * outer,
            "random": rng.standard_normal(n)}[target]

    def spec(p):
        return ProblemSpec(n=n, m=m, m1=m1, m2=len(g), n1=0, n2=len(G),
                           f=quadratic_objective(Q, R, 0.5 * (B + B.T), q, p),
                           h=[affine_expr(a, b, c) for a, b, c in h],
                           g=[affine_expr(a, b, c) for a, b, c in g], G=G)

    plain = lagrangian_eval(eval_bundle(spec(np.zeros(n)), x, y), mu, lam).grad_x
    return spec(want - plain), x, y


@settings(max_examples=60, deadline=None)
@given(instance=_strongly_regular_degenerate())
def test_assumption_a_makes_every_b_selector_nonsingular(instance, config):
    """The theorem the nonsmooth path rests on in place of a selector sweep:
    where Assumption A holds with beta nonempty, every B-selector's A(x, W)
    is nonsingular (Robinson 1980, Thm 4.1), and first order on the sweep's
    grad_x L gives the status of certify's row."""
    from minimaxcert.lower import check_assumption_a, solve_lower
    from minimaxcert.nonsmooth import _solution_point, selector_sweep
    from minimaxcert.upper import first_order_nonsmooth, upper_kkt_and_polytope

    spec, x, y = instance
    assume(check_assumption_a(spec, x, y, config).assumption_a)
    rep = certify(spec, CandidatePoint(x, y), config)
    assert rep.path == PATH_NONSMOOTH
    decision = classify_path(spec, CandidatePoint(x, y), config)
    sol = solve_lower(spec, x, (y, decision.mu, decision.lam), config)
    assert _solution_point(spec, sol, config)[2].beta
    sweep = selector_sweep(spec, sol, config)
    assert len(sweep.selectors) > 1 and not sweep.solved.singular.any()
    poly = upper_kkt_and_polytope(spec, x, sweep.grad_x, config)
    check = first_order_nonsmooth(sweep.grad_x, sweep.exact, poly, config)
    assert check.status == result(rep, "first_order_nonsmooth").status


def test_sweep_factors_each_selector_once(config, monkeypatch):
    # |beta| = 3: the B-subdifferential's sweep has 8 binary selectors and no
    # Clarke grid, each factored once in one batched SVD from one bundle
    import sys

    import minimaxcert.linalg
    import minimaxcert.nonsmooth
    from conftest import degenerate_text
    from minimaxcert.lower import solve_lower
    from minimaxcert.nonsmooth import phi_generalized_gradients
    from minimaxcert.problem import bundle_memo, eval_bundle, parse_problem

    factored = []
    batches = []
    bundles = []
    solve_stack = minimaxcert.linalg.solve_stack

    def counting_solve_stack(As):
        batches.append(len(As))
        factored.extend(np.asarray(A).tobytes() for A in As)
        return solve_stack(As)

    def counting_bundle(spec, x, y):
        bundles.append((x, y))
        return eval_bundle(spec, x, y)

    for name, module in list(sys.modules.items()):
        if name.startswith("minimaxcert") and getattr(module, "solve_stack", None) is solve_stack:
            monkeypatch.setattr(module, "solve_stack", counting_solve_stack)
    monkeypatch.setattr(minimaxcert.nonsmooth, "eval_bundle", counting_bundle)

    spec, origin = parse_problem(degenerate_text(3)), [0.0] * 3
    sol = solve_lower(spec, origin, (origin, None, None), config)
    with bundle_memo():
        gset = phi_generalized_gradients(spec, sol, config)
    assert len(gset.items) == 8 and not gset.errors
    assert len(factored) == len(set(factored)) == 8
    assert len(bundles) == 1
    assert batches == [8]  # one batched SVD per sweep


def test_nonsmooth_certify_builds_no_sweep(p2, config, monkeypatch):
    """certify's nonsmooth path builds no selector sweep and factors no
    A(x, W), and the bundle at the candidate is evaluated once."""
    import sys

    from conftest import degenerate_text
    from minimaxcert.expressions import Tape
    from minimaxcert.linalg import solve_stack
    from minimaxcert.nonsmooth import selector_sweep
    from minimaxcert.problem import parse_problem

    def refuse(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return run

    for modname, module in list(sys.modules.items()):
        if not modname.startswith("minimaxcert"):
            continue
        for name, original in (("selector_sweep", selector_sweep),
                               ("solve_stack", solve_stack)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse(name))
    runs = []
    run_tape = Tape.__call__

    def counting_run(tape, x, y):
        runs.append(tape)
        return run_tape(tape, x, y)

    monkeypatch.setattr(Tape, "__call__", counting_run)
    for spec, k in ((p2, 1), (parse_problem(degenerate_text(3)), 3)):
        runs.clear()
        rep = certify(spec, CandidatePoint([0.0] * k, [0.0] * k), config)
        assert rep.path == PATH_NONSMOOTH and rep.verdict == VERDICT_NECESSARY
        assert runs.count(spec._bundle_program.tape) == 1


def test_batched_solves_only_where_h_is_read(p1, p2, config, monkeypatch):
    """A sweep solves for H(x, W) only when H is read: certify's nonsmooth
    path builds no sweep and makes no batched solve, the smooth path's
    value_derivatives makes one, and so do the directional and subgradient
    candidate sets."""
    from minimaxcert.linalg import SolvedStack
    from minimaxcert.lower import solve_lower
    from minimaxcert.nonsmooth import (
        kkt_map_directional,
        phi_generalized_gradients,
        selector_sweep,
    )
    from minimaxcert.problem import parse_problem

    from conftest import degenerate_text

    solves = []
    solve = SolvedStack.solve

    def counting_solve(self, b):
        solves.append(len(self.A))
        return solve(self, b)

    monkeypatch.setattr(SolvedStack, "solve", counting_solve)

    def count(run):
        solves.clear()
        run()
        return len(solves)

    spec = parse_problem(degenerate_text(3))
    assert count(lambda: certify(spec, CandidatePoint([0.0] * 3, [0.0] * 3), config)) == 0
    assert count(lambda: certify(p1, CandidatePoint([0.0], [0.0]), config)) == 1
    sol = solve_lower(p2, [0.0], ([0.0], None, None), config)
    assert count(lambda: kkt_map_directional(p2, sol, [1.0], config)) == 1
    assert count(lambda: phi_generalized_gradients(p2, sol, config)) == 1

    sweep = selector_sweep(p2, sol, config)
    assert count(lambda: sweep.rhs) == 0
    first = sweep.H
    assert sweep.H is first and not first.flags.writeable
    assert solves == [2]  # one solve of the two B-selectors' stack


# --- evaluation failures and the per-call bundle memo -----------------------------

@pytest.mark.parametrize("text, x, message", [
    # the gradient of -sqrt(y1^2 + x1^2) divides by zero at the origin
    ("dims 1 1 0 0 0 0\nf = -sqrt(y1^2+x1^2)\n", "0", "division by zero"),
    ("dims 1 1 0 0 0 0\nf = -y1^2 + abs(x1)\n", "0", "problem uses abs()"),
    # sign is not C^2 at 0 either: phi(t) = t^2 - 0.001 < phi(0) for small t > 0
    ("dims 1 1 0 0 0 0\nf = x1^2 - 0.001*sign(x1) - y1^2\n", "0",
     "problem uses abs() or sign()"),
    ("dims 1 1 0 1 0 0\nf = -y1^2 + log(x1)\ng1 = y1 - 1\n", "-1",
     "log of a non-positive value"),
], ids=["sqrt-at-origin", "abs", "sign", "log-of-negative"])
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

    def counting_run(tape, x, y):
        if tape is spec._bundle_program.tape:
            runs.append(x.tobytes() + y.tobytes())
        return run_tape(tape, x, y)

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


@pytest.mark.parametrize("x, y, verdict", [(0.0, 0.0, VERDICT_CERTIFIED),
                                           (0.5, 0.5, VERDICT_REFUTED)])
def test_upper_data_evaluated_once_per_point_per_call(config, x, y, verdict):
    from minimaxcert.fixtures import load_fixture
    from minimaxcert.problem import bundle_memo
    from minimaxcert.upper import upper_data

    candidate = CandidatePoint([x], [y])
    want = dumps_canonical(report_to_doc(certify(load_fixture("P1"), candidate, config)))
    spec = load_fixture("P1")
    program, runs = spec._upper_program, []

    def counting_program(x, y):
        runs.append(np.asarray(x).tobytes())
        return program(x, y)

    spec.__dict__["_upper_program"] = counting_program
    rep = certify(spec, candidate, config)
    assert rep.verdict == verdict
    assert dumps_canonical(report_to_doc(rep)) == want
    assert runs and len(runs) == len(set(runs))
    # the memo closes with the call: a second call evaluates again
    count = len(runs)
    certify(spec, candidate, config)
    assert runs[count:] == runs[:count]
    # within one scope the memo keeps distinct points apart
    with bundle_memo():
        at_zero = upper_data(spec, [0.0])
        assert upper_data(spec, [0.0]) is at_zero
        assert upper_data(spec, [3.0]).G.tolist() == [1.0] != at_zero.G.tolist()


# g_i = y_i - x_i, active at zero multiplier on the lattice: the nonsmooth path
SELECTOR_TEXT = ("dims 2 2 0 2 0 0\n"
                 "f = -(y1 - x1)^2 - 1.5*(y2 - x2)^2 + (1 - cos(x1)) + 0.5*(1 - cos(x2))\n"
                 "g1 = y1 - x1\ng2 = y2 - x2\n")


@pytest.mark.parametrize("text, x, path, near", [
    pytest.param(None, [0.0], PATH_SMOOTH, [1.0 - 1e-3], id="P1"),
    pytest.param(SELECTOR_TEXT, [2 * np.pi, -2 * np.pi], PATH_NONSMOOTH,
                 [2 * np.pi - 1e-3, -2 * np.pi - 1e-3], id="selector"),
])
def test_lagrangian_and_multipliers_computed_once_per_call(config, monkeypatch, text, x,
                                                           path, near):
    """`near` is a y where every g_i is -1e-3."""
    import sys

    from minimaxcert import lower
    from minimaxcert.fixtures import load_fixture
    from minimaxcert.problem import bundle_memo, eval_bundle, parse_problem

    spec = load_fixture("P1") if text is None else parse_problem(text)
    candidate = CandidatePoint(x, x)
    want = dumps_canonical(report_to_doc(certify(spec, candidate, config)))
    lagrangian = lower._lagrangian
    lagrangian_eval, recover_multipliers = lower.lagrangian_eval, lower.recover_multipliers
    computed_lags, asked_lags, recs, frozen = [], set(), [], []

    def lag_key(bundle, mu, lam):
        return (bundle.x.tobytes(), bundle.y.tobytes(),
                *(np.asarray(v, dtype=float).reshape(-1).tobytes() for v in (mu, lam)))

    def counting_lagrangian(bundle, mu, lam):
        computed_lags.append(lag_key(bundle, mu, lam))
        return lagrangian(bundle, mu, lam)

    def asking_lagrangian(bundle, mu, lam):
        asked_lags.add(lag_key(bundle, mu, lam))
        lag = lagrangian_eval(bundle, mu, lam)
        frozen.extend(a.flags.writeable is False
                      for a in (lag.grad_y, lag.grad_x, lag.yy, lag.yx, lag.xx))
        return lag

    def counting_recover(spec, x, y, config=None):
        recs.append((config or CheckConfig()).tol_act)
        rec = recover_multipliers(spec, x, y, config)
        frozen.extend(a.flags.writeable is False for a in (rec.mu, rec.lam))
        return rec

    monkeypatch.setattr(lower, "_lagrangian", counting_lagrangian)
    for name, module in list(sys.modules.items()):
        if name.startswith("minimaxcert"):
            if getattr(module, "lagrangian_eval", None) is lagrangian_eval:
                monkeypatch.setattr(module, "lagrangian_eval", asking_lagrangian)
            if getattr(module, "recover_multipliers", None) is recover_multipliers:
                monkeypatch.setattr(module, "recover_multipliers", counting_recover)

    rep = certify(spec, candidate, config)
    assert rep.path == path
    assert dumps_canonical(report_to_doc(rep)) == want
    # every distinct Lagrangian computed, and computed once; one recovery
    assert len(computed_lags) == len(set(computed_lags)) and set(computed_lags) == asked_lags
    assert recs == [config.tol_act] and frozen and all(frozen)
    # the memo closes with the call: a second call computes again
    lags = len(computed_lags)
    certify(spec, candidate, config)
    assert computed_lags[lags:] == computed_lags[:lags]
    assert recs == [config.tol_act] * 2
    # within one scope the memo keeps distinct multipliers apart
    with bundle_memo():
        bundle = eval_bundle(spec, candidate.x, near)
        lam = np.zeros(spec.m2)
        assert lagrangian_eval(bundle, [], lam) is lagrangian_eval(bundle, [], lam.copy())
        lam[0] = 1.0
        grads = [lagrangian_eval(bundle, [], v).grad_y.tolist() for v in (lam, 2 * lam)]
        assert grads[0] != grads[1]
    # tol_act picks the active set the multipliers are recovered on
    actives = [recover_multipliers(spec, candidate.x, near, CheckConfig(tol_act=tol)).active
               for tol in (1e-8, 1e-2)]
    assert actives == [(), tuple(range(spec.m2))]


# two inequalities active with positive multipliers at x = y = 0, so the
# smooth path checks LICQ on both rows; sigma_min is neither 0 nor 1
TWO_ACTIVE_TEXT = ("dims 2 2 0 2 0 0\n"
                   "f = -(y1 - 1 - x1)^2 - (y2 - 1 - x2)^2 + x1^2 + x2^2\n"
                   "g1 = y1 - x1\ng2 = y1 + 2*y2 - x2\n")


@pytest.mark.parametrize("text, x", [
    pytest.param(None, [0.0], id="P1"),
    pytest.param(TWO_ACTIVE_TEXT, [0.0, 0.0], id="two-active"),
])
def test_licq_sigma_computed_once_per_point(config, monkeypatch, text, x):
    """The inner LICQ check reads the sigma_min of (J_y h; J_y g[active]):
    one `licq_sigma` call and one SVD per `certify` call."""
    from minimaxcert import lower
    from minimaxcert.fixtures import load_fixture
    from minimaxcert.problem import eval_bundle, parse_problem

    spec = load_fixture("P1") if text is None else parse_problem(text)
    candidate = CandidatePoint(x, x)
    want = dumps_canonical(report_to_doc(certify(spec, candidate, config)))
    svd, licq_sigma = lower.smallest_singular_value, lower.licq_sigma
    svds, asked = [], []

    def counting_svd(M):
        svds.append(M.shape)
        return svd(M)

    def asking(bundle, active):
        asked.append(active)
        return licq_sigma(bundle, active)

    monkeypatch.setattr(lower, "smallest_singular_value", counting_svd)
    monkeypatch.setattr(lower, "licq_sigma", asking)

    rep = certify(spec, candidate, config)
    assert rep.path == PATH_SMOOTH
    assert dumps_canonical(report_to_doc(rep)) == want
    assert len(svds) == len(asked) == 1
    # sigma is +inf without constraint rows, finite with them
    actives = [(), *[tuple(range(k)) for k in range(1, spec.m2 + 1)]]
    bundle = eval_bundle(spec, candidate.x, candidate.y)
    sigmas = [licq_sigma(bundle, a) for a in actives]
    assert sigmas[0] == np.inf and np.isfinite(sigmas[1:]).all()


@pytest.mark.parametrize("case", ["P2", "P2-supplied", "selector"])
def test_inner_point_analysed_once(config, monkeypatch, case):
    """Jacobian uniqueness and Assumption A read one analysis of the inner
    KKT point: a nonsmooth candidate builds its critical cone and hull
    eigenvalue once and runs one LICQ SVD, also when verified supplied
    multipliers differ from the ones least squares would give."""
    from minimaxcert import lower
    from minimaxcert.fixtures import load_fixture
    from minimaxcert.problem import parse_problem

    if case == "selector":
        wl = perfbench_workloads().selector(1)
        spec, c = parse_problem(wl.problems["degenerate"]), wl.op(0).candidates[0]
        candidate = CandidatePoint(c.x, c.y)
    else:
        # lam = 5e-9 passes the supplied-multiplier test (residual 5e-9) and
        # fails strict complementarity; the recovered lam is 0
        spec = load_fixture("P2")
        candidate = CandidatePoint([0.0], [0.0], lam=[5e-9] if case == "P2-supplied" else None)
    want = dumps_canonical(report_to_doc(certify(spec, candidate, config)))
    build, eig, licq = (lower.critical_curvature, lower.max_eigenvalue_on_subspace,
                        lower.licq_sigma)
    lags, eigs, svds = [], [], []

    def counting_build(bundle, lag, partition):
        lags.append(id(lag))
        return build(bundle, lag, partition)

    def counting_eig(M, basis):
        eigs.append(M.shape)
        return eig(M, basis)

    def counting_licq(bundle, active):
        svds.append(active)
        return licq(bundle, active)

    monkeypatch.setattr(lower, "critical_curvature", counting_build)
    monkeypatch.setattr(lower, "max_eigenvalue_on_subspace", counting_eig)
    monkeypatch.setattr(lower, "licq_sigma", counting_licq)

    rep = certify(spec, candidate, config)
    assert rep.path == PATH_NONSMOOTH
    assert dumps_canonical(report_to_doc(rep)) == want
    multipliers = next(c for c in rep.results if c.name == "multipliers")
    assert (multipliers.detail == "supplied multipliers verified") == (case == "P2-supplied")
    assert len(lags) == len(eigs) == 1
    assert len(svds) == 1


@pytest.mark.parametrize("name, lam, path", [
    pytest.param("P1", None, PATH_SMOOTH, id="P1-origin"),
    pytest.param("P2", [5e-9], PATH_NONSMOOTH, id="P2-lambda-small"),
])
def test_classify_path_builds_one_analysis(config, monkeypatch, name, lam, path):
    """`classify_path` builds one inner analysis at one multiplier set, so
    the LICQ SVD and the critical cone with its hull bound run once.  The
    least-squares recovery runs once without supplied multipliers and not
    at all when they pass the KKT test, as lam = 5e-9 does at P2's origin
    (`certify-P2-lambda-small`; least squares gives 0)."""
    from minimaxcert import lower
    from minimaxcert.fixtures import load_fixture

    calls = dict.fromkeys(("licq_sigma", "critical_curvature", "recover_multipliers"), 0)
    for fn in calls:
        def counting(*args, _fn=fn, _original=getattr(lower, fn)):
            calls[_fn] += 1
            return _original(*args)
        monkeypatch.setattr(lower, fn, counting)

    decision = classify_path(load_fixture(name), CandidatePoint([0.0], [0.0], lam=lam), config)
    assert decision.path == path
    assert calls == {"licq_sigma": 1, "critical_curvature": 1,
                     "recover_multipliers": 0 if lam else 1}
    # the path runs at the multipliers the analysis settled on
    assert decision.lam.tolist() == (lam or [0.0])


def test_every_memo_kind_is_read_again_within_a_call(monkeypatch):
    """A per-call memo earns its keep only when what it holds is asked for
    again: over `certify` at the reference points, every kind of entry that
    is filled is read back within its call, and the kinds are the bundle
    per (spec, x, y), the outer data per (spec, x), the Lagrangian per
    (bundle, mu, lam) and the cone walk's root eigenpair per (M, E)."""
    import sys
    from collections import Counter

    from minimaxcert.fixtures import load_fixture
    from minimaxcert.problem import memoised

    filled, read = Counter(), Counter()

    def counting(owner, key, compute):
        fresh = []

        def computing():
            fresh.append(key[0])
            return compute()

        value = memoised(owner, key, computing)
        (filled if fresh else read)[key[0]] += 1
        return value

    for name, module in list(sys.modules.items()):
        if name.startswith("minimaxcert") and getattr(module, "memoised", None) is memoised:
            monkeypatch.setattr(module, "memoised", counting)
    for name, x in (("P1", 0.0), ("P1", 0.5), ("P2", 0.0), ("P3", 0.0), ("P4", 1.0)):
        certify(load_fixture(name), CandidatePoint([x], [x]), CheckConfig())
    assert set(read) == set(filled), f"filled {dict(filled)}, read back {dict(read)}"
    assert set(filled) == {"bundle", "upper", "lagrangian", "face"}


# --- the remaining ValueErrors become evaluation error checks -----------------------

@pytest.mark.parametrize("x, y, lam, message", [
    pytest.param([0.0, 0.0], [0.0], None, "x has shape (2,), expected (1,)", id="x-shape"),
    pytest.param([0.0], [0.0, 0.0], None, "y has shape (2,), expected (1,)", id="y-shape"),
    pytest.param([0.0], [0.0], [0.0, 0.0], "lam has shape (2,), expected (1,)",
                 id="lam-shape"),
])
def test_value_error_is_an_error_check(x, y, lam, message, config, p2):
    from minimaxcert.conditions import ERROR

    rep = certify(p2, CandidatePoint(x, y, lam=lam), config)
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


# --- soundness and totality probes -------------------------------------------------

# dims 1 1 0 2 0 0 with g1 = g2 = -y1: two active rows in one y
TWIN_ROWS_TEXT = "dims 1 1 0 2 0 0\nf = -(y1 - x1)^2\ng1 = -y1\ng2 = -y1\n"
# two degenerate indices at the origin for x <= 0
DEGENERATE_PAIR_TEXT = "dims 1 2 0 2 0 0\nf = -(y1-x1)^2 - (y2-x1)^2\ng1 = y1\ng2 = y2\n"


# dims 1 1 0 0 0 1 with G1 = x1^2: x = 0 is the whole feasible set, and MFCQ
# fails there (grad G1 = 0)
NO_MFCQ_TEXT = "dims 1 1 0 0 0 1\nf = {f}\nG1 = x1^2\n"
KINK_TEXT = "dims 1 1 0 1 0 0\nf = {f}\ng1 = y1\n"

# the inner refinement's Newton solve stops after one step short of tol_newton
NEWTON_FAILS = {"newton_max_iter": 1, "tol_newton": 1e-14}

PROBES = [
    # Y(x) = {0}, so phi = x^2 and the origin is local minimax (the oracle
    # agrees); two active rows in one y leave LICQ failing, so the KKT
    # violation is no disproof
    pytest.param("dims 1 1 0 2 0 0\nf = y1 + x1^2\ng1 = y1^2\ng2 = -y1\n", "0", "0", {},
                 VERDICT_INCONCLUSIVE, 3, id="licq-rows-exceed-y"),
    # two outer equalities on one x: MFCQ fails, and {x = 0} is the whole
    # feasible set
    pytest.param("dims 1 1 0 0 2 0\nf = -y1^2 + x1^2\nH1 = x1\nH2 = 2*x1\n", "0", "0", {},
                 VERDICT_CERTIFIED, 0, id="mfcq-rows-exceed-x"),
    # least squares gives lam = -1e-8 (-5e-9) twice, within tol_act, at
    # residual 1e-8 (5e-9); recovery no longer clips them to 0, which the ids
    # recall.  The twin rows fail LICQ, so the path is invalid either way
    pytest.param(TWIN_ROWS_TEXT, "0", "-1e-8", {}, VERDICT_INCONCLUSIVE, 3,
                 id="clipped-residual"),
    pytest.param(TWIN_ROWS_TEXT, "0", "-5e-9", {}, VERDICT_INCONCLUSIVE, 3,
                 id="clipped-within"),
    # P1 off its maximiser by 1e-7, inside tol_act, outside tol_kkt
    pytest.param("P1", "0", "1e-7", {"tol_act": 1e-6, "tol_kkt": 1e-9}, VERDICT_REFUTED, 2,
                 id="P1-tight-kkt"),
    # lam = -2e-9 is within tol_kkt and below -tol_act: y = 0 is not the
    # inner maximiser y = x
    pytest.param("P2", "-1e-9", "0", {"tol_act": 1e-10, "tol_kkt": 1e-8}, VERDICT_REFUTED, 2,
                 id="P2-tight-act"),
    # residuals of 5e-7 and 4e-7 within a loosened tol_newton: the solution
    # is accepted at tol_newton, and P1's phi'(0.5) = 0.5 refutes
    pytest.param("P1", "0.5", "0.5000005", {"tol_kkt": 1e-6, "tol_newton": 1e-6},
                 VERDICT_REFUTED, 2, id="P1-loose-newton"),
    # g1 = y1 = -5e-7 is active at tol_act = 1e-6 and lam = 4e-7 is at most
    # max(tol_act, tol_sc): beta = {1}, the nonsmooth path.  phi = 0 for
    # x <= 0, so near x = -3e-7 phi is flat and first order holds
    pytest.param("P2", "-3e-7", "-5e-7", {"tol_act": 1e-6, "tol_kkt": 1e-6, "tol_newton": 1e-6},
                 VERDICT_NECESSARY, 0, id="P2-loose-newton"),
    # beta = {1, 2}: lam = 5e-9 on each row is at most tol_act, whatever the
    # smaller tol_sc.  The nonsmooth path enumerates no selector, so
    # selector_cap = 1 does not bound it, and grad_x L = -4x = -1e-8 is
    # within tol_kkt
    pytest.param(DEGENERATE_PAIR_TEXT, "2.5e-9", "0,0", {"tol_sc": 1e-10, "selector_cap": 1},
                 VERDICT_NECESSARY, 0, id="beta-above-selector-cap"),
    # y = 2e-8 misses P1's maximiser y = 0 outside tol_kkt; g1 = y1 - 1 is
    # inactive, so LICQ holds and the KKT violation refutes
    pytest.param("P1", "0", "2e-8", {}, VERDICT_REFUTED, 2, id="P1-kkt-under-licq"),
    # phi = x has no outer multiplier, but MFCQ fails, so the empty
    # polytope is no disproof: x = 0 is the only feasible point
    pytest.param(NO_MFCQ_TEXT.format(f="x1 - y1^2"), "0", "0", {}, VERDICT_INCONCLUSIVE, 3,
                 id="empty-polytope-without-mfcq"),
    # phi = -x^2: first order holds at u = 0, and the second-order necessary
    # check is skipped without MFCQ
    pytest.param(NO_MFCQ_TEXT.format(f="-x1^2 - y1^2"), "0", "0", {}, VERDICT_NECESSARY, 0,
                 id="second-order-skipped-without-mfcq"),
    # g1 = y1 at the origin: beta = {1}, the nonsmooth path, whose first
    # order reads grad phi = grad_x L and which has no second-order check.
    # phi = 0 for x <= 0 and -x^2 for x > 0: not local minimax, yet first
    # order holds
    pytest.param(KINK_TEXT.format(f="-(y1-x1)^2"), "0", "0", {}, VERDICT_NECESSARY, 0,
                 id="kink-not-minimax"),
    # grad phi = 1 and no outer constraint: not local minimax, but with beta
    # nonempty the empty polytope does not refute
    pytest.param(KINK_TEXT.format(f="-(y1-x1)^2 + x1"), "0", "0", {}, VERDICT_INCONCLUSIVE, 3,
                 id="kink-gradient"),
    # phi >= x^2: a strict local minimax point, which the nonsmooth path does
    # not certify
    pytest.param(KINK_TEXT.format(f="-(y1-x1)^2 + 2*x1^2"), "0", "0", {}, VERDICT_NECESSARY, 0,
                 id="kink-strict-minimax"),
    # an inner equality on the nonsmooth path: h1 = y2 pins y2 = 0, and g1 = y1
    # is active with zero multiplier, so beta = {1}; phi = x^2 for x <= 0 and
    # 0 for x > 0, so first order holds and there is no second-order check
    pytest.param("dims 1 2 1 1 0 0\nf = -(y1-x1)^2 - y2^2 + x1^2\nh1 = y2\ng1 = y1\n",
                 "0", "0,0", {}, VERDICT_NECESSARY, 0, id="kink-inner-equality"),
    # |g| <= tol_act puts P2 at x = y = -1e-10 on the nonsmooth path; phi = 0
    # near it, so it is local minimax
    pytest.param("P2", "-1e-10", "-1e-10", {}, VERDICT_NECESSARY, 0, id="P2-near-kink"),
    # |beta| = 17, above selector_cap: nonsmooth first order reads grad_x L
    # alone, so no 2^17 selectors are built and the cap does not bound it
    pytest.param(degenerate_text(17), ",".join(["0"] * 17), ",".join(["0"] * 17), {},
                 VERDICT_NECESSARY, 0, id="degenerate-17"),
    # lam = 1e-7 is at most tol_sc = 1e-6, so g1 is in beta at the candidate
    # and at the refined solution: phi(x) = x has no outer multiplier, but
    # with beta nonempty the empty polytope does not refute
    pytest.param(KINK_TEXT.format(f="x1 - y1^2 + 1e-7*y1"), "0", "0", {"tol_sc": 1e-6},
                 VERDICT_INCONCLUSIVE, 3, id="nonsmooth-exact-family"),
    # y* = -0.3e-8 is interior and phi = x^2, so the origin is a strict local
    # minimax point.  At y = -0.6e-8, g1 is active at tol_act with lam =
    # 0.6e-8 <= tol_sc: beta = {1}, so strict complementarity fails and the
    # path is nonsmooth, where first order holds
    pytest.param(KINK_TEXT.format(f="x1^2 - (y1 + 0.3e-8)^2"), "0", "-0.6e-8", {},
                 VERDICT_NECESSARY, 0, id="sc-read-off-beta"),
    # one Newton step cannot refine y to 1e-14: the inner refinement fails on
    # either path, and its error check refutes nothing
    pytest.param("P1", "0", "1e-9", NEWTON_FAILS, VERDICT_INCONCLUSIVE, 3,
                 id="P1-newton-fails"),
    pytest.param("P2", "0", "1e-12", NEWTON_FAILS, VERDICT_INCONCLUSIVE, 3,
                 id="P2-newton-fails"),
    # log(x1) at x1 = -1 leaves its domain: the `evaluation` error check
    pytest.param("dims 1 1 0 0 0 0\nf = log(x1) - y1^2\n", "-1", "0", {},
                 VERDICT_INCONCLUSIVE, 1, id="evaluation-error"),
]


@pytest.mark.parametrize("text, x, y, tols, verdict, code", PROBES)
def test_probe_verdicts_and_exit_codes(text, x, y, tols, verdict, code, tmp_path):
    from minimaxcert.cli import main
    from minimaxcert.fixtures import FIXTURE_NAMES, fixture_text

    prob, out, cfg = tmp_path / "p.prob", tmp_path / "r.json", tmp_path / "c.cfg"
    prob.write_text(fixture_text(text) if text in FIXTURE_NAMES else text, encoding="utf-8")
    cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in tols.items()), encoding="utf-8")
    argv = ["certify", str(prob), f"--x={x}", f"--y={y}", "--config", str(cfg),
            "--json", str(out)]
    assert main(argv) == code
    assert json.loads(out.read_text())["verdict"] == verdict


@pytest.mark.parametrize("name, y, path, check, kind", [
    ("P1", 1e-9, PATH_SMOOTH, "sensitivity_system", "info"),
    ("P2", 1e-12, PATH_NONSMOOTH, "first_order_nonsmooth", "necessary"),
])
def test_newton_failure_ends_the_path_in_an_error_check(name, y, path, check, kind):
    """A failed inner refinement ends its path in an `error` check; on the
    nonsmooth path that check is necessary, and an error never refutes."""
    from minimaxcert.conditions import ERROR
    from minimaxcert.fixtures import load_fixture

    rep = certify(load_fixture(name), CandidatePoint([0.0], [y]), CheckConfig(**NEWTON_FAILS))
    failed = rep.results[-1]
    assert (rep.path, failed.name, failed.status, failed.kind) == (path, check, ERROR, kind)
    assert failed.detail.startswith("inner refinement failed")
    assert rep.verdict == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize("text, path", [
    ("dims 1 2 0 1 0 0\nf = -(y1 - x1)^2 - 0.01*y2^2\ng1 = y1\n", PATH_NONSMOOTH),
    ("dims 1 2 0 0 0 0\nf = -(y1 - x1)^2 - 0.01*y2^2\n", PATH_SMOOTH),
])
def test_inner_refinement_drift_is_noted_on_both_paths(text, path, config):
    """y2 = 4e-7 passes the inner checks at tol_kkt but lies more than tol_act
    from the inner solution y2 = 0, which the refinement finds."""
    from minimaxcert.problem import parse_problem

    rep = certify(parse_problem(text), CandidatePoint([0.0], [0.0, 4e-7]), config)
    assert rep.path == path
    assert "inner refinement moved y by 4.000e-07" in rep.notes


def test_singular_sweeps_end_each_path_as_before(monkeypatch):
    """With every A(x, W) singular to tolerance, the smooth path ends at its
    sensitivity system, unrefuted; the nonsmooth path reads no A(x, W), so
    its report and verdict do not change."""
    import minimaxcert.linalg
    from minimaxcert.fixtures import load_fixture

    origin = CandidatePoint([0.0], [0.0])
    before = dumps_canonical(report_to_doc(certify(load_fixture("P2"), origin)))
    monkeypatch.setattr(minimaxcert.linalg, "SINGULAR_RTOL", 10.0)
    rep = certify(load_fixture("P1"), origin)
    last = rep.results[-1]
    assert rep.path == PATH_SMOOTH and rep.verdict == VERDICT_INCONCLUSIVE
    assert (last.name, last.status) == ("sensitivity_system", VIOLATED)
    assert "singular to tolerance" in last.detail

    rep = certify(load_fixture("P2"), origin)
    assert rep.path == PATH_NONSMOOTH and rep.verdict == VERDICT_NECESSARY
    assert [(c.name, c.status) for c in rep.results[-2:]] == [
        ("mfcq", SATISFIED), ("first_order_nonsmooth", SATISFIED)]
    assert dumps_canonical(report_to_doc(rep)) == before


@pytest.mark.parametrize("name, x, y, v, path", [
    ("P1", 0.0, 0.0, [0.0], PATH_SMOOTH),
    ("P2", 0.0, 0.0, None, PATH_NONSMOOTH),
    ("P4", 1.0, 1.0, [1.0], PATH_NONSMOOTH),
])
def test_outer_level_built_once_per_call_on_either_path(name, x, y, v, path, config,
                                                        monkeypatch):
    """The outer polytope on grad_x L is built once and read by first order,
    the supplied (u, v) and the second-order checks alike."""
    import sys

    from minimaxcert.fixtures import load_fixture
    from minimaxcert.upper import upper_kkt_and_polytope as build

    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    for modname, module in list(sys.modules.items()):
        if (modname.startswith("minimaxcert")
                and getattr(module, "upper_kkt_and_polytope", None) is build):
            monkeypatch.setattr(module, "upper_kkt_and_polytope", counted)
    rep = certify(load_fixture(name), CandidatePoint([x], [y], v=v), config)
    assert rep.path == path
    assert len(calls) == 1


def _probe_reports():
    from minimaxcert.fixtures import FIXTURE_NAMES
    from minimaxcert.problem import parse_problem

    for probe in PROBES:
        text, x, y, tols = probe.values[:4]
        spec = parse_problem(fixture_text(text) if text in FIXTURE_NAMES else text)
        candidate = CandidatePoint([float(v) for v in x.split(",")],
                                   [float(v) for v in y.split(",")])
        yield certify(spec, candidate, CheckConfig().replace(**tols))


def _workload_reports(source):
    """certify's reports on the benchmark's generated candidates: a seeded
    n = m = 3 lattice problem, the |beta| = 4 selector problem, or one
    fixture's cli-batch families (its reference points, bands and tiny
    offsets), with y moved off the inner maximiser as well."""
    from minimaxcert.problem import parse_problem

    wl = perfbench_workloads()
    if source == "lattice":
        lattice = wl.LatticeProblem.generate(np.random.default_rng(11), n=3, m2=2, active=1)
        text, rng = lattice.text(), np.random.default_rng(12)
        cands = [lattice.candidate(np.array([i, 0, -1]), wl._shift(rng, 3) if i % 2 else None)
                 for i in range(6)]
    elif source == "selector":
        selector = wl.selector(1)
        text = selector.problems["degenerate"]
        cands = [selector.op(i).candidates[0] for i in range(8)]
    else:
        text = fixture_text(source)
        cands = wl._fixture_candidates(source, np.random.default_rng(13), 0)
    points = [(c.x, c.y) for c in cands]
    if source not in ("lattice", "selector"):
        points += [(x, (y[0] + 0.5,)) for x, y in points[:8]]
    spec = parse_problem(text)
    for x, y in points:
        yield certify(spec, CandidatePoint(x, y), CheckConfig())


@pytest.mark.parametrize("source", ["lattice", "selector", "P1", "P2", "P3", "P4", "probes"])
def test_reports_keep_the_verdict_rule(source):
    """On canonical JSON reports: `refuted` names a violated necessary check
    whose requirements are satisfied; `certified-local-minimax` is the smooth
    path's `second_order_sufficient`, satisfied with its requirements; every
    necessary check but `evaluation` states requirements."""
    reports = _probe_reports() if source == "probes" else _workload_reports(source)
    verdicts = set()
    for report in reports:
        doc = json.loads(dumps_canonical(report_to_doc(report)))
        results = {r["name"]: r for r in doc["results"]}
        satisfied = {name for name, r in results.items() if r["status"] == SATISFIED}

        def verified(name):
            return satisfied.issuperset(results[name].get("requires", []))

        verdicts.add(doc["verdict"])
        if doc["verdict"] == VERDICT_REFUTED:
            assert any(results[name]["kind"] == "necessary" and results[name]["status"] == VIOLATED
                       and verified(name) for name in doc["decided_by"]), doc
        if doc["verdict"] == VERDICT_CERTIFIED:
            sufficient = results["second_order_sufficient"]
            assert doc["path"] == PATH_SMOOTH and sufficient["status"] == SATISFIED
            assert sufficient.get("requires") and verified("second_order_sufficient"), doc
        for r in doc["results"]:
            if r["kind"] == "necessary" and r["name"] != "evaluation":
                assert r.get("requires"), (r["name"], doc)
    assert verdicts & {VERDICT_REFUTED, VERDICT_CERTIFIED, VERDICT_NECESSARY}


# the checks that never decide a verdict, and so are not in conditions.POLICY
INFO_CHECKS = {
    "feasibility", "multipliers", "path", "lower_strict_complementarity", "lower_sosc",
    "lower_strong_sosc", "sensitivity_system", "upper_multipliers", "definition_oracle",
}


def test_policy_names_the_checks_certify_emits(tmp_path):
    """Over the golden certify cases and the probes, every emitted check is
    a `POLICY` key or an info check, and every `POLICY` key and requirement
    is emitted, so a misspelt name cannot silently become `info`.  Each
    first-order check the verdict rule reads is a necessary `POLICY` key
    that some case emits.  Each inner check has one name, the one a report
    prints: the lower checks are emitted under their own names, the
    hypothesis tuples list only them, and an invalid path's note names one
    of them or `feasibility`."""
    from minimaxcert.conditions import FIRST_ORDER, KIND_INFO, KIND_NECESSARY, POLICY
    from minimaxcert.lower import (
        ASSUMPTION_A,
        JACOBIAN_UNIQUENESS,
        check_assumption_a,
        check_jacobian_uniqueness,
    )
    from minimaxcert.problem import parse_problem

    from test_golden import CASES, run_case

    emitted, notes = set(), []
    for report in _probe_reports():
        emitted.update(c.name for c in report.results)
        notes += report.notes
    for name, (command, *_) in CASES.items():
        if command == "certify":
            doc = json.loads(run_case(name, tmp_path).split("--- json\n", 1)[1])
            emitted.update(r["name"] for r in doc["results"])
            notes += doc["notes"]
    assert emitted <= POLICY.keys() | INFO_CHECKS
    assert not POLICY.keys() & INFO_CHECKS
    assert all(kind != KIND_INFO for kind, _ in POLICY.values())
    needed = set(POLICY).union(*(requires for _, requires in POLICY.values()))
    assert needed <= emitted, sorted(needed - emitted)
    assert FIRST_ORDER and all(POLICY[name][0] == KIND_NECESSARY for name in FIRST_ORDER)
    assert set(FIRST_ORDER) <= emitted

    inner = set()
    for source in ("P1", "P2"):
        spec = parse_problem(fixture_text(source))
        inner.update(check_jacobian_uniqueness(spec, [0.0], [0.0], None, None).checks)
        inner.update(check_assumption_a(spec, [0.0], [0.0]).checks)
    assert inner <= emitted, sorted(inner - emitted)
    assert set(JACOBIAN_UNIQUENESS) | set(ASSUMPTION_A) <= inner
    prefix = "path invalid: first failing condition "
    named = {note.removeprefix(prefix) for note in notes if note.startswith(prefix)}
    assert named and named <= inner | {"feasibility"}, sorted(named)


def test_licq_probe_passes_the_oracle(config):
    from minimaxcert.oracle import verify_minimax_definition
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 1 1 0 2 0 0\nf = y1 + x1^2\ng1 = y1^2\ng2 = -y1\n")
    assert verify_minimax_definition(spec, [0.0], [0.0], config.oracle_grid()).passed


# inf - inf: a NaN that no domain test catches
_NAN = "(1e308*1e308 - 1e308*1e308)"


@pytest.mark.parametrize("text, m, message", [
    # each certified or refuted at the origin while its NaN went unchecked
    pytest.param(f"dims 1 1 0 0 0 0\nf = x1^2 - y1^2 + {_NAN}\n", 1,
                 "non-finite value of f in", id="f"),
    pytest.param(f"dims 1 1 0 0 0 1\nf = x1^2 - y1^2\nG1 = x1 - 1 + {_NAN}\n", 1,
                 "non-finite value of G1 in", id="G1"),
    pytest.param(f"dims 1 1 0 1 0 0\nf = x1^2 - y1^2\ng1 = y1 - 1 + {_NAN}\n", 1,
                 "non-finite value of g1 in", id="g1"),
    pytest.param(f"dims 1 2 1 0 0 0\nf = x1^2 - y1^2 - y2^2\nh1 = y2 + {_NAN}\n", 2,
                 "non-finite value of h1 in", id="h1"),
    # the values are finite; a Hessian entry is 1e308*2*2 = inf
    pytest.param("dims 1 1 0 1 0 0\nf = x1^2 - y1^2\ng1 = y1 - 1 + 1e308*(2*x1^2)\n", 1,
                 "non-finite derivative value of g1 in", id="g1-hessian"),
    pytest.param("dims 1 1 0 0 0 0\nf = x1^2 - y1^2 + 1e308*(2*y1^2)\n", 1,
                 "non-finite derivative value of f in", id="f-hessian"),
])
def test_non_finite_problem_data_is_an_evaluation_error(text, m, message):
    """A non-finite value or derivative of any problem function at the
    candidate is a DomainError naming that function: an `evaluation` error
    check and an inconclusive verdict."""
    from minimaxcert.conditions import ERROR
    from minimaxcert.problem import parse_problem

    rep = certify(parse_problem(text), CandidatePoint([0.0], [0.0] * m))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    check = result(rep, "evaluation")
    assert check.status == ERROR and message in check.detail


@st.composite
def _small_problems(draw):
    """Problem text with n, m <= 2: a concave-in-y quadratic f with small
    integer coefficients, and affine h, g, H, G rows through or near the
    origin, where a row may repeat, negate or double an earlier one."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    m1 = draw(st.integers(0, m - 1))
    m2, n1, n2 = (draw(st.integers(0, 2)) for _ in range(3))
    xs, ys = [f"x{i + 1}" for i in range(n)], [f"y{i + 1}" for i in range(m)]
    coef = st.integers(-2, 2)

    def linear(names):
        terms = [f"{draw(coef)}*{v}" for v in names]
        return " + ".join(terms)

    L = np.array(draw(st.lists(coef, min_size=m * m, max_size=m * m))).reshape(m, m)
    Q = -(L @ L.T)
    f = [f"{Q[i, j] / 2}*{ys[i]}*{ys[j]}" for i in range(m) for j in range(m)]
    f += [f"{draw(coef)}*{u}*{v}" for u in ys for v in xs]
    f += [f"{draw(coef) / 2}*{u}*{v}" for u in xs for v in xs]
    lines = [f"dims {n} {m} {m1} {m2} {n1} {n2}", "f = " + " + ".join(f)]
    for family, count, names in (("h", m1, ys + xs), ("g", m2, ys + xs),
                                 ("H", n1, xs), ("G", n2, xs)):
        rows: list[str] = []
        for k in range(count):
            if rows and draw(st.booleans()):
                row = f"{draw(st.sampled_from(['', '-', '2*']))}({draw(st.sampled_from(rows))})"
            else:
                row = f"{linear(names)} - {draw(st.sampled_from([0, 0, 1]))}"
            rows.append(row)
            lines.append(f"{family}{k + 1} = {row}")
    offsets = st.floats(-1e-7, 1e-7) | st.just(0.0)
    x = draw(st.lists(offsets, min_size=n, max_size=n))
    y = draw(st.lists(offsets, min_size=m, max_size=m))
    return "\n".join(lines) + "\n", x, y


_TOLERANCES = ("tol_act", "tol_kkt", "tol_licq", "tol_sc", "tol_pd", "tol_mfcq")


@settings(max_examples=300)
@given(problem=_small_problems(),
       exponents=st.lists(st.floats(-10, -6), min_size=6, max_size=6))
def test_certify_is_total(problem, exponents):
    """Every candidate yields a report that serialises canonically, at the
    default tolerances and at tolerances drawn log-uniformly in 1e-10..1e-6;
    a failure is an `error` check, never an exception."""
    from minimaxcert.problem import parse_problem

    text, x, y = problem
    spec = parse_problem(text)
    custom = CheckConfig(**{k: 10.0**e for k, e in zip(_TOLERANCES, exponents)})
    for config in (CheckConfig(), custom):
        rep = certify(spec, CandidatePoint(x, y), config)
        doc = json.loads(dumps_canonical(report_to_doc(rep)))
        assert doc["verdict"] == rep.verdict in (VERDICT_CERTIFIED, VERDICT_NECESSARY,
                                                 VERDICT_REFUTED, VERDICT_INCONCLUSIVE)


@settings(max_examples=300)
@given(problem=_small_problems(),
       exponents=st.lists(st.floats(-10, -6), min_size=7, max_size=7))
@example(problem=(fixture_text("P1"), [0.5], [0.5 + 5e-7]),
         exponents=[-8, -6, -8, -8, -8, -8, -6])
@example(problem=(fixture_text("P2"), [-3e-7], [-5e-7]),
         exponents=[-6, -6, -8, -8, -8, -8, -6])
def test_certify_is_total_at_any_tol_newton(problem, exponents):
    """As `test_certify_is_total`, with `tol_newton` drawn in 1e-10..1e-6
    too: a solution that `solve_lower` accepts is accepted by everything that
    opens it."""
    from minimaxcert.problem import parse_problem

    text, x, y = problem
    names = (*_TOLERANCES, "tol_newton")
    config = CheckConfig(**{k: 10.0**e for k, e in zip(names, exponents)})
    rep = certify(parse_problem(text), CandidatePoint(x, y), config)
    doc = json.loads(dumps_canonical(report_to_doc(rep)))
    assert doc["verdict"] == rep.verdict in (VERDICT_CERTIFIED, VERDICT_NECESSARY,
                                             VERDICT_REFUTED, VERDICT_INCONCLUSIVE)


def test_degenerate_pair_checks_beta_before_the_selector_cap():
    # lam = 5e-9 on both active rows is at most max(tol_act, tol_sc): beta =
    # {1, 2}, so strict complementarity fails whatever the smaller tol_sc, and
    # the nonsmooth path, which enumerates no selector, passes first order
    from minimaxcert.problem import parse_problem

    config = CheckConfig(tol_sc=1e-10, selector_cap=1)
    rep = certify(parse_problem(DEGENERATE_PAIR_TEXT), CandidatePoint([2.5e-9], [0.0, 0.0]),
                  config)
    assert rep.path == PATH_NONSMOOTH and rep.verdict == VERDICT_NECESSARY
    sc = result(rep, "lower_strict_complementarity")
    assert sc.status == VIOLATED and sc.value == pytest.approx(5e-9, rel=1e-12)
    assert sc.tolerance == config.tol_act
    assert result(rep, "first_order_nonsmooth").status == SATISFIED
    assert "sensitivity_system" not in {c.name for c in rep.results}


# --- large second derivatives: Hessians are symmetric by construction -------------

def test_scaling_f_up_keeps_the_verdict_and_check_statuses(config):
    from minimaxcert.problem import parse_problem

    from conftest import CROSS_TEXT

    # each second derivative has one rounding route, so nothing compares two
    candidate = CandidatePoint([2.213], [0.738])
    plain, scaled = (certify(parse_problem(CROSS_TEXT.format(scale=s)), candidate, config)
                     for s in ("", "1e3*"))
    assert plain.verdict == scaled.verdict == VERDICT_CERTIFIED
    assert [(c.name, c.status) for c in scaled.results] == [
        (c.name, c.status) for c in plain.results]


def test_value_asymmetry_probe_is_refuted_on_first_order(config):
    from minimaxcert.problem import parse_problem

    from conftest import VALUE_ASYMMETRY_TEXT

    # f = 1e6*(exp(t*y1) - y1^2 + t^2) depends on x only through t = x1*x2,
    # which is 1.0 at the candidate.  At t = 1, e^y - y^2 increases in y (its
    # slope e^y - 2y is at least 2 - 2 ln 2 > 0), so the inner max sits on
    # g1 = 0, y1 = 0.764.  Then phi'(t) = 1e6*(0.764*e^(0.764 t) + 2t) > 0 and
    # grad phi = phi'(t)*(x2, x1) != 0 with no outer constraint: the point is
    # not a local minimax point, whatever the rounding-level asymmetry of the
    # assembled value-function Hessian
    spec = parse_problem(VALUE_ASYMMETRY_TEXT)
    rep = certify(spec, CandidatePoint([1.013, 0.987166831194472], [0.764]), config)
    assert rep.path == PATH_SMOOTH
    assert rep.verdict == VERDICT_REFUTED
    assert result(rep, "sensitivity_system").status == SATISFIED
    assert result(rep, "first_order").status == VIOLATED


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


def _relabel_x(text, perm):
    """The problem of `text` with each x_k renamed x_{perm[k-1]+1}."""
    import re

    return re.sub(r"\bx(\d+)\b", lambda m: f"x{perm[int(m.group(1)) - 1] + 1}", text)


def _padded_fixture(name):
    """The n = 1 fixture `name` with two more outer variables, each a strict
    minimiser at 0, so that relabelling x moves x1."""
    lines = fixture_text(name).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("dims"))
    lines[at] = "dims 3" + lines[at][len("dims 1"):]
    at = next(i for i, line in enumerate(lines) if line.startswith("f ="))
    lines[at] += " + x2^2 + 2*x3^2"
    return "\n".join(lines) + "\n"


def _relabelling_cases(source):
    """(problem text, x, y, expected verdict or None) per case."""
    if source == "lattice":
        wl = perfbench_workloads()
        lattice = wl.LatticeProblem.generate(np.random.default_rng(11), n=3, m2=2, active=1)
        rng = np.random.default_rng(12)
        for k, shifted in (([0, 1, -1], False), ([1, 0, 2], False), ([0, 1, -1], True),
                           ([-1, 2, 0], True)):
            c = lattice.candidate(np.array(k), wl._shift(rng, 3) if shifted else None)
            yield lattice.text(), c.x, c.y, c.verdict
    else:
        for name, x in (("P1", 0.0), ("P1", 0.5), ("P2", 0.0), ("P3", 0.0), ("P4", 1.0)):
            yield _padded_fixture(name), (x, 0.0, 0.0), (x,), None


@pytest.mark.parametrize("source", ["lattice", "fixtures"])
@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_relabelling_x_keeps_the_verdict(perm, source, config):
    from minimaxcert.problem import parse_problem

    # x_k becomes x_perm[k], in the text and in the candidate; y keeps its labels
    for text, x, y, verdict in _relabelling_cases(source):
        moved = [0.0] * 3
        for k, v in enumerate(x):
            moved[perm[k]] = v
        base = certify(parse_problem(text), CandidatePoint(x, y), config)
        relabelled = certify(parse_problem(_relabel_x(text, perm)),
                             CandidatePoint(moved, y), config)
        assert relabelled.verdict == base.verdict == (verdict or base.verdict)
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
    ju = check_jacobian_uniqueness(spec, candidate.x, candidate.y, decision.mu,
                                   decision.lam, config)
    if ju.cone is None:
        return "skipped", None, None, None
    lag = lagrangian_eval(eval_bundle(spec, candidate.x, candidate.y),
                          decision.mu, decision.lam)
    bound = max_eigenvalue_on_subspace(lag.yy, nullspace_basis(ju.cone.E))
    if ju.cone.F.shape[0] == 0:
        worst, witness = bound, None
    else:
        worst, witness = -np.inf, None
        for d in sample_cone(ju.cone, 256, 0):
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


# --- determinism across BLAS threads ----------------------------------------------

_SMOOTH_REPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import minimaxcert as mc
import workloads
from minimaxcert.report import dumps_canonical, report_to_doc

wl = workloads.smooth(7)
problem = mc.parse_problem(wl.problems["lattice"])
for i in range(len(wl.cycle)):
    c = wl.op(i).candidates[0]
    print(dumps_canonical(report_to_doc(mc.certify(problem, mc.CandidatePoint(c.x, c.y)))))
"""


def test_reports_do_not_depend_on_blas_threads():
    """The n = m = 20 lattice problem of the `smooth` benchmark gives the same
    canonical report bytes with one and with two OpenBLAS threads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from conftest import WORKLOADS_PATH

    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _SMOOTH_REPORTS, str(WORKLOADS_PATH.parent)],
                             env=env, capture_output=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count(b"\n") == 4
    assert b'"verdict":"certified-local-minimax"' in outputs[0]
    assert outputs[0] == outputs[1]
