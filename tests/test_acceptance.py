"""Acceptance checks, one test per criterion, each printing PASS/FAIL."""

import time

import numpy as np

from minimaxcert import (
    CandidatePoint,
    certify,
    check_assumption_a,
    kkt_map_directional,
    solve_lower,
    value_derivatives,
)
from minimaxcert.certify import (
    VERDICT_CERTIFIED,
    VERDICT_NECESSARY,
    VERDICT_REFUTED,
)
from minimaxcert.conditions import VIOLATED
from minimaxcert.expressions import Var, differentiate, parse_expression
from minimaxcert.nonsmooth import selector_sweep
from minimaxcert.oracle import GridSpec, fd_derivatives, verify_minimax_definition
from minimaxcert.problem import eval_bundle
from minimaxcert.report import dumps_canonical, report_to_doc

from conftest import evaluate, random_smooth_instance
from test_expressions import central_fd, random_polynomial


def _report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, detail


def _phi_func(spec, config, sol):
    def func(xv):
        s = solve_lower(spec, xv, (sol.y, sol.mu, sol.lam), config)
        return eval_bundle(spec, s.x, s.y).f

    return func


def test_criterion_1_value_derivatives_match_fd(p1, p2, config):
    start = time.perf_counter()
    worst_grad = 0.0
    worst_hess = 0.0
    cases = [(p1, np.array([x]), [0.0]) for x in (-0.3, 0.0, 0.4)]
    cases += [(p2, np.array([x]), [0.0]) for x in (-0.5, 0.5)]
    rng = np.random.default_rng(2024)
    instances = [random_smooth_instance(rng, max_dim=3, max_m2=2) for _ in range(10)]
    cases += [(spec, x, y) for spec, x, y, _, _ in instances]
    for spec, x, y0 in cases:
        sol = solve_lower(spec, x, (y0, None, None), config)
        vd = value_derivatives(spec, sol, config)
        grad_fd, hess_fd = fd_derivatives(
            _phi_func(spec, config, sol), x, config.fd_step, config.fd_hess_step
        )
        worst_grad = max(worst_grad, float(np.max(np.abs(vd.gradient - grad_fd))))
        worst_hess = max(worst_hess, float(np.max(np.abs(vd.hessian - hess_fd))))
    elapsed = time.perf_counter() - start
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4 and elapsed < 5.0
    _report(
        1,
        ok,
        f"gradient/Hessian vs FD on {len(cases)} cases: "
        f"max grad err {worst_grad:.2e} (tol 1e-6), "
        f"max hess err {worst_hess:.2e} (tol 1e-4), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_fixture_values(p1, p2, config):
    sol1 = solve_lower(p1, [0.0], ([0.0], None, None), config)
    vd = value_derivatives(p1, sol1, config)
    ok = abs(vd.gradient[0]) <= 1e-10 and abs(vd.hessian[0, 0] - 1.0) <= 1e-8

    sol2 = solve_lower(p2, [0.0], ([0.0], None, None), config)
    details = []
    for d, expected in ((-1.0, -1.0), (1.0, 0.0)):
        t = 1e-6
        st = solve_lower(p2, [d * t], (sol2.y, sol2.mu, sol2.lam), config)
        tracked = float((st.y[0] - sol2.y[0]) / t)
        cands = kkt_map_directional(p2, sol2, [d], config)
        member = min(abs(float(v[0]) - tracked) for _, v in cands.items)
        ok = ok and abs(tracked - expected) <= 1e-6 and member <= 1e-6
        details.append(f"y'(0;{d:+g}) = {tracked:.2e} (expect {expected:+g})")
    _report(
        2,
        ok,
        "grad phi(0) = "
        f"{vd.gradient[0]:.2e}, hess phi(0) = {vd.hessian[0, 0]:.10f}; "
        + "; ".join(details),
    )


def test_criterion_3_nonsingularity_suites(p1, p2, p3, p4, config):
    candidates = [
        (p1, np.array([0.0]), np.array([0.0])),
        (p2, np.array([0.0]), np.array([0.0])),
        (p3, np.array([0.0]), np.array([0.0])),
        (p4, np.array([1.0]), np.array([1.0])),
    ]
    min_sigma = np.inf
    n_matrices = 0
    for spec, x, y in candidates:
        assert check_assumption_a(spec, x, y, config).assumption_a
        base = solve_lower(spec, x, (y, None, None), config)
        points = [base]
        for delta in (1e-3, -1e-3, 5e-4, -5e-4):
            points.append(
                solve_lower(spec, x + delta, (base.y, base.mu, base.lam),
                            config)
            )
        for sol in points:
            # every B-selector and Clarke grid point: the sweep that subdiff runs
            solved = selector_sweep(spec, sol, config, clarke=True).solved
            min_sigma = min(min_sigma, float(np.min(solved.sigma_min)))
            n_matrices += len(solved.sigma_min)
    ok = min_sigma >= 1e-8
    _report(
        3,
        ok,
        f"{n_matrices} selector matrices over 4 candidates x 5 points: "
        f"smallest sigma_min {min_sigma:.3e} (>= 1e-8)",
    )


def test_criterion_4_newton_quadratic_convergence(p1, config):
    sol = solve_lower(p1, [0.3], ([0.0], None, [0.0]), config)
    trace = sol.trace
    ok = sol.residual <= 1e-10 and len(trace) <= 10
    ratios = []
    positive = [r for r in trace if r > 0]
    for prev, curr in zip(positive[-3:], positive[-2:]):
        ratios.append(curr / prev**2)
        ok = ok and curr <= 1e3 * prev**2
    _report(
        4,
        ok,
        f"trace {['%.2e' % r for r in trace]} in {len(trace)} iterations; "
        f"quadratic ratios {['%.2f' % r for r in ratios]} (<= 1e3)",
    )


def test_criterion_5_certification_outcomes(p1, p2, p3, config):
    runs = [
        (p1, [0.0], [0.0], VERDICT_CERTIFIED),
        (p2, [0.0], [0.0], VERDICT_NECESSARY),
        (p1, [0.5], [0.5], VERDICT_REFUTED),
    ]
    ok = True
    details = []
    for spec, x, y, expected in runs:
        start = time.perf_counter()
        rep = certify(spec, CandidatePoint(x, y), config)
        elapsed = time.perf_counter() - start
        ok = ok and rep.verdict == expected and elapsed < 2.0
        details.append(f"{expected}: {rep.verdict} ({elapsed:.2f}s)")
    start = time.perf_counter()
    rep3 = certify(p3, CandidatePoint([0.0], [0.0]), config)
    elapsed = time.perf_counter() - start
    mfcq = next(c for c in rep3.results if c.name == "mfcq")
    ok = ok and mfcq.status == VIOLATED and elapsed < 2.0
    details.append(f"P3 mfcq: {mfcq.status} ({elapsed:.2f}s)")
    _report(5, ok, "; ".join(details))


def test_criterion_6_oracle_concordance(p1, p2, p3, p4, config):
    candidates = [
        (p1, [0.0], [0.0]),
        (p2, [0.0], [0.0]),
        (p3, [0.0], [0.0]),
        (p4, [1.0], [1.0]),
    ]
    grid = GridSpec(delta0=0.1, step=1e-3, tol=1e-9)
    checked = 0
    worst = 0.0
    ok = True
    for spec, x, y in candidates:
        rep = certify(spec, CandidatePoint(x, y), config)
        if rep.verdict != VERDICT_CERTIFIED:
            continue
        oracle = verify_minimax_definition(spec, x, y, grid)
        checked += 1
        worst = max(worst, oracle.worst_violation)
        ok = ok and oracle.passed
    ok = ok and checked >= 1 and worst <= 1e-9
    _report(
        6,
        ok,
        f"{checked} certified fixture verdicts confirmed by the definition "
        f"grid (delta0 0.1, step 1e-3); worst violation {worst:.2e} (<= 1e-9)",
    )


def test_criterion_7_randomized_autodiff():
    rng = np.random.default_rng(777)
    failures = 0
    worst = 0.0
    for _ in range(200):
        text = random_polynomial(rng)
        expr = parse_expression(text)
        var = (Var("x", 0), Var("y", 0), Var("y", 1))[int(rng.integers(0, 3))]
        d = differentiate(expr, var)
        x = [float(rng.uniform(-1, 1))]
        y = [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
        got = float(evaluate(d, x, y))
        want = float(central_fd(expr, x, y, var))
        rel = abs(got - want) / max(1.0, abs(got))
        worst = max(worst, rel)
        if rel > 1e-6:
            failures += 1
    ok = failures == 0
    _report(
        7,
        ok,
        f"200 random polynomials: {failures} failures, "
        f"worst relative error {worst:.2e} (<= 1e-6)",
    )


def test_criterion_8_determinism(p1, p2, config):
    ok = True
    for spec, x, y in ((p1, [0.0], [0.0]), (p2, [0.0], [0.0]),
                       (p1, [0.5], [0.5])):
        a = dumps_canonical(report_to_doc(certify(spec, CandidatePoint(x, y), config)))
        b = dumps_canonical(report_to_doc(certify(spec, CandidatePoint(x, y), config)))
        ok = ok and a == b
    _report(8, ok, "consecutive certify runs produce byte-identical JSON reports")
