import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxcert import (
    check_assumption_a,
    check_jacobian_uniqueness,
    classify_partition,
    kkt_residual_lower,
    recover_multipliers,
    solve_lower,
)
from minimaxcert.conditions import INCONCLUSIVE, SATISFIED, VIOLATED
from minimaxcert.cones import Cone
from minimaxcert.config import CheckConfig
from minimaxcert.fixtures import fixture_text
from minimaxcert.linalg import max_eigenvalue_on_subspace, nullspace_basis
from minimaxcert.lower import (
    NewtonError, PartitionError, kkt_residual_from_bundle, lagrangian_eval,
)
from minimaxcert.oracle import grid_local_maximize
from minimaxcert.problem import eval_bundle, parse_problem

from conftest import kahan_problem_text, perfbench_workloads, random_smooth_instance


# --- KKT residual -----------------------------------------------------------

def test_kkt_residual_p1_origin(p1):
    _, norm = kkt_residual_lower(p1, [0.0], [0.0], np.zeros(0), [0.0])
    assert norm == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_p2_origin(p2):
    _, norm = kkt_residual_lower(p2, [0.0], [0.0], np.zeros(0), [0.0])
    assert norm == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_detects_nonstationarity(p1):
    _, norm = kkt_residual_lower(p1, [0.0], [0.5], np.zeros(0), [0.0])
    assert norm == pytest.approx(0.5)


# --- multiplier recovery ----------------------------------------------------

def test_recover_inactive_case(p1):
    rec = recover_multipliers(p1, [0.0], [0.0])
    assert rec.admissible and rec.residual <= 1e-8
    assert np.allclose(rec.lam, [0.0])


def test_recover_degenerate_active(p2):
    rec = recover_multipliers(p2, [0.0], [0.0])
    assert rec.admissible and rec.residual <= 1e-8
    assert rec.lam[0] == pytest.approx(0.0, abs=1e-12)


def test_recover_boundary_multiplier(p2):
    # at x = 0.5 the boundary holds with lam = 2x
    rec = recover_multipliers(p2, [0.5], [0.0])
    assert rec.admissible and rec.residual <= 1e-8
    assert rec.lam[0] == pytest.approx(1.0, abs=1e-10)


def test_recover_flags_non_kkt(p1, config):
    # feasible with admissible signs, yet not stationary: the residual tells
    rec = recover_multipliers(p1, [0.0], [0.5])
    assert rec.admissible
    assert rec.residual > 0.1
    check = check_assumption_a(p1, [0.0], [0.5], config).checks["multipliers_exist"]
    assert check.status == VIOLATED and check.value == rec.residual


def test_recover_decides_on_the_multipliers_it_returns(config):
    # g1 = g2 = -y1 at y = -1e-8: least squares gives lam = (-1e-8, -1e-8)
    # with residual 1e-8; clipped to 0 the residual is 2e-8, above tol_kkt
    spec = parse_problem("dims 1 1 0 2 0 0\nf = -(y1 - x1)^2\ng1 = -y1\ng2 = -y1\n")
    rec = recover_multipliers(spec, [0.0], [-1e-8])
    assert rec.admissible and rec.lam.tolist() == [0.0, 0.0]
    assert rec.residual == pytest.approx(2e-8, rel=1e-12)
    rep = check_assumption_a(spec, [0.0], [-1e-8], config)
    assert rep.checks["multipliers_exist"].status == VIOLATED
    assert rep.cone is None


# --- partition --------------------------------------------------------------

def test_partition_classes():
    p = classify_partition(np.array([0.0]), np.array([1.0]), 1e-8)
    assert p.alpha == (0,) and p.beta == () and p.gamma == ()
    p = classify_partition(np.array([0.0]), np.array([0.0]), 1e-8)
    assert p.beta == (0,)
    p = classify_partition(np.array([-1.0]), np.array([0.0]), 1e-8)
    assert p.gamma == (0,)


def test_partition_rejects_bad_indices():
    with pytest.raises(PartitionError):
        classify_partition(np.array([1.0]), np.array([0.0]), 1e-8)
    with pytest.raises(PartitionError):
        classify_partition(np.array([0.0]), np.array([-1.0]), 1e-8)
    with pytest.raises(PartitionError):
        classify_partition(np.array([-1.0]), np.array([1.0]), 1e-8)


def test_partition_permutation_invariance():
    rng = np.random.default_rng(4)
    g = np.array([0.0, -0.5, 0.0, -2.0, 0.0])
    lam = np.array([1.0, 0.0, 0.0, 0.0, 0.3])
    base = classify_partition(g, lam, 1e-8)
    for _ in range(10):
        perm = rng.permutation(5)
        p = classify_partition(g[perm], lam[perm], 1e-8)
        # permuting the constraints permutes the classes identically
        assert {int(perm[j]) for j in p.alpha} == set(base.alpha)
        assert {int(perm[j]) for j in p.beta} == set(base.beta)
        assert {int(perm[j]) for j in p.gamma} == set(base.gamma)


# --- critical cone ----------------------------------------------------------

def test_cone_p1_origin_is_full_line(p1):
    rep = check_jacobian_uniqueness(p1, [0.0], [0.0], None, [0.0])
    cone = rep.cone
    assert cone.E.shape[0] == 0 and cone.F.shape[0] == 0
    assert cone.contains(np.array([1.0])) and cone.contains(np.array([-1.0]))
    # paper-literal form agrees (the objective-gradient row vanishes here):
    # equalities from J_y h, inequalities from the active g rows and grad_y f
    bundle = eval_bundle(p1, [0.0], [0.0])
    literal_F = np.vstack([bundle.g_jy[list(rep.partition.active)], bundle.fy.reshape(1, -1)])
    literal = Cone(bundle.h_jy, literal_F)
    assert literal.contains(np.array([1.0]))
    assert literal.contains(np.array([-1.0]))


def test_cone_p2_origin_is_halfline(p2):
    cone = check_jacobian_uniqueness(p2, [0.0], [0.0], None, [0.0]).cone
    assert cone.F.shape == (1, 1)
    assert cone.contains(np.array([-1.0]))
    assert not cone.contains(np.array([1.0]))
    # aff hull is the whole line
    assert cone.E.shape[0] == 0


def test_cone_alpha_gives_equality_row(p2):
    # at x = 0.5 the constraint is active with positive multiplier
    rep = check_jacobian_uniqueness(p2, [0.5], [0.0], None, [1.0])
    assert rep.partition.alpha == (0,)
    assert rep.cone.E.shape == (1, 1)
    assert not rep.cone.contains(np.array([1.0]))
    assert not rep.cone.contains(np.array([-1.0]))


def test_no_kkt_point_gives_no_cone(p1):
    rep = check_jacobian_uniqueness(p1, [0.0], [0.5], None, [0.0])
    assert rep.checks["lower_kkt"].status == VIOLATED
    assert rep.partition is None and rep.cone is None


def test_face_walk_reads_the_hull_basis_the_bound_built(monkeypatch, config):
    # L_yy = diag(2, -2) on the cone {d1 <= 0}: the hull bound fails, so the
    # face walk runs, and its root face is the hull whose basis the bound built
    import sys

    from minimaxcert import linalg

    spec = parse_problem("dims 1 2 0 1 0 0\nf = y1^2 - y2^2 + x1^2\ng1 = y1\n")
    calls, basis = [], linalg.nullspace_basis
    for module in list(sys.modules.values()):
        if module.__name__.startswith("minimaxcert") and \
                getattr(module, "nullspace_basis", None) is basis:
            monkeypatch.setattr(module, "nullspace_basis",
                                lambda A: calls.append(np.array(A)) or basis(A))
    rep = check_jacobian_uniqueness(spec, [0.0], [0.0, 0.0], None, [0.0], config)
    assert rep.checks["lower_sosc"].detail == "largest curvature on C from its faces"
    E = rep.cone.E
    assert sum(A.shape == E.shape and np.array_equal(A, E) for A in calls) == 1


# --- Jacobian uniqueness / Assumption A -------------------------------------

def test_ju_p1_origin_all_satisfied(p1, config):
    rep = check_jacobian_uniqueness(p1, [0.0], [0.0], None, [0.0], config)
    assert rep.jacobian_uniqueness
    assert rep.partition.gamma == (0,)
    assert rep.checks["lower_strict_complementarity"].value == pytest.approx(1.0)
    assert rep.checks["lower_sosc"].value == pytest.approx(-1.0)


def test_ju_p2_origin_strict_complementarity_fails(p2, config):
    rep = check_jacobian_uniqueness(p2, [0.0], [0.0], None, [0.0], config)
    assert not rep.jacobian_uniqueness
    assert rep.checks["lower_strict_complementarity"].status == VIOLATED
    assert rep.checks["lower_strict_complementarity"].value == pytest.approx(0.0)


def test_ju_non_kkt_marks_rest_inconclusive(p1, config):
    rep = check_jacobian_uniqueness(p1, [0.0], [0.5], None, [0.0], config)
    assert rep.checks["lower_kkt"].status == VIOLATED
    assert rep.checks["lower_kkt"].value == pytest.approx(0.5)
    # LICQ, the hypothesis under which KKT is necessary, is decided anyway:
    # g1 = y1 - 1 is inactive at y = 0.5, so no row is active
    licq = rep.checks["lower_licq"]
    assert licq.status == SATISFIED and licq.value == np.inf
    for name in ("lower_strict_complementarity", "lower_sosc"):
        assert rep.checks[name].status == INCONCLUSIVE


def test_assumption_a_p2(p2, config):
    rep = check_assumption_a(p2, [0.0], [0.0], config)
    assert rep.assumption_a
    assert rep.checks["lower_strong_sosc"].value == pytest.approx(-2.0)


def test_assumption_a_p1(p1, config):
    rep = check_assumption_a(p1, [0.0], [0.0], config)
    assert rep.assumption_a


def test_assumption_a_violated_by_sign_flip(config):
    spec = parse_problem("dims 1 1 0 1 0 0\nf = (y1-x1)^2\ng1 = y1\n")
    rep = check_assumption_a(spec, [0.0], [0.0], config)
    assert not rep.assumption_a
    assert rep.checks["lower_strong_sosc"].status == VIOLATED
    assert rep.checks["lower_strong_sosc"].value == pytest.approx(2.0)


def test_ju_rejects_a_kkt_residual_whose_signs_fit_no_partition(p2, config):
    # lam = -2e-9 passes tol_kkt = 1e-8 but not the sign test at tol_act = 1e-10
    config = config.replace(tol_act=1e-10)
    rep = check_jacobian_uniqueness(p2, [-1e-9], [0.0], np.zeros(0), [-2e-9], config)
    kkt = rep.checks["lower_kkt"]
    assert kkt.status == VIOLATED and kkt.value <= config.tol_kkt
    assert kkt.detail == "no active-set partition: index 1: negative multiplier -2.000e-09"
    # the active set {g1} has J_y g1 = 1, so LICQ holds
    assert rep.checks["lower_licq"].status == SATISFIED and rep.checks["lower_licq"].value == 1.0
    assert rep.partition is None


# problem text and inner KKT point y(x) of the one-dimensional sources; the
# convex one's inner point minimises, so strong SOSC fails there
_INNER_POINT = {
    "P1": (fixture_text("P1"), lambda x: min(x, 1.0)),
    "P2": (fixture_text("P2"), lambda x: min(x, 0.0)),
    "convex": ("dims 1 1 0 1 0 0\nf = (y1-x1)^2\ng1 = y1\n", lambda x: min(x, 0.0)),
}
_COORD = st.sampled_from([-1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 1.5]) | st.floats(-2.0, 2.0)
_OFFSET = st.sampled_from([0.0, 1e-9, -1e-9, 1e-7, 0.1])


def _analysis_point(source, a, offset):
    """(spec, x, y) near an inner KKT point: a one-dimensional source at
    x = a, the |beta| = 4 selector problem at its candidate a, or a random
    instance of seed a at its solution; y moved by offset."""
    if source in _INNER_POINT:
        text, inner = _INNER_POINT[source]
        return parse_problem(text), [a], [inner(a) + offset]
    if source == "selector":
        selector = perfbench_workloads().selector(1)
        c = selector.op(a).candidates[0]
        return parse_problem(selector.problems["degenerate"]), list(c.x), \
            [v + offset for v in c.y]
    spec, x, y, _, _ = random_smooth_instance(np.random.default_rng(a))
    return spec, x, y + offset


@settings(max_examples=150, deadline=None)
@given(point=st.one_of(
    st.tuples(st.sampled_from(sorted(_INNER_POINT)), _COORD, _OFFSET),
    st.tuples(st.just("selector"), st.integers(0, 7), _OFFSET),
    st.tuples(st.just("random"), st.integers(0, 2**16), _OFFSET),
))
def test_assumption_a_reads_jacobian_uniqueness_at_the_recovered_multipliers(point):
    """Wherever Assumption A's multipliers exist, its LICQ check, partition,
    cone and strong SOSC value are those of Jacobian uniqueness at the
    recovered multipliers; strong SOSC is the largest eigenvalue of L_yy on
    the cone's affine hull, which JU's own curvature checks read unless the
    cone has faces and the bound fails."""
    spec, x, y = _analysis_point(*point)
    config = CheckConfig()
    assa = check_assumption_a(spec, x, y, config)
    if not assa.checks["multipliers_exist"].ok:
        return
    ju = check_jacobian_uniqueness(spec, x, y, assa.mu, assa.lam, config)
    licq = ju.checks["lower_licq"], assa.checks["lower_licq"]
    assert licq[0].status == licq[1].status and licq[0].value == licq[1].value
    assert ju.checks["lower_kkt"].ok and ju.partition == assa.partition
    assert np.array_equal(ju.cone.E, assa.cone.E) and np.array_equal(ju.cone.F, assa.cone.F)
    lag = lagrangian_eval(eval_bundle(spec, x, y), assa.mu, assa.lam)
    hull = max_eigenvalue_on_subspace(lag.yy, nullspace_basis(assa.cone.E))
    strong = assa.checks["lower_strong_sosc"]
    assert strong.value == hull
    assert strong.ok == (hull <= -config.tol_pd)
    if not ju.partition.beta or hull <= -config.tol_pd:
        assert ju.checks["lower_sosc"].value == hull


def test_abs_rejected_by_condition_checks(config):
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -abs(y1) + x1\n")
    with pytest.raises(ValueError):
        check_jacobian_uniqueness(spec, [0.0], [0.0], None, None, config)


# --- Newton solver ----------------------------------------------------------

def test_solve_lower_p1(p1, config):
    sol = solve_lower(p1, [0.3], ([0.0], None, [0.0]), config)
    assert sol.y[0] == pytest.approx(0.3, abs=1e-10)
    assert sol.lam[0] == pytest.approx(0.0, abs=1e-10)
    assert sol.w[0] == pytest.approx(0.8366600265340756, abs=1e-10)  # sqrt(0.7)
    assert sol.residual <= 1e-10


def test_solve_lower_p2_interior(p2, config):
    sol = solve_lower(p2, [-0.5], ([0.0], None, [0.0]), config)
    assert sol.y[0] == pytest.approx(-0.5, abs=1e-9)
    assert sol.lam[0] == pytest.approx(0.0, abs=1e-9)


def test_solve_lower_p2_boundary(p2, config):
    sol = solve_lower(p2, [0.5], ([0.0], None, [0.0]), config)
    assert sol.y[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.lam[0] == pytest.approx(1.0, abs=1e-9)


def test_quadratic_convergence_trace(config):
    # genuinely nonlinear stationarity (x - y^3 - y = 0); P1 is linear and
    # converges in one step
    spec = parse_problem("dims 1 1 0 0 0 0\nf = x1*y1 - 0.25*y1^4 - 0.5*y1^2\n")
    sol = solve_lower(spec, [0.9], ([0.0], None, None), config)
    trace = [r for r in sol.trace if r > 0]
    assert len(trace) >= 3
    for prev, curr in zip(trace[-3:], trace[-2:]):
        assert curr <= 1e3 * prev**2


def test_solve_lower_computes_one_lagrangian_per_iterate(config, monkeypatch):
    # outside bundle_memo nothing is shared, so each iterate's Lagrangian
    # must serve both its residual and its Newton matrix
    from minimaxcert import lower

    spec = parse_problem("dims 1 1 0 0 0 0\nf = x1*y1 - 0.25*y1^4 - 0.5*y1^2\n")
    computed, lagrangian = [], lower._lagrangian
    monkeypatch.setattr(lower, "_lagrangian", lambda *args: computed.append(1) or lagrangian(*args))
    sol = solve_lower(spec, [0.9], ([0.0], None, None), config)
    assert sol.iterations == 6
    assert len(computed) == sol.iterations


def test_solve_lower_keeps_an_exact_kkt_seed(p1, config):
    # y = 1, lam = 0.2 solves P1 at x = 1.2: no Newton step is taken
    seed = (np.array([1.0]), np.zeros(0), np.array([0.2]))
    sol = solve_lower(p1, [1.2], seed, config)
    assert len(sol.trace) == 1 and sol.trace[0] <= config.tol_newton
    for got, want in zip((sol.y, sol.mu, sol.lam), seed):
        assert np.array_equal(got, want)


def test_solve_lower_semismooth_path(p2, config):
    sol = solve_lower(p2, [0.5], ([0.0], None, [0.0]), config)
    assert sol.y[0] == pytest.approx(0.0, abs=1e-10)
    assert sol.lam[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(sol.w[0] ** 2 + 0.0) <= 1e-8  # w = sqrt(-g) = 0


def test_solve_lower_residual_is_that_of_the_returned_point(p2, config):
    """The residual is the last iterate's, bit for bit what
    kkt_residual_from_bundle gives at the returned point."""
    rng = np.random.default_rng(5)
    cases = [(p2, [0.5], [0.0]),
             (parse_problem("dims 1 1 0 0 0 0\nf = x1*y1 - 0.25*y1^4 - 0.5*y1^2\n"), [0.9], [0.0])]
    for _ in range(4):
        spec, x, y, _, _ = random_smooth_instance(rng)
        cases.append((spec, x, y + rng.uniform(-0.05, 0.05, spec.m)))
    for spec, x, y0 in cases:
        sol = solve_lower(spec, x, (y0, None, None), config)
        bundle = eval_bundle(spec, sol.x, sol.y)
        _, norm = kkt_residual_from_bundle(bundle, lagrangian_eval(bundle, sol.mu, sol.lam),
                                           sol.lam)
        assert sol.residual.hex() == norm.hex() == sol.trace[-1].hex()


def _newton_cases(p1):
    """(spec, x, y*) on P1 and on a seeded n = m = 3 lattice problem with
    one binding and one slack inner constraint."""
    lattice = perfbench_workloads().LatticeProblem.generate(
        np.random.default_rng(5), n=3, m2=2, active=1)
    x = 2.0 * np.pi * np.array([1.0, 0.0, -1.0])
    return [(p1, np.array([0.3]), np.array([0.3])),
            (parse_problem(lattice.text()), x, lattice.solution(x))]


@pytest.mark.parametrize("case", [0, 1], ids=["P1", "lattice"])
def test_newton_steps_meet_the_solve_residual_gate(case, p1, config, monkeypatch):
    from minimaxcert import lower
    from minimaxcert.linalg import SOLVE_RESIDUAL_TOL

    spec, x, y_star = _newton_cases(p1)[case]
    steps, solve_linear = [], lower.solve_linear

    def recording_solve_linear(A, b):
        z = solve_linear(A, b)
        steps.append((A, b, z))
        return z

    monkeypatch.setattr(lower, "solve_linear", recording_solve_linear)
    sol = solve_lower(spec, x, (y_star + 1e-3, None, None), config)
    assert sol.residual <= config.tol_newton
    assert np.max(np.abs(sol.y - y_star)) <= 1e-8
    assert steps
    for A, b, z in steps:
        bound = SOLVE_RESIDUAL_TOL * (1.0 + np.max(np.abs(b)))
        assert np.max(np.abs(A @ z - b)) <= bound


def test_singular_newton_matrix_names_sigma_min(config):
    spec = parse_problem(kahan_problem_text(20))
    with pytest.raises(NewtonError, match="singular semismooth Newton matrix.*sigma_min 8.187e-12"):
        solve_lower(spec, [0.0], ([1e-3] * 20, None, None), config)


def test_solve_lower_slack_identity(p1, config):
    for x in (-0.4, 0.0, 0.7):
        sol = solve_lower(p1, [x], ([0.0], None, [0.0]), config)
        g = sol.y[0] - 1.0
        assert abs(sol.w[0] ** 2 + g) <= 1e-8
        assert sol.lam[0] >= -1e-10


def test_solve_lower_matches_grid_oracle(p1, p2, config):
    for spec, xs in ((p1, [-0.4, -0.2, 0.0, 0.2, 0.4]),
                     (p2, [-0.4, -0.2, 0.0, 0.2, 0.4])):
        for x in xs:
            sol = solve_lower(spec, [x], ([0.0], None, [0.0]), config)
            res = grid_local_maximize(spec, [x], [0.0], 0.6, 1201)
            step = 2 * 0.6 / 1200
            assert abs(sol.y[0] - res.y[0]) <= 2 * step


def test_ju_persists_on_grid(p1, config):
    # Jacobian uniqueness at x* propagates to a neighborhood of solutions
    for x in (-0.02, -0.01, 0.0, 0.01, 0.02):
        sol = solve_lower(p1, [x], ([0.0], None, [0.0]), config)
        rep = check_jacobian_uniqueness(p1, [x], sol.y, sol.mu, sol.lam, config)
        assert rep.jacobian_uniqueness


def test_solve_lower_random_instances(config):
    rng = np.random.default_rng(42)
    for _ in range(5):
        spec, x, y, mu, lam = random_smooth_instance(rng)
        y0 = y + rng.uniform(-0.05, 0.05, spec.m)
        sol = solve_lower(spec, x, (y0, None, None), config)
        assert sol.residual <= 1e-10
        assert np.max(np.abs(sol.y - y)) <= 1e-6


def test_newton_error_reports_trace():
    from minimaxcert.config import CheckConfig

    # genuinely nonlinear stationarity (x - y^3 - y = 0) with a starved budget
    spec = parse_problem("dims 1 1 0 0 0 0\nf = x1*y1 - 0.25*y1^4 - 0.5*y1^2\n")
    tight = CheckConfig(newton_max_iter=2)
    with pytest.raises(NewtonError) as err:
        solve_lower(spec, [0.9], ([-50.0], None, None), tight)
    assert len(err.value.trace) >= 1
