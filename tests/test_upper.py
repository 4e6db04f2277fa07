from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minimaxcert import (
    check_mfcq,
    first_order_nonsmooth_necessary,
    second_order_necessary,
    second_order_sufficient,
    solve_lower,
    upper_kkt_and_polytope,
    value_derivatives,
)
from minimaxcert.conditions import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
)
from minimaxcert.problem import ProblemSpec, parse_problem
from minimaxcert.cones import Cone
from minimaxcert.nonsmooth import selector_sweep
from minimaxcert.upper import (
    _cone_curvature,
    _curvature_lp_max,
    compute_upper_active_set,
    first_order_nonsmooth,
)

from conftest import (
    affine_expr,
    basic_multipliers,
    brute_force_min_quadratic_on_cone,
    coordinate_lp_bounded,
    quadratic_objective,
)


def smooth_vd(spec, x, config, y0=None):
    y0 = y0 if y0 is not None else [0.0] * spec.m
    sol = solve_lower(spec, x, (y0, None, None), config)
    return sol, value_derivatives(spec, sol, config)


# --- MFCQ ----------------------------------------------------------------------

def test_mfcq_opposing_gradients_fail(p3, config):
    check = check_mfcq(p3, [0.0], config)
    assert check.status == VIOLATED
    assert check.value == pytest.approx(0.0, abs=1e-9)


def test_mfcq_vacuous_when_inactive(p1, config):
    check = check_mfcq(p1, [0.0], config)
    assert check.status == SATISFIED
    assert check.value == np.inf and check.detail == "no active inequalities"
    assert compute_upper_active_set(p1, [0.0], config).I == ()


def test_mfcq_single_active_bound(p4, config):
    check = check_mfcq(p4, [1.0], config)
    assert check.status == SATISFIED
    assert check.value == pytest.approx(1.0, abs=1e-9)
    assert check.witness[0] == pytest.approx(1.0, abs=1e-9)


def test_mfcq_verdict_invariant_under_row_rescaling(config):
    base = "dims 1 1 0 0 0 2\nf = x1*y1 - y1^2\nG1 = {a}*x1\nG2 = {b}*(0 - x1)\n"
    verdicts = set()
    for a, b in ((1.0, 1.0), (7.5, 0.25), (100.0, 3.0)):
        spec = parse_problem(base.format(a=a, b=b))
        verdicts.add(check_mfcq(spec, [0.0], config).status)
    assert verdicts == {VIOLATED}
    good = "dims 1 1 0 0 0 1\nf = x1*y1 - y1^2\nG1 = {a}*x1\n"
    verdicts = set()
    for a in (1.0, 12.0, 0.05):
        spec = parse_problem(good.format(a=a))
        verdicts.add(check_mfcq(spec, [0.0], config).status)
    assert verdicts == {SATISFIED}


def test_mfcq_rejects_infeasible_point(p4, config):
    with pytest.raises(ValueError):
        check_mfcq(p4, [0.5], config)  # G = 1 - x = 0.5 > 0


# --- multiplier polytope ----------------------------------------------------------

def test_polytope_single_vertex_p4(p4, config):
    poly = upper_kkt_and_polytope(p4, [1.0], np.array([1.0]), config)
    assert poly.nonempty
    assert check_mfcq(p4, [1.0], config).ok
    assert poly.single
    u, v = poly.point
    assert v[0] == pytest.approx(1.0, abs=1e-10)
    assert poly.residual(u, v) <= 1e-9


def test_polytope_zero_system_p1(p1, config):
    poly = upper_kkt_and_polytope(p1, [0.0], np.array([0.0]), config)
    assert poly.nonempty
    assert poly.single
    u, v = poly.point
    assert np.allclose(v, 0.0)


def test_polytope_empty_without_constraints(p2, config):
    poly = upper_kkt_and_polytope(p2, [0.0], np.array([1.0]), config)
    assert not poly.nonempty
    assert poly.point is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, x", [("p2", 0.0), ("p3", 0.0), ("p4", 1.0)])
def test_non_finite_gradient_has_no_multipliers(name, x, value, request, config):
    # P2 has no outer constraint, P3 two active ones with opposing gradients,
    # P4 one active bound: no multiplier reproduces a non-finite gradient
    spec = request.getfixturevalue(name)
    poly = upper_kkt_and_polytope(spec, [x], np.array([value]), config)
    assert not poly.nonempty
    assert poly.point is None


def test_polytope_unbounded_flag(p3, config):
    # opposing gradients with zero working gradient: a ray of multipliers
    poly = upper_kkt_and_polytope(p3, [0.0], np.array([0.0]), config)
    assert poly.nonempty
    assert not check_mfcq(p3, [0.0], config).ok


def test_polytope_emptiness_agrees_with_vertex_enumeration(p1, p4, config):
    rng = np.random.default_rng(3)
    for spec, x in ((p1, [0.0]), (p4, [1.0])):
        for _ in range(6):
            r0 = rng.uniform(-1.0, 1.0, 1)
            poly = upper_kkt_and_polytope(spec, x, r0, config)
            vertices = basic_multipliers(poly, config)
            if check_mfcq(spec, x, config).ok:
                assert bool(vertices) == poly.nonempty
            for u, v in vertices:
                assert poly.residual(u, v) <= 1e-9


@st.composite
def _multiplier_systems(draw):
    """(JH, JG, r) with every G active at x = 0 and r = -(JH^T u + JG^T v) for
    some u and v >= 0, so the polytope is nonempty.  Small integer rows, where
    a row may repeat, negate or double an earlier one, and n1 may exceed n."""
    n = draw(st.integers(1, 3))
    n1, n2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(-2, 2)
    rows: list[np.ndarray] = []
    for _ in range(n1 + n2):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from([1, -1, 2])) * draw(st.sampled_from(rows)))
        else:
            rows.append(np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float))
    JH = np.array(rows[:n1], dtype=float).reshape(n1, n)
    JG = np.array(rows[n1:], dtype=float).reshape(n2, n)
    u = np.array(draw(st.lists(entry, min_size=n1, max_size=n1)), dtype=float)
    v = np.array(draw(st.lists(st.integers(0, 2), min_size=n2, max_size=n2)), dtype=float)
    return JH, JG, -(JH.T @ u + JG.T @ v)


def _system_spec(JH, JG):
    """The problem whose outer constraints H = JH x, G = JG x are all active
    at x = 0."""
    return ProblemSpec(
        n=JH.shape[1], m=1, m1=0, m2=0, n1=JH.shape[0], n2=JG.shape[0],
        f=parse_problem("dims 1 1 0 0 0 0\nf = -y1^2\n").f,
        H=[affine_expr([0.0], row, 0.0) for row in JH],
        G=[affine_expr([0.0], row, 0.0) for row in JG],
    )


@settings(max_examples=300)
@given(system=_multiplier_systems())
def test_polytope_bounded_exactly_when_mfcq_holds(system, config):
    """Gauvin (1977): the multiplier polytope is bounded exactly when MFCQ
    holds, so `check_mfcq` answers its boundedness; the coordinate LPs are
    the reference.  Duplicated or opposed rows, and more equality rows than
    variables, make both fail."""
    JH, JG, r = system
    spec = _system_spec(JH, JG)
    x = np.zeros(JH.shape[1])
    poly = upper_kkt_and_polytope(spec, x, r, config)
    assert poly.nonempty
    assert check_mfcq(spec, x, config).ok == coordinate_lp_bounded(poly)


@settings(max_examples=300)
@given(system=_multiplier_systems(), data=st.data())
def test_every_multiplier_reduces_to_the_same_cone(system, data, config):
    """Every multiplier reduces the critical cone to the same set: for d in
    the cone and any (u, v), r . d = -v . JG_I d >= 0, so r . d = 0 forces
    JG_i d = 0 wherever v_i > 0.  So the brute-force cone minimum of a
    symmetric M is one number on the cone reduced by each vertex, on
    `poly.reduced` and on `poly.cone`."""
    JH, JG, r = system
    n = JH.shape[1]
    P = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)),
                 dtype=float).reshape(n, n)
    M = P + P.T
    poly = upper_kkt_and_polytope(_system_spec(JH, JG), np.zeros(n), r, config)
    assert poly.nonempty

    def reduced_by(v):
        strong = [i for i in poly.active if v[i] > config.tol_act]
        weak = [i for i in poly.active if v[i] <= config.tol_act]
        return Cone(np.vstack([JH, JG[strong]]), JG[weak])

    cones = [reduced_by(v) for _, v in basic_multipliers(poly, config)]
    cones += [poly.reduced, poly.cone]
    minima = [brute_force_min_quadratic_on_cone(M, cone.E, cone.F)[0] for cone in cones]
    if minima[-1] == np.inf:
        assert minima == [np.inf] * len(minima)
    else:
        assert minima == pytest.approx([minima[-1]] * len(minima), abs=1e-9)


# --- critical cone -----------------------------------------------------------------

def test_upper_cone_p4_is_trivial(p4, config):
    from conftest import cone_is_trivial

    cone = upper_kkt_and_polytope(p4, [1.0], np.array([1.0]), config).cone
    assert cone.F.shape == (2, 1)
    assert cone_is_trivial(cone.E, cone.F, 1)


def test_upper_cone_p1_is_full_line(p1, config):
    cone = upper_kkt_and_polytope(p1, [0.0], np.array([0.0]), config).cone
    assert cone.contains(np.array([1.0])) and cone.contains(np.array([-1.0]))


def test_upper_cone_full_rank_equalities(config):
    spec = parse_problem(
        "dims 2 1 0 0 2 0\nf = x1*y1 - y1^2\nH1 = x1\nH2 = x2\n"
    )
    from conftest import cone_is_trivial

    cone = upper_kkt_and_polytope(spec, [0.0, 0.0], np.array([0.3, -0.2]), config).cone
    assert cone_is_trivial(cone.E, cone.F, 2)


def test_upper_cone_reduction_with_multiplier(p4, config):
    poly = upper_kkt_and_polytope(p4, [1.0], np.array([1.0]), config)
    assert poly.reduced.E.shape[0] == 1  # v > 0 forces the bound to equality


# --- second-order conditions ---------------------------------------------------------

def test_second_order_necessary_p1(p1, config):
    sol, vd = smooth_vd(p1, [0.0], config)
    poly = upper_kkt_and_polytope(p1, [0.0], vd.gradient, config)
    check = second_order_necessary(vd, poly, config)
    assert check.status == SATISFIED
    assert check.value == pytest.approx(1.0, abs=1e-8)  # q(d) = d^2 on |d| = 1


def test_second_order_necessary_vacuous_p4_cone(p4, config):
    # build the same quadratic machinery but with the trivial cone of P4
    sol, vd = smooth_vd(p1_like_p4(), [1.0], config, y0=[0.5])
    poly = upper_kkt_and_polytope(p1_like_p4(), [1.0], np.array([1.0]), config)
    check = second_order_necessary(vd, poly, config)
    assert check.status == SATISFIED
    assert check.value == np.inf


def p1_like_p4():
    return parse_problem(
        "dims 1 1 0 1 0 1\nf = x1*y1 - 0.5*y1^2\ng1 = y1 - 2\nG1 = 1 - x1\n"
    )


def test_second_order_necessary_violated_on_flipped_problem(config):
    # phi(x) = -x^2/2: negative curvature in the whole critical cone
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -0.5*x1^2 - 0.5*y1^2\n")
    sol, vd = smooth_vd(spec, [0.0], config)
    poly = upper_kkt_and_polytope(spec, [0.0], vd.gradient, config)
    check = second_order_necessary(vd, poly, config)
    assert check.status == VIOLATED
    assert check.value == pytest.approx(-1.0, abs=1e-8)
    assert abs(abs(check.witness[0]) - 1.0) <= 1e-9


@pytest.mark.parametrize("check", [second_order_necessary, second_order_sufficient])
def test_second_order_on_an_empty_polytope_is_inconclusive(check, config):
    # no outer constraint and a nonzero gradient: no multiplier, so no cone
    # to test (certify never gets here: it needs first_order satisfied)
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -0.5*x1^2 - 0.5*y1^2\n")
    _, vd = smooth_vd(spec, [0.0], config)
    poly = upper_kkt_and_polytope(spec, [0.0], np.array([1.0]), config)
    assert poly.point is None
    result = check(vd, poly, config)
    assert (result.status, result.detail) == (INCONCLUSIVE, "multiplier polytope is empty")
    assert result.value is None


def test_second_order_sufficient_p1_exact(p1, config):
    sol, vd = smooth_vd(p1, [0.0], config)
    poly = upper_kkt_and_polytope(p1, [0.0], vd.gradient, config)
    check = second_order_sufficient(vd, poly, config)
    assert check.status == SATISFIED
    assert check.value == pytest.approx(1.0, abs=1e-8)


def test_second_order_sufficient_vacuous_p4(p4, config):
    # the nonsmooth fixture point has a trivial cone; feed the machinery the
    # analogous smooth data to exercise the vacuous branch
    spec = p1_like_p4()
    sol, vd = smooth_vd(spec, [1.0], config, y0=[0.5])
    poly = upper_kkt_and_polytope(spec, [1.0], vd.gradient, config)
    check = second_order_sufficient(vd, poly, config)
    assert check.ok
    assert check.value == np.inf


def test_second_order_sufficient_violated_on_flipped_problem(config):
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -0.5*x1^2 - 0.5*y1^2\n")
    sol, vd = smooth_vd(spec, [0.0], config)
    poly = upper_kkt_and_polytope(spec, [0.0], vd.gradient, config)
    check = second_order_sufficient(vd, poly, config)
    assert check.status == VIOLATED
    assert check.value == pytest.approx(-1.0, abs=1e-8)


def test_second_order_sampled_agrees_with_exact_on_singleton_subspace(config):
    # 2-D outer space, subspace cone, singleton polytope {0}: the reduced cone
    # of the sufficient check and the critical cone of the necessary one
    # (whose one row, grad phi = 0, is a zero row) give the same margin, the
    # bottom eigenvalue of hess(phi) = diag(1.5, 1)
    spec = parse_problem(
        "dims 2 2 0 0 0 0\n"
        "f = x1*y1 + x2*y2 - 0.5*y1^2 - 0.5*y2^2 + 0.25*x1^2\n"
    )
    sol, vd = smooth_vd(spec, [0.0, 0.0], config)
    poly = upper_kkt_and_polytope(spec, [0.0, 0.0], vd.gradient, config)
    assert poly.single
    exact = second_order_sufficient(vd, poly, config)
    assert exact.status == SATISFIED
    from_full = second_order_necessary(vd, poly, config)
    assert from_full.status == SATISFIED
    assert from_full.value == exact.value == pytest.approx(1.0, abs=1e-8)


def test_second_order_reduces_to_hessian_eigenvalue_without_constraints(config):
    # no upper constraints: necessary test equals min eigenvalue of hess phi
    spec = parse_problem(
        "dims 2 2 0 0 0 0\n"
        "f = x1*y1 + x2*y2 - 0.5*y1^2 - 0.5*y2^2 + 0.25*x1^2\n"
    )
    sol, vd = smooth_vd(spec, [0.0, 0.0], config)
    poly = upper_kkt_and_polytope(spec, [0.0, 0.0], vd.gradient, config)
    check = second_order_necessary(vd, poly, config)
    assert check.status == SATISFIED
    assert check.value == pytest.approx(float(np.linalg.eigvalsh(vd.hessian)[0]), abs=1e-12)


@st.composite
def _curved_multiplier_systems(draw):
    """(spec, r, hess phi): n <= 3 and k <= 3 outer constraints
    G_i = a_i . x + 0.5 x^T Q_i x, all active at x = 0, with small integer
    data.  Every a_i has first entry -1, so d = e1 is strictly feasible (MFCQ)
    and the polytope {v >= 0 : sum v_i a_i = -r} is bounded; r is built from
    some v >= 0, so it is nonempty."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.integers(-2, 2)

    def matrix(rows, cols):
        return np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                        dtype=float).reshape(rows, cols)

    A = np.hstack([-np.ones((k, 1)), matrix(k, n - 1)])
    Qs = [matrix(n, n) for _ in range(k)]
    Qs = [Q + Q.T for Q in Qs]
    v = np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=float)
    P = matrix(n, n)
    G = [quadratic_objective(np.zeros((1, 1)), np.zeros((1, n)), Q, np.zeros(1), a)
         for a, Q in zip(A, Qs)]
    spec = ProblemSpec(n=n, m=1, m1=0, m2=0, n1=0, n2=k,
                       f=parse_problem("dims 1 1 0 0 0 0\nf = -y1^2\n").f, H=[], G=G)
    return spec, -(A.T @ v), P + P.T


@settings(max_examples=200)
@given(system=_curved_multiplier_systems())
def test_cutting_plane_bound_against_the_vertices(system, config):
    """The bound is at least the best vertex's face minimum (up to tol_pd),
    at most q_sup at every face witness, and on a single-point polytope the
    exact face minimum of its one quadratic.  The vertices come from the
    basis enumeration reference and the face minima from the exhaustive face
    loop, on the critical cone {JG_I d <= 0, r . d <= 0}."""
    spec, r, hessian = system
    x = np.zeros(spec.n)
    vd = SimpleNamespace(hessian=hessian)
    poly = upper_kkt_and_polytope(spec, x, r, config)
    assert poly.nonempty and check_mfcq(spec, x, config).ok
    cone = poly.cone
    single, bound, witnesses = _cone_curvature(vd, poly, cone, config)

    def face_minimum(u, v):
        M = hessian + np.einsum("i,iab->ab", v, poly.data.Gxx)
        return brute_force_min_quadratic_on_cone(M, cone.E, cone.F)[0]

    vertices = basic_multipliers(poly, config)
    assert vertices
    assert bound >= max(face_minimum(u, v) for u, v in vertices) - config.tol_pd
    for d in witnesses:
        q_sup = float(d @ hessian @ d) + _curvature_lp_max(poly, d, config.tol_kkt)
        assert bound <= q_sup + config.tol_pd
    if single:
        assert len(vertices) == 1
        assert bound == pytest.approx(face_minimum(*poly.point), abs=1e-9)


# --- nonsmooth first-order -------------------------------------------------------------

def test_first_order_nonsmooth_p2_origin(p2, config):
    sol = solve_lower(p2, [0.0], ([0.0], None, None), config)
    check, gset = first_order_nonsmooth_necessary(p2, [0.0], sol, config)
    assert check.status == SATISFIED
    assert check.witness == {"u": [], "v": []}
    # the whole B-subdifferential comes back, each candidate grad_x L = 0
    assert len(gset.items) == 2 and not gset.errors
    assert gset.items[0][1][0] == pytest.approx(0.0, abs=1e-10)


def test_first_order_nonsmooth_detects_nonstationary(p2, config):
    # x = 0.3 tracks y = 0 with lam = 0.6; phi'(0.3) = -0.6 != 0 and the
    # selector family is exact (beta empty), so the verdict is a disproof
    sol = solve_lower(p2, [0.3], ([0.0], None, None), config)
    check, gset = first_order_nonsmooth_necessary(p2, [0.3], sol, config)
    assert check.status == VIOLATED
    assert check.value == pytest.approx(0.6, abs=1e-9)


def test_first_order_nonsmooth_p4(p4, config):
    sol = solve_lower(p4, [1.0], ([1.0], None, None), config)
    sweep = selector_sweep(p4, sol, config)
    poly = upper_kkt_and_polytope(p4, [1.0], sweep.grad_x, config)
    check = first_order_nonsmooth(sweep, poly, config)
    assert check.status == SATISFIED
    assert check.witness["v"][0] == pytest.approx(1.0, abs=1e-9)


def test_first_order_nonsmooth_not_found_is_not_disproof(config):
    # beta nonempty and a working gradient that no sampled selector matches:
    # the search is inconclusive rather than violated
    spec = parse_problem("dims 1 1 0 1 0 0\nf = -(y1-x1)^2 + 0.5*x1\ng1 = y1\n")
    sol = solve_lower(spec, [0.0], ([0.0], None, None), config)
    sweep = selector_sweep(spec, sol, config)
    poly = upper_kkt_and_polytope(spec, [0.0], sweep.grad_x, config)
    check = first_order_nonsmooth(sweep, poly, config)
    assert check.status == INCONCLUSIVE


def test_nonsmooth_certify_asks_for_one_outer_multiplier(p2, monkeypatch):
    """First order on the nonsmooth path is one question, of grad_x L, as on
    the smooth path: one `_outer_multiplier` call per certify, also at the
    16 selectors of the |beta| = 4 problem and when no multiplier exists."""
    from minimaxcert import upper
    from minimaxcert.certify import certify
    from minimaxcert.problem import CandidatePoint

    from conftest import degenerate_text

    calls = []

    def counted(*args):
        calls.append(args)
        return outer_multiplier(*args)

    outer_multiplier = upper._outer_multiplier
    monkeypatch.setattr(upper, "_outer_multiplier", counted)
    shifted = parse_problem(degenerate_text(4).replace("f = ", "f = 0.5*x1 "))
    for spec, point, status in ((p2, [0.0], SATISFIED), (shifted, [0.0] * 4, INCONCLUSIVE)):
        calls.clear()
        report = certify(spec, CandidatePoint(point, point))
        assert report.path == "nonsmooth"
        assert next(c for c in report.results
                    if c.name == "first_order_nonsmooth").status == status
        assert len(calls) == 1


@st.composite
def _nonsmooth_instances(draw):
    """(spec, x*, y*, lam*): a quadratic inner problem, n, m <= 2, with
    negative definite L_yy and affine rows: degenerate ones (active, zero
    multiplier), perhaps a strongly active one and an inactive one, active
    gradients well conditioned; and perhaps an active affine outer row G.
    f's linear x term puts grad_x L at 0, at -v JG with v >= 0 (admissible
    when G is there), or at a random vector."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    degenerate = draw(st.integers(1, m))
    strong = draw(st.integers(0, m - degenerate))
    inactive = draw(st.integers(0, 1))
    outer = draw(st.booleans())
    target = draw(st.sampled_from(["zero", "admissible", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, m)
    L = rng.standard_normal((m, m))
    Q, R = -(L @ L.T + 0.3 * np.eye(m)), rng.standard_normal((m, n))
    B = rng.standard_normal((n, n))
    P = 0.5 * (B + B.T)
    rows, lam = [], np.zeros(degenerate + strong + inactive)
    for i in range(lam.size):
        a, b = rng.standard_normal(m), rng.standard_normal(n)
        c = -float(a @ y + b @ x)
        if i >= degenerate + strong:
            c -= rng.uniform(0.5, 1.5)
        elif i >= degenerate:
            lam[i] = rng.uniform(0.5, 1.5)
        rows.append((a, b, c))
    active = np.array([a for a, _, _ in rows[:degenerate + strong]])
    assume(np.linalg.svd(active, compute_uv=False)[-1] >= 0.3)
    q = -(Q @ y + R @ x) + lam @ np.array([a for a, _, _ in rows])
    G = []
    aG = rng.standard_normal(n)
    if outer:
        G = [affine_expr(np.zeros(0), aG, -float(aG @ x))]
    want = {"zero": np.zeros(n), "admissible": -rng.uniform(0.5, 1.5) * aG * outer,
            "random": rng.standard_normal(n)}[target]

    def spec(p):
        return ProblemSpec(n=n, m=m, m1=0, m2=lam.size, n1=0, n2=len(G),
                           f=quadratic_objective(Q, R, P, q, p),
                           g=[affine_expr(a, b, c) for a, b, c in rows], G=G)

    from minimaxcert.lower import lagrangian_eval
    from minimaxcert.problem import eval_bundle

    plain = lagrangian_eval(eval_bundle(spec(np.zeros(n)), x, y), np.zeros(0), lam).grad_x
    return spec(want - plain), x, y, lam


@settings(max_examples=150)
@given(instance=_nonsmooth_instances())
def test_first_order_nonsmooth_matches_the_selector_search(instance, config):
    """At a KKT point with beta nonempty the one question of grad_x L gives
    the status the per-selector search gives, and every nonsingular
    B-selector's candidate gradient lies within
    (m + m1 + m2) max|H(x, W)| max(|grad_y L|, |h|, |g on alpha and beta|)
    of grad_x L, up to the rounding of its one subtraction: the gamma rows
    of H(x, W) are 0."""
    from minimaxcert.nonsmooth import _solution_point

    from conftest import reference_first_order_nonsmooth

    spec, x, y, lam = instance
    sol = solve_lower(spec, x, (y, np.zeros(0), lam), config)
    bundle, lag, partition = _solution_point(spec, sol, config)
    assert partition.beta
    sweep = selector_sweep(spec, sol, config)
    check, gset = first_order_nonsmooth_necessary(spec, x, sol, config, sweep)
    want, _ = reference_first_order_nonsmooth(spec, x, sol, config, sweep)
    assert check.status == want.status
    poly = upper_kkt_and_polytope(spec, x, sweep.grad_x, config)
    assert first_order_nonsmooth(sweep, poly, config) == check  # certify's call
    assert len(gset.items) + len(gset.errors) == len(sweep.selectors)

    near = np.concatenate([lag.grad_y, bundle.h, bundle.g[list(partition.active)]])
    scale = float(np.max(np.abs(near), initial=0.0))
    rounding = np.spacing(np.abs(sweep.grad_x))
    for s, r in enumerate(sweep.phi_gradients()):
        if sweep.solved.singular[s]:
            continue
        bound = sweep.stack.size * float(np.max(np.abs(sweep.H[s]))) * scale
        assert np.all(np.abs(r - sweep.grad_x) <= bound + rounding)
