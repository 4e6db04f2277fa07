import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minimaxcert import CandidatePoint, oracle, solve_lower
from minimaxcert.oracle import (
    EmptyFeasibleGridError,
    GridMaxResult,
    GridSpec,
    OracleReport,
    _axis_grid,
    _mesh,
    fd_derivatives,
    grid_local_maximize,
    verify_minimax_definition,
)
from minimaxcert.problem import CandidateShapeError, parse_problem

from conftest import evaluate


def phi_p1(x):
    # inner max of x y - y^2/2 over y <= 1
    y = min(x[0], 1.0)
    return x[0] * y - 0.5 * y * y


def test_fd_gradient_of_p1_value_function():
    grad, _ = fd_derivatives(phi_p1, [0.3], step=1e-5)
    assert grad[0] == pytest.approx(0.3, abs=1e-6)


def test_fd_constant_field():
    grad, hess = fd_derivatives(lambda x: 4.2, [0.1, -0.2], step=1e-5)
    assert np.allclose(grad, 0.0)
    assert np.allclose(hess, 0.0)


def test_fd_one_sided_slopes_agree_at_kink():
    # phi of the degenerate fixture: -(max(x,0))^2, differentiable at 0
    def phi(x):
        return -max(x[0], 0.0) ** 2

    grad, _ = fd_derivatives(phi, [0.0], step=1e-5)
    assert abs(grad[0]) <= 1e-5


def test_fd_hessian_cross_terms():
    def f(v):
        return v[0] ** 2 + 3.0 * v[0] * v[1] - 0.5 * v[1] ** 2

    grad, hess = fd_derivatives(f, [0.4, -0.7], step=1e-5, hess_step=1e-4)
    assert np.allclose(hess, [[2.0, 3.0], [3.0, -1.0]], atol=1e-5)


# --- grid maximization ------------------------------------------------------------

def test_grid_maximize_interior(p1):
    res = grid_local_maximize(p1, [0.3], [0.0], 0.5, 1001)
    assert res.y[0] == pytest.approx(0.3, abs=1e-3)


def test_grid_maximize_boundary(p2):
    res = grid_local_maximize(p2, [0.5], [0.0], 0.5, 1001)
    assert res.y[0] == pytest.approx(0.0, abs=1e-9)


def test_grid_maximize_interior_negative(p2):
    res = grid_local_maximize(p2, [-0.5], [0.0], 0.5, 1001)
    assert res.y[0] == pytest.approx(-0.5, abs=1e-3)


def test_grid_maximize_empty_feasible_set():
    spec = parse_problem("dims 1 1 0 1 0 0\nf = y1\ng1 = y1 + 10\n")
    with pytest.raises(EmptyFeasibleGridError):
        grid_local_maximize(spec, [0.0], [0.0], 0.5, 101)


def test_grid_maximize_agrees_with_newton(p1, p2, config):
    for spec, xs in ((p1, (-0.4, -0.2, 0.0, 0.2, 0.4)),
                     (p2, (-0.4, -0.2, 0.0, 0.2, 0.4))):
        for x in xs:
            sol = solve_lower(spec, [x], ([0.0], None, None), config)
            res = grid_local_maximize(spec, [x], [0.0], 0.6, 1201)
            step = 1.2 / 1200
            assert abs(res.y[0] - sol.y[0]) <= 2 * step


def test_grid_maximize_2d(config):
    spec = parse_problem(
        "dims 1 2 0 1 0 0\nf = -(y1-x1)^2 - (y2-0.1)^2\ng1 = y1 + y2 - 10\n"
    )
    res = grid_local_maximize(spec, [0.2], [0.0, 0.0], 0.5, 101)
    assert res.y[0] == pytest.approx(0.2, abs=1e-2)
    assert res.y[1] == pytest.approx(0.1, abs=1e-2)


def _refuse_evaluation(monkeypatch):
    def evaluated(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(oracle, "_masked_argmax", evaluated)


@pytest.mark.parametrize("points", [1, 0, -3, 2.0, True, "5", None])
def test_grid_maximize_rejects_points_below_two_or_not_integer(points, monkeypatch):
    _refuse_evaluation(monkeypatch)
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -y1^2\n")
    with pytest.raises(ValueError, match="points"):
        grid_local_maximize(spec, [0.0], [0.0], 0.5, points)


def test_grid_maximize_two_points_are_the_box_ends():
    spec = parse_problem("dims 1 1 0 0 0 0\nf = y1\n")
    res = grid_local_maximize(spec, [0.0], [0.25], 0.5, np.int64(2))
    assert res.y.tolist() == [0.75] and res.total_points == 2


# f(0, y) = x1*y1 is -0.0 below y = 0 and +0.0 from it on; the first maximum
# is the first -0.0, where np.maximum.reduce would give +0.0.  A constant f
# and a y-free row are narrower than the grid and still count every point.
@pytest.mark.parametrize("text, x, y, value", [
    ("dims 1 1 0 0 0 0\nf = x1*y1\n", 0.0, -0.5, -0.0),
    ("dims 1 1 0 0 0 0\nf = 1.5\n", 0.0, -0.5, 1.5),
    ("dims 1 1 0 1 0 0\nf = x1^2\ng1 = x1 - 1\n", 0.5, -0.5, 0.25),
], ids=["signed-zero-tie", "constant-f", "y-free-row"])
def test_grid_maximize_takes_the_first_maximum_of_one_row(text, x, y, value):
    res = grid_local_maximize(parse_problem(text), [x], [0.0], 0.5, 5)
    assert [v.hex() for v in res.y.tolist()] == [y.hex()]
    assert res.value.hex() == value.hex()
    assert (res.feasible_points, res.total_points) == (5, 5)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_grid_maximize_rejects_radius_not_positive_and_finite(radius, monkeypatch):
    _refuse_evaluation(monkeypatch)
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -y1^2\n")
    with pytest.raises(ValueError, match="radius"):
        grid_local_maximize(spec, [0.0], [0.0], radius, 5)


@pytest.mark.parametrize("x, center, name", [
    ([0.0, 0.0], [0.0], "x"), ([0.0], [0.0, 0.0], "center"), ([0.0], [[0.0]], "center"),
    ([0.0], [[0.0, 0.0]], "center"), ([[0.0]], [0.0], "x"),
], ids=["x-length-2", "center-length-2", "center-2d", "center-2d-wide", "x-2d"])
def test_grid_maximize_rejects_x_and_center_of_the_wrong_shape(x, center, name,
                                                               monkeypatch):
    _refuse_evaluation(monkeypatch)
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -y1^2\n")
    with pytest.raises(CandidateShapeError, match=f"^{name} has shape"):
        grid_local_maximize(spec, x, center, 0.5, 5)


@pytest.mark.parametrize("x, center", [
    ([0.0], [math.nan]), ([0.0], [math.inf]), ([math.nan], [0.0]), ([-math.inf], [0.0]),
], ids=["center-nan", "center-inf", "x-nan", "x-inf"])
def test_grid_maximize_rejects_non_finite_x_and_center(x, center, monkeypatch):
    _refuse_evaluation(monkeypatch)
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -y1^2\n")
    with pytest.raises(ValueError, match="must be finite") as info:
        grid_local_maximize(spec, x, center, 0.5, 5)
    assert not isinstance(info.value, CandidateShapeError)


# --- grid building ----------------------------------------------------------------

# centres from 1e-3 to 1e17 of either sign and radii from 1e-6 to 10; above
# about 1e10, c - r and c + r can round to c, a zero step, which np.linspace
# handles on its own branch (dividing before it multiplies, which moves the
# bits only when the width is subnormal, as at centre 0 and radius 5e-324)
_CENTRES = st.builds(lambda m, e, s: s * m * 10.0**e, st.floats(1.0, 9.99),
                     st.integers(-3, 16), st.sampled_from([1.0, -1.0]))
_RADII = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-6, 0))


@settings(max_examples=500)
@given(st.lists(_CENTRES, min_size=1, max_size=2), _RADII, st.integers(2, 1000))
@example([1e17, -3e16], 1e-6, 7)  # a zero step on both axes
@example([0.0, 1.0], 5e-324, 5)  # a zero step of a subnormal width, and of none
@example([0.1, 1e-3], 1e-6, 1000)
def test_axis_grid_matches_linspace_bit_for_bit(center, radius, points):
    got = _axis_grid(np.array(center), radius, points)
    want = [np.linspace(c - radius, c + radius, points) for c in center]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


_AXIS = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40)


@given(st.lists(_AXIS, min_size=1, max_size=3))
def test_mesh_matches_meshgrid_bit_for_bit(axes):
    axes = [np.array(axis) for axis in axes]
    got = _mesh(axes)
    want = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    assert [g.dtype for g in got] == [g.dtype for g in want]
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


# --- definition check -------------------------------------------------------------

def test_definition_holds_at_p1_origin(p1):
    rep = verify_minimax_definition(
        p1, [0.0], [0.0], GridSpec(delta0=0.1, step=1e-3, tol=1e-9)
    )
    assert rep.passed
    assert rep.worst_violation <= 1e-9


def test_definition_p2_passes_at_quadratic_tolerance(p2):
    # the right inequality fails by exactly delta^2 at |x| = delta, so the
    # documented pass needs a tolerance of at least delta0^2
    rep = verify_minimax_definition(
        p2, [0.0], [0.0], GridSpec(delta0=0.1, step=1e-3, tol=1.1e-2)
    )
    assert rep.passed
    assert rep.worst_side == "right"
    assert rep.worst_violation == pytest.approx(0.01, abs=1e-6)


def test_definition_fails_for_shifted_candidate(p1):
    rep = verify_minimax_definition(
        p1, [0.5], [0.5], GridSpec(delta0=0.1, step=1e-3, tol=1e-9)
    )
    assert not rep.passed
    assert rep.worst_side == "right"
    assert rep.worst_witness[0] < 0.5  # a better x below the candidate


def test_definition_monotone_in_tolerance(p2):
    worst = None
    for tol in (1e-9, 1e-4, 1e-2, 2e-2):
        rep = verify_minimax_definition(
            p2, [0.0], [0.0], GridSpec(delta0=0.1, step=2e-3, tol=tol)
        )
        if worst is None:
            worst = rep.worst_violation
        assert rep.worst_violation == pytest.approx(worst, abs=1e-12)
        assert rep.passed == (worst <= tol)


def test_definition_p3_feasible_singleton(p3):
    rep = verify_minimax_definition(
        p3, [0.0], [0.0], GridSpec(delta0=0.1, step=1e-3, tol=1e-9)
    )
    assert rep.passed


def test_outer_feasibility_runs_no_tape_without_outer_rows(monkeypatch):
    """Without H or G rows (P2) every x-grid point is feasible, and the ladder
    runs no outer tape; only the candidate's own test does, with x* as
    scalars."""
    from minimaxcert.fixtures import fixture_text

    spec = parse_problem(fixture_text("P2"))
    outer = spec._oracle_tapes[1]
    arrays, shapes = outer.arrays, []

    def recording(x, y):
        shapes.append(np.shape(x[0]))
        return arrays(x, y)

    monkeypatch.setattr(outer, "arrays", recording)
    verify_minimax_definition(spec, [0.0], [0.0], GridSpec(delta0=0.1, step=1e-3))
    assert shapes == [()]


def test_definition_rejects_large_problems():
    spec = parse_problem(
        "dims 3 1 0 0 0 0\nf = x1*y1 + x2 + x3 - y1^2\n"
    )
    with pytest.raises(ValueError):
        verify_minimax_definition(spec, [0.0, 0.0, 0.0], [0.0], GridSpec())


@pytest.mark.parametrize("text, x, violation", [
    # a NaN outer constraint at x*: every x-grid was empty, and the check passed
    ("dims 1 1 0 0 0 1\nf = x1^2 - y1^2\nG1 = x1 - 1 + 0/0\n", "0", math.inf),
    ("dims 1 1 0 0 0 1\nf = x1^2 - y1^2\nG1 = x1 - 1\n", "2", 1.0),
    ("dims 1 1 0 1 0 0\nf = x1^2 - y1^2\ng1 = y1 + 1\n", "0", 1.0),
], ids=["G-nan", "G-violated", "g-violated"])
def test_definition_fails_an_infeasible_candidate(text, x, violation, tmp_path, capsys):
    from minimaxcert.cli import main

    rep = verify_minimax_definition(parse_problem(text), [float(x)], [0.0])
    assert not rep.passed and rep.worst_side == "feasibility"
    assert rep.worst_violation == violation and not rep.levels
    assert rep.notes and "infeasible" in rep.notes[0]
    prob = tmp_path / "p.prob"
    prob.write_text(text, encoding="utf-8")
    assert main(["oracle", str(prob), "--x", x, "--y", "0"]) == 2
    assert "definition check: fail" in capsys.readouterr().out


@pytest.mark.parametrize("x, y", [
    ([math.nan], [0.0]),  # passed with f_star = nan
    ([0.0], [math.inf]),
    ([0.0, 5.0], [0.0]),  # passed, reading x1 alone
    ([], [0.0]),  # raised IndexError
], ids=["nan", "inf", "too-long", "too-short"])
def test_definition_checks_the_candidate_as_certify_does(x, y):
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -(y1-x1)^2 + x1^2\n")
    with pytest.raises(ValueError) as got:
        verify_minimax_definition(spec, x, y)
    with pytest.raises(ValueError) as want:  # as certify and the CLI check it
        CandidatePoint(x, y).validate_against(spec)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# --- grid validation --------------------------------------------------------------

@pytest.mark.parametrize("levels", [0, -1, 1.5, 2.0])
def test_grid_rejects_fewer_than_one_level(levels):
    # with no level the check would pass vacuously: f = -x1^2 - y1^2 fails the
    # right inequality at the origin by delta0^2 on the default grid
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -x1^2 - y1^2\n")
    rep = verify_minimax_definition(spec, [0.0], [0.0], GridSpec())
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ValueError, match="levels"):
        GridSpec(levels=levels)


@pytest.mark.parametrize("key", ["delta0", "step", "eta_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_grid_rejects_non_finite_or_non_positive_sizes(key, value):
    with pytest.raises(ValueError, match="positive and finite"):
        GridSpec(**{key: value})


@pytest.mark.parametrize("key", ["tol", "feas_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-3])
def test_grid_rejects_non_finite_or_negative_tolerances(key, value):
    # tol = inf would pass any violation; NaN would fail every comparison
    with pytest.raises(ValueError, match="finite and >= 0"):
        GridSpec(**{key: value})
    assert getattr(GridSpec(**{key: 0.0}), key) == 0.0


# --- f(x*, y*) and the compiled tapes ------------------------------------------


def test_f_star_is_strict_on_f_alone(tmp_path, capsys):
    from minimaxcert.cli import main
    from minimaxcert.expressions import DomainError

    # f leaves its domain at x*: an error naming the node, not a verdict
    text = "dims 1 1 0 0 0 0\nf = -(y1-x1)^2 + sqrt(x1)\n"
    with pytest.raises(DomainError, match=r"sqrt\(x1\)"):
        verify_minimax_definition(parse_problem(text), [-0.01], [-0.01])
    prob = tmp_path / "f.prob"
    prob.write_text(text, encoding="utf-8")
    assert main(["oracle", str(prob), "--x", "-0.01", "--y", "-0.01"]) == 1
    assert "sqrt(x1)" in capsys.readouterr().err

    # only g leaves its domain at y*: its NaN grid points are infeasible, and
    # the check runs to a report
    text = "dims 1 1 0 1 0 0\nf = -(y1-x1)^2\ng1 = log(y1 + 0.5) - 10\n"
    rep = verify_minimax_definition(parse_problem(text), [-0.6], [-0.6])
    assert not rep.passed and rep.f_star == 0.0
    prob.write_text(text, encoding="utf-8")
    assert main(["oracle", str(prob), "--x", "-0.6", "--y", "-0.6"]) == 2
    capsys.readouterr()


def test_oracle_compiles_each_tape_once(monkeypatch):
    from minimaxcert import problem

    compiled = []
    tape = problem.Tape

    def counting_tape(exprs, *rest):
        compiled.append(len(exprs))
        return tape(exprs, *rest)

    monkeypatch.setattr(problem, "Tape", counting_tape)
    spec = parse_problem("dims 2 1 1 1 1 1\nf = x1*y1 - y1^2 + x2^2\n"
                         "h1 = 0*y1\ng1 = y1 - 1\nH1 = x1 - x2\nG1 = x1 - 1\n")
    grid = GridSpec(step=0.05, levels=2)
    for _ in range(3):
        verify_minimax_definition(spec, [0.0, 0.0], [0.0], grid)
        grid_local_maximize(spec, [0.0, 0.0], [0.0], 0.1, 5)
    # h, g and f; H and G; f alone
    assert sorted(compiled) == [1, 2, 3]


# --- bit-equality with the per-x-point oracle -------------------------------------

def _reference_grid(center, radius, points):
    """The box grid as np.linspace and np.meshgrid build it, one array per axis."""
    axes = [np.linspace(c - radius, c + radius, points) for c in center]
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _reference_grid_local_maximize(spec, x, center, radius, points, feas_tol=1e-9):
    """The grid maximizer as it was before the shared masked argmax."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    ys = _reference_grid(center, radius, points)
    total = ys[0].shape[0]
    feas = np.ones(total, dtype=bool)
    for e in spec.h:
        vals = np.asarray(evaluate(e, x, ys, strict=False), dtype=float)
        feas &= np.abs(vals) <= feas_tol
    for e in spec.g:
        vals = np.asarray(evaluate(e, x, ys, strict=False), dtype=float)
        feas &= vals <= feas_tol
    if not np.any(feas):
        raise EmptyFeasibleGridError("empty")
    fvals = np.broadcast_to(
        np.asarray(evaluate(spec.f, x, ys, strict=False), dtype=float), (total,)
    ).copy()
    fvals[~np.isfinite(fvals)] = -np.inf
    fvals[~feas] = -np.inf
    k = int(np.argmax(fvals))
    return GridMaxResult(np.array([axis[k] for axis in ys]), float(fvals[k]),
                         int(np.sum(feas)), total)


def _reference_verify_minimax_definition(spec, x_star, y_star, grid):
    """The definition check with one grid maximization per feasible x point,
    after the candidate's own feasibility test."""
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    f_star = float(evaluate(spec.f, x_star, y_star))
    report = OracleReport(
        passed=True, worst_violation=0.0, worst_side=None, worst_witness=None,
        f_star=f_star,
    )
    at_star = [(e, x_star, y_star, k < spec.m1) for k, e in enumerate(spec.h + spec.g)]
    at_star += [(e, x_star, np.zeros(spec.m), k < spec.n1)
                for k, e in enumerate(spec.H + spec.G)]
    viols = [float(evaluate(e, x, y, strict=False)) for e, x, y, _ in at_star]
    viols = [np.inf if np.isnan(v) else abs(v) if eq else v
             for v, (*_, eq) in zip(viols, at_star)]
    worst = max(viols, default=0.0)
    if worst > grid.feas_tol:
        report.passed, report.worst_side, report.worst_violation = False, "feasibility", worst
        report.notes.append(f"candidate infeasible: constraint violation {worst:.3e} "
                            f"exceeds feas_tol {grid.feas_tol:g}")
        return report

    def npts(radius):
        return 2 * max(1, int(np.ceil(radius / grid.step))) + 1

    for delta in [grid.delta0 * 0.5**k for k in range(grid.levels)]:
        level = {"delta": delta, "eta": grid.eta(delta)}
        ys = _reference_grid(y_star, delta, npts(delta))
        total = ys[0].shape[0]
        feas = np.ones(total, dtype=bool)
        for e in spec.h:
            feas &= np.abs(np.asarray(evaluate(e, x_star, ys, strict=False))) <= grid.feas_tol
        for e in spec.g:
            feas &= np.asarray(evaluate(e, x_star, ys, strict=False)) <= grid.feas_tol
        if not np.any(feas):
            report.notes.append(f"delta={delta:g}: empty feasible y-grid")
            level["left_violation"] = None
        else:
            fv = np.broadcast_to(
                np.asarray(evaluate(spec.f, x_star, ys, strict=False), dtype=float),
                (total,),
            ).copy()
            fv[~np.isfinite(fv)] = -np.inf
            fv[~feas] = -np.inf
            k = int(np.argmax(fv))
            viol = float(fv[k] - f_star)
            level["left_violation"] = viol
            if viol > report.worst_violation:
                report.worst_violation = viol
                report.worst_side = "left"
                report.worst_witness = [float(axis[k]) for axis in ys]

        xs = _reference_grid(x_star, delta, npts(delta))
        xfeas = np.ones(xs[0].shape[0], dtype=bool)
        for e in spec.H:
            xfeas &= np.abs(np.asarray(evaluate(e, xs, np.zeros(spec.m), strict=False))) <= grid.feas_tol
        for e in spec.G:
            xfeas &= np.asarray(evaluate(e, xs, np.zeros(spec.m), strict=False)) <= grid.feas_tol
        if not np.any(xfeas):
            report.notes.append(f"delta={delta:g}: empty feasible x-grid")
            level["right_violation"] = None
            report.levels.append(level)
            continue
        worst_right = -np.inf
        worst_x = None
        empty_inner = 0
        for idx in np.flatnonzero(xfeas):
            x_pt = np.array([axis[idx] for axis in xs])
            try:
                res = _reference_grid_local_maximize(
                    spec, x_pt, y_star, grid.eta(delta), npts(grid.eta(delta)),
                    feas_tol=grid.feas_tol,
                )
            except EmptyFeasibleGridError:
                empty_inner += 1
                continue
            viol = f_star - res.value
            if viol > worst_right:
                worst_right = viol
                worst_x = x_pt
        if empty_inner:
            report.notes.append(
                f"delta={delta:g}: {empty_inner} x-grid points had empty inner grids"
            )
        if worst_x is None:
            level["right_violation"] = None
        else:
            level["right_violation"] = float(worst_right)
            if worst_right > report.worst_violation:
                report.worst_violation = float(worst_right)
                report.worst_side = "right"
                report.worst_witness = worst_x.tolist()
        report.levels.append(level)

    report.passed = report.worst_violation <= grid.tol
    return report


def _bits(value):
    """value with every float as its hex string, so NaN == NaN and -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


# f terms in the deviations u_i = x_i - x*_i and v_j = y_j - y*_j; log, sqrt
# and the division leave their domain, and exp overflows to +inf and -inf, on
# the larger grids, so NaN and inf reach the masking, while f(x*, y*) itself
# stays finite
_F_TERMS = (
    "u1*v{j}", "-v{j}^2", "u{i}^2", "cos(u{i} + 3*v{j})", "exp(u{i})*sin(v{j})",
    "log(v{j} - u{i} + 0.03)", "sqrt(u{i} + v{j} + 0.02)", "abs(v{j})",
    "1/(u{i} - v{j} + 0.05)", "v{j}*(x{i} - 0.25)^3", "exp(5000*v{j})",
    "-exp(5000*u{i})",
)
_H_ROWS = ("v1 - u1", "v{m} - v1^2")
_G_ROWS = (  # the first two empty the inner grids of the lower x points
    "v1 - u1 + 0.15", "v{m}^2 - u{n} - 0.005", "v1 + v{m} - 1", "u{n} - v1 - 0.02",
)
_HX_ROWS = ("u1 - u{n}", "u{n}*(u{n} - 0.02)")
_GX_ROWS = ("u1 + u{n} - 0.03", "u{n} + 0.5")  # the second empties the x-grid


@st.composite
def _oracle_cases(draw):
    """(problem text, x*, y*, grid, chunk) over n, m in {1, 2}, with every kind
    of constraint row, constant f, f independent of y, f(x*, y*) = -inf or
    +inf, and f(x*, y*) so large that its differences round to ties."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    coords = st.sampled_from([0.0, 0.013, -0.27, 1.5])
    x_star = [draw(coords) for _ in range(n)]
    y_star = [draw(coords) for _ in range(m)]
    shape = draw(st.sampled_from(["terms", "huge f_star", "constant", "x only",
                                  "-inf at x*", "+inf at x*"]))
    if shape == "constant":
        f = draw(st.sampled_from(["1.5", "-0.25", "0"]))
    elif shape == "x only":
        f = "u1^2 - 0.5*u{n} + cos(u1)"
    elif shape == "-inf at x*":  # f(x*, y*) = -inf, finite at the other x points
        f = "-exp(800 - 1e7*u{n}^2) - v1^2"
    elif shape == "+inf at x*":  # f(x*, y*) = +inf, so every kept violation is +inf
        f = "exp(800 - 1e7*u{n}^2) - v1^2"
    else:
        terms = draw(st.lists(st.sampled_from(_F_TERMS), min_size=1, max_size=4))
        f = " + ".join(f"{draw(st.sampled_from([1, -2, 0.5]))}*({t})" for t in terms)
        if shape == "huge f_star":  # f(x*, y*) - V rounds distinct V to ties
            f = f"1e20 + {f}"
        f = f.replace("{i}", str(draw(st.integers(1, n))))
        f = f.replace("{j}", str(draw(st.integers(1, m))))
    rows = {key: draw(st.lists(st.sampled_from(pool), max_size=2))
            for key, pool in (("h", _H_ROWS), ("g", _G_ROWS), ("H", _HX_ROWS),
                              ("G", _GX_ROWS))}
    text = (f"dims {n} {m} {len(rows['h'])} {len(rows['g'])} {len(rows['H'])} "
            f"{len(rows['G'])}\nf = {f}\n")
    for key in ("h", "g", "H", "G"):
        for k, row in enumerate(rows[key], start=1):
            text += f"{key}{k} = {row}\n"
    text = text.replace("{n}", str(n)).replace("{m}", str(m))
    for i, c in enumerate(x_star, start=1):
        text = text.replace(f"u{i}", f"(x{i} - ({c!r}))")
    for j, c in enumerate(y_star, start=1):
        text = text.replace(f"v{j}", f"(y{j} - ({c!r}))")
    grid = GridSpec(
        delta0=draw(st.sampled_from([0.1, 0.05])),
        step=draw(st.sampled_from([0.01, 0.025, 0.03])),
        eta_factor=draw(st.sampled_from([2.0, 1.0, 0.7])),
        tol=1e-9,
        levels=draw(st.integers(1, 3)),
    )
    # one x row per block, blocks that do not divide the row count, one block;
    # a level above one block takes the probe and skips rows
    chunk = draw(st.sampled_from([1, 50, 997, oracle.CHUNK_ELEMENTS]))
    return text, x_star, y_star, grid, chunk


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and NaN get masked
@settings(max_examples=300)
@given(_oracle_cases())
def test_definition_matches_per_point_reference_bit_for_bit(case):
    text, x_star, y_star, grid, chunk = case
    spec = parse_problem(text)
    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk):
        got = verify_minimax_definition(spec, x_star, y_star, grid)
    want = _reference_verify_minimax_definition(spec, x_star, y_star, grid)
    for name in ("passed", "worst_violation", "worst_side", "worst_witness", "f_star",
                 "levels", "notes"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name

    eta = grid.eta(grid.delta0)
    points = 2 * int(np.ceil(eta / grid.step)) + 1
    try:
        ref = _reference_grid_local_maximize(spec, x_star, y_star, eta, points)
    except EmptyFeasibleGridError:
        with pytest.raises(EmptyFeasibleGridError):
            grid_local_maximize(spec, x_star, y_star, eta, points)
        return
    res = grid_local_maximize(spec, x_star, y_star, eta, points)
    assert res.y.tobytes() == ref.y.tobytes()
    assert _bits(res.value) == _bits(ref.value)
    assert (res.feasible_points, res.total_points) == (ref.feasible_points,
                                                       ref.total_points)


def test_probe_skips_most_rows_on_the_benchmark_shape(monkeypatch):
    """The n = m = 1 problem of perfbench's oracle workload (seed 1) at a lattice
    candidate: the inner max y = c is interior and a probe point, and phi(x) >
    phi(x*) at the other grid x, so on the two levels above one block the row of
    x* sets t = 0 and the probe skips every other row."""
    spec = parse_problem(
        "dims 1 1 0 1 0 0\n"
        "f = 0.831*(1 - cos(x1)) - 1.766*(y1 + 0.835)^2*(2 + cos(x1))\n"
        "g1 = (y1 + 0.835) - 1\n")
    points = []
    masked_argmax = oracle._masked_argmax

    def counting(spec, x, ys, *args, **kwargs):
        # the points of the grid the call reduces, one row or a block
        shape = np.broadcast_shapes(*(np.shape(a) for a in [*x, *ys]))
        points.append(math.prod(shape))
        return masked_argmax(spec, x, ys, *args, **kwargs)

    monkeypatch.setattr(oracle, "_masked_argmax", counting)
    grid = GridSpec(step=1e-3)
    rep = verify_minimax_definition(spec, [2 * math.pi], [-0.835], grid)
    assert rep.passed and rep.worst_violation == 0.0
    # full: every x point times the inner grid, and the left inequality's
    # grids; floor: what the check evaluates whatever it skips, the left grids,
    # every x point of a level of one block, and on a level above one block
    # the probe of every x point and the seed row
    full = floor = 0
    for k in range(grid.levels):
        delta = grid.delta0 * 0.5**k
        xs, ys = (2 * math.ceil(r / grid.step) + 1 for r in (delta, grid.eta(delta)))
        full += xs * ys + xs
        if xs * ys <= oracle.CHUNK_ELEMENTS:
            floor += xs * ys + xs
        else:
            probe = len(range(ys // 2 % math.isqrt(ys), ys, math.isqrt(ys)))
            floor += xs * probe + ys + xs
    assert (full, floor) == (107_810, 13_246)
    assert floor <= sum(points) < full / 4
