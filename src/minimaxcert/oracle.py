"""Brute-force ground truth: finite differences, feasible-grid maximization,
and a direct grid test of the two-sided local minimax definition.

Grid oracles are wired for n <= 2, m <= 2 only.  Every grid maximization
masks and reduces the inner tape's values by one rule, `_masked_argmax`, over
the grid's last axis.  A one-row maximization, one x point against a y-grid,
runs on the 1-D y-mesh with x as scalars: the left inequality's grid, which
`grid_local_maximize` evaluates once per level, and the seed row of a level
that probes (below).  The right inequality evaluates one inner y-grid per
level against blocks of feasible x-grid points in one broadcast of the spec's
tapes in array mode: x axes as (rows, 1) columns, y axes as (1, Y) rows, with
rows * Y at most CHUNK_ELEMENTS (one row when Y alone exceeds it).  Each
level tests its x-mesh against H and G in one pass of the outer tape, and in
none when there are no H or G rows.

Only the x rows with the least inner max set a level's right violation.  So a
level that needs more than one block first probes every feasible x row against
the inner grid's points at stride isqrt(p) on each y axis of p points, the
centre y* included: the probe's masked max lb is a lower bound on the row's
max V, taken from the same tape values.  The row with the least lb is evaluated
in full, giving t = f(x*, y*) - V there.  A row with f(x*, y*) - lb < t, in the
rounded subtraction the violations use, can neither beat nor tie that row; it
is skipped, and only the other rows are evaluated in full.  Nothing is skipped
when the full row is not one the check counts (an empty inner grid, or a
violation of -inf or NaN).

Time still grows with the product of the grid sizes (capped at
MAX_LEVEL_POINTS); when no row can be skipped the probe comes on top of the
full pass.  The working arrays are bounded by the chunk, and the results are
bit-identical to one grid maximization per x point.

Each grid axis is np.linspace(c - r, c + r, p), built with numpy's own linspace
arithmetic, bit for bit: step = (c + r - (c - r)) / (p - 1), arange(p) * step
+ (c - r), the last point set to c + r.  Where that step rounds to zero numpy
takes another branch, so there the axis is np.linspace itself.  A mesh is the
ravel of np.meshgrid(..., indexing="ij"), filled by broadcasting into one array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .problem import CandidatePoint, CandidateShapeError, ProblemSpec


@dataclass
class GridSpec:
    """delta0: outer radius; step: grid spacing; eta(delta) = eta_factor * delta;
    tol: comparison tolerance for the two inequalities; feas_tol: constraint
    violation allowed at a feasible grid point."""

    delta0: float = 0.1
    step: float = 1e-3
    eta_factor: float = 2.0
    tol: float = 1e-9
    levels: int = 4
    feas_tol: float = 1e-9

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.delta0, self.step, self.eta_factor)):
            raise ValueError("delta0, step and eta_factor must be positive and finite")
        if not all(math.isfinite(v) and v >= 0 for v in (self.tol, self.feas_tol)):
            raise ValueError("tol and feas_tol must be finite and >= 0")
        if self.step > self.delta0:
            raise ValueError("step must not exceed delta0 (>= 3 points per axis)")
        if not isinstance(self.levels, numbers.Integral):
            raise ValueError(f"levels must be an integer, not {self.levels!r}")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")

    def eta(self, delta: float) -> float:
        return self.eta_factor * delta


def fd_derivatives(func, point, step: float = 1e-5, hess_step: float = 1e-3):
    """Central-difference gradient and (symmetrized) Hessian of a scalar field."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    n = point.shape[0]
    grad = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        grad[i] = (func(point + e) - func(point - e)) / (2.0 * step)
    hess = np.zeros((n, n))
    f0 = func(point)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hess_step
        hess[i, i] = (func(point + ei) - 2.0 * f0 + func(point - ei)) / hess_step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hess_step
            hess[i, j] = (
                func(point + ei + ej)
                - func(point + ei - ej)
                - func(point - ei + ej)
                + func(point - ei - ej)
            ) / (4.0 * hess_step**2)
            hess[j, i] = hess[i, j]
    return grad, 0.5 * (hess + hess.T)


def _axis_grid(center: np.ndarray, radius: float, points: int) -> list[np.ndarray]:
    """np.linspace(c - radius, c + radius, points) for each c in center, bit for
    bit: numpy's own arithmetic where the step is nonzero, and numpy itself
    where it rounds to zero (c +- radius rounding to c, or a subnormal width),
    since numpy then divides before it multiplies."""
    ramp = np.arange(points, dtype=float)
    axes = []
    for c in center.tolist():
        start, stop = c - radius, c + radius
        step = (stop - start) / (points - 1)
        if step == 0:
            axis = np.linspace(start, stop, points)
        else:
            axis = ramp * step
            axis += start
            axis[-1] = stop
        axes.append(axis)
    return axes


def _mesh(axes: list[np.ndarray]) -> list[np.ndarray]:
    """[g.ravel() for g in np.meshgrid(*axes, indexing="ij")], as rows of one
    array filled by broadcasting."""
    if len(axes) == 1:
        return [axes[0]]
    k = len(axes)
    grids = np.empty((k, *(axis.shape[0] for axis in axes)), dtype=np.result_type(*axes))
    for i, axis in enumerate(axes):
        grids[i] = axis.reshape((-1,) + (1,) * (k - 1 - i))
    return list(grids.reshape(k, -1))


# x-by-y points evaluated in one broadcast block of the right inequality; the
# oracle's working arrays stay O(CHUNK_ELEMENTS) whatever the grid size
CHUNK_ELEMENTS = 1 << 14
# the first (largest) level's x-grid times y-grid point count above which the
# definition check refuses to run: time grows with it, and the 6.5e9 points
# of n = m = 2 at the default step take minutes
MAX_LEVEL_POINTS = 10**8


class EmptyFeasibleGridError(Exception):
    pass


class GridTooLargeError(ValueError):
    """The first level of the definition check exceeds MAX_LEVEL_POINTS."""

    def __init__(self, points: int):
        self.points = points
        super().__init__(f"the oracle grid's first level has {points} x-by-y points, "
                         f"above the cap of {MAX_LEVEL_POINTS}; coarsen oracle_step")


@dataclass
class GridMaxResult:
    y: np.ndarray
    value: float
    feasible_points: int
    total_points: int


def _feasible(values, equalities: int, feas_tol: float):
    """Where every constraint value holds within feas_tol: the first
    `equalities` values as |c| <= feas_tol, the rest as c <= feas_tol.
    NaN is infeasible."""
    feas = True
    for k, c in enumerate(values):
        c = np.asarray(c, dtype=float)
        feas = feas & ((np.abs(c) if k < equalities else c) <= feas_tol)
    return feas


def _violation(values, equalities: int) -> float:
    """The largest violation among scalar constraint values, read as
    `_feasible` reads them; NaN counts as inf."""
    worst = 0.0
    for k, c in enumerate(values):
        c = abs(float(c)) if k < equalities else float(c)
        worst = max(worst, math.inf if math.isnan(c) else c)
    return worst


def _masked_argmax(spec: ProblemSpec, x, ys, feas_tol: float):
    """The first argmax of f(x, .) over the feasible points of a y-grid, along
    its last axis.

    One row passes x as scalars and ys as the 1-D y-mesh, and gets back
    scalars.  A block passes x as (rows, 1) columns and ys as (1, Y) rows, so
    the inner tape broadcasts h, g and f to (rows, Y), and gets back one entry
    per row.  Non-finite and infeasible values become -inf, and np.argmax
    takes the first maximum.  Returns the argmax k, its value and the
    feasible count."""
    *constraints, fvals = spec._oracle_tapes[0].arrays(x, ys)
    feas = _feasible(constraints, spec.m1, feas_tol)
    fvals = np.where(feas & np.isfinite(fvals), fvals, -np.inf)
    # one row is (Y,), and a block (rows, Y) for columns x of shape (rows, 1)
    shape = np.shape(x[0])[:1] + ys[0].shape[-1:]
    if fvals.shape != shape:  # f and every row leave out an axis of the grid
        fvals = np.broadcast_to(fvals, shape)
    if np.shape(feas) != shape:  # every row leaves out an axis, or there is none
        feas = np.broadcast_to(feas, shape)
    if len(shape) == 1:
        k = fvals.argmax()
        return k, fvals[k], np.count_nonzero(feas)
    k = fvals.argmax(axis=1)
    return k, fvals[np.arange(shape[0]), k], np.count_nonzero(feas, axis=1)


def _row_maxima(spec: ProblemSpec, xs, rows, ys, feas_tol: float):
    """The masked max of f over the y-grid ys and its feasible count, for each
    x-grid point xs[rows], in blocks of at most CHUNK_ELEMENTS x-by-y points.
    ys holds (1, Y) rows."""
    values = np.empty(rows.shape[0])
    counts = np.empty(rows.shape[0], dtype=np.intp)
    block = max(1, CHUNK_ELEMENTS // ys[0].shape[1])
    for start in range(0, rows.shape[0], block):
        part = rows[start:start + block]
        _, values[start:start + block], counts[start:start + block] = _masked_argmax(
            spec, [axis[part, None] for axis in xs], ys, feas_tol)
    return values, counts


def grid_local_maximize(
    spec: ProblemSpec,
    x,
    center,
    radius: float,
    points: int,
    feas_tol: float = GridSpec.feas_tol,
) -> GridMaxResult:
    """argmax of f(x, .) over the feasible grid points in a box around center,
    a grid of `points` per axis from center - radius to center + radius.
    x and center are checked as `verify_minimax_definition` checks its
    candidate, of lengths n and m (CandidateShapeError) and finite
    (ValueError), before anything is evaluated."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, not {radius!r}")
    if not isinstance(points, numbers.Integral) or points < 2:
        raise ValueError(f"points must be an integer >= 2, not {points!r}")
    if spec.m > 2:
        raise ValueError("grid oracle supports m <= 2 only")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if x.shape != (spec.n,):
        raise CandidateShapeError(f"x has shape {x.shape}, expected ({spec.n},)")
    if center.shape != (spec.m,):
        raise CandidateShapeError(f"center has shape {center.shape}, expected ({spec.m},)")
    if not all(map(math.isfinite, x.tolist() + center.tolist())):
        raise ValueError("x and center entries must be finite")
    ys = _mesh(_axis_grid(center, radius, points))
    k, value, feasible = _masked_argmax(spec, x, ys, feas_tol)
    if not feasible:
        raise EmptyFeasibleGridError(
            f"no feasible grid point in the ball of radius {radius} around {center}"
        )
    return GridMaxResult(
        y=np.array([axis[k] for axis in ys]),
        value=float(value),
        feasible_points=int(feasible),
        total_points=ys[0].shape[0],
    )


@dataclass
class OracleReport:
    passed: bool
    worst_violation: float
    worst_side: str | None
    worst_witness: list | None
    f_star: float
    levels: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def verify_minimax_definition(
    spec: ProblemSpec, x_star, y_star, grid: GridSpec | None = None
) -> OracleReport:
    """Grid check of both defining inequalities on a shrinking delta ladder:
    y-candidates may not beat f(x*, y*) on Y(x*), and nearby feasible x must
    reach at least f(x*, y*) when maximizing over the eta(delta) ball.
    x* and y* are checked as `certify` checks a candidate, finite (ValueError)
    and of lengths n and m (CandidateShapeError), before anything is
    evaluated.  A candidate that violates h, g, H or G by more than feas_tol
    (NaN included) fails before the ladder, on side "feasibility".
    Raises GridTooLargeError, before evaluating anything, when the first
    level's x-grid times y-grid exceeds MAX_LEVEL_POINTS."""
    grid = grid or GridSpec()
    if spec.n > 2 or spec.m > 2:
        raise ValueError("definition oracle supports n <= 2 and m <= 2 only")
    candidate = CandidatePoint(x_star, y_star)
    candidate.validate_against(spec)
    x_star, y_star = candidate.x, candidate.y

    def npts(radius: float) -> int:
        return 2 * max(1, int(np.ceil(radius / grid.step))) + 1

    points = npts(grid.delta0) ** spec.n * npts(grid.eta(grid.delta0)) ** spec.m
    if points > MAX_LEVEL_POINTS:
        raise GridTooLargeError(points)
    inner, outer, objective = spec._oracle_tapes
    f_star = float(objective(x_star, y_star)[0])
    report = OracleReport(
        passed=True, worst_violation=0.0, worst_side=None, worst_witness=None,
        f_star=f_star,
    )
    # an infeasible candidate leaves every grid empty, which would pass
    at_star = ((inner.arrays(x_star, y_star)[:-1], spec.m1),
               (outer.arrays(x_star, np.zeros(spec.m)), spec.n1))
    if not all(_feasible(values, eq, grid.feas_tol) for values, eq in at_star):
        report.passed, report.worst_side = False, "feasibility"
        report.worst_violation = max(_violation(values, eq) for values, eq in at_star)
        report.notes.append(f"candidate infeasible: constraint violation "
                            f"{report.worst_violation:.3e} exceeds feas_tol {grid.feas_tol:g}")
        return report

    deltas = [grid.delta0 * 0.5**k for k in range(grid.levels)]
    for delta in deltas:
        eta = grid.eta(delta)
        level = {"delta": delta, "eta": eta}
        # left inequality: f(x*, y) <= f(x*, y*) over Y(x*) in the delta ball
        try:
            res = grid_local_maximize(spec, x_star, y_star, delta, npts(delta),
                                      feas_tol=grid.feas_tol)
        except EmptyFeasibleGridError:
            report.notes.append(f"delta={delta:g}: empty feasible y-grid")
            level["left_violation"] = None
        else:
            viol = res.value - f_star
            level["left_violation"] = viol
            if viol > report.worst_violation:
                report.worst_violation = viol
                report.worst_side = "left"
                report.worst_witness = res.y.tolist()

        # right inequality: f(x*, y*) <= max f(x, .) over the eta ball; with no
        # H or G rows every x point is feasible and no outer tape runs
        xs = _mesh(_axis_grid(x_star, delta, npts(delta)))
        xfeas = _feasible(outer.arrays(xs, np.zeros(spec.m)) if spec.n1 + spec.n2 else [],
                          spec.n1, grid.feas_tol)
        feasible_x = np.flatnonzero(np.broadcast_to(xfeas, xs[0].shape))
        if not feasible_x.shape[0]:
            report.notes.append(f"delta={delta:g}: empty feasible x-grid")
            level["right_violation"] = None
            report.levels.append(level)
            continue
        # one inner y-grid serves every x point
        per_axis = npts(eta)
        y_axes = _axis_grid(y_star, eta, per_axis)
        y_mesh = _mesh(y_axes)
        y_rows = [axis[None, :] for axis in y_mesh]
        if feasible_x.shape[0] * y_mesh[0].shape[0] <= CHUNK_ELEMENTS:
            values, counts = _row_maxima(spec, xs, feasible_x, y_rows, grid.feas_tol)
        else:
            # lb, a lower bound on each row's max, from a strided probe of the
            # inner grid through y*; a pruned row keeps its lb and its probe
            # count, which is > 0 since lb > -inf, and counts are read as > 0
            stride = math.isqrt(per_axis)
            probe = [axis[None, :] for axis in _mesh(
                [axis[per_axis // 2 % stride::stride] for axis in y_axes])]
            values, counts = _row_maxima(spec, xs, feasible_x, probe, grid.feas_tol)
            seed = int(np.argmin(values))
            _, v_seed, c_seed = _masked_argmax(
                spec, [axis[feasible_x[seed]] for axis in xs], y_mesh, grid.feas_tol)
            t = f_star - v_seed
            # viols is f_star - values, and lb <= V gives f_star - V <= f_star - lb:
            # a row with f_star - lb < t can neither beat the seed nor tie with it
            exact = np.ones(feasible_x.shape[0], dtype=bool)
            if c_seed > 0 and t > -np.inf:  # the seed row is kept
                exact = ~(f_star - values < t)
            exact[seed] = False
            values[seed], counts[seed] = v_seed, c_seed
            values[exact], counts[exact] = _row_maxima(spec, xs, feasible_x[exact], y_rows,
                                                       grid.feas_tol)
        # replay of a strict `viol > worst` scan in x order: the first x point
        # with the largest violation, skipping empty inner grids and NaN or -inf
        viols = f_star - values
        kept = (counts > 0) & (viols > -np.inf)
        empty_inner = int(np.count_nonzero(counts == 0))
        if empty_inner:
            report.notes.append(
                f"delta={delta:g}: {empty_inner} x-grid points had empty inner grids"
            )
        if not np.any(kept):
            level["right_violation"] = None
        else:
            i = np.flatnonzero(kept)[np.argmax(viols[kept])]
            worst_right = float(viols[i])
            level["right_violation"] = worst_right
            if worst_right > report.worst_violation:
                report.worst_violation = worst_right
                report.worst_side = "right"
                report.worst_witness = [float(axis[feasible_x[i]]) for axis in xs]
        report.levels.append(level)

    report.passed = report.worst_violation <= grid.tol
    return report
