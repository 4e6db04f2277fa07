"""Brute-force ground truth: finite differences, feasible-grid maximization,
and a direct grid test of the two-sided local minimax definition.

Grid oracles are wired for n <= 2, m <= 2 only.  The definition check builds
one inner y-grid per level and evaluates it against blocks of feasible x-grid
points in one broadcast of the spec's tapes in array mode: x axes as (rows, 1)
columns, y axes as (1, Y) rows, with rows * Y at most CHUNK_ELEMENTS (one row
when Y alone exceeds it).  Time still grows with the product of the grid sizes
(capped at MAX_LEVEL_POINTS), but the working arrays are bounded by the chunk,
and the results are bit-identical to one grid maximization per x point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemSpec


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
    return [np.linspace(c - radius, c + radius, points) for c in center]


def _mesh(axes: list[np.ndarray]) -> list[np.ndarray]:
    if len(axes) == 1:
        return [axes[0]]
    grids = np.meshgrid(*axes, indexing="ij")
    return [g.ravel() for g in grids]


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


def _masked_argmax(spec: ProblemSpec, x, ys, rows: int, feas_tol: float):
    """Row-wise argmax of f(x, .) over the feasible points of a y-grid.

    x holds scalars (rows = 1) or (rows, 1) columns and ys holds (1, Y) rows,
    so the inner tape broadcasts h, g and f to (rows, Y).  Non-finite and
    infeasible values become -inf, and np.argmax takes the first maximum.
    Returns per row the argmax k, its value and the feasible count."""
    *constraints, fvals = spec._oracle_tapes[0].arrays(x, ys)
    feas = np.broadcast_to(_feasible(constraints, spec.m1, feas_tol),
                           (rows, ys[0].shape[1]))
    fvals = np.asarray(fvals, dtype=float)
    fvals = np.where(feas & np.isfinite(fvals), fvals, -np.inf)
    k = np.argmax(fvals, axis=1)
    return k, fvals[np.arange(rows), k], np.count_nonzero(feas, axis=1)


def grid_local_maximize(
    spec: ProblemSpec,
    x,
    center,
    radius: float,
    points: int,
    feas_tol: float = GridSpec.feas_tol,
) -> GridMaxResult:
    """argmax of f(x, .) over the feasible grid points in a box around center."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if spec.m > 2:
        raise ValueError("grid oracle supports m <= 2 only")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    ys = _mesh(_axis_grid(center, radius, points))
    (k,), (value,), (feasible,) = _masked_argmax(
        spec, x, [axis[None, :] for axis in ys], 1, feas_tol)
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
    A candidate that violates h, g, H or G by more than feas_tol (NaN
    included) fails before the ladder, on side "feasibility".
    Raises GridTooLargeError, before evaluating anything, when the first
    level's x-grid times y-grid exceeds MAX_LEVEL_POINTS."""
    grid = grid or GridSpec()
    if spec.n > 2 or spec.m > 2:
        raise ValueError("definition oracle supports n <= 2 and m <= 2 only")

    def npts(radius: float) -> int:
        return 2 * max(1, int(np.ceil(radius / grid.step))) + 1

    points = npts(grid.delta0) ** spec.n * npts(grid.eta(grid.delta0)) ** spec.m
    if points > MAX_LEVEL_POINTS:
        raise GridTooLargeError(points)
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
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

        # right inequality: f(x*, y*) <= max f(x, .) over the eta ball
        xs = _mesh(_axis_grid(x_star, delta, npts(delta)))
        xfeas = np.broadcast_to(_feasible(outer.arrays(xs, np.zeros(spec.m)),
                                          spec.n1, grid.feas_tol), xs[0].shape)
        if not np.any(xfeas):
            report.notes.append(f"delta={delta:g}: empty feasible x-grid")
            level["right_violation"] = None
            report.levels.append(level)
            continue
        # one inner y-grid serves every x point; x rows go in blocks of at
        # most CHUNK_ELEMENTS x-by-y points
        inner = [axis[None, :] for axis in _mesh(_axis_grid(y_star, eta, npts(eta)))]
        feasible_x = np.flatnonzero(xfeas)
        values = np.empty(feasible_x.shape[0])
        counts = np.empty(feasible_x.shape[0], dtype=np.intp)
        block = max(1, CHUNK_ELEMENTS // inner[0].shape[1])
        for start in range(0, feasible_x.shape[0], block):
            rows = feasible_x[start:start + block]
            _, values[start:start + block], counts[start:start + block] = _masked_argmax(
                spec, [axis[rows, None] for axis in xs], inner, rows.shape[0],
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
