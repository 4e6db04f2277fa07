import importlib.util
import math
import sys
from itertools import combinations, product
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from minimaxcert import CheckConfig, check_jacobian_uniqueness
from minimaxcert.conditions import (
    ERROR,
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    ConditionCheck,
)
from minimaxcert.cones import Cone
from minimaxcert.expressions import (
    _FUNCTION_RULES,
    _KERNELS,
    _ONE,
    _ZERO,
    Add,
    Const,
    Div,
    DomainError,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _children,
    _is_const,
    _op_of,
    s_add,
    s_div,
    s_mul,
    s_neg,
    s_pow,
    s_sub,
)
from minimaxcert.fixtures import load_fixture
from minimaxcert.linalg import (
    RANK_TOL,
    LpProblem,
    nullspace_basis,
    smallest_singular_value,
    solve_lp,
)
from minimaxcert.nonsmooth import GeneralizedDerivativeSet, selector_sweep
from minimaxcert.problem import ProblemSpec
from minimaxcert.upper import upper_kkt_and_polytope

# property tests replay the same examples on every run and have no time limit
# (the bit-for-bit comparisons run reference code that is slow by design)
settings.register_profile("minimaxcert", deadline=None, derandomize=True)
settings.load_profile("minimaxcert")


WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def perfbench_workloads():
    """The benchmark's seeded problem generators (perfbench/workloads.py,
    numpy only), loaded as the module `perfbench_workloads`."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def kahan_problem_text(m: int) -> str:
    """dims 1 m: f = x1^2 + x1*y1 - sum_i 0.5*(y_i - sum_{j>i} y_j)^2, whose
    inner Hessian -T^T T (T = I minus the strict upper triangle of ones) is
    singular to tolerance at m = 20 though partial pivoting sees pivots of 1."""
    terms = " ".join(
        f"- 0.5*(y{i}" + "".join(f" - y{j}" for j in range(i + 1, m + 1)) + ")^2"
        for i in range(1, m + 1))
    return f"dims 1 {m} 0 0 0 0\nf = x1^2 + x1*y1 {terms}\n"


@pytest.fixture(scope="session")
def p1():
    return load_fixture("P1")


@pytest.fixture(scope="session")
def p2():
    return load_fixture("P2")


@pytest.fixture(scope="session")
def p3():
    return load_fixture("P3")


@pytest.fixture(scope="session")
def p4():
    return load_fixture("P4")


@pytest.fixture(scope="session")
def config():
    return CheckConfig()


def _reference_format_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    text = format(v, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _reference_write(value, out: list[str]):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_reference_format_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(str(k)))
            out.append(":")
            _reference_write(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _reference_write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def reference_dumps_canonical(doc) -> str:
    """The canonical report writer as one isinstance chain per value, one call
    per value: the reference that pins the bytes of `report.dumps_canonical`."""
    pieces: list[str] = []
    _reference_write(doc, pieces)
    return "".join(pieces)


def check_domain(expr, a, b):
    """The numpy domain tests of expr's own operation on its operand values
    (scalars or arrays; unary ops ignore b): DomainError when any entry
    leaves the domain of /, ^, log or sqrt."""
    kind = type(expr)
    if kind is Div and np.any(b == 0):
        raise DomainError("division by zero", expr)
    if kind is Pow:
        exp_arr = np.asarray(b, dtype=float)
        base_arr = np.asarray(a, dtype=float)
        if not np.all(exp_arr == np.round(exp_arr)) and np.any(base_arr < 0):
            raise DomainError("negative base with non-integer exponent", expr)
        if np.any((base_arr == 0) & (exp_arr < 0)):
            raise DomainError("zero base with negative exponent", expr)
    if kind is Func and expr.name == "log" and np.any(np.asarray(a) <= 0):
        raise DomainError("log of a non-positive value", expr)
    if kind is Func and expr.name == "sqrt" and np.any(np.asarray(a) < 0):
        raise DomainError("sqrt of a negative value", expr)


def evaluate(expr, x, y, strict=True):
    """The recursive tree walk: evaluate expr at (x, y), operands left to
    right, where the entries of x and y may be scalars or broadcastable
    arrays.  It applies the package's numpy kernels node by node, after the
    numpy domain tests when `strict`, and is the reference the compiled Tape
    is checked against: strict for its scalar mode, not for its array mode,
    which computes on numpy scalars also between constants (0/0 is NaN) and
    with numpy's warnings off."""
    kind = type(expr)
    if kind is Const:
        return expr.value if strict else np.float64(expr.value)
    if kind is Var:
        return x[expr.index] if expr.kind == "x" else y[expr.index]
    args = [evaluate(child, x, y, strict) for child in _children(expr)]
    if strict:
        check_domain(expr, args[0], args[-1])
        return _op_of(expr)(args[0], args[-1])
    with np.errstate(all="ignore"):
        return _op_of(expr)(args[0], args[-1])


def _var_bit(var):
    """The bit of a variable in a node's variable mask: x_k and y_k take bits
    2k and 2k + 1."""
    return 1 << (2 * var.index + (var.kind == "y"))


class Differentiator:
    """Partial derivatives by one variable at a time: the per-(node,
    variable) differentiator that `expressions.Gradients` replaced, kept as
    the reference its tables and tapes are checked against.

    Each (subexpression, variable) pair is differentiated at most once, and a
    subtree that does not contain the variable is not walked for it: each
    node keeps the bitmask of the variables it contains, and a node without
    the variable has the same derivative for every such variable (a zero
    constant, of the sign the rules give it: cos(x1) by y1 is -0.0), worked
    out once under bit 0.  Results are memoised by id(node); the masks hold
    every node so keyed, so the ids stay valid while the differentiator
    lives."""

    def __init__(self):
        self._masks = {}
        self._memo = {}

    def __call__(self, expr, var):
        return self._d(expr, _var_bit(var))

    def _mask(self, node):
        kind = type(node)
        if kind is Var:
            return _var_bit(node)
        if kind is Const:
            return 0
        hit = self._masks.get(id(node))
        if hit is None:
            if kind not in _KERNELS and kind is not Func:
                raise TypeError(f"unknown node {node!r}")
            mask = self._mask(node.a)  # one frame per level
            if kind is not Neg and kind is not Func:
                mask |= self._mask(node.b)
            hit = self._masks[id(node)] = (node, mask)
        return hit[1]

    def _d(self, expr, bit):
        """The derivative of expr by the variable of `bit` (0: by a variable
        expr does not contain)."""
        kind = type(expr)
        if kind is Const:
            return _ZERO
        if kind is Var:
            return _ONE if _var_bit(expr) == bit else _ZERO
        if not self._mask(expr) & bit:
            bit = 0
        key = (id(expr), bit)
        out = self._memo.get(key)
        if out is not None:
            return out
        da = self._d(expr.a, bit)
        if kind is Add:
            out = s_add(da, self._d(expr.b, bit))
        elif kind is Sub:
            out = s_sub(da, self._d(expr.b, bit))
        elif kind is Mul:
            out = s_add(s_mul(da, expr.b), s_mul(expr.a, self._d(expr.b, bit)))
        elif kind is Div:
            db = self._d(expr.b, bit)
            out = s_div(
                s_sub(s_mul(da, expr.b), s_mul(expr.a, db)),
                s_pow(expr.b, Const(2.0)),
            )
        elif kind is Pow:
            db = self._d(expr.b, bit)
            if _is_const(db, 0.0) and isinstance(expr.b, Const):
                c = expr.b.value
                out = s_mul(s_mul(Const(c), s_pow(expr.a, Const(c - 1.0))), da)
            else:  # general a^b: a^b * (db*log a + b*da/a)
                out = s_mul(
                    expr,
                    s_add(s_mul(db, Func("log", expr.a)), s_mul(expr.b, s_div(da, expr.a))),
                )
        elif kind is Neg:
            out = s_neg(da)
        elif kind is Func and expr.name in _FUNCTION_RULES:
            out = _FUNCTION_RULES[expr.name](expr, da)
        else:
            raise TypeError(f"unknown node {expr!r}")
        self._memo[key] = out
        return out


def dense_tables(spec, d=None):
    """spec's derivative tables as the per-pair reference builds them: for
    each function the gradient lists "x" (and "y") and the matrices "xx",
    "yx" and "yy" (x-only data: "x" and "xx"), entry by entry from the
    differentiator `d` (a shared `Differentiator` by default), with Hessian
    entry (i, j), i <= j, the derivative of gradient entry i by variable j
    and entry (j, i) the same Expr."""
    d = Differentiator() if d is None else d
    xs = [Var("x", i) for i in range(spec.n)]
    ys = [Var("y", i) for i in range(spec.m)]

    def hess(gr, vs):
        rows = [[None] * len(vs) for _ in vs]
        for i, gi in enumerate(gr):
            for j in range(i, len(vs)):
                rows[i][j] = rows[j][i] = d(gi, vs[j])
        return rows

    def row(e, inner=True):
        ex = [d(e, v) for v in xs]
        out = {"x": ex, "xx": hess(ex, xs)}
        if inner:
            ey = [d(e, v) for v in ys]
            out.update(y=ey, yx=[[d(gj, v) for v in xs] for gj in ey], yy=hess(ey, ys))
        return out

    return {"f": row(spec.f), "h": [row(e) for e in spec.h], "g": [row(e) for e in spec.g],
            "H": [row(e, inner=False) for e in spec.H],
            "G": [row(e, inner=False) for e in spec.G]}


def sparse_block(entries):
    """A dense table block (a list, or a list of rows) in the (fill, entries)
    form of `ProblemSpec._tables`: constant entries join the fill, where
    they sit in the tape's template either way."""
    block = np.array(entries, dtype=object)
    fill = np.array([e.value if type(e) is Const else 0.0 for e in block.flat])
    return (fill.reshape(block.shape),
            [(k, e) for k, e in enumerate(block.flat) if type(e) is not Const])


def reference_tables(spec, d=None):
    """`dense_tables(spec, d)` in the form of `ProblemSpec._tables`, ready to
    be compiled in its place."""
    return {name: [{b: sparse_block(block) for b, block in row.items()} for row in rows]
            if isinstance(rows, list) else {b: sparse_block(block) for b, block in rows.items()}
            for name, rows in dense_tables(spec, d).items()}


def dense_block(fill, entries):
    """A block of `ProblemSpec._tables` as an object array of expressions,
    the fill's entries as constants."""
    block = np.empty(fill.size, dtype=object)
    block[:] = [Const(float(v)) for v in fill.flat]
    for k, e in entries:
        block[k] = e
    return block.reshape(fill.shape)


def brute_force_min_quadratic_on_cone(M, E, F):
    """The exhaustive face loop: the bottom eigenpair of Z^T M Z on
    Z = ker [E; F_S] for every one of the 2^|F| subsets S of F's rows,
    smallest subsets first, keeping the least eigenvalue whose eigenvector
    (either sign) lies in the cone.  (+inf, None) on the trivial cone.  It is
    the reference the branch and bound of `min_quadratic_on_cone` is checked
    against."""
    best, witness, cone = np.inf, None, Cone(E, F)
    for size in range(F.shape[0] + 1):
        for subset in combinations(range(F.shape[0]), size):
            Z = nullspace_basis(np.vstack([E, F[list(subset)]]))
            if Z.shape[1] == 0:
                continue
            reduced = Z.T @ M @ Z
            values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
            if values[0] >= best:
                continue
            v = Z @ vectors[:, 0]
            v = v / np.linalg.norm(v)
            for d in (v, 0.0 - v):
                if cone.contains(d):
                    best, witness = float(values[0]), d
                    break
    return best, witness


def cone_is_trivial(E, F, dim, tol=1e-9):
    """True when the cone {E d = 0, F d <= 0} is {0}: every coordinate's
    extremes over the cone within the unit box are 0.  It is the LP
    reference for a trivial cone."""
    for j in range(dim):
        for sgn in (1.0, -1.0):
            sol = solve_lp(LpProblem(
                np.where(np.arange(dim) == j, sgn, 0.0),
                E if E.shape[0] else None, np.zeros(E.shape[0]) if E.shape[0] else None,
                F if F.shape[0] else None, np.zeros(F.shape[0]) if F.shape[0] else None,
                -np.ones(dim), np.ones(dim)), 1e-9)
            if sol.status != "optimal" or sol.value > tol:
                return False
    return True


def _reference_base(partition):
    """A selector's fixed entries: 0 on alpha (and on beta), 1 on gamma."""
    base = [0.0] * partition.size
    for i in partition.gamma:
        base[i] = 1.0
    return base


def reference_b_selectors(partition):
    """The 2^|beta| B-selectors as tuples, built by the bitmask loop: 0 on
    alpha, 1 on gamma, and on beta the bits of the mask, beta's first index
    the lowest bit, masks ascending.  It is the reference the array form of
    `nonsmooth.enumerate_b_selectors` is checked against."""
    base = _reference_base(partition)
    out = []
    for mask in range(1 << len(partition.beta)):
        vals = list(base)
        for bit, idx in enumerate(partition.beta):
            vals[idx] = 1.0 if (mask >> bit) & 1 else 0.0
        out.append(tuple(vals))
    return out


def reference_clarke_grid(partition, resolution):
    """The Clarke grid as tuples, one per `itertools.product` combination of
    `resolution` levels in [0, 1] on beta."""
    base = _reference_base(partition)
    out = []
    for combo in product(np.linspace(0.0, 1.0, resolution), repeat=len(partition.beta)):
        vals = list(base)
        for idx, v in zip(partition.beta, combo):
            vals[idx] = float(v)
        out.append(tuple(vals))
    return out


def reference_sweep_selectors(partition, resolution):
    """The selectors of a sweep with the Clarke grid: the B-selectors, then
    the grid points not among them (a tuple-set dedup)."""
    selectors = reference_b_selectors(partition)
    seen = set(selectors)
    return selectors + [w for w in reference_clarke_grid(partition, resolution)
                        if w not in seen]


def reference_first_order_nonsmooth(spec, x, sol, config, sweep=None):
    """The selector search: one outer-multiplier question per B-selector's
    candidate gradient grad_x L - H(x, W)^T (grad_y L; h; -g), stopping at
    the first selector that admits one (its witness names W).  A failed
    search is a disproof only when the family is exact (beta empty).  It is
    the reference `upper.first_order_nonsmooth_necessary`, which asks the
    question once of grad_x L, is checked against; returns (check, gset)
    with the candidates tried."""
    sweep = sweep or selector_sweep(spec, sol, config)
    gset = GeneralizedDerivativeSet(kind="b_subdifferential")
    gradients = sweep.phi_gradients()
    for s, W in enumerate(sweep.selectors):
        if sweep.solved.singular[s]:
            gset.errors.append((W, str(sweep.solved.error(s))))
            continue
        r = gradients[s]
        gset.items.append((W, r))
        poly = upper_kkt_and_polytope(spec, x, r, config)
        if poly.nonempty:
            u, v = poly.point
            witness = {"W": W.tolist(), "u": u.tolist(), "v": v.tolist()}
            return ConditionCheck("first_order_nonsmooth", SATISFIED, poly.residual(u, v),
                                  config.tol_kkt, witness), gset
    if sweep.solved.singular.all():
        status, margin = ERROR, None
    elif sweep.exact:
        status = VIOLATED
        margin = min(float(np.max(np.abs(r))) for _, r in gset.items)
    else:
        status, margin = INCONCLUSIVE, None
    return ConditionCheck("first_order_nonsmooth", status, margin, config.tol_kkt), gset


def closest_to(gset, target):
    """(max-norm distance, vector) of the candidate in a
    `GeneralizedDerivativeSet` nearest to target; (inf, None) when it has no
    candidates."""
    return min(((float(np.max(np.abs(v - target))), v) for v in gset.vectors),
               key=lambda item: item[0], default=(np.inf, None))


def coordinate_lp_bounded(poly):
    """Boundedness of a nonempty multiplier polytope by its 2 (n1 + |I|)
    coordinate LPs: every min and max of one coordinate of (u, v_I) over
    {JH^T u + JG_I^T v = -r0, v >= 0} is a bounded LP.  It is the reference
    `check_mfcq` is checked against, by Gauvin (1977)."""
    JH, JG = poly.data.JH, poly.data.JG
    A_eq = np.hstack([JH.T, JG[list(poly.active)].T])
    n1, nvar = JH.shape[0], A_eq.shape[1]
    lower = np.concatenate([np.full(n1, -np.inf), np.zeros(nvar - n1)])
    return all(
        solve_lp(LpProblem(np.where(np.arange(nvar) == j, sgn, 0.0), A_eq, -poly.r0,
                           None, None, lower, None), 1e-9).status != "unbounded"
        for j in range(nvar) for sgn in (1.0, -1.0)
    )


def basic_multipliers(poly, config):
    """The vertices of a multiplier polytope by basis enumeration: the basic
    solutions over the JH^T columns plus each subset of the active JG^T
    columns, kept when v >= -tol_act and, with v clipped at 0, the
    stationarity residual is at most tol_kkt.  One lstsq and one SVD per
    subset, so small systems only; it is the reference the cutting-plane
    bound of `upper._cone_curvature` is checked against."""
    JH, JG = poly.data.JH, poly.data.JG
    n1 = JH.shape[0]
    A_eq = np.hstack([JH.T, JG[list(poly.active)].T])
    vertices, seen = [], set()
    for size in range(len(poly.active) + 1):
        for subset in combinations(range(n1, A_eq.shape[1]), size):
            cols = [*range(n1), *subset]
            if smallest_singular_value(A_eq[:, cols].T) <= RANK_TOL:
                continue  # columns dependent: not a basic solution
            z = np.zeros(A_eq.shape[1])
            if cols:
                z[cols], *_ = np.linalg.lstsq(A_eq[:, cols], -poly.r0, rcond=None)
            if np.any(z[n1:] < -config.tol_act):
                continue
            u, v = z[:n1], np.zeros(JG.shape[0])
            v[list(poly.active)] = np.maximum(z[n1:], 0.0)
            key = tuple(np.round(np.concatenate([u, v]), 9))
            if poly.residual(u, v) <= config.tol_kkt and key not in seen:
                seen.add(key)
                vertices.append((u, v))
    return vertices


def xvar(i):
    return Var("x", i)


def yvar(i):
    return Var("y", i)


def add_all(terms):
    if not terms:
        return Const(0.0)
    node = terms[0]
    for t in terms[1:]:
        node = Add(node, t)
    return node


def affine_expr(ay, bx, c):
    """a^T y + b^T x + c as an expression tree."""
    terms = []
    for i, a in enumerate(ay):
        if a != 0.0:
            terms.append(Mul(Const(float(a)), yvar(i)))
    for i, b in enumerate(bx):
        if b != 0.0:
            terms.append(Mul(Const(float(b)), xvar(i)))
    if c != 0.0 or not terms:
        terms.append(Const(float(c)))
    return add_all(terms)


def quadratic_objective(Q, R, P, q, p):
    """0.5 y^T Q y + y^T R x + 0.5 x^T P x + q^T y + p^T x."""
    m, n = R.shape
    terms = []
    for i in range(m):
        for j in range(m):
            if Q[i, j] != 0.0:
                terms.append(Mul(Const(0.5 * float(Q[i, j])), Mul(yvar(i), yvar(j))))
    for i in range(m):
        for j in range(n):
            if R[i, j] != 0.0:
                terms.append(Mul(Const(float(R[i, j])), Mul(yvar(i), xvar(j))))
    for i in range(n):
        for j in range(n):
            if P[i, j] != 0.0:
                terms.append(Mul(Const(0.5 * float(P[i, j])), Mul(xvar(i), xvar(j))))
    for i in range(m):
        if q[i] != 0.0:
            terms.append(Mul(Const(float(q[i])), yvar(i)))
    for i in range(n):
        if p[i] != 0.0:
            terms.append(Mul(Const(float(p[i])), xvar(i)))
    return add_all(terms)


def random_smooth_instance(rng, max_dim=3, max_m2=2):
    """A quadratic instance with a known interiorly-regular inner solution:
    strict complementarity, LICQ and a negative-definite Lagrangian Hessian
    hold at (x*, y*) by construction.  Returns (spec, x*, y*, mu*, lam*)."""
    for _ in range(200):
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        m1 = int(rng.integers(0, 2)) if m >= 2 else 0
        m2 = int(rng.integers(0, max_m2 + 1))
        n_active = int(rng.integers(0, min(m2, m - m1) + 1)) if m2 else 0
        x_star = rng.uniform(-0.5, 0.5, n)
        y_star = rng.uniform(-0.5, 0.5, m)
        L = rng.standard_normal((m, m))
        Q = -(L @ L.T + 0.3 * np.eye(m))
        R = rng.standard_normal((m, n))
        B = rng.standard_normal((n, n))
        P = 0.5 * (B + B.T)
        h_rows = []
        mu_star = rng.uniform(-1.0, 1.0, m1)
        for _j in range(m1):
            a = rng.standard_normal(m)
            b = rng.standard_normal(n)
            c = -float(a @ y_star + b @ x_star)
            h_rows.append((a, b, c))
        g_rows = []
        lam_star = np.zeros(m2)
        for i in range(m2):
            a = rng.standard_normal(m)
            b = rng.standard_normal(n)
            if i < n_active:
                c = -float(a @ y_star + b @ x_star)
                lam_star[i] = rng.uniform(0.5, 1.5)
            else:
                c = -float(a @ y_star + b @ x_star) - rng.uniform(0.5, 1.5)
            g_rows.append((a, b, c))
        grads = [a for a, _, _ in h_rows] + [g_rows[i][0] for i in range(n_active)]
        if grads:
            stack = np.vstack(grads)
            if stack.shape[0] > m:
                continue
            if np.linalg.svd(stack, compute_uv=False)[-1] < 0.3:
                continue
        q = -(Q @ y_star + R @ x_star)
        for j in range(m1):
            q -= mu_star[j] * h_rows[j][0]
        for i in range(m2):
            q += lam_star[i] * g_rows[i][0]
        p = rng.standard_normal(n)
        spec = ProblemSpec(
            n=n, m=m, m1=m1, m2=m2, n1=0, n2=0,
            f=quadratic_objective(Q, R, P, q, p),
            h=[affine_expr(a, b, c) for a, b, c in h_rows],
            g=[affine_expr(a, b, c) for a, b, c in g_rows],
        )
        report = check_jacobian_uniqueness(spec, x_star, y_star, mu_star, lam_star)
        if report.jacobian_uniqueness:
            return spec, x_star, y_star, mu_star, lam_star
    raise RuntimeError("failed to draw a regular instance")


def random_certifiable_instance(rng):
    """Quadratic instance built to be outer-stationary with strongly convex
    value function and an interior inner maximizer (n = 1, m <= 2, m2
    inactive), so certification should succeed and the grid oracle agree."""
    for _ in range(100):
        n = 1
        m = int(rng.integers(1, 3))
        m2 = int(rng.integers(0, 2))
        x_star = rng.uniform(-0.3, 0.3, n)
        y_star = rng.uniform(-0.3, 0.3, m)
        L = rng.standard_normal((m, m))
        Q = -(L @ L.T + 0.5 * np.eye(m))
        R = 0.5 * rng.standard_normal((m, n))
        P = (2.0 + rng.uniform(0.0, 2.0)) * np.eye(n)
        g_rows = []
        for _i in range(m2):
            a = rng.standard_normal(m)
            b = rng.standard_normal(n)
            c = -float(a @ y_star + b @ x_star) - rng.uniform(0.5, 1.5)
            g_rows.append((a, b, c))
        q = -(Q @ y_star + R @ x_star)
        p = -(P @ x_star + R.T @ y_star)
        spec = ProblemSpec(
            n=n, m=m, m1=0, m2=m2, n1=0, n2=0,
            f=quadratic_objective(Q, R, P, q, p),
            g=[affine_expr(a, b, c) for a, b, c in g_rows],
        )
        report = check_jacobian_uniqueness(
            spec, x_star, y_star, np.zeros(0), np.zeros(m2)
        )
        if report.jacobian_uniqueness:
            return spec, x_star, y_star
    raise RuntimeError("failed to draw a certifiable instance")


def corner_instance():
    """2-D inner problem with a degenerate active constraint at the reference
    point: beta = {1} at x* = (0, 0.3)."""
    spec = ProblemSpec(
        n=2, m=2, m1=0, m2=1, n1=0, n2=0,
        f=quadratic_objective(
            -2.0 * np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)),
            np.zeros(2), np.zeros(2),
        ),
        g=[affine_expr([1.0, 0.0], [0.0, 0.0], 0.0)],
    )
    x_star = np.array([0.0, 0.3])
    y_star = np.array([0.0, 0.3])
    return spec, x_star, y_star


def degenerate_text(k):
    """Problem file with g_i = y_i - x_i, i = 1..k: at the origin every inner
    constraint is active with zero multiplier, so |beta| = k."""
    f = " + ".join(f"-(y{i}-x{i})^2" for i in range(1, k + 1))
    g = "".join(f"g{i} = y{i} - x{i}\n" for i in range(1, k + 1))
    return f"dims {k} {k} 0 {k} 0 0\nf = {f}\n{g}"


# At 1e3 times f, the two rounding routes of f's cross derivative at
# (2.213, 0.738) differ by more than 1e-12; without the scale the point is
# certified.  `scale` is "" or a factor such as "1e3*".
CROSS_TEXT = ("dims 1 1 0 1 0 1\nf = {scale}(exp(x1*y1) - y1^2)\n"
              "g1 = y1 - 0.738\nG1 = 2.213 - x1\n")

# At x = (1.013, 0.987166831194472), y = 0.764 the value-function Hessian
# assembled from the sensitivity system is asymmetric by 1.211e-08, rounding
# on entries of about 6.9e6.
VALUE_ASYMMETRY_TEXT = ("dims 2 1 0 1 0 0\nf = 1e6*(exp(x1*x2*y1) - y1^2 + x1^2*x2^2)\n"
                        "g1 = y1 - 0.764\n")
