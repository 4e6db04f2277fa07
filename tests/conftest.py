from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from minimaxcert import CheckConfig, check_jacobian_uniqueness
from minimaxcert.cones import CONE_TOL, cone_contains
from minimaxcert.expressions import Add, Const, Mul, Var, _children, _op_of
from minimaxcert.fixtures import load_fixture
from minimaxcert.linalg import nullspace_basis
from minimaxcert.problem import ProblemSpec

# property tests replay the same examples on every run and have no time limit
# (the bit-for-bit comparisons run reference code that is slow by design)
settings.register_profile("minimaxcert", deadline=None, derandomize=True)
settings.load_profile("minimaxcert")


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


def evaluate(expr, x, y, strict=True):
    """The recursive tree walk: evaluate expr at (x, y), operands left to
    right, where the entries of x and y may be scalars or broadcastable
    arrays.  It applies the package's per-operation functions node by node,
    and is the reference the compiled Tape is checked against."""
    kind = type(expr)
    if kind is Const:
        return expr.value
    if kind is Var:
        return x[expr.index] if expr.kind == "x" else y[expr.index]
    args = [evaluate(child, x, y, strict) for child in _children(expr)]
    return _op_of(expr)(expr, args[0], args[-1], strict)


def brute_force_min_quadratic_on_cone(M, E, F, tol=1e-9):
    """The exhaustive face loop: the bottom eigenpair of Z^T M Z on
    Z = ker [E; F_S] for every one of the 2^|F| subsets S of F's rows,
    smallest subsets first, keeping the least eigenvalue whose eigenvector
    (either sign) lies in the cone.  (+inf, None) on the trivial cone.  It is
    the reference the branch and bound of `min_quadratic_on_cone` is checked
    against."""
    best, witness = np.inf, None
    for size in range(F.shape[0] + 1):
        for subset in combinations(range(F.shape[0]), size):
            Z = nullspace_basis(np.vstack([E, F[list(subset)]]), CONE_TOL)
            if Z.shape[1] == 0:
                continue
            reduced = Z.T @ M @ Z
            values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
            if values[0] >= best:
                continue
            v = Z @ vectors[:, 0]
            v = v / np.linalg.norm(v)
            for d in (v, 0.0 - v):
                if cone_contains(E, F, d, tol):
                    best, witness = float(values[0]), d
                    break
    return best, witness


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
