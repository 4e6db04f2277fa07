import numpy as np
import pytest

from minimaxcert.expressions import (
    Const,
    DomainError,
    ExpressionError,
    Gradients,
    Neg,
    Pow,
    Var,
    differentiate,
    parse_expression,
    to_string,
)

from conftest import Differentiator, evaluate, reference_tables


def central_fd(expr, x, y, var, step=1e-6):
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    xp, xm = x.copy(), x.copy()
    yp, ym = y.copy(), y.copy()
    if var.kind == "x":
        xp[var.index] += step
        xm[var.index] -= step
    else:
        yp[var.index] += step
        ym[var.index] -= step
    return (evaluate(expr, xp, yp) - evaluate(expr, xm, ym)) / (2 * step)


def test_polynomial_rule():
    expr = parse_expression("x1*y1 - 0.5*y1^2")
    d = differentiate(expr, Var("y", 0))
    # d/dy1 = x1 - y1
    for x, y in [(0.3, 0.7), (1.0, 1.0), (-2.0, 0.5)]:
        assert evaluate(d, [x], [y]) == pytest.approx(x - y, abs=1e-14)


def test_constant_rule():
    d = differentiate(Const(3.0), Var("x", 0))
    assert evaluate(d, [1.0], [1.0]) == 0.0


def test_exp_derivative_matches_fd():
    expr = parse_expression("exp(x1*y1)")
    d = differentiate(expr, Var("x", 0))
    val = evaluate(d, [1.0], [2.0])
    # frozen via the FD oracle: y1 * e^2 at (1, 2)
    assert val == pytest.approx(14.7781121978613, abs=1e-10)
    assert val == pytest.approx(central_fd(expr, [1.0], [2.0], Var("x", 0)), rel=1e-6)


def test_division_and_chain_rules_against_fd():
    rng = np.random.default_rng(7)
    exprs = [
        "sin(x1)*cos(y1) + x1/(y1 + 2)",
        "sqrt(x1 + 3)*exp(y1/4)",
        "log(x1 + 2.5) - y1^3/(x1 + 4)",
    ]
    for text in exprs:
        expr = parse_expression(text)
        for var in (Var("x", 0), Var("y", 0)):
            d = differentiate(expr, var)
            for _ in range(5):
                x = [float(rng.uniform(-1, 1))]
                y = [float(rng.uniform(-1, 1))]
                got = evaluate(d, x, y)
                want = central_fd(expr, x, y, var)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def random_polynomial(rng, nvars=3, degree=4):
    """Random polynomial text in up to three variables (x1, y1, y2)."""
    vars_ = ["x1", "y1", "y2"][:nvars]
    terms = []
    for _ in range(int(rng.integers(1, 6))):
        coef = rng.uniform(-2, 2)
        powers = rng.integers(0, degree + 1, size=len(vars_))
        while powers.sum() > degree:
            powers[rng.integers(0, len(vars_))] = 0
        factors = [f"{coef:.6f}"]
        for v, k in zip(vars_, powers):
            for _ in range(int(k)):
                factors.append(v)
        terms.append("*".join(factors))
    return " + ".join(terms)


def test_random_polynomials_match_fd():
    rng = np.random.default_rng(0)
    for _ in range(60):
        text = random_polynomial(rng)
        expr = parse_expression(text)
        var = (Var("x", 0), Var("y", 0), Var("y", 1))[int(rng.integers(0, 3))]
        d = differentiate(expr, var)
        x = [float(rng.uniform(-1, 1))]
        y = [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
        got = evaluate(d, x, y)
        want = central_fd(expr, x, y, var)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(got))


def test_derivative_is_closed_under_differentiation():
    expr = parse_expression("exp(x1*y1) + sin(y1)^2")
    d1 = differentiate(expr, Var("y", 0))
    d2 = differentiate(d1, Var("y", 0))
    val = evaluate(d2, [0.5], [0.25])
    xp = central_fd(d1, [0.5], [0.25], Var("y", 0))
    assert val == pytest.approx(xp, rel=1e-6, abs=1e-8)


def test_print_parse_round_trip():
    texts = [
        "x1*y1 - 0.5*y1^2",
        "-(y1-x1)^2",
        "sin(x1) + cos(y1)*exp(x1/2) - sqrt(y1 + 3)",
        "x1^2^3 - (x1 + y1)*(x1 - y1)",
        "1 - x1",
    ]
    for text in texts:
        tree = parse_expression(text)
        printed = to_string(tree)
        assert parse_expression(printed) == tree


def test_unary_minus_precedence():
    # -x^2 must parse as -(x^2)
    expr = parse_expression("-x1^2")
    assert evaluate(expr, [3.0], [0.0]) == -9.0


def test_power_right_associative():
    expr = parse_expression("x1^2^3")
    assert evaluate(expr, [2.0], [0.0]) == 2.0**8


def test_exponent_takes_a_unary_minus():
    # the exponent of ^ is a unary expression: 2^-x1^2 is 2^(-(x1^2)), and
    # any number of minus signs may lead it
    x1, x2 = Var("x", 0), Var("x", 1)
    assert parse_expression("2^-x1^2") == Pow(Const(2.0), Neg(Pow(x1, Const(2.0))))
    assert parse_expression("x1^--x2") == Pow(x1, Neg(Neg(x2)))
    assert evaluate(parse_expression("2^-x1^2"), [1.0], [0.0]) == 0.5
    for text in ("2^-x1^2", "x1^--x2"):
        tree = parse_expression(text)
        assert parse_expression(to_string(tree)) == tree


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse_expression("log(x1)"), [-1.0], [0.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("sqrt(x1)"), [-1.0], [0.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("1/x1"), [0.0], [0.0])
    # permissive mode lets the grid oracle mask the result instead
    v = evaluate(parse_expression("log(x1)"), np.array([-1.0]), [0.0], strict=False)
    assert np.isnan(v)


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionError):
        parse_expression("x1 + + * y1")
    with pytest.raises(ExpressionError):
        parse_expression("frob(x1)")
    with pytest.raises(ExpressionError):
        parse_expression("(x1 + y1")


def test_array_evaluation_broadcasts():
    from minimaxcert.expressions import Tape

    expr = parse_expression("x1*y1 - 0.5*y1^2")
    ys = np.linspace(-1, 1, 11)
    (vals,) = Tape([expr]).arrays([0.3], [ys])
    assert vals.shape == (11,)
    assert vals[5] == pytest.approx(0.0)  # y = 0


def test_array_mode_divides_constants_as_numpy_does():
    """Between two constants the array mode computes on numpy scalars, so
    1/0 is inf and 0/0 NaN without a warning, where the scalar mode raises
    DomainError."""
    import warnings

    from minimaxcert.expressions import Add, Div, Mul, Tape

    zero, one, x1 = Const(0.0), Const(1.0), Var("x", 0)
    tape = Tape([Div(zero, zero), Div(one, zero), Add(x1, Div(Const(-1.0), zero)),
                 Mul(Const(1e308), Const(1e308))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nan, inf, col, big = tape.arrays([np.array([[1.0], [2.0]])], [])
    assert np.isnan(nan) and inf == np.inf and big == np.inf
    assert col.shape == (2, 1) and np.all(col == -np.inf)
    with pytest.raises(DomainError, match="division by zero"):
        tape([1.0], [])


# --- the compiled tape agrees with the tree walk ------------------------------

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from minimaxcert.expressions import (  # noqa: E402
    FUNCTION_NAMES,
    Add,
    Div,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Tape,
)

_LEAVES = st.sampled_from(
    [Var("x", i) for i in range(3)] + [Var("y", i) for i in range(2)]
    + [Const(v) for v in (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5)]
)
_BINARY = [Add, Sub, Mul, Div, Pow]
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(_BINARY), kids, kids),
        st.builds(Neg, kids),
        st.builds(Func, st.sampled_from(FUNCTION_NAMES), kids),
    ),
    max_leaves=10,
)
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 1e-3, 4.0])


def _flip_zero_signs(e):
    """A tree equal to e under ==, with every zero constant's sign flipped."""
    if isinstance(e, Const):
        return Const(-e.value) if e.value == 0 else e
    if isinstance(e, Var):
        return e
    if isinstance(e, Func):
        return Func(e.name, _flip_zero_signs(e.a))
    if isinstance(e, Neg):
        return Neg(_flip_zero_signs(e.a))
    return type(e)(_flip_zero_signs(e.a), _flip_zero_signs(e.b))


@st.composite
def _entries(draw):
    """Expressions sharing subtrees, as derivative tables do: later entries
    combine earlier ones, one is a derivative of another, and one equals
    another except for the signs of its zero constants."""
    pool = draw(st.lists(_TREES, min_size=1, max_size=4))
    entries = list(pool)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(_BINARY))
        node = op(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        pool.append(node)
        entries.append(node)
    entries.append(differentiate(entries[0], draw(st.sampled_from(
        [Var("x", 0), Var("y", 1)]))))
    entries.insert(draw(st.integers(0, len(entries))),
                   _flip_zero_signs(draw(st.sampled_from(entries))))
    return entries


def _outcome(run):
    try:
        return "value", run()
    except Exception as exc:  # the comparison is over which exception
        return type(exc), str(exc)


@st.composite
def _grids(draw):
    """Broadcast inputs as the grid oracle passes them: x entries as (r, 1)
    columns and y entries as (1, c) rows."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x = [np.array(draw(st.lists(_COORDS, min_size=r, max_size=r)))[:, None]
         for _ in range(3)]
    y = [np.array(draw(st.lists(_COORDS, min_size=c, max_size=c)))[None, :]
         for _ in range(2)]
    return x, y


def _array_bits(value):
    """Shape, dtype and bytes, with every NaN written as the one NaN: IEEE 754
    leaves the sign and payload of a NaN made from two NaN operands
    unspecified, and CPython's specialised float operations and numpy's loops
    each may return either operand's NaN."""
    arr = np.asarray(value)
    if arr.dtype.kind == "f":
        arr = np.where(np.isnan(arr), np.nan, arr)
    return arr.shape, arr.dtype.str, arr.tobytes()


def _nan_bits(v):
    return "nan" if np.isnan(v) else np.float64(v).tobytes()


@settings(max_examples=300)
@given(_entries(), st.lists(_COORDS, min_size=3, max_size=3),
       st.lists(_COORDS, min_size=2, max_size=2), _grids())
def test_tape_matches_tree_walk_bit_for_bit(entries, x, y, grids):
    """Bit for bit, with any NaN compared as NaN (see `_array_bits`): the
    scalar mode against the strict walk, the array mode against the
    permissive one."""
    x, y = np.array(x), np.array(y)
    xs, ys = grids
    tape = Tape(entries)

    def walk():
        return [_nan_bits(evaluate(e, x, y, True)) for e in entries]

    def scalar():
        return [_nan_bits(v) for v in tape(x, y)]

    def walk_arrays():
        return [_array_bits(evaluate(e, xs, ys, False)) for e in entries]

    def arrays():
        return [_array_bits(v) for v in tape.arrays(xs, ys)]

    with np.errstate(all="ignore"):
        assert _outcome(scalar) == _outcome(walk)
        assert _outcome(arrays) == _outcome(walk_arrays)
        # a second run of the same tape sees none of the first run's slots
        assert _outcome(scalar) == _outcome(walk)


# --- the strict scalar mode at edge values -----------------------------------

_EDGES = [np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, -0.0]
_EDGE_COORDS = st.sampled_from(_EDGES + [0.0, 1.0, -1.0, 0.5, -2.5])
_EXPONENTS = st.sampled_from([0.5, -1.5, np.inf, -np.inf, np.nan, 2.0, -3.0, 1e308, 5e-324])


@st.composite
def _edge_entries(draw):
    """`_entries` with some constants redrawn from the edge values, plus each
    domain-tested operation applied to one of them, with non-integer,
    infinite and NaN exponents among the constant and variable ones."""
    consts = st.sampled_from(_EDGES + [2.0, -2.5])

    def redraw(e):
        if isinstance(e, Const):
            return Const(draw(consts)) if draw(st.booleans()) else e
        if isinstance(e, Var):
            return e
        if isinstance(e, Func):
            return Func(e.name, redraw(e.a))
        if isinstance(e, Neg):
            return Neg(redraw(e.a))
        return type(e)(redraw(e.a), redraw(e.b))

    entries = [redraw(e) for e in draw(_entries())]
    base = draw(st.sampled_from([*entries, Var("x", 0), Const(-2.5)]))
    entries += [Pow(base, Const(draw(_EXPONENTS))), Pow(base, Var("y", 0)),
                Pow(Const(-2.5), Var("y", 1)), Func("log", base), Func("sqrt", base),
                Div(draw(st.sampled_from(entries)), base)]
    return entries


_X_NAN = [np.nan, 1.0, 1.0]
_Y_INF = [2.0, np.inf]


@settings(max_examples=300)
@given(_edge_entries(), st.lists(_EDGE_COORDS, min_size=3, max_size=3),
       st.lists(_EDGE_COORDS, min_size=2, max_size=2))
# log(nan) passes the domain test; (-2.5)^inf passes it too (numpy counts inf
# as an integer)
@example([Func("log", Var("x", 0))], _X_NAN, _Y_INF)
@example([Pow(Const(-2.5), Var("y", 1))], _X_NAN, _Y_INF)
def test_strict_scalar_mode_matches_tree_walk_at_edge_values(entries, x, y):
    """The strict scalar mode runs on Python floats; at infinities, NaN, the
    extreme and subnormal magnitudes and -0.0 it gives the bits of the numpy
    tree walk, and raises where it raises, with the same message.  Each entry
    is checked on its own too, so one that raises hides no other.

    A NaN is compared as NaN: when two NaN operands meet, IEEE 754 leaves
    the sign and payload of the result unspecified, and CPython's own float
    addition returns the other operand's NaN once the interpreter has
    specialised the instruction."""
    x, y = np.array(x), np.array(y)

    def bits(v):
        return "nan" if np.isnan(v) else np.float64(v).tobytes()

    def walk(exprs):
        return lambda: [bits(evaluate(e, x, y, True)) for e in exprs]

    def scalar(exprs):
        return lambda: [bits(v) for v in Tape(exprs)(x, y)]

    with np.errstate(all="ignore"):
        assert _outcome(scalar(entries)) == _outcome(walk(entries))
        for e in entries:
            assert _outcome(scalar([e])) == _outcome(walk([e]))


# --- mixed partials agree in both orders ------------------------------------

@st.composite
def _tree_and_pair(draw):
    """Two distinct variables u and v, and a tree over both: each joins a
    random tree by a random binary operation, the halves are joined by a
    third, and a function may be applied to the whole."""
    u, v = draw(st.permutations([Var("x", i) for i in range(3)]
                                + [Var("y", i) for i in range(2)]))[:2]
    op = st.sampled_from(_BINARY)
    tree = draw(op)(draw(op)(draw(_TREES), u), draw(op)(v, draw(_TREES)))
    name = draw(st.sampled_from([None, *FUNCTION_NAMES]))
    return (tree if name is None else Func(name, tree)), u, v


@settings(max_examples=300)
@given(_tree_and_pair(), st.lists(_COORDS, min_size=3, max_size=3),
       st.lists(_COORDS, min_size=2, max_size=2))
def test_mixed_partials_agree_in_both_orders(tree_and_pair, x, y):
    """Schwarz's theorem for the differentiation rules: d/dv d/du e and
    d/du d/dv e agree wherever both are finite.  The derivative tables rest on
    it when they differentiate each Hessian pair once and mirror it."""
    tree, u, v = tree_and_pair
    x, y = np.array(x), np.array(y)

    def walk(p, q):
        try:
            with np.errstate(all="ignore"):
                return evaluate(differentiate(differentiate(tree, p), q), x, y, strict=False)
        except ArithmeticError:  # float arithmetic between two constants
            return np.nan

    a, b = walk(u, v), walk(v, u)
    if np.isfinite(a) and np.isfinite(b):
        assert abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))


# --- one shared differentiator gives what one-shot differentiation gives ----

_VARS = [Var("x", i) for i in range(3)] + [Var("y", i) for i in range(2)]


def _partial(grads, expr, var):
    partials, zero = grads(expr)
    return partials.get(2 * var.index + (var.kind == "y"), zero)


@settings(max_examples=150)
@given(_entries(), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]))
def test_shared_differentiator_matches_one_shot_differentiate(entries, c):
    """One Gradients shared by a whole table, first and second derivatives
    by every variable as ProblemSpec._tables uses it, gives each entry what
    entry-by-entry `differentiate` gives, and what the per-pair reference
    differentiator gives; to_string prints the sign of zero, which ==
    ignores.  The entries include subtrees free of a variable."""
    x1, x2 = Var("x", 0), Var("x", 1)
    entries = [*entries, Func("cos", x1), Neg(x2), Mul(Const(c), x1)]
    grads, ref = Gradients(), Differentiator()
    for e in entries:
        for u in _VARS:
            shared, plain = _partial(grads, e, u), differentiate(e, u)
            assert to_string(shared) == to_string(plain) == to_string(ref(e, u))
            for v in _VARS:
                want = to_string(differentiate(plain, v))
                assert to_string(_partial(grads, shared, v)) == want
                assert to_string(ref(ref(e, u), v)) == want


@pytest.mark.parametrize("text, want", [
    ("cos(x1)", "-0.0"), ("-x2", "-0.0"), ("-2.5*x1", "0.0"), ("-3", "-0.0"),
    ("cos(x1) + -x2", "-0.0"), ("-(cos(x1) + -x2)", "0.0"), ("sin(x2) - cos(x1)", "0.0"),
])
def test_derivative_by_an_absent_variable_keeps_its_sign_of_zero(text, want):
    """A subtree without the variable has one zero derivative, shared by every
    absent variable, with the sign the differentiation rules give it (the
    tape keeps 0.0 and -0.0 apart)."""
    expr = parse_expression(text)
    partials, zero = Gradients()(expr)
    assert to_string(zero) == want
    for var in (Var("y", 0), Var("y", 1), Var("x", 2)):
        assert 2 * var.index + (var.kind == "y") not in partials
        assert to_string(Differentiator()(expr, var)) == want
        assert to_string(differentiate(expr, var)) == want


# --- the sparse tables compile to the per-pair reference's tapes ------------

def _x_only(e):
    """e with every y_k replaced by x_k: data for H and G."""
    if isinstance(e, Var):
        return Var("x", e.index)
    if isinstance(e, Const):
        return e
    if isinstance(e, (Neg, Func)):
        return type(e)(e.name, _x_only(e.a)) if isinstance(e, Func) else Neg(_x_only(e.a))
    return type(e)(_x_only(e.a), _x_only(e.b))


_X1, _Y1 = Var("x", 0), Var("y", 0)
# signed zeros (cos(x1) by y1 is -0.0, and Add folds -(x1*0)'s -0.0 by x1
# into 0.0), folding between constants, ^ with a constant exponent, and a
# "zero" made from inf that is not a constant
_SPECIAL = [Func("cos", _X1), Neg(Func("cos", Var("x", 1))), Add(Const(2.0), Const(-0.0)),
            Sub(Const(-0.0), Const(0.0)), Mul(Const(-0.0), _Y1), Pow(_X1, Const(3.0)),
            Pow(Add(_X1, _Y1), Const(-0.5)), Pow(Const(2.0), Const(0.5)),
            Add(Pow(_Y1, Const(2.0)), Mul(Const(-2.5), Var("x", 2))),
            Add(Neg(Mul(_X1, Const(0.0))), _Y1), Pow(_X1, Mul(_Y1, Const(np.inf)))]


def tape_code(tape):
    """Everything a compiled tape holds, comparable with ==: a float kernel
    that tests a domain is a partial with its node bound."""
    return (tape._array_code,
            [(getattr(op, "func", op), getattr(op, "args", ()), s, a, b)
             for op, s, a, b in tape._float_code],
            tape._out_pos.tolist(), tape._out_slot, tape.template.tobytes(),
            [repr(v) for v in tape._init], tape._loads)


@settings(max_examples=200)
@given(_entries(), st.lists(st.sampled_from(_SPECIAL), max_size=4), st.integers(0, 2))
def test_sparse_tables_compile_to_the_per_pair_reference_tape(entries, special, split):
    """ProblemSpec's tables, all partial derivatives of a node at once, and
    the per-pair reference's dense tables compile to equal bundle and upper
    tapes: instructions, template bits (-0.0 included), positions, slots and
    loads, hence also the same DomainError first."""
    from minimaxcert.problem import ProblemSpec

    exprs = [*special, *entries]
    f, rest = exprs[0], exprs[1:]
    h, g = rest[:split], rest[split:]
    outer = [_x_only(e) for e in exprs[-2:]]

    def spec():
        return ProblemSpec(3, 2, len(h), len(g), 1, len(outer) - 1, f, h, g,
                           outer[:1], outer[1:])

    new, ref = spec(), spec()
    ref.__dict__["_tables"] = reference_tables(ref)
    for program in ("_bundle_program", "_upper_program"):
        got, want = getattr(new, program), getattr(ref, program)
        assert tape_code(got.tape) == tape_code(want.tape)
        assert got.layout == want.layout
        assert got.owners == want.owners
