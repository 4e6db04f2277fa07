"""Scalar expression trees with exact symbolic differentiation.

Expressions are immutable trees over the variables x1..xn, y1..ym with the
arithmetic ops +, -, *, /, ^ and the functions sin, cos, exp, log, sqrt, abs
(plus an internal sign node produced by differentiating abs).  Evaluation
accepts floats or numpy arrays per variable; differentiation is closed (the
derivative of an expression is an expression).  `Gradients` differentiates
in sparse forward mode: one pass per node gives all of its partial
derivatives at once, for the variables it contains, and one signed zero for
every other, so a derivative table costs in proportion to its nonzero
entries.

Inside a `shared_nodes` block (a problem's parse and derivative-table
build) there is one object per structure: the parser, the s_* constructors
with their constant folding, and the differentiation rules return the node
made earlier in the block wherever it equals the one asked for, so equal
subtrees are one DAG node, and every walk that memoises by node id
(`Gradients`, `Tape`'s compile, `variables_of`, `uses_abs`, `to_string`)
visits each structure once.  Nodes hold no reference back to their parents,
so the graphs are acyclic: reference counting frees what a build drops,
which lets a build run with the cyclic collector paused.

`Tape` is the one evaluator.  It compiles a list of expressions once into a
straight-line program (equal subexpressions become one instruction) and
runs it in two modes: at a scalar point, into one flat vector (`certify`),
or on broadcastable arrays, giving each expression's value shaped the way
its operands broadcast (the oracle).  Each mode's kernels are bound on its
first run, so a tape run in one mode never builds the other's.  The scalar
mode is strict: it runs on Python floats, calls numpy only for the
functions and ^ (the same ufuncs, so the same values), and raises
DomainError where a value leaves its domain.  The array mode is permissive:
it runs the numpy kernels, on numpy values with numpy's warnings off, and
lets NaN and inf through.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np


class ExpressionError(Exception):
    """Malformed expression text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class DomainError(Exception):
    """Evaluation left the domain of an elementary function."""

    def __init__(self, message: str, expr: "Expr"):
        self.expr = expr
        super().__init__(f"{message} in '{to_string(expr)}'")


@dataclass(frozen=True)
class Expr:
    """Base node; concrete nodes below."""


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    kind: str  # 'x' or 'y'
    index: int  # zero-based


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Func(Expr):
    name: str  # sin cos exp log sqrt abs sign
    a: Expr


FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt", "abs", "sign")


# shared results of differentiation, and the 0.0 and 1.0 of every cons table:
# derivative tables are mostly zeros, and nodes are immutable, so one instance
# of each serves every entry
_ZERO = Const(0.0)
_ONE = Const(1.0)


# ---------------------------------------------------------------------------
# one object per structure
#
# Inside `shared_nodes` every node is made through the block's cons table,
# keyed by the node type, the function name and the operands' ids (a
# constant by its type and repr, a variable by its kind and index).  Leaves
# are shared, so by induction a structure made twice in the block has the
# same operand objects, hence the same key.  A key's ids stay valid because
# the table holds the node, and so its operands.

_shared: ContextVar[dict | None] = ContextVar("shared_nodes", default=None)


def _const_key(value) -> tuple:
    """Constants are one node with the same type and repr, so 0.0 and -0.0
    stay apart; a NaN is keyed by its bits, sign included."""
    return (Const, type(value), repr(value) if value == value else struct.pack("<d", value))


@contextmanager
def shared_nodes(table: dict | None = None):
    """Inside the block, the parser, the s_* constructors and the
    differentiation rules make each structure once: a node equal to one
    made earlier in the block (the same type, function name and operand
    objects, or a constant of the same type and repr) is that object.
    Yields the cons table; hand it to a later block to go on sharing with
    the nodes this one made.  Drop it when the build is done: it holds
    every node it made."""
    if table is None:
        table = {_const_key(0.0): _ZERO, _const_key(1.0): _ONE}
    token = _shared.set(table)
    try:
        yield table
    finally:
        _shared.reset(token)


def _const(value) -> Const:
    table = _shared.get()
    if table is None:
        return Const(value)
    key = _const_key(value)
    node = table.get(key)
    if node is None:
        node = table[key] = Const(value)
    return node


def _var(kind: str, index: int) -> Var:
    table = _shared.get()
    if table is None:
        return Var(kind, index)
    key = (Var, kind, index)
    node = table.get(key)
    if node is None:
        node = table[key] = Var(kind, index)
    return node


def _op(kind: type, a: Expr, b: Expr | None = None) -> Expr:
    """The binary node kind(a, b), or Neg(a) when b is None."""
    table = _shared.get()
    if table is None:
        return kind(a) if b is None else kind(a, b)
    key = (kind, id(a), id(b))
    node = table.get(key)
    if node is None:
        node = table[key] = kind(a) if b is None else kind(a, b)
    return node


def _func(name: str, a: Expr) -> Func:
    table = _shared.get()
    if table is None:
        return Func(name, a)
    key = (Func, name, id(a))
    node = table.get(key)
    if node is None:
        node = table[key] = Func(name, a)
    return node


# ---------------------------------------------------------------------------
# evaluation
#
# Each operation has two kernels, functions of its operand values (unary ops
# ignore the second).  The numpy kernels serve the array mode, which runs
# them with numpy's warnings off and lets NaN and inf flow through a domain
# violation or an overflow (the grid oracle masks them).  The float kernels
# serve the scalar mode on Python floats and raise DomainError
# on log/sqrt/power/division violations: the same IEEE + - * and negation,
# float comparisons for the domain tests, and the same numpy ufunc for every
# function and ^.  Only a NaN's sign and payload where two NaN operands meet
# may differ from a run on numpy scalars: IEEE 754 leaves them unspecified,
# and CPython's specialised float ops pass on the other operand's NaN.


# The float kernels that test a domain take first the node they name in a
# DomainError, bound when the tape is compiled.  What passes their domain
# tests raises no divide-by-zero or invalid flag in numpy, so they need no
# errstate block.

def _div_float(expr, num, den):
    if den == 0:
        raise DomainError("division by zero", expr)
    return num / den


def _pow_float(expr, base, exponent):
    e = float(exponent)
    # numpy's test, e == round(e), holds for the integers and for +-inf
    if base < 0 and not (e.is_integer() or math.isinf(e)):
        raise DomainError("negative base with non-integer exponent", expr)
    if base == 0 and e < 0:
        raise DomainError("zero base with negative exponent", expr)
    return float(np.power(base, exponent))


def _log_float(expr, val, _):
    if val <= 0:
        raise DomainError("log of a non-positive value", expr)
    return float(np.log(val))


def _sqrt_float(expr, val, _):
    if val < 0:
        raise DomainError("sqrt of a negative value", expr)
    return float(np.sqrt(val))


def _ufunc(f):
    return lambda val, _: f(val)


def _ufunc_float(f):
    return lambda val, _: float(f(val))


# the functions defined everywhere need no domain test
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "sign": np.sign}
_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
        Div: operator.truediv, Pow: np.power, Neg: lambda val, _: -val}
_FUNCTION_OPS = {name: _ufunc(f)
                 for name, f in {**_UFUNCS, "log": np.log, "sqrt": np.sqrt}.items()}
_FLOAT_OPS = {**_OPS, Div: _div_float, Pow: _pow_float}
_FLOAT_FUNCTION_OPS = {**{name: _ufunc_float(f) for name, f in _UFUNCS.items()},
                       "log": _log_float, "sqrt": _sqrt_float}
_DOMAIN_TESTED = (_div_float, _pow_float, _log_float, _sqrt_float)


def _op_of(expr: Expr, floats: bool = False):
    """The function that applies expr's own operation to its operand values:
    the float kernel, with expr bound when it tests a domain, when `floats`,
    else the numpy one."""
    kind = type(expr)
    if kind is Func:
        op = (_FLOAT_FUNCTION_OPS if floats else _FUNCTION_OPS).get(expr.name)
    else:
        op = (_FLOAT_OPS if floats else _OPS).get(kind)
    if op is None:
        raise TypeError(f"unknown node {expr!r}")
    return partial(op, expr) if op in _DOMAIN_TESTED else op


def _intern(node: Expr, seen: dict, index: dict, nodes: list) -> int:
    """Index in `nodes` of the subexpression equal to node, appending it (after
    its operands) when new.  Constants are equal only with the same type and
    repr, so 0.0 and -0.0 stay apart.  `seen` maps the ids of nodes already
    interned, so a shared subtree is walked once."""
    found = seen.get(id(node))
    if found is not None:
        return found
    kind = type(node)
    args: tuple[int, ...] = ()
    if kind is Const:
        key: tuple = (kind, type(node.value), repr(node.value))
    elif kind is Var:
        key = (kind, node.kind, node.index)
    else:
        args = (_intern(node.a, seen, index, nodes),)  # one frame per level
        if kind is not Neg and kind is not Func:
            args += (_intern(node.b, seen, index, nodes),)
        key = (kind, node.name if kind is Func else None, args)
    found = index.get(key)
    if found is None:
        found = index[key] = len(nodes)
        nodes.append((node, args))
    seen[id(node)] = found
    return found


def _allocate_slots(nodes: list, roots: list[int]) -> list[int]:
    """Slot of each node of `nodes`.  Leaves and the roots (the outputs) keep
    their own slots; every other node writes into the slot of a value already
    read for the last time, when there is one, and a new slot otherwise."""
    pinned = set(roots)
    last_use = {a: i for i, (_, args) in enumerate(nodes) for a in args}
    slot: list[int] = []
    free: list[int] = []
    size = 0
    for i, (_, args) in enumerate(nodes):
        for a in args:
            if last_use.get(a) == i and nodes[a][1] and a not in pinned:
                free.append(slot[a])
                del last_use[a]  # an operand read twice is freed once
        if args and i not in pinned and free:
            slot.append(free.pop())
        else:
            slot.append(size)
            size += 1
    return slot


class Tape:
    """A straight-line program that evaluates a list of expressions, at a
    scalar point (`__call__`) or on broadcastable arrays (`arrays`).

    Compiled once: equal subexpressions (compared structurally, with the sign
    of zero constants kept apart) become one instruction, ordered by first use
    in post-order over the expressions in the order given.  So the first
    instruction that leaves its domain is the first node a recursive walk of
    the trees (operands left to right) would fail at, and the DomainError is
    the same.  An instruction writes into a slot whose value has had its last
    use, so an intermediate array is released right after its last read.

    Output entry `positions[i]` holds the value of `exprs[i]` (by default
    the output follows `exprs`), and every other entry the value it has in
    `template` (zeros by default).  Expressions that are constants are never
    computed: their values are written into the template, which each call
    copies (and holds 0.0 where an entry is computed).  So a caller whose
    entries are mostly zeros (the derivative tables) writes those into the
    template itself and hands over the rest.

    Each entry point has one mode, and its own kernels, bound on its first
    call: certify's tapes run only at scalar points and the oracle's grid
    tapes only on arrays, so each binds one list.  `__call__` loads x and
    y as Python floats and runs the float kernels: + - * and negation are
    plain float arithmetic, the domain tests of /, ^, log and sqrt are
    float comparisons that raise DomainError, and every function and ^
    calls the same numpy ufunc as the numpy kernel, so values (up to the
    sign and payload of a NaN) are those of a run on numpy scalars.
    `arrays` runs the numpy kernels on numpy values, constants included,
    with numpy's warnings off, and raises no DomainError: a value outside
    a domain comes out NaN or inf.
    """

    def __init__(self, exprs, positions=None, template=None):
        positions = range(len(exprs)) if positions is None else positions
        self.template = np.zeros(len(exprs)) if template is None else np.array(template, float)
        nodes: list[tuple[Expr, tuple[int, ...]]] = []  # distinct, first-use post-order
        index: dict[tuple, int] = {}
        seen: dict[int, int] = {}
        out_pos, roots = [], []
        for e, p in zip(exprs, positions):
            if type(e) is Const:
                self.template[p] = e.value
            else:
                self.template[p] = 0.0
                out_pos.append(p)
                roots.append(_intern(e, seen, index, nodes))
        self._out_pos = np.array(out_pos, dtype=np.intp)
        slot = _allocate_slots(nodes, roots)
        self._out_slot = [slot[i] for i in roots]
        # constants are preset, variables loaded, and operations computed in order
        self._init: list = [None] * (max(slot, default=-1) + 1)
        self._loads: dict[str, list] = {"x": [], "y": []}
        self._program: list = []  # (node, slot, operand slots)
        for (node, args), s in zip(nodes, slot):
            if args:
                self._program.append((node, s, slot[args[0]], slot[args[-1]]))
            elif type(node) is Var:
                self._loads[node.kind].append((s, node.index))
            else:
                self._init[s] = node.value

    @cached_property
    def _float_code(self) -> list:
        """(float kernel, slot, operand slots) of each operation."""
        return [(_op_of(node, floats=True), s, a, b) for node, s, a, b in self._program]

    @cached_property
    def _array_code(self) -> list:
        """(numpy kernel, slot, operand slots) of each operation."""
        return [(_op_of(node), s, a, b) for node, s, a, b in self._program]

    @cached_property
    def _array_init(self) -> list:
        """The constants as numpy scalars: the array mode computes on them also
        between two constants, where 0/0 is NaN and Python floats raise
        ZeroDivisionError."""
        return [v if v is None else np.float64(v) for v in self._init]

    def _run(self, x, y, init: list, code: list) -> list:
        """The slot values after every instruction of `code` ran, starting
        from the constants of `init`."""
        vals = list(init)
        for s, i in self._loads["x"]:
            vals[s] = x[i]
        for s, i in self._loads["y"]:
            vals[s] = y[i]
        for kernel, i, a, b in code:
            vals[i] = kernel(vals[a], vals[b])
        return vals

    def __call__(self, x, y) -> np.ndarray:
        """The flat output vector at the scalar point (x, y), run on Python
        floats; raises DomainError where a value leaves its domain."""
        x = np.asarray(x, dtype=float).tolist()
        y = np.asarray(y, dtype=float).tolist()
        vals = self._run(x, y, self._init, self._float_code)
        out = self.template.copy()
        out[self._out_pos] = [vals[s] for s in self._out_slot]
        return out

    def arrays(self, x, y) -> list:
        """The output entries as a list, in the order of `__call__`'s vector,
        where the entries of x and y may be scalars or broadcastable arrays
        (the grid oracle passes x entries as (rows, 1) columns and y entries
        as (1, Y) rows).  A constant entry is its float; any other is shaped
        the way its operands broadcast.  No DomainError and no numpy warning
        is raised: a value outside a domain, or one that overflows, is NaN
        or inf, also where both operands are constants."""
        with np.errstate(all="ignore"):
            vals = self._run(x, y, self._array_init, self._array_code)
        out = self.template.tolist()
        for pos, s in zip(self._out_pos.tolist(), self._out_slot):
            out[pos] = vals[s]
        return out


def uses_abs(expr: Expr, seen: set | None = None) -> bool:
    """True if any abs node occurs (condition checks reject these).  `seen`
    holds the ids of the nodes visited, so a node shared within expr is
    visited once; calls on nodes that stay alive may pass one set to share
    it between them, until one returns True."""
    seen = set() if seen is None else seen
    todo = [expr]
    while todo:
        e = todo.pop()
        if id(e) in seen:
            continue
        if type(e) is Func and e.name == "abs":
            return True
        seen.add(id(e))
        todo += _children(e)
    return False


def variables_of(expr: Expr, memo: dict | None = None) -> set[tuple[str, int]]:
    """The (kind, index) of each variable in expr.  `memo` maps id(node) to
    the variables of each node already visited, so a node shared within
    expr is visited once; calls on nodes that stay alive may pass one memo
    to share it between them.  The sets it returns are the memo's: read
    them, do not change them."""
    memo = {} if memo is None else memo
    found = memo.get(id(expr))
    if found is None:
        if type(expr) is Var:
            found = {(expr.kind, expr.index)}
        else:
            found = set()
            for child in _children(expr):
                found |= variables_of(child, memo)
        memo[id(expr)] = found
    return found


def _children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, (Add, Sub, Mul, Div, Pow)):
        return (expr.a, expr.b)
    if isinstance(expr, (Neg, Func)):
        return (expr.a,)
    return ()


# ---------------------------------------------------------------------------
# differentiation (with light smart-constructor simplification)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def s_add(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _const(a.value + b.value)
    if ca and a.value == 0.0:
        return b
    if cb and b.value == 0.0:
        return a
    return _op(Add, a, b)


def s_sub(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _const(a.value - b.value)
    if cb and b.value == 0.0:
        return a
    if ca and a.value == 0.0:
        return s_neg(b)
    return _op(Sub, a, b)


def s_mul(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _const(a.value * b.value)
    if ca:  # b is not a constant
        return _ZERO if a.value == 0.0 else b if a.value == 1.0 else _op(Mul, a, b)
    if cb:
        return _ZERO if b.value == 0.0 else a if b.value == 1.0 else _op(Mul, a, b)
    return _op(Mul, a, b)


def s_div(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and a.value == 0.0:
        return _ZERO
    if type(b) is Const and b.value == 1.0:
        return a
    return _op(Div, a, b)


def s_pow(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
    return _op(Pow, a, b)


def s_neg(a: Expr) -> Expr:
    if type(a) is Const:
        return _const(-a.value)
    if type(a) is Neg:
        return a.a
    return _op(Neg, a)


def differentiate(expr: Expr, var: Var) -> Expr:
    """Exact partial derivative with respect to var, as an expression."""
    partials, zero = Gradients()(expr)
    return partials.get(_var_key(var), zero)


def _var_key(var: Var) -> int:
    """The key of a variable among a node's partial derivatives: x_k is 2k
    and y_k is 2k + 1."""
    return 2 * var.index + (var.kind == "y")


# d f(a) = f'(a) da for each function f, given the node f(a) and da
_FUNCTION_RULES = {
    "sin": lambda e, da: s_mul(_func("cos", e.a), da),
    "cos": lambda e, da: s_neg(s_mul(_func("sin", e.a), da)),
    "exp": lambda e, da: s_mul(e, da),
    "log": lambda e, da: s_div(da, e.a),
    "sqrt": lambda e, da: s_div(da, s_mul(_const(2.0), e)),
    # nondifferentiable at 0; sign(0)=0 surfaces there during evaluation
    "abs": lambda e, da: s_mul(_func("sign", e.a), da),
    "sign": lambda e, da: _ZERO,
}


def _d_pow(e: Pow, da: Expr, db: Expr) -> Expr:
    if _is_const(db, 0.0) and isinstance(e.b, Const):
        c = e.b.value
        return s_mul(s_mul(_const(c), s_pow(e.a, _const(c - 1.0))), da)
    # general a^b: a^b * (db*log a + b*da/a)
    return s_mul(e, s_add(s_mul(db, _func("log", e.a)), s_mul(e.b, s_div(da, e.a))))


# d e for each operation, given the node e and its operands' derivatives da
# and db by one variable (unary nodes ignore db)
_RULES = {
    Add: lambda e, da, db: s_add(da, db),
    Sub: lambda e, da, db: s_sub(da, db),
    Mul: lambda e, da, db: s_add(s_mul(da, e.b), s_mul(e.a, db)),
    Div: lambda e, da, db: s_div(s_sub(s_mul(da, e.b), s_mul(e.a, db)),
                                 s_pow(e.b, _const(2.0))),
    Pow: _d_pow,
    Neg: lambda e, da, db: s_neg(da),
    Func: lambda e, da, db: _FUNCTION_RULES[e.name](e, da),
}


class Gradients:
    """All partial derivatives of many expressions, sharing the work between
    them (the derivative tables of one problem): sparse forward mode.

    Called on a node, it returns `(partials, zero)`.  `partials` maps the key
    of each variable the node contains (see `_var_key`) to the node's
    derivative by it, and `zero` is its derivative by every variable it
    lacks: one expression, a zero constant of the sign the rules give it
    (cos(x1) by y1 is -0.0), though an inf or NaN constant in the node can
    make it NaN or an expression.  Each node is differentiated once, in one
    frame per level of the tree, by applying its rule to its operands'
    derivatives for its own variables only.  An Add passes on either
    operand's derivative, and a Sub its left one's, without a rule when the
    other operand lacks the variable: s_add and s_sub would return it
    unchanged, since the other side is a zero constant and this side is not
    a constant.  Results are memoised by id(node), and the memo holds each
    node so keyed, so the ids stay valid while this object lives.  Make one
    per table build and drop it."""

    def __init__(self):
        self._memo: dict[int, tuple[Expr, dict[int, Expr], Expr]] = {}

    def __call__(self, expr: Expr) -> tuple[dict[int, Expr], Expr]:
        return self._walk(expr)

    def _walk(self, expr: Expr) -> tuple[dict[int, Expr], Expr]:
        # a plain method: a recursive self(...) would go through the type's
        # call slot, which counts twice against the recursion limit
        kind = type(expr)
        if kind is Const:
            return {}, _ZERO
        if kind is Var:
            return {_var_key(expr): _ONE}, _ZERO
        hit = self._memo.get(id(expr))
        if hit is not None:
            return hit[1], hit[2]
        rule = _RULES.get(kind)
        if rule is None or (kind is Func and expr.name not in _FUNCTION_RULES):
            raise TypeError(f"unknown node {expr!r}")
        pa, za = self._walk(expr.a)  # one frame per level
        pb, zb = ({}, za) if kind is Neg or kind is Func else self._walk(expr.b)
        zero = rule(expr, za, zb)
        partials = {}
        keep_a = (kind is Add or kind is Sub) and _is_const(zb, 0.0)
        for key, da in pa.items():
            db = pb.get(key)
            if db is None and keep_a and type(da) is not Const:
                partials[key] = da
            else:
                partials[key] = rule(expr, da, zb if db is None else db)
        keep_b = kind is Add and _is_const(za, 0.0)
        for key, db in pb.items():
            if key not in pa:
                partials[key] = db if keep_b and type(db) is not Const else rule(expr, za, db)
        self._memo[id(expr)] = (expr, partials, zero)
        return partials, zero


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^−]))"
)

_VAR_RE = re.compile(r"^([xy])([0-9]+)$")


class _Tokenizer:
    def __init__(self, text: str, line: int = 0):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None:
                if text[self.pos :].strip() == "":
                    break
                raise ExpressionError(
                    f"unexpected character {text[self.pos]!r}", line, self.pos + 1
                )
            col = m.start(m.lastgroup) + 1
            val = m.group(m.lastgroup)
            if m.lastgroup == "op" and val == "−":
                val = "-"
            self.tokens.append((m.lastgroup, val, col))
            self.pos = m.end()
        self.idx = 0

    def peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return ("eof", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok


def parse_expression(text: str, line: int = 0) -> Expr:
    """Parse infix expression text (+ - * / ^, parentheses, functions, x_k/y_k)."""
    tz = _Tokenizer(text, line)
    expr = _parse_sum(tz)
    kind, val, col = tz.peek()
    if kind != "eof":
        raise ExpressionError(f"unexpected token {val!r}", line, col)
    return expr


def _parse_sum(tz: _Tokenizer) -> Expr:
    node = _parse_term(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val in "+-":
            tz.next()
            rhs = _parse_term(tz)
            node = _op(Add if val == "+" else Sub, node, rhs)
        else:
            return node


def _parse_term(tz: _Tokenizer) -> Expr:
    node = _parse_unary(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val in "*/":
            tz.next()
            rhs = _parse_unary(tz)
            node = _op(Mul if val == "*" else Div, node, rhs)
        else:
            return node


def _parse_unary(tz: _Tokenizer) -> Expr:
    kind, val, _ = tz.peek()
    if kind == "op" and val == "-":
        tz.next()
        return _op(Neg, _parse_unary(tz))
    return _parse_power(tz)


def _parse_power(tz: _Tokenizer) -> Expr:
    base = _parse_atom(tz)
    kind, val, _ = tz.peek()
    if kind == "op" and val == "^":
        tz.next()
        # right-associative; exponent may carry a unary minus
        return _op(Pow, base, _parse_unary_power(tz))
    return base


def _parse_unary_power(tz: _Tokenizer) -> Expr:
    kind, val, _ = tz.peek()
    if kind == "op" and val == "-":
        tz.next()
        return _op(Neg, _parse_unary_power(tz))
    return _parse_power(tz)


def _parse_atom(tz: _Tokenizer) -> Expr:
    kind, val, col = tz.next()
    if kind == "num":
        return _const(float(val))
    if kind == "ident":
        m = _VAR_RE.match(val)
        if m:
            return _var(m.group(1), int(m.group(2)) - 1)
        if val in FUNCTION_NAMES:
            k2, v2, c2 = tz.next()
            if not (k2 == "op" and v2 == "("):
                raise ExpressionError(f"expected '(' after {val}", tz.line, c2)
            arg = _parse_sum(tz)
            k3, v3, c3 = tz.next()
            if not (k3 == "op" and v3 == ")"):
                raise ExpressionError("expected ')'", tz.line, c3)
            return _func(val, arg)
        raise ExpressionError(f"unknown identifier {val!r}", tz.line, col)
    if kind == "op" and val == "(":
        inner = _parse_sum(tz)
        k2, v2, c2 = tz.next()
        if not (k2 == "op" and v2 == ")"):
            raise ExpressionError("expected ')'", tz.line, c2)
        return inner
    raise ExpressionError(f"unexpected token {val!r}", tz.line, col)


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(expr: Expr) -> int:
    if isinstance(expr, (Add, Sub)):
        return _PREC_ADD
    if isinstance(expr, (Mul, Div)):
        return _PREC_MUL
    if isinstance(expr, Neg):
        return _PREC_NEG
    if isinstance(expr, Pow):
        return _PREC_POW
    if isinstance(expr, Const) and expr.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


# each binary node's symbol and the least precedence its left and right
# operands take without parentheses
_INFIX = {Add: (" + ", _PREC_ADD, _PREC_ADD + 1), Sub: (" - ", _PREC_ADD, _PREC_ADD + 1),
          Mul: ("*", _PREC_MUL, _PREC_MUL + 1), Div: ("/", _PREC_MUL, _PREC_MUL + 1),
          Pow: ("^", _PREC_ATOM, _PREC_NEG)}


def to_string(expr: Expr, memo: dict | None = None) -> str:
    """Render in the problem-file grammar; reparsing yields an equal tree.
    `memo` maps id(node) to the text of each node already rendered, so a
    node shared within expr is rendered once; calls on nodes that stay
    alive may pass one memo to share it between them.  The walk takes one
    frame per level of the tree."""
    memo = {} if memo is None else memo
    text = memo.get(id(expr))
    if text is not None:
        return text
    kind = type(expr)
    if kind is Const:
        text = repr(expr.value)
    elif kind is Var:
        text = f"{expr.kind}{expr.index + 1}"
    elif kind is Func:
        text = f"{expr.name}({to_string(expr.a, memo)})"
    elif kind is Neg:
        a = to_string(expr.a, memo)
        text = f"-({a})" if _prec(expr.a) < _PREC_NEG else f"-{a}"
    elif kind in _INFIX:
        symbol, min_a, min_b = _INFIX[kind]
        a, b = to_string(expr.a, memo), to_string(expr.b, memo)
        a = f"({a})" if _prec(expr.a) < min_a else a
        b = f"({b})" if _prec(expr.b) < min_b else b
        text = f"{a}{symbol}{b}"
    else:
        raise TypeError(f"unknown node {expr!r}")
    memo[id(expr)] = text
    return text
