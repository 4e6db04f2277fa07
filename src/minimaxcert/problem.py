"""Problem instances: the min-max data (f, h, g, H, G) and their derivatives.

The on-disk format is line oriented:

    dims n m m1 m2 n1 n2
    f  = <expr>
    h<k> = <expr>     # k = 1..m1, constraints h(x,y) = 0
    g<k> = <expr>     # k = 1..m2, constraints g(x,y) <= 0
    H<k> = <expr>     # k = 1..n1, x-only, H(x) = 0
    G<k> = <expr>     # k = 1..n2, x-only, G(x) <= 0

'#' starts a comment.  H and G must not reference y-variables.

Derivatives are exact: `ProblemSpec` builds its symbolic derivative tables
lazily, once, and compiles them into one `Tape` per spec (`_bundle_program`,
plus the x-only `_upper_program` behind `upper.upper_data`, and the grid
oracle's `_oracle_tapes`), also once.  `parse_problem` and the table build
share one cons table (`expressions.shared_nodes`): within a spec's build
each structure is one `Expr` object, in the parsed trees and in their
derivatives alike, so each distinct subtree is differentiated once and
compiled once.  The spec hands the table from its parse to its table build
and drops it when the tables are done.  The parse and the table and
program builds run with the cyclic collector paused (restored after, also
when they raise): they make thousands of immutable nodes and the tuples,
lists and dicts that hold them, none of them in a cycle, so reference
counting frees what a build drops and a collection during it would free
none of it.  The tables are sparse: one
`Gradients` serves the whole build and gives each (sub)expression all of its
partial derivatives in one pass, for the variables it contains, plus one
exact zero, of the sign the rules give it, for every other; it is dropped
when the tables are done.  So a table row stores that zero as a fill and
only the derivatives by the row's own variables as entries, and the build
costs in proportion to the nonzero entries, not to the n^2 + m^2 + nm of a
row.  The data are C^2, so every Hessian block is symmetric by
construction: each unordered pair of variables is differentiated once and
its entry mirrored, and of the two cross blocks only `yx` is built.  The
compiled program writes the fills block by block into the tape's template,
and the tape computes only the non-constant entries.  `eval_bundle` runs
the bundle tape at a point and returns a `DerivativeBundle` whose arrays are
read-only views of its output.  A non-finite value or derivative of any
function, in a bundle or in `upper.upper_data`, is a DomainError that names
the function.  Inside a `bundle_memo` block, which `certify` opens for the
length of one call, each distinct (spec, x, y) is evaluated once, and each
distinct (spec, x) by `upper.upper_data`; from each bundle,
`lower.lagrangian_eval` computes the Lagrangian blocks once per distinct
(mu, lam), `lower.recover_multipliers` the multipliers once per distinct
tol_act and `lower.licq_sigma` the LICQ margin once per active set, and
from each Lagrangian `lower.critical_curvature` builds the critical cone and
its hull bound once per partition.  Every caller gets the same read-only
result; nothing is cached across calls.
"""

from __future__ import annotations

import gc
import hashlib
import math
import re
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expressions import (
    Const,
    DomainError,
    Expr,
    ExpressionError,
    Gradients,
    Tape,
    parse_expression,
    shared_nodes,
    to_string,
    uses_abs,
    variables_of,
)


class CandidateShapeError(ValueError):
    """A candidate vector whose shape does not match the problem's dimensions."""


class ProblemFormatError(Exception):
    """Problem text violates the grammar or the declared dimensions."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(eq=False)
class ProblemSpec:
    """A constrained min-max instance min_x max_y f(x,y) with

    inner feasible set  {y : h(x,y) = 0, g(x,y) <= 0}  and
    outer feasible set  {x : H(x) = 0,  G(x) <= 0}.
    """

    n: int
    m: int
    m1: int
    m2: int
    n1: int
    n2: int
    f: Expr
    h: list[Expr] = field(default_factory=list)
    g: list[Expr] = field(default_factory=list)
    H: list[Expr] = field(default_factory=list)
    G: list[Expr] = field(default_factory=list)

    def __post_init__(self):
        dims = (self.n, self.m, self.m1, self.m2, self.n1, self.n2)
        if any(d < 0 for d in dims):
            raise ProblemFormatError("dimensions must be nonnegative")
        if self.n < 1 or self.m < 1:
            raise ProblemFormatError("need at least one x and one y variable")
        for name, exprs, want in (
            ("h", self.h, self.m1),
            ("g", self.g, self.m2),
            ("H", self.H, self.n1),
            ("G", self.G, self.n2),
        ):
            if len(exprs) != want:
                raise ProblemFormatError(
                    f"{name} has {len(exprs)} entries, declared {want}"
                )
        seen: dict = {}  # shared by the functions, which share nodes
        for label, expr in self._labelled():
            for kind, idx in variables_of(expr, seen):
                limit = self.n if kind == "x" else self.m
                if idx >= limit:
                    raise ProblemFormatError(
                        f"{label} references {kind}{idx + 1} but {kind}-dimension is {limit}"
                    )
                if kind == "y" and label[0] in "HG":
                    raise ProblemFormatError(
                        f"{label} is an upper-level constraint but references y{idx + 1}"
                    )

    def _labelled(self):
        yield "f", self.f
        for k, e in enumerate(self.h):
            yield f"h{k + 1}", e
        for k, e in enumerate(self.g):
            yield f"g{k + 1}", e
        for k, e in enumerate(self.H):
            yield f"H{k + 1}", e
        for k, e in enumerate(self.G):
            yield f"G{k + 1}", e

    def __eq__(self, other):
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return (
            (self.n, self.m, self.m1, self.m2, self.n1, self.n2)
            == (other.n, other.m, other.m1, other.m2, other.n1, other.n2)
            and self.f == other.f
            and self.h == other.h
            and self.g == other.g
            and self.H == other.H
            and self.G == other.G
        )

    # -- per-spec invariants, computed on first use --------------------------

    @cached_property
    def smooth_for_conditions(self) -> bool:
        """abs is parsed but rejected by the condition-checking entry points."""
        seen: set = set()  # shared by the functions, which share nodes
        return not any(uses_abs(e, seen) for _, e in self._labelled())

    @cached_property
    def digest(self) -> str:
        """Stable identifier: sha256 of the canonical serialization."""
        return hashlib.sha256(serialize_problem(self).encode("utf-8")).hexdigest()

    # -- cached derivative expression tables -------------------------------

    @cached_property
    def _tables(self):
        """Per function, its derivative blocks: "x" and "xx" (gradient and
        Hessian in x), and for f, h and g also "y", "yx" and "yy".  A block
        is a pair (fill, entries): `fill`, an array of the block's shape,
        holds every entry that is an exact zero (the derivative by a
        variable the differentiated expression lacks, or of a constant), and
        `entries` holds the others as (row-major offset, Expr) pairs in
        offset order.  Entry (i, j), i <= j, of a Hessian is entry j of the
        gradient of gradient entry i, and entry (j, i) is the same Expr: C^2
        data has symmetric Hessians.  The nodes are made in the cons table
        of the spec's parse (a new one for a spec built from trees), which
        is dropped here."""
        with _collector_paused(), shared_nodes(self.__dict__.pop("_nodes", None)):
            return self._build_tables()

    def _build_tables(self):
        n, m = self.n, self.m
        grads = Gradients()  # shared by every entry; dropped with this frame

        def split(expr, kind, size):
            """expr's derivatives by the variables of `kind` (0: x, 1: y) as
            (fill value, {index: Expr})."""
            partials, zero = grads(expr)
            found = {key >> 1: d for key, d in partials.items() if key & 1 == kind}
            if type(zero) is Const:
                return zero.value, found
            # a "zero" made from an inf or NaN constant need not fold
            return 0.0, {i: found.get(i, zero) for i in range(size)}

        def vector(fill, found, size):
            return np.full(size, fill), sorted(found.items(), key=_first)

        def rows(grad, count, kind, size, square):
            """Row i of `count` holds the derivatives of gradient entry i by
            the `size` variables of `kind`: the upper triangle, mirrored,
            when `square` (a Hessian), all of them otherwise (the yx block).
            An entry the gradient lacks is a constant, whose derivatives are
            0.0."""
            fills, entries = np.zeros(count), []
            for i, gi in sorted(grad.items(), key=_first):
                fills[i], row = split(gi, kind, size)
                for j, e in sorted(row.items(), key=_first):
                    if not square:
                        entries.append((i * size + j, e))
                    elif j >= i:
                        entries.append((i * size + j, e))
                        if j > i:
                            entries.append((j * size + i, e))
            if not square:
                return np.repeat(fills[:, None], size, axis=1), entries
            first = np.arange(size)
            return fills[np.minimum.outer(first, first)], sorted(entries, key=_first)

        def table(e, inner=True):
            """Gradients and Hessian blocks of e; x-only data (inner=False)
            gets the `x` and `xx` parts alone."""
            fx, ex = split(e, 0, n)
            out = {"x": vector(fx, ex, n), "xx": rows(ex, n, 0, n, True)}
            if inner:
                fy, ey = split(e, 1, m)
                out.update(y=vector(fy, ey, m), yx=rows(ey, m, 0, n, False),
                           yy=rows(ey, m, 1, m, True))
            return out

        return {"f": table(self.f), "h": [table(e) for e in self.h],
                "g": [table(e) for e in self.g],
                "H": [table(e, inner=False) for e in self.H],
                "G": [table(e, inner=False) for e in self.G]}

    # -- compiled evaluation programs -------------------------------------

    @cached_property
    def _bundle_program(self) -> BlockProgram:
        """Every DerivativeBundle block.  Entries are visited in a fixed order,
        which decides the DomainError a point outside the domain raises:
        f Hessians, h and g values, h rows, g rows, then f and its gradient."""
        n, m, t = self.n, self.m, self._tables
        shapes = {"f": (), "fx": (n,), "fy": (m,), "fxx": (n, n), "fyx": (m, n), "fyy": (m, m)}
        for c, count in (("h", self.m1), ("g", self.m2)):
            shapes.update({c: (count,), f"{c}_jx": (count, n), f"{c}_jy": (count, m),
                           f"{c}_xx": (count, n, n), f"{c}_yx": (count, m, n),
                           f"{c}_yy": (count, m, m)})
        f_owner = _derivatives_of("f", self.f)
        visits = [("f" + b, 0, f_owner, *t["f"][b]) for b in ("xx", "yy", "yx")]
        visits += _values("h", self.h) + _values("g", self.g)
        for c in "hg":
            for k, row in enumerate(t[c]):
                owner = _derivatives_of(f"{c}{k + 1}", getattr(self, c)[k])
                visits += [(f"{c}_j{b}", k, owner, *row[b]) for b in ("x", "y")]
                visits += [(f"{c}_{b}", k, owner, *row[b]) for b in ("xx", "yx", "yy")]
        visits += _values("f", [self.f])
        visits += [("f" + b, 0, f_owner, *t["f"][b]) for b in ("x", "y")]
        with _collector_paused():
            return BlockProgram.compile(shapes, visits)

    @cached_property
    def _upper_program(self) -> BlockProgram:
        """H and G values, Jacobians and Hessians: a program in x alone."""
        n, t = self.n, self._tables
        shapes: dict[str, tuple[int, ...]] = {}
        visits = _values("H", self.H) + _values("G", self.G)
        for (val, jac, hess), exprs in ((("H", "JH", "Hxx"), self.H),
                                        (("G", "JG", "Gxx"), self.G)):
            shapes.update({val: (len(exprs),), jac: (len(exprs), n),
                           hess: (len(exprs), n, n)})
            for k, row in enumerate(t[val]):
                owner = _derivatives_of(f"{val}{k + 1}", exprs[k])
                visits += [(jac, k, owner, *row["x"]), (hess, k, owner, *row["xx"])]
        with _collector_paused():
            return BlockProgram.compile(shapes, visits)

    @cached_property
    def _oracle_tapes(self) -> tuple[Tape, Tape, Tape]:
        """The grid oracle's tapes: [h..., g..., f] and [H..., G...], run in
        array mode over its grids, and [f], run strictly at (x*, y*), where
        only f's own domain may fail."""
        with _collector_paused():
            return Tape([*self.h, *self.g, self.f]), Tape([*self.H, *self.G]), Tape([self.f])


def _first(pair):
    return pair[0]


@contextmanager
def _collector_paused():
    """Run the block with the cyclic collector off, and restore its state
    after.  Sound for a spec's builds: what they make holds no cycle, so
    reference counting frees whatever they drop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _derivatives_of(label: str, expr: Expr) -> tuple[str, Expr]:
    return f"non-finite derivative value of {label}", expr


def _values(name: str, exprs: list[Expr]) -> list:
    """Visits of block `name` that fill its entry k with the value of exprs[k]."""
    labels = ["f"] if name == "f" else [f"{name}{k + 1}" for k in range(len(exprs))]
    return [(name, k, (f"non-finite value of {label}", e), np.zeros(()), [(0, e)])
            for k, (label, e) in enumerate(zip(labels, exprs))]


@dataclass(frozen=True)
class BlockProgram:
    """Named arrays filled by one Tape: the blocks lie back to back in one
    flat vector, and each call returns read-only views of it.  A call whose
    output holds a non-finite entry raises DomainError, naming the function
    the first such entry (in layout order) belongs to."""

    tape: Tape
    layout: tuple[tuple[str, slice, tuple[int, ...]], ...]
    # (first position, DomainError message, function) of each visit's row
    owners: tuple[tuple[int, str, Expr], ...]

    @classmethod
    def compile(cls, shapes: dict, visits: list) -> "BlockProgram":
        """shapes: block name -> shape, in layout order.  visits: (block, row,
        owner, fill, entries) in evaluation order, where the array `fill`
        holds row `row` of the block (the whole block with row 0) wherever
        `entries`, (row-major offset, expression) pairs in offset order, put
        nothing, and owner is the (DomainError message, function) raised
        where the row holds a non-finite value.  The fills make the tape's
        template, and the tape gets the entries alone."""
        layout, start = [], {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            layout.append((name, slice(offset, offset + size), shape))
            start[name] = offset
            offset += size
        template = np.zeros(offset)
        owners: list[tuple[int, str, Expr]] = []
        exprs: list[Expr] = []
        positions: list[int] = []
        for name, row, (message, function), fill, entries in visits:
            first = start[name] + row * fill.size
            template[first:first + fill.size] = fill.ravel()
            owners.append((first, message, function))
            exprs += [e for _, e in entries]
            positions += [first + off for off, _ in entries]
        return cls(Tape(exprs, positions, template), tuple(layout),
                   tuple(sorted(owners, key=_first)))

    def __call__(self, x, y) -> dict[str, np.ndarray]:
        flat = self.tape(x, y)
        if not np.isfinite(flat).all():
            bad = int(np.argmin(np.isfinite(flat)))
            _, message, function = self.owners[bisect_right(self.owners, bad, key=_first) - 1]
            raise DomainError(message, function)
        flat.flags.writeable = False
        return {name: flat[sl].reshape(shape) for name, sl, shape in self.layout}


@dataclass
class CandidatePoint:
    """A point (x*, y*) to certify, with optional multipliers to verify."""

    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray | None = None
    lam: np.ndarray | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        for name in ("mu", "lam", "u", "v"):
            val = getattr(self, name)
            if val is not None:
                arr = np.atleast_1d(np.asarray(val, dtype=float))
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name} entries must be finite")
                setattr(self, name, arr)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("candidate coordinates must be finite")

    def validate_against(self, spec: ProblemSpec):
        expect = {
            "x": spec.n,
            "y": spec.m,
            "mu": spec.m1,
            "lam": spec.m2,
            "u": spec.n1,
            "v": spec.n2,
        }
        for name, want in expect.items():
            val = getattr(self, name)
            if val is None:
                continue
            if val.shape != (want,):
                raise CandidateShapeError(
                    f"{name} has shape {val.shape}, expected ({want},)"
                )


@dataclass
class DerivativeBundle:
    """All values/derivatives of the problem data at one (x, y); every array
    is read-only."""

    x: np.ndarray
    y: np.ndarray
    f: float
    fx: np.ndarray  # (n,)
    fy: np.ndarray  # (m,)
    fxx: np.ndarray  # (n, n)
    fyx: np.ndarray  # (m, n)
    fyy: np.ndarray  # (m, m)
    h: np.ndarray  # (m1,)
    h_jx: np.ndarray  # (m1, n)
    h_jy: np.ndarray  # (m1, m)
    h_xx: np.ndarray  # (m1, n, n)
    h_yx: np.ndarray  # (m1, m, n)
    h_yy: np.ndarray  # (m1, m, m)
    g: np.ndarray
    g_jx: np.ndarray
    g_jy: np.ndarray
    g_xx: np.ndarray
    g_yx: np.ndarray
    g_yy: np.ndarray


_bundle_memo: ContextVar[dict | None] = ContextVar("bundle_memo", default=None)


@contextmanager
def bundle_memo():
    """Inside the block, eval_bundle evaluates each distinct (spec, x, y) and
    upper.upper_data each distinct (spec, x) once, upper.check_mfcq checks
    each distinct (spec, x, tol_act, tol_mfcq) once, the Lagrangian and the
    recovered multipliers are computed once per bundle and distinct
    (mu, lam) or tol_act, the LICQ margin once per bundle and active set,
    the inner critical cone and its hull bound once per Lagrangian and
    (alpha, beta), the cone face walk's root eigenpair once per distinct
    (M, E), and every later caller gets the same read-only result."""
    token = _bundle_memo.set({})
    try:
        yield
    finally:
        _bundle_memo.reset(token)


def memoised(owner, key: tuple, compute):
    """compute(), or inside `bundle_memo` the result an earlier call with the
    same owner (a spec, a bundle for what is computed from it, or the
    function whose key holds all of its inputs) and key got from it.  The
    memo holds the owner, so its id stays valid.  A compute that raises
    stores nothing."""
    memo = _bundle_memo.get()
    if memo is None:
        return compute()
    key = (id(owner), *key)
    hit = memo.get(key)
    if hit is not None and hit[0] is owner:
        return hit[1]
    value = compute()
    memo[key] = (owner, value)
    return value


def eval_bundle(spec: ProblemSpec, x: np.ndarray, y: np.ndarray) -> DerivativeBundle:
    """Evaluate all problem data and exact derivatives at (x, y).

    The arrays of the bundle are read-only: inside `bundle_memo` one bundle
    is shared by every caller at the same point."""
    x = np.array(x, dtype=float, ndmin=1)
    y = np.array(y, dtype=float, ndmin=1)
    if x.shape != (spec.n,) or y.shape != (spec.m,):
        raise ValueError(
            f"point has shapes {x.shape}/{y.shape}, expected ({spec.n},)/({spec.m},)"
        )

    def compute():
        b = spec._bundle_program(x, y)
        x.flags.writeable = False
        y.flags.writeable = False
        return DerivativeBundle(x=x, y=y, f=float(b.pop("f")), **b)

    return memoised(spec, ("bundle", x.tobytes(), y.tobytes()), compute)


# ---------------------------------------------------------------------------
# parsing / serialization of the on-disk format

_ASSIGN_RE = re.compile(r"^\s*([fhgHG])([0-9]*)\s*=\s*(.*)$")


def parse_problem(text: str) -> ProblemSpec:
    """Parse problem text into a validated ProblemSpec, whose equal
    subexpressions are one object.  The spec keeps the cons table for its
    table build."""
    with _collector_paused(), shared_nodes() as nodes:
        spec = _parse_problem(text)
    spec._nodes = nodes
    return spec


def _parse_problem(text: str) -> ProblemSpec:
    dims = None
    dims_line = 0
    assigns: dict[str, tuple[Expr, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dims is None:
            parts = line.split()
            if parts[0] != "dims":
                raise ProblemFormatError("first line must be 'dims n m m1 m2 n1 n2'", lineno)
            if len(parts) != 7:
                raise ProblemFormatError("dims expects 6 integers", lineno)
            try:
                dims = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise ProblemFormatError("dims entries must be integers", lineno)
            if any(d < 0 for d in dims):
                raise ProblemFormatError("dims entries must be nonnegative", lineno)
            dims_line = lineno
            continue
        m = _ASSIGN_RE.match(line)
        if m is None:
            raise ProblemFormatError(f"expected an assignment, got {line!r}", lineno)
        name, idx, rhs = m.group(1), m.group(2), m.group(3)
        key = name + idx
        if name == "f" and idx:
            raise ProblemFormatError("objective is plain 'f'", lineno)
        if name != "f" and not idx:
            raise ProblemFormatError(f"constraint '{name}' needs an index", lineno)
        if key in assigns:
            raise ProblemFormatError(f"duplicate assignment for {key}", lineno)
        try:
            expr = parse_expression(rhs, lineno)
        except ExpressionError as exc:
            raise ProblemFormatError(str(exc), lineno) from exc
        assigns[key] = (expr, lineno)
    if dims is None:
        raise ProblemFormatError("missing 'dims' line")
    n, m, m1, m2, n1, n2 = dims
    if "f" not in assigns:
        raise ProblemFormatError("missing objective 'f'")

    def collect(prefix: str, count: int) -> list[Expr]:
        out = []
        for k in range(1, count + 1):
            key = f"{prefix}{k}"
            if key not in assigns:
                raise ProblemFormatError(f"missing {key} (declared by dims)", dims_line)
            out.append(assigns[key][0])
        return out

    h = collect("h", m1)
    g = collect("g", m2)
    HU = collect("H", n1)
    GU = collect("G", n2)
    declared = {"f"} | {f"h{k}" for k in range(1, m1 + 1)}
    declared |= {f"g{k}" for k in range(1, m2 + 1)}
    declared |= {f"H{k}" for k in range(1, n1 + 1)}
    declared |= {f"G{k}" for k in range(1, n2 + 1)}
    for key, (_, lineno) in assigns.items():
        if key not in declared:
            raise ProblemFormatError(f"{key} not covered by dims", lineno)
    try:
        spec = ProblemSpec(n, m, m1, m2, n1, n2, assigns["f"][0], h, g, HU, GU)
    except ProblemFormatError as exc:
        # attach the offending line when the validation names a constraint
        for key, (_, lineno) in assigns.items():
            if str(exc).startswith(key + " "):
                raise ProblemFormatError(str(exc), lineno) from exc
        raise
    return spec


def serialize_problem(spec: ProblemSpec) -> str:
    lines = [f"dims {spec.n} {spec.m} {spec.m1} {spec.m2} {spec.n1} {spec.n2}"]
    texts: dict = {}  # shared by the functions, which share nodes
    lines += [f"{label} = {to_string(e, texts)}" for label, e in spec._labelled()]
    return "\n".join(lines) + "\n"


def problem_digest(spec: ProblemSpec) -> str:
    """Stable identifier: sha256 of the canonical serialization (cached on
    the spec)."""
    return spec.digest
