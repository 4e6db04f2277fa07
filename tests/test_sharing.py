"""One object per structure within a spec's build: the compiled tapes and the
tables are those of a build that shares nothing, every structure reachable
from a spec is one object, signed zeros stay apart, and the build leaves the
cyclic collector as it found it."""

import contextlib
import gc
import struct

import numpy as np
import pytest

import minimaxcert.problem as problem
from minimaxcert import CheckConfig, GridSpec, certify, verify_minimax_definition
from minimaxcert.expressions import (
    Const,
    DomainError,
    Var,
    _children,
    _ZERO,
    s_mul,
    s_neg,
    s_sub,
    shared_nodes,
    to_string,
)
from minimaxcert.fixtures import FIXTURE_NAMES, fixture_text
from minimaxcert.problem import CandidatePoint, ProblemFormatError, parse_problem
from conftest import dense_block, perfbench_workloads, reference_tables

# inf constants, derivatives that fold to NaN of either sign (inf*0 and its
# negation), and a 0/0 the scalar mode rejects
SPECIAL_TEXT = ("dims 2 2 0 1 0 1\n"
                "f = x1^2 - y1^2 - y2^2 + 1e400*x2*y2 - cos(x1)*y1 + (1e400 - 1e400)*x2\n"
                "g1 = y1 - 1 + 0/0*x1 + -(1e400*x2)\n"
                "G1 = x1 - 1e400*x2^2\n")


def _problem_texts():
    wl = perfbench_workloads()
    texts = {f"lattice{n}": wl.LatticeProblem.generate(np.random.default_rng(n), n, n - 1,
                                                       n // 2).text()
             for n in (2, 3, 5)}
    for name in ("selector", "oracle", "cli_batch"):
        texts.update((f"{name}-{key}", t) for key, t in getattr(wl, name)(1).problems.items())
    texts.update((name, fixture_text(name)) for name in FIXTURE_NAMES)
    texts["special"] = SPECIAL_TEXT
    return texts


TEXTS = _problem_texts()


def _unshared(monkeypatch):
    """Switch sharing off: parse and tables build every node anew."""
    monkeypatch.setattr(problem, "shared_nodes", lambda table=None: contextlib.nullcontext())


def _kernel(op):
    # a float kernel that tests a domain is a partial with its node bound
    return (getattr(op, "func", op), tuple(map(to_string, getattr(op, "args", ()))))


def _tape_code(tape):
    return ([(_kernel(op), s, a, b) for op, s, a, b in tape._float_code],
            [(_kernel(op), s, a, b) for op, s, a, b in tape._array_code],
            tape._out_pos.tolist(), tape._out_slot, tape.template.tobytes(),
            [repr(v) for v in tape._init], [repr(v) for v in tape._array_init], tape._loads)


def _tapes(spec):
    """The spec's five tapes, and its two programs' layouts and owners."""
    programs = [spec._bundle_program, spec._upper_program]
    layouts = [(p.layout, [(first, message, to_string(fn)) for first, message, fn in p.owners])
               for p in programs]
    return [p.tape for p in programs] + list(spec._oracle_tapes), layouts


def _run(tape, x, y):
    """The tape's scalar output, or its DomainError's message, and its array
    output, all as bytes."""
    try:
        scalar = tape(x, y).tobytes()
    except DomainError as exc:
        scalar = str(exc)
    return scalar, [np.asarray(v, float).tobytes() for v in tape.arrays(x, y)]


def _dense_tables(tables):
    """Every table block as an object array of expressions, printed: to_string
    tells 0.0 from -0.0."""
    def dense(row):
        return {b: [to_string(e) for e in dense_block(*block).flat] for b, block in row.items()}
    return {name: [dense(r) for r in rows] if isinstance(rows, list) else dense(rows)
            for name, rows in tables.items()}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_sharing_leaves_tapes_outputs_and_tables_unchanged(name, monkeypatch):
    text = TEXTS[name]
    shared = parse_problem(text)
    shared_tables = shared._tables
    with monkeypatch.context() as m:
        _unshared(m)
        plain = parse_problem(text)
        plain_tables = plain._tables
    # compiling both programs drops each spec's tables
    (tapes, layouts), (plain_tapes, plain_layouts) = _tapes(shared), _tapes(plain)
    assert layouts == plain_layouts
    assert [_tape_code(t) for t in tapes] == [_tape_code(t) for t in plain_tapes]
    rng = np.random.default_rng(len(text))
    for _ in range(3):
        x, y = rng.uniform(-2.0, 2.0, shared.n), rng.uniform(-2.0, 2.0, shared.m)
        for got, want in zip(tapes, plain_tapes):
            assert _run(got, x, y) == _run(want, x, y)
    assert _dense_tables(shared_tables) == _dense_tables(reference_tables(shared))
    assert _dense_tables(plain_tables) == _dense_tables(shared_tables)


def _structure_key(node, numbers):
    """The structure of node, its operands given by their class numbers;
    constants by type and bits, so 0.0 and -0.0 (and NaNs of either sign)
    differ."""
    kind = type(node)
    if kind is Const:
        return kind, type(node.value), struct.pack("<d", node.value)
    if kind is Var:
        return kind, node.kind, node.index
    return (kind, getattr(node, "name", None),
            *(numbers[id(c)] for c in _children(node)))


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_each_structure_of_a_spec_is_one_object(name):
    spec = parse_problem(TEXTS[name])
    roots = [e for _, e in spec._labelled()]
    for rows in spec._tables.values():
        for row in rows if isinstance(rows, list) else [rows]:
            roots += [e for _, entries in row.values() for _, e in entries]
    numbers: dict[int, int] = {}  # id(node) -> structure class
    objects: dict[tuple, object] = {}  # structure -> its one object
    todo = [(e, False) for e in roots]
    while todo:  # post-order: a node's class after its operands'
        node, ready = todo.pop()
        if id(node) in numbers:
            continue
        if not ready:
            todo.append((node, True))
            todo += [(c, False) for c in _children(node)]
            continue
        key = _structure_key(node, numbers)
        assert objects.setdefault(key, node) is node, f"two objects for {to_string(node)}"
        numbers[id(node)] = len(numbers)
    assert "_nodes" not in vars(spec)  # the cons table went with the build


def test_folded_signed_zeros_stay_distinct_nodes():
    with shared_nodes():
        zero = s_sub(Const(1.0), Const(1.0))
        negative = s_neg(zero)
        assert zero is _ZERO
        assert repr(negative.value) == "-0.0"
        assert negative is not zero
        assert s_mul(Const(-1.0), Const(0.0)) is negative
        assert s_neg(negative) is zero
    # outside a build nothing is shared
    assert s_neg(zero) is not negative


def test_negative_zero_fill_keeps_its_sign_in_the_template():
    # g1's derivative by y1 is that of cos(x1) - 2, the -0.0 that cos(x1)
    # by y1 is
    spec = parse_problem("dims 1 1 0 1 0 0\nf = x1^2 - y1^2\ng1 = cos(x1) - 2\n")
    fill, entries = spec._tables["g"][0]["y"]
    assert entries == [] and np.signbit(fill).all()
    program = spec._bundle_program
    block = dict((name, sl) for name, sl, _ in program.layout)["g_jy"]
    assert np.signbit(program.tape.template[block]).all()
    assert np.signbit(program([0.5], [0.25])["g_jy"]).all()


@pytest.mark.parametrize("enabled", [True, False])
def test_builds_leave_the_collector_as_they_found_it(enabled, monkeypatch):
    """The table build and the bundle compile run with the collector paused;
    the parse, the x-only compile and the oracle's tapes run in the state the
    caller left, and every build restores it."""
    states = []  # the collector's state in each parse, table build and compile

    def recorded(build):
        def run(*args):
            states.append(gc.isenabled())
            return build(*args)
        return run

    for name in ("parse_expression", "Gradients", "Tape"):
        monkeypatch.setattr(problem, name, recorded(getattr(problem, name)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        spec = parse_problem(TEXTS["P1"])
        assert set(states) == {enabled} and gc.isenabled() is enabled
        for bad in ("dims 1 1\n", "dims 1 1 0 0 0 0\nf = x1 + + y1\n",
                    "dims 1 1 0 0 0 0\nf = frob(x1)\n", "dims 1 1 0 0 0 1\nf = x1\nG1 = y1\n"):
            with pytest.raises(ProblemFormatError):
                parse_problem(bad)
            assert gc.isenabled() is enabled
        for name, paused in (("_tables", True), ("_bundle_program", True),
                             ("_upper_program", False), ("_oracle_tapes", False)):
            states.clear()
            getattr(spec, name)
            assert set(states) == {enabled and not paused}, name
            assert gc.isenabled() is enabled

        def fail():
            raise RuntimeError("build failed")

        failing = parse_problem(TEXTS["P2"])
        monkeypatch.setattr(problem, "Gradients", fail)
        with pytest.raises(RuntimeError):
            failing._tables
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_each_tape_binds_only_the_kernels_of_the_mode_it_runs():
    spec = parse_problem(TEXTS["P1"])
    certify(spec, CandidatePoint([0.0], [0.0]), CheckConfig())
    for tape in (spec._bundle_program.tape, spec._upper_program.tape):
        assert "_float_code" in vars(tape) and "_array_code" not in vars(tape)
    verify_minimax_definition(spec, [0.0], [0.0], GridSpec())
    inner, outer, f_only = spec._oracle_tapes
    for tape in (inner, outer):
        assert "_array_code" in vars(tape) and "_float_code" not in vars(tape)
    assert "_float_code" in vars(f_only) and "_array_code" not in vars(f_only)
