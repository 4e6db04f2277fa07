import numpy as np
import pytest

from minimaxcert.fixtures import fixture_text
from minimaxcert.problem import (
    CandidatePoint,
    ProblemFormatError,
    eval_bundle,
    parse_problem,
    problem_digest,
    serialize_problem,
)
from conftest import evaluate


P1_TEXT = """\
dims 1 1 0 1 0 1
f = x1*y1 - 0.5*y1^2
g1 = y1 - 1
G1 = x1 - 2
"""

P2_TEXT = """\
dims 1 1 0 1 0 0
f = -(y1-x1)^2
g1 = y1
"""


def test_parse_p1_and_evaluate():
    spec = parse_problem(P1_TEXT)
    assert (spec.n, spec.m, spec.m1, spec.m2, spec.n1, spec.n2) == (1, 1, 0, 1, 0, 1)
    assert evaluate(spec.f, [1.0], [1.0]) == pytest.approx(0.5)


def test_parse_p2_and_evaluate():
    spec = parse_problem(P2_TEXT)
    assert evaluate(spec.f, [0.0], [0.0]) == 0.0


def test_y_variable_in_upper_constraint_rejected():
    bad = "dims 1 1 0 0 0 1\nf = x1\nG1 = y1\n"
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(bad)
    assert "y1" in str(err.value)
    assert "line 3" in str(err.value)


def test_dimension_mismatches_rejected():
    with pytest.raises(ProblemFormatError):
        parse_problem("dims 1 1 0 2 0 0\nf = x1\ng1 = y1\n")  # missing g2
    with pytest.raises(ProblemFormatError):
        parse_problem("dims 1 1 0 0 0 0\nf = x1\ng1 = y1\n")  # undeclared g1
    with pytest.raises(ProblemFormatError):
        parse_problem("dims 1 1 0 0 0 0\nf = x2\n")  # x2 out of range


@pytest.mark.parametrize("text, message, line", [
    ("f = x1\n", "first line must be 'dims n m m1 m2 n1 n2'", 1),
    ("dims 1 1 0 0 0\nf = x1\n", "dims expects 6 integers", 1),
    ("# header\ndims 1 1 0 0 0 x\nf = x1\n", "dims entries must be integers", 2),
    ("dims 1 1 0 -1 0 0\nf = x1\n", "dims entries must be nonnegative", 1),
    ("dims 1 1 0 0 0 0\nf := x1\n", "expected an assignment, got 'f := x1'", 2),
    ("dims 1 1 0 0 0 0\nf1 = x1\n", "objective is plain 'f'", 2),
    ("dims 1 1 0 1 0 0\nf = x1\ng = y1\n", "constraint 'g' needs an index", 3),
    ("dims 1 1 0 0 0 0\nf = x1\n\nf = y1\n", "duplicate assignment for f", 4),
    ("# no dims\n\n", "missing 'dims' line", 0),
    ("dims 1 1 0 1 0 0\ng1 = y1\n", "missing objective 'f'", 0),
])
def test_grammar_errors_name_their_line(text, message, line):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert str(err.value) == (f"line {line}: {message}" if line else message)
    assert err.value.line == line


def test_syntax_error_carries_line():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem("dims 1 1 0 0 0 0\nf = x1 + + y1\n")
    assert "line 2" in str(err.value)


def test_parse_serialize_parse_idempotent():
    for name in ("P1", "P2", "P3", "P4"):
        spec = parse_problem(fixture_text(name))
        text = serialize_problem(spec)
        again = parse_problem(text)
        assert again == spec
        assert serialize_problem(again) == text
        assert problem_digest(again) == problem_digest(spec)


def _flat_sum(terms, last="x1*y1"):
    return f"dims 1 1 0 0 0 0\nf = {' + '.join(['x1*y1'] * (terms - 1) + [last])} - y1^2\n"


def test_spec_equality_compares_the_fields():
    from minimaxcert.expressions import Add, Const, Var
    from minimaxcert.problem import ProblemSpec

    spec = parse_problem(fixture_text("P1"))
    assert spec == parse_problem(fixture_text("P1"))
    assert spec != parse_problem(fixture_text("P2"))
    assert spec != parse_problem(fixture_text("P1").replace("f = ", "f = 1 + ", 1))
    assert (spec == 0) is False and spec != 0
    assert type(spec).__hash__ is None  # mutable fields: unhashable
    # flat sums nest one level per term, deeper than a recursive compare goes
    long = parse_problem(_flat_sum(900))
    assert long == parse_problem(_flat_sum(900))
    assert long != parse_problem(_flat_sum(900, last="x1*x1"))
    # leaves compare by value: 0.0 == -0.0
    y = Var("y", 0)
    assert ProblemSpec(1, 1, 0, 0, 0, 0, Add(Const(0.0), y)) == \
        ProblemSpec(1, 1, 0, 0, 0, 0, Add(Const(-0.0), y))


def test_comments_and_blank_lines_ignored():
    spec = parse_problem("# header\n\ndims 1 1 0 0 0 0  # dims\nf = x1*y1 # objective\n")
    assert evaluate(spec.f, [2.0], [3.0]) == 6.0


def test_eval_bundle_p1_at_origin():
    spec = parse_problem(P1_TEXT)
    b = eval_bundle(spec, [0.0], [0.0])
    assert b.fy[0] == pytest.approx(0.0)
    assert b.fyy[0, 0] == pytest.approx(-1.0)
    assert b.g_jy[0, 0] == pytest.approx(1.0)
    assert b.g[0] == pytest.approx(-1.0)


def test_eval_bundle_p2_at_origin():
    spec = parse_problem(P2_TEXT)
    b = eval_bundle(spec, [0.0], [0.0])
    assert b.fyy[0, 0] == pytest.approx(-2.0)
    assert b.fyx[0, 0] == pytest.approx(2.0)


def test_cross_blocks_are_mutual_transposes():
    from minimaxcert.expressions import Var, differentiate

    rng = np.random.default_rng(3)
    spec = parse_problem(
        "dims 2 2 0 1 0 0\n"
        "f = x1*y1 - 0.5*y1^2 + exp(x2*y2/4) - y2^2\n"
        "g1 = y1 + y2 - 1\n"
    )
    # the bundle builds only fyx; the other order, d/dy_j of df/dx_i, is walked
    fxy = [[differentiate(differentiate(spec.f, Var("x", i)), Var("y", j)) for j in range(2)]
           for i in range(2)]
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        b = eval_bundle(spec, x, y)
        walked = np.array([[evaluate(e, x, y) for e in row] for row in fxy])
        assert np.max(np.abs(walked - b.fyx.T)) <= 1e-12
        for block in (b.fxx, b.fyy, b.g_xx[0], b.g_yy[0]):
            assert np.array_equal(block, block.T)
        assert not hasattr(b, "fxy")


def test_certify_releases_the_tables_and_keeps_the_outputs():
    """The derivative tables go once both certify programs are compiled, and
    the programs' outputs stay bit-identical to a fresh spec's."""
    from minimaxcert.certify import certify
    from minimaxcert.upper import upper_data

    text = ("dims 2 2 1 1 1 1\n"
            "f = x1*y1 - y1^2 - y2^2 + exp(x2*y2) + x1^2\n"
            "h1 = y1 + y2 - x2\n"
            "g1 = y1*x1 - 1\n"
            "H1 = x1 - x2^2\n"
            "G1 = x1*x2 - 1\n")
    spec = parse_problem(text)
    eval_bundle(spec, [0.5, 0.25], [0.1, 0.2])
    assert "_tables" in vars(spec)  # the upper program still reads them
    certify(spec, CandidatePoint([0.0, 0.0], [0.0, 0.0]))
    assert "_tables" not in vars(spec)
    fresh = parse_problem(text)
    for x, y in (([0.0, 0.0], [0.0, 0.0]), ([0.7, -1.3], [0.4, 2.1])):
        got, want = eval_bundle(spec, x, y), eval_bundle(fresh, x, y)
        for name, value in vars(want).items():
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(value).tobytes()
        got, want = upper_data(spec, x), upper_data(fresh, x)
        for name, value in vars(want).items():
            assert getattr(got, name).tobytes() == value.tobytes()
    assert "_tables" not in vars(spec)


def test_hessian_tables_hold_one_expr_per_unordered_pair():
    from minimaxcert.expressions import Var, differentiate, to_string

    from conftest import dense_block

    spec = parse_problem(
        "dims 3 2 1 1 1 1\n"
        "f = x1*x2*y1 - y1^2*y2 + exp(x3*y2) - cos(x1*x3)\n"
        "h1 = y1*x2 + sin(y2*x1) - x3\n"
        "g1 = y1^2*y2 + x1*x2*x3 - 1\n"
        "H1 = x1*x2 - x3^2\n"
        "G1 = exp(x1*x3) + x2^3\n"
    )
    tabs = spec._tables
    rows = {"f": [tabs["f"]], **{c: tabs[c] for c in "hgHG"}}
    xs = [Var("x", i) for i in range(3)]
    ys = [Var("y", i) for i in range(2)]
    for name, entries in rows.items():
        x_only = name in "HG"
        blocks = [("xx", "x", xs)] if x_only else [("xx", "x", xs), ("yy", "y", ys)]
        for row in entries:
            assert set(row) == ({"x", "xx"} if x_only else {"x", "y", "xx", "yx", "yy"})
            for block, grad, vs in blocks:
                fill, stored = row[block][0], dict(row[block][1])
                assert fill.tobytes() == fill.T.copy().tobytes()
                hess, gr = dense_block(*row[block]), dense_block(*row[grad])
                for i in range(len(vs)):
                    for j in range(i, len(vs)):
                        # one Expr per unordered pair, stored or in the fill
                        assert stored.get(j * len(vs) + i) is stored.get(i * len(vs) + j)
                        # to_string tells 0.0 from -0.0, which == does not
                        want = differentiate(gr[i], vs[j])
                        assert to_string(hess[i, j]) == to_string(want)
                        assert to_string(hess[j, i]) == to_string(want)


def _lattice_text(n, m2, active, rng):
    """A problem shaped like the benchmark's lattice family: n = m,
    f = -sum q_i z_i^2 - sum c_i z_i z_(i+1) + sum b_i (1 - cos x_i) with
    z_i = y_i - s_i(x) - e_i, s_i(x) = a_i sin(x_i) + d_i x_(i+1), and
    g_i = y_i - s_i(x) - off_i for i < m2, the first `active` binding at
    x = 0.  Returns the text and the inner maximiser y at x = 0."""
    q, b = rng.uniform(1.0, 2.0, n).round(3), rng.uniform(0.5, 1.5, n).round(3)
    c = rng.uniform(-0.5, 0.5, n - 1).round(3)
    a, d = rng.uniform(0.2, 0.8, n).round(3), rng.uniform(-0.3, 0.3, n).round(3)
    e = rng.uniform(-1.0, 1.0, n).round(3)
    lam = np.zeros(n)
    lam[:active] = rng.uniform(0.5, 1.5, active)
    z_star = -0.5 * np.linalg.solve(
        np.diag(q) + np.diag(c / 2, 1) + np.diag(c / 2, -1), lam)
    off = e[:m2] + z_star[:m2] + np.r_[np.zeros(active), rng.uniform(0.5, 1.0, m2 - active)]
    num = lambda v: repr(float(v))  # noqa: E731
    s = [f"({num(a[i])}*sin(x{i + 1}) + {num(d[i])}*x{(i + 1) % n + 1})" for i in range(n)]
    z = [f"(y{i + 1} - {s[i]} - {num(e[i])})" for i in range(n)]
    f = [f"- {num(q[i])}*{z[i]}^2" for i in range(n)]
    f += [f"- {num(c[i])}*{z[i]}*{z[i + 1]}" for i in range(n - 1)]
    f += [f"+ {num(b[i])}*(1 - cos(x{i + 1}))" for i in range(n)]
    lines = [f"dims {n} {n} 0 {m2} 0 0", "f = " + " ".join(f)]
    lines += [f"g{i + 1} = y{i + 1} - {s[i]} - {num(off[i])}" for i in range(m2)]
    return "\n".join(lines) + "\n", e + z_star


def test_shared_tables_compile_to_the_entry_by_entry_tape():
    from minimaxcert.certify import certify
    from minimaxcert.report import dumps_canonical, report_to_doc

    from conftest import Differentiator, reference_tables

    text, y_star = _lattice_text(20, 10, 5, np.random.default_rng(5))
    shared, dense = parse_problem(text), parse_problem(text)
    # each entry from its own per-pair reference differentiator
    dense.__dict__["_tables"] = reference_tables(dense, lambda e, v: Differentiator()(e, v))

    def code(spec):
        # a float kernel that tests a domain is a partial with its node bound
        tape = spec._bundle_program.tape
        return (tape._array_code,
                [(getattr(op, "func", op), getattr(op, "args", ()), s, a, b)
                 for op, s, a, b in tape._float_code],
                tape._out_pos.tolist(), tape._out_slot, tape.template.tobytes(),
                [repr(v) for v in tape._init], tape._loads)

    assert code(shared) == code(dense)
    candidate = CandidatePoint(np.zeros(20), y_star)
    reports = [dumps_canonical(report_to_doc(certify(spec, candidate)))
               for spec in (shared, dense)]
    assert reports[0] == reports[1]
    assert '"verdict":"certified-local-minimax"' in reports[0]


def test_table_build_grows_with_the_nonconstant_entries(monkeypatch):
    """From n = m = 20 to 40 the bundle's flat entries grow 7.5-fold, its
    non-constant entries about 2-fold.  The derivative rules are applied,
    and the tape is handed entries, in proportion to the latter: the tape
    gets the non-constant entries and the nonzero constants (f's constant
    y Hessian, g's constant gradients), not the zeros, and the rules
    applied per non-constant entry stay level.  (Per (node, variable) pair,
    the rules ran 24 times per non-constant entry at n = 20 and 32 at 40.)"""
    from minimaxcert import expressions, problem

    rules, handed = [0], []
    for kind, rule in list(expressions._RULES.items()):
        def counted(e, da, db, rule=rule):
            rules[0] += 1
            return rule(e, da, db)
        monkeypatch.setitem(expressions._RULES, kind, counted)

    class CountingTape(expressions.Tape):
        def __init__(self, exprs, *args):
            handed.append(len(exprs))
            super().__init__(exprs, *args)

    monkeypatch.setattr(problem, "Tape", CountingTape)
    counts = {}
    for n in (20, 40):
        text, _ = _lattice_text(n, n // 2, n // 4, np.random.default_rng(5))
        rules[0] = 0
        tape = parse_problem(text)._bundle_program.tape
        nonconst = tape._out_pos.size
        assert nonconst < handed[-1] < 1.5 * nonconst
        counts[n] = (tape.template.size, nonconst, rules[0])
    (flat20, nonconst20, rules20), (flat40, nonconst40, rules40) = counts[20], counts[40]
    assert (flat20, flat40) == (13651, 102501)
    assert nonconst40 < 2.1 * nonconst20
    assert rules40 / nonconst40 < 1.1 * rules20 / nonconst20
    assert rules20 < 20 * nonconst20


def test_bundle_leaves_h_and_g_to_upper_data():
    from minimaxcert.expressions import DomainError
    from minimaxcert.upper import upper_data

    # G1 is undefined at x1 = -1 while f and g are fine: the bundle never
    # evaluates G, and upper_data names G1's node
    spec = parse_problem("dims 1 1 0 1 0 1\nf = x1*y1 - 0.5*y1^2\n"
                         "g1 = y1 - 1\nG1 = log(x1)\n")
    b = eval_bundle(spec, [-1.0], [0.0])
    assert b.f == 0.0 and not hasattr(b, "GU")
    with pytest.raises(DomainError, match=r"log\(x1\)"):
        upper_data(spec, [-1.0])
    assert upper_data(spec, [1.0]).JG.tolist() == [[1.0]]


def test_candidate_validation():
    spec = parse_problem(P1_TEXT)
    cand = CandidatePoint([0.0], [0.0], lam=[0.0])
    cand.validate_against(spec)
    with pytest.raises(ValueError):
        CandidatePoint([0.0], [0.0], lam=[np.inf])
    with pytest.raises(ValueError):
        CandidatePoint([0.0, 1.0], [0.0]).validate_against(spec)


def test_domain_error_reports_expression():
    spec = parse_problem("dims 1 1 0 0 0 0\nf = log(x1)\n")
    with pytest.raises(Exception) as err:
        eval_bundle(spec, [-1.0], [0.0])
    assert "log" in str(err.value)
