"""Every numeric decision in `minimaxcert` reads a `CheckConfig` field or a
named noise floor: no module hides a small or a large float literal.

A float literal in (0, 1e-5), or of at least 1e5, under `src/minimaxcert/`
(outside `config.py`, the home of the `tol_*` fields) is allowed only as the value of a
module-level UPPER_CASE assignment, the floor's one home, or as a `GridSpec`
field default, which `perfbench/run.py` and the tests build without a config.
A literal digits argument of `round`/`np.round` is allowed only on such a
constant's line too (a rounding key is a tolerance of 10^-digits that no
float literal shows).
Conversely, every `CheckConfig` field is read by the code it configures, so
that no knob outlives its code.
"""

import ast
import io
import tokenize
from dataclasses import fields
from pathlib import Path

import minimaxcert
from minimaxcert import CheckConfig

SRC = Path(minimaxcert.__file__).resolve().parent


def _allowed_lines(tree: ast.Module) -> set[int]:
    """Lines of module-level UPPER_CASE constants and of GridSpec's fields."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
            isinstance(t, ast.Name) and t.id.isupper() for t in node.targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, ast.ClassDef) and node.name == "GridSpec":
            for field in node.body:
                if isinstance(field, ast.AnnAssign):
                    lines.update(range(field.lineno, field.end_lineno + 1))
    return lines


def _round_digits(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(line, column, source) of each literal digits argument of a call to
    `round` or to an attribute `round` (`np.round`, `array.round`)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not (
                isinstance(node.func, ast.Name) and node.func.id == "round"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "round"):
            continue
        digits = [*node.args[1:], *(k.value for k in node.keywords
                                    if k.arg in ("ndigits", "decimals"))]
        for arg in digits:
            operand = arg.operand if isinstance(arg, ast.UnaryOp) else arg
            if isinstance(operand, ast.Constant) and isinstance(operand.value, int):
                found.append((arg.lineno, arg.col_offset, ast.unparse(arg)))
    return found


def unnamed_literals(path: Path) -> list[str]:
    """'file:line: literal' for each unnamed float literal in (0, 1e-5) or
    of at least 1e5 (a tolerance, or a growth or scale bound), and
    'file:line: round digits d' for each literal digits argument of a
    rounding call (a de-duplication or comparison key)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    allowed = _allowed_lines(tree)
    hits = [(line, col, f"round digits {digits}")
            for line, col, digits in _round_digits(tree)]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
            continue
        value = float(tok.string.replace("_", "")) if not tok.string.isdigit() else 0.0
        if 0.0 < value < 1e-5 or value >= 1e5:
            hits.append((*tok.start, tok.string))
    return [f"{path.name}:{line}: {what}" for line, _, what in sorted(hits)
            if line not in allowed]


def test_no_unnamed_tolerance_literals():
    hits = [hit for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
            for hit in unnamed_literals(path)]
    assert hits == []


def test_the_scan_sees_literals_outside_named_homes(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "FLOOR = 1e-12\n"
        "GROWTH = 1e8\n"
        "class GridSpec:\n"
        "    tol: float = 1e-9\n"
        "def f(x, tol=1e-9):\n"
        "    local = 1e-10\n"
        "    return x > -2.5e-7 and x < 1e-5 and x != 0.5 and x < 99999.0\n"
        "def g(x, steps=100000):\n"
        "    return x > 1e5 * (1.0 + steps) or x < -2.5E+12\n"
        "DIGITS = round(0.5, 3)\n"
        "def h(x):\n"
        "    return round(x), round(x, DIGITS), np.round(x, 9), x.round(decimals=-2)\n",
        encoding="utf-8",
    )
    assert unnamed_literals(source) == [
        "sample.py:5: 1e-9", "sample.py:6: 1e-10", "sample.py:7: 2.5e-7",
        "sample.py:9: 1e5", "sample.py:9: 2.5E+12",
        "sample.py:12: round digits 9", "sample.py:12: round digits -2",
    ]


def _attributes(tree: ast.AST, owner: str | None = None) -> set[str]:
    """The attribute names read in tree, only those of the name `owner` when given."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and (owner is None or isinstance(node.value, ast.Name) and node.value.id == owner)}


def test_every_config_field_is_read_outside_config():
    # a field counts as read when src/ outside config.py reads it, or reads a
    # CheckConfig method that reads it (the oracle_* keys reach the oracle
    # through oracle_grid()); validation alone does not count
    read = set().union(*(_attributes(ast.parse(path.read_text(encoding="utf-8")))
                         for path in SRC.glob("*.py") if path.name != "config.py"))
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "CheckConfig")
    for method in config.body:
        if isinstance(method, ast.FunctionDef) and method.name in read:
            read |= _attributes(method, "self")
    assert [f.name for f in fields(CheckConfig) if f.name not in read] == []
