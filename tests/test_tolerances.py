"""Every numeric decision in `minimaxcert` reads a `CheckConfig` field or a
named noise floor: no module hides a small float literal.

A float literal in (0, 1e-5) under `src/minimaxcert/` (outside `config.py`,
the home of the `tol_*` fields) is allowed only as the value of a
module-level UPPER_CASE assignment, the floor's one home, or as a `GridSpec`
field default, which `perfbench/run.py` and the tests build without a config.
"""

import ast
import io
import tokenize
from pathlib import Path

import minimaxcert

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


def small_float_literals(path: Path) -> list[str]:
    """'file:line: literal' for each unnamed float literal in (0, 1e-5)."""
    text = path.read_text(encoding="utf-8")
    allowed = _allowed_lines(ast.parse(text))
    hits = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
            continue
        value = float(tok.string.replace("_", "")) if not tok.string.isdigit() else 0.0
        if 0.0 < value < 1e-5 and tok.start[0] not in allowed:
            hits.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return hits


def test_no_unnamed_tolerance_literals():
    hits = [hit for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
            for hit in small_float_literals(path)]
    assert hits == []


def test_the_scan_sees_literals_outside_named_homes(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "FLOOR = 1e-12\n"
        "class GridSpec:\n"
        "    tol: float = 1e-9\n"
        "def f(x, tol=1e-9):\n"
        "    local = 1e-10\n"
        "    return x > -2.5e-7 and x < 1e-5 and x != 0.5\n",
        encoding="utf-8",
    )
    assert small_float_literals(source) == [
        "sample.py:4: 1e-9", "sample.py:5: 1e-10", "sample.py:6: 2.5e-7",
    ]
