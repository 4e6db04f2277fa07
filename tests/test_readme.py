"""README's `python` blocks run as written, so the library example keeps up
with the API, and its Tolerances table has one row per `CheckConfig` field."""

import re
from dataclasses import fields
from pathlib import Path

from minimaxcert import CheckConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert "certified-local-minimax" in capsys.readouterr().out


def test_readme_tolerance_table_names_every_tol_field():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = [m.group(1) for m in re.finditer(r"^\| `(\w+)` \|", section, re.M)]
    # both ways: a field without a row fails, and so does a row of a field
    # that is gone; the floors' rows (`module.NAME`) do not match
    assert sorted(rows) == sorted(f.name for f in fields(CheckConfig))
