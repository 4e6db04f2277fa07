"""README's `python` blocks run as written, so the library example keeps up
with the API, its Tolerances table has one row per `CheckConfig` field, and
every `module.name` that README or a module's text names still exists."""

import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import minimaxcert
from minimaxcert import CheckConfig

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(minimaxcert.__file__).resolve().parent


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


def test_backticked_module_names_resolve():
    """A backticked `module.name` in README.md or in a module's source, with
    module one of the package's, names an attribute of minimaxcert.module;
    file names such as `config.py` do not count."""
    modules = {m.name for m in pkgutil.iter_modules([str(PACKAGE)])}
    refs = set()
    for path in [README, *sorted(PACKAGE.glob("*.py"))]:
        for module, name in re.findall(r"`(\w+)\.(\w+)`", path.read_text(encoding="utf-8")):
            if module in modules and not (PACKAGE / f"{module}.{name}").exists():
                refs.add((module, name))
    missing = sorted(f"{module}.{name}" for module, name in refs
                     if not hasattr(importlib.import_module(f"minimaxcert.{module}"), name))
    assert len(refs) >= 20 and not missing
