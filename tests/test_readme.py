"""README's `python` blocks run as written, so the library example keeps up
with the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert "certified-local-minimax" in capsys.readouterr().out
