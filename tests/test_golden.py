"""Golden CLI reports: stdout, stderr, exit code and JSON document of the
subcommands on P1-P4 and on the benchmark's degenerate `selector` problem,
checked byte for byte against the files in tests/golden/.

A change that means to alter a report rewrites the files with

    python tests/test_golden.py

which writes only the files whose text changed, removes those that no case
names, and prints their names; the change says so in CHANGES.md.  The test
prints a diff on any mismatch.
"""

import difflib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from minimaxcert.cli import main
from minimaxcert.fixtures import fixture_text

from conftest import perfbench_workloads

GOLDEN = Path(__file__).resolve().parent / "golden"

# the selector workload's first op sits on the lattice (necessary conditions
# pass); its fourth is moved off it (inconclusive)
_SELECTOR_OPS = {"lattice": 0, "shifted": 3}


def _selector_point(name):
    cand = perfbench_workloads().selector(1).op(_SELECTOR_OPS[name]).candidates[0]
    return ["--x=" + ",".join(map(repr, cand.x)), "--y=" + ",".join(map(repr, cand.y))]


def _origin():
    return ["--x", "0", "--y", "0"]


# the selector problem's subdiff on a coarser Clarke grid: 3^4 samples, of
# which the 16 all-0/1 ones are the B-selectors
_COARSE = "beta_grid_resolution = 3\n"

# case name -> (command, problem, candidate flags[, config file text])
CASES = {
    "validate-P1": ("validate", "P1", []),
    "certify-P1-origin": ("certify", "P1", _origin()),
    "certify-P1-refuted": ("certify", "P1", ["--x", "0.5", "--y", "0.5"]),
    "certify-P1-lambda": ("certify", "P1", [*_origin(), "--lambda", "0"]),
    "certify-P1-not-kkt": ("certify", "P1", ["--x", "0", "--y", "0.5"]),
    "certify-P2-origin": ("certify", "P2", _origin()),
    "certify-P2-lambda": ("certify", "P2", [*_origin(), "--lambda", "0.5"]),
    "certify-P3-origin": ("certify", "P3", _origin()),
    "certify-P3-infeasible": ("certify", "P3", ["--x", "0.5", "--y", "0.5"]),
    "certify-P4-origin": ("certify", "P4", _origin()),
    "certify-P4-bound": ("certify", "P4", ["--x", "1", "--y", "1"]),
    "certify-P4-bound-v": ("certify", "P4", ["--x", "1", "--y", "1", "--v", "-3"]),
    "certify-selector-lattice": ("certify", "selector", _selector_point("lattice")),
    "certify-selector-shifted": ("certify", "selector", _selector_point("shifted")),
    "subdiff-P1-origin": ("subdiff", "P1", _origin()),
    "subdiff-P2-origin": ("subdiff", "P2", _origin()),
    "subdiff-selector-lattice": ("subdiff", "selector", _selector_point("lattice"),
                                 _COARSE),
    "value-derivs-P1-origin": ("value-derivs", "P1", _origin()),
    "value-derivs-P2-origin": ("value-derivs", "P2", _origin()),
    "solve-lower-P1-origin": ("solve-lower", "P1", _origin()),
    "oracle-P1-origin": ("oracle", "P1", _origin()),
    "oracle-P2-origin": ("oracle", "P2", _origin()),
    "oracle-P3-origin": ("oracle", "P3", _origin()),
    "oracle-P4-origin": ("oracle", "P4", _origin()),
}


def _problem_text(name):
    if name == "selector":
        return perfbench_workloads().selector(1).problems["degenerate"]
    return fixture_text(name)


def run_case(name, tmp_path):
    """The case's outputs as one text: exit code, stdout, stderr and the
    JSON document (empty when the command wrote none)."""
    command, problem, flags, *config = CASES[name]
    path = tmp_path / f"{problem}.prob"
    path.write_text(_problem_text(problem), encoding="utf-8")
    if config:
        (tmp_path / "config.txt").write_text(config[0], encoding="utf-8")
        flags = [*flags, "--config", str(tmp_path / "config.txt")]
    out = tmp_path / f"{name}.json"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([command, str(path), *flags, "--json", str(out)])
    doc = out.read_text(encoding="utf-8") if out.exists() else ""
    text = (f"exit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
            f"--- json\n{doc}\n")
    return text.replace(str(tmp_path), "<tmp>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    got = run_case(name, tmp_path)
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"golden/{name}.txt", "now", n=2))
        pytest.fail(f"{name} differs from its golden file:\n{diff[:20000]}")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def regenerate():
    """Rewrite the golden files whose text changed, remove those of no case,
    and print their names."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        texts = {name: run_case(name, Path(tmp)) for name in CASES}
    for old in sorted(GOLDEN.glob("*.txt")):
        if old.stem not in texts:
            old.unlink()
            print(f"removed {old.name}")
    changed = 0
    for name, text in texts.items():
        path = GOLDEN / f"{name}.txt"
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.name}")
            changed += 1
    print(f"{changed} of {len(texts)} golden files changed in {GOLDEN}")


if __name__ == "__main__":
    regenerate()
