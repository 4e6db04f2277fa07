import argparse
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minimaxcert import CandidatePoint, certify, cli, load_fixture
from minimaxcert.cli import main
from minimaxcert.config import CheckConfig
from minimaxcert.fixtures import fixture_text
from minimaxcert.problem import parse_problem
from minimaxcert.report import (
    SCHEMA_VERSION,
    dumps_canonical,
    loads,
    render_summary,
    report_to_doc,
)

from conftest import (
    CROSS_TEXT,
    VALUE_ASYMMETRY_TEXT,
    perfbench_workloads,
    reference_dumps_canonical,
)


@pytest.fixture()
def prob_files(tmp_path):
    paths = {}
    for name in ("P1", "P2", "P3", "P4"):
        p = tmp_path / f"{name}.prob"
        p.write_text(fixture_text(name), encoding="utf-8")
        paths[name] = str(p)
    return paths


def test_validate_ok(prob_files, capsys):
    assert main(["validate", prob_files["P1"]]) == 0
    out = capsys.readouterr().out
    assert "valid problem" in out


def test_validate_broken_reports_line(tmp_path, capsys):
    bad = tmp_path / "broken.prob"
    bad.write_text("dims 1 1 0 0 0 1\nf = x1\nG1 = y1\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_certify_exit_codes(prob_files, capsys):
    assert main(["certify", prob_files["P1"], "--x", "0", "--y", "0"]) == 0
    assert main(["certify", prob_files["P1"], "--x", "0.5", "--y", "0.5"]) == 2
    assert main(["certify", prob_files["P2"], "--x", "0", "--y", "0"]) == 0
    capsys.readouterr()


def test_certify_inconclusive_exit_code(prob_files, tmp_path, capsys):
    # infeasible candidate -> inconclusive -> exit 3
    assert main(["certify", prob_files["P4"], "--x", "0.5", "--y", "0"]) == 3
    capsys.readouterr()


def test_certify_report_verdict_matches_exit(prob_files, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["certify", prob_files["P1"], "--x", "0", "--y", "0",
                 "--json", str(out)])
    capsys.readouterr()
    doc = loads(out.read_text(encoding="utf-8"))
    assert code == 0
    assert doc["verdict"] == "certified-local-minimax"
    assert doc["command"] == "certify"
    assert doc["results"]


def test_json_report_round_trips_to_identical_summary(prob_files, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["certify", prob_files["P1"], "--x", "0", "--y", "0", "--json", str(out)])
    printed = capsys.readouterr().out
    doc = loads(out.read_text(encoding="utf-8"))
    assert render_summary(doc) == printed
    # a second render from a re-serialized document is byte-identical
    again = loads(dumps_canonical(doc))
    assert render_summary(again) == printed


def test_consecutive_runs_byte_identical(prob_files, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["certify", prob_files["P2"], "--x", "0", "--y", "0", "--json", str(a)])
    main(["certify", prob_files["P2"], "--x", "0", "--y", "0", "--json", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# every code point, lone surrogates included, and the characters JSON escapes
_TEXT = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800'))
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


@given(_DOCS)
def test_canonical_writer_matches_json_dumps_on_text(doc):
    """Keys, strings, integers, booleans and null come out as json.dumps
    writes them with its default ensure_ascii and compact separators."""
    assert dumps_canonical(doc) == json.dumps(doc, separators=(",", ":"))


class _Str(str):
    """A str subclass: the writer refuses it, as it refuses every value that
    is not of an exact plain type."""


class _Int(int):
    """An int subclass, likewise."""


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e17, 1e-300, 3.0, -2.0, 1e300,
     math.inf, -math.inf, math.nan])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(10**30, 10**40)
            | _FLOATS | _TEXT)
_PLAIN_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=16,
)


@given(_PLAIN_DOCS)
@example([0.0, -0.0, 5e-324, 1e16, 1e17, 1e300, math.nan, -math.inf, 10**40, -(10**30),
          (1.0, "1", True, None), {"": (), "a": {"b": [2.0, -2]}}])
@example(math.inf)
@example(-(10**40))
def test_canonical_writer_matches_the_reference(doc):
    """Plain documents, floats at their edges, bools, big ints and tuples
    included, come out as the reference writes them, top-level scalars too."""
    assert dumps_canonical(doc) == reference_dumps_canonical(doc)


@pytest.mark.parametrize("value", [np.float64(1.5), _Str("a"), _Int(3)],
                         ids=["float64", "str-subclass", "int-subclass"])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"k": v}],
                         ids=["bare", "list", "dict"])
def test_writer_refuses_values_of_plain_subclasses(value, wrap):
    with pytest.raises(TypeError, match=type(value).__name__):
        dumps_canonical(wrap(value))


@pytest.mark.parametrize("key", [1, 1.0, True, None, np.float64(1.0), _Str("j")],
                         ids=["int", "float", "bool", "None", "float64", "str-subclass"])
def test_writer_refuses_keys_that_are_not_str(key):
    with pytest.raises(TypeError, match=type(key).__name__):
        dumps_canonical([{"k": 0, key: 0}])


@pytest.mark.parametrize("value", [np.float32(1.5), np.int64(3), np.zeros(2), {1, 2}],
                         ids=["float32", "int64", "ndarray", "set"])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"k": v},
                                  lambda v: ({"a": [v]},)],
                         ids=["bare", "list", "dict", "nested"])
def test_writers_refuse_the_same_types(value, wrap):
    messages = []
    for writer in (dumps_canonical, reference_dumps_canonical):
        with pytest.raises(TypeError) as info:
            writer(wrap(value))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _assert_plain(value):
    """value holds only dicts with str keys, lists, and float, str, int, bool
    and None, each of exactly that type."""
    t = type(value)
    if t is dict:
        for k, v in value.items():
            assert type(k) is str, f"key {k!r} of {type(k)!r}"
            _assert_plain(v)
    elif t is list:
        for v in value:
            _assert_plain(v)
    else:
        assert t in (float, str, int, bool, type(None)), f"{value!r} of {t!r}"


@pytest.mark.parametrize("value, want", [
    (np.array(0.25), 0.25), (np.bool_(True), True), (np.float32(1.5), 1.5),
    (np.int64(3), 3), (np.array([[1, 2]], dtype=np.int32), [[1, 2]]),
], ids=["0-d-array", "bool_", "float32", "int64", "int-array"])
def test_reports_write_numpy_values_as_their_python_values(value, want):
    report = certify(load_fixture("P1"), CandidatePoint([0.0], [0.0]))
    report.results[0].witness = value
    witness = report_to_doc(report)["results"][0]["witness"]
    assert witness == want and type(witness) is type(want)
    _assert_plain(report_to_doc(report))
    assert json.loads(dumps_canonical(report_to_doc(report)))["results"][0]["witness"] == want


def test_report_documents_are_plain_on_the_golden_certify_cases(tmp_path, monkeypatch):
    from test_golden import CASES, run_case

    docs = []

    def checked(report):
        doc = report_to_doc(report)
        _assert_plain(doc)
        docs.append(doc)
        return doc

    monkeypatch.setattr(cli, "report_to_doc", checked)
    names = [name for name, (command, *_) in CASES.items() if command == "certify"]
    for name in names:
        run_case(name, tmp_path)
    assert len(docs) == len(names)


@pytest.mark.parametrize("workload", ["smooth", "selector", "oracle", "cli_batch"])
def test_report_documents_are_plain_on_the_workload_problems(workload):
    # the first op on each of the workload's problems, every candidate of it
    wl = getattr(perfbench_workloads(), workload)(1)
    for i in wl.setup_ops:
        op = wl.op(i)
        spec = parse_problem(wl.problems[op.problem])
        for c in op.candidates:
            _assert_plain(report_to_doc(certify(spec, CandidatePoint(c.x, c.y))))


_P1_ORIGIN = ["--x", "0", "--y", "0"]


@pytest.mark.parametrize("command, flags", [
    ("validate", []),
    ("certify", _P1_ORIGIN),
    ("certify", [*_P1_ORIGIN, "--x", "0.5", "--y", "0.5"]),
    ("value-derivs", _P1_ORIGIN),
    ("solve-lower", _P1_ORIGIN),
    ("oracle", _P1_ORIGIN),
    ("subdiff", _P1_ORIGIN),
], ids=["validate", "certify", "certify-two", "value-derivs", "solve-lower", "oracle",
        "subdiff"])
def test_loads_reads_every_document_the_commands_write(prob_files, tmp_path, capsys,
                                                       command, flags):
    out = tmp_path / "doc.json"
    main([command, prob_files["P1"], *flags, "--json", str(out)])
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    doc = loads(text)
    assert dumps_canonical(doc) == text
    assert type(doc) is (list if flags.count("--x") > 1 else dict)


@pytest.mark.parametrize("text", [
    '{"version": "0.0.0"}', "{}", f'[{{"version": "{SCHEMA_VERSION}"}}, {{"version": 1}}]',
    '"x"', "3", "null", "[]", f'[{{"version": "{SCHEMA_VERSION}"}}, 1]',
], ids=["old-version", "no-version", "one-old-version", "str", "int", "null",
        "empty-list", "list-of-non-object"])
def test_loads_refuses_other_versions_and_non_objects(text):
    with pytest.raises(ValueError, match="version|object|empty"):
        loads(text)


@pytest.fixture()
def checked_writer(monkeypatch):
    """cli's writer, checked against the reference on every document; the
    texts written, in order."""
    written = []

    def writer(doc):
        text = dumps_canonical(doc)
        assert text == reference_dumps_canonical(doc)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "dumps_canonical", writer)
    return written


def test_certify_documents_match_the_reference_writer(checked_writer, tmp_path, capsys):
    # one benchmark op per problem: 40 candidates on P1-P4 and a lattice file
    wl = perfbench_workloads().cli_batch(3)
    for i, key in enumerate(wl.cycle):
        path = tmp_path / f"{key}.prob"
        path.write_text(wl.problems[key], encoding="utf-8")
        op = wl.op(i)
        argv = ["certify", str(path)]
        for c in op.candidates:
            argv += ["--x=" + ",".join(map(repr, c.x)), "--y=" + ",".join(map(repr, c.y))]
        assert main(argv) == op.exit_code
    capsys.readouterr()
    assert len(checked_writer) == len(wl.cycle)
    assert all(len(json.loads(text)) == len(op.candidates) for text in checked_writer)


_POINTS = {"P1": ("0.3", "0.3"), "P2": ("-0.5", "-0.5"), "P3": ("0", "0"),
           "P4": ("1.5", "1")}


@pytest.mark.parametrize("command", ["validate", "value-derivs", "solve-lower", "oracle",
                                     "subdiff"])
def test_other_documents_match_the_reference_writer(checked_writer, prob_files, capsys,
                                                     command):
    for key, (x, y) in _POINTS.items():
        point = [] if command == "validate" else ["--x", x, "--y", y]
        assert main([command, prob_files[key], *point]) in (0, 2)
    capsys.readouterr()
    assert len(checked_writer) == len(_POINTS)


def test_parser_reuse_keeps_calls_apart(prob_files, tmp_path, capsys, monkeypatch):
    """The parser is built once per process; appended values, usage errors
    and exit codes stay with their own call."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        three = ["--x", "0", "--y", "0", "--x", "0.5", "--y", "0.5", "--x", "0.2", "--y", "0.2"]
        assert main(["certify", prob_files["P1"], *three, "--json", str(first)]) == 2
        assert main(["certify", prob_files["P1"], "--x", "0.1", "--y", "0.1",
                     "--json", str(second)]) == 2
        docs = json.loads(first.read_text(encoding="utf-8"))
        assert [(d["candidate"]["x"], d["candidate"]["y"]) for d in docs] == [
            ([0.0], [0.0]), ([0.5], [0.5]), ([0.2], [0.2])]
        doc = json.loads(second.read_text(encoding="utf-8"))
        assert (doc["candidate"]["x"], doc["candidate"]["y"]) == ([0.1], [0.1])
        capsys.readouterr()
        assert main(["certify", prob_files["P1"], "--x"]) == 1
        assert "expected one argument" in capsys.readouterr().err
        assert main(["certify", prob_files["P1"], "--x", "0", "--y", "0"]) == 0
        assert capsys.readouterr().err == ""
        assert built.count("minimaxcert") == 1
    finally:
        cli._build_parser.cache_clear()


def test_multiple_candidates_parallel(prob_files, tmp_path, capsys):
    out = tmp_path / "multi.json"
    code = main([
        "certify", prob_files["P1"],
        "--x", "0", "--y", "0",
        "--x", "0.5", "--y", "0.5",
        "--json", str(out),
    ])
    capsys.readouterr()
    assert code == 2  # worst verdict wins
    docs = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(docs, list) and len(docs) == 2
    assert docs[0]["verdict"] == "certified-local-minimax"
    assert docs[1]["verdict"] == "refuted"


@pytest.mark.parametrize("flag", ["--mu", "--lambda", "--u", "--v"])
def test_multiplier_flag_count_must_match_candidates(prob_files, capsys, flag):
    # given once it serves every candidate, and once per candidate it is
    # matched by position; any other count would drop or ignore values
    point = ["--x=.5", "--y=.5"] * 3
    assert main(["certify", prob_files["P2"], *point, f"{flag}=1", f"{flag}=7"]) == 1
    assert capsys.readouterr().err == (
        f"error: {flag} is given 2 times and --x 3 times: "
        "give it once, or once per candidate\n")
    assert main(["certify", prob_files["P2"], "--x=.5", "--y=.5", f"{flag}=1",
                 f"{flag}=7"]) == 1
    assert f"{flag} is given 2 times and --x 1 times" in capsys.readouterr().err


def test_multiplier_flag_once_or_once_per_candidate(prob_files, tmp_path, capsys):
    # P2's inner solution at x = 0.5 is y = 0 with lam = 1: every candidate
    # gets the value meant for it, and it verifies
    out = tmp_path / "r.json"
    point = ["--x=.5", "--y=0"] * 3
    for values in ([], ["1"], ["1", "1", "1"]):
        code = main(["certify", prob_files["P2"], *point,
                     *(f"--lambda={v}" for v in values), "--json", str(out)])
        capsys.readouterr()
        docs = json.loads(out.read_text(encoding="utf-8"))
        assert code != 1 and len(docs) == 3
        assert [d["candidate"].get("lam") for d in docs] == [[1.0] if values else None] * 3
        details = {r["detail"] for d in docs for r in d["results"] if r["name"] == "multipliers"}
        assert len(details) == 1
        assert details.pop().startswith("supplied multipliers verified" if values
                                        else "multipliers recovered")


@pytest.mark.parametrize("command", ["value-derivs", "solve-lower", "oracle", "subdiff"])
def test_single_candidate_commands_refuse_more_candidates(prob_files, capsys, command):
    # these commands report on one point, so a second --x/--y pair would be
    # ignored without a word
    point = ["--x", "0.3", "--y", "0", "--x", "0.1", "--y", "0"]
    assert main([command, prob_files["P1"], *point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {command} takes one candidate, and --x and --y are given 2 times\n")


def test_value_derivs_command(prob_files, capsys):
    assert main(["value-derivs", prob_files["P1"], "--x", "0.3", "--y", "0"]) == 0
    out = capsys.readouterr().out
    assert "phi" in out
    assert "grad[0]" in out


def test_value_derivs_hessian_matches_fd(prob_files, tmp_path, capsys):
    # P2 at x = 0.3: g1 = y1 is active with lam = 0.6 and phi = -x^2
    out = tmp_path / "vd.json"
    assert main(["value-derivs", prob_files["P2"], "--x", "0.3", "--y", "0",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    rows = {r["entry"]: r for r in loads(out.read_text(encoding="utf-8"))["fd_table"]}
    assert rows["hess[0,0]"]["analytic"] == pytest.approx(-2.0)
    assert rows["hess[0,0]"]["abs_diff"] <= 1e-9


def test_value_derivs_at_a_kink_is_usage_error(prob_files, capsys):
    # P2 at the origin: g1 = y1 is active with a zero multiplier, so phi has
    # no Hessian there
    assert main(["value-derivs", prob_files["P2"], "--x", "0", "--y", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "strict complementarity" in err
    assert "Traceback" not in err


def test_solve_lower_command(prob_files, capsys):
    assert main(["solve-lower", prob_files["P1"], "--x", "0.3", "--y", "0"]) == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert "iter" in out


def test_solve_lower_at_large_cross_derivatives_converges(tmp_path, capsys):
    prob = tmp_path / "scaled.prob"
    prob.write_text("dims 1 1 0 0 0 0\nf = 1e4*sin(x1*y1)*cos(x1+y1) - 2e4*y1^2\n",
                    encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["solve-lower", str(prob), "--x", "1", "--y", "0.5",
                 "--json", str(out)]) == 0
    assert capsys.readouterr().out.startswith("converged in 5 iterations")
    assert loads(out.read_text(encoding="utf-8"))["y"] == pytest.approx([0.093576], abs=1e-6)


@pytest.mark.parametrize("text, x, y, code", [
    pytest.param(CROSS_TEXT.format(scale="1e3*"), "2.213", "0.738", 0, id="certified"),
    # grad phi != 0 there with no outer constraint: refuted, exit 2
    pytest.param(VALUE_ASYMMETRY_TEXT, "1.013,0.987166831194472", "0.764", 2,
                 id="value-hessian-asymmetry"),
])
def test_large_second_derivatives_exit_codes(text, x, y, code, tmp_path, capsys):
    prob = tmp_path / "scaled.prob"
    prob.write_text(text, encoding="utf-8")
    assert main(["certify", str(prob), "--x", x, "--y", y]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_oracle_command(prob_files, capsys):
    assert main(["oracle", prob_files["P1"], "--x", "0", "--y", "0"]) == 0
    assert main(["oracle", prob_files["P1"], "--x", "0.5", "--y", "0.5"]) == 2
    capsys.readouterr()


def test_oracle_command_over_the_grid_cap_is_usage_error(tmp_path, capsys):
    # n = m = 2 at the default step: 201^2 x-points by 401^2 y-points
    prob = tmp_path / "two.prob"
    prob.write_text("dims 2 2 0 0 0 0\nf = x1^2 + x2^2 - y1^2 - y2^2\n", encoding="utf-8")
    assert main(["oracle", str(prob), "--x", "0,0", "--y", "0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(201**2 * 401**2) in err


def test_subdiff_command(prob_files, capsys):
    assert main(["subdiff", prob_files["P2"], "--x", "0", "--y", "0"]) == 0
    out = capsys.readouterr().out
    assert "candidate gradients" in out


def test_missing_candidate_is_usage_error(prob_files, capsys):
    assert main(["certify", prob_files["P1"]]) == 1
    capsys.readouterr()


def test_unknown_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/problem.prob"]) == 1
    capsys.readouterr()


def test_config_file_overrides(prob_files, tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("tol_pd = 1e-6\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["certify", prob_files["P1"], "--x", "0", "--y", "0",
                 "--config", str(cfg), "--json", str(out)]) == 0
    capsys.readouterr()
    doc = loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["tol_pd"] == 1e-6


def test_bad_config_key_is_usage_error(prob_files, tmp_path, capsys):
    # cone_samples went with the cone sampler: the face test has no knob;
    # slack_floor went with the squared-slack Newton; cond_warn could not fire
    # once a nonsingular A(x, W) had condition below 1e12
    cfg = tmp_path / "conf.txt"
    for key, value in (("frobnicate", 1), ("cone_samples", 64), ("slack_floor", 1e-12),
                       ("cond_warn", 1e6)):
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main(["certify", prob_files["P1"], "--x", "0", "--y", "0",
                     "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            CheckConfig(**{key: value})


def test_duplicate_config_key_names_its_line(prob_files, tmp_path, capsys):
    # a repeated key is a mistake in the file, not an override of the first
    cfg = tmp_path / "conf.txt"
    cfg.write_text("tol_act = 1e-6\n# looser\ntol_act = 1e-8\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:3: duplicate config key 'tol_act'")):
        CheckConfig.from_file(str(cfg))
    assert main(["certify", prob_files["P1"], "--x", "0", "--y", "0",
                 "--config", str(cfg)]) == 1
    assert "duplicate config key" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["certify", "oracle"])
def test_bad_oracle_grid_config_is_usage_error(prob_files, tmp_path, capsys, cmd):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("run_oracle = true\noracle_step = 0.5\n", encoding="utf-8")
    assert main([cmd, prob_files["P1"], "--x", "0", "--y", "0",
                 "--config", str(cfg)]) == 1
    assert "step must not exceed delta0" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, line, point", [
    ("certify", "tol_pd = nan", "0"),
    ("certify", "tol_kkt = nan", "0"),
    ("oracle", "oracle_tol = inf", "0.5"),
])
def test_non_finite_config_value_is_usage_error(prob_files, tmp_path, capsys, cmd,
                                                line, point):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main([cmd, prob_files["P1"], "--x", point, "--y", point,
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {line.split()[0]} must be finite\n"


_DEEP_F = {
    "sum": "x1^2 - y1^2 + " + " + ".join(f"{k}*y1" for k in range(2000)),
    "parentheses": "x1^2 - " + "(" * 250 + "y1^2" + ")" * 250,
    "whole-f-parenthesised": "(" * 300 + "x1^2 - y1^2" + ")" * 300,
    "unary-minus": "x1^2 - y1^2 + " + "-" * 2000 + "y1",
}


@pytest.mark.parametrize("cmd", ["validate", "certify"])
@pytest.mark.parametrize("shape", sorted(_DEEP_F))
def test_deeply_nested_expression_is_usage_error(tmp_path, capsys, shape, cmd):
    prob = tmp_path / "deep.prob"
    prob.write_text(f"dims 1 1 0 0 0 0\nf = {_DEEP_F[shape]}\n", encoding="utf-8")
    point = ["--x", "0", "--y", "0"] if cmd == "certify" else []
    assert main([cmd, str(prob), *point]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: an expression is nested too deeply")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["--x", "a", "--y", "0"], "argument --x: bad vector 'a'"),
    (["--x", "0", "--x", "1", "--y", "0"],
     "error: --x and --y must be given the same number of times"),
], ids=["bad-vector", "count-mismatch"])
def test_bad_candidate_flags_are_usage_errors(prob_files, capsys, flags, message):
    assert main(["certify", prob_files["P1"], *flags]) == 1
    assert message in capsys.readouterr().err


def test_flat_sum_of_600_terms_certifies(tmp_path, capsys):
    # the parser builds a left-deep chain, so every tree walk recurses once
    # per term: each must take one frame per level to stay under the limit
    prob = tmp_path / "flat.prob"
    terms = " + ".join(["x1*y1"] * 600)
    prob.write_text(f"dims 1 1 0 0 0 0\nf = {terms} - y1^2 + x1^2\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["certify", str(prob), "--x", "0", "--y", "0", "--json", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "certified-local-minimax"


def test_oracle_runs_a_constant_division_by_zero(tmp_path, capsys):
    # G1 is NaN everywhere; the oracle reads it as infeasible instead of
    # raising, so the candidate fails (exit 2)
    prob = tmp_path / "zdiv.prob"
    prob.write_text("dims 1 1 0 0 0 1\nf = x1^2 - y1^2\nG1 = x1 - 1 + 0/0\n",
                    encoding="utf-8")
    assert main(["oracle", str(prob), "--x=0", "--y=0"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert captured.out.startswith("definition check:")


def test_domain_error_is_usage_error(tmp_path, capsys):
    # the gradient of -sqrt(y1^2 + x1^2) divides by zero at the origin
    prob = tmp_path / "cone.prob"
    prob.write_text("dims 1 1 0 0 0 0\nf = -sqrt(y1^2+x1^2)\n", encoding="utf-8")
    assert main(["certify", str(prob), "--x", "0", "--y", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_selector_cap_exit_codes(tmp_path, capsys):
    from conftest import degenerate_text

    prob = tmp_path / "beta6.prob"
    prob.write_text(degenerate_text(6), encoding="utf-8")
    zeros = ",".join(["0"] * 6)
    cfg = tmp_path / "cap.txt"
    cfg.write_text("selector_cap = 5\n", encoding="utf-8")
    # certify builds no selector sweep, so the cap does not bound it
    assert main(["certify", str(prob), "--x", zeros, "--y", zeros,
                 "--config", str(cfg)]) == 0
    # subdiff (the 5^6 Clarke grid) has no report to put it in: a usage error
    assert main(["subdiff", str(prob), "--x", zeros, "--y", zeros]) == 1
    assert "exceed cap" in capsys.readouterr().err
