"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MC = run.load_package()

COUNT_KEYS = [f"{name}.calls" for name in tracer.CALLS] + [
    "lower.newton_iters", "nonsmooth.selectors", "oracle.grid_points",
    "problem.eval_bundle.distinct_ratio",
]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_expectations_hold(name, seed):
    wl = workloads.GENERATORS[name](seed)
    runner = run.Runner(MC, wl, variant=0)
    runner.parse()
    ops = [(i, wl.op(i)) for i in range(len(wl.cycle))]
    out = run.execute(runner, ops)
    assert out.failed == 0
    assert out.verdicts == sum(len(op.candidates) for _, op in ops)
    assert len(out.scales) == len(out.latencies) == len(ops)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_candidates_distinct_and_reproducible(name):
    wl = workloads.GENERATORS[name](7)
    seen = set()
    for i in range(4 * len(wl.cycle)):
        for c in wl.op(i).candidates:
            key = (wl.op(i).problem, c.x, c.y)
            assert key not in seen
            seen.add(key)
    again = workloads.GENERATORS[name](7)
    assert again.problems == wl.problems
    assert again.op(5) == wl.op(5)
    assert workloads.GENERATORS[name](8).problems != wl.problems


def test_every_verdict_family_occurs():
    verdicts = {(c.path, c.verdict)
                for i in range(5)
                for c in workloads.cli_batch(1).op(i).candidates}
    assert verdicts == {
        ("smooth", workloads.CERTIFIED), ("smooth", workloads.REFUTED),
        ("smooth", workloads.NECESSARY), ("nonsmooth", workloads.NECESSARY),
        ("invalid", workloads.INCONCLUSIVE),
    }


@pytest.fixture(scope="module")
def traced_pair():
    return {name: [run.run_traced(MC, name, 5) for _ in range(2)]
            for name in ("oracle", "cli-batch")}


def test_traced_counts_repeat(traced_pair):
    for name, (first, second) in traced_pair.items():
        m1, m2 = first[2], second[2]
        assert first[1] == second[1] == 0
        for key in COUNT_KEYS:
            assert m1[key][0] == m2[key][0], (name, key)


def test_traced_run_reports_every_layer_metric(traced_pair):
    units = tracer.metric_units()
    for name, runs in traced_pair.items():
        metrics = runs[0][2]
        assert set(metrics) == set(units)
        assert metrics["trace.overhead_ratio"][0] > 0
    cli = traced_pair["cli-batch"][0][2]
    oracle = traced_pair["oracle"][0][2]
    for key in ("problem.eval_bundle.calls", "lower.solve_lower.calls",
                "linalg.solve_lp.calls", "cli.main.self_ms", "report.render_summary.self_ms"):
        assert cli[key][0] > 0, key
    assert oracle["oracle.grid_points"][0] > 0
    assert oracle["problem.eval_bundle.calls"][0] == 0
    assert oracle["nonsmooth.assemble_a_matrix.calls"][0] == 0
    assert oracle["report.self_ms"][0] == 0  # the harness's own checks are not traced


def test_tracer_restores_every_binding():
    with tracer.LayerTracer(MC.__name__) as trace:
        assert MC.eval_bundle is not trace.originals["problem.eval_bundle"]
        assert MC.lower.eval_bundle is not trace.originals["problem.eval_bundle"]
        patched = list(trace._patched)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original
    assert MC.cli.main is trace.originals["cli.main"]


def test_tracer_self_time_excludes_children():
    trace = tracer.LayerTracer(MC.__name__)
    trace.spans = [["bench.op", 0, 0.0, 10.0, -1], ["a.f", 0, 1.0, 5.0, 0],
                   ["a.g", 0, 2.0, 3.0, 1]]
    calls, self_s, ops = trace.totals()
    assert ops == 1
    assert self_s == {"bench.op": 6.0, "a.f": 3.0, "a.g": 1.0}


def test_digest_matches_across_runs():
    first = run.run_timed(MC, "oracle", 9, 0.05)
    second = run.run_timed(MC, "oracle", 9, 0.05)
    assert first[1] == second[1] == 0
    assert first[3]["digest"] == second[3]["digest"]
    assert first[3]["digest"] != run.run_timed(MC, "oracle", 10, 0.05)[3]["digest"]


def test_missing_package_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    code = run.main(["--workload", "oracle", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
