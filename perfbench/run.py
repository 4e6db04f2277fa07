"""Benchmark for minimaxcert: certify, the selector sweep, the grid oracle and
CLI batches.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
One client runs ops back to back in this process (a closed loop). Set-up,
timing and the correctness gate all happen in one run. The last line of
standard output is the result object; the line before it records the
environment, sample counts and the determinism digest.

--trace 0 reports the end-to-end metrics. --trace 1 runs a fixed list of ops
once untraced and once with every layer wrapped (see tracer.py) and reports
per-op layer metrics; its counts repeat exactly at a fixed seed.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the matrices are at most 40 x 40, where
# threading only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # problem files, CLI reports and span dumps

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
# whole cycles per pass of a traced run; fixed so that counts repeat exactly
TRACE_CYCLES = {"smooth": 2, "selector": 1, "oracle": 4, "cli-batch": 1}


class PackageMissing(Exception):
    pass


def load_package():
    """Import minimaxcert from this checkout's src/, never from elsewhere."""
    init = SRC / "minimaxcert" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import minimaxcert
    import minimaxcert.cli
    import minimaxcert.report

    if Path(minimaxcert.__file__).resolve() != init.resolve():
        raise PackageMissing(f"imported {minimaxcert.__file__}, expected {init}")
    return minimaxcert


class Runner:
    """Executes ops of one workload variant against the package's public API."""

    def __init__(self, mc, wl: workloads.Workload, variant: int):
        self.mc = mc
        self.wl = wl
        self.config = mc.CheckConfig()
        self.specs: dict = {}
        self.files: dict[str, str] = {}
        self.json_path = OUT / f"report-{wl.name}-{variant}.json"
        if wl.kind == "cli":
            OUT.mkdir(exist_ok=True)
            for key, text in wl.problems.items():
                path = OUT / f"{wl.name}-{variant}-{key}.prob"
                path.write_text(text, encoding="utf-8")
                self.files[key] = str(path)

    def parse(self) -> None:
        if self.wl.kind != "cli":  # the CLI parses its file on every op
            self.specs = {k: self.mc.parse_problem(t) for k, t in self.wl.problems.items()}

    def run(self, op: workloads.Op):
        """One op; returns what check() needs, kept out of the timed part."""
        mc = self.mc
        if self.wl.kind == "certify":
            c = op.candidates[0]
            return mc.certify(self.specs[op.problem], mc.CandidatePoint(c.x, c.y), self.config)
        if self.wl.kind == "oracle":
            c = op.candidates[0]
            grid = mc.GridSpec(step=self.wl.oracle_steps[op.problem])
            return mc.verify_minimax_definition(self.specs[op.problem], c.x, c.y, grid)
        argv = ["certify", self.files[op.problem]]
        for c in op.candidates:
            argv += ["--x=" + ",".join(map(repr, c.x)), "--y=" + ",".join(map(repr, c.y))]
        argv += ["--json", str(self.json_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return mc.cli.main(argv)

    def check(self, op: workloads.Op, result) -> tuple[bool, str]:
        """(outputs match the generator, canonical JSON of the outputs)."""
        mc = self.mc
        if self.wl.kind == "certify":
            c = op.candidates[0]
            ok = (result.path, result.verdict) == (c.path, c.verdict)
            return ok, mc.report.dumps_canonical(mc.report.report_to_doc(result))
        if self.wl.kind == "oracle":
            doc = {"passed": result.passed, "worst_violation": result.worst_violation,
                   "worst_side": result.worst_side, "worst_witness": result.worst_witness,
                   "f_star": result.f_star, "levels": result.levels, "notes": result.notes}
            return result.passed == (op.candidates[0].verdict == workloads.PASS), \
                mc.report.dumps_canonical(doc)
        if not self.json_path.is_file():
            return False, ""
        text = self.json_path.read_text(encoding="utf-8")
        self.json_path.unlink()  # so that an op that writes nothing cannot pass
        docs = json.loads(text)
        docs = docs if isinstance(docs, list) else [docs]
        got = [(d["path"], d["verdict"]) for d in docs]
        want = [(c.path, c.verdict) for c in op.candidates]
        return result == op.exit_code and got == want, text


def _tree(depth: int, k: int) -> tuple:
    """A fixed expression tree of (tag, operands...) tuples."""
    if depth == 0:
        return ("x", k % 4) if k % 3 else ("c", 0.5 + k % 5)
    tag = ("+", "*", "-", "sin")[k % 4]
    if tag == "sin":
        return (tag, _tree(depth - 1, 7 * k + 1))
    return (tag, _tree(depth - 1, 3 * k + 1), _tree(depth - 1, 5 * k + 2))


def _evaluate(node: tuple, x: np.ndarray):
    tag = node[0]
    if tag == "c":
        return node[1]
    if tag == "x":
        return x[node[1]]
    if tag == "sin":
        return np.sin(_evaluate(node[1], x))
    a, b = _evaluate(node[1], x), _evaluate(node[2], x)
    return a + b if tag == "+" else a - b if tag == "-" else a * b


class Calibration:
    """Machine-speed reference for rescaling op times.

    The host's vCPUs are shared: the same op takes up to 40% longer in some
    minutes than in others. This loop does the package's kind of work
    (recursive tree walking with numpy scalars) in benchmark code that no
    change to the package touches, so its time tracks the machine's speed.
    It runs between ops, outside the timed interval, with the garbage
    collector paused so that garbage an op leaves is not charged to it.
    """

    NOMINAL_S = 2.5e-3  # its typical time on the 2-vCPU Xeon (2.0 GHz) it was tuned on
    EVALUATIONS = 20

    def __init__(self):
        self.tree = _tree(10, 1)
        self.x = np.array([0.1, 0.2, 0.3, 0.4])

    def measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(self.EVALUATIONS):
                _evaluate(self.tree, self.x)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scales(self, samples: list[float]) -> list[float]:
        """Per op: NOMINAL_S over the median of the samples around it.
        samples[i] is taken before op i and samples[-1] after the last op."""
        return [self.NOMINAL_S / statistics.median(samples[max(0, i - 2): i + 4])
                for i in range(len(samples) - 1)]


CALIBRATION = Calibration()


@dataclass
class Outcome:
    """What a list of ops produced. Latencies are raw wall seconds; `scales`
    rescales each to the nominal machine speed (see Calibration)."""

    latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    verdicts: int = 0
    failed: int = 0
    texts: list[str] = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies, self.scales)]

    def add(self, other: "Outcome", keep_texts: int) -> None:
        self.latencies += other.latencies
        self.scales += other.scales
        self.verdicts += other.verdicts
        self.failed += other.failed
        self.texts += other.texts[: max(0, keep_texts - len(self.texts))]


def execute(runner: Runner, ops, trace: tracer.LayerTracer | None = None) -> Outcome:
    """Run ops in order, timing each and checking its output afterwards."""
    out = Outcome()
    samples = []
    for op_id, op in ops:
        samples.append(CALIBRATION.measure())
        start = time.perf_counter()
        try:
            if trace is None:
                result = runner.run(op)
            else:
                result = trace.run_op(op_id, lambda: runner.run(op))
        except Exception as exc:  # a raising op is a failed op, not a crash
            out.latencies.append(time.perf_counter() - start)
            out.failed += 1
            print(f"op {op_id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        out.latencies.append(time.perf_counter() - start)
        out.verdicts += len(op.candidates)
        ok, text = runner.check(op, result)
        out.failed += not ok
        out.texts.append(text)
        if not ok:
            print(f"op {op_id} on {op.problem}: output differs from the expectation",
                  file=sys.stderr)
    samples.append(CALIBRATION.measure())
    out.scales = CALIBRATION.scales(samples)
    return out


def setup(mc, name: str, seed: int, reps: int):
    """Set up `reps` fresh variants: each parses its problems and runs the first,
    cold op on each. Distinct variants keep a cache keyed by problem text from
    carrying over. Returns the last runner, the raw and rescaled time of each
    repetition, and the set-up ops' outcome."""
    raw, scaled, total = [], [], Outcome()
    runner = None
    for variant in range(reps):
        wl = workloads.GENERATORS[name](seed, variant)
        runner = Runner(mc, wl, variant)
        ops = [(i, wl.op(i)) for i in wl.setup_ops]
        before = CALIBRATION.measure()
        start = time.perf_counter()
        runner.parse()
        parse_s = time.perf_counter() - start
        out = execute(runner, ops)
        raw.append(parse_s + sum(out.latencies))
        scaled.append(parse_s * CALIBRATION.NOMINAL_S / before + sum(out.scaled))
        total.add(out, 0)
    return runner, raw, scaled, total


def op_stream(wl: workloads.Workload, first_cycle: int):
    cycle = len(wl.cycle)
    c = first_cycle
    while True:
        yield [(i, wl.op(i)) for i in range(c * cycle, (c + 1) * cycle)]
        c += 1


def timed(runner: Runner, seconds: float) -> Outcome:
    """Whole cycles until `seconds` of wall time have passed (cycle 0 is set-up).
    Texts are kept for the first cycle only, for the digest."""
    total = Outcome()
    begin = time.perf_counter()
    for ops in op_stream(runner.wl, 1):
        total.add(execute(runner, ops), len(runner.wl.cycle))
        if time.perf_counter() - begin >= seconds:
            return total


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(out: Outcome) -> dict:
    ms = sorted(1e3 * t for t in out.scaled)
    return {
        "verdicts_per_s": (out.verdicts / sum(out.scaled), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
    }


def run_timed(mc, name: str, seed: int, seconds: float):
    runner, setup_raw, setup_scaled, prep = setup(mc, name, seed, SETUP_REPS)
    out = timed(runner, seconds)
    attempted = len(prep.latencies) + len(out.latencies)
    failed = prep.failed + out.failed
    metrics = latency_metrics(out)
    metrics["setup_s"] = (statistics.median(setup_scaled), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    raw_ms = sorted(1e3 * t for t in out.latencies)
    info = {
        "op_samples": len(out.latencies),
        "op_samples_beyond_p90": sum(1 for t in out.scaled if 1e3 * t > metrics["op_p90_ms"][0]),
        "verdicts": out.verdicts,
        "fail_frac": failed / attempted,
        "raw": {"verdicts_per_s": out.verdicts / sum(out.latencies),
                "op_p50_ms": statistics.median(raw_ms), "setup_s": statistics.median(setup_raw)},
        "speed_scale_median": statistics.median(out.scales),
        "setup_reps_s": setup_scaled,
        "digest": digest(out.texts),
    }
    return attempted, failed, metrics, info


def run_traced(mc, name: str, seed: int):
    runner, _, _, prep = setup(mc, name, seed, 1)
    cycles = TRACE_CYCLES[name]
    stream = op_stream(runner.wl, 1)
    traced_ops = [op for _ in range(cycles) for op in next(stream)]
    plain_ops = [op for _ in range(cycles) for op in next(stream)]
    plain = execute(runner, plain_ops)
    with tracer.LayerTracer(mc.__name__) as trace:
        traced = execute(runner, traced_ops, trace)
    OUT.mkdir(exist_ok=True)
    trace.dump(OUT / f"spans-{name}-{seed}.jsonl")
    units = tracer.metric_units()
    values = trace.metrics()
    plain_vps = latency_metrics(plain)["verdicts_per_s"][0]
    traced_vps = latency_metrics(traced)["verdicts_per_s"][0]
    values["trace.overhead_ratio"] = plain_vps / traced_vps
    metrics = {key: (values[key], units[key]) for key in units}
    attempted = len(prep.latencies) + len(plain.latencies) + len(traced.latencies)
    failed = prep.failed + plain.failed + traced.failed
    info = {
        "traced_ops": len(traced.latencies),
        "untraced_verdicts_per_s": plain_vps,
        "traced_verdicts_per_s": traced_vps,
        "spans": len(trace.spans),
        "digest": digest(traced.texts[: len(runner.wl.cycle)]),
    }
    return attempted, failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mc = load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"error: cannot load minimaxcert: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, metrics, info = run_traced(mc, args.workload, args.seed)
    else:
        attempted, failed, metrics, info = run_timed(mc, args.workload, args.seed, args.seconds)
    info = {"workload": args.workload, "trace": args.trace,
            "env": environment(args.seed), **info}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
