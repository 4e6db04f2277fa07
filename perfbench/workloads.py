"""Seeded input generators for the benchmark workloads.

The generators use numpy only and never call the package under test. Every
problem is built so that its inner solution y(x), the inner multipliers and
the value function phi(x) = f(x, y(x)) are known in closed form; each
generated candidate therefore carries the path, verdict and CLI exit code the
certifier must report. Before a candidate is handed out, the generator checks
with its own arithmetic that (x, y) solves the inner KKT system to 1e-10.

Inputs depend only on (seed, variant, op index): op i of a workload is the same
on every run, whatever ran before it, and no two ops of one run share a
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi
KKT_TOL = 1e-10

CERTIFIED = "certified-local-minimax"
NECESSARY = "necessary-conditions-pass"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
PASS = "pass"
SMOOTH, NONSMOOTH, INVALID = "smooth", "nonsmooth", "invalid"

# CLI exit code per verdict, as documented by `minimaxcert`
EXIT_CODE = {CERTIFIED: 0, NECESSARY: 0, PASS: 0, REFUTED: 2, INCONCLUSIVE: 3}

# Offsets at most this far from a fixture's reference point lie inside every
# tolerance the certifier applies (1e-8), so the reference verdict holds there.
TINY_STEP = 1e-13
TINY_MAX = 1e-9


class GeneratorError(Exception):
    """A generated input failed the generator's own closed-form check."""


@dataclass(frozen=True)
class Candidate:
    x: tuple[float, ...]
    y: tuple[float, ...]
    path: str | None  # expected certify path; None for the grid oracle
    verdict: str


@dataclass(frozen=True)
class Op:
    problem: str  # key into Workload.problems
    candidates: tuple[Candidate, ...]

    @property
    def exit_code(self) -> int:
        """Exit code `minimaxcert certify` must return for this op."""
        return max(EXIT_CODE[c.verdict] for c in self.candidates)


@dataclass
class Workload:
    """One generated variant of a workload.

    kind: 'certify', 'oracle' or 'cli' (how run.py executes an op).
    cycle: problem key of each op in one cycle; timing runs whole cycles so
    the mix of op kinds is the same in every run.
    """

    name: str
    kind: str
    problems: dict[str, str]
    cycle: tuple[str, ...]
    make_op: Callable[[int], Op]
    oracle_steps: dict[str, float] | None = None

    def op(self, i: int) -> Op:
        op = self.make_op(i)
        if op.problem != self.cycle[i % len(self.cycle)]:
            raise GeneratorError(f"op {i} does not follow the cycle")
        return op

    @property
    def setup_ops(self) -> list[int]:
        """Index of the first op on each distinct problem."""
        seen: dict[str, int] = {}
        for i, key in enumerate(self.cycle):
            seen.setdefault(key, i)
        return sorted(seen.values())


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _num(v: float) -> str:
    """Shortest text that parses back to exactly v (v >= 0)."""
    if v < 0:
        raise GeneratorError(f"negative literal {v!r}")
    return repr(float(v))


def _signed(v: float, term: str = "") -> str:
    """'+ v*term' or '- |v|*term' ('+ v' / '- |v|' without a term)."""
    return f"{'-' if v < 0 else '+'} {_num(abs(v))}{'*' + term if term else ''}"


def _check_kkt(residual: float, what: str):
    if not residual <= KKT_TOL:
        raise GeneratorError(f"{what}: inner KKT residual {residual:.3e} > {KKT_TOL}")


# ---------------------------------------------------------------------------
# lattice family: phi(x) = const + sum_i b_i (1 - cos x_i)


@dataclass
class LatticeProblem:
    """f = -z'Qz + sum_i b_i (1 - cos x_i) with z = y - s(x) - e and inner
    constraints g_i = y_i - s_i(x) - off_i (i < m2), where
    s_i(x) = a_i sin(x_i) + d_i x_{i+1} and Q is tridiagonal with diagonal q
    and off-diagonal c/2 (diagonally dominant, so positive definite).

    The first `active` constraints bind with multipliers lam_A > 0, so
    z* = -Q^{-1} lam / 2 for every x, y(x) = s(x) + e + z*, and
    phi(x) = -z*'Qz* + sum_i b_i (1 - cos x_i). Lattice points x in (2 pi Z)^n
    are strict local minimisers of phi, so they are smooth-path
    certified-local-minimax points; any other x has grad phi != 0 and no
    outer constraint, so it is refuted.
    """

    n: int
    m2: int
    q: np.ndarray
    c: np.ndarray
    b: np.ndarray
    a: np.ndarray
    d: np.ndarray
    e: np.ndarray
    lam: np.ndarray
    off: np.ndarray
    z_star: np.ndarray

    @classmethod
    def generate(cls, rng: np.random.Generator, n: int, m2: int, active: int):
        r3 = lambda lo, hi, size: np.round(rng.uniform(lo, hi, size), 3)  # noqa: E731
        q, c, b = r3(1.0, 2.0, n), r3(-0.5, 0.5, n - 1), r3(0.5, 1.5, n)
        a, d, e = r3(0.2, 0.8, n), r3(-0.3, 0.3, n), r3(-1.0, 1.0, n)
        lam = np.zeros(n)
        lam[:active] = rng.uniform(0.5, 1.5, active)
        Q = np.diag(q) + np.diag(c / 2.0, 1) + np.diag(c / 2.0, -1)
        z_star = -0.5 * np.linalg.solve(Q, lam)
        slack = np.zeros(m2)
        slack[active:] = rng.uniform(0.5, 1.0, m2 - active)
        off = e[:m2] + z_star[:m2] + slack
        return cls(n, m2, q, c, b, a, d, e, lam, off, z_star)

    def s(self, x: np.ndarray) -> np.ndarray:
        return self.a * np.sin(x) + self.d * np.roll(x, -1)

    def _s_text(self, i: int) -> str:
        j = (i + 1) % self.n
        return f"{_num(self.a[i])}*sin(x{i + 1}) {_signed(self.d[i], f'x{j + 1}')}"

    def text(self) -> str:
        n = self.n
        z = [f"(y{i + 1} - ({self._s_text(i)}) {_signed(-self.e[i])})" for i in range(n)]
        terms = [f"- {_num(self.q[i])}*{z[i]}^2" for i in range(n)]
        terms += [f"{_signed(-self.c[i], z[i])}*{z[i + 1]}" for i in range(n - 1)]
        terms += [f"+ {_num(self.b[i])}*(1 - cos(x{i + 1}))" for i in range(n)]
        lines = [
            "# seeded lattice problem: closed-form y(x), phi = const + sum b_i (1 - cos x_i)",
            f"dims {n} {n} 0 {self.m2} 0 0",
            "f = " + " ".join(terms).lstrip("+ "),
        ]
        for i in range(self.m2):
            lines.append(f"g{i + 1} = y{i + 1} - ({self._s_text(i)}) {_signed(-self.off[i])}")
        return "\n".join(lines) + "\n"

    def solution(self, x: np.ndarray) -> np.ndarray:
        y = self.s(x) + self.e + self.z_star
        z = y - self.s(x) - self.e
        Q = np.diag(self.q) + np.diag(self.c / 2.0, 1) + np.diag(self.c / 2.0, -1)
        g = (y - self.s(x))[: self.m2] - self.off
        lam = self.lam[: self.m2]
        stationarity = -2.0 * Q @ z - np.concatenate([lam, np.zeros(self.n - self.m2)])
        residual = max(
            float(np.max(np.abs(stationarity))),
            float(np.max(np.abs(lam * g))),
            float(np.max(np.maximum(g, 0.0))),
        )
        _check_kkt(residual, "lattice problem")
        return y

    def candidate(self, k: np.ndarray, shift: np.ndarray | None) -> Candidate:
        x = TWO_PI * k.astype(float)
        if shift is not None:
            x = x + shift
        y = self.solution(x)
        verdict = CERTIFIED if shift is None else REFUTED
        return Candidate(tuple(x.tolist()), tuple(y.tolist()), SMOOTH, verdict)


def _lattice_k(rng: np.random.Generator, n: int, index: int) -> np.ndarray:
    """Lattice point whose first coordinate encodes the index (so points of
    distinct indices differ) and whose others are small seeded integers."""
    k = rng.integers(-2, 3, size=n)
    k[0] = index
    return k


def _shift(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 0.6, size=n)


SHIFT_EVERY = 4  # one candidate in four is moved off the lattice


def smooth(seed: int, variant: int = 0) -> Workload:
    """n = m = 20, m2 = 10 with five binding and five slack constraints."""
    prob = LatticeProblem.generate(_rng(seed, variant, 1), n=20, m2=10, active=5)

    def make_op(i: int) -> Op:
        rng = _rng(seed, variant, 1, i)
        k = _lattice_k(rng, prob.n, i)
        shifted = i % SHIFT_EVERY == SHIFT_EVERY - 1
        return Op("lattice", (prob.candidate(k, _shift(rng, prob.n) if shifted else None),))

    return Workload("smooth", "certify", {"lattice": prob.text()},
                    ("lattice",) * SHIFT_EVERY, make_op)


# ---------------------------------------------------------------------------
# degenerate family for the selector sweep


def selector(seed: int, variant: int = 0) -> Workload:
    """f = -sum q_i (y_i - x_i)^2 + sum b_i (1 - cos x_i), g_i = y_i - x_i.

    y(x) = x with every constraint active at zero multiplier, so |beta| = n
    and the nonsmooth path runs. phi(x) = sum b_i (1 - cos x_i): at lattice
    points a selector admits zero upper multipliers (necessary-conditions-pass);
    off the lattice every selector's candidate gradient is grad phi != 0 and
    the family is not exact, so the search ends inconclusive.
    """
    n = 4
    rng = _rng(seed, variant, 2)
    q = np.round(rng.uniform(1.0, 2.0, n), 3)
    b = np.round(rng.uniform(0.5, 1.5, n), 3)
    f = " ".join(f"- {_num(q[i])}*(y{i + 1} - x{i + 1})^2" for i in range(n))
    f += " " + " ".join(f"+ {_num(b[i])}*(1 - cos(x{i + 1}))" for i in range(n))
    lines = ["# seeded degenerate problem: every inner constraint active at zero multiplier",
             f"dims {n} {n} 0 {n} 0 0", "f = " + f]
    lines += [f"g{i + 1} = y{i + 1} - x{i + 1}" for i in range(n)]
    text = "\n".join(lines) + "\n"

    def make_op(i: int) -> Op:
        rng_i = _rng(seed, variant, 2, i)
        x = TWO_PI * _lattice_k(rng_i, n, i).astype(float)
        shifted = i % SHIFT_EVERY == SHIFT_EVERY - 1
        if shifted:
            x = x + _shift(rng_i, n)
        y = x.copy()
        # stationarity -2 q (y - x) - lam = 0 with lam = 0, and g = y - x = 0
        _check_kkt(float(np.max(np.abs(-2.0 * q * (y - x)))), "selector problem")
        verdict = INCONCLUSIVE if shifted else NECESSARY
        cand = Candidate(tuple(x.tolist()), tuple(y.tolist()), NONSMOOTH, verdict)
        return Op("degenerate", (cand,))

    return Workload("selector", "certify", {"degenerate": text},
                    ("degenerate",) * SHIFT_EVERY, make_op)


# ---------------------------------------------------------------------------
# grid oracle


def _oracle_problem(rng: np.random.Generator, n: int, m: int):
    """f = sum b_i (1 - cos x_i) - sum_j q_j (y_j - c_j)^2 (2 + cos(x_{j mod n}))
    [- r (y1 - c1)(y2 - c2) when m = 2] with g1 = sum_j (y_j - c_j) - 1 <= 0.

    The inner argmax is y = c for every x: interior, and the centre of every
    y-grid the oracle builds around y* = c. So f(x*, y*) = phi(x*) = 0 at
    lattice x* and phi >= 0 nearby: the definition check passes.
    """
    b = np.round(rng.uniform(0.5, 1.5, n), 3)
    q = np.round(rng.uniform(1.0, 2.0, m), 3)
    c = np.round(rng.uniform(-1.0, 1.0, m), 3)
    r = float(np.round(rng.uniform(0.1, 0.5), 3))
    dev = [f"(y{j + 1} {_signed(-c[j])})" for j in range(m)]
    terms = [f"+ {_num(b[i])}*(1 - cos(x{i + 1}))" for i in range(n)]
    terms += [f"- {_num(q[j])}*{dev[j]}^2*(2 + cos(x{j % n + 1}))" for j in range(m)]
    if m == 2:
        terms.append(f"- {_num(r)}*{dev[0]}*{dev[1]}")
    g = " + ".join(dev) + " - 1"
    text = (f"# seeded periodic problem for the grid oracle\ndims {n} {m} 0 1 0 0\n"
            f"f = {' '.join(terms).lstrip('+ ')}\ng1 = {g}\n")
    return text, q, c, r


ORACLE_SHAPES = (("o11", 1, 1, 1e-3), ("o21", 2, 1, 1e-2), ("o22", 2, 2, 2e-2))


def oracle(seed: int, variant: int = 0) -> Workload:
    problems, centres, steps = {}, {}, {}
    for idx, (key, n, m, step) in enumerate(ORACLE_SHAPES):
        problems[key], *centres[key] = _oracle_problem(_rng(seed, variant, 3, idx), n, m)
        steps[key] = step
    cycle = tuple(key for key, *_ in ORACLE_SHAPES)
    dims = {key: n for key, n, _, _ in ORACLE_SHAPES}

    def make_op(i: int) -> Op:
        key = cycle[i % len(cycle)]
        k = _lattice_k(_rng(seed, variant, 3, i), dims[key], i // len(cycle))
        q, c, r = centres[key]
        x = TWO_PI * k.astype(float)
        y = c.copy()
        dev = y - c
        grad = -2.0 * q * dev * (2.0 + np.cos(x[np.arange(len(c)) % len(x)]))
        if len(c) == 2:
            grad -= r * dev[::-1]
        # g1 = sum(dev) - 1 is slack, so its multiplier is zero
        _check_kkt(max(float(np.max(np.abs(grad))), max(float(np.sum(dev)) - 1.0, 0.0)),
                   "oracle problem")
        return Op(key, (Candidate(tuple(x.tolist()), tuple(y.tolist()), None, PASS),))

    return Workload("oracle", "oracle", problems, cycle, make_op, steps)


# ---------------------------------------------------------------------------
# CLI batches over the fixtures and a small lattice problem

# The four reference problems, restated so the benchmark does not read them
# from the package it measures.
FIXTURES = {
    "P1": "dims 1 1 0 1 0 1\nf = x1*y1 - 0.5*y1^2\ng1 = y1 - 1\nG1 = x1 - 2\n",
    "P2": "dims 1 1 0 1 0 0\nf = -(y1-x1)^2\ng1 = y1\n",
    "P3": "dims 1 1 0 1 0 2\nf = x1*y1 - 0.5*y1^2\ng1 = y1 - 1\nG1 = x1\nG2 = -x1\n",
    "P4": "dims 1 1 0 1 0 1\nf = x1*y1 - 0.5*y1^2\ng1 = y1 - 1\nG1 = 1 - x1\n",
}

CLI_BATCH = 40


def _p1_inner(x: float) -> tuple[float, float]:
    """P1/P3/P4: max x y - y^2/2 s.t. y <= 1 gives y = min(x, 1), lam = max(x - 1, 0)."""
    y, lam = min(x, 1.0), max(x - 1.0, 0.0)
    _check_kkt(max(abs(x - y - lam), abs(lam * (y - 1.0)), max(y - 1.0, 0.0)), "P1 inner")
    return y, lam


def _p2_inner(x: float) -> tuple[float, float]:
    """P2: max -(y - x)^2 s.t. y <= 0 gives y = min(x, 0), lam = max(2x, 0)."""
    y, lam = min(x, 0.0), max(2.0 * x, 0.0)
    _check_kkt(max(abs(-2.0 * (y - x) - lam), abs(lam * y), max(y, 0.0)), "P2 inner")
    return y, lam


def _fixture_candidates(key: str, rng: np.random.Generator, serial: int) -> list[Candidate]:
    """40 candidates in fixed families, so every op on a file costs alike.

    `serial` numbers the tiny offsets from a reference point so that no two
    ops share one; the families and their verdicts:
      P1 phi = x^2/2 (x <= 1), x - 1/2 (x > 1); G = x - 2 inactive
         x = +-tiny: certified; |x| in [0.2, 0.8] or x in [1.2, 1.8]: refuted
      P2 phi = 0 (x <= 0), -x^2 (x > 0)
         x = -tiny: degenerate, nonsmooth necessary-conditions-pass;
         x in [-0.8, -0.2]: phi flat, smooth necessary-conditions-pass;
         x in [0.2, 0.8]: refuted
      P3 outer set is {0}
         x = +-tiny: certified (trivial critical cone); |x| in [0.2, 0.8]:
         infeasible, invalid path, inconclusive
      P4 outer set is x >= 1, phi' = 1
         x = 1 + tiny: inner multiplier ~0, nonsmooth necessary-conditions-pass
         (outer multiplier 1); x in [1.2, 1.8]: refuted
    """
    out: list[Candidate] = []
    tiny = [TINY_STEP * (serial + j + 1) for j in range(CLI_BATCH)]
    if tiny[-1] > TINY_MAX:
        raise GeneratorError("tiny offsets exhausted; raise TINY_MAX or shorten the run")
    sign = lambda: float(rng.choice([-1.0, 1.0]))  # noqa: E731
    band = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731

    def add(x, inner, path, verdict):
        y, _ = inner(x)
        out.append(Candidate((x,), (y,), path, verdict))

    if key == "P1":
        for j in range(10):
            add(sign() * tiny[j], _p1_inner, SMOOTH, CERTIFIED)
        for _ in range(20):
            add(sign() * band(0.2, 0.8), _p1_inner, SMOOTH, REFUTED)
        for _ in range(10):
            add(band(1.2, 1.8), _p1_inner, SMOOTH, REFUTED)
    elif key == "P2":
        for j in range(10):
            add(-tiny[j], _p2_inner, NONSMOOTH, NECESSARY)
        for _ in range(15):
            add(band(-0.8, -0.2), _p2_inner, SMOOTH, NECESSARY)
        for _ in range(15):
            add(band(0.2, 0.8), _p2_inner, SMOOTH, REFUTED)
    elif key == "P3":
        for j in range(20):
            add(sign() * tiny[j], _p1_inner, SMOOTH, CERTIFIED)
        for _ in range(20):
            add(sign() * band(0.2, 0.8), _p1_inner, INVALID, INCONCLUSIVE)
    elif key == "P4":
        for j in range(20):
            add(1.0 + tiny[j], _p1_inner, NONSMOOTH, NECESSARY)
        for _ in range(20):
            add(band(1.2, 1.8), _p1_inner, SMOOTH, REFUTED)
    else:
        raise GeneratorError(f"unknown fixture {key!r}")
    order = rng.permutation(len(out))
    return [out[j] for j in order]


def cli_batch(seed: int, variant: int = 0) -> Workload:
    """One `minimaxcert certify` invocation with 40 candidates per op, cycling
    over P1-P4 and a small lattice problem (n = m = 3, m2 = 2, one binding)."""
    lattice = LatticeProblem.generate(_rng(seed, variant, 4), n=3, m2=2, active=1)
    problems = dict(FIXTURES)
    problems["lattice"] = lattice.text()
    cycle = ("P1", "P2", "P3", "P4", "lattice")

    def make_op(i: int) -> Op:
        key = cycle[i % len(cycle)]
        rng = _rng(seed, variant, 4, i)
        if key != "lattice":
            serial = (i // len(cycle)) * CLI_BATCH
            return Op(key, tuple(_fixture_candidates(key, rng, serial)))
        cands = []
        for j in range(CLI_BATCH):
            k = _lattice_k(rng, lattice.n, i * CLI_BATCH + j)
            shift = _shift(rng, lattice.n) if j % SHIFT_EVERY == SHIFT_EVERY - 1 else None
            cands.append(lattice.candidate(k, shift))
        return Op(key, tuple(cands))

    return Workload("cli-batch", "cli", problems, cycle, make_op)


GENERATORS = {"smooth": smooth, "selector": selector, "oracle": oracle, "cli-batch": cli_batch}
