"""Command-line front end.

Subcommands: validate, certify, value-derivs, solve-lower, oracle, subdiff.
Exit codes: 0 certified/pass, 2 refuted/fail, 3 inconclusive, 1 usage or
parse error.  A certify run whose evaluation failed (its report ends in an
`evaluation` error check) still writes its report and exits 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .certify import (
    CHECK_EVALUATION,
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NECESSARY,
    VERDICT_REFUTED,
    VERSION,
    certify,
)
from .conditions import ERROR
from .config import CheckConfig
from .expressions import DomainError
from .lower import NewtonError, solve_lower
from .nonsmooth import SelectorCapError, phi_generalized_gradients
from .oracle import fd_derivatives, verify_minimax_definition
from .problem import (
    CandidatePoint,
    ProblemFormatError,
    eval_bundle,
    parse_problem,
    problem_digest,
)
from .report import dumps_canonical, render_summary, report_to_doc
from .value_function import SingularSensitivityError, value_derivatives

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    VERDICT_CERTIFIED: EXIT_OK,
    VERDICT_NECESSARY: EXIT_OK,
    VERDICT_REFUTED: EXIT_FAIL,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxcert",
        description="Certify candidate local minimax points of constrained "
        "min-max problems.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, candidates=True):
        p.add_argument("problem", help="problem file")
        if candidates:
            p.add_argument("--x", action="append", type=_parse_vector, default=[])
            p.add_argument("--y", action="append", type=_parse_vector, default=[])
            p.add_argument("--mu", action="append", type=_parse_vector, default=[])
            p.add_argument("--lambda", dest="lam", action="append",
                           type=_parse_vector, default=[])
            p.add_argument("--u", action="append", type=_parse_vector, default=[])
            p.add_argument("--v", action="append", type=_parse_vector, default=[])
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--json", dest="json_path", help="write the JSON report here")

    add_common(sub.add_parser("validate", help="parse and dimension-check"),
               candidates=False)
    add_common(sub.add_parser("certify", help="run the full pipeline"))
    add_common(sub.add_parser("value-derivs",
                              help="value function derivatives with an FD table"))
    add_common(sub.add_parser("solve-lower", help="inner Newton solve with trace"))
    add_common(sub.add_parser("oracle", help="grid check of the definition"))
    add_common(sub.add_parser("subdiff",
                              help="selector enumeration and candidate gradients"))
    return parser


def _load(args):
    with open(args.problem, "r", encoding="utf-8") as handle:
        text = handle.read()
    spec = parse_problem(text)
    config = CheckConfig.from_file(args.config) if args.config else CheckConfig()
    return spec, config


def _candidates(args, spec) -> list[CandidatePoint]:
    if not args.x or not args.y:
        raise ValueError("--x and --y are required for this command")
    if len(args.x) != len(args.y):
        raise ValueError("--x and --y must be given the same number of times")
    count = len(args.x)
    for flag, lst in (("--mu", args.mu), ("--lambda", args.lam), ("--u", args.u),
                      ("--v", args.v)):
        if len(lst) not in (0, 1, count):
            raise ValueError(f"{flag} is given {len(lst)} times and --x {count} times: "
                             f"give it once, or once per candidate")

    def pick(lst, i):
        """The flag's value for candidate i: one value serves every candidate."""
        return lst[i if len(lst) > 1 else 0] if lst else None

    out = []
    for i in range(len(args.x)):
        cand = CandidatePoint(
            x=args.x[i],
            y=args.y[i],
            mu=pick(args.mu, i),
            lam=pick(args.lam, i),
            u=pick(args.u, i),
            v=pick(args.v, i),
        )
        cand.validate_against(spec)
        out.append(cand)
    return out


def _emit(doc, json_path):
    text = dumps_canonical(doc)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _cmd_validate(args) -> int:
    spec, _ = _load(args)
    doc = {
        "version": VERSION,
        "problem_digest": problem_digest(spec),
        "command": "validate",
        "dims": {"n": spec.n, "m": spec.m, "m1": spec.m1, "m2": spec.m2,
                 "n1": spec.n1, "n2": spec.n2},
        "verdict": "valid",
    }
    _emit(doc, args.json_path)
    print(f"valid problem ({problem_digest(spec)[:16]}): "
          f"n={spec.n} m={spec.m} m1={spec.m1} m2={spec.m2} "
          f"n1={spec.n1} n2={spec.n2}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    spec, config = _load(args)
    candidates = _candidates(args, spec)
    reports = [certify(spec, c, config) for c in candidates]
    docs = [report_to_doc(r) for r in reports]
    payload = docs[0] if len(docs) == 1 else docs
    _emit(payload, args.json_path)
    for doc in docs:
        sys.stdout.write(render_summary(doc))
    failures = [c.detail for r in reports for c in r.results
                if c.name == CHECK_EVALUATION and c.status == ERROR]
    for detail in failures:
        print(f"error: {detail}", file=sys.stderr)
    if failures:
        return EXIT_USAGE
    worst = EXIT_OK
    for r in reports:
        worst = max(worst, _VERDICT_EXIT[r.verdict])
    return worst


def _cmd_value_derivs(args) -> int:
    spec, config = _load(args)
    cand = _candidates(args, spec)[0]
    sol = solve_lower(spec, cand.x, (cand.y, cand.mu, cand.lam), config)
    vd = value_derivatives(spec, sol, config)

    def phi_at(xv):
        s = solve_lower(spec, xv, (sol.y, sol.mu, sol.lam), config)
        return eval_bundle(spec, s.x, s.y).f

    grad_fd, hess_fd = fd_derivatives(phi_at, cand.x, config.fd_step,
                                      config.fd_hess_step)
    rows = []
    for i in range(spec.n):
        rows.append({
            "entry": f"grad[{i}]",
            "analytic": float(vd.gradient[i]),
            "fd": float(grad_fd[i]),
            "abs_diff": float(abs(vd.gradient[i] - grad_fd[i])),
        })
    for i in range(spec.n):
        for j in range(spec.n):
            rows.append({
                "entry": f"hess[{i},{j}]",
                "analytic": float(vd.hessian[i, j]),
                "fd": float(hess_fd[i, j]),
                "abs_diff": float(abs(vd.hessian[i, j] - hess_fd[i, j])),
            })
    doc = {
        "version": VERSION,
        "problem_digest": problem_digest(spec),
        "command": "value-derivs",
        "config": config.as_dict(),
        "candidate": {"x": cand.x.tolist(), "y": cand.y.tolist()},
        "value": vd.value,
        "gradient": vd.gradient.tolist(),
        "hessian": [row.tolist() for row in vd.hessian],
        "fd_table": rows,
        "verdict": "computed",
    }
    _emit(doc, args.json_path)
    print(f"phi = {vd.value:.12g}")
    for row in rows:
        print(f"  {row['entry']:<12} analytic={row['analytic']: .12g} "
              f"fd={row['fd']: .12g} |diff|={row['abs_diff']:.3e}")
    return EXIT_OK


def _cmd_solve_lower(args) -> int:
    spec, config = _load(args)
    cand = _candidates(args, spec)[0]
    sol = solve_lower(spec, cand.x, (cand.y, cand.mu, cand.lam), config)
    doc = {
        "version": VERSION,
        "problem_digest": problem_digest(spec),
        "command": "solve-lower",
        "config": config.as_dict(),
        "x": sol.x.tolist(),
        "y": sol.y.tolist(),
        "w": sol.w.tolist(),
        "mu": sol.mu.tolist(),
        "lam": sol.lam.tolist(),
        "residual": sol.residual,
        "trace": list(sol.trace),
        "verdict": "converged",
    }
    _emit(doc, args.json_path)
    print(f"converged in {sol.iterations} iterations "
          f"(residual {sol.residual:.3e})")
    for k, r in enumerate(sol.trace):
        print(f"  iter {k:2d}  residual {r:.6e}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec, config = _load(args)
    cand = _candidates(args, spec)[0]
    grid = config.oracle_grid()
    rep = verify_minimax_definition(spec, cand.x, cand.y, grid)
    doc = {
        "version": VERSION,
        "problem_digest": problem_digest(spec),
        "command": "oracle",
        "config": config.as_dict(),
        "candidate": {"x": cand.x.tolist(), "y": cand.y.tolist()},
        "f_star": rep.f_star,
        "worst_violation": rep.worst_violation,
        "worst_side": rep.worst_side,
        "worst_witness": rep.worst_witness,
        "levels": rep.levels,
        "notes": rep.notes,
        "verdict": "pass" if rep.passed else "fail",
    }
    _emit(doc, args.json_path)
    print(f"definition check: {'pass' if rep.passed else 'fail'} "
          f"(worst violation {rep.worst_violation:.3e})")
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_subdiff(args) -> int:
    spec, config = _load(args)
    cand = _candidates(args, spec)[0]
    sol = solve_lower(spec, cand.x, (cand.y, cand.mu, cand.lam), config)
    gset = phi_generalized_gradients(spec, sol, config, kind="outer_approx")
    items = [
        {"W": list(W.values), "binary": W.binary, "gradient": vec.tolist()}
        for W, vec in gset.items
    ]
    doc = {
        "version": VERSION,
        "problem_digest": problem_digest(spec),
        "command": "subdiff",
        "config": config.as_dict(),
        "candidate": {"x": cand.x.tolist(), "y": cand.y.tolist()},
        "candidates": items,
        "errors": [{"W": list(W.values), "error": msg} for W, msg in gset.errors],
        "verdict": "computed",
    }
    _emit(doc, args.json_path)
    print(f"{len(items)} candidate gradients "
          f"({sum(1 for i in items if i['binary'])} from binary selectors)")
    for item in items:
        print(f"  W={item['W']} grad={item['gradient']}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "certify": _cmd_certify,
    "value-derivs": _cmd_value_derivs,
    "solve-lower": _cmd_solve_lower,
    "oracle": _cmd_oracle,
    "subdiff": _cmd_subdiff,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.cmd](args)
    except (ProblemFormatError, DomainError, SelectorCapError, ValueError, OSError,
            NewtonError, SingularSensitivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:  # the expression walks recurse per level
        print(f"error: an expression is nested too deeply ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
