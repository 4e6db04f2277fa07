"""Report documents: a pinned JSON schema, a canonical byte-stable writer,
and the human-readable summary rendered purely from the JSON content.

Top level: {version, problem_digest, command, config, candidate, path,
results[], verdict, decided_by[], notes[]};  each result: {name, status,
kind, margin, tolerance, requires[]?, witness?, detail?}.  `requires` names
the checks that must be `satisfied` in the same report before the result may
decide the verdict (`certify.REQUIRES`, written only when nonempty);
`decided_by` names the checks the verdict was decided by: the refuting
checks, `second_order_sufficient`, the necessary checks that passed, or none
when inconclusive.  Finite floats carry 17 significant digits; non-finite
values are the strings "inf"/"-inf"/"nan" (strict JSON has no literals for
them).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .certify import CertificateReport
from .conditions import ConditionCheck

SCHEMA_VERSION = "0.1.0"


def _jsonable(value):
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def check_to_dict(check: ConditionCheck) -> dict:
    out = {
        "name": check.name,
        "status": check.status,
        "kind": check.kind,
        "margin": _jsonable(check.value),
        "tolerance": _jsonable(check.tolerance),
    }
    if check.requires:
        out["requires"] = list(check.requires)
    if check.witness is not None:
        out["witness"] = _jsonable(check.witness)
    if check.detail:
        out["detail"] = check.detail
    return out


def report_to_doc(report: CertificateReport) -> dict:
    candidate = {"x": _jsonable(report.candidate.x), "y": _jsonable(report.candidate.y)}
    for name in ("mu", "lam", "u", "v"):
        val = getattr(report.candidate, name)
        if val is not None:
            candidate[name] = _jsonable(val)
    return {
        "version": report.version,
        "problem_digest": report.problem_digest,
        "command": report.command,
        "config": _jsonable(report.config.as_dict()),
        "candidate": candidate,
        "path": report.path,
        "results": [check_to_dict(c) for c in report.results],
        "verdict": report.verdict,
        "decided_by": list(report.decided_by),
        "notes": list(report.notes),
    }


def _format_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    text = format(v, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def dumps_canonical(doc) -> str:
    """Deterministic JSON writer (insertion order kept, floats at 17 digits)."""
    pieces: list[str] = []
    _write(doc, pieces)
    return "".join(pieces)


def _write(value, out: list[str]):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(str(k)))
            out.append(":")
            _write(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def loads(text: str) -> dict:
    doc = json.loads(text)
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report version {version!r} (expected {SCHEMA_VERSION})"
        )
    return doc


def _render_value(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, list):
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    return str(v)


def render_summary(doc: dict) -> str:
    """Human-readable view; a pure function of the JSON document."""
    lines = []
    lines.append(f"command: {doc.get('command', '?')}")
    lines.append(f"problem: {doc.get('problem_digest', '?')[:16]}")
    cand = doc.get("candidate", {})
    if cand:
        parts = [f"{k}={_render_value(v)}" for k, v in cand.items()]
        lines.append("candidate: " + "  ".join(parts))
    if "path" in doc:
        lines.append(f"path: {doc['path']}")
    results = doc.get("results", [])
    if results:
        name_w = max(len(r.get("name", "")) for r in results)
        status_w = max(len(r.get("status", "")) for r in results)
        lines.append("")
        for r in results:
            margin = _render_value(r.get("margin"))
            tol = _render_value(r.get("tolerance"))
            row = (
                f"  {r.get('name', ''):<{name_w}}  {r.get('status', ''):<{status_w}}"
                f"  margin={margin}  tol={tol}"
            )
            detail = r.get("detail")
            if detail:
                row += f"  ({detail})"
            lines.append(row)
        lines.append("")
    for note in doc.get("notes", []):
        lines.append(f"note: {note}")
    lines.append(f"verdict: {doc.get('verdict', '?')}")
    return "\n".join(lines) + "\n"
