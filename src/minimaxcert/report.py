"""Report documents: a pinned JSON schema, a canonical byte-stable writer,
and the human-readable summary rendered purely from the JSON content.

Top level: {version, problem_digest, command, config, candidate, path,
results[], verdict, decided_by[], notes[]};  each result: {name, status,
kind, margin, tolerance, requires[]?, witness?, detail?}.  `kind` and
`requires`, the checks that must be `satisfied` in the same report before the
result may decide the verdict, are its name's entry in `conditions.POLICY`
(`requires` written only when nonempty); `decided_by` names the checks the
verdict was decided by: the refuting checks, the sufficient check that
certified, the necessary checks that passed, or none when inconclusive.
Finite floats carry 17 significant digits; non-finite values are the strings
"inf"/"-inf"/"nan" (strict JSON has no literals for them).

`_jsonable` is the one converter: it turns numpy values, subclasses of the
plain types and non-str keys into plain JSON.  `dumps_canonical` and
`render_summary` read only plain values, as `report_to_doc` and the CLI build
them: dicts with str keys, lists and tuples, and float, str, int, bool and
None, each of exactly that type; the writer raises TypeError naming any other
type.  Every document carries version SCHEMA_VERSION, which `loads` checks.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .certify import CertificateReport
from .conditions import ConditionCheck

SCHEMA_VERSION = "0.1.0"


# exact types that `_jsonable` returns unchanged; subclasses of them take
# the isinstance chain
_PLAIN = frozenset((float, str, int, bool, type(None)))
_FLOAT64 = np.dtype(np.float64)


def _jsonable(value):
    t = type(value)
    if t in _PLAIN:
        return value
    if t is np.ndarray and value.ndim and value.dtype == _FLOAT64:
        return value.tolist()  # nested lists of floats, as the walk below gives
    if t is list or t is tuple:
        return [v if type(v) in _PLAIN else _jsonable(v) for v in value]
    if t is dict:
        return {k if type(k) is str else str(k): v if type(v) in _PLAIN else _jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()  # a Python scalar, or nested lists of them
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, (float, np.floating)):  # .tolist() keeps a longdouble
        return float(value)
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
        "version": SCHEMA_VERSION,
        "problem_digest": report.problem_digest,
        "command": "certify",
        "config": _jsonable(report.config.as_dict()),
        "candidate": candidate,
        "path": report.path,
        "results": [check_to_dict(c) for c in report.results],
        "verdict": report.verdict,
        "decided_by": list(report.decided_by),
        "notes": list(report.notes),
    }


def dumps_canonical(doc) -> str:
    """Deterministic JSON writer (insertion order kept, floats at 17 digits)
    of a plain document; anything else raises TypeError."""
    t = type(doc)
    if t is dict or t is list or t is tuple:
        return _text(doc, {}, {})
    return _text([doc], {}, {})[1:-1]  # a scalar is written as a list member


def _text(value, keys: dict, strings: dict) -> str:
    """The canonical text of `value`, a dict with str keys, a list or a tuple,
    each of exact type.  Members of exact type float, str, int, bool or None
    are written in the loop, with no call per member: floats at 17
    significant digits, ".0" on integral values, and "nan", "inf" and "-inf"
    (the texts that end in a letter) as JSON strings.  `keys` and `strings`
    memoise the encoded text of each key and str value within one call.
    Any other type raises TypeError."""
    t = type(value)
    if t is dict:
        parts = []
        for k, v in value.items():
            if type(k) is not str:
                raise TypeError(f"cannot serialize a key of {type(k)!r}")
            head = keys.get(k)
            if head is None:
                head = keys[k] = encode_basestring_ascii(k) + ":"
            tv = type(v)
            if tv is float:
                text = f"{v:.17g}"
                if "." not in text and "e" not in text:
                    text = f'"{text}"' if text[-1] in "nf" else text + ".0"
            elif tv is str:
                text = strings.get(v)
                if text is None:
                    text = strings[v] = encode_basestring_ascii(v)
            elif v is None:
                text = "null"
            elif tv is int:
                text = str(v)
            elif v is True:
                text = "true"
            elif v is False:
                text = "false"
            else:
                text = _text(v, keys, strings)
            parts.append(head + text)
        return "{" + ",".join(parts) + "}"
    if t is list or t is tuple:
        parts = []
        for v in value:
            tv = type(v)
            if tv is float:
                text = f"{v:.17g}"
                if "." not in text and "e" not in text:
                    text = f'"{text}"' if text[-1] in "nf" else text + ".0"
            elif tv is str:
                text = strings.get(v)
                if text is None:
                    text = strings[v] = encode_basestring_ascii(v)
            elif v is None:
                text = "null"
            elif tv is int:
                text = str(v)
            elif v is True:
                text = "true"
            elif v is False:
                text = "false"
            else:
                text = _text(v, keys, strings)
            parts.append(text)
        return "[" + ",".join(parts) + "]"
    raise TypeError(f"cannot serialize {t!r}")


def loads(text: str):
    """One report document, or the list of them a multi-candidate `certify`
    writes; ValueError unless each is an object of version SCHEMA_VERSION."""
    doc = json.loads(text)
    docs = doc if type(doc) is list else [doc]
    if not docs:
        raise ValueError("no report document: an empty list")
    for d in docs:
        if type(d) is not dict:
            raise ValueError(f"a report document is a JSON object, not {type(d).__name__}")
        version = d.get("version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report version {version!r} (expected {SCHEMA_VERSION})"
            )
    return doc


def _render_value(v) -> str:
    t = type(v)
    if t is float:
        return format(v, ".6g")
    if t is str:
        return v
    if t is list:
        return "[" + ", ".join([format(x, ".6g") if type(x) is float else _render_value(x)
                                for x in v]) + "]"
    if v is None:
        return "-"
    if t is bool:
        return "yes" if v else "no"
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
        names = [r.get("name", "") for r in results]
        statuses = [r.get("status", "") for r in results]
        name_w = max(map(len, names))
        status_w = max(map(len, statuses))
        lines.append("")
        for r, name, status in zip(results, names, statuses):
            margin = _render_value(r.get("margin"))
            tol = _render_value(r.get("tolerance"))
            row = f"  {name:<{name_w}}  {status:<{status_w}}  margin={margin}  tol={tol}"
            detail = r.get("detail")
            if detail:
                row += f"  ({detail})"
            lines.append(row)
        lines.append("")
    for note in doc.get("notes", []):
        lines.append(f"note: {note}")
    lines.append(f"verdict: {doc.get('verdict', '?')}")
    return "\n".join(lines) + "\n"
