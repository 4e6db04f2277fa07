"""Condition verdicts shared by the lower-level, upper-level and certifier."""

from __future__ import annotations

from dataclasses import dataclass

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
SKIPPED = "skipped"
ERROR = "error"

# how a condition participates in the overall verdict
KIND_NECESSARY = "necessary"
KIND_SUFFICIENT = "sufficient"
KIND_QUALIFICATION = "qualification"
KIND_INFO = "info"


@dataclass
class ConditionCheck:
    """One verdict with its numeric evidence and the tolerance it was tested at."""

    name: str
    status: str
    value: float | None = None
    tolerance: float | None = None
    kind: str = KIND_INFO
    witness: object = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == SATISFIED
