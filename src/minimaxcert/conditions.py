"""Condition verdicts shared by the lower-level, upper-level and certifier,
and the verdict policy: `POLICY` is the one table of each deciding check's
kind and requirements, and `FIRST_ORDER` names the checks that let a path
pass its necessary conditions."""

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

# name -> (kind, the checks that must be `satisfied` in the same report before
# it may decide a verdict); every other name is `info` with none.  The inner
# KKT conditions are necessary under LICQ; the outer ones need the value
# function's derivatives (the sensitivity system), first order needs MFCQ
# (Gauvin 1977), both second-order checks a multiplier (first order), and
# nonsmooth first order the standing assumption (Assumption A)
POLICY = {
    "evaluation": (KIND_NECESSARY, ()),
    "lower_licq": (KIND_QUALIFICATION, ()),
    "lower_kkt": (KIND_NECESSARY, ("lower_licq",)),
    "lower_second_order_necessary": (KIND_NECESSARY, ("lower_kkt", "lower_licq")),
    "assumption_a": (KIND_QUALIFICATION, ()),
    "mfcq": (KIND_QUALIFICATION, ()),
    "first_order": (KIND_NECESSARY, ("sensitivity_system", "mfcq")),
    "second_order_necessary": (KIND_NECESSARY, ("sensitivity_system", "mfcq", "first_order")),
    "second_order_sufficient": (KIND_SUFFICIENT, ("sensitivity_system", "first_order")),
    "first_order_nonsmooth": (KIND_NECESSARY, ("assumption_a", "mfcq")),
}
_INFO = (KIND_INFO, ())

# the first-order check of each path (smooth, nonsmooth): a path passes its
# necessary conditions only when one of these ran to a verdict
FIRST_ORDER = ("first_order", "first_order_nonsmooth")


@dataclass
class ConditionCheck:
    """One verdict with its numeric evidence and the tolerance it was tested
    at.  Its `kind` and `requires` follow from its name (`POLICY`)."""

    name: str
    status: str
    value: float | None = None
    tolerance: float | None = None
    witness: object = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == SATISFIED

    @property
    def kind(self) -> str:
        return POLICY.get(self.name, _INFO)[0]

    @property
    def requires(self) -> tuple[str, ...]:
        return POLICY.get(self.name, _INFO)[1]
