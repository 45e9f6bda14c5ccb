"""PASS/FAIL law reports, and InputError for failures that are the
caller's, shared by every checking engine."""
from __future__ import annotations

import enum
from dataclasses import dataclass


class InputError(ValueError):
    """A bad file, argument or parameter: the caller's fault, not the
    engine's.  The command line exits 2 on it; other exceptions are bugs."""


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one law on one structure.

    A FAIL always carries a witness: the lexicographically least tuple of
    element indices that violates the law, or, for the numerical engine,
    the (seed, trial) of the first failing trial, which replays it
    exactly.  SKIPPED marks a check whose hypotheses do not hold, as
    opposed to one that was violated.
    """

    law: str
    verdict: Verdict
    witness: tuple = ()
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS

    @property
    def failed(self) -> bool:
        return self.verdict is Verdict.FAIL

    def __str__(self) -> str:
        parts = [self.law, str(self.verdict)]
        if self.witness:
            parts.append(f"witness={self.witness}")
        if self.note:
            parts.append(self.note)
        return "  ".join(parts)


def law_pass(law: str, note: str = "") -> LawReport:
    return LawReport(law, Verdict.PASS, (), note)


def law_fail(law: str, witness, note: str = "") -> LawReport:
    return LawReport(law, Verdict.FAIL, tuple(witness), note)


def law_skip(law: str, note: str = "") -> LawReport:
    return LawReport(law, Verdict.SKIPPED, (), note)
