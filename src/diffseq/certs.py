"""Machine-checkable pass/fail records shared by all verification layers.

A certificate never claims more than what was checked: ``verified_range``
states the finite scope (or names the periodicity or induction argument that
upgrades a finite check to a universal one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Certificate:
    claim: str
    params: dict
    verified_range: str
    passed: bool
    counterexample: Optional[dict] = None
    witnesses: Optional[Any] = None
    notes: str = ""
    components: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "verified_range": self.verified_range,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        if self.notes:
            out["notes"] = self.notes
        if self.components:
            out["components"] = [
                c.to_json() if isinstance(c, Certificate) else c for c in self.components
            ]
        return out
