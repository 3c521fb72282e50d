"""Machine-checkable verification reports.

A report is an ordered list of checks, each comparing a computed value to an
expected one under plain equality after canonicalization (SW data is compared
as magnitude multisets by the callers; sequences become tuples, so a value
may be shared).  Serialization is deterministic: repeated runs of the same
pipeline produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import REPORT_VERSION

# provenance of an expected value: stated by the source construction,
# derived here by an independent route, or a defining/trivial instance
REPORTED = "reported"
DERIVED = "derived"
DEFINITION = "definition"


# the types canonical returns as they are
_PLAIN = frozenset((bool, int, str, type(None)))


def canonical(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(v if type(v) in _PLAIN else canonical(v) for v in value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, int):
        return value
    return str(value)


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    expected: object
    computed: object
    provenance: str = DERIVED

    def __post_init__(self):
        if type(self.expected) not in _PLAIN:
            object.__setattr__(self, "expected", canonical(self.expected))
        if type(self.computed) not in _PLAIN:
            object.__setattr__(self, "computed", canonical(self.computed))

    @classmethod
    def _trusted(cls, id, description, expected, computed, provenance=DERIVED):
        """A check whose values are already canonical; nothing is converted."""
        self = object.__new__(cls)
        self.__dict__.update(id=id, description=description, expected=expected,
                             computed=computed, provenance=provenance)
        return self

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "paper_ref": self.id,
            "provenance_tag": self.provenance,
        }


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, id: str, description: str, expected, computed, provenance: str = DERIVED) -> Check:
        check = Check(id, description, expected, computed, provenance)
        self.checks.append(check)
        return check

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed

    @property
    def all_pass(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "checks": [c.to_dict() for c in self.checks],
            "summary": {"passed": self.passed, "failed": self.failed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = []
        width = max((len(c.id) for c in self.checks), default=0)
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"[{status}] {c.id:<{width}}  {c.description}"
            if not c.passed:
                shown = json.loads(json.dumps([c.expected, c.computed]))  # tuples as lists
                line += f"  (expected {shown[0]!r}, computed {shown[1]!r})"
            lines.append(line)
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)
