"""Structured verification reports.

Every check in the package produces a Report rather than raising on a
mismatch: conjectures are allowed to fail, and a failure is a finding
that must carry its witness.  Reports serialize to JSON lines.  The
canonical form (used for determinism comparisons) drops the fields that
VOLATILE_FIELDS names, such as wall-clock durations; the full form
includes them.
Checks never time themselves: `timed`, the one runner, stamps duration_s.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

REPORT_FORMAT = "mbgram.report/1"

VOLATILE_FIELDS = ("duration_s",)

STATUSES = ("PASS", "FAIL", "SKIPPED")


@dataclass
class Report:
    """Outcome of one verified claim.

    FAIL status always carries a minimal witness: the parameter tuple it
    happened at plus the differing serialized values.
    """

    claim: str
    tag: str
    status: str
    params: Mapping | None = None
    witness: Mapping | None = None
    backend: str | None = None
    duration_s: float | None = None
    seed: int | None = None
    notes: Sequence[str] = field(default_factory=list)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "FAIL" and self.witness is None:
            raise ValueError("FAIL reports must carry a witness")

    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_obj(self, volatile: bool = True) -> dict:
        obj = {
            "format": REPORT_FORMAT,
            "claim": self.claim,
            "tag": self.tag,
            "status": self.status,
        }
        if self.params is not None:
            obj["params"] = dict(self.params)
        if self.witness is not None:
            obj["witness"] = dict(self.witness)
        if self.backend is not None:
            obj["backend"] = self.backend
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.notes:
            obj["notes"] = list(self.notes)
        if self.duration_s is not None:
            obj["duration_s"] = round(self.duration_s, 6)
        return obj if volatile else {k: v for k, v in obj.items() if k not in VOLATILE_FIELDS}

    def to_json_line(self, volatile: bool = True) -> str:
        return json.dumps(self.to_json_obj(volatile=volatile), sort_keys=True,
                          separators=(",", ":"))

    def canonical_json(self) -> str:
        """Byte-stable form: identical inputs and seed give identical text."""
        return self.to_json_line(volatile=False)


def timed(claim: Callable[[], Report]) -> Report:
    """Run a zero-argument claim and stamp its wall time on the Report."""
    started = time.perf_counter()
    report = claim()
    report.duration_s = time.perf_counter() - started
    return report


def render_table(reports: Sequence[Report]) -> str:
    """Human-readable table; the JSON lines stay the source of truth."""
    rows = [("CLAIM", "TAG", "STATUS", "TIME", "DETAIL")]
    for r in reports:
        detail = ""
        if r.params:
            detail = ", ".join(f"{k}={v}" for k, v in r.params.items()
                               if not isinstance(v, (dict, list)) or k == "at")
        dur = f"{r.duration_s:.2f}s" if r.duration_s is not None else ""
        rows.append((r.claim, r.tag, r.status, dur, detail))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = []
    for row in rows:
        lead = "  ".join(col.ljust(widths[i]) for i, col in enumerate(row[:4]))
        lines.append(f"{lead}  {row[4]}".rstrip())
    return "\n".join(lines)
