"""Committed baseline: grandfathered findings, keyed by stable fingerprints.

A fingerprint hashes what a finding *is* (check, file, the source line's
text, which occurrence of that text) rather than where it currently sits
(the line number), so unrelated edits above a grandfathered site don't
invalidate the baseline. The file is committed JSON — reviewable in
diffs, regenerated with ``tools/reprolint.py --update-baseline`` — and
entries that no longer fire are reported as *stale* so the baseline only
ever shrinks toward empty.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .model import Finding, Project


def fingerprint(finding: Finding, context: str, occurrence: int = 0) -> str:
    """Stable identity of one finding.

    ``context`` is the stripped text of the flagged source line (or the
    finding message for non-python targets such as ``tools/layering.toml``);
    ``occurrence`` disambiguates identical lines in one file.
    """
    payload = "|".join(
        [finding.check, finding.path, context.strip(), str(occurrence)]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def finding_fingerprints(findings: list[Finding], project: Project) -> list[str]:
    """Fingerprints for ``findings``, occurrence-numbered per identical context."""
    seen: dict[tuple[str, str, str], int] = {}
    out: list[str] = []
    for f in findings:
        source = project.file(f.path)
        context = source.line_text(f.line) if source is not None else f.message
        if not context.strip():
            context = f.message
        key = (f.check, f.path, context.strip())
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        out.append(fingerprint(f, context, occurrence))
    return out


@dataclass
class Baseline:
    """The committed set of grandfathered fingerprints."""

    version: int = 1
    #: fingerprint -> descriptive metadata (for diff readability only;
    #: matching is by fingerprint alone).
    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.is_file():
            return cls()
        doc = json.loads(path.read_text(encoding="utf-8"))
        return cls(version=int(doc.get("version", 1)), entries=dict(doc.get("findings", {})))

    def save(self, path: Path) -> None:
        doc = {
            "version": self.version,
            "comment": (
                "Grandfathered reprolint findings. Regenerate with "
                "`python tools/reprolint.py --update-baseline`; entries that "
                "stop firing are reported stale and should be deleted."
            ),
            "findings": {k: self.entries[k] for k in sorted(self.entries)},
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")

    def __contains__(self, fp: str) -> bool:
        return fp in self.entries

    @classmethod
    def from_findings(cls, findings: list[Finding], fingerprints: list[str]) -> "Baseline":
        entries = {
            fp: {
                "check": f.check,
                "path": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f, fp in zip(findings, fingerprints)
        }
        return cls(entries=entries)

    def stale(self, live_fingerprints: set[str]) -> dict[str, dict]:
        """Baseline entries that no longer correspond to any live finding."""
        return {fp: meta for fp, meta in self.entries.items() if fp not in live_fingerprints}
