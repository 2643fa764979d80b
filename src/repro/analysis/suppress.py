"""Suppression: inline ``# palint: disable=`` comments and baseline files.

Two mechanisms, both explicit and reviewable:

- **Inline**: a source line carrying ``# palint: disable=SRC102`` (or a
  comma-separated list, or ``all``) suppresses findings of those codes
  *on that line only*.
- **Baseline**: a JSON file listing finding identities
  (``"CODE subject:line"``) to tolerate — the escape hatch for adopting
  a new rule on an old tree.  The repo ships an empty baseline
  (``.palint-baseline.json``) and CI keeps it empty.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, List, Set, Tuple

from repro.analysis.findings import Finding

BASELINE_FILENAME = ".palint-baseline.json"
BASELINE_VERSION = 1

_INLINE_PATTERN = re.compile(
    r"#\s*palint:\s*disable=([A-Za-z0-9_,\s]+)")


def inline_disabled_codes(line_text: str) -> Set[str]:
    """Codes disabled by an inline comment on this source line."""
    match = _INLINE_PATTERN.search(line_text)
    if not match:
        return set()
    return {part.strip().upper() for part in match.group(1).split(",")
            if part.strip()}


def is_inline_suppressed(finding: Finding, line_text: str) -> bool:
    codes = inline_disabled_codes(line_text)
    return bool(codes) and (finding.code in codes or "ALL" in codes)


def load_baseline(path: Path) -> Set[str]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not path.exists():
        return set()
    document = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(document, dict):
        raise ValueError(f"{path}: baseline must be a JSON object")
    version = document.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline version {version!r}")
    entries = document.get("suppress", [])
    if (not isinstance(entries, list)
            or not all(isinstance(entry, str) for entry in entries)):
        raise ValueError(f"{path}: 'suppress' must be a list of strings")
    return set(entries)


def apply_baseline(findings: Iterable[Finding], suppressed: Set[str],
                   ) -> Tuple[List[Finding], int]:
    """Split findings into (kept, suppressed-count)."""
    kept = []
    dropped = 0
    for finding in findings:
        if finding.identity() in suppressed:
            dropped += 1
        else:
            kept.append(finding)
    return kept, dropped
