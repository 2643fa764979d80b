"""Raw-document rules (``DOC0xx``): defects visible only before parsing.

``SecurityPolicy.from_dict`` fills in defaults (most notably a missing
board ``threshold`` becomes unanimity), so some misconfigurations vanish
from the parsed object.  These rules run on the yamlish mapping itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: Keys ``SecurityPolicy.from_dict`` understands at the top level.
_TOP_LEVEL_KEYS = frozenset((
    "name", "services", "secrets", "volumes", "imports",
    "volume_imports", "board"))
_BOARD_KEYS = frozenset(("members", "threshold"))


@rule("DOC001", "implicit unanimity threshold", scope="document",
      severity=Severity.WARNING)
def check_implicit_threshold(name: str, document: dict) -> Iterator[Finding]:
    board = document.get("board")
    if not isinstance(board, dict):
        return
    if "threshold" in board:
        return
    members = board.get("members") or []
    count = len(members) if isinstance(members, list) else 0
    yield Finding(
        code="DOC001", severity=Severity.WARNING, subject=name,
        message=(f"board omits 'threshold'; the parser defaults to "
                 f"unanimity ({count}-of-{count}), so one unreachable "
                 f"member freezes every policy access"),
        hint="write the threshold out; the serializer always emits it")


@rule("DOC002", "unknown document key", scope="document",
      severity=Severity.WARNING)
def check_unknown_keys(name: str, document: dict) -> Iterator[Finding]:
    if not isinstance(document, dict):
        return
    for key in sorted(set(document) - _TOP_LEVEL_KEYS):
        yield Finding(
            code="DOC002", severity=Severity.WARNING, subject=name,
            message=f"unknown top-level key {key!r} is ignored by the "
                    f"parser",
            hint=f"did you mean one of: "
                 f"{', '.join(sorted(_TOP_LEVEL_KEYS))}?")
    board = document.get("board")
    if isinstance(board, dict):
        for key in sorted(set(board) - _BOARD_KEYS):
            yield Finding(
                code="DOC002", severity=Severity.WARNING, subject=name,
                message=f"unknown board key {key!r} is ignored by the "
                        f"parser",
                hint="board accepts: members, threshold")
