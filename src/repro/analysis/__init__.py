"""Static analysis ("palint"): deterministic lint of our own sources.

The rules (``SRC1xx``) run over ``src/repro`` with the stdlib ``ast``
module and guard the architecture: wall-clock calls inside the
deterministic packages (``repro.sim``, ``repro.obs``, ``repro.analysis``),
bare and broad ``except``, REST error codes violating the snake_case
convention, state-changing ``PalaemonService`` methods that never emit
an audit record, whole-database flushes, transports that bypass the
dispatcher, raw endpoint traffic outside ``repro.sim``/``repro.tls``, and
retry wrappers outside ``repro.sim.retry``.

Everything is deterministic: rules run in code order, findings sort
on a stable key, reporters never embed timestamps — the same tree
produces byte-identical output on every run.

Entry points: ``python -m repro lint`` (CLI over the repo) and
:func:`~repro.analysis.engine.analyze_sources` (programmatic). The rule
catalogue lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.engine import analyze_sources
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RULES, Rule

__all__ = [
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "analyze_sources",
]
