"""Static analysis ("palint"): policy linting + deterministic repo lint.

PALAEMON's value proposition is that misconfigured trust is caught
*before* secrets leak.  This package is the tooling that makes the catch
happen ahead of runtime: a small rule engine with two rule families.

- **Policy analysis** (``PAL0xx``/``DOC0xx``) runs over parsed
  :class:`~repro.core.policy.SecurityPolicy` objects and raw yamlish
  documents: weak board quorums (threshold below ``f+1``), veto-less
  boards, silently-defaulted unanimity, dangling/cyclic imports, secrets
  injected through argv (world-readable via ``/proc``), debug-mode
  environments, unused secrets and exports, and stale permitted
  combinations.
- **Repo lint** (``SRC1xx``) runs over our own sources with the stdlib
  ``ast`` module: wall-clock calls inside the deterministic packages
  (``repro.sim``, ``repro.obs``, ``repro.analysis``), bare ``except``,
  REST error codes violating the snake_case convention, and
  state-changing ``PalaemonService`` methods that never emit an audit
  record.

Everything is deterministic: rules run in code order, findings sort
on a stable key, reporters never embed timestamps — the same tree and
the same policies produce byte-identical output on every run.

Entry points: ``python -m repro lint`` (CLI over the repo),
:class:`~repro.analysis.engine.Analyzer` (programmatic), and
``PalaemonService.create_policy(..., analyze=True)`` (the pre-board
gate).  The rule catalogue lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.engine import Analyzer
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RULES, Rule

__all__ = [
    "Analyzer",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
]
