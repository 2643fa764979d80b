"""Analysis inputs: the policy-set and source-file contexts rules see."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.core.policy import SecurityPolicy
from repro.fs.injection import find_variables


@dataclass
class PolicySetContext:
    """Every policy under analysis, keyed by name."""

    policies: Dict[str, SecurityPolicy]

    def names(self) -> List[str]:
        return sorted(self.policies)

    def referenced_secret_names(self, policy: SecurityPolicy) -> List[str]:
        """Secret names a policy's services actually consume, sorted.

        References appear as ``$$PALAEMON$NAME$$`` placeholders in
        injection-file templates, environment values, and command argv —
        exactly the three places the service substitutes at attestation.
        """
        referenced = set()
        for service in policy.services:
            for template in service.injection_files.values():
                referenced.update(find_variables(template))
            for value in service.environment.values():
                referenced.update(find_variables(value.encode()))
            for part in service.command:
                referenced.update(find_variables(part.encode()))
        return sorted(referenced)

    def imports_of(self, importer: SecurityPolicy,
                   source_name: str, secret_name: str) -> bool:
        """Whether ``importer`` imports ``secret_name`` from ``source_name``."""
        return any(spec.from_policy == source_name
                   and spec.secret_name == secret_name
                   for spec in importer.imports)


@dataclass
class SourceFile:
    """One parsed python source file under repo lint."""

    #: Repo-relative posix path, the stable display key.
    display: str
    #: Dotted module name (``repro.obs.metrics``), derived from the
    #: ``__init__.py`` chain above the file.
    module: str
    tree: ast.Module


def module_name_for(path: Path) -> str:
    """Dotted module path, walking up while ``__init__.py`` chains hold."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def load_source_file(path: Path, display: str) -> SourceFile:
    """Read and parse one file; raises ``SyntaxError`` on broken sources."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=display)
    return SourceFile(display=display, module=module_name_for(path),
                      tree=tree)
