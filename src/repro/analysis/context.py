"""Analysis input: the parsed source file every rule sees."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


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
