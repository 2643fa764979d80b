#!/usr/bin/env python3
"""Count the options of a source tree.

An option is a value a caller may choose when it builds an object: every
parameter of a class's ``__init__`` except ``self``, plus every field of
a ``@dataclass``. Run from the root of a checkout:

    python3 tools/options.py [DIR ...]

It prints ``DIR: N options`` for each directory (default ``src``),
counting every ``*.py`` file under it. The count has no threshold; CI
prints it for the base and the head of a pull request.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def _is_dataclass(decorator: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return ((isinstance(decorator, ast.Name) and decorator.id == "dataclass")
            or (isinstance(decorator, ast.Attribute)
                and decorator.attr == "dataclass"))


def class_options(node: ast.ClassDef) -> int:
    """The options one class declares in its own body."""
    count = 0
    dataclass = any(map(_is_dataclass, node.decorator_list))
    for statement in node.body:
        if (isinstance(statement, ast.FunctionDef)
                and statement.name == "__init__"):
            arguments = statement.args
            names = [argument.arg for argument in
                     arguments.posonlyargs + arguments.args
                     + arguments.kwonlyargs]
            count += sum(name != "self" for name in names)
            count += (arguments.vararg is not None) + (
                arguments.kwarg is not None)
        elif (dataclass and isinstance(statement, ast.AnnAssign)
              and isinstance(statement.target, ast.Name)):
            count += 1
    return count


def count_options(root: Path) -> int:
    """The options of every class in every ``*.py`` file under ``root``."""
    return sum(class_options(node)
               for path in sorted(root.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.ClassDef))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path, default=[Path("src")])
    for root in parser.parse_args(argv).dirs:
        print(f"{root}: {count_options(root)} options")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
