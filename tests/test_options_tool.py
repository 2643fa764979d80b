"""``tools/options.py``: what counts as an option, on a two-class tree."""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "options.py"

TWO_CLASSES = textwrap.dedent('''\
    from dataclasses import dataclass, field
    from typing import ClassVar, List


    class Server:
        LIMIT = 3

        def __init__(self, simulator, name, *, threads=4, **extra):
            self.name = name

        def serve(self, request, deadline=None):
            return request


    @dataclass(frozen=True)
    class Reply:
        """A docstring is no field."""

        status: int
        headers: List[str] = field(default_factory=list)
        KIND = "reply"

        def ok(self, strict: bool = False) -> bool:
            return self.status == 200
    ''')


@pytest.fixture
def options():
    spec = importlib.util.spec_from_file_location("options", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_init_parameters_and_dataclass_fields(options, tmp_path,
                                                     capsys):
    """``Server`` has four (``simulator``, ``name``, ``threads`` and
    ``**extra``; not ``self``, not ``serve``'s), ``Reply`` two annotated
    fields (not the bare ``KIND``, not ``ok``'s parameter)."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "shapes.py").write_text(TWO_CLASSES)
    (package / "empty.py").write_text("")
    assert options.count_options(package) == 6
    assert options.main([str(package)]) == 0
    assert capsys.readouterr().out == f"{package}: 6 options\n"


def test_a_plain_class_has_no_fields(options):
    """Annotations count only in a dataclass body."""
    plain = TWO_CLASSES.replace("@dataclass(frozen=True)\n", "")
    classes = [node for node in ast.parse(plain).body
               if isinstance(node, ast.ClassDef)]
    assert [options.class_options(node) for node in classes] == [4, 0]
