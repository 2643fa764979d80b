"""Consistency guards: documentation must reference things that exist.

Docs rot silently; these tests fail the suite when a documented module,
test file, example, or benchmark disappears or is renamed.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def referenced_paths(text):
    """Extract repo-relative path-looking references from markdown."""
    patterns = [
        r"`(tests/[\w/]+\.py)",
        r"`(benchmarks/[\w/]+\.py)",
        r"`(examples/[\w/]+\.py)",
        r"`(src/repro/[\w/]+\.py)",
        r"`(docs/[\w.]+\.md)`",
    ]
    found = set()
    for pattern in patterns:
        found.update(re.findall(pattern, text))
    return found


@pytest.mark.parametrize("doc", [
    "README.md", "DESIGN.md", "EXPERIMENTS.md",
    "docs/PROTOCOLS.md", "docs/THREAT_MODEL.md", "docs/SIMULATION.md",
    "docs/API.md", "docs/OBSERVABILITY.md", "docs/ANALYSIS.md",
    "docs/CHAOS.md", "docs/PERFORMANCE.md",
])
def test_documented_paths_exist(doc):
    text = (ROOT / doc).read_text()
    for path in sorted(referenced_paths(text)):
        assert (ROOT / path).exists(), f"{doc} references missing {path}"


def test_documented_modules_import():
    """Dotted module references in docs must import."""
    import importlib

    dotted = set()
    for doc in ("docs/PROTOCOLS.md", "docs/THREAT_MODEL.md", "docs/API.md",
                "docs/OBSERVABILITY.md", "docs/ANALYSIS.md",
                "docs/CHAOS.md", "docs/PERFORMANCE.md", "README.md"):
        text = (ROOT / doc).read_text()
        dotted.update(re.findall(r"`(repro\.[a-z_.]+)`", text))
    for module_name in sorted(dotted):
        parts = module_name.split(".")
        # Try importing progressively: the reference may be module.attr.
        for cut in range(len(parts), 1, -1):
            candidate = ".".join(parts[:cut])
            try:
                module = importlib.import_module(candidate)
                break
            except ImportError:
                continue
        else:
            pytest.fail(f"documented module {module_name} does not import")
        remainder = parts[cut:]
        target = module
        for attribute in remainder:
            target = getattr(target, attribute, None)
            assert target is not None, (
                f"documented attribute {module_name} missing")


def test_experiments_md_covers_every_benchmark():
    """EXPERIMENTS.md must name every benchmark file."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
        assert bench.name in text, f"EXPERIMENTS.md misses {bench.name}"


def test_design_md_experiment_index_matches_benchmarks():
    """Every bench named in DESIGN.md's experiment index exists."""
    text = (ROOT / "DESIGN.md").read_text()
    for name in re.findall(r"benchmarks/(test_\w+\.py)", text):
        assert (ROOT / "benchmarks" / name).exists(), name


def design_md_module_tree():
    """The file set of DESIGN.md's section-3 module tree, as paths
    relative to ``src/repro``. Indentation (two spaces a level) nests an
    entry under the directory above it; ``#`` starts a comment."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 3. System inventory"):]
    block = section.split("```")[1]
    directories, files = [], set()
    for line in block.splitlines():
        entries = line.split("#")[0].split()
        if not entries:
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        for entry in entries:
            if entry.endswith("/"):
                directories[depth:] = [entry.rstrip("/")]
            else:
                files.add("/".join(directories[1:depth] + [entry]))
    return files


def test_design_md_module_tree_matches_source():
    """DESIGN.md's module tree names exactly the modules under
    src/repro (package ``__init__.py`` files are implied by their
    directory)."""
    source = ROOT / "src" / "repro"
    actual = {path.relative_to(source).as_posix()
              for path in source.rglob("*.py")
              if path.name != "__init__.py"}
    documented = design_md_module_tree()
    assert sorted(documented - actual) == [], "DESIGN.md names missing modules"
    assert sorted(actual - documented) == [], "DESIGN.md omits modules"


def test_readme_example_table_matches_directory():
    text = (ROOT / "README.md").read_text()
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert example.name in text, f"README misses {example.name}"


def test_api_md_operation_table_matches_registry():
    """The docs/API.md route table is generated from the registry; any
    drift (a new operation, a changed field list, a reworded summary)
    must fail here until the table is regenerated."""
    from repro.core.dispatch import (
        TABLE_BEGIN,
        TABLE_END,
        render_operation_table,
    )

    text = (ROOT / "docs/API.md").read_text()
    assert TABLE_BEGIN in text and TABLE_END in text, (
        "docs/API.md lost its generated operation-table markers")
    begin = text.index(TABLE_BEGIN) + len(TABLE_BEGIN)
    documented = text[begin:text.index(TABLE_END)].strip()
    assert documented == render_operation_table(), (
        "docs/API.md operation table is out of date — regenerate it with "
        "repro.core.dispatch.render_operation_table()")
