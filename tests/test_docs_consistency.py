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


def test_analysis_md_rule_tables_match_registry():
    """docs/ANALYSIS.md lists every registered palint rule once, with its
    declared severity; its only other code is the one the engine emits
    itself (SRC100)."""
    from repro.analysis import RULES

    text = (ROOT / "docs/ANALYSIS.md").read_text()
    rows = re.findall(r"^\| `([A-Z]{3}\d{3})` \| ([^|]+)\|", text,
                      flags=re.MULTILINE)
    codes = [code for code, _ in rows]
    for code, rule in sorted(RULES.items()):
        assert codes.count(code) == 1, (
            f"docs/ANALYSIS.md lists {code} {codes.count(code)} times")
        severity = dict(rows)[code].split()[0]
        assert severity == rule.severity.name, (
            f"docs/ANALYSIS.md gives {code} severity {severity}, "
            f"the rule declares {rule.severity.name}")
    assert set(codes) - set(RULES) <= {"SRC100"}


@pytest.mark.parametrize("record", sorted(
    path.name for path in ROOT.glob("BENCH_*.json")))
def test_host_time_summaries_match_their_runs(record):
    """Every committed ``BENCH_*.json`` summary is recomputed from the
    result lines it keeps: quartiles with ``statistics.quantiles(n=4,
    method="inclusive")`` to 4 decimals, the median ratio to 3, the pair
    wins and relative worsening, each metric's bound from
    ``BENCHMARK.json``, and the failed-op and correctness totals."""
    import json
    import statistics

    metrics = {metric["name"]: metric for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    document = json.loads((ROOT / record).read_text())
    assert document["workloads"], f"{record} records no workload"
    for name, workload in document["workloads"].items():
        runs = workload["runs"]
        sides = ("parent", "change")
        assert workload["failed"] == {
            side: sum(run["result"]["failed"] for run in runs
                      if run["side"] == side) for side in sides}, name
        assert workload["all_correct"] == all(
            run["result"]["correct"] for run in runs), name
        for metric, summary in workload["summary"].items():
            values = {side: [run["result"]["metrics"][metric]["value"]
                             for run in runs if run["side"] == side]
                      for side in sides}
            quartiles = {side: statistics.quantiles(
                values[side], n=4, method="inclusive") for side in sides}
            where = f"{record} {name} {metric}"
            for side in sides:
                assert summary[f"{side}_q1_median_q3"] == [
                    round(value, 4) for value in quartiles[side]], where
            ratio = quartiles["change"][1] / quartiles["parent"][1]
            assert summary["median_ratio_change_over_parent"] == round(
                ratio, 3), where
            higher = metrics[metric]["better"] == "higher"
            pairs = {}
            for run in runs:
                pairs.setdefault(run["seed"], {})[run["side"]] = (
                    run["result"]["metrics"][metric]["value"])
            wins = sum((pair["change"] > pair["parent"]) == higher
                       and pair["change"] != pair["parent"]
                       for pair in pairs.values())
            assert summary["change_wins"] == f"{wins}/{len(pairs)}", where
            assert summary["change_worse_by"] == round(
                1 - ratio if higher else ratio - 1, 3), where
            assert summary["bound"] == metrics[metric]["bound"], where
