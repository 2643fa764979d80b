"""``tools/reachability.py``: the probe plan, the function table it reads
from the sources, what a profiled run records, the summary counts, and
the keep table that explains what no run reaches."""

import importlib.util
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"


@pytest.fixture
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def source(tmp_path, reachability, monkeypatch):
    """A one-module source tree the tool reads instead of ``src/repro``."""
    package = tmp_path / "probed_pkg"
    package.mkdir()
    (package / "__init__.py").touch()
    (package / "shapes.py").write_text(textwrap.dedent("""\
        import functools


        def called():
            return 1


        @functools.lru_cache(maxsize=None)
        def cached():
            def inner():
                return 2
            return inner()


        class Box:
            def method(self):
                return 3
        """))
    monkeypatch.setattr(reachability, "SOURCE", package)
    return package


def test_plan_disables_benchmark_timing(reachability):
    plan = reachability.runs()
    assert plan[0] == ("module", "pytest",
                       ["benchmarks", "--benchmark-disable", "-q",
                        "-p", "no:cacheprovider"])
    examples = [Path(target).name for kind, target, _ in plan
                if kind == "script" and "examples" in Path(target).parts]
    assert examples == sorted(
        path.name for path in (TOOL.parents[1] / "examples").glob("*.py"))
    workloads = [argv[1] for _, target, argv in plan
                 if Path(target).name == "run.py"]
    assert workloads == list(reachability.WORKLOADS)


def test_functions_start_at_the_first_decorator(reachability, source):
    table = {entry["name"]: entry for entry in reachability.functions()}
    assert sorted(table) == ["Box.method", "cached", "cached.inner",
                             "called"]
    assert (table["called"]["line"], table["called"]["body_lines"]) == (4, 1)
    assert (table["cached"]["line"], table["cached"]["body_lines"]) == (8, 3)
    assert table["cached.inner"]["outer"] is table["cached"]
    assert table["Box.method"]["outer"] is None


def test_child_records_only_called_source_functions(
        reachability, source, tmp_path, monkeypatch):
    script = tmp_path / "drive.py"
    script.write_text("import probed_pkg.shapes\nprobed_pkg.shapes.called()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.delitem(sys.modules, "probed_pkg", raising=False)
    monkeypatch.delitem(sys.modules, "probed_pkg.shapes", raising=False)
    out = tmp_path / "hits.json"
    reachability.child("script", str(script), [], out)
    hits = {tuple(hit) for hit in json.loads(out.read_text())}
    starts = {(entry["file"], entry["line"])
              for entry in reachability.functions()}
    # Module and class bodies run on import too; of the functions only
    # ``called`` ran.
    assert hits & starts == {("shapes.py", 4)}
    assert ("shapes.py", 1) in hits


@pytest.mark.parametrize("argv, code, fails", [
    ([], 0, False), ([], None, False), ([], 2, True), ([], 1, True),
    (["lint"], 1, False), (["lint"], 2, True)])
def test_child_fails_when_its_run_fails(reachability, tmp_path, monkeypatch,
                                        argv, code, fails):
    """A failed run stops the probe; only ``lint`` may exit 1 (findings)."""
    script = tmp_path / "exits.py"
    script.write_text(f"import sys\nsys.exit({code!r})\n")
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    out = tmp_path / "hits.json"
    if fails:
        with pytest.raises(SystemExit):
            reachability.child("script", str(script), argv, out)
        assert not out.exists()
    else:
        reachability.child("script", str(script), argv, out)
        assert json.loads(out.read_text()) == []


def test_summary_counts_nested_lines_once(reachability, source, monkeypatch,
                                          capsys):
    monkeypatch.setattr(reachability, "probe",
                        lambda: {("shapes.py", 4)})
    monkeypatch.setattr(reachability, "KEEP", {})
    assert reachability.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    # cached (3 lines, inner's among them) and Box.method (1 line).
    assert lines[:4] == ["functions: 4", "unreached: 3 (4 body lines)",
                         "explained: 0", "unexplained: 3"]
    assert len(lines) == 7
    assert all(line.endswith(": UNEXPLAINED") for line in lines[4:])


def test_probe_passes_when_keep_explains_every_unreached_function(
        reachability, source, monkeypatch, capsys):
    monkeypatch.setattr(reachability, "probe",
                        lambda: {("shapes.py", 4)})
    monkeypatch.setattr(reachability, "KEEP", {
        "shapes.py:cached": reachability.ORACLE,
        "shapes.py:cached.inner": reachability.ORACLE,
        "shapes.py:Box.method": reachability.reserved(1)})
    assert reachability.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == ["explained: 3", "unexplained: 0"]
    assert lines[-1].endswith(
        "Box.method (1 lines): open ROADMAP item 1 reserves it")


def open_roadmap_items():
    """The numbers of the items under ROADMAP.md's "Open items"."""
    text = (TOOL.parents[1] / "ROADMAP.md").read_text(encoding="utf-8")
    section = text.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number)
            for number in re.findall(r"^(\d+)\. \*\*", section, re.M)}


class TestKeepTable:
    """Every entry of the keep table names a function the sources define
    and gives an allowed reason, so a rename or a deletion cannot leave a
    stale entry behind. Reads the sources only; runs nothing."""

    def test_every_entry_names_a_function(self, reachability):
        defined = {f"{entry['file']}:{entry['name']}"
                   for entry in reachability.functions()}
        assert sorted(set(reachability.KEEP) - defined) == []

    def test_every_entry_gives_an_allowed_reason(self, reachability):
        items = open_roadmap_items()
        assert items
        allowed = set(reachability.REASONS) | {
            reachability.reserved(item) for item in items}
        for name, reason in reachability.KEEP.items():
            assert reason in allowed, name
