"""``tools/reachability.py``: the probe plan, the function table it reads
from the sources, what a traced run records, how unexecuted statements
group into blocks, the summary counts, and the keep table that explains
what no run reaches."""

import importlib.util
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"

#: Statements marked ``# idle`` are the ones no run executed.
KINDS = textwrap.dedent('''\
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


    def every_kind(flag, items, path):
        """A docstring compiles to no line event."""
        global COUNT
        if flag:
            a = 1  # idle
        elif items:
            a = 2  # idle
        else:
            a = 3
        for item in items:
            a += item  # idle
        else:
            a += 1  # idle
        while flag:
            a -= 1  # idle
        try:
            a += 1
            a += 2  # idle
        except ValueError:
            a = 0  # idle
        else:
            a += 2  # idle
        finally:
            a += 3  # idle
        with open(path) as handle:
            a += len(handle.read())  # idle
        return a


    def error_paths(flag):
        if flag:
            reason = "refused"  # idle
            raise ValueError(reason)  # idle
        if not flag:
            return 1
        return 2  # idle
    ''')

MATCH = textwrap.dedent('''\
    def matcher(command):
        match command:
            case "go":
                return 1  # idle
            case _:
                return 0
    ''')


@pytest.fixture
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_source(tmp_path, monkeypatch, reachability, text, name="shapes.py"):
    """A one-module source tree the tool reads instead of ``src/repro``."""
    package = tmp_path / "probed_pkg"
    package.mkdir(exist_ok=True)
    (package / "__init__.py").touch()
    (package / name).write_text(text)
    monkeypatch.setattr(reachability, "SOURCE", package)
    return package


@pytest.fixture
def source(tmp_path, reachability, monkeypatch):
    return make_source(tmp_path, monkeypatch, reachability, KINDS)


def ran_lines(text):
    """Every line of ``text`` except the ``# idle`` ones and the lines of
    docstrings, which no line event names."""
    skipped = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if line.rstrip().endswith("# idle") or line.strip().startswith('"""'):
            skipped.add(number)
    return set(range(1, len(text.splitlines()) + 1)) - skipped


def blocks_of(reachability, name, text):
    table = {entry["name"]: entry for entry in reachability.functions()}
    return reachability.blocks(table[name], ran_lines(text))


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
                             "called", "error_paths", "every_kind"]
    assert (table["called"]["line"], table["called"]["body_lines"]) == (4, 1)
    assert (table["cached"]["line"], table["cached"]["body_lines"]) == (8, 3)
    assert table["cached.inner"]["outer"] is table["cached"]
    assert table["Box.method"]["outer"] is None


def test_child_records_called_functions_and_ran_lines(
        reachability, source, tmp_path, monkeypatch):
    script = tmp_path / "drive.py"
    script.write_text("import probed_pkg.shapes\n"
                      "probed_pkg.shapes.called()\n"
                      "probed_pkg.shapes.error_paths(False)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.delitem(sys.modules, "probed_pkg", raising=False)
    monkeypatch.delitem(sys.modules, "probed_pkg.shapes", raising=False)
    out = tmp_path / "hits.json"
    reachability.child("script", str(script), [], out)
    hits = json.loads(out.read_text())
    called = {tuple(hit) for hit in hits["called"]}
    table = {entry["name"]: entry for entry in reachability.functions()}
    starts = {(entry["file"], entry["line"]) for entry in table.values()}
    # Module and class bodies run on import too; of the functions only
    # ``called`` and ``error_paths`` ran.
    assert called & starts == {("shapes.py", table["called"]["line"]),
                               ("shapes.py", table["error_paths"]["line"])}
    assert ("shapes.py", 1) in called
    ran = set(hits["lines"]["shapes.py"])
    found = reachability.blocks(table["error_paths"], ran)
    assert [(block["kind"], block["error"]) for block in found] == [
        ("function body", False), ("if arm", True)]
    assert found[0]["key"] == "shapes.py:error_paths:return 2  # idle"


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
        assert json.loads(out.read_text()) == {"called": [], "lines": {}}


def test_probe_prints_each_run_wall_time_slowest_first(
        reachability, tmp_path, monkeypatch, capsys):
    fast = tmp_path / "fast.py"
    fast.write_text("")
    slow = tmp_path / "slow.py"
    slow.write_text("import time\ntime.sleep(0.5)\n")
    monkeypatch.setattr(reachability, "runs", lambda: [
        ("script", str(fast), []), ("script", str(slow), ["--flag"])])
    assert reachability.probe() == {"called": set(), "lines": {}}
    walls = capsys.readouterr().err.splitlines()[-3:]
    assert [line.split(" s  ", 1)[1] for line in walls] == [
        "script slow.py --flag", "script fast.py", "total"]
    seconds = [float(line.split()[1]) for line in walls]
    assert seconds[0] >= 0.5
    assert seconds[2] == pytest.approx(seconds[0] + seconds[1], abs=0.11)


class TestBlocks:
    """Unexecuted statements group by the AST into the blocks that hold
    them; an ``except`` body, or a block ending in ``raise``, is an error
    path."""

    def test_every_block_kind(self, reachability, source):
        found = blocks_of(reachability, "every_kind", KINDS)
        assert [(block["kind"], block["line"], block["error"])
                for block in found] == [
            ("if arm", 24, False),
            ("if arm", 26, False),
            ("loop body", 30, False),
            ("loop else", 32, False),
            ("loop body", 34, False),
            ("try body", 37, False),
            ("except", 39, True),
            ("try else", 41, False),
            ("finally", 43, False),
            ("with body", 45, False),
        ]
        assert all(block["lines"] == 1 for block in found)

    def test_docstring_and_declarations_are_no_block(self, reachability,
                                                     source):
        """A function whose every statement ran but its docstring and its
        ``global`` declaration has no function-body block."""
        kinds = [block["kind"]
                 for block in blocks_of(reachability, "every_kind", KINDS)]
        assert "function body" not in kinds

    def test_error_path_rule(self, reachability, source):
        found = blocks_of(reachability, "error_paths", KINDS)
        assert [(block["kind"], block["lines"], block["error"])
                for block in found] == [("function body", 1, False),
                                        ("if arm", 2, True)]

    def test_a_statement_that_ran_holds_no_block_of_its_own(
            self, reachability, tmp_path, monkeypatch):
        """An ``if`` that never ran is one unexecuted statement of the
        block around it, not one block per arm."""
        text = textwrap.dedent('''\
            def outer(flag):
                if flag:
                    return 1
                if not flag:  # idle
                    return 2  # idle
                else:  # idle
                    return 3  # idle
            ''')
        make_source(tmp_path, monkeypatch, reachability, text)
        found = blocks_of(reachability, "outer", text)
        assert [(block["kind"], block["line"], block["lines"])
                for block in found] == [("function body", 4, 4)]

    def test_a_one_line_function_that_ran_has_no_block(
            self, reachability, tmp_path, monkeypatch):
        make_source(tmp_path, monkeypatch, reachability,
                    "def one(): return 1\n")
        script = tmp_path / "drive.py"
        script.write_text("import probed_pkg.shapes\n"
                          "probed_pkg.shapes.one()\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(sys, "argv", list(sys.argv))
        monkeypatch.delitem(sys.modules, "probed_pkg", raising=False)
        monkeypatch.delitem(sys.modules, "probed_pkg.shapes", raising=False)
        out = tmp_path / "hits.json"
        reachability.child("script", str(script), [], out)
        ran = set(json.loads(out.read_text())["lines"]["shapes.py"])
        [entry] = reachability.functions()
        assert reachability.blocks(entry, ran) == []

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="match statements need Python 3.10")
    def test_match_case(self, reachability, tmp_path, monkeypatch):
        make_source(tmp_path, monkeypatch, reachability, MATCH)
        found = blocks_of(reachability, "matcher", MATCH)
        assert [(block["kind"], block["line"]) for block in found] == [
            ("match case", 4)]

    def test_key_is_stable_when_a_line_is_inserted_above(
            self, reachability, tmp_path, monkeypatch):
        make_source(tmp_path, monkeypatch, reachability, KINDS)
        before = blocks_of(reachability, "every_kind", KINDS)
        shifted = KINDS.replace("    global COUNT\n",
                                "    global COUNT\n"
                                "    COUNT = 0\n"
                                "    COUNT += 1\n")
        make_source(tmp_path, monkeypatch, reachability, shifted)
        after = blocks_of(reachability, "every_kind", shifted)
        assert [block["line"] + 2 for block in before] == [
            block["line"] for block in after]
        assert [block["key"] for block in before] == [
            block["key"] for block in after]
        assert before[0]["key"] == "shapes.py:every_kind:a = 1  # idle"


def fake_probe(reachability, text, names):
    """A probe result in which ``names`` were called and every line of
    ``text`` but the idle ones ran."""
    table = {entry["name"]: entry for entry in reachability.functions()}
    return lambda: {
        "called": {("shapes.py", table[name]["line"]) for name in names},
        "lines": {"shapes.py": ran_lines(text)}}


def test_summary_counts_nested_lines_once(reachability, source, monkeypatch,
                                          capsys):
    monkeypatch.setattr(reachability, "probe", fake_probe(
        reachability, KINDS, ["called", "every_kind", "error_paths"]))
    monkeypatch.setattr(reachability, "KEEP", {})
    assert reachability.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    # cached (3 lines, inner's among them) and Box.method (1 line); the
    # blocks of every_kind and error_paths.
    assert lines[:5] == [
        "functions: 6", "unreached functions: 3 (4 body lines)",
        "unexecuted blocks: 12 (error paths: 2, 3 lines; other: 10, "
        "10 lines)",
        "explained: 0", "unexplained: 13"]
    listed = lines[5:]
    assert len(listed) == 15
    assert sum(line.endswith(": UNEXPLAINED") for line in listed) == 13
    assert sum(line.endswith(": error path") for line in listed) == 2


def test_an_unexplained_block_fails_the_probe(reachability, source,
                                              monkeypatch, capsys):
    monkeypatch.setattr(reachability, "probe", fake_probe(
        reachability, KINDS,
        ["called", "cached", "cached.inner", "Box.method", "error_paths"]))
    key = "shapes.py:error_paths:return 2  # idle"
    monkeypatch.setattr(reachability, "KEEP", {
        "shapes.py:every_kind": reachability.reserved(1)})
    assert reachability.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:5] == ["explained: 1", "unexplained: 1"]
    assert ("  src/repro/shapes.py:55 function body of error_paths "
            "(1 lines): UNEXPLAINED") in lines

    monkeypatch.setitem(reachability.KEEP, key, reachability.UNCLEAN)
    assert reachability.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:5] == ["explained: 2", "unexplained: 0"]
    assert lines[6].endswith(
        f"function body of error_paths (1 lines): {reachability.UNCLEAN}")


def test_a_stale_reason_fails_the_probe(reachability, source, monkeypatch,
                                        capsys):
    """A key that names a function that ran, or a statement that ran or
    that only an error path holds, has outlived its code."""
    monkeypatch.setattr(reachability, "probe", fake_probe(
        reachability, KINDS,
        ["called", "cached", "cached.inner", "Box.method", "error_paths"]))
    explained = {"shapes.py:every_kind": reachability.reserved(1),
                 "shapes.py:error_paths:return 2  # idle":
                     reachability.UNCLEAN}
    stale = ["shapes.py:called", "shapes.py:error_paths:if flag:",
             'shapes.py:error_paths:reason = "refused"  # idle']
    monkeypatch.setattr(reachability, "KEEP", {
        **explained, **dict.fromkeys(stale, reachability.UNCLEAN)})
    assert reachability.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:5] == ["explained: 2", "unexplained: 0"]
    assert lines[-3:] == [
        f"  {key}: STALE (no unreached function or other block)"
        for key in sorted(stale)]

    monkeypatch.setattr(reachability, "KEEP", explained)
    assert reachability.main([]) == 0
    assert "STALE" not in capsys.readouterr().out


def open_roadmap_items():
    """The numbers of the items under ROADMAP.md's "Open items"."""
    text = (TOOL.parents[1] / "ROADMAP.md").read_text(encoding="utf-8")
    section = text.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number)
            for number in re.findall(r"^(\d+)\. \*\*", section, re.M)}


class TestKeepTable:
    """Every entry of the keep table names a function, or a block of a
    function, that the sources define, and gives an allowed reason, so a
    rename or a deletion cannot leave a stale entry behind. Reads the
    sources only; runs nothing."""

    def test_every_function_entry_names_a_function(self, reachability):
        defined = {f"{entry['file']}:{entry['name']}"
                   for entry in reachability.functions()}
        entries = {key for key in reachability.KEEP if key.count(":") == 1}
        assert entries
        assert sorted(entries - defined) == []

    def test_every_block_entry_names_a_block(self, reachability):
        statements = set()
        for entry in reachability.functions():
            statements |= reachability.statement_keys(entry)
        entries = {key for key in reachability.KEEP if key.count(":") > 1}
        assert entries
        assert sorted(entries - statements) == []

    def test_every_entry_gives_an_allowed_reason(self, reachability):
        items = open_roadmap_items()
        assert items
        allowed = set(reachability.REASONS) | {
            reachability.reserved(item) for item in items}
        for name, reason in reachability.KEEP.items():
            assert reason in allowed, name
