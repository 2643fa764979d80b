"""The ``python -m repro lint`` command surface: the rule catalogue, and
the exit status and report of a lint over given paths."""

import json

from repro.__main__ import main
from repro.analysis import RULES

from tests.analysis.test_source_rules import write_module

BARE_EXCEPT = """\
    def swallow():
        try:
            return 1
        except:
            return None
    """


def test_list_rules_prints_the_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(RULES)


def test_list_rules_prints_severity_and_title(capsys):
    assert main(["lint", "--list-rules"]) == 0
    for line in capsys.readouterr().out.splitlines():
        code, severity, title = line.split(maxsplit=2)
        assert severity == RULES[code].severity.name
        assert title == RULES[code].title


def test_path_with_a_finding_exits_one_and_reports_it(tmp_path, capsys):
    path = write_module(tmp_path, "repro.core.bad", BARE_EXCEPT)
    assert main(["lint", str(path), "--format=json"]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [(finding["code"], finding["line"])
            for finding in findings] == [("SRC102", 4)]


def test_clean_path_exits_zero(tmp_path, capsys):
    path = write_module(tmp_path, "repro.core.fine", "VALUE = 1\n")
    assert main(["lint", str(path)]) == 0
    assert capsys.readouterr().out == "palint: clean (0 findings)\n"


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent.py")]) == 2
    assert "no such path" in capsys.readouterr().err
