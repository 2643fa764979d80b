"""The ``python -m repro lint`` command surface: the rule catalogue and
policy documents passed with ``--policy``."""

import json

from repro.__main__ import main
from repro.analysis import RULES

#: A policy document with one defect: a secret nothing uses (PAL014).
UNUSED_SECRET_POLICY = """\
name: unused
services:
  - name: app
    image_name: app-image
    command:
      - python
      - /app.py
    mrenclaves:
      - ab01010101010101010101010101010101010101010101010101010101010101
secrets:
  - name: SPARE
    kind: random
"""


def test_list_rules_prints_the_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(RULES)


def test_policy_file_findings_are_reported(tmp_path, capsys):
    policy_file = tmp_path / "unused.yml"
    policy_file.write_text(UNUSED_SECRET_POLICY)
    assert main(["lint", "--policy", str(policy_file),
                 "--format=json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(f["code"], f["subject"]) for f in report["findings"]] == [
        ("PAL014", "unused")]


def test_unparseable_policy_file_is_a_critical_finding(tmp_path, capsys):
    policy_file = tmp_path / "broken.yml"
    policy_file.write_text("name: broken\n  services: [\n")
    assert main(["lint", "--policy", str(policy_file),
                 "--format=json"]) == 1
    (finding,) = json.loads(capsys.readouterr().out)["findings"]
    assert finding["code"] == "PAL000"
    assert finding["severity"] == "CRITICAL"
    assert "does not parse" in finding["message"]


def test_malformed_measurement_is_a_critical_finding(tmp_path, capsys):
    """An unquoted all-digit MRENCLAVE parses as an int: PAL000, not a
    crash."""
    policy_file = tmp_path / "digits.yml"
    policy_file.write_text(UNUSED_SECRET_POLICY.replace(
        "ab0101", "120101").replace("secrets:\n  - name: SPARE\n"
                                    "    kind: random\n", ""))
    assert main(["lint", "--policy", str(policy_file),
                 "--format=json"]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [(f["code"], f["severity"]) for f in findings] == [
        ("PAL000", "CRITICAL")]
    assert "not a hex string" in findings[0]["message"]


def test_malformed_policy_documents_are_critical_findings(tmp_path, capsys):
    """Documents that once crashed from_dict with ValueError, or were
    accepted, each yield one PAL000 finding instead of a traceback."""
    threshold = tmp_path / "threshold.yml"
    threshold.write_text("name: bad\nboard:\n  threshold: two\n")
    numeric_name = tmp_path / "numeric.yml"
    numeric_name.write_text("name: 5\n")
    assert main(["lint", "--policy", str(threshold), "--policy",
                 str(numeric_name), "--format=json"]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [(f["code"], f["subject"]) for f in findings] == [
        ("PAL000", "bad"), ("PAL000", "numeric.yml")]
    assert "not an integer" in findings[0]["message"]
    assert "has no name: 5" in findings[1]["message"]
