"""The ``python -m repro lint`` command surface: the rule catalogue and
policy documents passed with ``--policy``."""

import json

from repro.__main__ import main
from repro.analysis.registry import DEFAULT_REGISTRY

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
    assert listed == list(DEFAULT_REGISTRY.codes())


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
