"""Run every example script end to end.

Examples are part of the public API surface: each must run to completion
and print its expected milestones. Running them as subprocesses keeps them
honest — no test-only imports or fixtures can leak in.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

_EXPECTED_MILESTONES = {
    "quickstart.py": [
        "PALAEMON instance up",
        "Application attested and configured",
        "Restart verified the volume tag",
    ],
    "ml_pipeline.py": [
        "produced model #3",
        "run 4 refused",
        "DETECTED: file system tag mismatch",
        "encrypted at rest",
        "loaded model-3-weights",
        "Strict mode after the unclean run",
    ],
    "secure_update.py": [
        "without the device code the auditor abstains",
        "v2 rollout: board approved with the auditor's device code",
        "blocked at the board",
        "vetoed update",
        "intersection: 2 of the image provider's 3 releases are permitted",
        "disabled downstream automatically",
        "board approved the CA update",
    ],
    "managed_cloud.py": [
        "CA refuses to certify",
        "a pinning client refuses it",
        "Clone attempt",
        "Database rollback on restart",
        "0 plaintext hits",
    ],
    "federation_failover.py": [
        "Federation meshed",
        "fetched MODEL_KEY",
        "backup promoted",
        "permanently fenced: True",
    ],
    "faas_coldstart.py": [
        "FaaS burst",
        "palaemon",
        "close to the unattested floor",
    ],
}


def test_every_example_has_milestones():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(_EXPECTED_MILESTONES)


@pytest.mark.parametrize("script,milestones",
                         sorted(_EXPECTED_MILESTONES.items()))
def test_example_runs(script, milestones):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=300,
        cwd=EXAMPLES_DIR.parent)
    assert result.returncode == 0, result.stderr
    for milestone in milestones:
        assert milestone in result.stdout, (
            f"{script} did not print {milestone!r}; output:\n"
            f"{result.stdout}")
