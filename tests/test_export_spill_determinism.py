"""Tests for JSON export, injected-file spilling, and global determinism."""

import json

import pytest

from repro.benchlib.export import (
    comparison_to_dict,
    export_experiment,
    result_to_dict,
)
from repro.benchlib.harness import rate_sweep
from repro.benchlib.tables import PaperComparison
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.fs.injection import (
    DEFAULT_MEMORY_LIMIT,
    InjectedFileView,
    inject_secrets,
)
from repro.fs.shield import ProtectedFileSystem
from repro.sim.resources import Resource


def simple_setup(simulator):
    resource = Resource(simulator, capacity=1)

    def factory(_request_id):
        yield resource.acquire()
        try:
            yield simulator.timeout(0.001)
        finally:
            resource.release()

    return factory


class TestExport:
    def test_round_trip(self, tmp_path):
        curve = rate_sweep("demo", simple_setup, rates=[100, 500],
                           duration=1.0)
        comparison = PaperComparison("peak", 1000, 990, unit="req/s")
        path = export_experiment(tmp_path / "out" / "demo.json", "demo",
                                 curves=[curve], comparisons=[comparison],
                                 extra={"note": "test"})
        document = json.loads(path.read_text())
        assert document["experiment"] == "demo"
        assert len(document["curves"][0]["points"]) == 2
        assert document["paper_vs_measured"][0]["within_tolerance"]
        assert document["extra"]["note"] == "test"

    def test_result_dict_shape(self):
        curve = rate_sweep("demo", simple_setup, rates=[50], duration=1.0)
        flattened = result_to_dict(curve)
        point = flattened["points"][0]
        assert set(point) == {"offered_rate", "achieved_rate", "latency"}
        assert set(point["latency"]) == {"count", "mean", "p50", "p95",
                                         "p99", "min", "max"}

    def test_comparison_dict(self):
        flattened = comparison_to_dict(
            PaperComparison("x", 10, 30, unit="s"))
        assert flattened["ratio"] == 3.0
        assert not flattened["within_tolerance"]

    def test_json_is_deterministic(self, tmp_path):
        curve = rate_sweep("demo", simple_setup, rates=[100], duration=1.0)
        a = export_experiment(tmp_path / "a.json", "demo", curves=[curve])
        b = export_experiment(tmp_path / "b.json", "demo", curves=[curve])
        assert a.read_text() == b.read_text()


class TestInjectedFileSpill:
    def make_fs(self):
        rng = DeterministicRandom(b"spill")
        return ProtectedFileSystem(BlockStore(), rng.fork(b"k").bytes(32),
                                   rng.fork(b"fs"))

    def test_small_files_stay_in_memory(self):
        view = InjectedFileView(
            "/cfg", inject_secrets(b"k=$$PALAEMON$S$$", {"S": b"v"}),
            spill_fs=self.make_fs())
        assert not view.spilled
        assert view.read() == b"k=v"

    def test_large_files_spill_to_shielded_fs(self):
        fs = self.make_fs()
        big_template = b"k=$$PALAEMON$S$$" + b"#" * (DEFAULT_MEMORY_LIMIT + 10)
        view = InjectedFileView(
            "/big.cfg", inject_secrets(big_template, {"S": b"v"}),
            spill_fs=fs)
        assert view.spilled
        assert view.content == b""  # not memory-resident
        assert view.read().startswith(b"k=v")
        assert fs.exists("/big.cfg")

    def test_spilled_content_still_protected(self):
        fs = self.make_fs()
        secret = b"spilled-secret-material-xyz"
        template = (b"key=$$PALAEMON$S$$" + b"#" * DEFAULT_MEMORY_LIMIT)
        InjectedFileView("/big.cfg", inject_secrets(template, {"S": secret}),
                         spill_fs=fs)
        assert fs.store.scan_for(secret) == []

    def test_no_spill_fs_keeps_memory_resident(self):
        template = b"k=$$PALAEMON$S$$" + b"#" * (DEFAULT_MEMORY_LIMIT + 10)
        view = InjectedFileView("/big.cfg",
                                inject_secrets(template, {"S": b"v"}))
        assert not view.spilled
        assert view.read().startswith(b"k=v")

    def test_custom_limit(self):
        fs = self.make_fs()
        view = InjectedFileView("/c", b"0123456789", memory_limit=4,
                                spill_fs=fs)
        assert view.spilled


class TestGlobalDeterminism:
    def test_identical_seeds_identical_traces(self):
        """Two full deployments from one seed produce identical state."""
        from tests.core.conftest import Deployment

        def fingerprint(deployment):
            deployment.client.create_policy(deployment.palaemon,
                                            deployment.make_policy())
            config = deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy"))
            return (config.secrets["API_KEY"], config.fs_key,
                    deployment.palaemon.mrenclave,
                    deployment.simulator.now)

        a = fingerprint(Deployment(seed=b"determinism"))
        b = fingerprint(Deployment(seed=b"determinism"))
        assert a == b

    def test_different_seeds_different_secrets(self):
        from tests.core.conftest import Deployment

        def secret(seed):
            deployment = Deployment(seed=seed)
            deployment.client.create_policy(deployment.palaemon,
                                            deployment.make_policy())
            return deployment.palaemon.attest_application(
                deployment.evidence_for("ml_policy")).secrets["API_KEY"]

        assert secret(b"seed-one") != secret(b"seed-two")

    def test_rate_sweep_reproducible(self):
        first = rate_sweep("r", simple_setup, rates=[200, 800],
                           duration=1.0, seed=b"fixed")
        second = rate_sweep("r", simple_setup, rates=[200, 800],
                           duration=1.0, seed=b"fixed")
        assert first.rows() == second.rows()
