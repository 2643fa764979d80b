"""Tests for the SCONE-like runtime: launch, FS lifecycle, rollback story,
startup cost model."""

import pytest

from repro import calibration
from repro.errors import (
    MrenclaveNotPermittedError,
    QuoteError,
    StrictModeError,
    TagMismatchError,
)
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.runtime.startup import AttestationVariant, StartupModel
from repro.sim.core import Simulator
from repro.sim.network import Site
from repro.sim.workload import run_closed_loop
from repro.tee.enclave import ExecutionMode
from repro.tee.image import build_image
from repro.crypto.primitives import DeterministicRandom

from tests.core.conftest import Deployment


@pytest.fixture()
def deployment():
    return Deployment(seed=b"runtime-tests")


@pytest.fixture()
def runtime(deployment):
    return SconeRuntime(deployment.platform, deployment.palaemon,
                        DeterministicRandom(b"runtime"))


class TestLaunch:
    def test_full_launch_delivers_config(self, deployment, runtime):
        deployment.client.create_policy(
            deployment.palaemon,
            deployment.make_policy(injection_files={
                "/app/config.ini": b"key=$$PALAEMON$API_KEY$$"}))
        app = runtime.launch(deployment.app_image, "ml_policy", "ml_app")
        assert app.argv() == ["python", "/app.py"]
        assert app.getenv("MODE") == "production"
        assert b"$$PALAEMON$" not in app.read_file("/app/config.ini")

    def test_wrong_binary_refused(self, deployment, runtime):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        with pytest.raises(MrenclaveNotPermittedError):
            runtime.launch(build_image("ml-engine", seed=b"tampered"),
                           "ml_policy", "ml_app")

    def test_non_hardware_mode_cannot_attest(self, deployment, runtime):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        with pytest.raises(QuoteError):
            runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                           mode=ExecutionMode.EMULATED)


class TestApplicationLifecycle:
    def make_app(self, deployment, runtime, volume=None, strict=False):
        name = "ml_policy"
        if name not in deployment.palaemon.list_policies():
            deployment.client.create_policy(
                deployment.palaemon,
                deployment.make_policy(strict_mode=strict))
        return runtime.launch(deployment.app_image, name, "ml_app",
                              volume=volume)

    def test_files_round_trip_and_tags_flow(self, deployment, runtime):
        app = self.make_app(deployment, runtime)
        app.write_file("/output/model.bin", b"weights")
        app.sync()
        assert deployment.palaemon.get_tag_instant(
            "ml_policy", "ml_app") == app.fs.tag()

    def test_restart_resumes_from_pushed_tag(self, deployment, runtime):
        volume = BlockStore("shared-volume")
        app = self.make_app(deployment, runtime, volume=volume)
        app.write_file("/state", b"epoch-1")
        app.exit_cleanly()
        # Second run on the same volume: tag verification passes.
        again = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                               volume=volume)
        assert again.read_file("/state") == b"epoch-1"

    def test_rollback_attack_blocks_restart(self, deployment, runtime):
        """End-to-end §III-D: attacker restores the volume; launch fails."""
        volume = BlockStore("attacked-volume")
        app = self.make_app(deployment, runtime, volume=volume)
        app.write_file("/state", b"run-1")
        app.exit_cleanly()
        checkpoint = volume.snapshot()

        second = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                                volume=volume)
        second.write_file("/state", b"run-2")
        second.exit_cleanly()

        volume.restore(checkpoint)  # the rollback attack
        with pytest.raises(TagMismatchError):
            runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                           volume=volume)

    def test_strict_mode_crash_then_restart_refused(self, deployment,
                                                    runtime):
        volume = BlockStore("strict-volume")
        app = self.make_app(deployment, runtime, volume=volume, strict=True)
        app.write_file("/state", b"working")
        app.crash()  # no clean-exit push
        with pytest.raises(StrictModeError):
            runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                           volume=volume)

    def test_injected_files_never_touch_volume(self, deployment, runtime):
        deployment.client.create_policy(
            deployment.palaemon,
            deployment.make_policy(injection_files={
                "/etc/secret.conf": b"k=$$PALAEMON$API_KEY$$"}))
        volume = BlockStore("clean-volume")
        app = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                             volume=volume)
        secret = app.config.secrets["API_KEY"]
        app.read_file("/etc/secret.conf")
        app.exit_cleanly()
        assert volume.scan_for(secret) == []


class TestStartupModel:
    def run_variant(self, variant, concurrency=8, duration=2.0):
        sim = Simulator()
        model = StartupModel(sim)

        def factory(_request_id):
            yield sim.process(model.start_one(variant))

        return run_closed_loop(sim, concurrency, factory, duration)

    def test_native_rate(self):
        point = self.run_variant(AttestationVariant.NATIVE)
        assert point.achieved_rate == pytest.approx(3700, rel=0.1)

    def test_sgx_only_capped_by_driver_lock(self):
        point = self.run_variant(AttestationVariant.SGX_ONLY, concurrency=16)
        assert point.achieved_rate == pytest.approx(100, rel=0.1)

    def test_sgx_only_does_not_scale_with_parallelism(self):
        low = self.run_variant(AttestationVariant.SGX_ONLY, concurrency=4)
        high = self.run_variant(AttestationVariant.SGX_ONLY, concurrency=32)
        assert high.achieved_rate < low.achieved_rate * 1.25

    def test_palaemon_rate_and_latency(self):
        point = self.run_variant(AttestationVariant.PALAEMON, concurrency=2)
        assert point.achieved_rate == pytest.approx(90, rel=0.35)
        # Low-concurrency latency is the ~15 ms end-to-end attestation.
        assert 0.010 <= point.latency.mean <= 0.040

    def test_palaemon_leg_sets_fig8_total_and_fig9_ceiling(self):
        """Uncontended, the leg's phases sum to 15 ms; under load, the
        ceiling is one quote at a time: 1 / (send + wait + receive)."""
        sim = Simulator()
        phases = sim.run_process(
            StartupModel(sim).attest(AttestationVariant.PALAEMON))
        assert list(phases) == ["initialization", "send_quote",
                                "wait_confirmation", "receive_config"]
        assert sum(phases.values()) == pytest.approx(0.015, abs=1e-12)
        point = self.run_variant(AttestationVariant.PALAEMON, concurrency=8)
        held = (calibration.ATTEST_SEND_QUOTE_PALAEMON_SECONDS
                + calibration.ATTEST_WAIT_PALAEMON_SECONDS
                + calibration.ATTEST_RECEIVE_CONFIG_SECONDS)
        assert point.achieved_rate == pytest.approx(1 / held, rel=0.02)

    def test_ias_slow_with_high_latency(self):
        point = self.run_variant(AttestationVariant.IAS, concurrency=60,
                                 duration=5.0)
        assert point.achieved_rate == pytest.approx(40, rel=0.5)
        assert point.latency.mean > 0.25

    def test_ordering_native_palaemon_ias(self):
        native = self.run_variant(AttestationVariant.NATIVE)
        sgx = self.run_variant(AttestationVariant.SGX_ONLY)
        palaemon = self.run_variant(AttestationVariant.PALAEMON)
        ias = self.run_variant(AttestationVariant.IAS, concurrency=60,
                               duration=5.0)
        assert (native.achieved_rate > sgx.achieved_rate
                > palaemon.achieved_rate > ias.achieved_rate)

    @pytest.mark.parametrize("variant", list(AttestationVariant))
    def test_epc_allocation_restored_after_sweep(self, variant):
        sim = Simulator()
        model = StartupModel(sim)
        epc = model.platform.epc
        before = epc.allocated_bytes

        def factory(_request_id):
            yield sim.process(model.start_one(variant))

        point = run_closed_loop(sim, 16, factory, duration=0.5)
        assert point.achieved_rate > 0
        assert epc.allocated_bytes == before
        assert epc.evicted_bytes == 0


class TestAttestationPhases:
    @staticmethod
    def phases(variant, ias_site=Site.IAS_US):
        sim = Simulator()
        model = StartupModel(sim, ias_site=ias_site)
        return sim.run_process(model.attest(variant))

    def test_palaemon_total_around_15ms(self):
        total = sum(self.phases(AttestationVariant.PALAEMON).values())
        assert 0.010 <= total <= 0.020

    def test_ias_order_of_magnitude_slower(self):
        palaemon = sum(self.phases(AttestationVariant.PALAEMON).values())
        ias = sum(self.phases(AttestationVariant.IAS).values())
        assert ias / palaemon >= 10

    def test_wait_dominates_ias(self):
        phases = self.phases(AttestationVariant.IAS)
        assert phases["wait_confirmation"] > sum(
            v for k, v in phases.items() if k != "wait_confirmation")

    def test_ias_eu_waits_longer_than_us(self):
        us = self.phases(AttestationVariant.IAS, Site.IAS_US)
        eu = self.phases(AttestationVariant.IAS, Site.IAS_EU)
        assert eu["wait_confirmation"] > us["wait_confirmation"]

    def test_native_has_no_phases(self):
        with pytest.raises(ValueError):
            self.phases(AttestationVariant.NATIVE)
