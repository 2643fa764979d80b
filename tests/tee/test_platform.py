"""Tests for enclaves, quoting, sealing, counters, and IAS."""

import pytest

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    CounterError,
    CounterWearError,
    QuoteError,
    SealingError,
)
from repro.sim.core import Simulator
from repro.sim.network import Site, rtt_between
from repro.tee.enclave import ExecutionMode
from repro.tee.ias import AttestationVerdict, IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def platform(sim):
    return SGXPlatform(sim, "node-1", DeterministicRandom(b"platform-1"))


@pytest.fixture()
def image():
    return build_image("test-app")


class TestEnclaveLifecycle:
    def test_launch_hardware(self, sim, platform, image):
        def main():
            enclave = yield sim.process(platform.launch(image))
            return enclave

        enclave = sim.run_process(main())
        assert enclave.mrenclave == image.mrenclave()
        assert enclave.mode is ExecutionMode.HARDWARE

    def test_launch_native_skips_epc(self, sim, platform, image):
        def main():
            enclave = yield sim.process(
                platform.launch(image, mode=ExecutionMode.NATIVE))
            return enclave

        sim.run_process(main())
        assert platform.epc.allocated_bytes == 0

    def test_destroy_frees_epc(self, platform, image):
        enclave = platform.launch_instant(image)
        assert platform.epc.allocated_bytes == image.total_bytes
        enclave.destroy()
        assert platform.epc.allocated_bytes == 0
        enclave.destroy()  # idempotent

    def test_destroyed_enclave_rejects_work(self, platform, image):
        enclave = platform.launch_instant(image)
        blob = platform.sealing.seal(enclave, "identity", b"secret")
        enclave.destroy()
        with pytest.raises(QuoteError):
            platform.quoting_enclave.quote(enclave, b"report-data")
        with pytest.raises(SealingError):
            platform.sealing.seal(enclave, "identity", b"more")
        with pytest.raises(SealingError):
            platform.sealing.unseal(enclave, blob)

    def test_microcode_update_raises_exit_cost(self, platform):
        """Post-Foreshadow microcode adds an L1 flush to every exit."""
        platform.set_microcode(calibration.MICROCODE_PRE_SPECTRE)
        assert not platform.microcode.flushes_l1_on_exit
        platform.set_microcode(calibration.MICROCODE_POST_FORESHADOW)
        assert platform.microcode.flushes_l1_on_exit


class TestQuoting:
    def test_quote_verifies(self, platform, image):
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"report-data")
        quote.verify()
        assert quote.report.mrenclave == image.mrenclave()

    def test_tampered_quote_rejected(self, platform, image):
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")
        from dataclasses import replace
        from repro.tee.quoting import Report
        forged_report = Report(mrenclave=b"\x00" * 32,
                               platform_id=quote.report.platform_id,
                               report_data=quote.report.report_data)
        forged = replace(quote, report=forged_report)
        with pytest.raises(QuoteError):
            forged.verify()

    def test_emulated_enclave_cannot_be_quoted(self, platform, image):
        enclave = platform.launch_instant(image, mode=ExecutionMode.EMULATED)
        with pytest.raises(QuoteError, match="hardware root of trust"):
            platform.quoting_enclave.quote(enclave, b"data")

    def test_destroyed_enclave_cannot_be_quoted(self, platform, image):
        enclave = platform.launch_instant(image)
        enclave.destroy()
        with pytest.raises(QuoteError):
            platform.quoting_enclave.quote(enclave, b"data")

    def test_long_report_data_hashed(self, platform, image):
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"x" * 1000)
        assert len(quote.report.report_data) == 32


class TestSealing:
    def test_seal_unseal_round_trip(self, platform, image):
        enclave = platform.launch_instant(image)
        blob = platform.sealing.seal(enclave, "identity", b"key material")
        assert platform.sealing.unseal(enclave, blob) == b"key material"

    def test_same_mre_new_instance_can_unseal(self, platform, image):
        first = platform.launch_instant(image)
        blob = platform.sealing.seal(first, "identity", b"persistent")
        first.destroy()
        restarted = platform.launch_instant(image)
        assert platform.sealing.unseal(restarted, blob) == b"persistent"

    def test_different_mre_cannot_unseal(self, platform, image):
        enclave = platform.launch_instant(image)
        blob = platform.sealing.seal(enclave, "identity", b"secret")
        other = platform.launch_instant(build_image("other-app"))
        with pytest.raises(SealingError):
            platform.sealing.unseal(other, blob)

    def test_different_platform_cannot_unseal(self, sim, platform, image):
        enclave = platform.launch_instant(image)
        blob = platform.sealing.seal(enclave, "identity", b"secret")
        other_platform = SGXPlatform(sim, "node-2",
                                     DeterministicRandom(b"platform-2"))
        foreign = other_platform.launch_instant(image)
        with pytest.raises(SealingError):
            other_platform.sealing.unseal(foreign, blob)

    def test_sealed_blob_hides_data(self, platform, image):
        enclave = platform.launch_instant(image)
        blob = platform.sealing.seal(enclave, "identity", b"visible-secret")
        assert b"visible-secret" not in blob.ciphertext


class TestPlatformCounters:
    def test_create_read_increment(self, sim, platform):
        platform.counters.create("c1")
        assert platform.counters.read("c1") == 0

        def main():
            value = yield sim.process(platform.counters.increment("c1"))
            return value

        assert sim.run_process(main()) == 1

    def test_rate_limit_enforced(self, sim, platform):
        platform.counters.create("c1")

        def main():
            for _ in range(5):
                yield sim.process(platform.counters.increment("c1"))
            return sim.now

        elapsed = sim.run_process(main())
        # 5 increments at >= 50 ms each.
        assert elapsed >= 5 * calibration.SGX_COUNTER_INCREMENT_INTERVAL_SECONDS

    def test_measured_rate_matches_paper(self, sim, platform):
        """End-to-end increment rate lands in the paper's 13-20/s band."""
        platform.counters.create("c1")

        def main():
            for _ in range(20):
                yield sim.process(platform.counters.increment("c1"))
            return sim.now

        elapsed = sim.run_process(main())
        rate = 20 / elapsed
        assert 10 <= rate <= 20

    def test_wear_out(self, sim):
        platform = SGXPlatform(sim, "wear", DeterministicRandom(b"w"))
        platform.counters.wear_limit = 3
        platform.counters.create("c1")

        def main():
            for _ in range(4):
                yield sim.process(platform.counters.increment("c1"))

        with pytest.raises(CounterWearError):
            sim.run_process(main())

    def test_unknown_counter_rejected(self, sim, platform):
        with pytest.raises(CounterError):
            platform.counters.read("nope")
        with pytest.raises(CounterError):
            platform.counters.writes("nope")

    def test_duplicate_create_rejected(self, platform):
        platform.counters.create("c1")
        with pytest.raises(CounterError):
            platform.counters.create("c1")


class TestIAS:
    def make_ias(self, sim):
        return IntelAttestationService(sim, Site.IAS_US,
                                       DeterministicRandom(b"ias"))

    def test_genuine_platform_ok(self, sim, platform, image):
        ias = self.make_ias(sim)
        ias.register_platform(platform.quoting_enclave.attestation_public_key,
                              platform.microcode.revision)
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")
        report = ias.verify_quote_local(quote)
        assert report.verdict is AttestationVerdict.OK
        report.verify(ias.public_key)

    def test_unknown_platform_rejected(self, sim, platform, image):
        ias = self.make_ias(sim)
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")
        report = ias.verify_quote_local(quote)
        assert report.verdict is AttestationVerdict.SIGNATURE_INVALID

    def test_revoked_platform_rejected(self, sim, platform, image):
        ias = self.make_ias(sim)
        key = platform.quoting_enclave.attestation_public_key
        ias.register_platform(key, platform.microcode.revision)
        ias.revoke_platform(key)
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")
        report = ias.verify_quote_local(quote)
        assert report.verdict is AttestationVerdict.KEY_REVOKED
        with pytest.raises(QuoteError, match="KEY_REVOKED"):
            report.verify(ias.public_key)

    def test_outdated_microcode_rejected(self, sim, image):
        ias = self.make_ias(sim)
        platform = SGXPlatform(sim, "old", DeterministicRandom(b"old"),
                               microcode=calibration.MICROCODE_PRE_SPECTRE)
        key = platform.quoting_enclave.attestation_public_key
        ias.register_platform(key, platform.microcode.revision)
        ias.minimum_microcode = calibration.MICROCODE_POST_FORESHADOW.revision
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")
        report = ias.verify_quote_local(quote)
        assert report.verdict is AttestationVerdict.GROUP_OUT_OF_DATE

    def test_remote_verification_latency(self, sim, platform, image):
        ias = self.make_ias(sim)
        ias.register_platform(platform.quoting_enclave.attestation_public_key,
                              platform.microcode.revision)
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")

        def main():
            report = yield sim.process(
                ias.verify_quote(quote, client_site=Site.SAME_RACK))
            return report, sim.now

        report, elapsed = sim.run_process(main())
        assert report.verdict is AttestationVerdict.OK
        # Must include the server-side verification wait.
        assert elapsed >= calibration.IAS_VERIFICATION_SECONDS

    def test_frontend_verifies_ten_quotes_at_a_time(self, sim, platform,
                                                    image):
        """Of 11 concurrent quotes, the 11th queues for a front-end slot
        and finishes exactly one hold after the first ten."""
        ias = self.make_ias(sim)
        ias.register_platform(platform.quoting_enclave.attestation_public_key,
                              platform.microcode.revision)
        quote = platform.quoting_enclave.quote(platform.launch_instant(image),
                                               b"data")
        finished = []

        def one():
            report = yield from ias.verify_quote(quote, Site.SAME_RACK)
            assert report.verdict is AttestationVerdict.OK
            finished.append(sim.now)

        def main():
            yield sim.all_of([sim.process(one()) for _ in range(11)])

        sim.run_process(main())
        hold = (rtt_between(Site.SAME_RACK, Site.IAS_US)
                + calibration.IAS_VERIFICATION_SECONDS)
        assert finished[:10] == [pytest.approx(hold, abs=1e-12)] * 10
        assert finished[10] == pytest.approx(2 * hold, abs=1e-12)

    def test_tampered_ias_report_rejected(self, sim, platform, image):
        ias = self.make_ias(sim)
        ias.register_platform(platform.quoting_enclave.attestation_public_key,
                              platform.microcode.revision)
        enclave = platform.launch_instant(image)
        quote = platform.quoting_enclave.quote(enclave, b"data")
        report = ias.verify_quote_local(quote)
        from dataclasses import replace
        forged = replace(report, mrenclave=b"\x11" * 32)
        with pytest.raises(QuoteError, match="signature invalid"):
            forged.verify(ias.public_key)
