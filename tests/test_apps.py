"""Tests for the macro-benchmark application miniatures."""

import pytest

from repro import calibration
from repro.apps.base import SimulatedServer, calibrated_service_seconds
from repro.apps.kms import BarbicanServer, BarbicanVariant, VaultServer
from repro.apps.kvstore import MemcachedServer
from repro.apps.mariadb import MariaDBServer
from repro.apps.mlservice import InferenceService
from repro.apps.secretconfig import (
    PALAEMON_CHANNEL_MECHANISMS,
    SECRET_CHANNEL_SURVEY,
    coverage_report,
)
from repro.apps.webserver import NginxServer, NginxVariant
from repro.apps.zookeeper import ZooKeeperCluster
from repro.crypto.primitives import DeterministicRandom
from repro.errors import AccessDeniedError, NetworkError
from repro.sim.core import Simulator
from repro.tee.enclave import ExecutionMode


def peak_rate(server):
    """A server's theoretical saturation throughput."""
    return server.threads / server.service_seconds


class TestSimulatedServer:
    def test_service_times_ordered_by_mode(self):
        sim = Simulator()
        native, emu, hw = (VaultServer(sim, mode=mode).service_seconds
                           for mode in (ExecutionMode.NATIVE,
                                        ExecutionMode.EMULATED,
                                        ExecutionMode.HARDWARE))
        assert native < emu < hw

    def test_peak_rate_matches_anchor(self):
        sim = Simulator()
        native = SimulatedServer(sim, "s", calibrated_service_seconds(1000))
        hw = SimulatedServer(sim, "s", calibrated_service_seconds(1000, 0.5))
        assert peak_rate(native) == pytest.approx(1000)
        assert peak_rate(hw) == pytest.approx(500)

    def test_non_positive_service_time_rejected(self):
        with pytest.raises(ValueError):
            SimulatedServer(Simulator(), "s", 0.0)


class TestMemcached:
    def test_functional_get_set_delete(self):
        server = MemcachedServer(Simulator())
        server.set("k", b"v")
        assert server.get("k") == b"v"
        assert server.get("missing") is None
        assert server.get("k") == b"v"  # a miss leaves the stored key

    def test_lru_eviction(self):
        server = MemcachedServer(Simulator(), capacity_items=2)
        server.set("a", b"1")
        server.set("b", b"2")
        server.get("a")  # refresh a
        server.set("c", b"3")  # evicts b
        assert server.get("b") is None
        assert server.get("a") == b"1"
        assert server.get("c") == b"3"
        server.set("d", b"4")  # evicts a, the least recently used now
        assert server.get("a") is None
        assert server.get("c") == b"3"

    def test_timed_handlers(self):
        sim = Simulator()
        server = MemcachedServer(sim, mode=ExecutionMode.HARDWARE)

        def main():
            yield sim.process(server.handle_set("k", b"v"))
            value = yield sim.process(server.handle_get("k"))
            return value, sim.now

        value, elapsed = sim.run_process(main())
        assert value == b"v"
        assert elapsed == pytest.approx(2 * server.service_seconds)

    def test_peak_fractions_match_paper(self):
        peak = {mode: peak_rate(MemcachedServer(Simulator(), mode=mode))
                for mode in ExecutionMode}
        native = peak[ExecutionMode.NATIVE]
        assert peak[ExecutionMode.HARDWARE] / native == pytest.approx(0.595)
        assert peak[ExecutionMode.EMULATED] / native == pytest.approx(0.653)



class TestNginx:
    def test_plain_variant_serves_files(self):
        sim = Simulator()
        server = NginxServer(sim, NginxVariant.NATIVE)
        server.publish("/index.html", b"<html>hello</html>")

        def main():
            content = yield sim.process(server.handle_get("/index.html"))
            return content

        assert sim.run_process(main()) == b"<html>hello</html>"

    def test_missing_file_404(self):
        sim = Simulator()
        server = NginxServer(sim, NginxVariant.NATIVE)

        def main():
            content = yield sim.process(server.handle_get("/missing"))
            return content

        assert sim.run_process(main()) is None
        assert sim.now == pytest.approx(server.service_seconds)

    def test_shield_variant_encrypts_docroot(self):
        sim = Simulator()
        server = NginxServer(sim, NginxVariant.SHIELD_HW)
        server.publish("/page.html", b"secret page body")
        assert server.store.scan_for(b"secret page body") == []
        assert server.read_document("/page.html") == b"secret page body"

    def test_variant_throughput_ordering(self):
        """Fig 17a: native > palaemon EMU >= HW > shield EMU >= shield HW."""
        sim = Simulator()
        rates = {variant: 1.0 / NginxServer(sim, variant).service_seconds
                 for variant in NginxVariant}
        assert rates[NginxVariant.NATIVE] > rates[NginxVariant.PALAEMON_EMU]
        assert rates[NginxVariant.PALAEMON_EMU] >= \
            rates[NginxVariant.PALAEMON_HW]
        assert rates[NginxVariant.PALAEMON_HW] > rates[NginxVariant.SHIELD_EMU]
        assert rates[NginxVariant.SHIELD_EMU] >= rates[NginxVariant.SHIELD_HW]

    def test_shield_costs_more_than_sgx(self):
        """The paper's point: encrypting all files outweighs SGX overhead."""
        sgx_cost = (calibration.NGINX_NATIVE_PEAK_RPS
                    * (1 - calibration.NGINX_PALAEMON_HW_FRACTION))
        shield_extra_cost = (calibration.NGINX_NATIVE_PEAK_RPS
                             * (calibration.NGINX_PALAEMON_HW_FRACTION
                                - calibration.NGINX_SHIELD_HW_FRACTION))
        assert shield_extra_cost > sgx_cost


class TestBarbican:
    def test_functional_store_retrieve(self):
        sim = Simulator()
        server = BarbicanServer(sim, BarbicanVariant.NATIVE)
        rng = DeterministicRandom(b"tokens")
        token = server.secrets.issue_token("tenant-1", rng)
        server.secrets.store(token, "db-password", b"hunter2")
        assert server.secrets.retrieve(token, "db-password") == b"hunter2"

    def test_bad_token_rejected(self):
        sim = Simulator()
        server = BarbicanServer(sim, BarbicanVariant.NATIVE)
        with pytest.raises(AccessDeniedError):
            server.secrets.retrieve("forged-token", "anything")

    def test_barbie_faster_than_native(self):
        sim = Simulator()
        barbie = BarbicanServer(sim, BarbicanVariant.BARBIE)
        native = BarbicanServer(sim, BarbicanVariant.NATIVE)
        assert peak_rate(barbie) > peak_rate(native)

    def test_palaemon_slower_than_native(self):
        sim = Simulator()
        palaemon = BarbicanServer(sim, BarbicanVariant.PALAEMON_HW)
        native = BarbicanServer(sim, BarbicanVariant.NATIVE)
        assert peak_rate(palaemon) < peak_rate(native)

    def test_microcode_penalty_hits_palaemon_hardest(self):
        """Fig 14: post-Foreshadow costs PALAEMON ~30%, BarbiE ~5%."""
        sim = Simulator()

        def drop(variant):
            pre = BarbicanServer(sim, variant,
                                 microcode=calibration.MICROCODE_PRE_SPECTRE)
            post = BarbicanServer(
                sim, variant,
                microcode=calibration.MICROCODE_POST_FORESHADOW)
            return 1 - peak_rate(post) / peak_rate(pre)

        assert drop(BarbicanVariant.PALAEMON_HW) == pytest.approx(0.30,
                                                                  abs=0.02)
        assert drop(BarbicanVariant.BARBIE) == pytest.approx(0.05, abs=0.02)
        assert drop(BarbicanVariant.NATIVE) == 0.0


class TestVault:
    def test_heap_exceeds_epc(self):
        assert VaultServer.HEAP_BYTES > calibration.EPC_SIZE_DEFAULT

    def test_peak_fractions_match_paper(self):
        peak = {mode: peak_rate(VaultServer(Simulator(), mode=mode))
                for mode in ExecutionMode}
        native = peak[ExecutionMode.NATIVE]
        assert peak[ExecutionMode.HARDWARE] / native == \
            pytest.approx(calibration.VAULT_HW_FRACTION)
        assert peak[ExecutionMode.EMULATED] / native == \
            pytest.approx(calibration.VAULT_EMU_FRACTION)

    def test_functional_round_trip_with_timing(self):
        sim = Simulator()
        server = VaultServer(sim, mode=ExecutionMode.HARDWARE)
        rng = DeterministicRandom(b"vault-test")
        token = server.secrets.issue_token("app", rng)

        def main():
            server.secrets.store(token, "k", b"v")
            value = yield sim.process(server.handle_retrieve(token, "k"))
            return value

        assert sim.run_process(main()) == b"v"


class TestZooKeeper:
    def test_write_replicates_to_all(self):
        sim = Simulator()
        cluster = ZooKeeperCluster(sim)

        def main():
            yield sim.process(cluster.handle_write("/config", b"value"))

        sim.run_process(main())
        for node in cluster.nodes:
            assert node.data["/config"] == b"value"
            assert node.zxid == 1

    def test_read_after_write(self):
        sim = Simulator()
        cluster = ZooKeeperCluster(sim)

        def main():
            yield sim.process(cluster.handle_write("/a", b"1"))
            value = yield sim.process(cluster.handle_read("/a", node_id=2))
            return value

        assert sim.run_process(main()) == b"1"

    def test_tolerates_one_failure(self):
        sim = Simulator()
        cluster = ZooKeeperCluster(sim)
        cluster.nodes[2].alive = False

        def main():
            yield sim.process(cluster.handle_write("/a", b"1"))

        sim.run_process(main())
        assert cluster.nodes[0].data["/a"] == b"1"
        assert b"1" not in cluster.nodes[2].data.values()

    def test_leader_failover(self):
        """Losing node 0, the first leader, does not stop writes: the
        survivors commit them in zxid order."""
        sim = Simulator()
        cluster = ZooKeeperCluster(sim)
        cluster.nodes[0].alive = False

        def main():
            first = yield sim.process(cluster.handle_write("/a", b"1"))
            second = yield sim.process(cluster.handle_write("/a", b"2"))
            return first, second

        assert sim.run_process(main()) == (1, 2)
        for node in cluster.nodes[1:]:
            assert node.data["/a"] == b"2" and node.zxid == 2
        assert "/a" not in cluster.nodes[0].data

    def test_quorum_loss_blocks_writes(self):
        sim = Simulator()
        cluster = ZooKeeperCluster(sim)
        cluster.nodes[1].alive = False
        cluster.nodes[2].alive = False

        def main():
            yield sim.process(cluster.handle_write("/a", b"1"))

        with pytest.raises(NetworkError, match="quorum"):
            sim.run_process(main())

    def test_read_from_dead_node_fails(self):
        sim = Simulator()
        cluster = ZooKeeperCluster(sim)
        cluster.nodes[1].alive = False

        def main():
            yield sim.process(cluster.handle_read("/a", node_id=1))

        with pytest.raises(NetworkError, match="down"):
            sim.run_process(main())

    def test_even_cluster_rejected(self):
        with pytest.raises(ValueError):
            ZooKeeperCluster(Simulator(), nodes=4)

    def test_shielded_reads_beat_native(self):
        """Fig 17b: the shielded version reads faster than native."""
        sim = Simulator()
        native = ZooKeeperCluster(sim, mode=ExecutionMode.NATIVE)
        shielded = ZooKeeperCluster(sim, mode=ExecutionMode.HARDWARE)
        assert (peak_rate(shielded._read_server)
                > peak_rate(native._read_server))

    def test_native_writes_beat_shielded(self):
        """Fig 17c: consensus makes shields expensive; native wins writes."""
        sim = Simulator()
        native = ZooKeeperCluster(sim, mode=ExecutionMode.NATIVE)
        shielded = ZooKeeperCluster(sim, mode=ExecutionMode.HARDWARE)
        assert (peak_rate(native._write_server)
                > peak_rate(shielded._write_server))


class TestMariaDB:
    def test_rows_encrypted_at_rest(self):
        server = MariaDBServer(Simulator(), buffer_pool_mb=64)
        server.put_row("customer:1", b"alice,4242-4242")
        assert all(b"4242-4242" not in sealed
                   for sealed in server._rows.values())
        assert server.get_row("customer:1") == b"alice,4242-4242"

    def test_missing_row(self):
        assert MariaDBServer(Simulator(),
                             buffer_pool_mb=64).get_row("x") is None

    def test_hit_ratio_grows_with_pool(self):
        ratios = [MariaDBServer(Simulator(), buffer_pool_mb=mb).hit_ratio()
                  for mb in (8, 64, 128, 256, 512)]
        assert ratios == sorted(ratios)
        assert ratios[0] < 0.3

    def test_native_throughput_grows_with_pool(self):
        tps = [peak_rate(MariaDBServer(Simulator(), buffer_pool_mb=mb,
                                       mode=ExecutionMode.NATIVE))
               for mb in calibration.MARIADB_BUFFER_POOL_SIZES_MB]
        assert tps == sorted(tps)

    def test_hardware_throughput_drops_beyond_epc(self):
        """Fig 17d: the HW crossover — bigger pools hurt past the EPC."""
        small = peak_rate(MariaDBServer(Simulator(), buffer_pool_mb=128,
                                         mode=ExecutionMode.HARDWARE))
        big = peak_rate(MariaDBServer(Simulator(), buffer_pool_mb=512,
                                       mode=ExecutionMode.HARDWARE))
        assert big < small

    def test_small_pools_similar_across_modes(self):
        """Fig 17d: <128 MB, disk I/O dominates and modes are close."""
        native = peak_rate(MariaDBServer(Simulator(), buffer_pool_mb=8,
                                          mode=ExecutionMode.NATIVE))
        hw = peak_rate(MariaDBServer(Simulator(), buffer_pool_mb=8,
                                      mode=ExecutionMode.HARDWARE))
        assert hw / native > 0.85

    def test_timed_transactions(self):
        sim = Simulator()
        server = MariaDBServer(sim, buffer_pool_mb=256)

        def main():
            yield sim.process(server.handle_transaction())
            return sim.now

        elapsed = sim.run_process(main())
        assert elapsed == pytest.approx(server.service_seconds)
        assert server.requests_served == 1

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError):
            MariaDBServer(Simulator(), buffer_pool_mb=0)


class TestInferenceService:
    def test_pipeline_round_trip(self):
        sim = Simulator()
        service = InferenceService(sim)
        service.install_model("handwriting-v1", b"weights-blob")
        service.submit_image("img-1", b"pixel-data")

        def main():
            text = yield sim.process(service.process_image("img-1",
                                                           "handwriting-v1"))
            return text

        text = sim.run_process(main())
        assert text.startswith("text:")
        assert service.fetch_result("img-1") == text.encode()

    def test_result_depends_on_model_and_image(self):
        sim = Simulator()
        service = InferenceService(sim)
        service.install_model("m1", b"weights-1")
        service.install_model("m2", b"weights-2")
        service.submit_image("img", b"pixels")

        def run(model):
            def main():
                text = yield sim.process(service.process_image("img", model))
                return text
            return sim.run_process(main())

        assert run("m1") != run("m2")

    def test_assets_encrypted_on_both_volumes(self):
        service = InferenceService(Simulator())
        service.install_model("m", b"proprietary-weights")
        service.submit_image("i", b"sensitive-scan")
        assert service.company_volume.scan_for(b"proprietary-weights") == []
        assert service.customer_volume.scan_for(b"sensitive-scan") == []

    def test_paper_slowdown(self):
        """§VI: 323 ms native vs 1202 ms PALAEMON, a 3.7x slowdown."""
        sim = Simulator()
        hw = InferenceService(sim, mode=ExecutionMode.HARDWARE)
        assert (hw.service_seconds / calibration.ML_NATIVE_INFERENCE_SECONDS
                == pytest.approx(3.72, abs=0.1))
        assert hw.service_seconds < 1.5  # the acceptability bound

    def test_timed_processing(self):
        sim = Simulator()
        service = InferenceService(sim, mode=ExecutionMode.NATIVE)
        service.install_model("m", b"w")
        service.submit_image("i", b"p")

        def main():
            yield sim.process(service.process_image("i", "m"))
            return sim.now

        assert sim.run_process(main()) == pytest.approx(
            calibration.ML_NATIVE_INFERENCE_SECONDS)


class TestSecretChannelSurvey:
    def test_ten_services(self):
        assert len(SECRET_CHANNEL_SURVEY) == 10

    def test_evaluated_services_match_paper(self):
        evaluated = {s.program for s in SECRET_CHANNEL_SURVEY if s.evaluated}
        assert evaluated == {"MariaDB", "Memcached", "Nginx", "Vault",
                             "ZooKeeper"}

    def test_all_channels_covered(self):
        for program, channels, covered in coverage_report():
            assert covered, f"{program} has an uncovered channel"

    def test_mechanisms_exist_for_all_channels(self):
        assert set(PALAEMON_CHANNEL_MECHANISMS) == {"args", "env", "files"}

    def test_known_rows(self):
        consul = next(s for s in SECRET_CHANNEL_SURVEY
                      if s.program == "Consul")
        assert consul.channels == ("env", "files")
        memcached = next(s for s in SECRET_CHANNEL_SURVEY
                         if s.program == "Memcached")
        assert memcached.channels == ()
