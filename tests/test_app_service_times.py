"""Pinned per-request service times of every macro-benchmark server.

Figs 14-17 and §VI are built from these numbers, so each one is pinned as
the exact float that one request takes in virtual time on an idle server.
A refactor of the app cost models must leave every value bit-identical.
"""

import pytest

from repro import calibration
from repro.apps.kms import BarbicanServer, BarbicanVariant, VaultServer
from repro.apps.kvstore import MemcachedServer
from repro.apps.mariadb import MariaDBServer
from repro.apps.mlservice import InferenceService
from repro.apps.webserver import NginxServer, NginxVariant
from repro.apps.zookeeper import ZooKeeperCluster
from repro.crypto.primitives import DeterministicRandom
from repro.sim.core import Simulator
from repro.tee.enclave import ExecutionMode

NATIVE = ExecutionMode.NATIVE
EMU = ExecutionMode.EMULATED
HW = ExecutionMode.HARDWARE
PRE = calibration.MICROCODE_PRE_SPECTRE
POST = calibration.MICROCODE_POST_FORESHADOW


def _elapsed(sim, request):
    """Virtual seconds one request takes on an otherwise idle server."""

    def main():
        yield sim.process(request)
        return sim.now

    return sim.run_process(main())


def _kms_retrieve_seconds(sim, server):
    token = server.secrets.issue_token("tenant", DeterministicRandom(b"t"))
    server.secrets.store(token, "k", b"v")
    return _elapsed(sim, server.handle_retrieve(token, "k"))


_BARBICAN = {
    (PRE, BarbicanVariant.NATIVE): 0.03571428571428571,
    (PRE, BarbicanVariant.PALAEMON_HW): 0.041666666666666664,
    (PRE, BarbicanVariant.BARBIE): 0.029411764705882353,
    (POST, BarbicanVariant.NATIVE): 0.03571428571428571,
    (POST, BarbicanVariant.PALAEMON_HW): 0.059523809523809534,
    (POST, BarbicanVariant.BARBIE): 0.030959752321981428,
}


@pytest.mark.parametrize("microcode,variant", list(_BARBICAN))
def test_barbican(microcode, variant):
    sim = Simulator()
    server = BarbicanServer(sim, variant, microcode=microcode)
    assert _kms_retrieve_seconds(sim, server) == _BARBICAN[(microcode,
                                                            variant)]


_VAULT = {NATIVE: 0.0008, EMU: 0.0009756097560975611,
          HW: 0.0013114754098360656}


@pytest.mark.parametrize("mode", list(_VAULT))
def test_vault(mode):
    sim = Simulator()
    server = VaultServer(sim, mode=mode)
    assert _kms_retrieve_seconds(sim, server) == _VAULT[mode]


_MEMCACHED = {NATIVE: 1.8604651162790697e-05, EMU: 2.8491043128316533e-05,
              HW: 3.126832128200117e-05}


@pytest.mark.parametrize("mode", list(_MEMCACHED))
def test_memcached(mode):
    sim = Simulator()
    server = MemcachedServer(sim, mode=mode)
    assert _elapsed(sim, server.handle_get("k")) == _MEMCACHED[mode]


_ML = {NATIVE: 0.323, EMU: 0.4522, HW: 1.202}


@pytest.mark.parametrize("mode", list(_ML))
def test_ml_service(mode):
    sim = Simulator()
    service = InferenceService(sim, mode=mode)
    service.install_model("m", b"w")
    service.submit_image("i", b"p")
    assert _elapsed(sim, service.process_image("i", "m")) == _ML[mode]


_NGINX = {
    NginxVariant.NATIVE: 0.0010256410256410256,
    NginxVariant.PALAEMON_EMU: 0.001221001221001221,
    NginxVariant.PALAEMON_HW: 0.001282051282051282,
    NginxVariant.SHIELD_EMU: 0.002136752136752137,
    NginxVariant.SHIELD_HW: 0.002279202279202279,
}


@pytest.mark.parametrize("variant", list(_NGINX))
def test_nginx(variant):
    sim = Simulator()
    server = NginxServer(sim, variant)
    assert _elapsed(sim, server.handle_get("/missing")) == _NGINX[variant]


_ZK_READ = {NATIVE: 0.0003, EMU: 0.0002608695652173913,
            HW: 0.0002608695652173913}
#: Leader service time plus one proposal round trip to the followers.
_ZK_WRITE = {NATIVE: 0.0007904761904761905, EMU: 0.0008405002405002406,
             HW: 0.0008645502645502647}


@pytest.mark.parametrize("mode", list(_ZK_READ))
def test_zookeeper_read(mode):
    sim = Simulator()
    cluster = ZooKeeperCluster(sim, mode=mode)
    assert _elapsed(sim, cluster.handle_read("/a")) == _ZK_READ[mode]


@pytest.mark.parametrize("mode", list(_ZK_WRITE))
def test_zookeeper_write(mode):
    sim = Simulator()
    cluster = ZooKeeperCluster(sim, mode=mode)
    assert _elapsed(sim, cluster.handle_write("/a", b"1")) == _ZK_WRITE[mode]


_MARIADB = {
    (NATIVE, 8): 0.008315084469324066,
    (NATIVE, 64): 0.006789330886730397,
    (NATIVE, 128): 0.0058703249198838615,
    (NATIVE, 256): 0.004614925772973999,
    (NATIVE, 512): 0.0029319999999999997,
    (EMU, 8): 0.008565084469324066,
    (EMU, 64): 0.007039330886730397,
    (EMU, 128): 0.006120324919883862,
    (EMU, 256): 0.004864925772973999,
    (EMU, 512): 0.003182,
    (HW, 8): 0.008565084469324066,
    (HW, 64): 0.007039330886730397,
    (HW, 128): 0.007527027589462746,
    (HW, 256): 0.009339537681207818,
    (HW, 512): 0.010998968750000001,
}


def test_mariadb_pins_cover_every_pool():
    assert {pool for _, pool in _MARIADB} == set(
        calibration.MARIADB_BUFFER_POOL_SIZES_MB)


@pytest.mark.parametrize("mode,pool_mb", list(_MARIADB))
def test_mariadb(mode, pool_mb):
    sim = Simulator()
    server = MariaDBServer(sim, buffer_pool_mb=pool_mb, mode=mode)
    assert _elapsed(sim, server.handle_transaction()) == _MARIADB[(mode,
                                                                   pool_mb)]
