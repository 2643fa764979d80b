"""Fig 12 — latency to retrieve multiple secrets over HTTPS.

A client retrieves 1/5/50/100 secrets (32 bytes each) from a PALAEMON
service deployed locally, in the same data centre, or on another continent.
Each retrieval runs the real path: a TLS connection to the instance's
:class:`~repro.core.rest.PalaemonRestServer` at that site, verifying the
instance's CA certificate, then one REST ``app.attest`` for an application
whose policy holds that many secrets. The reproduced shape: latency is
flat in the number of secrets (they ride one reply) and dominated by TLS
connection establishment, so only the remote-continent deployment is
visibly slower.
"""

from repro.benchlib.tables import format_table
from repro.core.attestation import AttestationEvidence
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.rest import PalaemonRestClient, PalaemonRestServer
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.fs.blockstore import BlockStore
from repro.sim.core import Simulator
from repro.sim.network import Network, Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

from benchmarks.conftest import run_once

_SECRET_COUNTS = (1, 5, 50, 100)
_DEPLOYMENTS = {
    "Local": Site.SAME_RACK,
    "Local+Same DC": Site.SAME_DC,
    "Local+Remote": Site.INTERCONTINENTAL_11000KM,
}


class _Deployment:
    """A started, CA-certified instance holding one policy per secret
    count, and the attestation evidence of the application they name."""

    def __init__(self, seed: bytes) -> None:
        rng = DeterministicRandom(seed)
        self.rng = rng
        self.sim = Simulator()
        platform = SGXPlatform(self.sim, "fig12-node", rng.fork(b"platform"))
        ias = IntelAttestationService(self.sim, Site.IAS_US,
                                      rng.fork(b"ias"))
        attestation_key = platform.quoting_enclave.attestation_public_key
        ias.register_platform(attestation_key, platform.microcode.revision)
        self.service = PalaemonService(platform, BlockStore("fig12-volume"),
                                       rng.fork(b"palaemon"))
        self.service.platform_registry.enroll(platform.platform_id,
                                              attestation_key)
        self.ca = PalaemonCA(platform, ias,
                             frozenset({self.service.mrenclave}),
                             rng.fork(b"ca"))
        self.sim.run_process(self.service.start())
        self.service.obtain_certificate(self.ca)
        self.client = PalaemonClient("fig12-client", rng.fork(b"client"))

        image = build_image("fig12-app", seed=b"v1")
        for count in _SECRET_COUNTS:
            self.service.create_policy(SecurityPolicy(
                name=f"keys-{count}",
                services=[ServiceSpec(name="app", image_name=image.name,
                                      mrenclaves=[image.mrenclave()])],
                secrets=[SecretSpec(name=f"KEY_{i}", kind=SecretKind.RANDOM,
                                    size=32)
                         for i in range(count)]), self.client.certificate)
        tls_keys = KeyPair.generate(rng.fork(b"app-tls"), bits=512)
        self.quote = platform.quoting_enclave.quote(
            platform.launch_instant(image),
            sha256(tls_keys.public.to_bytes()))
        self.tls_public_key = tls_keys.public

    def retrieve(self, site: Site, count: int) -> float:
        """One retrieval from an instance at ``site``: a verified connect
        plus one ``app.attest`` returning ``count`` secrets."""
        label = f"{site.value}-{count}".encode()
        network = Network(self.sim, self.rng.fork(b"net:" + label),
                          jitter_fraction=0.0)
        server = PalaemonRestServer(self.service, network, site=site)
        evidence = AttestationEvidence(
            quote=self.quote, policy_name=f"keys-{count}",
            service_name="app", tls_public_key=self.tls_public_key)

        def main():
            start = self.sim.now
            connection = yield self.sim.process(PalaemonRestClient.connect(
                network, self.client, server, Site.SAME_RACK,
                self.rng.fork(b"conn:" + label),
                trusted_root=self.ca.root_public_key))
            config = yield self.sim.process(
                connection.call("app.attest", evidence=evidence))
            elapsed = self.sim.now - start
            server.stop()
            # Functional: every key arrives intact.
            assert sorted(config.secrets) == sorted(
                f"KEY_{i}" for i in range(count))
            assert all(len(value) == 32 for value in config.secrets.values())
            return elapsed

        return self.sim.run_process(main())


def _measure_all():
    deployment = _Deployment(b"fig12")
    return {(name, count): deployment.retrieve(site, count)
            for name, site in _DEPLOYMENTS.items()
            for count in _SECRET_COUNTS}


def test_fig12_secret_access(benchmark):
    latencies = run_once(benchmark, _measure_all)

    rows = [[deployment] + [latencies[(deployment, count)] * 1e3
                            for count in _SECRET_COUNTS]
            for deployment in _DEPLOYMENTS]
    print()
    print(format_table(
        ["deployment"] + [f"{count} keys (ms)" for count in _SECRET_COUNTS],
        rows, title="Fig 12: secret retrieval latency over HTTPS"))

    # Flat in the number of secrets: 100 keys cost at most ~20% more than 1.
    for deployment in _DEPLOYMENTS:
        one = latencies[(deployment, 1)]
        hundred = latencies[(deployment, 100)]
        assert hundred <= one * 1.2, deployment

    # Deployment distance dominates: remote continent >> same DC ~ local.
    local = latencies[("Local", 1)]
    same_dc = latencies[("Local+Same DC", 1)]
    remote = latencies[("Local+Remote", 1)]
    assert remote > 10 * same_dc
    assert same_dc < 5 * local
    # Remote latency is in the hundreds of milliseconds (TLS over ~150 ms
    # RTT), inside the figure's axis range.
    assert 0.2 <= remote <= 1.2
