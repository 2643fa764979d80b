"""Fixed per-request costs of REST and peer requests, and of a close.

After warm-up, one ``tag.update``, ``tag.get``, ``app.attest`` or
board-governed ``policy.read`` over REST, and one ``federation.fetch`` or
``failover.replicate`` over a peer link, seals and opens a pinned number
of AEAD messages, seals a pinned number of plaintext bytes, processes a
pinned number of simulator events, canonicalises no metric label set
(every series the request touches is already cached), and makes a pinned
number of RSA signatures, verifications and key generations. Closing the
connection costs a pinned amount too. The counts are deterministic, so a
change that adds work to every request shows up here as a changed number.
"""

import sys

import pytest

from repro.crypto import signatures
from repro.crypto.symmetric import AEADCipher
from repro.obs import metrics
from repro.sim.core import Simulator

from tests.core.conftest import Deployment
from tests.core.test_sealed_transports import (
    designate_backup,
    fetch,
    peered_pair,
    rest_call,
    rest_stack,
    seed_exported_secret,
)

#: route -> (AEAD encrypts, AEAD decrypts, simulator events,
#: ``canonical_labels`` calls, AEAD plaintext bytes sealed, RSA signatures,
#: RSA verifications, RSA key generations) for one request after warm-up.
#: Every route seals and opens the request and the reply record; an update
#: also seals its store log record and the manifest; the events include the
#: connection reader's wake-up of the waiting request. ``close`` is the
#: connection's close record: the client seals it, the server opens it,
#: and its two events are the delivery and the server's wake-up; nothing
#: answers it. ``app.attest`` verifies the quote's signature and commits
#: the service's new state; a board-governed ``policy.read`` takes one board
#: round, a signed verdict from each of the three members.
#: ``federation.fetch`` is one secret fetched from a peer; the peer serves
#: it as a dispatch process, whose start and end are two of its events.
#: ``failover.replicate`` is the round an instant commit on the primary
#: starts: the backup opens the batch, seals its own log record and
#: manifest, holds its disk for the commit, and seals the ack the primary
#: opens.
BUDGET = {
    "tag.update": (4, 2, 10, 0, 718, 0, 0, 0),
    "tag.get": (2, 2, 10, 0, 167, 0, 0, 0),
    "app.attest": (4, 2, 10, 0, 1598, 0, 1, 0),
    "policy.read": (2, 2, 10, 0, 1736, 3, 3, 0),
    "close": (1, 1, 2, 0, 33, 0, 0, 0),
    "federation.fetch": (2, 2, 12, 0, 236, 0, 0, 0),
    "failover.replicate": (4, 2, 23, 0, 929, 0, 0, 0),
}
ROUTES = ["tag.get", "tag.update"]


class _Costs:
    def __init__(self, monkeypatch):
        self.encrypts = self.decrypts = self.events = self.labels = 0
        self.sealed_bytes = self.signs = self.verifies = self.keygens = 0
        encrypt, decrypt = AEADCipher.encrypt, AEADCipher.decrypt
        step, canonical = Simulator.step, metrics.canonical_labels
        sign, verify = signatures.SigningKey.sign, signatures.verify_signature
        generate = signatures.KeyPair.generate.__func__

        def counted_encrypt(cipher, plaintext, *args, **kwargs):
            self.encrypts += 1
            self.sealed_bytes += len(plaintext)
            return encrypt(cipher, plaintext, *args, **kwargs)

        def counted_decrypt(cipher, *args, **kwargs):
            self.decrypts += 1
            return decrypt(cipher, *args, **kwargs)

        def counted_step(simulator):
            processed = step(simulator)
            self.events += processed
            return processed

        def counted_canonical(labels):
            self.labels += 1
            return canonical(labels)

        def counted_sign(key, message):
            self.signs += 1
            return sign(key, message)

        def counted_verify(public_key, message, signature):
            self.verifies += 1
            return verify(public_key, message, signature)

        def counted_generate(cls, *args, **kwargs):
            self.keygens += 1
            return generate(cls, *args, **kwargs)

        monkeypatch.setattr(AEADCipher, "encrypt", counted_encrypt)
        monkeypatch.setattr(AEADCipher, "decrypt", counted_decrypt)
        monkeypatch.setattr(Simulator, "step", counted_step)
        monkeypatch.setattr(metrics, "canonical_labels", counted_canonical)
        monkeypatch.setattr(signatures.SigningKey, "sign", counted_sign)
        monkeypatch.setattr(signatures.KeyPair, "generate",
                            classmethod(counted_generate))
        # ``verify_signature`` is imported by name: rebind every reference.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is verify:
                        monkeypatch.setattr(module, key, counted_verify)

    def snapshot(self):
        return (self.encrypts, self.decrypts, self.events, self.labels,
                self.sealed_bytes, self.signs, self.verifies, self.keygens)


@pytest.fixture(scope="module")
def warmed_rest():
    deployment = Deployment(seed=b"request-costs")
    policy = deployment.make_policy(with_board=False)
    deployment.palaemon.create_policy(policy, deployment.client.certificate)
    _network, _server, connection = rest_stack(deployment)
    for round_ in range(3):
        rest_call(deployment, connection, "tag.update", policy="ml_policy",
                  service="ml_app", tag=bytes([round_]) * 32)
        rest_call(deployment, connection, "tag.get", policy="ml_policy",
                  service="ml_app")
    return deployment, connection


@pytest.mark.parametrize("route", ROUTES)
def test_one_request_runs_its_pinned_costs(warmed_rest, route, monkeypatch):
    deployment, connection = warmed_rest
    fields = {"policy": "ml_policy", "service": "ml_app"}
    if route == "tag.update":
        fields["tag"] = b"\x07" * 32
    costs = _Costs(monkeypatch)
    rest_call(deployment, connection, route, **fields)
    assert costs.snapshot() == BUDGET[route]


def test_close_runs_its_pinned_costs(monkeypatch):
    deployment = Deployment(seed=b"request-costs-close")
    _network, _server, connection = rest_stack(deployment)
    rest_call(deployment, connection, "instance.describe")
    costs = _Costs(monkeypatch)
    connection.close()
    deployment.simulator.run()
    assert costs.snapshot() == BUDGET["close"]


@pytest.fixture(scope="module")
def warmed_board_rest():
    deployment = Deployment(seed=b"request-costs-board")
    policy = deployment.make_policy()
    deployment.palaemon.create_policy(policy, deployment.client.certificate)
    evidence = deployment.evidence_for("ml_policy")
    _network, _server, connection = rest_stack(deployment)
    for _round in range(3):
        rest_call(deployment, connection, "policy.read", name="ml_policy")
        rest_call(deployment, connection, "app.attest", evidence=evidence)
    return deployment, connection, evidence


@pytest.mark.parametrize("route", ["policy.read", "app.attest"])
def test_board_governed_request_runs_its_pinned_costs(warmed_board_rest,
                                                      route, monkeypatch):
    deployment, connection, evidence = warmed_board_rest
    fields = ({"name": "ml_policy"} if route == "policy.read"
              else {"evidence": evidence})
    costs = _Costs(monkeypatch)
    rest_call(deployment, connection, route, **fields)
    assert costs.snapshot() == BUDGET[route]


def test_peer_fetch_runs_its_pinned_costs(monkeypatch):
    deployment = Deployment(seed=b"request-costs-fetch")
    _network, local, remote, remote_service = peered_pair(deployment)
    seed_exported_secret(deployment, remote_service)
    for _round in range(3):
        fetch(deployment, local, remote)
    costs = _Costs(monkeypatch)
    fetch(deployment, local, remote)
    assert costs.snapshot() == BUDGET["federation.fetch"]


def test_replication_round_runs_its_pinned_costs(monkeypatch):
    deployment = Deployment(seed=b"request-costs-replicate")
    _network, local, remote, _remote_service = peered_pair(deployment)
    coordinator = designate_backup(deployment, local, remote)
    primary = deployment.palaemon
    for round_ in range(3):
        primary.update_tag_instant("ml_policy", "ml_app",
                                   bytes([round_]) * 32)
        deployment.simulator.run()
    primary.update_tag_instant("ml_policy", "ml_app", b"\x07" * 32)
    costs = _Costs(monkeypatch)
    deployment.simulator.run()
    assert coordinator.replication_lag() == 0
    assert costs.snapshot() == BUDGET["failover.replicate"]
