"""Fixed per-request costs of a REST tag push and read, and of a close.

After warm-up, one ``tag.update`` and one ``tag.get`` over REST each seal
and open a pinned number of AEAD messages, process a pinned number of
simulator events, and canonicalise no metric label set: every series the
request touches is already cached. Closing the connection costs a pinned
amount too. The counts are deterministic, so a change that adds work to
every request shows up here as a changed number.
"""

import pytest

from repro.crypto.symmetric import AEADCipher
from repro.obs import metrics
from repro.sim.core import Simulator

from tests.core.conftest import Deployment
from tests.core.test_sealed_transports import rest_call, rest_stack

#: route -> (AEAD encrypts, AEAD decrypts, simulator events,
#: ``canonical_labels`` calls) for one request after warm-up. Both routes
#: seal and open the request and the reply record; an update also seals
#: its store log record and the manifest. ``close`` is the connection's
#: close record: the client seals it, the server opens it, and its two
#: events are the delivery and the server's wake-up; nothing answers it.
BUDGET = {
    "tag.update": (4, 2, 11, 0),
    "tag.get": (2, 2, 11, 0),
    "close": (1, 1, 2, 0),
}
ROUTES = ["tag.get", "tag.update"]


class _Costs:
    def __init__(self, monkeypatch):
        self.encrypts = self.decrypts = self.events = self.labels = 0
        encrypt, decrypt = AEADCipher.encrypt, AEADCipher.decrypt
        step, canonical = Simulator.step, metrics.canonical_labels

        def counted_encrypt(cipher, *args, **kwargs):
            self.encrypts += 1
            return encrypt(cipher, *args, **kwargs)

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

        monkeypatch.setattr(AEADCipher, "encrypt", counted_encrypt)
        monkeypatch.setattr(AEADCipher, "decrypt", counted_decrypt)
        monkeypatch.setattr(Simulator, "step", counted_step)
        monkeypatch.setattr(metrics, "canonical_labels", counted_canonical)

    def snapshot(self):
        return (self.encrypts, self.decrypts, self.events, self.labels)


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
