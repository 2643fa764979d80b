"""Sealed records cannot be replayed.

An attacker on the path copies a sealed REST or replication record off
the wire and sends it again. The record still authenticates, so only the
server's per-session anti-replay window stands between it and a second
run of its request. Each row of ``ATTACKS`` is one attack and the outcome
it must have; each row builds its own deployment.
"""

import pytest

from repro.core.client import PalaemonClient
from repro.core.rest import PalaemonRestClient
from repro.crypto.primitives import DeterministicRandom
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.faults import FaultPlan
from repro.sim.network import Site
from repro.tls.channel import REPLAY_WINDOW, _ServerSession

from tests.core.conftest import Deployment
from tests.core.test_sealed_transports import (
    designate_backup,
    peered_pair,
    push_tag,
    rest_call,
    rest_stack,
)

OLDER = b"\x01" * 32
NEWER = b"\x02" * 32


def last_record_to(network, endpoint):
    """The sealed record last sent to ``endpoint``, as the wire saw it."""
    return [payload for _time, _src, dst, payload in network.wire_log
            if dst == endpoint.name][-1]


def replay(network, endpoint, record):
    """Send ``record`` to ``endpoint`` again, from an attacker's address."""
    attacker = network.endpoint("attacker")
    attacker.send(endpoint, record, reply_to=attacker)
    network.simulator.run()


class Stack:
    """A REST deployment whose wire an attacker records and writes to."""

    def __init__(self, with_board=False):
        self.deployment = Deployment(seed=b"replay-window")
        self.policy = self.deployment.make_policy(with_board=with_board)
        self.deployment.palaemon.create_policy(
            self.policy, self.deployment.client.certificate)
        self.network, self.server, self.client = rest_stack(self.deployment)
        self.network.wire_log_enabled = True

    @property
    def tls_server(self):
        return self.server._server

    def call(self, route, **fields):
        return rest_call(self.deployment, self.client, route, **fields)

    def push_tag(self, tag):
        self.call("tag.update", policy="ml_policy", service="ml_app", tag=tag)

    def stored_tag(self):
        return self.deployment.palaemon.get_tag_instant("ml_policy",
                                                        "ml_app")

    def last_request_record(self):
        return last_record_to(self.network, self.server.endpoint)

    def replay(self, record):
        replay(self.network, self.server.endpoint, record)

    def connect(self, client):
        """Another REST connection to the same server."""
        def main():
            connection = yield from PalaemonRestClient.connect(
                self.network, client, self.server, Site.SAME_DC,
                DeterministicRandom(b"rest-" + client.name.encode()))
            return connection

        return self.deployment.simulator.run_process(main())

    def board_decisions(self):
        return sum(service.requests_decided for service
                   in self.deployment.approval_services.values())


def replay_tag_update_after_newer_write():
    stack = Stack()
    stack.push_tag(OLDER)
    captured = stack.last_request_record()
    stack.push_tag(NEWER)
    stack.replay(captured)
    return {"stored_tag": stack.stored_tag(),
            "dropped": dict(stack.tls_server.records_dropped)}


def replay_tag_update_below_the_window():
    stack = Stack()
    stack.push_tag(OLDER)
    captured = stack.last_request_record()
    for _ in range(REPLAY_WINDOW):
        stack.push_tag(NEWER)
    stack.replay(captured)
    return {"stored_tag": stack.stored_tag(),
            "dropped": dict(stack.tls_server.records_dropped)}


def replay_policy_update():
    stack = Stack(with_board=True)
    stack.call("policy.update", policy=stack.policy)
    captured = stack.last_request_record()
    decided = stack.board_decisions()
    stack.replay(captured)
    return {"board_decisions": stack.board_decisions() - decided,
            "dropped": dict(stack.tls_server.records_dropped)}


def splice_into_another_session():
    stack = Stack()
    stack.push_tag(OLDER)
    captured = stack.last_request_record()
    other = stack.connect(PalaemonClient("client-2",
                                         DeterministicRandom(b"client-2")))
    stack.replay({"session": other.connection.session.session_id,
                  "data": captured["data"]})
    return {"stored_tag": stack.stored_tag(),
            "dropped": dict(stack.tls_server.records_dropped)}


def replay_replication_record():
    deployment = Deployment(seed=b"replay-window")
    network, local, remote, backup = peered_pair(deployment)
    network.wire_log_enabled = True
    designate_backup(deployment, local, remote)
    push_tag(deployment, OLDER)
    server = remote._server
    captured = last_record_to(network, server.endpoint)
    push_tag(deployment, NEWER)
    served = server.requests_served
    replay(network, server.endpoint, captured)
    return {"handled": server.requests_served - served,
            "stored": backup.get_tag_instant("ml_policy", "ml_app"),
            "dropped": dict(server.records_dropped)}


def duplicated_delivery():
    stack = Stack()
    served = stack.tls_server.requests_served
    FaultPlan(stack.deployment.simulator, NULL_TELEMETRY).duplicate_link(
        stack.client.connection.client_endpoint.name,
        stack.server.endpoint.name, probability=1.0).attach(stack.network)
    stack.push_tag(NEWER)
    stack.deployment.simulator.run()
    return {"handled": stack.tls_server.requests_served - served,
            "stored_tag": stack.stored_tag(),
            "dropped": dict(stack.tls_server.records_dropped)}


#: (id, attack, expected outcome)
ATTACKS = [
    ("tag-update-replayed-after-a-newer-write",
     replay_tag_update_after_newer_write,
     {"stored_tag": NEWER, "dropped": {"replayed": 1}}),
    ("tag-update-replayed-below-the-window",
     replay_tag_update_below_the_window,
     {"stored_tag": NEWER, "dropped": {"too_old": 1}}),
    ("policy-update-replayed",
     replay_policy_update,
     {"board_decisions": 0, "dropped": {"replayed": 1}}),
    ("record-spliced-into-another-session",
     splice_into_another_session,
     {"stored_tag": OLDER, "dropped": {"not_authentic": 1}}),
    ("replication-record-replayed",
     replay_replication_record,
     {"handled": 0, "stored": NEWER, "dropped": {"replayed": 1}}),
    ("duplicate-link-delivery",
     duplicated_delivery,
     {"handled": 1, "stored_tag": NEWER, "dropped": {"replayed": 1}}),
]


@pytest.mark.parametrize("attack, expected",
                         [(attack, expected) for _id, attack, expected
                          in ATTACKS],
                         ids=[case_id for case_id, _a, _e in ATTACKS])
def test_replayed_record_runs_no_request(attack, expected):
    assert attack() == expected


#: (id, request ids in arrival order, verdict for each)
WINDOW = [
    ("in-order", [1, 2, 3], [None, None, None]),
    ("reordered-within-the-window", [2, 1, 3], [None, None, None]),
    ("duplicate", [1, 2, 1, 2], [None, None, "replayed", "replayed"]),
    ("gap-then-late-arrival", [1, 40, 5, 5], [None, None, None, "replayed"]),
    ("edge-of-the-window", [1, REPLAY_WINDOW, REPLAY_WINDOW + 1, 2, 1],
     [None, None, None, None, "too_old"]),
    ("jump-clears-the-window", [3, 3 + 2 * REPLAY_WINDOW, 4],
     [None, None, "too_old"]),
]


@pytest.mark.parametrize("rids, verdicts",
                         [(rids, verdicts) for _id, rids, verdicts in WINDOW],
                         ids=[case_id for case_id, _r, _v in WINDOW])
def test_window_verdicts(rids, verdicts):
    state = _ServerSession(session=None)
    assert [state.admit(rid) for rid in rids] == verdicts
