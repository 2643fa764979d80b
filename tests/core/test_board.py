"""Tests for policy boards: quorum, veto, Byzantine members, forgery."""

import pytest

from repro import calibration
from repro.core.board import (
    AccessRequest,
    ApprovalService,
    BoardEvaluator,
    Verdict,
    approve_everything,
)
from repro.core.policy import BoardSpec, PolicyBoardMember
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import ApprovalDeniedError, SignatureError, VetoError
from repro.sim.core import Simulator
from repro.sim.network import Site


def make_board(simulator, member_specs, threshold):
    """member_specs: list of (name, decision_rule, veto)."""
    rng = DeterministicRandom(b"board-tests")
    services = {}
    members = []
    for name, rule, veto in member_specs:
        keys = KeyPair.generate(rng.fork(name.encode()), bits=512)
        cert = self_signed_certificate(name, keys)
        endpoint = f"ep-{name}"
        services[endpoint] = ApprovalService(simulator, name, keys,
                                             decision_rule=rule)
        members.append(PolicyBoardMember(name=name, certificate=cert,
                                         approval_endpoint=endpoint,
                                         veto=veto))
    board = BoardSpec(members=tuple(members), threshold=threshold)
    return board, BoardEvaluator(simulator, services), services


def request(operation="update"):
    return AccessRequest(policy_name="p", operation=operation,
                         requester_fingerprint=b"\x01" * 16,
                         nonce=b"\x02" * 16)


def reject_everything(_request):
    return False


class TestQuorum:
    def test_unanimous_approval_passes(self):
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("a", approve_everything, False),
                  ("b", approve_everything, False),
                  ("c", approve_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        BoardEvaluator.enforce(board, request(), outcome)
        assert len(outcome.approvals) == 3

    def test_exactly_threshold_passes(self):
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("a", approve_everything, False),
                  ("b", approve_everything, False),
                  ("c", reject_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        BoardEvaluator.enforce(board, request(), outcome)

    def test_below_threshold_denied(self):
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("a", approve_everything, False),
                  ("b", reject_everything, False),
                  ("c", reject_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        with pytest.raises(ApprovalDeniedError, match="1 approvals"):
            BoardEvaluator.enforce(board, request(), outcome)

    def test_single_byzantine_member_cannot_approve_alone(self):
        """The core §III-C property: one compromised member is not enough."""
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("byzantine", approve_everything, False),
                  ("honest-1", reject_everything, False),
                  ("honest-2", reject_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        with pytest.raises(ApprovalDeniedError):
            BoardEvaluator.enforce(board, request(), outcome)

    def test_offline_members_count_as_no_vote(self):
        sim = Simulator()
        board, evaluator, services = make_board(
            sim, [("a", approve_everything, False),
                  ("b", approve_everything, False),
                  ("c", approve_everything, False)], threshold=3)
        services["ep-c"].online = False
        outcome = evaluator.evaluate_local(board, request())
        assert outcome.unreachable == ["c"]
        with pytest.raises(ApprovalDeniedError):
            BoardEvaluator.enforce(board, request(), outcome)

    def test_missing_approval_service_unreachable(self):
        sim = Simulator()
        board, evaluator, services = make_board(
            sim, [("a", approve_everything, False)], threshold=1)
        evaluator._services = {}
        outcome = evaluator.evaluate_local(board, request())
        assert outcome.unreachable == ["a"]


class TestVeto:
    def test_veto_overrides_quorum(self):
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("data-provider", reject_everything, True),
                  ("dev-1", approve_everything, False),
                  ("dev-2", approve_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        with pytest.raises(VetoError, match="data-provider"):
            BoardEvaluator.enforce(board, request(), outcome)

    def test_veto_member_approving_is_fine(self):
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("data-provider", approve_everything, True),
                  ("dev-1", approve_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        BoardEvaluator.enforce(board, request(), outcome)

    def test_non_veto_rejection_does_not_block_quorum(self):
        sim = Simulator()
        board, evaluator, _ = make_board(
            sim, [("grump", reject_everything, False),
                  ("dev-1", approve_everything, False),
                  ("dev-2", approve_everything, False)], threshold=2)
        outcome = evaluator.evaluate_local(board, request())
        BoardEvaluator.enforce(board, request(), outcome)


class TestForgery:
    def test_forged_verdict_does_not_count(self):
        """An attacker cannot inject approvals without member keys."""
        sim = Simulator()
        board, evaluator, services = make_board(
            sim, [("a", reject_everything, False),
                  ("b", reject_everything, False)], threshold=1)

        req = request()
        outcome = evaluator.evaluate_local(board, req)
        # Attacker-crafted verdict claiming member "a" approved:
        forged = Verdict(member_name="a",
                         request_digest=sha256(req.to_bytes()),
                         approve=True, signature=b"\x00" * 64)
        BoardEvaluator._classify(board.members[0], forged, outcome)
        assert forged not in outcome.approvals
        assert forged in outcome.invalid
        with pytest.raises(ApprovalDeniedError):
            BoardEvaluator.enforce(board, req, outcome)

    def test_verdict_bound_to_request(self):
        """A verdict for one request cannot authorize another."""
        sim = Simulator()
        board, evaluator, services = make_board(
            sim, [("a", approve_everything, False)], threshold=1)
        verdict = services["ep-a"].decide_local(request("read"))
        verdict.verify(board.members[0].certificate)
        other_digest = sha256(request("delete").to_bytes())
        assert verdict.request_digest != other_digest

    def test_tampered_verdict_rejected(self):
        sim = Simulator()
        board, _evaluator, services = make_board(
            sim, [("a", reject_everything, False)], threshold=1)
        verdict = services["ep-a"].decide_local(request())
        flipped = Verdict(member_name=verdict.member_name,
                          request_digest=verdict.request_digest,
                          approve=True,  # attacker flips reject -> approve
                          signature=verdict.signature)
        with pytest.raises(SignatureError):
            flipped.verify(board.members[0].certificate)


class TestDecisionRules:
    def test_rule_sees_request_details(self):
        """Members can implement per-operation policies (e.g. read-only)."""
        sim = Simulator()

        def reads_only(req):
            return req.operation == "read"

        board, evaluator, _ = make_board(sim, [("a", reads_only, False)],
                                         threshold=1)
        ok = evaluator.evaluate_local(board, request("read"))
        BoardEvaluator.enforce(board, request("read"), ok)
        denied = evaluator.evaluate_local(board, request("update"))
        with pytest.raises(ApprovalDeniedError):
            BoardEvaluator.enforce(board, request("update"), denied)


class TestTimedEvaluation:
    def test_members_queried_in_parallel(self):
        """The round costs one slowest-member latency, not the sum."""
        sim = Simulator()
        board, evaluator, services = make_board(
            sim, [("a", approve_everything, False),
                  ("b", approve_everything, False),
                  ("c", approve_everything, False)], threshold=3)
        for service in services.values():
            service.site = Site.CONTINENTAL_7000KM

        def main():
            outcome = yield sim.process(evaluator.evaluate(board, request()))
            return outcome, sim.now

        outcome, elapsed = sim.run_process(main())
        assert len(outcome.approvals) == 3
        one_member = (calibration.RTT_7000_KM * 3  # rtt + tls handshake
                      + calibration.TLS_HANDSHAKE_CRYPTO_SECONDS
                      + services["ep-a"].service_seconds)
        # Parallel: total ~= one member's cost, certainly < 2x.
        assert elapsed < one_member * 2

    def test_offline_member_in_timed_round(self):
        sim = Simulator()
        board, evaluator, services = make_board(
            sim, [("a", approve_everything, False),
                  ("b", approve_everything, False)], threshold=1)
        services["ep-b"].online = False

        def main():
            outcome = yield sim.process(evaluator.evaluate(board, request()))
            return outcome

        outcome = sim.run_process(main())
        assert len(outcome.approvals) == 1
        assert outcome.unreachable == ["b"]


class TestServiceTimes:
    def test_tee_slower_than_native(self):
        sim = Simulator()
        keys = KeyPair.generate(DeterministicRandom(b"k"), bits=512)
        tee = ApprovalService(sim, "m", keys, in_tee=True)
        native = ApprovalService(sim, "m", keys, in_tee=False)
        assert tee.service_seconds > native.service_seconds

    def test_tls_adds_cost(self):
        sim = Simulator()
        keys = KeyPair.generate(DeterministicRandom(b"k"), bits=512)
        with_tls = ApprovalService(sim, "m", keys, use_tls=True)
        without = ApprovalService(sim, "m", keys, use_tls=False)
        assert with_tls.service_seconds > without.service_seconds
