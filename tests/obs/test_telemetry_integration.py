"""End-to-end telemetry: the instrumented service audits what it does,
REST failures become structured errors and error metrics, tampering with
a live service's audit log is detected, and two runs of the same seed
produce identical event streams."""

from types import SimpleNamespace

import pytest

from repro.core.dispatch import decode_reply, error_code
from repro.core.rest import PalaemonRestServer
from repro.errors import (
    AttestationError,
    IntegrityError,
    PolicyNotFoundError,
    ReproError,
)
from repro.obs.demo import print_observe_report, run_observe_workload
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

from tests.core.conftest import Deployment


class TestServiceTelemetry:
    def test_policy_crud_is_audited(self):
        deployment = Deployment()
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        deployment.client.read_policy(deployment.palaemon, policy.name)
        deployment.client.delete_policy(deployment.palaemon, policy.name)
        log = deployment.palaemon.telemetry.audit_log
        kinds = [record.kind for record in log.records]
        assert "policy.create" in kinds
        assert "policy.read" in kinds
        assert "policy.delete" in kinds
        # Board-governed policy: every CRUD ran a quorum round.
        rounds = log.by_kind("board.round")
        assert len(rounds) == 3
        assert all(r.details["decision"] == "approved" for r in rounds)
        assert log.verify_chain() == len(log)

    def test_attestation_verdicts_audited_with_reason(self):
        deployment = Deployment()
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        evidence = deployment.evidence_for(policy.name)
        deployment.palaemon.attest_application(evidence)
        bogus = deployment.evidence_for(policy.name)
        bogus = type(bogus)(quote=bogus.quote, policy_name="ghost",
                            service_name="ml_app",
                            tls_public_key=bogus.tls_public_key)
        with pytest.raises(AttestationError):
            deployment.palaemon.attest_application(bogus)
        log = deployment.palaemon.telemetry.audit_log
        (accept,) = log.by_kind("attest.accept")
        assert accept.details["policy"] == policy.name
        (deny,) = log.by_kind("attest.deny")
        assert deny.details["reason"] == "AttestationError"
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_attestations_total",
                               result="accept").value == 1
        assert metrics.counter("palaemon_attestations_total",
                               result="deny").value == 1

    def test_counter_transitions_audited(self):
        deployment = Deployment()
        deployment.stop_palaemon()
        log = deployment.palaemon.telemetry.audit_log
        assert len(log.by_kind("counter.increment")) == 1
        assert len(log.by_kind("guard.startup")) == 1
        assert len(log.by_kind("guard.shutdown")) == 1
        (increment,) = log.by_kind("counter.increment")
        assert increment.details["old_value"] == 0
        assert increment.details["new_value"] == 1

    def test_tampering_with_live_audit_log_detected(self):
        deployment = Deployment()
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        telemetry = deployment.palaemon.telemetry
        assert telemetry.verify_audit_chain() > 0
        record = telemetry.audit_log.by_kind("policy.create")[0]
        record.details["requester"] = "00" * 32  # Byzantine operator edit
        with pytest.raises(IntegrityError):
            telemetry.verify_audit_chain()

    def test_null_telemetry_records_nothing(self):
        deployment = Deployment()
        service = deployment.palaemon
        service.telemetry = NULL_TELEMETRY
        service.rollback_guard.telemetry = NULL_TELEMETRY
        policy = deployment.make_policy(with_board=False)
        deployment.client.create_policy(service, policy)
        assert len(NULL_TELEMETRY.audit_log) == 0
        assert len(NULL_TELEMETRY.metrics) == 0
        assert NULL_TELEMETRY.tracer.finished == []

    def test_telemetry_uses_simulator_clock(self):
        deployment = Deployment()
        telemetry = deployment.palaemon.telemetry
        assert telemetry.now == deployment.simulator.now
        deployment.simulator.run_process(_advance(deployment.simulator, 2.5))
        assert telemetry.now == deployment.simulator.now


def _advance(simulator, delay):
    yield simulator.timeout(delay)


#: A TLS session whose client presented no certificate.
NO_CERTIFICATE = SimpleNamespace(client_certificate=None)


def rest_codec(deployment):
    """The REST front-end's codec, without a network behind it."""
    server = PalaemonRestServer.__new__(PalaemonRestServer)
    server.service = deployment.palaemon
    return server


class TestRestStructuredErrors:
    def test_error_code_mapping(self):
        assert error_code(PolicyNotFoundError("x")) == "policy_not_found"
        assert error_code(ReproError("x")) == "repro"
        assert error_code(KeyError("x")) == "internal"

    def test_missing_fields_become_bad_request(self):
        deployment = Deployment()
        server = rest_codec(deployment)
        # tag.update without its required fields: the pipeline's field
        # check refuses before the handler ever runs.
        reply = server._handle({"route": "tag.update"},
                               session=NO_CERTIFICATE)
        assert reply["code"] == "bad_request"
        assert reply["kind"] == "BadRequestError"
        for field in ("policy", "service", "tag"):
            assert field in reply["error"]
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_dispatch_errors_total",
                               route="tag.update", transport="rest",
                               code="bad_request").value == 1

    def test_handler_crash_becomes_structured_internal_error(self):
        deployment = Deployment()
        server = rest_codec(deployment)
        # An unhashable policy key crashes inside the handler (TypeError);
        # it must surface as a structured reply, not an exception.
        reply = server._handle(
            {"route": "tag.update", "policy": {}, "service": "s",
             "tag": b"t"}, session=NO_CERTIFICATE)
        assert reply["code"] == "internal"
        assert reply["kind"] == "InternalError"
        assert "TypeError" in reply["error"]
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_dispatch_errors_total",
                               route="tag.update", transport="rest",
                               code="internal").value == 1

    def test_unknown_route_structured(self):
        deployment = Deployment()
        server = rest_codec(deployment)
        reply = server._handle({"route": "nope"}, session=NO_CERTIFICATE)
        assert reply["code"] == "unknown_route"
        assert "error" in reply

    def test_repro_error_keeps_kind_and_code(self):
        deployment = Deployment()
        server = rest_codec(deployment)
        reply = server._handle(
            {"route": "tag.get", "policy": "ghost", "service": "s"},
            session=NO_CERTIFICATE)
        assert reply["kind"] == "PolicyNotFoundError"
        assert reply["code"] == "policy_not_found"

    def test_error_reply_raises_typed_class(self):
        reply = {"error": "no policy", "kind": "PolicyNotFoundError",
                 "code": "policy_not_found"}
        with pytest.raises(PolicyNotFoundError, match="no policy") as info:
            decode_reply(reply)
        assert error_code(info.value) == reply["code"]
        assert decode_reply({"ok": [1, 2]}) == [1, 2]


class TestObserveWorkload:
    def test_workload_produces_rich_valid_telemetry(self, capsys):
        service = run_observe_workload(seed=b"test-seed")
        assert print_observe_report(service) is True
        output = capsys.readouterr().out
        assert "audit chain: valid" in output
        telemetry = service.telemetry
        # The acceptance bar: at least 8 distinct metric families covering
        # attestations, votes, tags, counters, and dispatched routes.
        names = telemetry.metrics.names()
        assert len(names) >= 8
        for required in ("palaemon_attestations_total",
                         "palaemon_board_votes_total",
                         "palaemon_tag_updates_total",
                         "palaemon_counter_increments_total",
                         "palaemon_dispatch_route_seconds",
                         "palaemon_dispatch_errors_total",
                         "palaemon_admission_admitted_total"):
            assert required in names
        assert telemetry.verify_audit_chain() > 0

    def test_same_seed_identical_event_streams(self):
        first = run_observe_workload(seed=b"determinism")
        second = run_observe_workload(seed=b"determinism")
        assert first.telemetry.events_jsonl() == second.telemetry.events_jsonl()
        assert (first.telemetry.snapshot_text()
                == second.telemetry.snapshot_text())
        assert (first.telemetry.audit_log.head()
                == second.telemetry.audit_log.head())

    def test_different_seeds_differ_only_in_payloads(self):
        first = run_observe_workload(seed=b"seed-a")
        second = run_observe_workload(seed=b"seed-b")
        # Same control flow: identical metric families and span names...
        assert first.telemetry.metrics.names() == second.telemetry.metrics.names()
        assert ([s.name for s in first.telemetry.spans()]
                == [s.name for s in second.telemetry.spans()])
        # ...but different tags/nonces, so different audit heads.
        assert (first.telemetry.audit_log.head()
                != second.telemetry.audit_log.head())


class TestTelemetryFacade:
    def test_disabled_span_is_noop_context_manager(self):
        telemetry = Telemetry(enabled=False)
        with telemetry.span("anything") as handle:
            handle.annotate("ignored")
            handle.set_attribute("k", "v")
        assert telemetry.tracer.finished == []

    def test_events_jsonl_contains_both_streams(self):
        telemetry = Telemetry(clock=lambda: 1.0)
        telemetry.audit("tag.update", policy="p")
        with telemetry.span("op"):
            pass
        lines = telemetry.events_jsonl().strip().split("\n")
        assert len(lines) == 2
        assert '"type":"audit"' in lines[0]
        assert '"type":"span"' in lines[1]
