"""The unified operation-dispatch layer: registry, uniform error codes
across every transport, admission control, and the in-process invoker.

The contract under test: however a request reaches a PALAEMON instance —
REST, federation, or in-process — it goes through the same
registry and middleware pipeline, so malformed requests get the same
``bad_request`` code, unknown operations the same ``unknown_route`` code,
and overload the same ``overloaded`` code, and no serve loop ever
crashes.
"""

import re

import pytest

import repro.errors
from repro.core.client import PalaemonClient
from repro.core.dispatch import (
    AUTH_PEER,
    AdmissionControl,
    Operation,
    OperationRegistry,
    RouteLimits,
    decode_reply,
    default_registry,
    error_code,
)
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import (
    AttestationError,
    BadRequestError,
    CertificateRequiredError,
    PolicyNotFoundError,
    ReproError,
    ServiceOverloadedError,
    UnknownRouteError,
)

from tests.core.conftest import Deployment, make_networked_pair

TRANSPORTS = ("rest", "federation", "inprocess")


def reply_over(deployment, request, transport):
    """The reply from the entry point that serves ``transport``: the
    federation server runs ``dispatch``; REST and in-process call
    ``handle``."""
    dispatcher = deployment.palaemon.dispatcher
    if transport == "federation":
        return deployment.simulator.run_process(
            dispatcher.dispatch(request, transport=transport))
    return dispatcher.handle(request, transport=transport)


class TestRegistry:
    def test_default_registry_covers_every_transport_route(self):
        names = [op.name for op in default_registry().operations()]
        for route in ("policy.create", "policy.read", "policy.update",
                      "policy.delete", "policy.list", "app.attest",
                      "tag.get", "tag.update", "volume_tag.get",
                      "volume_tag.update", "instance.describe",
                      "federation.fetch", "failover.replicate"):
            assert route in names

    def test_duplicate_registration_rejected(self):
        registry = OperationRegistry()
        registry.register(Operation(name="x", handler=lambda ctx: None))
        with pytest.raises(ValueError):
            registry.register(Operation(name="x", handler=lambda ctx: None))

    def test_unknown_auth_requirement_rejected(self):
        registry = OperationRegistry()
        with pytest.raises(ValueError):
            registry.register(Operation(name="x", handler=lambda ctx: None,
                                        auth="password"))

    def test_lookup_tolerates_non_string_routes(self):
        registry = default_registry()
        assert registry.get(None) is None
        assert registry.get(42) is None
        assert registry.get(b"tag.get") is None

    def test_every_operation_is_documented(self):
        for operation in default_registry().operations():
            assert operation.summary, f"{operation.name} has no summary"


class TestErrorCodeAudit:
    """Satellite: every ReproError subclass must map to a typed code."""

    @staticmethod
    def all_repro_error_classes():
        classes, stack = [], [ReproError]
        while stack:
            for sub in stack.pop().__subclasses__():
                if sub not in classes:
                    classes.append(sub)
                    stack.append(sub)
        return classes

    @staticmethod
    def instantiate(exc_cls):
        return exc_cls("boom")

    def test_no_subclass_falls_through_to_internal(self):
        classes = self.all_repro_error_classes()
        assert len(classes) >= 30  # the hierarchy, not a handful
        for exc_cls in classes:
            code = error_code(self.instantiate(exc_cls))
            assert code != "internal", (
                f"{exc_cls.__name__} maps to 'internal' — clients cannot "
                f"distinguish it from a crash")
            assert re.fullmatch(r"[a-z][a-z0-9_]*", code), (
                f"{exc_cls.__name__} -> {code!r} is not snake_case")

    def test_codes_are_derived_or_pinned(self):
        assert error_code(PolicyNotFoundError("x")) == "policy_not_found"
        assert error_code(UnknownRouteError("x")) == "unknown_route"
        assert error_code(BadRequestError("x")) == "bad_request"
        assert error_code(ReproError("x")) == "repro"
        # The pinned code wins over the derived 'service_overloaded'.
        assert error_code(ServiceOverloadedError("x")) == "overloaded"

    def test_foreign_exceptions_are_internal(self):
        assert error_code(ValueError("x")) == "internal"
        assert error_code(KeyError("x")) == "internal"


class TestUniformErrorsAcrossTransports:
    """Same codes over REST, federation and in-process."""

    def test_unknown_route_code_is_transport_independent(self):
        deployment = Deployment()
        for transport in TRANSPORTS:
            reply = reply_over(deployment, {"route": "no.such.op"},
                               transport)
            assert reply["code"] == "unknown_route"
            assert reply["kind"] == "UnknownRouteError"

    def test_non_mapping_request_is_bad_request_everywhere(self):
        deployment = Deployment()
        for transport in TRANSPORTS:
            for junk in (b"\x00\x01", ["route", "tag.get"], None, 17):
                reply = reply_over(deployment, junk, transport)
                assert reply["code"] == "bad_request"
                assert reply["kind"] == "BadRequestError"

    def test_missing_fields_name_every_missing_field(self):
        deployment = Deployment()
        reply = deployment.palaemon.dispatcher.handle(
            {"route": "tag.update"}, transport="rest")
        assert reply["code"] == "bad_request"
        for field in ("policy", "service", "tag"):
            assert field in reply["error"]

    def test_dispatch_process_returns_the_same_reply_as_handle(self):
        deployment = Deployment()
        dispatcher = deployment.palaemon.dispatcher
        for request in ({"route": "no.such.op"}, {"route": "tag.update"},
                        b"garbage"):
            synchronous = dispatcher.handle(request, transport="inprocess")
            queued = deployment.simulator.run_process(
                dispatcher.dispatch(request, transport="inprocess"))
            assert queued == synchronous

    def test_invoker_raises_the_typed_errors(self):
        deployment = Deployment()
        dispatcher = deployment.palaemon.dispatcher

        def invoke(**request):
            return decode_reply(dispatcher.handle(request,
                                                  transport="inprocess"))

        with pytest.raises(UnknownRouteError):
            invoke(route="no.such.op")
        with pytest.raises(BadRequestError):
            invoke(route="tag.update")  # missing fields
        with pytest.raises(CertificateRequiredError):
            invoke(route="policy.read", name="ml_policy")

    def test_peer_operations_unreachable_without_peer_link(self):
        """AUTH_PEER routes refuse REST/in-process callers uniformly."""
        deployment = Deployment()
        dispatcher = deployment.palaemon.dispatcher
        request = {"route": "federation.fetch", "policy": "p",
                   "requesting_policy": "q", "secrets": []}
        for transport in ("rest", "inprocess"):
            reply = dispatcher.handle(request, transport=transport)
            assert reply["code"] == "peer_required"
            assert reply["kind"] == "PeerRequiredError"

    def test_describe_works_while_not_serving_but_reads_do_not(self):
        deployment = Deployment()
        deployment.stop_palaemon()
        dispatcher = deployment.palaemon.dispatcher
        described = dispatcher.handle({"route": "instance.describe"},
                                      transport="rest")
        assert described["ok"]["name"] == deployment.palaemon.name
        refused = dispatcher.handle({"route": "policy.list"},
                                    transport="rest")
        assert "not serving" in refused["error"]

    def test_error_replies_count_dispatch_error_metrics(self):
        deployment = Deployment()
        reply_over(deployment, {"route": "nope"}, "federation")
        reply_over(deployment, b"junk", "inprocess")
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter(
            "palaemon_dispatch_errors_total", route="unknown",
            transport="federation", code="unknown_route").value == 1
        assert metrics.counter(
            "palaemon_dispatch_errors_total", route="unknown",
            transport="inprocess", code="bad_request").value == 1


def sealed_exchange(deployment, local, remote, request):
    """Send one request over the peer link; return the raw reply."""
    connection = local._links[remote.name]

    def exchange():
        reply = yield from connection.request(request)
        return reply

    return deployment.simulator.run_process(exchange())


class TestFederationTransportErrors:
    """Satellite: the sealed peer fabric speaks the same error codes."""

    def test_bogus_kind_gets_typed_unknown_route_reply(self):
        deployment = Deployment()
        local, remote, _ = make_networked_pair(deployment)
        reply = sealed_exchange(deployment, local, remote,
                                {"route": "federation.bogus"})
        assert reply["kind"] == "UnknownRouteError"
        assert reply["code"] == "unknown_route"

    def test_missing_fields_get_bad_request_reply(self):
        deployment = Deployment()
        local, remote, _ = make_networked_pair(deployment)
        reply = sealed_exchange(deployment, local, remote,
                                {"route": "federation.fetch"})
        assert reply["code"] == "bad_request"
        for field in ("policy", "requesting_policy", "secrets"):
            assert field in reply["error"]

    def test_serve_loop_survives_garbage_then_serves(self):
        """Byzantine senders cannot crash the loop: after a barrage of
        malformed traffic, a legitimate fetch still succeeds."""
        deployment = Deployment()
        local, remote, remote_service = make_networked_pair(deployment)
        from repro.core.policy import SecurityPolicy, ServiceSpec
        from repro.core.secrets import SecretKind, SecretSpec

        producer = SecurityPolicy(
            name="producer_policy",
            services=[ServiceSpec(name="svc", image_name="img",
                                  mrenclaves=[deployment.app_image
                                              .mrenclave()])],
            secrets=[SecretSpec(name="SHARED_KEY", kind=SecretKind.RANDOM,
                                export_to=("consumer_policy",))])
        remote_service.create_policy(producer, deployment.client.certificate)
        connection = local._links[remote.name]
        session_id = connection.session.session_id
        sender, server = connection.client_endpoint, connection.server_endpoint

        def barrage():
            # Not a dict at all.
            sender.send(server, b"noise", size_bytes=64)
            # A dict without the sealed payload.
            sender.send(server, {"session": session_id}, size_bytes=64)
            # A session the remote never registered.
            sender.send(server, {"session": b"stranger" * 2,
                                 "data": b"x" * 40}, size_bytes=64)
            # An unhashable session id.
            sender.send(server, {"session": [1], "data": b"x" * 40},
                        size_bytes=64)
            # AEAD garbage under the attested session.
            sender.send(server, {"session": session_id, "data": b"x" * 40},
                        size_bytes=64)
            # Sealed, authentic, but not a request record.
            sender.send(server,
                        {"session": session_id,
                         "data": connection.client_channel.seal([1, 2, 3])},
                        size_bytes=64)
            yield deployment.simulator.timeout(0.1)
            secrets = yield from local.fetch_remote_secrets(
                remote.name, "producer_policy", "consumer_policy",
                ["SHARED_KEY"])
            return secrets

        secrets = deployment.simulator.run_process(barrage())
        assert set(secrets) == {"SHARED_KEY"}

    def test_fetch_reraises_the_peer_verdict(self):
        """The client re-raises the same typed error the peer decided."""
        deployment = Deployment()
        local, remote, _ = make_networked_pair(deployment)

        def fetch():
            result = yield from local.fetch_remote_secrets(
                remote.name, "ghost_policy", "consumer_policy", ["K"])
            return result

        with pytest.raises(PolicyNotFoundError):
            deployment.simulator.run_process(fetch())


class TestAdmissionControl:
    def tight_admission(self, deployment, **overrides):
        limits = dict(max_concurrency=1, max_queue=1, queue_deadline=5.0)
        limits.update(overrides)
        admission = AdmissionControl(
            deployment.simulator, deployment.palaemon.telemetry,
            limits=RouteLimits(**limits))
        deployment.palaemon.dispatcher.admission = admission
        return admission

    def seeded_deployment(self):
        deployment = Deployment()
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        return deployment

    def burst(self, deployment, count):
        """Fire ``count`` concurrent timed tag.update dispatches."""
        simulator = deployment.simulator
        dispatcher = deployment.palaemon.dispatcher
        replies = []

        def one(index):
            reply = yield simulator.process(dispatcher.dispatch(
                {"route": "tag.update", "policy": "ml_policy",
                 "service": "ml_app", "tag": sha256(b"t%d" % index)}),
                name=f"burst-{index}")
            replies.append(reply)

        def main():
            yield simulator.all_of([
                simulator.process(one(index)) for index in range(count)])

        simulator.run_process(main())
        return replies

    def test_excess_load_is_shed_with_overloaded_while_admitted_succeed(self):
        deployment = self.seeded_deployment()
        self.tight_admission(deployment)
        replies = self.burst(deployment, 4)
        admitted = [r for r in replies if "ok" in r]
        shed = [r for r in replies if "error" in r]
        # cap 1 + queue 1: two run (one immediately, one queued), two shed.
        assert len(admitted) == 2
        assert len(shed) == 2
        assert all(r["code"] == "overloaded" for r in shed)
        assert all(r["kind"] == "ServiceOverloadedError" for r in shed)
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_admission_shed_total",
                               route="tag.update",
                               reason="queue_full").value == 2

    def test_queue_deadline_sheds_the_waiter(self):
        deployment = self.seeded_deployment()
        # The group-commit write path takes ~ms; a microsecond deadline
        # guarantees the queued request times out rather than running.
        self.tight_admission(deployment, queue_deadline=1e-6)
        replies = self.burst(deployment, 2)
        admitted = [r for r in replies if "ok" in r]
        shed = [r for r in replies if "error" in r]
        assert len(admitted) == 1
        assert len(shed) == 1
        assert shed[0]["code"] == "overloaded"
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_admission_shed_total",
                               route="tag.update",
                               reason="deadline").value == 1

    def test_sync_transports_shed_at_capacity_without_queueing(self):
        deployment = Deployment()
        admission = AdmissionControl(
            deployment.simulator, deployment.palaemon.telemetry,
            limits=RouteLimits(max_concurrency=1))
        admission.admit_instant("r")
        with pytest.raises(ServiceOverloadedError):
            admission.admit_instant("r")
        admission.release("r")
        admission.admit_instant("r")  # the freed slot is reusable
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_admission_shed_total", route="r",
                               reason="at_capacity").value == 1

    def test_released_slots_hand_off_fifo(self):
        deployment = Deployment()
        simulator = deployment.simulator
        admission = AdmissionControl(
            simulator, deployment.palaemon.telemetry,
            limits=RouteLimits(max_concurrency=1, max_queue=4,
                               queue_deadline=5.0))
        admission.admit_instant("r")
        order = []
        metrics = deployment.palaemon.telemetry.metrics

        def queue_depth():
            return metrics.gauge("palaemon_admission_queue_depth",
                                 route="r").value

        def waiter(index):
            yield from admission.admit("r")
            order.append(index)

        def main():
            first = simulator.process(waiter(1))
            yield simulator.timeout(0.001)
            second = simulator.process(waiter(2))
            yield simulator.timeout(0.001)
            assert queue_depth() == 2
            admission.release("r")
            yield simulator.timeout(0.001)
            assert order == [1]
            admission.release("r")
            yield simulator.all_of([first, second])

        simulator.run_process(main())
        assert order == [1, 2]
        # One holder remains (waiter 2 was handed the slot and never
        # released); in_flight must reflect exactly that.
        assert metrics.gauge("palaemon_admission_inflight",
                             route="r").value == 1
        assert queue_depth() == 0

    def test_overload_on_the_wire_uses_the_pinned_code(self):
        """A shed request surfaces to REST callers as code 'overloaded'."""
        deployment = self.seeded_deployment()
        admission = self.tight_admission(deployment)
        admission.admit_instant("tag.get")
        reply = deployment.palaemon.dispatcher.handle(
            {"route": "tag.get", "policy": "ml_policy",
             "service": "ml_app"}, transport="rest")
        assert reply["code"] == "overloaded"
        assert reply["kind"] == "ServiceOverloadedError"


class TestInProcessInvoker:
    def test_client_policy_crud_rides_the_dispatcher(self):
        deployment = Deployment()
        policy = deployment.make_policy()
        deployment.client.create_policy(deployment.palaemon, policy)
        read_back = deployment.client.read_policy(deployment.palaemon,
                                                  policy.name)
        assert read_back.name == policy.name
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_dispatch_requests_total",
                               route="policy.create",
                               transport="inprocess").value == 1
        assert metrics.counter("palaemon_dispatch_requests_total",
                               route="policy.read",
                               transport="inprocess").value == 1

    def test_invoker_raises_typed_domain_errors(self):
        deployment = Deployment()
        with pytest.raises(PolicyNotFoundError):
            deployment.client.read_policy(deployment.palaemon, "ghost")
        metrics = deployment.palaemon.telemetry.metrics
        assert metrics.counter("palaemon_dispatch_errors_total",
                               route="policy.read", transport="inprocess",
                               code="policy_not_found").value == 1

    def test_unattested_client_is_refused_before_dispatch(self):
        deployment = Deployment()
        stranger = PalaemonClient("stranger",
                                  DeterministicRandom(b"stranger"))
        with pytest.raises(AttestationError):
            stranger.read_policy(deployment.palaemon, "anything")

    def test_generic_invoke_reaches_any_registered_route(self):
        deployment = Deployment()
        names = deployment.client.invoke(deployment.palaemon, "policy.list")
        assert names == []
        described = deployment.client.invoke(deployment.palaemon,
                                             "instance.describe")
        assert described["name"] == deployment.palaemon.name


class TestOperationTableRendering:
    def test_table_has_one_row_per_operation(self):
        from repro.core.dispatch import render_operation_table

        table = render_operation_table()
        lines = table.splitlines()
        registry = default_registry()
        operations = registry.operations()
        assert len(lines) == 2 + len(operations)
        for operation in operations:
            assert f"| `{operation.name}` |" in table

    def test_peer_routes_marked_with_peer_auth(self):
        from repro.core.dispatch import render_operation_table

        registry = default_registry()
        for name in ("federation.fetch", "failover.replicate"):
            assert registry.get(name).auth == AUTH_PEER
        assert "| peer |" in render_operation_table()
