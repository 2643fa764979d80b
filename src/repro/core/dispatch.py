"""One operation-dispatch layer for every path into a PALAEMON instance.

The CIF guarantees (§IV-B) must hold identically however a request
arrives. Three transports reach a :class:`~repro.core.service.
PalaemonService` — the REST/TLS front-end, the federation peer link
(which carries both secret fetches and fail-over replication), and the
in-process :class:`~repro.core.client.PalaemonClient` — and each used to
re-implement certificate extraction, serving checks, error mapping, and
telemetry by hand. This module replaces those hand-rolled paths with:

- an :class:`OperationRegistry` — every operation is declared **once**
  with its route name, required request fields, auth requirement
  (client certificate / attested peer / none), handler, and audit
  metadata. The registry is the single source of truth for the route
  table in ``docs/API.md`` (:func:`render_operation_table`).
- a :class:`Dispatcher` running one middleware pipeline for every
  transport: route resolution → required-field check → serving check →
  auth → **admission control** → telemetry span/metrics → handler →
  uniform error mapping. Transports become thin codecs.
- :class:`AdmissionControl` — per-route concurrency caps with a bounded
  FIFO queue on the simulator clock. Requests beyond the queue (or whose
  queue wait exceeds the deadline) are shed with a typed
  :class:`~repro.errors.ServiceOverloadedError` (wire code
  ``overloaded``) instead of piling up — the load-shedding boundary a
  service under heavy traffic needs.

Entry points, one per transport style:

- :meth:`Dispatcher.handle` — synchronous request → structured reply
  dict (``{"ok": ...}`` or ``{"error", "kind", "code"}``); never raises.
  Used by the REST TLS server and the in-process :class:`PalaemonClient`,
  neither of which has an attested peer.
- :meth:`Dispatcher.dispatch` — the same pipeline as a simulation
  process: admission may *queue* (virtual time passes) and operations
  with a timed handler pay their modelled latency. Used by the federation
  TLS server and the load benchmark (``python -m repro bench dispatch``).

Every caller turns a reply back into a value with :func:`decode_reply`,
which re-raises an error reply as its typed :mod:`repro.errors` class —
so a refusal raises the same exception over every transport.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

import repro.errors
from repro.errors import (
    BadRequestError,
    CertificateRequiredError,
    DeadlineExceededError,
    PeerRequiredError,
    ReproError,
    ServiceOverloadedError,
    UnknownRouteError,
)
from repro.sim.core import Event

#: Auth requirements an operation may declare.
AUTH_NONE = "none"
AUTH_CLIENT_CERTIFICATE = "client_certificate"
AUTH_PEER = "peer"

#: Markers bracketing the generated route table in ``docs/API.md``.
TABLE_BEGIN = "<!-- operation-table:begin (generated) -->"
TABLE_END = "<!-- operation-table:end -->"


def error_code(exc: BaseException) -> str:
    """Map an exception to a stable snake_case wire code.

    A class may pin its code with a ``code`` attribute
    (:class:`ServiceOverloadedError` -> ``overloaded``); otherwise the
    code is derived from the class name (``PolicyNotFoundError`` ->
    ``policy_not_found``). Anything that is not a
    :class:`~repro.errors.ReproError` is ``internal``.
    """
    if not isinstance(exc, ReproError):
        return "internal"
    pinned = getattr(type(exc), "code", None)
    if isinstance(pinned, str):
        return pinned
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[:-len("Error")]
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


#: Reply ``kind`` -> exception class. Only :class:`ReproError` subclasses
#: defined in :mod:`repro.errors` resolve; any other kind decodes as
#: :class:`ReproError`.
_ERROR_CLASSES = {
    name: value for name, value in vars(repro.errors).items()
    if isinstance(value, type) and issubclass(value, ReproError)}


def decode_reply(reply: Any) -> Any:
    """The value of a structured reply, or its error re-raised as the
    typed :mod:`repro.errors` class the server decided.

    A reply that is neither shape (a Byzantine peer's) raises
    :class:`ReproError`.
    """
    if isinstance(reply, dict) and "ok" in reply and "error" not in reply:
        return reply["ok"]
    reply = reply if isinstance(reply, dict) else {}
    kind = reply.get("kind")
    error_class = _ERROR_CLASSES.get(kind if isinstance(kind, str) else "",
                                     ReproError)
    raise error_class(str(reply.get("error", "malformed reply")))


@dataclass
class DispatchContext:
    """Everything a handler may consult, resolved by the pipeline."""

    service: Any  #: the PalaemonService
    request: Dict[str, Any]
    certificate: Any = None  #: authenticated client certificate, if any
    peer: Optional[str] = None  #: attested peer name (federation)


@dataclass
class Operation:
    """One declared service operation (a row of the registry)."""

    name: str
    handler: Callable[[DispatchContext], Any]
    required_fields: Tuple[str, ...] = ()
    auth: str = AUTH_NONE
    serving_required: bool = True
    #: Audit record kinds the handler emits (documentation metadata).
    audit: Tuple[str, ...] = ()
    summary: str = ""
    #: Optional timed variant: a generator paying modelled latency.
    #: :meth:`Dispatcher.dispatch` prefers it, and runs a generator
    #: ``handler`` as one too; ``handle`` calls ``handler`` (instantly).
    process_handler: Optional[
        Callable[[DispatchContext], Generator[Event, Any, Any]]] = None


class OperationRegistry:
    """Declarative route table: name -> :class:`Operation`."""

    def __init__(self) -> None:
        self._operations: Dict[str, Operation] = {}

    def register(self, operation: Operation) -> Operation:
        if operation.name in self._operations:
            raise ValueError(
                f"operation {operation.name!r} is already registered")
        if operation.auth not in (AUTH_NONE, AUTH_CLIENT_CERTIFICATE,
                                  AUTH_PEER):
            raise ValueError(f"unknown auth requirement {operation.auth!r}")
        self._operations[operation.name] = operation
        return operation

    def operation(self, name: str, *, fields: Tuple[str, ...] = (),
                  auth: str = AUTH_NONE, serving_required: bool = True,
                  audit: Tuple[str, ...] = (),
                  summary: str = "") -> Callable:
        """Decorator form of :meth:`register`."""

        def decorate(handler: Callable[[DispatchContext], Any]) -> Callable:
            self.register(Operation(
                name=name, handler=handler, required_fields=tuple(fields),
                auth=auth, serving_required=serving_required,
                audit=tuple(audit), summary=summary))
            return handler

        return decorate

    def attach_process_handler(self, name: str, handler: Callable) -> None:
        """Give a registered operation a timed (generator) variant."""
        self._operations[name].process_handler = handler

    def get(self, name: Any) -> Optional[Operation]:
        if not isinstance(name, str):
            return None
        return self._operations.get(name)

    def operations(self) -> List[Operation]:
        """Every registered operation, sorted by name."""
        return [self._operations[name] for name in sorted(self._operations)]


#: The registry every transport consults. Service operations are
#: registered below; federation and failover register their operations
#: when their modules import (see :func:`default_registry`).
DEFAULT_REGISTRY = OperationRegistry()


def default_registry() -> OperationRegistry:
    """The fully-populated default registry.

    Imports the federation and failover modules for their registration
    side effects (lazily, to avoid import cycles with
    ``repro.core.service``).
    """
    import repro.core.failover  # noqa: F401 - registers failover.replicate
    import repro.core.federation  # noqa: F401 - registers federation.fetch

    return DEFAULT_REGISTRY


# -- service operations (the former REST ``_route_*`` methods) -------------

_op = DEFAULT_REGISTRY.operation


@_op("policy.create", fields=("policy",), auth=AUTH_CLIENT_CERTIFICATE,
     audit=("policy.create", "board.round"),
     summary="create a policy (board-governed)")
def _policy_create(ctx: DispatchContext) -> Any:
    ctx.service.create_policy(ctx.request["policy"], ctx.certificate)
    return {"created": ctx.request["policy"].name}


@_op("policy.read", fields=("name",), auth=AUTH_CLIENT_CERTIFICATE,
     audit=("policy.read",), summary="read a policy document")
def _policy_read(ctx: DispatchContext) -> Any:
    return ctx.service.read_policy(ctx.request["name"], ctx.certificate)


@_op("policy.update", fields=("policy",), auth=AUTH_CLIENT_CERTIFICATE,
     audit=("policy.update", "board.round"),
     summary="update a policy (board-governed)")
def _policy_update(ctx: DispatchContext) -> Any:
    ctx.service.update_policy(ctx.request["policy"], ctx.certificate)
    return {"updated": ctx.request["policy"].name}


@_op("policy.delete", fields=("name",), auth=AUTH_CLIENT_CERTIFICATE,
     audit=("policy.delete", "board.round"),
     summary="delete a policy (board-governed)")
def _policy_delete(ctx: DispatchContext) -> Any:
    ctx.service.delete_policy(ctx.request["name"], ctx.certificate)
    return {"deleted": ctx.request["name"]}


@_op("policy.list", summary="list policy names")
def _policy_list(ctx: DispatchContext) -> Any:
    return ctx.service.list_policies()


@_op("app.attest", fields=("evidence",),
     audit=("attest.accept", "attest.deny", "secret.access"),
     summary="attest an application; returns its AppConfig")
def _app_attest(ctx: DispatchContext) -> Any:
    return ctx.service.attest_application(ctx.request["evidence"])


@_op("tag.get", fields=("policy", "service"),
     summary="read a service's expected file-system tag")
def _tag_get(ctx: DispatchContext) -> Any:
    return ctx.service.get_tag_instant(ctx.request["policy"],
                                       ctx.request["service"])


@_op("tag.update", fields=("policy", "service", "tag"),
     audit=("tag.update",),
     summary="record a new expected file-system tag")
def _tag_update(ctx: DispatchContext) -> Any:
    ctx.service.update_tag_instant(
        ctx.request["policy"], ctx.request["service"], ctx.request["tag"],
        clean_exit=ctx.request.get("clean_exit", False))
    return {"stored": True}


@_op("volume_tag.get", fields=("policy", "volume"),
     summary="read an encrypted volume's expected tag")
def _volume_tag_get(ctx: DispatchContext) -> Any:
    return ctx.service.get_volume_tag(ctx.request["policy"],
                                      ctx.request["volume"])


@_op("volume_tag.update", fields=("policy", "volume", "tag"),
     audit=("volume_tag.update",),
     summary="record a new expected volume tag")
def _volume_tag_update(ctx: DispatchContext) -> Any:
    ctx.service.update_volume_tag(ctx.request["policy"],
                                  ctx.request["volume"], ctx.request["tag"])
    return {"stored": True}


@_op("instance.describe", serving_required=False,
     summary="instance identity: name, MRENCLAVE, public key, certificate")
def _instance_describe(ctx: DispatchContext) -> Any:
    return {
        "name": ctx.service.name,
        "mrenclave": ctx.service.mrenclave,
        "public_key": ctx.service.public_key,
        "certificate": ctx.service.certificate,
    }


def _tag_update_process(ctx: DispatchContext,
                        ) -> Generator[Event, Any, Any]:
    """Timed tag.update: pays the real DB group-commit latency."""
    yield from ctx.service.update_tag(
        ctx.request["policy"], ctx.request["service"], ctx.request["tag"],
        clean_exit=ctx.request.get("clean_exit", False))
    return {"stored": True}


def _tag_get_process(ctx: DispatchContext) -> Generator[Event, Any, Any]:
    """Timed tag.get: pays the calibrated read latency."""
    value = yield from ctx.service.get_tag(ctx.request["policy"],
                                           ctx.request["service"])
    return value


DEFAULT_REGISTRY.attach_process_handler("tag.update", _tag_update_process)
DEFAULT_REGISTRY.attach_process_handler("tag.get", _tag_get_process)


# -- admission control ------------------------------------------------------

@dataclass(frozen=True)
class RouteLimits:
    """Admission limits for one route."""

    max_concurrency: int = 64
    max_queue: int = 128
    queue_deadline: float = 1.0


@dataclass
class _RouteAdmission:
    in_flight: int = 0
    waiters: Deque[Event] = field(default_factory=deque)


class AdmissionControl:
    """Per-route concurrency caps with a bounded, deadline-guarded queue.

    Every route gets its own slots and queue under the same
    :class:`RouteLimits`.

    A request is *admitted* when a slot is free, *queued* (FIFO, virtual
    time) when the route is at its cap, and *shed* with
    :class:`~repro.errors.ServiceOverloadedError` when the queue is full
    (``reason="queue_full"``), when its queue wait exceeds the deadline
    (``reason="deadline"``), or — on the synchronous, zero-wait entry
    points where queueing is impossible — as soon as the cap is hit
    (``reason="at_capacity"``). Slot hand-off is FIFO: ``release``
    passes the freed slot to the oldest waiter.
    """

    def __init__(self, simulator, telemetry,
                 limits: Optional[RouteLimits] = None) -> None:
        self.simulator = simulator
        self.telemetry = telemetry
        self.limits = limits or RouteLimits()
        self._routes: Dict[str, _RouteAdmission] = {}

    def _state(self, route: str) -> _RouteAdmission:
        return self._routes.setdefault(route, _RouteAdmission())

    def admit_instant(self, route: str) -> None:
        """Admit or shed immediately (synchronous transports never queue)."""
        limits = self.limits
        state = self._state(route)
        if state.in_flight >= limits.max_concurrency:
            self._shed(route, "at_capacity")
            raise ServiceOverloadedError(
                f"route {route!r} is at its concurrency cap "
                f"({limits.max_concurrency} in flight)")
        self._enter(route, state, waited=0.0)

    def admit(self, route: str) -> Generator[Event, Any, None]:
        """Admit, queue (bounded, deadline-guarded), or shed."""
        limits = self.limits
        state = self._state(route)
        if state.in_flight < limits.max_concurrency:
            self._enter(route, state, waited=0.0)
            return
        if len(state.waiters) >= limits.max_queue:
            self._shed(route, "queue_full")
            raise ServiceOverloadedError(
                f"route {route!r} admission queue is full "
                f"({limits.max_queue} waiting)")
        grant = self.simulator.event()
        state.waiters.append(grant)
        self.telemetry.gauge("palaemon_admission_queue_depth",
                             len(state.waiters), route=route)
        started = self.simulator.now
        try:
            yield self.simulator.with_timeout(grant, limits.queue_deadline)
        except DeadlineExceededError:
            if grant in state.waiters:
                state.waiters.remove(grant)
            elif grant.triggered:
                # The slot was handed to us at the same instant the
                # deadline fired; pass it straight on so it is not lost.
                self.release(route)
            self.telemetry.gauge("palaemon_admission_queue_depth",
                                 len(state.waiters), route=route)
            self._shed(route, "deadline")
            raise ServiceOverloadedError(
                f"route {route!r} queue wait exceeded "
                f"{limits.queue_deadline}s") from None
        self.telemetry.gauge("palaemon_admission_queue_depth",
                             len(state.waiters), route=route)
        # release() hands the slot over with in_flight already counted.
        self.telemetry.inc("palaemon_admission_admitted_total", route=route)
        self.telemetry.observe("palaemon_admission_wait_seconds",
                               self.simulator.now - started, route=route)

    def release(self, route: str) -> None:
        """Free a slot; FIFO hand-off to the oldest waiter if any."""
        state = self._state(route)
        if state.waiters:
            state.waiters.popleft().succeed()
            return  # the slot moved, in_flight is unchanged
        state.in_flight -= 1
        self.telemetry.gauge("palaemon_admission_inflight",
                             state.in_flight, route=route)

    def _enter(self, route: str, state: _RouteAdmission,
               waited: float) -> None:
        state.in_flight += 1
        self.telemetry.inc("palaemon_admission_admitted_total", route=route)
        self.telemetry.observe("palaemon_admission_wait_seconds", waited,
                               route=route)
        self.telemetry.gauge("palaemon_admission_inflight",
                             state.in_flight, route=route)

    def _shed(self, route: str, reason: str) -> None:
        self.telemetry.inc("palaemon_admission_shed_total", route=route,
                           reason=reason)


# -- the dispatcher ---------------------------------------------------------

class Dispatcher:
    """Runs the middleware pipeline for one PALAEMON instance."""

    def __init__(self, service) -> None:
        self.service = service
        self.registry = default_registry()
        self.admission = AdmissionControl(service.simulator,
                                          service.telemetry)

    @property
    def telemetry(self):
        return self.service.telemetry

    # -- transport entry points -----------------------------------------

    def handle(self, request: Any, *, transport: str,
               certificate: Any = None) -> Dict[str, Any]:
        """Synchronous request -> structured reply; never raises."""
        operation = None
        try:
            operation = self._resolve(request)
            self._count_request(operation.name, transport)
            value = self._run(operation, request, transport,
                              certificate=certificate)
            return {"ok": value}
        except ReproError as exc:
            return self._error_reply(exc, operation, transport)
        except Exception as exc:  # noqa: BLE001 - serve loops never crash
            return self._crash_reply(exc, operation, transport)

    def dispatch(self, request: Any, *, transport: str = "inprocess",
                 certificate: Any = None, peer: Optional[str] = None,
                 ) -> Generator[Event, Any, Dict[str, Any]]:
        """The pipeline as a simulation process (queueing, timed handlers)."""
        operation = None
        try:
            operation = self._resolve(request)
            self._count_request(operation.name, transport)
            value = yield from self._run_process(
                operation, request, transport, certificate=certificate,
                peer=peer)
            return {"ok": value}
        except ReproError as exc:
            return self._error_reply(exc, operation, transport)
        except Exception as exc:  # noqa: BLE001 - serve loops never crash
            return self._crash_reply(exc, operation, transport)

    # -- the pipeline ----------------------------------------------------

    def _resolve(self, request: Any) -> Operation:
        if not isinstance(request, dict):
            raise BadRequestError(
                f"request must be a mapping, got {type(request).__name__}")
        route = request.get("route")
        operation = self.registry.get(route)
        if operation is None:
            raise UnknownRouteError(f"unknown route {route!r}")
        return operation

    def _admitted(self, operation: Operation, request: Dict[str, Any],
                  certificate: Any, peer: Optional[str]) -> DispatchContext:
        """Middleware prefix shared by both execution paths: serving
        check -> required fields -> auth. Admission follows (it differs
        between the instant and queued paths)."""
        if operation.serving_required:
            self.service._check_serving()
        missing = [name for name in operation.required_fields
                   if name not in request]
        if missing:
            raise BadRequestError(
                f"route {operation.name!r} missing required field(s): "
                f"{', '.join(missing)}")
        context = DispatchContext(service=self.service, request=request,
                                  certificate=certificate, peer=peer)
        if (operation.auth == AUTH_CLIENT_CERTIFICATE
                and context.certificate is None):
            raise CertificateRequiredError(
                "request carries no client certificate")
        if operation.auth == AUTH_PEER and context.peer is None:
            raise PeerRequiredError(
                f"route {operation.name!r} is only served over an "
                f"attested peer link")
        return context

    def _run(self, operation: Operation, request: Dict[str, Any],
             transport: str, *, certificate: Any) -> Any:
        context = self._admitted(operation, request, certificate, None)
        started = self.service.simulator.now
        self.admission.admit_instant(operation.name)
        try:
            with self.telemetry.span("dispatch." + operation.name,
                                     transport=transport):
                value = operation.handler(context)
        finally:
            self.admission.release(operation.name)
        self.telemetry.observe("palaemon_dispatch_route_seconds",
                               self.service.simulator.now - started,
                               route=operation.name, transport=transport)
        return value

    def _run_process(self, operation: Operation, request: Dict[str, Any],
                     transport: str, *, certificate: Any,
                     peer: Optional[str],
                     ) -> Generator[Event, Any, Any]:
        simulator = self.service.simulator
        context = self._admitted(operation, request, certificate, peer)
        started = simulator.now
        yield from self.admission.admit(operation.name)
        try:
            with self.telemetry.span("dispatch." + operation.name,
                                     transport=transport):
                value = (operation.process_handler
                         or operation.handler)(context)
                if hasattr(value, "__next__"):
                    value = yield simulator.process(
                        value, name=f"dispatch-{operation.name}")
        finally:
            self.admission.release(operation.name)
        self.telemetry.observe("palaemon_dispatch_route_seconds",
                               simulator.now - started,
                               route=operation.name, transport=transport)
        return value

    # -- uniform error mapping -------------------------------------------

    def _count_request(self, route: str, transport: str) -> None:
        self.telemetry.inc("palaemon_dispatch_requests_total", route=route,
                           transport=transport)

    def _count_error(self, route: str, transport: str, code: str) -> None:
        self.telemetry.inc("palaemon_dispatch_errors_total", route=route,
                           transport=transport, code=code)

    def _error_reply(self, exc: ReproError, operation: Optional[Operation],
                     transport: str) -> Dict[str, Any]:
        route = operation.name if operation is not None else "unknown"
        if operation is None:
            self._count_request(route, transport)
        code = error_code(exc)
        self._count_error(route, transport, code)
        return {"error": str(exc), "kind": type(exc).__name__, "code": code}

    def _crash_reply(self, exc: BaseException,
                     operation: Optional[Operation],
                     transport: str) -> Dict[str, Any]:
        route = operation.name if operation is not None else "unknown"
        if operation is None:
            self._count_request(route, transport)
        self._count_error(route, transport, "internal")
        return {"error": f"{type(exc).__name__}: {exc}",
                "kind": "InternalError", "code": "internal"}


# -- documentation ----------------------------------------------------------

def render_operation_table() -> str:
    """The ``docs/API.md`` route table, generated from the registry."""
    lines = [
        "| operation | auth | required fields | serving | transports "
        "| audit records | summary |",
        "|---|---|---|---|---|---|---|",
    ]
    for operation in default_registry().operations():
        # Peer routes ride the federation link; every other route REST and
        # the in-process client.
        transports = ("federation" if operation.auth == AUTH_PEER
                      else "rest, inprocess")
        fields = ", ".join(f"`{name}`" for name in operation.required_fields)
        audit = ", ".join(f"`{kind}`" for kind in operation.audit)
        lines.append(
            f"| `{operation.name}` "
            f"| {operation.auth.replace('_', ' ')} "
            f"| {fields or '—'} "
            f"| {'required' if operation.serving_required else 'not required'} "
            f"| {transports} "
            f"| {audit or '—'} "
            f"| {operation.summary} |")
    return "\n".join(lines)
