"""Policy boards: quorum approval over every policy access (§III-C).

Every CRUD access to a board-governed policy becomes an
:class:`AccessRequest` that PALAEMON sends to each member's *approval
service* over TLS. Members return signed :class:`Verdict`\\ s; PALAEMON
verifies each signature against the member certificate embedded in the
policy, then applies the decision rule:

- any **veto** member rejecting kills the request outright;
- otherwise the request passes iff at least ``threshold`` (= f+1) members
  approve.

Forged verdicts (bad signatures) count as no vote at all, so a Byzantine
network cannot manufacture approvals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, List, Optional

from repro import calibration
from repro.core.policy import BoardSpec, PolicyBoardMember
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import sha256
from repro.crypto.signatures import KeyPair, verify_signature
from repro.errors import ApprovalDeniedError, SignatureError, VetoError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between
from repro.sim.resources import Resource
from repro.tls.handshake import handshake_latency


@dataclass(frozen=True)
class AccessRequest:
    """A policy access awaiting board approval."""

    policy_name: str
    operation: str  # "create" | "read" | "update" | "delete"
    requester_fingerprint: bytes
    #: Digest of the proposed change (update/create) for members to inspect.
    change_digest: bytes = b""
    nonce: bytes = b""

    def to_bytes(self) -> bytes:
        return (b"access-request-v1" + self.policy_name.encode() + b"|"
                + self.operation.encode() + b"|"
                + self.requester_fingerprint + self.change_digest + self.nonce)


@dataclass(frozen=True)
class Verdict:
    """One member's signed decision on an access request."""

    member_name: str
    request_digest: bytes
    approve: bool
    signature: bytes

    def signed_payload(self) -> bytes:
        return (b"verdict-v1" + self.member_name.encode() + b"|"
                + self.request_digest + (b"\x01" if self.approve else b"\x00"))

    def verify(self, certificate: Certificate) -> None:
        """Check the verdict was signed by the member's certified key."""
        if not verify_signature(certificate.public_key, self.signed_payload(),
                                self.signature):
            raise SignatureError(
                f"verdict from {self.member_name!r} has a bad signature")


#: A member's decision logic: inspects a request, returns approve/reject.
DecisionRule = Callable[[AccessRequest], bool]


def approve_everything(_request: AccessRequest) -> bool:
    """The default cooperative decision rule."""
    return True


class ApprovalService:
    """A board member's approval service.

    Usually runs inside a TEE (§III-C); the service time difference between
    TEE and native variants is the subject of Fig 13 (left). The decision
    rule models what the member checks — source-review outcomes, two-factor
    prompts, or organisational validation are all just predicates here.
    """

    def __init__(self, simulator: Simulator, member_name: str,
                 keys: KeyPair, site: Site = Site.SAME_RACK,
                 decision_rule: DecisionRule = approve_everything,
                 in_tee: bool = True, use_tls: bool = True) -> None:
        self.simulator = simulator
        self.member_name = member_name
        self._keys = keys
        self.site = site
        self.decision_rule = decision_rule
        self.in_tee = in_tee
        self.use_tls = use_tls
        self.requests_decided = 0
        #: Members may go offline; requests to them simply never answer.
        self.online = True
        #: Decisions are made one at a time (the knee of Fig 13, left).
        self.worker = Resource(simulator, capacity=1,
                               name=f"approval-{member_name}")

    @property
    def service_seconds(self) -> float:
        base = (calibration.APPROVAL_TEE_TLS_SERVICE_SECONDS if self.in_tee
                else calibration.APPROVAL_NATIVE_SERVICE_SECONDS)
        if not self.use_tls:
            base = max(0.0, base - calibration.APPROVAL_TLS_EXTRA_SECONDS)
        return base

    def decide_local(self, request: AccessRequest) -> Verdict:
        """Decide without simulating time (functional tests)."""
        approve = bool(self.decision_rule(request))
        self.requests_decided += 1
        verdict = Verdict(member_name=self.member_name,
                          request_digest=sha256(request.to_bytes()),
                          approve=approve, signature=b"")
        return replace(verdict,
                       signature=self._keys.sign(verdict.signed_payload()))

    def decide(self, request: AccessRequest, caller_site: Site,
               ) -> Generator[Event, Any, Optional[Verdict]]:
        """Decide with network + service latency; ``None`` if offline.

        After the network, the request queues for the service's single
        worker, which holds it for :attr:`service_seconds`.
        """
        if not self.online:
            return None
        round_trip = rtt_between(caller_site, self.site)
        if self.use_tls:
            round_trip += handshake_latency(caller_site, self.site)
        yield self.simulator.timeout(round_trip)
        yield from self.worker.hold(self.service_seconds)
        return self.decide_local(request)


class TwoFactorApprovalService(ApprovalService):
    """An approval service for a *person* board member (§III-C).

    "In case the associated board member is a person, they should perform
    a two-factor authentication" — here: the member's signing key (factor
    one) plus a fresh time-windowed code derived from an enrolled device
    secret (factor two, TOTP-shaped). Without a currently valid code the
    service abstains: it neither approves nor rejects, so a stolen signing
    key alone cannot vote.
    """

    #: Validity window of one second-factor code (seconds).
    CODE_WINDOW_SECONDS = 30.0

    def __init__(self, simulator: Simulator, member_name: str,
                 keys: KeyPair, device_secret: bytes,
                 site: Site = Site.SAME_RACK,
                 decision_rule: DecisionRule = approve_everything) -> None:
        super().__init__(simulator, member_name, keys, site=site,
                         decision_rule=decision_rule, in_tee=True,
                         use_tls=True)
        self._device_secret = device_secret
        self._presented_code: Optional[bytes] = None

    def expected_code(self, now: float) -> bytes:
        """The device's code for the current time window."""
        window = int(now / self.CODE_WINDOW_SECONDS)
        return sha256(self._device_secret,
                      window.to_bytes(8, "big"))[:6]

    def present_code(self, code: bytes) -> None:
        """The person types the code from their device."""
        self._presented_code = code

    def decide_local(self, request: AccessRequest) -> Optional[Verdict]:
        code = self._presented_code
        self._presented_code = None  # single use
        if code != self.expected_code(self.simulator.now):
            return None  # abstain: second factor missing or stale
        return super().decide_local(request)


@dataclass
class ApprovalOutcome:
    """The aggregated result of a board round."""

    approvals: List[Verdict] = field(default_factory=list)
    rejections: List[Verdict] = field(default_factory=list)
    invalid: List[Verdict] = field(default_factory=list)
    unreachable: List[str] = field(default_factory=list)


class BoardEvaluator:
    """Collects member verdicts and applies the quorum/veto rule.

    Every vote cast in a round is counted into the evaluator's telemetry
    (``palaemon_board_votes_total`` by verdict class); a
    :class:`~repro.core.service.PalaemonService` sharing its telemetry with
    its evaluator therefore observes the full quorum traffic.
    """

    def __init__(self, simulator: Simulator,
                 services: Dict[str, ApprovalService],
                 telemetry: Optional[Telemetry] = None) -> None:
        self.simulator = simulator
        self._services = services
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def evaluate_local(self, board: BoardSpec,
                       request: AccessRequest) -> ApprovalOutcome:
        """Run a board round without simulating time."""
        outcome = ApprovalOutcome()
        for member in board.members:
            service = self._services.get(member.approval_endpoint)
            if service is None or not service.online:
                outcome.unreachable.append(member.name)
                continue
            verdict = service.decide_local(request)
            if verdict is None:
                # Abstention (e.g. a person's second factor is missing).
                outcome.unreachable.append(member.name)
                continue
            self._classify(member, verdict, outcome)
        self._record_round(outcome)
        return outcome

    def evaluate(self, board: BoardSpec, request: AccessRequest,
                 caller_site: Site = Site.SAME_RACK,
                 ) -> Generator[Event, Any, ApprovalOutcome]:
        """Run a board round with member queries in parallel over TLS."""
        outcome = ApprovalOutcome()
        waits = []
        members = []
        for member in board.members:
            service = self._services.get(member.approval_endpoint)
            if service is None:
                outcome.unreachable.append(member.name)
                continue
            members.append(member)
            waits.append(self.simulator.process(
                service.decide(request, caller_site),
                name=f"approval-{member.name}"))
        with self.telemetry.span("board.evaluate",
                                 policy=request.policy_name,
                                 operation=request.operation):
            started = self.simulator.now
            verdicts = yield self.simulator.all_of(waits)
            self.telemetry.observe("palaemon_board_round_seconds",
                                   self.simulator.now - started)
        for member, verdict in zip(members, verdicts):
            if verdict is None:
                outcome.unreachable.append(member.name)
            else:
                self._classify(member, verdict, outcome)
        self._record_round(outcome)
        return outcome

    def _record_round(self, outcome: ApprovalOutcome) -> None:
        """Count the round's votes by verdict class."""
        for vote, entries in (("approve", outcome.approvals),
                              ("reject", outcome.rejections),
                              ("invalid", outcome.invalid),
                              ("unreachable", outcome.unreachable)):
            if entries:
                self.telemetry.inc("palaemon_board_votes_total",
                                   amount=len(entries), vote=vote)

    @staticmethod
    def _classify(member: PolicyBoardMember, verdict: Verdict,
                  outcome: ApprovalOutcome) -> None:
        try:
            verdict.verify(member.certificate)
        except SignatureError:
            outcome.invalid.append(verdict)
            return
        if verdict.approve:
            outcome.approvals.append(verdict)
        else:
            outcome.rejections.append(verdict)

    @staticmethod
    def enforce(board: BoardSpec, request: AccessRequest,
                outcome: ApprovalOutcome) -> None:
        """Apply the veto + threshold rule; raises on denial."""
        rejecting_names = {verdict.member_name
                           for verdict in outcome.rejections}
        for member in board.members:
            if member.veto and member.name in rejecting_names:
                raise VetoError(
                    f"board member {member.name!r} vetoed "
                    f"{request.operation} on policy {request.policy_name!r}")
        if len(outcome.approvals) < board.threshold:
            raise ApprovalDeniedError(
                f"{request.operation} on policy {request.policy_name!r} got "
                f"{len(outcome.approvals)} approvals, "
                f"needs {board.threshold}")
