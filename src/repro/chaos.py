"""The seeded chaos scenario behind ``python -m repro chaos``.

One deterministic run assembles a small PALAEMON estate — a primary and a
backup instance on separate platforms, a federation link, a REST
front-end, and a third instance waiting to be installed — and then drives
it through every fault class the :class:`~repro.sim.faults.FaultPlan`
can inject:

- **partition-then-heal** — a ``drop_link`` window eats every message on
  the federation link; the secret fetch times out, backs off, and
  recovers;
- **counter outage** — installing a new instance while its platform's
  monotonic-counter service is down fails *loudly* with
  :class:`~repro.errors.CounterUnavailableError` (never by minting a
  fresh counter — that would silently discard rollback protection) and
  succeeds once the outage ends;
- **disk fault** — the primary's database disk refuses commits for a
  window; a tag update retries through it;
- **endpoint blackout** — the REST front-end goes dark; a client
  attests the instance over REST under a retry budget;
- **duplicated replication** — a ``duplicate_link`` window on the
  primary→backup peer link delivers a tag update's batch twice; the
  backup's anti-replay window drops the copy, so it is applied once;
- **replication fault** — the peer link then dies for good; the next tag
  update gives up with positive replication lag, the primary crashes,
  and the backup, enrolled before any fault, is promoted exposing *only*
  acknowledged updates.

Everything probabilistic draws from one seeded
:class:`~repro.crypto.primitives.DeterministicRandom`, all fault windows
are virtual-time, and the summary renders with sorted keys — so the same
seed produces a byte-identical report (``tests/test_chaos_recovery.py``
asserts this).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.core.client import PalaemonClient
from repro.core.failover import REPLICA_ROW, FailoverCoordinator
from repro.core.federation import FederatedInstance
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.rest import PalaemonRestClient, PalaemonRestServer
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.errors import CounterUnavailableError, RetryExhaustedError
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, Site
from repro.sim.retry import RetryPolicy
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform


def _make_instance(simulator: Simulator, ias, name: str, seed: bytes,
                   telemetry: Telemetry) -> PalaemonService:
    rng = DeterministicRandom(seed)
    platform = SGXPlatform(simulator, f"{name}-node", rng.fork(b"platform"))
    ias.register_platform(platform.quoting_enclave.attestation_public_key,
                          platform.microcode.revision)
    service = PalaemonService(platform, BlockStore(f"{name}-volume"),
                              rng.fork(b"service"), name=name,
                              telemetry=telemetry)
    service.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    return service


def run_chaos(seed: int) -> Dict[str, Any]:
    """Run the scenario; returns the recovery summary (a plain dict)."""
    label = b"chaos:%d" % seed
    rng = DeterministicRandom(label)
    simulator = Simulator()
    telemetry = Telemetry.for_simulator(simulator)
    network = Network(simulator, rng.fork(b"net"))
    plan = FaultPlan(simulator, seed=label, telemetry=telemetry)

    from repro.tee.ias import IntelAttestationService

    ias = IntelAttestationService(simulator, Site.IAS_US, rng.fork(b"ias"))
    primary = _make_instance(simulator, ias, "palaemon-1",
                             b"chaos-primary", telemetry)
    backup = _make_instance(simulator, ias, "palaemon-2",
                            b"chaos-backup", telemetry)
    simulator.run_process(primary.start(), name="start-primary")
    simulator.run_process(backup.start(), name="start-backup")

    from repro.core.ca import PalaemonCA

    ca = PalaemonCA(primary.platform, ias, frozenset({primary.mrenclave}),
                    rng.fork(b"ca"))
    primary.obtain_certificate(ca)
    backup.obtain_certificate(ca)

    client = PalaemonClient("chaos-client", rng.fork(b"client"))
    app_image = build_image("chaos-app", seed=b"v1")
    producer = SecurityPolicy(
        name="producer_policy",
        services=[ServiceSpec(name="svc", image_name="chaos-app",
                              mrenclaves=[app_image.mrenclave()])],
        secrets=[SecretSpec(name="SHARED_KEY", kind=SecretKind.RANDOM,
                            export_to=("consumer_policy",))])
    primary.create_policy(producer, client.certificate)
    app_policy = SecurityPolicy(
        name="app_policy",
        services=[ServiceSpec(name="svc", image_name="chaos-app",
                              mrenclaves=[app_image.mrenclave()])],
        secrets=[])
    primary.create_policy(app_policy, client.certificate)

    # The federation peer link (secret fetches and fail-over replication
    # both ride it) and the REST front-end — the recovery surfaces.
    local = FederatedInstance(primary, Site.SAME_RACK, ca.root_public_key,
                              network=network, rng=rng.fork(b"fed-1"))
    remote = FederatedInstance(backup, Site.SAME_RACK, ca.root_public_key,
                               network=network, rng=rng.fork(b"fed-2"))
    simulator.run_process(local.peer_with(remote), name="peering")
    coordinator = FailoverCoordinator(local, remote,
                                      rng=rng.fork(b"repl-retry"))
    simulator.run()  # the enrolment batch, acked before any fault
    rest_server = PalaemonRestServer(primary, network)

    # The fault schedule (all windows in virtual seconds).
    plan.drop_link("fed-palaemon-1-to-palaemon-2", "fed-palaemon-2",
                   start=0.0, end=2.5)
    plan.fail_disk("palaemon-db-disk", start=15.0, end=20.7)
    plan.blackout_endpoint("palaemon-1-rest", start=25.0, end=30.8)
    plan.duplicate_link("fed-palaemon-1-to-palaemon-2", "fed-palaemon-2",
                        probability=1.0, start=40.0, end=40.5)
    plan.drop_link("fed-palaemon-1-to-palaemon-2", "fed-palaemon-2",
                   start=40.5)

    platform3 = SGXPlatform(simulator, "palaemon-3-node",
                            rng.fork(b"platform-3"))
    plan.counter_outage(platform3.counters.fault_name, start=0.0, end=11.0)
    plan.attach(network, primary.store.disk, platform3.counters)
    volume3 = BlockStore("palaemon-3-volume")
    rng3 = rng.fork(b"service-3")

    summary: Dict[str, Any] = {"seed": seed}

    def advance_to(deadline: float):
        """Absolute-time phase alignment (never a negative timeout)."""
        return simulator.timeout(max(0.0, deadline - simulator.now))

    def scenario() -> Generator[Event, Any, None]:
        # -- phase A: partition-then-heal federation fetch ----------------
        yield advance_to(1.0)
        secrets = yield simulator.process(
            RetryPolicy(max_attempts=6, base_delay=0.2,
                        attempt_timeout=0.5).call(
                simulator,
                lambda: local.fetch_remote_secrets(
                    remote.name, "producer_policy", "consumer_policy",
                    ["SHARED_KEY"]),
                rng.fork(b"fetch-retry"), operation="federation.fetch",
                telemetry=telemetry),
            name="federation-fetch-retry")
        summary["federation_fetch"] = (
            "recovered" if "SHARED_KEY" in secrets else "incomplete")

        # -- phase B: counter outage during installation ------------------
        yield advance_to(10.0)
        try:
            PalaemonService(platform3, volume3, rng3.fork(b"probe"),
                            name="palaemon-3", telemetry=telemetry)
        except CounterUnavailableError as exc:
            summary["counter_outage_error"] = type(exc).__name__

        def install_instance() -> Generator[Event, Any, PalaemonService]:
            service = PalaemonService(platform3, volume3,
                                      rng3.fork(b"install"),
                                      name="palaemon-3", telemetry=telemetry)
            yield simulator.process(service.start())
            return service

        third = yield simulator.process(
            RetryPolicy(max_attempts=5, base_delay=0.6,
                        attempt_timeout=2.0).call(
                simulator, install_instance, rng.fork(b"install-retry"),
                operation="instance.install", telemetry=telemetry),
            name="install-palaemon-3")
        summary["third_instance"] = (
            "started" if third.running else "not-started")

        # -- phase C: disk fault under a tag update -----------------------
        yield advance_to(20.0)
        tag = rng.fork(b"tag").bytes(32)
        yield simulator.process(
            RetryPolicy(max_attempts=6, base_delay=0.2,
                        attempt_timeout=1.0).call(
                simulator,
                lambda: primary.update_tag("app_policy", "svc", tag),
                rng.fork(b"tag-retry"), operation="tag.update",
                telemetry=telemetry),
            name="tag-update-retry")
        summary["tag_update"] = (
            "recovered"
            if primary.get_tag_instant("app_policy", "svc") == tag
            else "lost")

        # -- phase D: REST blackout under client attestation --------------
        yield advance_to(24.0)
        rest_client = yield simulator.process(PalaemonRestClient.connect(
            network, client, rest_server, Site.SAME_DC,
            rng.fork(b"rest-conn"), trusted_root=ca.root_public_key))
        rest_client.telemetry = telemetry
        yield advance_to(25.1)
        description = yield simulator.process(
            RetryPolicy(max_attempts=8, base_delay=0.4,
                        attempt_timeout=0.8).call(
                simulator,
                lambda: client.attest_instance_via_rest(
                    rest_client, ca.root_public_key),
                rng.fork(b"attest-retry"),
                operation="rest.instance.describe", telemetry=telemetry),
            name="rest-attest")
        summary["rest_attestation"] = (
            "recovered" if description["name"] == primary.name else "failed")

        # -- phase E: replication fault, give-up, promotion ---------------
        yield advance_to(40.0)
        tags = {rng.fork(label).bytes(32): label.decode()
                for label in (b"acked", b"unacked")}
        acked, unacked = tags
        yield simulator.process(
            primary.update_tag("app_policy", "svc", acked),
            name="tag-update-acked")
        yield advance_to(40.5)
        summary["replication_duplicated"] = (
            f"applied_sequence="
            f"{backup.store.get(*REPLICA_ROW)['applied_sequence']} "
            f"replayed_dropped={remote._server.records_dropped['replayed']}")
        try:
            yield simulator.process(
                primary.update_tag("app_policy", "svc", unacked),
                name="tag-update-unacked")
        except RetryExhaustedError:
            summary["replication_giveup"] = "after-retries"
        summary["replication_lag"] = coordinator.replication_lag()
        coordinator.primary_crashed()
        promoted = yield simulator.process(coordinator.promote_backup(),
                                           name="promote")
        summary["promoted"] = promoted.name
        summary["promoted_epoch"] = coordinator.epoch
        summary["promoted_tag"] = tags.get(
            promoted.get_tag_instant("app_policy", "svc"), "other")

    simulator.run_process(scenario(), name="chaos-main")

    retry_counts: Dict[str, int] = {}
    for series in telemetry.metrics.series():
        if getattr(series, "name", "") != "palaemon_retries_total":
            continue
        labels = dict(series.labels)
        key = f"{labels.get('operation')}:{labels.get('outcome')}"
        retry_counts[key] = int(series.value)
    summary["retries_by_operation"] = dict(sorted(retry_counts.items()))
    summary["faults_injected"] = plan.summary()
    summary["sim_time"] = round(simulator.now, 6)
    summary["audit_records"] = telemetry.verify_audit_chain()
    summary["audit_head"] = telemetry.audit_log.head().hex()
    return summary


def render_summary(summary: Dict[str, Any]) -> str:
    """Stable plain-text rendering (sorted keys, no float noise)."""
    lines: List[str] = ["chaos recovery summary"]
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, dict):
            lines.append(f"  {key}:")
            for inner in sorted(value):
                lines.append(f"    {inner}: {value[inner]}")
        else:
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)
