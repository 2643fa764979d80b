"""Simulated network: sites, RTT matrix, and message endpoints.

Sites correspond to the deployments in the paper's evaluation: the same
rack, the same data centre, and progressively distant geographies up to
intercontinental (Fig 12, Fig 13 right). One-way delay between two sites is
half the calibrated RTT plus optional jitter; bandwidth is modelled as a
serialization delay per byte so large transfers (e.g. NGINX's 67 kB pages)
cost more than small control messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro import calibration
from repro.crypto.primitives import DeterministicRandom
from repro.errors import NetworkError
from repro.sim.core import Event, Simulator
from repro.sim.resources import Store

if TYPE_CHECKING:
    from repro.tls.channel import TLSConnection, TLSServer


class Site(enum.Enum):
    """Deployment locations used across the evaluation."""

    SAME_RACK = "same-rack"
    SAME_DC = "same-dc"
    REGIONAL_300KM = "regional-300km"
    CONTINENTAL_7000KM = "continental-7000km"
    INTERCONTINENTAL_11000KM = "intercontinental-11000km"
    IAS_US = "ias-us"
    IAS_EU = "ias-eu"


#: RTT between the local rack and each site class, from calibration.
_RTT_FROM_RACK: Dict[Site, float] = {
    Site.SAME_RACK: calibration.RTT_SAME_RACK,
    Site.SAME_DC: calibration.RTT_SAME_DC,
    Site.REGIONAL_300KM: calibration.RTT_300_KM,
    Site.CONTINENTAL_7000KM: calibration.RTT_7000_KM,
    Site.INTERCONTINENTAL_11000KM: calibration.RTT_11000_KM,
    # IAS placements for Fig 8: measured from a US client IAS is close;
    # from the EU it is a transatlantic hop.
    Site.IAS_US: 30.0e-3,
    Site.IAS_EU: calibration.RTT_11000_KM,
}


def rtt_between(a: Site, b: Site) -> float:
    """Round-trip time between two sites.

    The topology is hub-like (everything is measured relative to the rack
    hosting the cluster), matching how the paper reports distances.
    """
    if a == b:
        return calibration.RTT_SAME_RACK
    if a == Site.SAME_RACK:
        return _RTT_FROM_RACK[b]
    if b == Site.SAME_RACK:
        return _RTT_FROM_RACK[a]
    # Triangle through the rack, capped at the intercontinental RTT.
    via = _RTT_FROM_RACK[a] + _RTT_FROM_RACK[b]
    return min(via, calibration.RTT_11000_KM * 1.5)


@dataclass
class Message:
    """A datagram delivered to an endpoint's mailbox."""

    sender: "Endpoint"
    payload: Any
    size_bytes: int = 256
    reply_to: Optional["Endpoint"] = None


class Endpoint:
    """A network-attached mailbox at a site.

    ``receive()`` yields the next inbound :class:`Message`; ``send()``
    schedules delivery after the one-way latency plus serialization delay.
    """

    def __init__(self, network: "Network", name: str, site: Site) -> None:
        self.network = network
        self.name = name
        self.site = site
        self.inbox = Store(network.simulator, name=f"{name}-inbox")
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False
        #: The live TLS connection sending from this endpoint, if any; see
        #: :meth:`repro.tls.channel.TLSConnection.connect`.
        self.connection: Optional["TLSConnection"] = None
        #: TLS connections opened from this endpoint so far.
        self.connections = 0
        #: The running TLS server serving this endpoint, if any; see
        #: :meth:`repro.tls.channel.TLSServer.start`.
        self.server: Optional["TLSServer"] = None

    def send(self, destination: "Endpoint", payload: Any,
             size_bytes: int = 256,
             reply_to: Optional["Endpoint"] = None) -> None:
        """Send ``payload``; delivery is asynchronous."""
        if self._closed:
            raise NetworkError(f"endpoint {self.name!r} is closed")
        message = Message(sender=self, payload=payload, size_bytes=size_bytes,
                          reply_to=reply_to or self)
        self.bytes_sent += size_bytes
        self.network.deliver(self, destination, message)

    def receive(self) -> Event:
        """Event firing with the next inbound message."""
        return self.inbox.get()

    def close(self) -> None:
        self._closed = True
        self.inbox.close()

    def reopen(self) -> None:
        """Bring a closed endpoint back (a restarted front-end).

        The old inbox is gone with the process that owned it: pending
        getters already failed when it closed, and queued messages are
        lost, exactly like a socket reopened after a crash.
        """
        if not self._closed:
            return
        self._closed = False
        self.inbox = Store(self.network.simulator, name=f"{self.name}-inbox")


class Network:
    """The message fabric: computes delays and delivers to mailboxes.

    Every link serializes at :data:`~repro.calibration.LINK_BYTES_PER_SECOND`;
    ``jitter_fraction`` adds multiplicative uniform jitter to propagation so
    that latency percentiles are not degenerate.
    """

    def __init__(self, simulator: Simulator,
                 rng: Optional[DeterministicRandom] = None,
                 jitter_fraction: float = 0.05) -> None:
        self.simulator = simulator
        self._rng = rng or DeterministicRandom(b"network")
        self.jitter_fraction = jitter_fraction
        self._endpoints: Dict[str, Endpoint] = {}
        self.messages_delivered = 0
        #: Wire log of (time, src, dst, payload) for plaintext-leak scans.
        self.wire_log: list = []
        self.wire_log_enabled = False
        #: Optional fault injection (:class:`repro.sim.faults.FaultPlan`);
        #: attach via ``FaultPlan.attach``.
        self.fault_plan = None

    def endpoint(self, name: str, site: Site = Site.SAME_RACK) -> Endpoint:
        """Create (or fetch) the named endpoint at ``site``.

        Reusing the name of a *closed* endpoint reopens it with a fresh
        inbox — returning the closed object as-is would hand the caller
        a mailbox whose every ``send()`` raises forever.
        """
        if name in self._endpoints:
            existing = self._endpoints[name]
            if existing.site != site:
                raise NetworkError(
                    f"endpoint {name!r} already exists at {existing.site}")
            if existing._closed:
                existing.reopen()
            return existing
        endpoint = Endpoint(self, name, site)
        self._endpoints[name] = endpoint
        return endpoint

    def one_way_delay(self, source: Site, destination: Site,
                      size_bytes: int) -> float:
        propagation = rtt_between(source, destination) / 2.0
        serialization = size_bytes / calibration.LINK_BYTES_PER_SECOND
        if self.jitter_fraction == 0:
            return propagation + serialization
        jitter = propagation * self.jitter_fraction * self._rng.random()
        return propagation + jitter + serialization

    def deliver(self, source: Endpoint, destination: Endpoint,
                message: Message) -> None:
        copies = 1
        extra_delay = 0.0
        if self.fault_plan is not None:
            fate, extra_delay = self.fault_plan.message_fate(
                source.name, destination.name)
            if fate == "drop":
                return
            if fate == "duplicate":
                copies = 2
        if self.wire_log_enabled:
            self.wire_log.append((self.simulator.now, source.name,
                                  destination.name, message.payload))

        def arrival(_event: Event) -> None:
            if destination._closed:
                return
            if (self.fault_plan is not None
                    and self.fault_plan.injects("blackout",
                                                destination.name)):
                return
            destination.inbox.put(message)
            destination.bytes_received += message.size_bytes
            self.messages_delivered += 1

        for _copy in range(copies):
            # Each copy draws its own jitter, so duplicates arrive apart.
            delay = self.one_way_delay(source.site, destination.site,
                                       message.size_bytes) + extra_delay
            timer = self.simulator.timeout(delay)
            timer.callbacks.append(arrival)
