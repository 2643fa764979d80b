"""Deterministic discrete-event simulation substrate.

The paper's evaluation runs on a rack cluster and on geo-distributed
deployments; this package replaces that hardware with a deterministic
discrete-event simulator. Processes are Python generators that ``yield``
events (timeouts, holds of a contended :class:`Resource`, message
receipts); the event loop advances a virtual clock, so experiments covering
minutes of "cluster time" run in milliseconds of wall-clock time and are
exactly reproducible.
"""

from repro.sim.core import Event, Process, Simulator, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.network import Network, Site, Endpoint, Message
from repro.sim.metrics import LatencyRecorder, ThroughputMeter, percentile
from repro.sim.workload import OpenLoopGenerator, ClosedLoopGenerator
from repro.sim.faults import FaultPlan, LinkFault, Window
from repro.sim.retry import RetryPolicy

__all__ = [
    "ClosedLoopGenerator",
    "Endpoint",
    "Event",
    "FaultPlan",
    "LatencyRecorder",
    "LinkFault",
    "Message",
    "Network",
    "OpenLoopGenerator",
    "Process",
    "Resource",
    "RetryPolicy",
    "Simulator",
    "Site",
    "Store",
    "ThroughputMeter",
    "Timeout",
    "Window",
    "percentile",
]
