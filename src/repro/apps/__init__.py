"""Macro-benchmark application miniatures (§V-C).

Each module provides a functional miniature of one of the paper's evaluated
systems — real request semantics (stored values come back, quorum writes
replicate, buffer pools hit and miss) — that charges one calibrated
service time per request through :class:`repro.apps.base.SimulatedServer`,
so the NATIVE / EMU / HW throughput curves of Figs 14-17 come out of
queueing in the discrete-event simulation.
"""

from repro.apps.base import SimulatedServer
from repro.apps.kvstore import MemcachedServer
from repro.apps.webserver import NginxServer, NginxVariant
from repro.apps.kms import BarbicanServer, BarbicanVariant, VaultServer
from repro.apps.zookeeper import ZooKeeperCluster
from repro.apps.mariadb import MariaDBServer
from repro.apps.mlservice import InferenceService
from repro.apps.secretconfig import SECRET_CHANNEL_SURVEY, SecretChannels

__all__ = [
    "BarbicanServer",
    "BarbicanVariant",
    "InferenceService",
    "MariaDBServer",
    "MemcachedServer",
    "NginxServer",
    "NginxVariant",
    "SECRET_CHANNEL_SURVEY",
    "SecretChannels",
    "SimulatedServer",
    "VaultServer",
    "ZooKeeperCluster",
]
