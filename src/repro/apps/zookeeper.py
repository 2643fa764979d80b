"""A ZooKeeper-like coordination service on a 3-node cluster (Fig 17b/c).

Functional semantics are real: a replicated hierarchical key/value store
where reads are served by any follower from local state and writes go
through the leader, which replicates to a quorum of followers over the
simulated network (a ZAB-flavoured single round). Shielded variants run
each node in an enclave; the paper's finding reproduced here:

- **reads** — the shielded version is consistently *better* than native
  (SCONE's memory-mapped shielded I/O beats the native stunnel sidecar's
  userspace copies);
- **writes** — native wins, because consensus multiplies the syscall and
  TLS work that shields make more expensive.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro import calibration
from repro.apps.base import SimulatedServer, calibrated_service_seconds
from repro.errors import NetworkError
from repro.sim.core import Event, Simulator
from repro.sim.network import Site, rtt_between
from repro.tee.enclave import ExecutionMode


class _Node:
    """One cluster member holding a full replica of the tree."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.data: Dict[str, bytes] = {}
        self.zxid = 0  # last applied transaction id
        self.alive = True

    def apply(self, zxid: int, path: str, value: bytes) -> None:
        self.data[path] = value
        self.zxid = zxid


_READ_FRACTIONS = {
    ExecutionMode.NATIVE: 1.0,
    ExecutionMode.EMULATED: calibration.ZOOKEEPER_SHIELD_READ_ADVANTAGE,
    ExecutionMode.HARDWARE: calibration.ZOOKEEPER_SHIELD_READ_ADVANTAGE,
}
_WRITE_FRACTIONS = {
    ExecutionMode.NATIVE: 1.0,
    ExecutionMode.EMULATED: calibration.ZOOKEEPER_SHIELD_WRITE_FRACTION * 1.1,
    ExecutionMode.HARDWARE: calibration.ZOOKEEPER_SHIELD_WRITE_FRACTION,
}


class ZooKeeperCluster:
    """A 3-node (by default) replicated coordination service."""

    def __init__(self, simulator: Simulator,
                 mode: ExecutionMode = ExecutionMode.NATIVE,
                 nodes: int = 3) -> None:
        if nodes < 3 or nodes % 2 == 0:
            raise ValueError("cluster size must be an odd number >= 3")
        self.simulator = simulator
        self.mode = mode
        self.nodes: List[_Node] = [_Node(i) for i in range(nodes)]
        self._next_zxid = 1
        # Per-node request workers: reads scale across the cluster.
        read_threads = calibration.CPU_HYPERTHREADS * nodes
        self._read_server = SimulatedServer(
            simulator, "zk-read", calibrated_service_seconds(
                calibration.ZOOKEEPER_NATIVE_READ_PEAK_RPS,
                _READ_FRACTIONS[mode], threads=read_threads),
            threads=read_threads)
        self._write_server = SimulatedServer(
            simulator, "zk-write", calibrated_service_seconds(
                calibration.ZOOKEEPER_NATIVE_WRITE_PEAK_RPS,
                _WRITE_FRACTIONS[mode]))

    @property
    def quorum(self) -> int:
        return len(self.nodes) // 2 + 1

    # -- functional + timed operations ---------------------------------------

    def handle_read(self, path: str,
                    node_id: Optional[int] = None,
                    ) -> Generator[Event, Any, Optional[bytes]]:
        """Read from any replica's local state (no quorum round)."""
        node = self.nodes[node_id if node_id is not None else 0]
        if not node.alive:
            raise NetworkError(f"node {node.node_id} is down")
        yield self.simulator.process(self._read_server.serve())
        return node.data.get(path)

    def handle_write(self, path: str, value: bytes,
                     ) -> Generator[Event, Any, int]:
        """A write: leader proposal, quorum ack, then commit everywhere."""
        alive = [node for node in self.nodes if node.alive]
        if len(alive) < self.quorum:
            raise NetworkError("cluster has lost its quorum")
        # Leader-side processing (the contended resource under load).
        yield self.simulator.process(self._write_server.serve())
        # One proposal round trip to the followers (parallel; one RTT) in
        # the ensemble's data centre.
        yield self.simulator.timeout(rtt_between(Site.SAME_DC, Site.SAME_DC)
                                     + rtt_between(Site.SAME_RACK, Site.SAME_DC))
        zxid = self._next_zxid
        self._next_zxid += 1
        for node in alive:
            node.apply(zxid, path, value)
        return zxid
