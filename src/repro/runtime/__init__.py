"""The SCONE-like application runtime.

The runtime is the glue between applications and PALAEMON (§IV-A): it loads
the application into an enclave, performs the attestation handshake,
receives the configuration (arguments, environment, FS keys/tags, injected
files), mounts the shielded file system against the expected tag, and pushes
tag updates back to PALAEMON on close/sync/exit.
"""

from repro.runtime.scone import SconeRuntime
from repro.runtime.application import RunningApplication
from repro.runtime.startup import AttestationVariant, StartupModel

from repro.tee.enclave import ExecutionMode

__all__ = [
    "AttestationVariant",
    "ExecutionMode",
    "RunningApplication",
    "SconeRuntime",
    "StartupModel",
]
