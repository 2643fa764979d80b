"""Simulated Intel SGX platform.

This package replaces the SGX hardware the paper runs on. The *mechanisms*
are real inside the simulation: MRENCLAVE is an actual SHA-256 measurement
over the enclave's measured pages, quotes are actual signatures by a
per-platform attestation key, sealing actually encrypts with a key derived
from (platform, MRENCLAVE), and the monotonic counters really are monotonic,
rate-limited, and wear out. Only the *costs* (page throughputs, transition
latencies) come from the calibration table instead of silicon.
"""

from repro.tee.image import EnclaveImage, build_image
from repro.tee.epc import EnclavePageCache
from repro.tee.loader import EnclaveLoader, LoadReport, MeasurementScope
from repro.tee.enclave import Enclave, ExecutionMode
from repro.tee.quoting import Quote, QuotingEnclave, Report
from repro.tee.sealing import SealedBlob, SealingService
from repro.tee.counters import PlatformCounterService, TPMCounterService
from repro.tee.ias import AttestationVerdict, IASReport, IntelAttestationService
from repro.tee.platform import SGXPlatform

__all__ = [
    "AttestationVerdict",
    "Enclave",
    "EnclaveImage",
    "EnclaveLoader",
    "EnclavePageCache",
    "ExecutionMode",
    "IASReport",
    "IntelAttestationService",
    "LoadReport",
    "MeasurementScope",
    "PlatformCounterService",
    "Quote",
    "QuotingEnclave",
    "Report",
    "SGXPlatform",
    "SealedBlob",
    "SealingService",
    "TPMCounterService",
    "build_image",
]
