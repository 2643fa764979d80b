"""Exception hierarchy for the PALAEMON reproduction.

Every failure that the paper treats as a security event (integrity violation,
rollback detection, attestation failure, quorum rejection) maps to a distinct
exception type so tests can assert the *reason* a request was refused, not
just that it was refused.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class IntegrityError(CryptoError):
    """Authenticated data failed its integrity check (bad MAC, bad hash)."""


class MerkleLeafNotFoundError(IntegrityError, KeyError):
    """A Merkle-tree operation referenced a leaf that does not exist.

    Inherits ``KeyError`` so mapping-style callers keep working, and
    ``IntegrityError`` so the REST error mapping stays in the integrity
    family rather than surfacing an untyped lookup failure.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)


class SignatureError(CryptoError):
    """A digital signature failed verification."""


class CertificateError(CryptoError):
    """A certificate is invalid: bad chain, expired, or wrong issuer."""


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class NetworkError(SimulationError):
    """A message could not be delivered (unknown site, closed endpoint)."""


class DeadlineExceededError(SimulationError):
    """An awaited event did not fire before its deadline
    (:meth:`Simulator.with_timeout`)."""


class RetryExhaustedError(SimulationError):
    """A retried operation failed on every attempt and gave up.

    ``attempts`` is how many attempts ran; ``last_error`` is the failure of
    the final one (also chained as ``__cause__``).
    """

    def __init__(self, message: str, attempts: int = 0,
                 last_error: "BaseException | None" = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class FaultInjectedError(SimulationError):
    """Base class for failures injected by a :class:`FaultPlan`."""


class StorageFaultError(FaultInjectedError):
    """An injected block-store failure."""


class TEEError(ReproError):
    """Base class for simulated-SGX platform errors."""


class EnclaveError(TEEError):
    """Enclave construction or execution failed."""


class SealingError(TEEError):
    """Sealed data could not be unsealed (wrong platform or wrong MRE)."""


class QuoteError(TEEError):
    """A quote or report failed verification."""


class CounterError(TEEError):
    """A monotonic counter operation failed."""


class CounterWearError(CounterError):
    """A monotonic counter exceeded its write-endurance budget."""


class CounterNotFoundError(CounterError):
    """The named monotonic counter does not exist (never created)."""


class CounterUnavailableError(CounterError):
    """The counter service is temporarily unreachable (outage, not loss).

    Transient by construction: retrying after the outage window may
    succeed. Crucially distinct from :class:`CounterNotFoundError` —
    responding to *this* error by creating a fresh counter would destroy
    rollback protection."""


class FileSystemError(ReproError):
    """Base class for shielded file-system errors."""


class TagMismatchError(FileSystemError):
    """The file system's Merkle tag does not match the expected tag.

    This is how both tampering and rollback of application state surface.
    """


class RollbackDetectedError(ReproError):
    """A rollback attack was detected (stale state presented as current)."""


class StaleDatabaseError(RollbackDetectedError):
    """PALAEMON's database version does not match the monotonic counter."""


class ConcurrentInstanceError(RollbackDetectedError):
    """A second PALAEMON instance with the same identity is already running."""


class DispatchError(ReproError):
    """Base class for request-dispatch failures (``repro.core.dispatch``)."""


class UnknownRouteError(DispatchError):
    """The request named an operation the registry does not know."""


class BadRequestError(DispatchError):
    """The request is structurally invalid (not a mapping, missing fields)."""


class CertificateRequiredError(DispatchError):
    """The operation requires a client certificate and none was presented."""


class PeerRequiredError(DispatchError):
    """The operation is only reachable over an attested peer link."""


class ServiceOverloadedError(DispatchError):
    """Admission control shed the request (queue full or deadline passed).

    Carries the stable wire code ``overloaded`` (shorter than the
    auto-derived ``service_overloaded``) so clients can match on it.
    """

    code = "overloaded"


class PolicyError(ReproError):
    """Base class for security-policy errors."""


class PolicyValidationError(PolicyError):
    """A policy document is structurally invalid."""


class PolicyExistsError(PolicyError):
    """A policy with this name already exists."""


class PolicyNotFoundError(PolicyError):
    """No policy with this name exists."""


class AccessDeniedError(PolicyError):
    """The client certificate does not authorize this policy access."""


class ApprovalDeniedError(PolicyError):
    """The policy board did not approve the requested operation."""


class VetoError(ApprovalDeniedError):
    """A veto-holding board member rejected the operation."""


class AttestationError(ReproError):
    """Application or service attestation failed."""


class PlatformNotPermittedError(AttestationError):
    """The application runs on a platform not listed in its policy."""


class MrenclaveNotPermittedError(AttestationError):
    """The application's MRENCLAVE is not listed in its policy."""


class StrictModeError(PolicyError):
    """Strict mode forbids restart after an unclean exit without a policy update."""


class UpdateError(PolicyError):
    """A secure-update operation was rejected."""
