"""Typed secrets (§III-A: "Secrets are typed and can either be explicitly
defined, or randomly chosen by PALAEMON").

Three kinds cover every use in the paper's policies and macro-benchmarks:

- ``EXPLICIT`` — the policy author supplies the value (e.g. a DB password).
- ``RANDOM``   — PALAEMON draws the value at policy creation; nobody, not
  even the policy author, ever learns it unless an attested application
  reveals it.
- ``X509``     — PALAEMON generates a key pair and certificate (what the
  NGINX/memcached/MariaDB benchmarks inject for TLS termination).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.yamlish import integer, required
from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import PolicyValidationError


class SecretKind(enum.Enum):
    """How a secret's value comes into existence."""

    EXPLICIT = "explicit"
    RANDOM = "random"
    X509 = "x509"


@dataclass(frozen=True)
class SecretSpec:
    """A secret declaration inside a security policy."""

    name: str
    kind: SecretKind
    #: Value for EXPLICIT secrets.
    value: Optional[bytes] = None
    #: Length in bytes for RANDOM secrets.
    size: int = 32
    #: Common name for X509 secrets.
    common_name: Optional[str] = None
    #: Policies permitted to import this secret (§III-A item g).
    export_to: tuple = ()

    def validate(self) -> None:
        if not isinstance(self.name, str) or \
                not self.name.replace("_", "").isalnum():
            raise PolicyValidationError(
                f"invalid secret name {self.name!r}: use [A-Z0-9_]")
        if self.name != self.name.upper():
            raise PolicyValidationError(
                f"secret name {self.name!r} must be upper-case")
        if self.kind is SecretKind.EXPLICIT and self.value is None:
            raise PolicyValidationError(
                f"explicit secret {self.name!r} has no value")
        if self.kind is SecretKind.RANDOM and not 1 <= self.size <= 4096:
            raise PolicyValidationError(
                f"random secret {self.name!r} has invalid size {self.size}")
        if self.kind is SecretKind.X509 and not self.common_name:
            raise PolicyValidationError(
                f"x509 secret {self.name!r} needs a common_name")

    @classmethod
    def from_dict(cls, data: dict) -> "SecretSpec":
        name = required(data, "name", "secret")
        try:
            kind = SecretKind(data.get("kind", "random"))
        except ValueError:
            raise PolicyValidationError(
                f"unknown secret kind {data.get('kind')!r}") from None
        raw_value = data.get("value")
        value = raw_value.encode() if isinstance(raw_value, str) else raw_value
        spec = cls(
            name=name,
            kind=kind,
            value=value,
            size=integer(data.get("size", 32), f"secret {name!r} size"),
            common_name=data.get("common_name"),
            export_to=tuple(data.get("export", []) or []),
        )
        spec.validate()
        return spec


@dataclass
class SecretValue:
    """A materialized secret held inside PALAEMON's database."""

    name: str
    kind: SecretKind
    value: bytes
    #: For X509 secrets: the generated certificate (public half).
    certificate: Optional[Certificate] = None


def materialize(spec: SecretSpec, rng: DeterministicRandom,
                now: float) -> SecretValue:
    """Create the value for a secret spec at policy-creation time."""
    spec.validate()
    if spec.kind is SecretKind.EXPLICIT:
        assert spec.value is not None  # validate() guarantees this
        return SecretValue(name=spec.name, kind=spec.kind, value=spec.value)
    if spec.kind is SecretKind.RANDOM:
        return SecretValue(name=spec.name, kind=spec.kind,
                           value=rng.bytes(spec.size))
    # X509: the private key is the secret value; the certificate, from the
    # secret's own CA, rides along for injection next to it.
    key_pair = KeyPair.generate(rng.fork(b"x509:" + spec.name.encode()))
    authority = CertificateAuthority(
        f"palaemon-secret-ca:{spec.name}",
        KeyPair.generate(rng.fork(b"x509-ca:" + spec.name.encode())))
    certificate = authority.issue(
        spec.common_name or spec.name, key_pair.public,
        not_before=now, not_after=now + 365 * 24 * 3600.0)
    private_bytes = key_pair.private.private_exponent.to_bytes(
        (key_pair.private.private_exponent.bit_length() + 7) // 8, "big")
    return SecretValue(name=spec.name, kind=spec.kind, value=private_bytes,
                       certificate=certificate)


def materialize_all(specs: List[SecretSpec], rng: DeterministicRandom,
                    now: float) -> Dict[str, SecretValue]:
    """Materialize every secret of a policy; names must be unique."""
    values: Dict[str, SecretValue] = {}
    for spec in specs:
        if spec.name in values:
            raise PolicyValidationError(f"duplicate secret {spec.name!r}")
        values[spec.name] = materialize(spec, rng, now)
    return values
