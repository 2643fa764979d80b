"""Security policies: the model behind List 1 of the paper.

A policy names services (each pinned to permitted MRENCLAVEs and platforms,
with a command line, environment, file-system protection key/tag, and files
to inject secrets into), declares typed secrets, and optionally places
itself under a policy board whose quorum must approve every CRUD access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import yamlish
from repro.core.secrets import SecretSpec
from repro.core.yamlish import integer, required
from repro.crypto.certificates import Certificate
from repro.errors import PolicyValidationError


@dataclass(frozen=True)
class PolicyBoardMember:
    """One board member: an identity certificate plus an approval endpoint.

    ``approval_endpoint`` names the network endpoint of the member's
    approval service (§III-C); ``veto`` members can unilaterally reject.
    """

    name: str
    certificate: Certificate
    approval_endpoint: str
    veto: bool = False


@dataclass(frozen=True)
class BoardSpec:
    """The policy board: members plus the approval threshold (f+1)."""

    members: Tuple[PolicyBoardMember, ...]
    threshold: int

    def validate(self) -> None:
        if not self.members:
            raise PolicyValidationError("policy board has no members")
        if not 1 <= self.threshold <= len(self.members):
            raise PolicyValidationError(
                f"threshold {self.threshold} out of range for "
                f"{len(self.members)} members")
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise PolicyValidationError("duplicate board member names")

    def member(self, name: str) -> PolicyBoardMember:
        for candidate in self.members:
            if candidate.name == name:
                return candidate
        raise PolicyValidationError(f"no board member named {name!r}")


@dataclass
class ServiceSpec:
    """One service of a policy (List 1, ``services:`` block)."""

    name: str
    image_name: str
    command: List[str] = field(default_factory=list)
    environment: Dict[str, str] = field(default_factory=dict)
    #: Permitted MRENCLAVEs. Several entries ease software updates (§III-A).
    mrenclaves: List[bytes] = field(default_factory=list)
    #: Permitted platform ids; empty means any platform.
    platforms: List[bytes] = field(default_factory=list)
    #: Working directory.
    pwd: str = "/"
    #: Path of the FSPF on the volume.
    fspf_path: str = "/.fspf"
    #: Files to inject secrets into: path -> template content.
    injection_files: Dict[str, bytes] = field(default_factory=dict)
    #: Strict mode: restart requires a clean exit or a policy update (§III-D).
    strict_mode: bool = False

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise PolicyValidationError(f"service has no name: {self.name!r}")
        if not self.mrenclaves:
            raise PolicyValidationError(
                f"service {self.name!r} lists no permitted MRENCLAVEs")
        for mre in self.mrenclaves:
            if len(mre) != 32:
                raise PolicyValidationError(
                    f"service {self.name!r}: MRENCLAVE must be 32 bytes")

    def permits_mrenclave(self, mrenclave: bytes) -> bool:
        return mrenclave in self.mrenclaves

    def permits_platform(self, platform_id: bytes) -> bool:
        return not self.platforms or platform_id in self.platforms


@dataclass(frozen=True)
class VolumeSpec:
    """An encrypted volume, optionally exported to another policy."""

    name: str
    path: str = "/"
    export_to: Optional[str] = None


@dataclass(frozen=True)
class ImportSpec:
    """Import of a secret from another policy (§III-A g)."""

    from_policy: str
    secret_name: str
    local_name: Optional[str] = None

    @property
    def bound_name(self) -> str:
        return self.local_name or self.secret_name


@dataclass(frozen=True)
class VolumeImportSpec:
    """Import of an encrypted volume exported by another policy.

    List 1's ``export: output_policy`` is the producer side; this is the
    consumer side: the importing policy's applications receive the volume's
    key and expected tag, so e.g. an output policy can decrypt and verify
    the ML job's encrypted output volume.
    """

    from_policy: str
    volume_name: str


@dataclass
class SecurityPolicy:
    """A complete security policy document."""

    name: str
    services: List[ServiceSpec] = field(default_factory=list)
    secrets: List[SecretSpec] = field(default_factory=list)
    volumes: List[VolumeSpec] = field(default_factory=list)
    imports: List[ImportSpec] = field(default_factory=list)
    volume_imports: List[VolumeImportSpec] = field(default_factory=list)
    board: Optional[BoardSpec] = None
    #: Permitted (MRENCLAVE, tag) combinations imported from an image
    #: policy, intersected with the application's own allowances (§III-E).
    permitted_combinations: List[Tuple[bytes, bytes]] = field(
        default_factory=list)

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise PolicyValidationError(f"policy has no name: {self.name!r}")
        service_names = [service.name for service in self.services]
        if len(set(service_names)) != len(service_names):
            raise PolicyValidationError(
                f"policy {self.name!r} has duplicate service names")
        for service in self.services:
            service.validate()
        secret_names = [secret.name for secret in self.secrets]
        if len(set(secret_names)) != len(secret_names):
            raise PolicyValidationError(
                f"policy {self.name!r} has duplicate secret names")
        for secret in self.secrets:
            secret.validate()
        for import_spec in self.imports:
            if import_spec.bound_name in secret_names:
                raise PolicyValidationError(
                    f"import {import_spec.bound_name!r} collides with a "
                    f"local secret")
        volume_names = [volume.name for volume in self.volumes]
        if len(set(volume_names)) != len(volume_names):
            raise PolicyValidationError(
                f"policy {self.name!r} has duplicate volume names")
        for volume_import in self.volume_imports:
            if volume_import.volume_name in volume_names:
                raise PolicyValidationError(
                    f"volume import {volume_import.volume_name!r} collides "
                    f"with a local volume")
        if self.board is not None:
            self.board.validate()

    def service(self, name: str) -> ServiceSpec:
        for candidate in self.services:
            if candidate.name == name:
                return candidate
        raise PolicyValidationError(
            f"policy {self.name!r} has no service {name!r}")

    def secret_spec(self, name: str) -> SecretSpec:
        for candidate in self.secrets:
            if candidate.name == name:
                return candidate
        raise PolicyValidationError(
            f"policy {self.name!r} has no secret {name!r}")

    def exports_secret_to(self, secret_name: str, policy_name: str) -> bool:
        """Whether ``secret_name`` may be imported by ``policy_name``."""
        try:
            spec = self.secret_spec(secret_name)
        except PolicyValidationError:
            return False
        return policy_name in spec.export_to

    def volume(self, name: str) -> VolumeSpec:
        for candidate in self.volumes:
            if candidate.name == name:
                return candidate
        raise PolicyValidationError(
            f"policy {self.name!r} has no volume {name!r}")

    def exports_volume_to(self, volume_name: str, policy_name: str) -> bool:
        """Whether the named volume's key may be imported by ``policy_name``."""
        try:
            spec = self.volume(volume_name)
        except PolicyValidationError:
            return False
        return spec.export_to == policy_name

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Tuple[dict, Dict[str, Certificate]]:
        """Serialize to the ``from_dict`` document format.

        Returns the document plus the certificate registry needed to parse
        it back (board member certificates are referenced by name in the
        document, as deployment tooling would store them separately).
        MRENCLAVEs and platform ids serialize as hex.  The board
        threshold is always written out, even when the source document
        relied on the unanimity default — round-tripping a policy makes
        the quorum explicit.
        """
        document: dict = {"name": self.name}
        if self.services:
            document["services"] = [
                {
                    "name": service.name,
                    "image_name": service.image_name,
                    "command": list(service.command),
                    "environment": dict(service.environment),
                    "mrenclaves": [m.hex() for m in service.mrenclaves],
                    "platforms": [p.hex() for p in service.platforms],
                    "pwd": service.pwd,
                    "fspf_path": service.fspf_path,
                    "inject_files": {
                        path: content.decode("utf-8", "surrogateescape")
                        for path, content in
                        service.injection_files.items()},
                    "strict_mode": service.strict_mode,
                }
                for service in self.services]
        if self.secrets:
            document["secrets"] = [
                {
                    "name": secret.name,
                    "kind": secret.kind.value,
                    **({"value": secret.value.decode("utf-8",
                                                     "surrogateescape")}
                       if secret.value is not None else {}),
                    "size": secret.size,
                    **({"common_name": secret.common_name}
                       if secret.common_name else {}),
                    "export": list(secret.export_to),
                }
                for secret in self.secrets]
        if self.volumes:
            document["volumes"] = [
                {"name": volume.name, "path": volume.path,
                 **({"export": volume.export_to}
                    if volume.export_to else {})}
                for volume in self.volumes]
        if self.imports:
            document["imports"] = [
                {"policy": spec.from_policy, "secret": spec.secret_name,
                 **({"as": spec.local_name} if spec.local_name else {})}
                for spec in self.imports]
        if self.volume_imports:
            document["volume_imports"] = [
                {"policy": spec.from_policy, "volume": spec.volume_name}
                for spec in self.volume_imports]
        certificates: Dict[str, Certificate] = {}
        if self.board is not None:
            members = []
            for member in self.board.members:
                cert_name = f"{member.name}-cert"
                certificates[cert_name] = member.certificate
                members.append({
                    "name": member.name,
                    "certificate": cert_name,
                    "approval_endpoint": member.approval_endpoint,
                    "veto": member.veto,
                })
            document["board"] = {"threshold": self.board.threshold,
                                 "members": members}
        return document, certificates

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_yaml(cls, text: str,
                  mrenclave_registry: Optional[Dict[str, bytes]] = None,
                  certificate_registry: Optional[Dict[str, Certificate]] = None,
                  ) -> "SecurityPolicy":
        """Parse a YAML policy document (the format of List 1).

        ``$NAME`` placeholders in ``mrenclaves``/``platforms`` entries are
        resolved through ``mrenclave_registry`` — mirroring how deployment
        tooling substitutes measured values into policy templates.
        """
        return cls.from_dict(yamlish.loads(text), mrenclave_registry,
                             certificate_registry)

    @classmethod
    def from_dict(cls, data: dict,
                  mrenclave_registry: Optional[Dict[str, bytes]] = None,
                  certificate_registry: Optional[Dict[str, Certificate]] = None,
                  ) -> "SecurityPolicy":
        if not isinstance(data, dict):
            raise PolicyValidationError("policy document must be a mapping")
        registry = mrenclave_registry or {}
        certificates = certificate_registry or {}

        def resolve(value: str) -> bytes:
            if isinstance(value, bytes):
                return value
            if not isinstance(value, str):
                raise PolicyValidationError(
                    f"measurement {value!r} is not a hex string (quote it)")
            if value.startswith("$"):
                try:
                    return registry[value[1:]]
                except KeyError:
                    raise PolicyValidationError(
                        f"unresolved placeholder {value!r}") from None
            try:
                return bytes.fromhex(value)
            except ValueError:
                raise PolicyValidationError(
                    f"measurement {value!r} is not valid hex") from None

        services = []
        for raw in data.get("services", []) or []:
            required(raw, "name", "service")
            injection_files = {
                path: (content.encode() if isinstance(content, str)
                       else content)
                for path, content in (raw.get("inject_files") or {}).items()}
            services.append(ServiceSpec(
                name=raw["name"],
                image_name=raw.get("image_name", ""),
                command=(raw.get("command", "").split()
                         if isinstance(raw.get("command"), str)
                         else list(raw.get("command") or [])),
                environment=dict(raw.get("environment") or {}),
                mrenclaves=[resolve(m) for m in raw.get("mrenclaves", [])],
                platforms=[resolve(p) for p in raw.get("platforms", [])],
                pwd=raw.get("pwd", "/"),
                fspf_path=raw.get("fspf_path", "/.fspf"),
                injection_files=injection_files,
                strict_mode=bool(raw.get("strict_mode", False)),
            ))

        secrets = [SecretSpec.from_dict(raw)
                   for raw in data.get("secrets", []) or []]

        volumes = [VolumeSpec(required(raw, "name", "volume"),
                              raw.get("path", "/"), raw.get("export"))
                   for raw in data.get("volumes", []) or []]

        imports = [ImportSpec(required(raw, "policy", "import"),
                              required(raw, "secret", "import"), raw.get("as"))
                   for raw in data.get("imports", []) or []]

        volume_imports = [VolumeImportSpec(required(raw, "policy", "import"),
                                           required(raw, "volume", "import"))
                          for raw in data.get("volume_imports", []) or []]

        board = None
        if data.get("board"):
            raw_board = data["board"]
            if not isinstance(raw_board, dict):
                raise PolicyValidationError("board must be a mapping")
            members = []
            for raw in raw_board.get("members", []):
                cert_name = required(raw, "certificate", "board member")
                try:
                    certificate = certificates[cert_name]
                except KeyError:
                    raise PolicyValidationError(
                        f"unknown certificate {cert_name!r} for board "
                        f"member {raw.get('name')!r}") from None
                members.append(PolicyBoardMember(
                    name=required(raw, "name", "board member"),
                    certificate=certificate,
                    approval_endpoint=required(raw, "approval_endpoint",
                                               "board member"),
                    veto=bool(raw.get("veto", False)),
                ))
            raw_threshold = raw_board.get("threshold")
            if raw_threshold is None:
                # A document without a threshold means unanimity
                # (n-of-n).  The default is deliberately explicit here —
                # ``to_dict`` always serializes the resolved number, so a
                # parse/serialize round trip surfaces it, and the DOC001
                # lint rule warns on documents that omit it (an
                # unreachable member freezes every access under n-of-n).
                raw_threshold = len(members)
            board = BoardSpec(members=tuple(members),
                              threshold=integer(raw_threshold, "threshold"))

        policy = cls(name=data.get("name", ""), services=services,
                     secrets=secrets, volumes=volumes, imports=imports,
                     volume_imports=volume_imports, board=board)
        policy.validate()
        return policy
