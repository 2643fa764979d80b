"""Secure update flows (§III-E).

Three update shapes, all governed by policy boards:

1. **Application update** — a new image version means a new MRENCLAVE and a
   new file-system tag; the policy must be updated (board-approved) to list
   them before the new version can attest.
2. **Image/application policy intersection** — an image provider exports
   the (MRE, tag) combinations it currently vouches for; application
   policies import them and PALAEMON only admits combinations present in
   *both* sets, so revoking a combination upstream disables it everywhere.
3. **PALAEMON/CA update** — a new PALAEMON version requires a new CA whose
   embedded allow-list includes the new MRE; deploying the new CA is itself
   a board-approved operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Set, Tuple

from repro.core.board import AccessRequest, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.policy import BoardSpec, SecurityPolicy
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import UpdateError


@dataclass(frozen=True)
class ImageRelease:
    """One vouched-for (MRENCLAVE, file-system tag) combination."""

    mrenclave: bytes
    fs_tag: bytes
    version: str


@dataclass
class ImagePolicyExport:
    """What an image provider publishes for downstream policies (§III-E).

    The provider curates e.g. a Python interpreter image; each release adds
    a combination, each revocation (vulnerability discovered) removes one.
    """

    image_name: str
    releases: List[ImageRelease] = field(default_factory=list)

    def add_release(self, release: ImageRelease) -> None:
        self.releases.append(release)

    def revoke(self, version: str) -> None:
        remaining = [release for release in self.releases
                     if release.version != version]
        if len(remaining) == len(self.releases):
            raise UpdateError(f"no release {version!r} to revoke")
        self.releases = remaining

    def combinations(self) -> Set[Tuple[bytes, bytes]]:
        return {(release.mrenclave, release.fs_tag)
                for release in self.releases}


def intersect_permitted(image_export: ImagePolicyExport,
                        app_allowed: Set[Tuple[bytes, bytes]],
                        ) -> List[Tuple[bytes, bytes]]:
    """Combinations permitted by *both* the image and application policies.

    An application runs only with combinations in this intersection; if the
    image provider revokes a combination, it drops out automatically even if
    the application policy still lists it.
    """
    return sorted(image_export.combinations() & app_allowed)


def apply_image_export(policy: SecurityPolicy,
                       image_export: ImagePolicyExport,
                       app_allowed: Set[Tuple[bytes, bytes]],
                       ) -> SecurityPolicy:
    """Refresh a policy's permitted combinations from an image export: the
    combinations both the image provider and the application allow."""
    policy.permitted_combinations = intersect_permitted(image_export,
                                                        app_allowed)
    return policy


def prepare_application_update(policy: SecurityPolicy, service_name: str,
                               new_mrenclave: bytes) -> SecurityPolicy:
    """Produce the updated policy document admitting a new application MRE.

    The previous MREs stay listed during a rolling upgrade; removing one
    from the service's ``mrenclaves`` retires that version. The returned
    document still has to pass the policy board via ``update_policy``.
    """
    service = policy.service(service_name)
    if new_mrenclave in service.mrenclaves:
        raise UpdateError("the new MRENCLAVE is already permitted")
    service.mrenclaves = list(service.mrenclaves) + [new_mrenclave]
    return policy


class CAUpdateCoordinator:
    """Board-governed updates of the PALAEMON CA (§III-B, §III-E).

    The CA's MRE allow-list is embedded in its binary, so an update is the
    deployment of a *new CA*. The coordinator requires the PALAEMON board's
    quorum before constructing the successor.
    """

    def __init__(self, board: BoardSpec, evaluator: BoardEvaluator,
                 requester: Certificate) -> None:
        self.board = board
        self.evaluator = evaluator
        self.requester = requester

    def approve_and_build(self, current_ca: PalaemonCA,
                          new_mrenclaves: FrozenSet[bytes],
                          rng: DeterministicRandom,
                          version: str) -> PalaemonCA:
        """Run the board round; build the successor CA only on approval."""
        digest = sha256(b"ca-update", version.encode(),
                        *sorted(new_mrenclaves))
        request = AccessRequest(
            policy_name="palaemon-ca", operation="update",
            requester_fingerprint=self.requester.fingerprint(),
            change_digest=digest, nonce=rng.bytes(16))
        outcome = self.evaluator.evaluate_local(self.board, request)
        BoardEvaluator.enforce(self.board, request, outcome)
        return current_ca.updated(new_mrenclaves, rng, version=version)
