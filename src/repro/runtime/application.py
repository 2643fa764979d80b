"""A running, attested application: config, shielded FS, tag pushing."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.service import AppConfig, PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.fs.injection import InjectedFileView
from repro.fs.shield import ProtectedFileSystem
from repro.tee.enclave import Enclave


class RunningApplication:
    """An application after successful attestation.

    Holds the delivered configuration, the mounted shielded file system
    (verified against the expected tag), and the in-memory views of injected
    config files. ``exit_cleanly()`` performs the final tag push that strict
    mode requires.
    """

    def __init__(self, enclave: Enclave, config: AppConfig,
                 volume: BlockStore, palaemon: PalaemonService,
                 policy_name: str, service_name: str,
                 rng: DeterministicRandom) -> None:
        self.enclave = enclave
        self.config = config
        self.palaemon = palaemon
        self.policy_name = policy_name
        self.service_name = service_name
        self.exited = False

        self.fs = ProtectedFileSystem(
            volume, config.fs_key, rng.fork(b"app-fs"),
            tag_listener=self._push_tag)
        if config.fs_tag is not None:
            # Freshness check: the volume must match PALAEMON's expectation.
            self.fs.verify_tag(config.fs_tag)

        self.injected_files: Dict[str, InjectedFileView] = {}
        for path, content in config.injected_files.items():
            # Secrets were already substituted by PALAEMON; the view only
            # decides residency (enclave memory vs spill to the shielded
            # FS for oversized files, SSIV-A).
            self.injected_files[path] = InjectedFileView(path, content,
                                                         spill_fs=self.fs)

    def _push_tag(self, tag: bytes) -> None:
        self.palaemon.update_tag_instant(self.policy_name, self.service_name,
                                         tag, clean_exit=self.exited)

    # -- the application's world view ------------------------------------

    def read_file(self, path: str) -> bytes:
        """Read a file: injected views win over the shielded FS."""
        if path in self.injected_files:
            return self.injected_files[path].read()
        return self.fs.read(path)

    def write_file(self, path: str, content: bytes) -> None:
        self.fs.write(path, content)

    def argv(self) -> list:
        return list(self.config.command)

    def getenv(self, name: str) -> Optional[str]:
        return self.config.environment.get(name)

    def mount_volume(self, volume_name: str,
                     store: BlockStore) -> ProtectedFileSystem:
        """Mount one granted encrypted volume (footnote 1: multiple tags).

        The volume's key comes from the grant PALAEMON delivered; its tag is
        verified if PALAEMON holds an expectation, and future tag pushes go
        to the volume's *owning* policy — so an importing policy's writes
        keep the exporter's freshness tracking coherent.
        """
        grant = self.config.volumes.get(volume_name)
        if grant is None:
            raise KeyError(f"no volume grant named {volume_name!r}")
        rng = DeterministicRandom(
            grant.key + self.policy_name.encode() + volume_name.encode())

        def push(tag: bytes, _name=volume_name, _owner=grant.owner_policy):
            self.palaemon.update_volume_tag(_owner, _name, tag)

        volume_fs = ProtectedFileSystem(store, grant.key, rng,
                                        tag_listener=push)
        if grant.expected_tag is not None:
            volume_fs.verify_tag(grant.expected_tag)
        return volume_fs

    def exit_cleanly(self) -> None:
        """Normal termination: final tag push with the clean-exit mark."""
        self.exited = True
        self.fs.on_exit()
