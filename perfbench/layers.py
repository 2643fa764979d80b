"""Which program functions belong to which layer, for the traced run.

Each layer is a module (or a group of modules) of ``src/repro``. The
tracer wraps the public synchronous functions listed here; the names are
``<layer>:<function>``, so a layer's self time is the sum over its names.
"""

from __future__ import annotations

from collections import Counter

from hosttrace import HostTracer


def _count(name: str, size=None):
    """A count hook: one call, plus ``size(args, result)`` bytes if given."""
    def hook(counts: Counter, args: tuple, result) -> None:
        counts[name] += 1
        if size is not None:
            counts[name + ".bytes"] += size(args, result)
    return hook


def _route(args: tuple) -> str:
    request = args[1] if len(args) > 1 else None
    route = request.get("route") if isinstance(request, dict) else None
    return f"core.dispatch:handle:{route}"


def _dispatch_reply(counts: Counter, args: tuple, reply) -> None:
    counts["core.dispatch.requests"] += 1
    if isinstance(reply, dict) and "error" in reply:
        counts["core.dispatch.errors"] += 1


def _block_write(counts: Counter, args: tuple, _result) -> None:
    """Split untrusted-store writes between the database and the shield."""
    path, data = args[1], args[2]
    if path.startswith("/palaemon.db"):
        counts["core.store.bytes_written"] += len(data)
        # Every flush ends by rewriting the sealed manifest once.
        if path == "/palaemon.db.manifest":
            counts["core.store.flushes"] += 1
    elif not path.startswith("/palaemon."):
        counts["fs.bytes_written"] += len(data)


def build_tracer() -> HostTracer:
    """A tracer covering every layer of the interaction map."""
    from repro.core import attestation
    from repro.core.board import ApprovalService, BoardEvaluator
    from repro.core.dispatch import Dispatcher
    from repro.core.service import PalaemonService
    from repro.core.store import PolicyStore
    from repro.crypto import signatures
    from repro.crypto.merkle import MerkleTree
    from repro.crypto.symmetric import AEADCipher
    from repro.fs.blockstore import BlockStore
    from repro.fs.shield import ProtectedFileSystem
    from repro.obs.telemetry import Telemetry
    from repro.obs.tracing import Tracer
    from repro.sim.core import Simulator
    from repro.tee.platform import SGXPlatform
    from repro.tee.quoting import QuotingEnclave
    from repro.tls import handshake
    from repro.tls.channel import SecureChannel

    tracer = HostTracer()
    add = tracer.add

    add(AEADCipher, "__init__", "crypto.symmetric:init")
    add(AEADCipher, "encrypt", "crypto.symmetric:encrypt",
        _count("crypto.symmetric.sealed", lambda a, r: len(a[1])))
    add(AEADCipher, "decrypt", "crypto.symmetric:decrypt",
        _count("crypto.symmetric.opened", lambda a, r: len(r)))

    add(signatures.KeyPair, "generate", "crypto.signatures:keygen")
    add(signatures.SigningKey, "sign", "crypto.signatures:sign",
        _count("crypto.signatures.signs"))
    add(signatures, "verify_signature", "crypto.signatures:verify",
        _count("crypto.signatures.verifies"))

    for method in ("set_leaf", "set_leaf_hash", "remove_leaf", "root",
                   "prove"):
        add(MerkleTree, method, f"crypto.merkle:{method}")

    add(SGXPlatform, "launch_instant", "tee:launch")
    add(QuotingEnclave, "quote", "tee:quote")

    for method in ("__init__", "verify_tag", "write", "read", "sync",
                   "close_file", "on_exit"):
        add(ProtectedFileSystem, method, f"fs.shield:{method}")

    add(SecureChannel, "seal", "tls:record_seal",
        _count("tls.records", lambda a, r: len(r)))
    add(SecureChannel, "open", "tls:record_open",
        _count("tls.records", lambda a, r: len(a[1])))
    add(handshake, "perform_handshake", "tls:handshake")

    add(Dispatcher, "handle", "core.dispatch:handle", _dispatch_reply,
        name_of=_route)

    for method in ("attest_application", "create_policy", "read_policy",
                   "update_policy", "delete_policy", "list_policies",
                   "update_tag_instant", "get_tag_instant",
                   "update_volume_tag", "get_volume_tag"):
        add(PalaemonService, method, f"core.service:{method}")

    add(attestation, "verify_evidence", "core.attestation:verify")

    add(BoardEvaluator, "evaluate_local", "core.board:evaluate",
        _count("core.board.rounds"))
    add(BoardEvaluator, "enforce", "core.board:enforce")
    add(ApprovalService, "decide_local", "core.board:decide")

    add(PolicyStore, "commit_instant", "core.store:commit_instant")
    add(BlockStore, "write", "fs.blockstore:write", _block_write)
    for method in ("get", "put", "delete", "touch", "keys"):
        add(PolicyStore, method, f"core.store:{method}")

    add(Simulator, "step", "sim:step")

    for method in ("inc", "gauge", "observe", "audit", "span"):
        add(Telemetry, method, f"obs:{method}")
    add(Tracer, "finish", "obs:span_finish")
    return tracer
