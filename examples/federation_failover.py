#!/usr/bin/env python3
"""Decentralized PALAEMON and fail-over (Fig 12's setting + the paper's
"ongoing work" on availability).

Three PALAEMON instances — local, same data centre, and another continent —
peer after mutually attesting via the CA and talk over one simulated
network; a consumer policy on the local instance imports a secret exported
by a policy held on the remote one.
Then the local instance peers with a synchronous backup, which it enrols
with a copy of its policies; each tag update on the local instance then
returns only once the backup has acknowledged the store flush that holds
it, over that attested link, and a policy deletion reaches the backup the
same way. The local instance crashes, the backup is
promoted holding the policy and every acknowledged tag, and the crashed
primary stays fenced forever.

Run:  python examples/federation_failover.py
"""

from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.failover import FailoverCoordinator
from repro.core.federation import FederatedInstance, Federation
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.sim.core import Simulator
from repro.sim.network import Network, Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform


def make_instance(simulator, ias, ca, name, seed):
    rng = DeterministicRandom(seed)
    platform = SGXPlatform(simulator, f"{name}-node", rng.fork(b"platform"))
    ias.register_platform(platform.quoting_enclave.attestation_public_key,
                          platform.microcode.revision)
    service = PalaemonService(platform, BlockStore(f"{name}-volume"),
                              rng.fork(b"service"), name=name)
    service.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    simulator.run_process(service.start())
    service.obtain_certificate(ca)
    return service


def main() -> None:
    rng = DeterministicRandom(b"federation-example")
    simulator = Simulator()
    bootstrap_platform = SGXPlatform(simulator, "ca-node",
                                     rng.fork(b"ca-platform"))
    ias = IntelAttestationService(simulator, Site.IAS_US, rng.fork(b"ias"))
    ias.register_platform(
        bootstrap_platform.quoting_enclave.attestation_public_key,
        bootstrap_platform.microcode.revision)

    # One CA; every instance below runs the same (approved) PALAEMON build.
    probe = PalaemonService(bootstrap_platform, BlockStore("probe"),
                            rng.fork(b"probe"), name="probe")
    ca = PalaemonCA(bootstrap_platform, ias, frozenset({probe.mrenclave}),
                    rng.fork(b"ca"))

    local = make_instance(simulator, ias, ca, "local", b"seed-local")
    regional = make_instance(simulator, ias, ca, "regional", b"seed-regional")
    remote = make_instance(simulator, ias, ca, "remote", b"seed-remote")

    network = Network(simulator, rng.fork(b"network"))
    federation = Federation()
    sites = {"local": Site.SAME_RACK, "regional": Site.SAME_DC,
             "remote": Site.INTERCONTINENTAL_11000KM}
    for service in (local, regional, remote):
        federation.add(FederatedInstance(service, sites[service.name],
                                         ca.root_public_key, network))
    simulator.run_process(federation.connect_all())
    print(f"Federation meshed: "
          f"{ {name: inst.peers() for name, inst in federation.instances.items()} }")

    # The remote instance holds the producer policy exporting a model key.
    producer_owner = PalaemonClient("model-owner", rng.fork(b"owner"))
    producer_owner.attest_instance_via_ca(remote, ca.root_public_key,
                                          now=simulator.now)
    image = build_image("consumer-app", seed=b"v1")
    producer = SecurityPolicy(
        name="model_producer",
        services=[ServiceSpec(name="svc", image_name="img",
                              mrenclaves=[image.mrenclave()])],
        secrets=[SecretSpec(name="MODEL_KEY", kind=SecretKind.RANDOM,
                            export_to=("model_consumer",))])
    producer_owner.create_policy(remote, producer)
    print("Remote instance holds 'model_producer' "
          "(exports MODEL_KEY to 'model_consumer').")

    # The local instance fetches the exported secret across the federation.
    local_fed = federation.instances["local"]

    def fetch():
        start = simulator.now
        secrets = yield simulator.process(local_fed.fetch_remote_secrets(
            "remote", "model_producer", "model_consumer", ["MODEL_KEY"]))
        return secrets, simulator.now - start

    secrets, elapsed = simulator.run_process(fetch())
    print(f"Local instance fetched MODEL_KEY "
          f"({len(secrets['MODEL_KEY'])} bytes) from the remote continent "
          f"in {elapsed * 1e3:.0f} ms of simulated time.")
    holder = federation.locate_policy("model_producer")
    print(f"Policy discovery: 'model_producer' lives on {holder!r}.")

    # --- fail-over -----------------------------------------------------------
    app_owner = PalaemonClient("app-owner", rng.fork(b"app-owner"))
    app_owner.attest_instance_via_ca(local, ca.root_public_key,
                                     now=simulator.now)
    for name in ("app_policy", "staging_policy"):
        app_owner.create_policy(local, SecurityPolicy(
            name=name,
            services=[ServiceSpec(name=f"app-{index}", image_name="img",
                                  mrenclaves=[image.mrenclave()])
                      for index in range(3)]))
    backup = make_instance(simulator, ias, ca, "local-backup",
                           b"seed-backup")
    backup_fed = FederatedInstance(backup, Site.SAME_DC, ca.root_public_key,
                                   network)
    simulator.run_process(local_fed.peer_with(backup_fed))
    coordinator = FailoverCoordinator(local_fed, backup_fed)

    def push_tags():
        for index in range(3):
            yield simulator.process(local.update_tag(
                "app_policy", f"app-{index}", bytes([index]) * 32))

    simulator.run_process(push_tags())
    print(f"Backup enrolled with both policies; 3 tag updates each "
          f"returned on the backup's ack "
          f"(lag = {coordinator.replication_lag()}).")
    app_owner.invoke(local, "policy.delete", name="staging_policy")
    simulator.run()
    print(f"Primary deleted 'staging_policy'; the backup holds "
          f"{coordinator.backup.list_policies()}.")

    coordinator.primary_crashed()
    local_fed.stop()  # the crashed primary's peer endpoint goes down too
    simulator.run_process(coordinator.promote_backup())
    promoted_tag = coordinator.backup.get_tag_instant("app_policy", "app-2")
    print(f"Primary crashed; backup promoted (epoch {coordinator.epoch}); "
          f"replicated state intact: {promoted_tag == bytes([2]) * 32}")
    print(f"Crashed primary permanently fenced: "
          f"{coordinator.verify_primary_fenced()}. Done.")


if __name__ == "__main__":
    main()
