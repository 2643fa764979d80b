#!/usr/bin/env python3
"""The paper's motivating use case (Fig 1-2, SS VI): Byzantine stakeholders
around a machine-learning pipeline.

Cast:
- the *software provider* owns the Python ML engine (CIF-protected code);
- the *model provider* runs the engine on training data to produce models,
  and must never see the engine's code;
- the software provider limits how many models may be produced; the model
  provider tries to cheat with a rollback attack and gets caught;
- each run publishes its model on an encrypted volume that the training
  policy exports to a model-serving policy, whose application mounts it
  with its own grant (List 1's ``export``; footnote 1's per-volume tags).

Run:  python examples/ml_pipeline.py
"""

from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import (
    SecurityPolicy,
    ServiceSpec,
    VolumeImportSpec,
    VolumeSpec,
)
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.errors import StrictModeError, TagMismatchError
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.sim.core import Simulator
from repro.sim.network import Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

MODEL_QUOTA = 3


def main() -> None:
    rng = DeterministicRandom(b"ml-pipeline")
    simulator = Simulator()
    platform = SGXPlatform(simulator, "cloud-node", rng.fork(b"platform"))
    ias = IntelAttestationService(simulator, Site.IAS_US, rng.fork(b"ias"))
    ias.register_platform(platform.quoting_enclave.attestation_public_key,
                          platform.microcode.revision)
    palaemon = PalaemonService(platform, BlockStore("palaemon-volume"),
                               rng.fork(b"palaemon"))
    palaemon.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    simulator.run_process(palaemon.start())
    ca = PalaemonCA(platform, ias, frozenset({palaemon.mrenclave}),
                    rng.fork(b"ca"))
    palaemon.obtain_certificate(ca)

    # The software provider owns the policy; its engine runs in strict
    # mode so unclean exits (and rollbacks) freeze the pipeline.
    software_provider = PalaemonClient("software-provider",
                                       rng.fork(b"sw-provider"))
    software_provider.attest_instance_via_ca(palaemon, ca.root_public_key,
                                             now=simulator.now)
    engine_image = build_image("python-ml-engine", seed=b"engine-v1")
    policy = SecurityPolicy(
        name="ml_training",
        services=[ServiceSpec(
            name="trainer",
            image_name="python-ml-engine",
            command=["python", "/engine/train.py"],
            mrenclaves=[engine_image.mrenclave()],
            strict_mode=True,
        )],
        secrets=[SecretSpec(name="CODE_KEY", kind=SecretKind.RANDOM)],
        volumes=[VolumeSpec(name="models", path="/models",
                            export_to="model_serving")],
    )
    software_provider.create_policy(palaemon, policy)
    print("Software provider registered the strict-mode training policy.")

    # The model provider runs training jobs on a volume it controls, and
    # publishes each model on the exported, encrypted models volume.
    runtime = SconeRuntime(platform, palaemon, rng.fork(b"runtime"))
    volume = BlockStore("model-provider-volume")
    models_volume = BlockStore("models-volume")

    def train_once(label: str) -> None:
        executions = palaemon.execution_count("ml_training", "trainer")
        if executions >= MODEL_QUOTA:
            raise PermissionError(
                f"quota of {MODEL_QUOTA} training runs exhausted")
        app = runtime.launch(engine_image, "ml_training", "trainer",
                             volume=volume)
        produced = executions + 1
        weights = f"model-{produced}-weights".encode()
        app.write_file("/output/model.bin", weights)
        app.write_file("/state/run-count", str(produced).encode())
        models = app.mount_volume("models", models_volume)
        models.write("/models/latest.bin", weights)
        models.sync()  # pushes the volume tag to PALAEMON
        app.exit_cleanly()
        print(f"  {label}: produced model #{produced} "
              f"(PALAEMON counted {produced}/{MODEL_QUOTA} executions)")

    print(f"Model provider trains up to its quota of {MODEL_QUOTA}:")
    train_once("run 1")
    checkpoint = volume.snapshot()  # the model provider quietly checkpoints
    train_once("run 2")
    train_once("run 3")

    # Quota exhausted; honest retry fails.
    try:
        train_once("run 4 (over quota)")
    except PermissionError as exc:
        print(f"  run 4 refused: {exc}")

    # The rollback attack: restore the volume to the post-run-1 state and
    # hope PALAEMON forgets runs 2-3. The expected tag gives it away.
    print("Model provider attempts a rollback attack "
          "(restores the post-run-1 volume snapshot)...")
    volume.restore(checkpoint)
    try:
        runtime.launch(engine_image, "ml_training", "trainer", volume=volume)
        raise AssertionError("rollback was not detected!")
    except TagMismatchError as exc:
        print(f"  DETECTED: {exc}")

    # Even the execution counter is unaffected: PALAEMON's own database is
    # rollback-protected by the Fig 6 counter protocol.
    count = palaemon.execution_count("ml_training", "trainer")
    print(f"PALAEMON's execution count stands at {count} (the rollback "
          f"attempt itself was attested, then refused at mount): the quota "
          f"cannot be reset.")

    # Confidentiality: neither the engine's code key nor the models are
    # readable from the untrusted volumes.
    assert volume.scan_for(b"model-1-weights") == []
    assert volume.scan_for(b"model-2-weights") == []
    assert models_volume.scan_for(b"model-3-weights") == []
    print("Models on the model provider's volume are encrypted at rest.")

    # A model-serving policy imports the models volume: its application
    # gets the volume's key and expected tag from PALAEMON, so it decrypts
    # the newest model and would refuse a rolled-back volume.
    server_image = build_image("model-server", seed=b"server-v1")
    model_user = PalaemonClient("model-user", rng.fork(b"model-user"))
    model_user.attest_instance_via_ca(palaemon, ca.root_public_key,
                                      now=simulator.now)
    model_user.create_policy(palaemon, SecurityPolicy(
        name="model_serving",
        services=[ServiceSpec(name="server", image_name="model-server",
                              mrenclaves=[server_image.mrenclave()])],
        volume_imports=[VolumeImportSpec(from_policy="ml_training",
                                         volume_name="models")],
    ))
    server = runtime.launch(server_image, "model_serving", "server")
    served = server.mount_volume("models", models_volume)
    print(f"Model serving mounted the imported volume (tag verified) and "
          f"loaded {served.read('/models/latest.bin').decode()}.")

    # Strict mode also freezes the pipeline: the refused rollback run was
    # attested but never exited cleanly, so restarts need a policy update.
    try:
        runtime.launch(engine_image, "ml_training", "trainer",
                       volume=BlockStore("fresh-volume"))
        raise AssertionError("strict mode let the pipeline restart!")
    except StrictModeError as exc:
        print(f"Strict mode after the unclean run: {exc}")
    print("Done.")


if __name__ == "__main__":
    main()
