"""The §VI production use case: handwriting-to-digital ML inference.

A company serves handwriting-recognition inference. The assets and their
owners: input images (customers), the Python inference engine and models
(the company). Nobody shares keys: the customer encrypts inputs with its
file-system key; the company encrypts code and models with its own; a
dedicated security policy in PALAEMON gives the *attested engine* — and only
it — access to both.

The measured numbers: 323 ms per image natively, 1202 ms under PALAEMON
(a 3.7x slowdown the customer accepted because results stay under 1.5 s).
"""

from __future__ import annotations

from typing import Any, Generator

from repro import calibration
from repro.apps.base import SimulatedServer
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Event, Simulator
from repro.tee.enclave import ExecutionMode

_INFERENCE_SECONDS = {
    ExecutionMode.NATIVE: calibration.ML_NATIVE_INFERENCE_SECONDS,
    # EMU: shields without SGX costs — between the two.
    ExecutionMode.EMULATED: calibration.ML_NATIVE_INFERENCE_SECONDS * 1.4,
    ExecutionMode.HARDWARE: calibration.ML_PALAEMON_INFERENCE_SECONDS,
}


class InferenceService(SimulatedServer):
    """The handwriting-inference pipeline over shielded volumes."""

    def __init__(self, simulator: Simulator,
                 mode: ExecutionMode = ExecutionMode.HARDWARE) -> None:
        super().__init__(simulator, "inference", _INFERENCE_SECONDS[mode],
                         threads=4)
        self.mode = mode
        rng = DeterministicRandom(b"ml-service")
        # Two separately keyed shielded volumes: the company's (code +
        # models) and the customer's (input images, output text).
        self.company_volume = BlockStore("company-volume")
        self.company_key = rng.fork(b"company-key").bytes(32)
        self.company_fs = ProtectedFileSystem(
            self.company_volume, self.company_key,
            rng.fork(b"company-fs"))
        self.customer_volume = BlockStore("customer-volume")
        self.customer_key = rng.fork(b"customer-key").bytes(32)
        self.customer_fs = ProtectedFileSystem(
            self.customer_volume, self.customer_key,
            rng.fork(b"customer-fs"))
        self.images_processed = 0

    def install_model(self, name: str, weights: bytes) -> bytes:
        """The company ships an (encrypted) model; returns the FS tag."""
        self.company_fs.write(f"/models/{name}", weights)
        return self.company_fs.sync()

    def submit_image(self, image_id: str, pixels: bytes) -> bytes:
        """The customer uploads an (encrypted) input image."""
        self.customer_fs.write(f"/inbox/{image_id}", pixels)
        return self.customer_fs.sync()

    def process_image(self, image_id: str, model: str,
                      ) -> Generator[Event, Any, str]:
        """Run inference on one image; returns the recognized text.

        The "model" is applied as a deterministic digest over weights and
        pixels — a stand-in with real data dependence: wrong weights or a
        tampered image change (or fail) the result.
        """
        pixels = self.customer_fs.read(f"/inbox/{image_id}")
        weights = self.company_fs.read(f"/models/{model}")
        yield from self.serve()
        text = "text:" + sha256(weights, pixels).hex()[:24]
        self.customer_fs.write(f"/outbox/{image_id}", text.encode())
        self.customer_fs.sync()
        self.images_processed += 1
        return text

    def fetch_result(self, image_id: str) -> bytes:
        return self.customer_fs.read(f"/outbox/{image_id}")
