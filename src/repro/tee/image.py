"""Enclave images and MRENCLAVE measurement.

An enclave image is the unit of identity in the whole system: PALAEMON
policies whitelist MRENCLAVEs, the PALAEMON CA embeds the MRENCLAVEs of
correct PALAEMON versions, and a software update is precisely "a new image,
hence a new MRENCLAVE". The measurement covers the code and initialized-data
pages in page order (EEXTEND semantics); heap pages added at runtime are
zeroed and *not* measured, which is what makes PALAEMON's measure-only-code
startup (Fig 7) sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import calibration
from repro.crypto.primitives import sha256
from repro.errors import EnclaveError


@dataclass(frozen=True)
class EnclaveImage:
    """An immutable enclave binary plus its memory layout.

    Attributes
    ----------
    name:
        Human-readable image name (e.g. ``"python-3.7-scone"``).
    code:
        Code bytes; measured.
    initialized_data:
        Initialized data segment; measured.
    heap_bytes:
        Requested heap size. Heap pages are zeroed on allocation and are not
        part of the measurement.
    version:
        Image version string; part of the measurement (a new version of the
        same code is a different MRENCLAVE, as in real SGX where any byte
        change alters MRE).
    """

    name: str
    code: bytes
    initialized_data: bytes
    heap_bytes: int
    version: str = "1.0"
    _mrenclave: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.code:
            raise EnclaveError(f"image {self.name!r} has no code")
        if self.heap_bytes < 0:
            raise EnclaveError("heap size cannot be negative")
        # The image is frozen, so it is measured once.
        object.__setattr__(self, "_mrenclave", self._measure())

    @property
    def measured_bytes(self) -> int:
        """Bytes covered by the measurement (code + initialized data)."""
        return _page_aligned(len(self.code)) + _page_aligned(
            len(self.initialized_data))

    @property
    def total_bytes(self) -> int:
        """Full enclave size including heap."""
        return self.measured_bytes + _page_aligned(self.heap_bytes)

    def mrenclave(self) -> bytes:
        """The enclave measurement: SHA-256 over measured pages in order.

        Mirrors EINIT's final MRENCLAVE: every measured page extends the
        digest together with its offset, so both content and layout are
        bound.
        """
        return self._mrenclave

    def _measure(self) -> bytes:
        digest_parts = [b"mrenclave-v1", self.version.encode()]
        offset = 0
        for segment in (self.code, self.initialized_data):
            padded = _pad_to_page(segment)
            for start in range(0, len(padded), calibration.PAGE_SIZE):
                page = padded[start:start + calibration.PAGE_SIZE]
                digest_parts.append(offset.to_bytes(8, "big"))
                digest_parts.append(sha256(page))
                offset += calibration.PAGE_SIZE
        return sha256(*digest_parts)


def _page_aligned(size: int) -> int:
    pages = (size + calibration.PAGE_SIZE - 1) // calibration.PAGE_SIZE
    return pages * calibration.PAGE_SIZE


def _pad_to_page(data: bytes) -> bytes:
    return data + b"\x00" * (_page_aligned(len(data)) - len(data))


def build_image(name: str, code_size: int = 80 * calibration.KB,
                data_size: int = 16 * calibration.KB,
                heap_bytes: int = 4 * calibration.MB,
                version: str = "1.0",
                seed: bytes = b"") -> EnclaveImage:
    """Build a synthetic image of the given segment sizes.

    The default 80 kB code size matches the minimal binary used in the
    paper's startup benchmarks (Fig 7). Content is derived from the name,
    version, and seed so different "builds" have different MRENCLAVEs.
    """
    material = sha256(name.encode(), version.encode(), seed)
    code = (material * (code_size // 32 + 1))[:code_size]
    data = (sha256(material) * (data_size // 32 + 1))[:data_size]
    return EnclaveImage(name=name, code=code, initialized_data=data,
                        heap_bytes=heap_bytes, version=version)
