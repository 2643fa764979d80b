"""Tests for enclave images and MRENCLAVE measurement."""

import pytest

from repro import calibration
from repro.errors import EnclaveError
from repro.tee.image import EnclaveImage, build_image


class TestMrenclave:
    def test_deterministic(self):
        a = build_image("app", seed=b"s")
        b = build_image("app", seed=b"s")
        assert a.mrenclave() == b.mrenclave()

    def test_code_change_changes_measurement(self):
        image = build_image("app")
        patched = EnclaveImage(image.name, image.code[:-1] + b"\x01",
                               image.initialized_data,
                               heap_bytes=image.heap_bytes,
                               version=image.version)
        assert patched.mrenclave() != image.mrenclave()

    def test_version_change_changes_measurement(self):
        image = build_image("app", version="1.0")
        update = build_image("app", version="2.0")
        assert image.mrenclave() != update.mrenclave()

    def test_data_change_changes_measurement(self):
        a = EnclaveImage("app", b"code", b"data-a", heap_bytes=0)
        b = EnclaveImage("app", b"code", b"data-b", heap_bytes=0)
        assert a.mrenclave() != b.mrenclave()

    def test_heap_size_not_measured(self):
        """Heap pages are zeroed and unmeasured: same MRE for any heap size."""
        small = EnclaveImage("app", b"code", b"data", heap_bytes=calibration.MB)
        large = EnclaveImage("app", b"code", b"data",
                             heap_bytes=64 * calibration.MB)
        assert small.mrenclave() == large.mrenclave()

    def test_layout_bound_to_measurement(self):
        """Moving a byte across the code/data boundary changes the MRE."""
        a = EnclaveImage("app", b"codeX", b"data", heap_bytes=0)
        b = EnclaveImage("app", b"code", b"Xdata", heap_bytes=0)
        assert a.mrenclave() != b.mrenclave()


class TestSizes:
    def test_page_alignment(self):
        image = EnclaveImage("app", b"x", b"y", heap_bytes=1)
        assert image.measured_bytes == 2 * calibration.PAGE_SIZE
        assert image.total_bytes == 3 * calibration.PAGE_SIZE

    def test_measured_vs_total(self):
        image = build_image("app", code_size=80 * calibration.KB,
                            data_size=16 * calibration.KB,
                            heap_bytes=4 * calibration.MB)
        assert image.measured_bytes == 96 * calibration.KB
        assert image.total_bytes == 96 * calibration.KB + 4 * calibration.MB
        assert image.measured_bytes % calibration.PAGE_SIZE == 0

    def test_empty_code_rejected(self):
        with pytest.raises(EnclaveError):
            EnclaveImage("app", b"", b"data", heap_bytes=0)

    def test_negative_heap_rejected(self):
        with pytest.raises(EnclaveError):
            EnclaveImage("app", b"code", b"", heap_bytes=-1)


class TestBuildImage:
    def test_different_names_different_mre(self):
        assert build_image("a").mrenclave() != build_image("b").mrenclave()

    def test_different_seeds_different_mre(self):
        assert (build_image("a", seed=b"1").mrenclave()
                != build_image("a", seed=b"2").mrenclave())

    def test_requested_sizes(self):
        image = build_image("a", code_size=100_000, data_size=5_000)
        assert len(image.code) == 100_000
        assert len(image.initialized_data) == 5_000
