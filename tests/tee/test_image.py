"""Tests for enclave images and MRENCLAVE measurement."""

import dataclasses

import pytest

from repro import calibration
from repro.crypto.primitives import sha256
from repro.errors import EnclaveError
from repro.tee.image import EnclaveImage, build_image


def measured(image):
    """MRENCLAVE written out: every page of the code and then the data
    segment, zero-padded, extends the digest with its offset."""
    page = calibration.PAGE_SIZE
    parts = [b"mrenclave-v1", image.version.encode()]
    offset = 0
    for segment in (image.code, image.initialized_data):
        segment += b"\x00" * (-len(segment) % page)
        for start in range(0, len(segment), page):
            parts += [offset.to_bytes(8, "big"),
                      sha256(segment[start:start + page])]
            offset += page
    return sha256(*parts)


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


class TestMeasuredOnce:
    def test_cached_value_is_the_full_measurement(self):
        for image in (build_image("app", seed=b"s"),
                      EnclaveImage("app", b"x" * 5000, b"", heap_bytes=0)):
            assert image.mrenclave() == measured(image)
            assert image.mrenclave() is image.mrenclave()

    def test_replace_measures_the_new_image(self):
        image = build_image("app", version="1.0")
        update = dataclasses.replace(image, version="2.0")
        assert update.mrenclave() == measured(update)
        assert update.mrenclave() != image.mrenclave()

    def test_equal_images_compare_equal(self):
        a = build_image("app", seed=b"s")
        b = EnclaveImage(a.name, bytes(a.code), bytes(a.initialized_data),
                         heap_bytes=a.heap_bytes, version=a.version)
        assert a == b and hash(a) == hash(b)
        assert "_mrenclave" not in repr(a)


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
