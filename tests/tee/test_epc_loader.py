"""Tests for the EPC and the enclave loader."""

import pytest

from repro import calibration
from repro.errors import EnclaveError
from repro.sim.core import Simulator
from repro.tee.epc import EnclavePageCache
from repro.tee.image import build_image
from repro.tee.loader import EnclaveLoader, MeasurementScope


class TestEpcAccounting:
    def test_allocate_and_free(self):
        sim = Simulator()
        epc = EnclavePageCache(sim, size_bytes=100 * calibration.MB,
                               usable_fraction=1.0)

        def main():
            evicted = yield sim.process(epc.allocate(10 * calibration.MB))
            return evicted

        assert sim.run_process(main()) == 0
        assert epc.allocated_bytes == 10 * calibration.MB
        epc.free(10 * calibration.MB)
        assert epc.allocated_bytes == 0

    def test_eviction_when_over_capacity(self):
        sim = Simulator()
        epc = EnclavePageCache(sim, size_bytes=10 * calibration.MB,
                               usable_fraction=1.0)

        def main():
            yield sim.process(epc.allocate(8 * calibration.MB))
            evicted = yield sim.process(epc.allocate(5 * calibration.MB))
            return evicted

        assert sim.run_process(main()) == 3 * calibration.MB
        assert epc.evicted_bytes == 3 * calibration.MB

    def test_negative_allocation_rejected(self):
        sim = Simulator()
        epc = EnclavePageCache(sim)

        def main():
            yield sim.process(epc.allocate(-1))

        with pytest.raises(EnclaveError):
            sim.run_process(main())

    def test_negative_free_rejected(self):
        with pytest.raises(EnclaveError):
            EnclavePageCache(Simulator()).free(-1)


class TestLoader:
    def make(self, epc_mb=128):
        sim = Simulator()
        epc = EnclavePageCache(sim, size_bytes=epc_mb * calibration.MB,
                               usable_fraction=1.0)
        return sim, EnclaveLoader(sim, epc)

    def load(self, image, scope=MeasurementScope.CODE_ONLY, epc_mb=128):
        sim, loader = self.make(epc_mb)
        return sim.run_process(loader.load(image, scope=scope))

    def test_code_only_measures_less_than_all_pages(self):
        image = build_image("app", heap_bytes=32 * calibration.MB)
        report = self.load(image, MeasurementScope.CODE_ONLY)
        naive = self.load(image, MeasurementScope.ALL_PAGES)
        assert report.measurement_seconds < naive.measurement_seconds / 100

    def test_measurement_dominates_naive_large_enclaves(self):
        """Fig 7 right bars: at 128 MB, measuring all pages dominates."""
        image = build_image("app", heap_bytes=128 * calibration.MB)
        naive = self.load(image, MeasurementScope.ALL_PAGES, epc_mb=256)
        assert naive.eviction_seconds == 0
        assert naive.measurement_seconds > naive.addition_seconds
        assert naive.measurement_seconds > naive.bookkeeping_seconds
        # ~865 ms at 148 MB/s for 128 MB.
        assert 0.7 < naive.measurement_seconds < 1.0

    def test_bookkeeping_and_addition_dominate_palaemon_loads(self):
        """Fig 7 left bars: with code-only measurement, copying dominates."""
        image = build_image("app", heap_bytes=128 * calibration.MB)
        fast = self.load(image, MeasurementScope.CODE_ONLY, epc_mb=256)
        assert fast.measurement_seconds < fast.bookkeeping_seconds

    def test_driver_lock_serializes_parallel_loads(self):
        """Two concurrent loads cannot overlap their lock-held phase."""
        sim, loader = self.make()
        image = build_image("tiny", code_size=8 * calibration.KB,
                            data_size=0, heap_bytes=0)

        def load_one():
            yield sim.process(loader.load(image))
            return sim.now

        def main():
            results = yield sim.all_of([sim.process(load_one()),
                                        sim.process(load_one())])
            return results

        finish_times = sim.run_process(main())
        # Each load holds the lock for SGX_DRIVER_LOCK_SECONDS_PER_START, so
        # the second finishes at least one lock period after the first.
        spread = abs(finish_times[0] - finish_times[1])
        assert spread >= calibration.SGX_DRIVER_LOCK_SECONDS_PER_START * 0.99

    def test_eviction_cost_charged_when_epc_exceeded(self):
        sim, loader = self.make(epc_mb=16)
        big = build_image("big", heap_bytes=14 * calibration.MB)
        bigger = build_image("bigger", heap_bytes=14 * calibration.MB)

        def main():
            first = yield sim.process(loader.load(big))
            second = yield sim.process(loader.load(bigger))
            return first, second

        first, second = sim.run_process(main())
        assert first.eviction_seconds == 0.0
        assert second.eviction_seconds > 0.0

    def test_unload_frees_pages(self):
        sim, loader = self.make()
        image = build_image("app", heap_bytes=calibration.MB)

        def main():
            yield sim.process(loader.load(image))

        sim.run_process(main())
        before = loader.epc.allocated_bytes
        loader.unload(image)
        assert loader.epc.allocated_bytes == before - image.total_bytes
