"""Fig 7 — enclave startup times vs enclave size (80 kB binary).

Left bars: PALAEMON measures only code, so startup stays near-flat as heap
grows. Right bars: a naive loader measures all pages, so startup grows
linearly at the ~148 MB/s measurement rate, reaching ~800 ms at 128 MB.
"""

from repro import calibration
from repro.benchlib.tables import format_table
from repro.tee.image import build_image
from repro.tee.loader import MeasurementScope

from benchmarks.conftest import load_into_roomy_epc, run_once

_SIZES_MB = (1, 2, 4, 8, 16, 32, 64, 128)


def _startup_sweep():
    rows = []
    for size_mb in _SIZES_MB:
        image = build_image("fig7", code_size=80 * calibration.KB,
                            data_size=16 * calibration.KB,
                            heap_bytes=size_mb * calibration.MB
                            - 96 * calibration.KB)
        palaemon = load_into_roomy_epc(image, MeasurementScope.CODE_ONLY)
        naive = load_into_roomy_epc(image, MeasurementScope.ALL_PAGES)
        rows.append((size_mb, palaemon, naive))
    return rows


def test_fig7_startup_times(benchmark):
    rows = run_once(benchmark, _startup_sweep)

    table = []
    for size_mb, palaemon, naive in rows:
        table.append([
            size_mb,
            palaemon.total_seconds * 1e3, naive.total_seconds * 1e3,
            naive.addition_seconds * 1e3, naive.measurement_seconds * 1e3,
            naive.bookkeeping_seconds * 1e3,
        ])
    print()
    print(format_table(
        ["size (MB)", "palaemon (ms)", "naive (ms)", "naive add (ms)",
         "naive measure (ms)", "naive bookkeep (ms)"],
        table,
        title="Fig 7: startup time vs enclave size (80 kB binary)"))

    by_size = {size: (p, n) for size, p, n in rows}

    # Naive at 128 MB: ~800 ms in the paper (measurement-dominated).
    naive_128 = by_size[128][1].total_seconds
    assert 0.7 <= naive_128 <= 1.1

    # PALAEMON stays far below naive at large sizes (measures only 96 kB).
    palaemon_128 = by_size[128][0].total_seconds
    assert palaemon_128 < naive_128 / 4
    assert by_size[128][0].measurement_seconds < 0.002

    # Naive grows roughly linearly with size; PALAEMON grows sub-linearly
    # (only addition/bookkeeping grow).
    naive_ratio = naive_128 / by_size[16][1].total_seconds
    assert 6 <= naive_ratio <= 10  # ~8x for 8x the size
    palaemon_ratio = palaemon_128 / by_size[16][0].total_seconds
    assert palaemon_ratio < naive_ratio

    # For small PALAEMON enclaves, bookkeeping + addition dominate the slow
    # measurement (the paper's point about dynamic heap allocation).
    small = by_size[1][0]
    assert (small.bookkeeping_seconds + small.addition_seconds
            > small.measurement_seconds)
