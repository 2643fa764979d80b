#!/usr/bin/env python3
"""Host-time benchmark of the PALAEMON reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tag-churn --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics (``ops_per_s``,
``op_p50_ms``, ``op_tail_ms``, ``setup_s``, ``rss_peak_mb``); ``--trace
1`` prints the per-layer metrics of a traced run. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, metrics and which layer should move
which metric are described in ``perfbench/README.md`` and
``perfbench/interaction_map.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=("startup", "tag-churn", "governance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from bench import measure

    result = measure(args.workload, args.seed, args.seconds,
                     trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
