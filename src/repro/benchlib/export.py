"""Export experiment results as JSON for external plotting.

Downstream users reproduce the paper's figures with their own plotting
stack; this module flattens :class:`ExperimentResult` curves and
paper-vs-measured comparisons into plain JSON-serializable structures and
writes them to disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence, Union

from repro.benchlib.harness import ExperimentResult
from repro.benchlib.tables import PaperComparison
from repro.sim.metrics import summary_to_dict


def result_to_dict(result: ExperimentResult) -> dict:
    """Flatten one curve into JSON-serializable primitives."""
    return {
        "name": result.name,
        "points": [
            {
                "offered_rate": point.offered_rate,
                "achieved_rate": point.achieved_rate,
                "latency": summary_to_dict(point.latency),
            }
            for point in result.points
        ],
    }


def comparison_to_dict(comparison: PaperComparison) -> dict:
    return {
        "metric": comparison.metric,
        "paper": comparison.paper_value,
        "measured": comparison.measured_value,
        "unit": comparison.unit,
        "ratio": comparison.ratio,
        "within_tolerance": comparison.within_tolerance,
    }


def export_experiment(path: Union[str, Path], experiment_id: str,
                      curves: Sequence[ExperimentResult] = (),
                      comparisons: Sequence[PaperComparison] = (),
                      extra: Dict = None) -> Path:
    """Write one experiment's results to ``path`` as JSON.

    Returns the path written. The document shape is stable:
    ``{"experiment": id, "curves": [...], "paper_vs_measured": [...],
    "extra": {...}}``.
    """
    document = {
        "experiment": experiment_id,
        "curves": [result_to_dict(curve) for curve in curves],
        "paper_vs_measured": [comparison_to_dict(c) for c in comparisons],
        "extra": extra or {},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
