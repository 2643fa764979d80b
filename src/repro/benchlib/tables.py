"""Paper-style table rendering and paper-vs-measured comparison rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned plain-text table (what the benches print)."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[index])
                           for index, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[index])
                               for index, cell in enumerate(row)))
    return "\n".join(lines)


def _render(cell) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4g}"
    return str(cell)


@dataclass
class PaperComparison:
    """One paper-vs-measured row with a tolerance check."""

    metric: str
    paper_value: float
    measured_value: float
    unit: str = ""
    rel_tolerance: float = 0.25

    @property
    def ratio(self) -> float:
        if self.paper_value == 0:
            return float("inf") if self.measured_value else 1.0
        return self.measured_value / self.paper_value

    @property
    def within_tolerance(self) -> bool:
        return abs(self.ratio - 1.0) <= self.rel_tolerance

    def row(self) -> list:
        return [self.metric, self.paper_value, self.measured_value,
                self.unit, f"{self.ratio:.2f}x",
                "ok" if self.within_tolerance else "DIVERGES"]


def paper_vs_measured(comparisons: Sequence[PaperComparison],
                      title: str) -> str:
    """Render a paper-vs-measured table (the EXPERIMENTS.md row format)."""
    return format_table(
        ["metric", "paper", "measured", "unit", "ratio", "status"],
        [comparison.row() for comparison in comparisons],
        title=title)
