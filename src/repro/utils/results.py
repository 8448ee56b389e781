"""Result records and plain-text rendering for experiment outputs.

The experiment reports reproduce the paper's tables and figures as printed
rows/series plus CSV files.  These small containers keep that uniform across
all of them.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

__all__ = [
    "SeriesResult",
    "ExperimentResult",
    "canonical_json",
    "write_canonical_json",
    "render_table",
]


def canonical_json(payload) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, no trailing newline.

    This is the byte-identical comparison format shared by the benchmark
    JSON artifacts and the experiment result store — rerunning a
    deterministic experiment must reproduce the file exactly.
    """
    return json.dumps(payload, sort_keys=True, indent=2)


def write_canonical_json(path: str, payload) -> str:
    """Write ``payload`` as canonical JSON (plus trailing newline) to ``path``.

    Creates the parent directory if needed; returns ``path``.  The write
    is atomic (temp file + rename) so an interrupt never leaves a
    truncated file — the experiment store flushes through here after
    every completed point, and a half-written store would turn "resume
    the sweep" into "JSONDecodeError".
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(canonical_json(payload))
        f.write("\n")
    os.replace(tmp, path)
    return path


@dataclass
class SeriesResult:
    """One plotted line: a label plus aligned x/y samples."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.x.append(float(x))
        self.y.append(float(y))

    def as_rows(self) -> list[tuple[str, float, float]]:
        return [(self.label, xi, yi) for xi, yi in zip(self.x, self.y)]


@dataclass
class ExperimentResult:
    """A named experiment (one paper figure or table) and its series."""

    experiment_id: str
    title: str
    x_label: str = "x"
    y_label: str = "y"
    series: list[SeriesResult] = field(default_factory=list)

    def new_series(self, label: str) -> SeriesResult:
        s = SeriesResult(label)
        self.series.append(s)
        return s

    def write_csv(self, directory: str) -> str:
        """Write all series as long-format CSV; returns the file path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.csv")
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["series", self.x_label, self.y_label])
            for s in self.series:
                writer.writerows(s.as_rows())
        return path

    def render(self) -> str:
        """Human-readable dump of all series, matching the paper's axes."""
        lines = [f"== {self.experiment_id}: {self.title} ==",
                 f"   ({self.x_label} vs {self.y_label})"]
        for s in self.series:
            lines.append(f"-- {s.label}")
            for xi, yi in zip(s.x, s.y):
                lines.append(f"   {xi:>10.3f}  {yi:>10.4f}")
        return "\n".join(lines)


def render_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a fixed-width text table (used for paper tables)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), sep]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
