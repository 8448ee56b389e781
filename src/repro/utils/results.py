"""Result records and plain-text rendering for experiment outputs.

The experiment reports reproduce the paper's tables and figures as printed
rows/series plus CSV files.  :func:`write_chart` and :func:`render_table`
keep that uniform across all of them.
"""

from __future__ import annotations

import csv
import json
import os

__all__ = [
    "canonical_json",
    "render_table",
    "write_canonical_json",
    "write_chart",
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


def write_chart(
    results_dir: str,
    name: str,
    title: str,
    x_label: str,
    y_label: str,
    series: dict[str, list[tuple[float, float]]],
) -> str:
    """Print one chart and write it as ``<results_dir>/<name>.csv``.

    ``series`` maps each line's label to its ``(x, y)`` points.  The text
    lists every line under a title header; the CSV holds one long-format
    ``series, x, y`` row per point.  Returns the CSV path.
    """
    lines = [f"== {name}: {title} ==", f"   ({x_label} vs {y_label})"]
    rows = []
    for label, points in series.items():
        lines.append(f"-- {label}")
        for x, y in points:
            lines.append(f"   {float(x):>10.3f}  {float(y):>10.4f}")
            rows.append((label, float(x), float(y)))
    os.makedirs(results_dir, exist_ok=True)
    print()
    print("\n".join(lines))
    path = os.path.join(results_dir, f"{name}.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["series", x_label, y_label])
        writer.writerows(rows)
    print(f"[csv] {path}")
    return path


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
