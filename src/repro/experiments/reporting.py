"""Plain-text reporting of experiment results.

The figure drivers return lists of dict records; these helpers render them
as aligned ASCII tables (the form the CLI prints) and as CSV for external
plotting.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Sequence


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}" if abs(v) < 100 else f"{v:.1f}"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def ascii_table(
    records: Sequence[dict],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render records as an aligned ASCII table."""
    if not records:
        return f"{title or 'table'}: (no records)"
    if columns is None:
        columns = list(records[0].keys())
    rows = [[format_value(rec.get(c, "")) for c in columns] for rec in records]
    widths = [
        max(len(str(c)), *(len(r[i]) for r in rows)) for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def records_to_csv(records: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Render records as CSV text.

    Non-finite floats (the NaN latency of a deadlocked point) become empty
    cells instead of the literal ``nan``, which most CSV consumers cannot
    parse as a number.
    """
    if not records:
        return ""
    if columns is None:
        columns = list(records[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for rec in records:
        writer.writerow(
            {
                k: "" if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in rec.items()
            }
        )
    return buf.getvalue()


def _cell_label(rec: dict, key: str | Sequence[str], sep: str) -> str:
    if isinstance(key, str):
        return str(rec[key])
    return sep.join(str(rec[k]) for k in key if k in rec)


def throughput_matrix(
    records: Iterable[dict],
    row_key: str | Sequence[str] = "mechanism",
    col_key: str | Sequence[str] = "traffic",
    value_key: str = "accepted",
    agg: str = "max",
) -> str:
    """Pivot sweep records into a saturation-throughput matrix.

    For each (row, col) cell, reports the aggregate of ``value_key``
    over the matching records: ``agg="max"`` (default, the saturation
    point of a load sweep — higher is better) or ``agg="min"`` (the
    best completion time of a JCT sweep — lower is better).  Records
    whose value is ``None`` or non-finite (an unfinished collective, a
    disconnected point) are skipped, leaving an empty cell when nothing
    else fills it.

    ``row_key`` / ``col_key`` may be tuples of record keys: the label is
    then their values joined (``:`` for rows, ``/`` for columns),
    skipping keys a record lacks.  Keeping the mechanism in a compound
    row key — ``("mechanism", "microarch")`` for the ablation sweep,
    ``("mechanism", "workload")`` for the workload one — stops a strong
    routing mechanism masking a weak component through max-aggregation;
    ``("mechanism", "traffic")`` rows against ``"topology"`` columns
    show the family compatibility matrix (a cell a family cannot host
    has no records and renders as ``nan``); and ``("mechanism",
    "collective")`` x ``("topology", "schedule")`` with ``agg="min"`` is
    the JCT table, whose single-network records have no ``topology`` key
    and pivot on the schedule alone.
    """
    if agg not in ("max", "min"):
        raise ValueError(f"agg must be 'max' or 'min', got {agg!r}")
    better = (lambda a, b: a > b) if agg == "max" else (lambda a, b: a < b)
    cells: dict[tuple[str, str], float] = {}
    rows: list[str] = []
    cols: list[str] = []
    for rec in records:
        r, c = _cell_label(rec, row_key, ":"), _cell_label(rec, col_key, "/")
        if r not in rows:
            rows.append(r)
        if c not in cols:
            cols.append(c)
        key = (r, c)
        v = rec[value_key]
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            continue
        if key not in cells or better(v, cells[key]):
            cells[key] = v
    header = row_key if isinstance(row_key, str) else ":".join(row_key)
    out_records = []
    for r in rows:
        rec = {header: r}
        for c in cols:
            rec[c] = cells.get((r, c), float("nan"))
        out_records.append(rec)
    return ascii_table(out_records, [header] + cols)


def curve_sparkline(points: Sequence[tuple[float, float]], width: int = 40) -> str:
    """A crude one-line sparkline of a curve (for terminal output)."""
    if not points:
        return "(empty)"
    ys = [y for _, y in points]
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    marks = "▁▂▃▄▅▆▇█"
    step = max(1, len(points) // width)
    chars = []
    for i in range(0, len(points), step):
        frac = (points[i][1] - lo) / span
        chars.append(marks[min(len(marks) - 1, int(frac * len(marks)))])
    return "".join(chars) + f"  [{lo:.3g}..{hi:.3g}]"
