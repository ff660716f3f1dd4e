"""Render benchmark series as paper-style text tables.

The paper's figures plot peak memory (bars) and execution time (lines)
against dataset size, or execution time against node count.  These
renderers print the same rows/series so a bench run's stdout can be
compared against the figure directly.
"""

from __future__ import annotations

from repro.bench.records import Series


def _grid(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    sep = "-" * len(line(header))
    out = [f"\n== {title} ==", line(header), sep]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def render_memory_time_table(series: Series) -> str:
    """Dataset size x config: ``peak-memory / time`` cells (Figs 8-13)."""
    header = ["size"] + [f"{c}" for c in series.configs]
    rows = []
    for label in series.labels:
        row = [label]
        for config in series.configs:
            record = series.get(config, label)
            if record is None:
                row.append("-")
            elif record.oom:
                row.append("OOM")
            else:
                row.append(f"{record.memory_cell()} / {record.time_cell()}")
        rows.append(row)
    footer_rows = [["max in-mem"] + [
        series.max_in_memory_label(c) or "-" for c in series.configs]]
    return _grid(series.title, header, rows + footer_rows)


def render_scaling_table(series: Series) -> str:
    """Node count x config: execution-time cells (Figs 10 and 14)."""
    header = ["nodes"] + [f"{c}" for c in series.configs]
    rows = []
    for label in series.labels:
        row = [label]
        for config in series.configs:
            record = series.get(config, label)
            row.append("-" if record is None else record.time_cell())
        rows.append(row)
    return _grid(series.title, header, rows)


def render_time_table(series: Series) -> str:
    """Dataset size x config: execution-time-only cells (Fig 1)."""
    header = ["size"] + list(series.configs)
    rows = []
    for label in series.labels:
        row = [label]
        for config in series.configs:
            record = series.get(config, label)
            row.append("-" if record is None else record.time_cell())
        rows.append(row)
    return _grid(series.title, header, rows)
