"""The text grid as ``ColumnTable.to_text`` rendered it before pages were
formatted from their row dictionaries: build the table from the rows, read
them back, pad cell by cell.  ``format_grid`` must produce the same bytes."""

from typing import List, Mapping, Sequence

from repro.dataset.table import ColumnTable


def reference_text_grid(
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    max_rows: int = 20,
    float_format: str = "{:.2f}",
) -> str:
    """What ``ColumnTable.from_rows(rows, columns).to_text(max_rows)`` gave."""
    table = ColumnTable.from_rows(rows, columns=columns) if rows else ColumnTable.empty(columns)
    shown = table.to_rows()[:max_rows]
    rendered: List[List[str]] = []
    for row in shown:
        cells = []
        for name in table.columns:
            value = row[name]
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    headers = [str(name) for name in table.columns]
    widths = [len(header) for header in headers]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)))
    if len(table) > max_rows:
        lines.append(f"... ({len(table) - max_rows} more rows)")
    return "\n".join(lines)
