"""Plain-text table rendering for experiment output.

The experiment harness prints the same rows/series the paper reports;
``render_table`` produces aligned, pipe-delimited ASCII suitable for both
terminals and Markdown code blocks.
"""

from __future__ import annotations

from typing import Any, Sequence

#: decimal places of a non-whole float in every rendered table
FLOAT_DIGITS = 3


def format_float(value: Any) -> str:
    """Format numbers compactly; passthrough for non-numerics."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "nan"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.{FLOAT_DIGITS}f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    >>> print(render_table(["a", "b"], [[1, 2.5], [10, 0.25]]))
    | a  | b     |
    |----|-------|
    | 1  | 2.500 |
    | 10 | 0.250 |
    """
    formatted: list[list[str]] = [
        [format_float(cell) for cell in row] for row in rows
    ]
    widths = [len(str(h)) for h in headers]
    for row in formatted:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [str(cell).ljust(widths[i]) for i, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(render_row(row) for row in formatted)
    return "\n".join(lines)
