"""Plain-text and Markdown table rendering for experiment outputs."""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width table (monospace terminals)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[k]) for r in cells) for k in range(len(headers))]
    out = []
    if title:
        out.append(title)
    sep = "-+-".join("-" * w for w in widths)
    out.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    out.append(sep)
    for row in cells[1:]:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_markdown(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """GitHub-flavoured Markdown table."""
    out = ["| " + " | ".join(str(h) for h in headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def fmt_ratio(x) -> str:
    return f"{float(x):.4f}"


def fmt_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"
