"""Shared benchmark plumbing: report formatting and band checks."""

from __future__ import annotations


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Plain-text table matching the repo's report style."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def within_band(measured: float, paper: float, tolerance: float = 0.25) -> bool:
    """True if ``measured`` is within ±tolerance (relative) of ``paper``."""
    return abs(measured - paper) <= tolerance * paper

