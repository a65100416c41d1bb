"""Result tables: what every benchmark prints.

A :class:`ResultTable` is the bridge between an experiment run and the
row/series format EXPERIMENTS.md records: named columns, typed rows, and
a fixed-width text rendering that the bench harness prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


class ResultTable:
    """Ordered columns, appended rows, text rendering."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names")
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        """Append a row; keys must exactly match the columns."""
        missing = set(self.columns) - set(values)
        extra = set(values) - set(self.columns)
        if missing or extra:
            raise ValueError(
                f"row mismatch for {self.title!r}: missing={sorted(missing)} "
                f"extra={sorted(extra)}")
        self.rows.append(dict(values))

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def render(self) -> str:
        """Fixed-width text table with the title as a header."""
        cells = [[self._fmt(row[c]) for c in self.columns] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
                  for i, c in enumerate(self.columns)]
        def line(parts: List[str]) -> str:
            return "  ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip()
        out = [self.title, "=" * len(self.title), line(self.columns),
               line(["-" * w for w in widths])]
        out.extend(line(r) for r in cells)
        return "\n".join(out)

    def __len__(self) -> int:
        return len(self.rows)
