"""Graded Betti tables and the invariants read off them."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BettiTable:
    """Mapping (homological degree i, internal degree j) -> rank.

    Zero ranks are never stored.  `subject` records whether the table
    describes an ideal or a quotient ring; tables are computed for ideals
    and quotient tables are derived views.
    """

    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    subject: str = "ideal"

    def __post_init__(self):
        if self.subject not in ("ideal", "quotient"):
            raise ValueError(f"unknown subject {self.subject!r}")
        for (i, j), rank in self.entries.items():
            if i < 0 or j < 0 or rank <= 0:
                raise ValueError(f"bad Betti entry ({i},{j}) -> {rank}")

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, r) for (i, j), r in sorted(self.entries.items())]


def make_table(entries, subject: str = "ideal") -> BettiTable:
    """Build a table, dropping zero ranks."""
    clean = {key: int(rank) for key, rank in dict(entries).items() if rank}
    return BettiTable(clean, subject)


def reg(table: BettiTable) -> int | None:
    """Castelnuovo-Mumford regularity: max j - i over nonzero entries.

    Returns None for the empty table (the zero module has no resolution
    data to take a maximum over).
    """
    if table.is_empty:
        return None
    return max(j - i for (i, j) in table.entries)


def pd(table: BettiTable) -> int | None:
    """Projective dimension: max i over nonzero entries; None when empty."""
    if table.is_empty:
        return None
    return max(i for (i, _) in table.entries)


def quotient_table(table: BettiTable) -> BettiTable:
    """Table of R/I from the table of the ideal I (index shift by one)."""
    if table.subject != "ideal":
        raise ValueError("quotient_table expects an ideal table")
    entries = {(0, 0): 1}
    for (i, j), rank in table.entries.items():
        entries[(i + 1, j)] = rank
    return BettiTable(entries, "quotient")


def add_shifted(acc: dict[tuple[int, int], int], table: BettiTable,
                di: int = 0, dj: int = 0) -> None:
    """Accumulate table entries into acc with indices shifted by (di, dj)."""
    for (i, j), rank in table.entries.items():
        key = (i + di, j + dj)
        acc[key] = acc.get(key, 0) + rank


def format_flat(table: BettiTable) -> str:
    """Machine-readable `i j rank` lines, sorted lexicographically."""
    return "\n".join(f"{i} {j} {r}" for i, j, r in table.sorted_entries())


def format_grid(table: BettiTable) -> str:
    """Human-readable grid: rows are i, columns are the slopes j - i."""
    if table.is_empty:
        return "(empty Betti table)"
    rows = sorted({i for (i, _) in table.entries})
    cols = sorted({j - i for (i, j) in table.entries})
    width = max(len(str(r)) for r in table.entries.values())
    width = max(width, max(len(str(c)) for c in cols), 1) + 2
    head = "i\\j-i".rjust(6) + "".join(str(c).rjust(width) for c in cols)
    lines = [head]
    for i in rows:
        cells = []
        for c in cols:
            r = table.rank(i, i + c)
            cells.append((str(r) if r else ".").rjust(width))
        lines.append(str(i).rjust(6) + "".join(cells))
    return "\n".join(lines)
