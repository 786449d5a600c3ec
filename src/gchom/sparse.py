"""Exact integer sparse matrices and the SMS interchange format."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IntSparseMatrix:
    """Sparse matrix over Z; at most one stored entry per position."""

    nrows: int
    ncols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError(f"negative dimension {self.nrows} x {self.ncols}")
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise ValueError(f"entry ({i},{j}) out of range")
            if v == 0:
                raise ValueError(f"stored zero at ({i},{j})")

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def matmul(self, other: "IntSparseMatrix") -> "IntSparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, []).append((i, v))
        acc: dict[tuple[int, int], int] = {}
        for (j, l), w in other.entries.items():
            for i, v in by_col.get(j, ()):
                key = (i, l)
                acc[key] = acc.get(key, 0) + v * w
        return IntSparseMatrix(self.nrows, other.ncols,
                               {k: v for k, v in acc.items() if v})


def dump_sms(matrix: IntSparseMatrix) -> str:
    """Serialize in SMS text form: 'R C M' header, 1-indexed triples, 0 0 0."""
    lines = [f"{matrix.nrows} {matrix.ncols} M"]
    for (i, j) in sorted(matrix.entries):
        lines.append(f"{i + 1} {j + 1} {matrix.entries[(i, j)]}")
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def load_sms(text: str) -> IntSparseMatrix:
    """Parse SMS text: a three-token header line, then triples up to 0 0 0.

    The triples are read as one stream of Python ints, so entries of any
    size load exactly; whatever follows the terminator is not read.
    """
    head, _, body = text.lstrip().partition("\n")
    if not head:
        raise ValueError("empty SMS input")
    fields = head.split()
    if len(fields) != 3:
        raise ValueError(f"malformed SMS header: {head!r}")
    nrows, ncols = int(fields[0]), int(fields[1])
    # third header token is conventionally the letter M; a count is tolerated
    values = map(int, body.split())
    entries: dict[tuple[int, int], int] = {}
    for i, j, v in zip(values, values, values):
        if v == 0:
            if i == 0 and j == 0:
                return IntSparseMatrix(nrows, ncols, entries)
            raise ValueError(f"explicit zero entry in SMS at {i} {j}")
        key = (i - 1, j - 1)
        if key in entries:
            raise ValueError(f"duplicate SMS entry at {i} {j}")
        entries[key] = v
    raise ValueError("SMS input missing '0 0 0' terminator")
