"""Rule 110 stepped directly, kept as the oracle that chains are checked
against.

``evolve_cyclic`` steps a layer-mode row, whose neighbors wrap around;
``evolve_grid`` steps a grid-mode row over the columns ``[n, 0]``, with
zeros outside them, growing one column to the left per step.  They
share nothing with the script VM: the chain checks each transition by
validation, these compute it.
"""

from __future__ import annotations

from utxo110.lang import Bits, record


def calc_bit(left: int, center: int, right: int) -> int:
    """One cell update: (l & c & r) ^ (c & r) ^ c ^ r."""
    l, c, r = int(left), int(center), int(right)
    return ((l & c & r) ^ (c & r) ^ c ^ r) & 1


def evolve_cyclic(layer, steps: int) -> list:
    """Rows after each of ``steps`` cyclic updates (initial row excluded)."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    row = Bits(layer)
    if len(row) < 1:
        raise ValueError("layer must have at least one bit")
    rows = []
    w = len(row)
    for _ in range(steps):
        row = Bits(calc_bit(row[(i - 1) % w], row[i], row[(i + 1) % w])
                   for i in range(w))
        rows.append(row)
    return rows


@record
class GridRow:
    """One row of the left-growing grid: bits over columns [n, 0]."""

    n: int
    bits: tuple

    def __init__(self, n, bits):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        if n > 0 or len(bits) != 1 - n:
            raise ValueError("row must cover exactly the columns [n, 0]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bits(cls, bits) -> "GridRow":
        bits = tuple(bits)
        return cls(n=1 - len(bits), bits=bits)

    def bit(self, x: int) -> int:
        if self.n <= x <= 0:
            return self.bits[x - self.n]
        return 0

    def cells(self):
        return [(self.n + i, b) for i, b in enumerate(self.bits)]


def evolve_grid(initial: GridRow, steps: int) -> list:
    """Rows after each step; row t+1 covers [initial.n - t - 1, 0]."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rows = []
    row = initial
    for _ in range(steps):
        n = row.n - 1
        row = GridRow(n, tuple(calc_bit(row.bit(x - 1), row.bit(x), row.bit(x + 1))
                               for x in range(n, 1)))
        rows.append(row)
    return rows
