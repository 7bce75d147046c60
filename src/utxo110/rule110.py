"""Rule 110 oracles and the validator scripts that enforce them on-chain.

Two encodings of the automaton state:

* layer mode: one output holds a whole row in its ``layer`` field and
  the transition is cyclic (left/right neighbors wrap around);
* grid mode: one output holds a single cell (``val``, column ``x``,
  leftmost column ``n``, ``mid`` flag), the background is zero, the
  right edge is pinned at column 0 and the grid grows one column to the
  left per row, so ``-n`` doubles as the row number.

``evolve_cyclic`` and ``evolve_grid`` are direct implementations used as
oracles for the chain; they share nothing with the script VM.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from .interp import WidthExceeded
from .lang import Bits, Expr, ScriptRef
from .model import ChainParams, Output, Payload, Transaction
from .parser import parse

LAYER_FIELD = "layer"
VAL_FIELD = "val"
X_FIELD = "x"
N_FIELD = "n"
MID_FIELD = "mid"


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


@dataclass(frozen=True)
class GridRow:
    """One row of the left-growing grid: bits over columns [n, 0]."""

    n: int
    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        if self.n > 0 or len(self.bits) != 1 - self.n:
            raise ValueError("row must cover exactly the columns [n, 0]")

    @classmethod
    def from_bits(cls, bits) -> "GridRow":
        bits = tuple(int(b) for b in bits)
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


# ---------------------------------------------------------------------------
# Validator scripts

# One source file per validator; its comments explain what it checks.
_HERE = Path(__file__).parent
LAYER_SCRIPT_SOURCE = (_HERE / "layer_step.script").read_text(encoding="utf-8")
BIT_SCRIPT_SOURCE = (_HERE / "grid_bit.script").read_text(encoding="utf-8")


@functools.cache
def build_layer_script() -> Expr:
    return parse(LAYER_SCRIPT_SOURCE)


@functools.cache
def build_bit_script() -> Expr:
    return parse(BIT_SCRIPT_SOURCE)


# ---------------------------------------------------------------------------
# Genesis constructors

def genesis_layer(layer, params: ChainParams = ChainParams()) -> Transaction:
    """Genesis transaction holding one whole-row output."""
    bits = Bits(layer)
    if not 1 <= len(bits) <= params.max_width:
        raise WidthExceeded(
            f"layer width {len(bits)} outside [1, {params.max_width}]")
    output = Output(build_layer_script(), Payload(((LAYER_FIELD, bits),)))
    return Transaction(inputs=(), outputs=(output,), is_genesis=True)


def cell_output(val: int, x: int, n: int, mid: bool,
                script: Expr | ScriptRef | None = None) -> Output:
    payload = Payload(((VAL_FIELD, bool(val)), (X_FIELD, x),
                       (N_FIELD, n), (MID_FIELD, bool(mid))))
    return Output(script if script is not None else build_bit_script(), payload)


def genesis_grid(row: GridRow, params: ChainParams = ChainParams()) -> Transaction:
    """Genesis transaction carrying three copies of every cell.

    Copy order per cell is (left-neighbor, mid, right-neighbor), i.e.
    mid flags (false, true, false), matching what the validator enforces
    for every later row.
    """
    if len(row.bits) > params.max_width:
        raise WidthExceeded(
            f"row width {len(row.bits)} exceeds {params.max_width}")
    script = ScriptRef(build_bit_script())
    outputs = []
    for x, val in row.cells():
        outputs.append(cell_output(val, x, row.n, False, script))
        outputs.append(cell_output(val, x, row.n, True, script))
        outputs.append(cell_output(val, x, row.n, False, script))
    return Transaction(inputs=(), outputs=tuple(outputs), is_genesis=True)
