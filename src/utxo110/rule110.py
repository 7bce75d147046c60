"""The validator scripts that step Rule 110 on-chain, and the genesis
transactions they start from.

Two encodings of the automaton state:

* layer mode: one output holds a whole row in its ``layer`` field and
  the transition is cyclic (left/right neighbors wrap around);
* grid mode: one output holds a single cell (``val``, column ``x``,
  leftmost column ``n``, ``mid`` flag), the background is zero, the
  right edge is pinned at column 0 and the grid grows one column to the
  left per row, so ``-n`` doubles as the row number.

Each transition is checked by validation, not computed here: no
command steps the automaton directly.  The direct steppers that tests
compare chains with live in ``tests/rule110_oracle.py``.
"""

from __future__ import annotations

import functools
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


def genesis_grid(bits, params: ChainParams = ChainParams()) -> Transaction:
    """Genesis transaction carrying three copies of every cell of the
    row ``bits``, which covers the columns ``[1 - len(bits), 0]``.

    Copy order per cell is (left-neighbor, mid, right-neighbor), i.e.
    mid flags (false, true, false), matching what the validator enforces
    for every later row.
    """
    bits = Bits(bits)
    if not 1 <= len(bits) <= params.max_width:
        raise WidthExceeded(
            f"row width {len(bits)} outside [1, {params.max_width}]")
    script = ScriptRef(build_bit_script())
    n = 1 - len(bits)
    outputs = []
    for x, val in enumerate(bits, start=n):
        outputs.append(cell_output(val, x, n, False, script))
        outputs.append(cell_output(val, x, n, True, script))
        outputs.append(cell_output(val, x, n, False, script))
    return Transaction(inputs=(), outputs=tuple(outputs), is_genesis=True)
