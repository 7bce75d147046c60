"""Row rendering (ASCII and PBM) and row reconstruction from chains.

Rendering contract: bit 1 prints as '#', bit 0 as '.', rows top-down.
Grid rows are right-aligned because the grid grows leftward; every row
is left-padded with background zeros to the width of the last row.
"""

from __future__ import annotations

from .chainio import ChainFormatError
from .lang import Bits
from .rule110 import LAYER_FIELD, MID_FIELD, N_FIELD, VAL_FIELD, X_FIELD


def rows_to_ascii(rows) -> str:
    """Rows of 0/1 sequences to '#'/'.' text, one line per row."""
    return "".join("".join("#" if b else "." for b in row) + "\n" for row in rows)


def rows_to_pbm(rows) -> str:
    """Plain PBM (P1); all rows must share one width."""
    rows = [list(row) for row in rows]
    if not rows:
        return "P1\n0 0\n"
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("PBM rows must have equal width")
    lines = [f"P1\n{width} {len(rows)}\n"]
    for row in rows:
        lines.append(" ".join(str(int(b)) for b in row) + "\n")
    return "".join(lines)


def pad_rows(rows, width: int) -> list:
    """Left-pad every row with zeros to ``width`` (right-aligned layout)."""
    out = []
    for row in rows:
        row = list(row)
        if len(row) > width:
            raise ValueError("row wider than the target width")
        out.append([0] * (width - len(row)) + row)
    return out


def chain_mode(transactions) -> str:
    """'layer' or 'grid', judged from the first genesis output's payload."""
    for tx in transactions:
        for out in tx.outputs:
            names = out.payload.names()
            if LAYER_FIELD in names:
                return "layer"
            if VAL_FIELD in names and X_FIELD in names:
                return "grid"
    raise ChainFormatError("cannot tell layer from grid: no recognizable payload")


def layer_rows(transactions) -> list:
    """One row per transaction: the layer carried by its first output."""
    rows = []
    for tx in transactions:
        if not tx.outputs:
            raise ChainFormatError("transaction without outputs in a layer chain")
        payload = tx.outputs[0].payload
        if LAYER_FIELD not in payload:
            raise ChainFormatError("layer chain output lacks the layer field")
        layer = payload.get(LAYER_FIELD)
        if not isinstance(layer, Bits):
            raise ChainFormatError(f"layer chain field {LAYER_FIELD!r} is not bits")
        rows.append(list(layer))
    return rows


def grid_rows(transactions) -> list:
    """Rows reconstructed from single-cell outputs, top row first.

    Copies of one cell must agree on the bit; each row must cover its
    whole [n, 0] column range.
    """
    cells = {}
    for tx in transactions:
        for out in tx.outputs:
            payload = out.payload
            try:
                val = payload.get(VAL_FIELD)
                x = payload.get(X_FIELD)
                n = payload.get(N_FIELD)
                payload.get(MID_FIELD)
            except KeyError as exc:
                raise ChainFormatError(
                    f"grid output lacks field {exc.args[0]!r}") from None
            if not isinstance(val, bool):
                raise ChainFormatError(f"grid output field {VAL_FIELD!r} is not a bool")
            for name, value in ((X_FIELD, x), (N_FIELD, n)):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ChainFormatError(f"grid output field {name!r} is not an int")
            bit = 1 if val else 0
            prev = cells.setdefault((n, x), bit)
            if prev != bit:
                raise ChainFormatError(
                    f"conflicting values for cell x={x}, n={n}")
    if not cells:
        return []
    ns = sorted({n for n, _ in cells}, reverse=True)
    rows = []
    for n in ns:
        row = []
        for x in range(n, 1):
            if (n, x) not in cells:
                raise ChainFormatError(f"row n={n} is missing column {x}")
            row.append(cells[(n, x)])
        rows.append(row)
    return rows


def render_chain(transactions, fmt: str = "ascii") -> str:
    mode = chain_mode(transactions)
    rows = layer_rows(transactions) if mode == "layer" else grid_rows(transactions)
    width = max((len(r) for r in rows), default=0)
    rows = pad_rows(rows, width)
    if fmt == "ascii":
        return rows_to_ascii(rows)
    if fmt == "pbm":
        return rows_to_pbm(rows)
    raise ValueError(f"unknown format {fmt!r}")
