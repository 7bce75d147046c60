"""Output checks that share no code with the program under test.

Nothing here imports ``utxo110``.  The Rule 110 stepper works from the
Wolfram rule number, rows are read straight from the chain file's JSON,
and the CLI's verdicts are parsed from its printed text.
"""

from __future__ import annotations

import json
import re

RULE = 110


def step(left: int, center: int, right: int) -> int:
    """Next state of one cell, looked up in the bits of the rule number."""
    return (RULE >> (left << 2 | center << 1 | right)) & 1


def cyclic_rows(initial: str, steps: int) -> list:
    """``initial`` and the ``steps`` rows after it, neighbours wrapping around."""
    row = [int(c) for c in initial]
    w = len(row)
    rows = [row]
    for _ in range(steps):
        row = [step(row[i - 1], row[i], row[(i + 1) % w]) for i in range(w)]
        rows.append(row)
    return rows


def grid_rows(initial: str, steps: int) -> list:
    """Rows of the left-growing grid; each is one cell wider on the left.

    The background is zero and the rightmost column stays fixed, so a
    row's new left cell sees two zeros beyond the old row's left edge.
    """
    row = [int(c) for c in initial]
    rows = [row]
    for _ in range(steps):
        padded = [0, 0] + row + [0]
        row = [step(padded[i], padded[i + 1], padded[i + 2])
               for i in range(len(row) + 1)]
        rows.append(row)
    return rows


def read_records(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _bits(text: str) -> list:
    return [1 if c in "1#" else 0 for c in text]


def chain_layer_rows(records) -> list:
    """The ``layer`` field of each transaction's first output."""
    rows = []
    for rec in records:
        value = rec["outputs"][0]["payload"]["layer"]
        if value["t"] != "bits":
            raise ValueError("layer field is not a bit string")
        rows.append(_bits(value["v"]))
    return rows


def chain_grid_rows(records) -> list:
    """Rows rebuilt from every cell output, top row first.

    All copies of a cell must agree and every row must cover the columns
    ``[n, 0]`` with nothing outside them.
    """
    cells = {}
    for rec in records:
        for out in rec["outputs"]:
            payload = out["payload"]
            bit = int(payload["val"]["v"] is True)
            key = (payload["n"]["v"], payload["x"]["v"])
            if cells.setdefault(key, bit) != bit:
                raise ValueError(f"copies of cell {key} disagree")
    rows = []
    for n in sorted({n for n, _ in cells}, reverse=True):
        columns = sorted(x for m, x in cells if m == n)
        if columns != list(range(n, 1)):
            raise ValueError(f"row n={n} does not cover columns [{n}, 0]")
        rows.append([cells[(n, x)] for x in columns])
    return rows


# Text the CLI prints; see ``cmd_run`` and ``cmd_verify``.
_RUN_RE = re.compile(r"^transactions: (\d+)$.*^total cost: (\d+)$",
                     re.MULTILINE | re.DOTALL)
_OK_RE = re.compile(r"^ok: (\d+) transactions, total cost (\d+)$", re.MULTILINE)
_FAIL_RE = re.compile(r"^verification failed at transaction (\d+): (.*)$",
                      re.MULTILINE)


def run_summary(stdout: str):
    """(transactions, total cost) printed by ``run``, or None."""
    m = _RUN_RE.search(stdout)
    return (int(m.group(1)), int(m.group(2))) if m else None


def verify_verdict(stdout: str):
    """``("VerifyOk", txs, cost)``, ``("FirstFailure", index, reason)`` or None."""
    m = _OK_RE.search(stdout)
    if m:
        return ("VerifyOk", int(m.group(1)), int(m.group(2)))
    m = _FAIL_RE.search(stdout)
    if m:
        return ("FirstFailure", int(m.group(1)), m.group(2))
    return None
