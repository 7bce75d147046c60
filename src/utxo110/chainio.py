"""File format: JSON Lines chain files.

Chain file: one JSON object per line::

    {"txId": hex, "isGenesis": bool,
     "inputs":  [[k, index] or {"txId": hex, "index": int}, ...],
     "outputs": [{"script": base64 canonical bytes or int,
                  "payload": {field: {"t": kind, "v": value}, ...}}, ...]}

The base64 script bytes are the script: they must be its canonical
encoding, and bytes that do not re-encode to themselves are rejected.

Each distinct output script is written in full once, by the first output
in the file that carries it.  Every later output with that script holds
its number instead: the distinct scripts are numbered from 0 in the order
in which they first appear.  A coin re-states its script in every output
it creates, so a grid chain, whose outputs all carry one script, shrinks
about tenfold.  The numbers live only in the file: tx ids hash the
script bytes as before.  Any prefix of a file is a valid chain, and a
reference must name a script defined on an earlier output.

An input that spends an output of an earlier transaction in the same
file is written ``[k, index]``: ``k`` is that transaction's 0-based
position among the file's transactions, the number ``verify`` names in
``verification failed at transaction k``.  Loading resolves it to the id
computed for transaction ``k``, not the one stored on its line, so
``verify`` still reports a tampered line at its own position.  An input
naming any other transaction keeps the ``{"txId", "index"}`` form.  A
back-reference must name an earlier transaction, so any prefix of a file
is still a valid chain.

Files from earlier versions wrote every script in full and every input
as a ``{"txId", "index"}`` object, or also held each script's printed
source under a key that is now ignored.  They still load, with the same
tx ids.  Files written now do not load in versions before input
back-references.
"""

from __future__ import annotations

import base64
import json

from .lang import Bits, ScriptRef, record
from .model import Output, OutputRef, Payload, Transaction


class ChainFormatError(ValueError):
    """Chain file cannot be parsed."""


MAX_INDEX = 2**32 - 1  # output indices are u32 in the tx-id preimage


def value_to_json(value):
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, Bits):
        return {"t": "bits", "v": value.to_text()}
    if isinstance(value, ScriptRef):
        return {"t": "script", "v": base64.b64encode(value.canonical).decode("ascii")}
    raise TypeError(f"not a payload value: {type(value).__name__}")


def value_from_json(obj):
    try:
        kind, raw = obj["t"], obj["v"]
    except (TypeError, KeyError):
        raise ChainFormatError(f"malformed value record: {obj!r}") from None
    if kind == "bool" and isinstance(raw, bool):
        return raw
    if kind == "int" and isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if kind == "bits" and isinstance(raw, str):
        try:
            return Bits.from_text(raw) if raw else Bits()
        except ValueError as exc:
            raise ChainFormatError(str(exc)) from None
    if kind == "script":
        return _script_from_json(raw)
    raise ChainFormatError(f"malformed value record: {obj!r}")


def _script_from_json(raw) -> ScriptRef:
    if not isinstance(raw, str):
        raise ChainFormatError(f"script must be a base64 string, got {raw!r}")
    try:
        return ScriptRef.from_bytes(base64.b64decode(raw))
    except ValueError as exc:  # includes ScriptFormatError and bad base64
        raise ChainFormatError(f"bad script bytes: {exc}") from None


class _ScriptTable:
    """The distinct output scripts of one chain file so far, numbered from 0
    in the order in which they first appear."""

    def __init__(self):
        self.numbers: dict[ScriptRef, int] = {}
        self.scripts: list[ScriptRef] = []

    def _add(self, ref: ScriptRef) -> None:
        self.numbers[ref] = len(self.scripts)
        self.scripts.append(ref)

    def to_json(self, ref: ScriptRef):
        """The script's base64 bytes on its first appearance, its number after."""
        number = self.numbers.get(ref)
        if number is not None:
            return number
        self._add(ref)
        return base64.b64encode(ref.canonical).decode("ascii")

    def from_json(self, raw) -> ScriptRef:
        if type(raw) is int:  # not bool, which JSON true would give
            if not 0 <= raw < len(self.scripts):
                raise ChainFormatError(
                    f"script number {raw} is not one of the "
                    f"{len(self.scripts)} scripts defined before it")
            return self.scripts[raw]
        if not isinstance(raw, str):
            raise ChainFormatError(
                f"script must be a base64 string or a script number, got {raw!r}")
        ref = _script_from_json(raw)
        if ref not in self.numbers:
            self._add(ref)
        return ref


def output_to_json(output: Output, scripts: _ScriptTable) -> dict:
    return {
        "script": scripts.to_json(output.script_ref),
        "payload": {name: value_to_json(v) for name, v in output.payload._map.items()},
    }


def output_from_json(obj, scripts: _ScriptTable) -> Output:
    if not isinstance(obj, dict) or "script" not in obj or "payload" not in obj:
        raise ChainFormatError(f"malformed output record: {obj!r}")
    script = scripts.from_json(obj["script"])
    payload_obj = obj["payload"]
    if not isinstance(payload_obj, dict):
        raise ChainFormatError("payload must be an object")
    try:
        payload = Payload(tuple((name, value_from_json(v))
                                for name, v in payload_obj.items()))
    except ValueError as exc:
        raise ChainFormatError(str(exc)) from None
    return Output(script, payload)


def _hex_id(text) -> bytes:
    if not isinstance(text, str):
        raise ChainFormatError("transaction id must be a hex string")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise ChainFormatError(f"bad hex id: {text!r}") from None
    if len(raw) != 32:
        raise ChainFormatError("transaction id must be 32 bytes")
    return raw


def input_to_json(ref: OutputRef, positions: dict):
    """``[k, index]`` when transaction ``k`` of the file so far has the
    spent id, else the ``{"txId", "index"}`` object."""
    k = positions.get(ref.tx_id)
    if k is not None:
        return [k, ref.index]
    return {"txId": ref.tx_id.hex(), "index": ref.index}


def transaction_to_json(tx: Transaction, scripts: _ScriptTable,
                        positions: dict) -> dict:
    return {
        "txId": tx.tx_id().hex(),
        "isGenesis": tx.is_genesis,
        "inputs": [input_to_json(ref, positions) for ref in tx.inputs],
        "outputs": [output_to_json(o, scripts) for o in tx.outputs],
    }


@record
class ChainRecord:
    stored_id: bytes
    tx: Transaction


def _input_index(index) -> int:
    if type(index) is not int or not 0 <= index <= MAX_INDEX:
        raise ChainFormatError(f"bad input index: {index!r}")
    return index


def input_from_json(entry, earlier: list) -> OutputRef:
    """The output ``entry`` spends; ``earlier`` holds the records before it."""
    if type(entry) is list and len(entry) == 2 and type(entry[0]) is int:
        k, index = entry
        if not 0 <= k < len(earlier):
            raise ChainFormatError(
                f"input {entry!r} does not name one of the "
                f"{len(earlier)} transactions before it")
        return OutputRef(earlier[k].tx.tx_id(), _input_index(index))
    if not isinstance(entry, dict) or "txId" not in entry or "index" not in entry:
        raise ChainFormatError(f"malformed input record: {entry!r}")
    index = _input_index(entry["index"])
    return OutputRef(_hex_id(entry["txId"]), index)


def transaction_from_json(obj, scripts: _ScriptTable, earlier: list) -> ChainRecord:
    if not isinstance(obj, dict):
        raise ChainFormatError("transaction record must be an object")
    try:
        stored_id = _hex_id(obj["txId"])
        is_genesis = obj["isGenesis"]
        inputs_obj = obj["inputs"]
        outputs_obj = obj["outputs"]
    except KeyError as exc:
        raise ChainFormatError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(is_genesis, bool) or not isinstance(inputs_obj, list) \
            or not isinstance(outputs_obj, list):
        raise ChainFormatError("malformed transaction record")
    inputs = [input_from_json(entry, earlier) for entry in inputs_obj]
    outputs = [output_from_json(o, scripts) for o in outputs_obj]
    try:
        tx = Transaction(inputs=inputs, outputs=outputs, is_genesis=is_genesis)
    except ValueError as exc:
        raise ChainFormatError(str(exc)) from None
    return ChainRecord(stored_id=stored_id, tx=tx)


def dump_chain(transactions, path) -> None:
    scripts = _ScriptTable()
    positions = {}  # tx id -> its position among the transactions written
    with open(path, "w", encoding="utf-8") as fh:
        for k, tx in enumerate(transactions):
            fh.write(json.dumps(transaction_to_json(tx, scripts, positions),
                                separators=(",", ":")))
            fh.write("\n")
            positions.setdefault(tx.tx_id(), k)


def load_chain(path) -> list:
    """Parse a chain file into ChainRecords; raises ChainFormatError."""
    records = []
    scripts = _ScriptTable()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ChainFormatError(f"line {lineno}: {exc}") from None
                try:
                    records.append(transaction_from_json(obj, scripts, records))
                except ChainFormatError as exc:
                    raise ChainFormatError(f"line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ChainFormatError(f"not UTF-8 text: {exc}") from None
    return records
