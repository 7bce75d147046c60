"""File format: JSON Lines chain files.

Chain file: one JSON object per line::

    {"txId": hex, "isGenesis": bool,
     "inputs":  [{"txId": hex, "index": int}, ...],
     "outputs": [{"script": base64 canonical bytes,
                  "payload": {field: {"t": kind, "v": value}, ...}}, ...]}

The base64 script bytes are the script: they must be its canonical
encoding, and bytes that do not re-encode to themselves are rejected.
Unknown keys are ignored on load, so files from earlier versions, whose
output records also held the script's printed source, still load with
the same tx ids.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

from .lang import Bits, ScriptRef
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


def output_to_json(output: Output) -> dict:
    return {
        "script": base64.b64encode(output.script_bytes).decode("ascii"),
        "payload": {name: value_to_json(v) for name, v in output.payload.items()},
    }


def output_from_json(obj) -> Output:
    if not isinstance(obj, dict) or "script" not in obj or "payload" not in obj:
        raise ChainFormatError(f"malformed output record: {obj!r}")
    script = _script_from_json(obj["script"])
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


def transaction_to_json(tx: Transaction) -> dict:
    return {
        "txId": tx.tx_id().hex(),
        "isGenesis": tx.is_genesis,
        "inputs": [{"txId": ref.tx_id.hex(), "index": ref.index}
                   for ref in tx.inputs],
        "outputs": [output_to_json(o) for o in tx.outputs],
    }


@dataclass(frozen=True)
class ChainRecord:
    stored_id: bytes
    tx: Transaction


def transaction_from_json(obj) -> ChainRecord:
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
    inputs = []
    for entry in inputs_obj:
        if not isinstance(entry, dict) or "txId" not in entry or "index" not in entry:
            raise ChainFormatError(f"malformed input record: {entry!r}")
        index = entry["index"]
        if not isinstance(index, int) or isinstance(index, bool) \
                or not 0 <= index <= MAX_INDEX:
            raise ChainFormatError(f"bad input index: {index!r}")
        inputs.append(OutputRef(_hex_id(entry["txId"]), index))
    outputs = [output_from_json(o) for o in outputs_obj]
    try:
        tx = Transaction(inputs=inputs, outputs=outputs, is_genesis=is_genesis)
    except ValueError as exc:
        raise ChainFormatError(str(exc)) from None
    return ChainRecord(stored_id=stored_id, tx=tx)


def dump_chain(transactions, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tx in transactions:
            fh.write(json.dumps(transaction_to_json(tx), separators=(",", ":")))
            fh.write("\n")


def load_chain(path) -> list:
    """Parse a chain file into ChainRecords; raises ChainFormatError."""
    records = []
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
                    records.append(transaction_from_json(obj))
                except ChainFormatError as exc:
                    raise ChainFormatError(f"line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ChainFormatError(f"not UTF-8 text: {exc}") from None
    return records
