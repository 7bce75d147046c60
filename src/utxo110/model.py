"""Ledger data model: payloads, outputs, transactions, parameters.

A payload's identity is its canonical encoding, built once when the
payload is: equality and hashing compare those bytes, so field order
and the kind of each value (``True`` is not ``1``) come from the
encoding, and transaction bytes reuse it (``ledger.UtxoSet`` builds its
payload index only on the first lookup).  Transactions are treated as
immutable once constructed; the transaction id is the SHA-256 digest of
the canonical transaction bytes and is cached on first use.
"""

from __future__ import annotations

import hashlib
import re

from .lang import (
    Expr, RESERVED_FIELD_NAMES, ScriptRef, _enc_value, _u32, _value_end, record,
)

_FIELD_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Payload:
    """Ordered field -> value record attached to an output.

    Values are bool, int, Bits or ScriptRef.  ``encoded`` holds the
    canonical bytes (field count, then each name and value), and two
    payloads are equal exactly when those bytes are.
    """

    __slots__ = ("_map", "encoded")

    def __init__(self, pairs=(), **kwargs):
        items = tuple(pairs) + tuple(kwargs.items())
        fields = {}
        parts = [_u32(len(items))]
        for name, value in items:
            if not _FIELD_NAME_RE.fullmatch(name) or name in RESERVED_FIELD_NAMES:
                raise ValueError(f"invalid payload field name {name!r}")
            if name in fields:
                raise ValueError(f"duplicate payload field {name!r}")
            fields[name] = value
            raw = name.encode("utf-8")
            parts += (_u32(len(raw)), raw, _enc_value(value))
        object.__setattr__(self, "_map", fields)
        object.__setattr__(self, "encoded", b"".join(parts))

    def get(self, name):
        try:
            return self._map[name]
        except KeyError:
            raise KeyError(name) from None

    def __contains__(self, name):
        return name in self._map

    def names(self):
        return tuple(self._map)

    @classmethod
    def _of(cls, fields: dict, encoded: bytes) -> "Payload":
        """A payload from fields whose names are already checked and the
        encoding they have, without the public constructor's work."""
        payload = object.__new__(cls)
        object.__setattr__(payload, "_map", fields)
        object.__setattr__(payload, "encoded", encoded)
        return payload

    def replace(self, name, value) -> "Payload":
        """Copy with one existing field replaced, order preserved.  Only
        the new value is encoded: it is spliced in over the old one."""
        if name not in self._map:
            raise KeyError(name)
        data = self.encoded
        pos = 4
        for field in self._map:
            pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
            if field == name:
                break
            pos = _value_end(data, pos)
        return Payload._of({**self._map, name: value},
                           data[:pos] + _enc_value(value) + data[_value_end(data, pos):])

    def __eq__(self, other):
        if not isinstance(other, Payload):
            return NotImplemented
        return self.encoded == other.encoded

    def __hash__(self):
        return hash(self.encoded)

    def __setattr__(self, name, value):
        raise AttributeError("Payload is immutable")

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in self._map.items())
        return f"Payload({inner})"


class Output:
    """Guarding script, held as its ``ScriptRef``, plus payload; the spendable unit."""

    __slots__ = ("script_ref", "payload")

    def __init__(self, script: Expr | ScriptRef, payload: Payload):
        object.__setattr__(self, "script_ref", ScriptRef(script))
        object.__setattr__(self, "payload", payload)

    @property
    def script_bytes(self) -> bytes:
        return self.script_ref.canonical

    def content_key(self):
        """Hashable identity of this output's content (script + payload)."""
        return (self.script_ref, self.payload.encoded)

    def __eq__(self, other):
        if not isinstance(other, Output):
            return NotImplemented
        return self.script_ref is other.script_ref and self.payload == other.payload

    def __hash__(self):
        return hash(self.content_key())

    def __setattr__(self, name, value):
        raise AttributeError("Output is immutable")

    def __repr__(self):
        return f"Output(payload={self.payload!r}, script={len(self.script_bytes)}B)"


@record
class OutputRef:
    """Reference to an output of a prior transaction.  References sort by
    transaction id, then index."""

    tx_id: bytes
    index: int

    def __lt__(self, other):
        if other.__class__ is not OutputRef:
            return NotImplemented
        return (self.tx_id, self.index) < (other.tx_id, other.index)

    def __str__(self):
        return f"{self.tx_id.hex()}:{self.index}"


class Transaction:
    """Inputs (references) plus outputs. Genesis transactions have no inputs."""

    __slots__ = ("inputs", "outputs", "is_genesis", "_tx_id")

    def __init__(self, inputs, outputs, is_genesis=False):
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        if is_genesis and inputs:
            raise ValueError("genesis transaction cannot have inputs")
        if not is_genesis and not inputs:
            raise ValueError("non-genesis transaction needs at least one input")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "is_genesis", bool(is_genesis))
        object.__setattr__(self, "_tx_id", None)

    def tx_id(self) -> bytes:
        if self._tx_id is None:
            object.__setattr__(self, "_tx_id",
                               hashlib.sha256(transaction_bytes(self)).digest())
        return self._tx_id

    def ref(self, index: int) -> OutputRef:
        return OutputRef(self.tx_id(), index)

    def __eq__(self, other):
        if not isinstance(other, Transaction):
            return NotImplemented
        return transaction_bytes(self) == transaction_bytes(other)

    def __hash__(self):
        return hash(transaction_bytes(self))

    def __setattr__(self, name, value):
        raise AttributeError("Transaction is immutable")

    def __repr__(self):
        kind = "genesis " if self.is_genesis else ""
        return (f"Transaction({kind}{len(self.inputs)} in, "
                f"{len(self.outputs)} out)")


def output_bytes(output: Output) -> bytes:
    script = output.script_bytes
    return _u32(len(script)) + script + output.payload.encoded


def transaction_bytes(tx: Transaction) -> bytes:
    """Canonical transaction serialization (digest preimage)."""
    parts = [bytes([1]), b"\x01" if tx.is_genesis else b"\x00", _u32(len(tx.inputs))]
    for ref in tx.inputs:
        if len(ref.tx_id) != 32:
            raise ValueError("input reference must carry a 32-byte id")
        parts.append(ref.tx_id)
        parts.append(_u32(ref.index))
    parts.append(_u32(len(tx.outputs)))
    for out in tx.outputs:
        parts.append(output_bytes(out))
    return b"".join(parts)


@record
class ChainParams:
    """Tunable limits shared by the interpreter, ledger and builder."""

    max_width: int = 256
    cost_limit_per_input: int = 10_000
    block_budget: int = 1_000_000
    max_script_bytes: int = 16_384
    max_payload_bytes: int = 1_024
