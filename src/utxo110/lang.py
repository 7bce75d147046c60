"""Core definitions of the guarding-script language.

A guarding script is a loop-free expression tree evaluated against a
spending transaction.  This module defines the value types, the AST, the
canonical byte serialization (the authoritative notion of script
equality), and a source printer.  Parsing lives in ``parser``; evaluation
in ``interp``.

The only repetition construct is ``MapIndices`` whose length is capped at
runtime, so every script terminates in a statically bounded number of
node visits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields


FORMAT_VERSION = 1

# Deepest node nesting a script may have, counted on through nested
# script literals: the root is at depth 1.  The decoder and the parser
# reject deeper scripts, which bounds the recursion of every tree walk
# after them.  The grid validator is 24 deep.
MAX_DEPTH = 64

# Field names that collide with postfix syntax and are therefore banned
# in payloads.
RESERVED_FIELD_NAMES = frozenset({"size", "script"})


class Bits:
    """Immutable sequence of bits (0/1), usable as a payload value."""

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        vals = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in vals):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_bits", vals)

    @classmethod
    def from_text(cls, text: str) -> "Bits":
        """Parse '0'/'1' or '.'/'#' notation."""
        mapping = {"0": 0, "1": 1, ".": 0, "#": 1}
        try:
            return cls(mapping[ch] for ch in text.strip())
        except KeyError as exc:
            raise ValueError(f"invalid bit character {exc.args[0]!r}") from None

    def to_text(self) -> str:
        return "".join(str(b) for b in self._bits)

    def packed(self) -> bytes:
        """MSB-first packing, zero-padded to a byte boundary."""
        out = bytearray((len(self._bits) + 7) // 8)
        for i, b in enumerate(self._bits):
            if b:
                out[i // 8] |= 0x80 >> (i % 8)
        return bytes(out)

    @classmethod
    def from_packed(cls, data: bytes, nbits: int) -> "Bits":
        bits = []
        for i in range(nbits):
            bits.append((data[i // 8] >> (7 - i % 8)) & 1)
        return cls(bits)

    def __len__(self):
        return len(self._bits)

    def __iter__(self):
        return iter(self._bits)

    def __getitem__(self, i):
        return self._bits[i]

    def __eq__(self, other):
        if not isinstance(other, Bits):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self):
        return hash(("Bits", self._bits))

    def __setattr__(self, name, value):
        raise AttributeError("Bits is immutable")

    def __repr__(self):
        return f"Bits({self.to_text()!r})"


class ScriptRef:
    """The one object per canonical script byte string, so equality is identity.

    ``ScriptRef(expr)`` and ``ScriptRef.from_bytes(data)`` return the
    object interned for those bytes, creating it on first use.
    """

    __slots__ = ("expr", "canonical")

    def __new__(cls, expr):
        if isinstance(expr, ScriptRef):
            return expr
        data = serialize_script(expr)
        ref = _INTERNED.get(data)
        if ref is None:
            ref = _intern(expr, data)
        return ref

    @classmethod
    def from_bytes(cls, data: bytes, depth: int = 0) -> "ScriptRef":
        """Decodes only on a table miss; rejects bytes that do not re-encode
        to themselves, so each script has exactly one accepted encoding.

        ``depth`` is the depth of the literal node holding ``data`` inside
        another script.  Such bytes are decoded even on a hit, so whether
        they fit under MAX_DEPTH never depends on what the table holds.
        """
        data = bytes(data)
        ref = _INTERNED.get(data)
        if ref is None or depth:
            expr = deserialize_script(data, depth)
            if ref is None:
                if serialize_script(expr) != data:
                    raise ScriptFormatError("script bytes are not in canonical form")
                ref = _intern(expr, data)
        return ref

    def __setattr__(self, name, value):
        raise AttributeError("ScriptRef is immutable")

    def __repr__(self):
        return f"ScriptRef({len(self.canonical)} bytes)"


# canonical bytes -> the ScriptRef for them
_INTERNED: dict[bytes, ScriptRef] = {}


def _intern(expr, data: bytes) -> ScriptRef:
    ref = object.__new__(ScriptRef)
    object.__setattr__(ref, "expr", expr)
    object.__setattr__(ref, "canonical", data)
    # setdefault keeps one object per byte string even if two threads race
    return _INTERNED.setdefault(data, ref)


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Lit:
    value: object  # bool | int | Bits | ScriptRef


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class CtxRef:
    kind: str  # "self" | "in" | "out"


@dataclass(frozen=True)
class FieldAccess:
    obj: "Expr"
    field: str


@dataclass(frozen=True)
class ScriptOf:
    obj: "Expr"


@dataclass(frozen=True)
class Index:
    obj: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class Size:
    obj: "Expr"


@dataclass(frozen=True)
class Arith:
    op: str  # "+" | "-" | "mod"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class PowMod:
    base: "Expr"
    exponent: "Expr"
    modulus: "Expr"


@dataclass(frozen=True)
class Cmp:
    op: str  # "=" | "<"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOp:
    op: str  # "&" | "|" | "^"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class MapIndices:
    length: "Expr"
    var: str
    body: "Expr"


@dataclass(frozen=True)
class Let:
    name: str
    value: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class CopyEq:
    target: "Expr"
    source: "Expr"
    overrides: tuple  # of (field, Expr)


@dataclass(frozen=True)
class ListConcat:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class SyntheticOutput:
    fields: tuple  # of (field, Expr), payload order
    script: "Expr"


Expr = (
    Lit | Var | CtxRef | FieldAccess | ScriptOf | Index | Size | Arith
    | PowMod | Cmp | BoolOp | Not | MapIndices | Let | If | CopyEq
    | ListConcat | SyntheticOutput
)

_NODE_TYPES = (
    Lit, Var, CtxRef, FieldAccess, ScriptOf, Index, Size, Arith, PowMod,
    Cmp, BoolOp, Not, MapIndices, Let, If, CopyEq, ListConcat,
    SyntheticOutput,
)


def is_expr(obj) -> bool:
    return isinstance(obj, _NODE_TYPES)


def children(expr: Expr) -> tuple:
    """Direct sub-expressions of a node."""
    out = []
    for f in fields(expr):
        v = getattr(expr, f.name)
        if is_expr(v):
            out.append(v)
        elif isinstance(v, tuple):
            out.extend(e for _, e in v)
    return tuple(out)


def static_cost(expr: Expr) -> int:
    """Structural weight: total node count. Strictly monotone under containment."""
    return 1 + sum(static_cost(c) for c in children(expr))


# ---------------------------------------------------------------------------
# Canonical serialization: tag-length-value, big-endian lengths.
#
# Node tags
#   0x01 Lit           0x02 Var           0x03 CtxRef (+kind byte)
#   0x04 FieldAccess   0x05 ScriptOf      0x06 Index
#   0x07 Size          0x08 Arith (+op)   0x09 PowMod
#   0x0A Cmp (+op)     0x0B BoolOp (+op)  0x0C Not
#   0x0D MapIndices    0x0E Let           0x0F If
#   0x10 CopyEq        0x11 ListConcat    0x12 SyntheticOutput
# Value tags
#   0x20 Bool  0x21 Int  0x22 Bits  0x23 ScriptRef
#
# The whole serialization is prefixed with a one-byte format version.

_CTX_KINDS = ("self", "in", "out")
_ARITH_OPS = ("+", "-", "mod")
_CMP_OPS = ("=", "<")
_BOOL_OPS = ("&", "|", "^")


class ScriptFormatError(ValueError):
    """Raised when canonical script bytes cannot be decoded."""


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _enc_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _u32(len(raw)) + raw


def _enc_value(v) -> bytes:
    if isinstance(v, bool):
        return b"\x20" + (b"\x01" if v else b"\x00")
    if isinstance(v, int):
        if v == 0:
            raw = b""
        else:
            raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        return b"\x21" + _u32(len(raw)) + raw
    if isinstance(v, Bits):
        return b"\x22" + _u32(len(v)) + v.packed()
    if isinstance(v, ScriptRef):
        body = v.canonical[1:]  # nested scripts omit the version byte
        return b"\x23" + _u32(len(body)) + body
    raise TypeError(f"cannot serialize value of type {type(v).__name__}")


def _encode(e: Expr) -> bytes:
    if isinstance(e, Lit):
        return b"\x01" + _enc_value(e.value)
    if isinstance(e, Var):
        return b"\x02" + _enc_str(e.name)
    if isinstance(e, CtxRef):
        return b"\x03" + bytes([_CTX_KINDS.index(e.kind)])
    if isinstance(e, FieldAccess):
        return b"\x04" + _enc_str(e.field) + _encode(e.obj)
    if isinstance(e, ScriptOf):
        return b"\x05" + _encode(e.obj)
    if isinstance(e, Index):
        return b"\x06" + _encode(e.obj) + _encode(e.index)
    if isinstance(e, Size):
        return b"\x07" + _encode(e.obj)
    if isinstance(e, Arith):
        return b"\x08" + bytes([_ARITH_OPS.index(e.op)]) + _encode(e.left) + _encode(e.right)
    if isinstance(e, PowMod):
        return b"\x09" + _encode(e.base) + _encode(e.exponent) + _encode(e.modulus)
    if isinstance(e, Cmp):
        return b"\x0a" + bytes([_CMP_OPS.index(e.op)]) + _encode(e.left) + _encode(e.right)
    if isinstance(e, BoolOp):
        return b"\x0b" + bytes([_BOOL_OPS.index(e.op)]) + _encode(e.left) + _encode(e.right)
    if isinstance(e, Not):
        return b"\x0c" + _encode(e.operand)
    if isinstance(e, MapIndices):
        return b"\x0d" + _enc_str(e.var) + _encode(e.length) + _encode(e.body)
    if isinstance(e, Let):
        return b"\x0e" + _enc_str(e.name) + _encode(e.value) + _encode(e.body)
    if isinstance(e, If):
        return b"\x0f" + _encode(e.cond) + _encode(e.then) + _encode(e.orelse)
    if isinstance(e, CopyEq):
        parts = [b"\x10", _u32(len(e.overrides)), _encode(e.target), _encode(e.source)]
        for name, expr in e.overrides:
            parts.append(_enc_str(name))
            parts.append(_encode(expr))
        return b"".join(parts)
    if isinstance(e, ListConcat):
        return b"\x11" + _encode(e.left) + _encode(e.right)
    if isinstance(e, SyntheticOutput):
        parts = [b"\x12", _u32(len(e.fields))]
        for name, expr in e.fields:
            parts.append(_enc_str(name))
            parts.append(_encode(expr))
        parts.append(_encode(e.script))
        return b"".join(parts)
    raise TypeError(f"not a script expression: {type(e).__name__}")


def serialize_script(expr: Expr) -> bytes:
    """Canonical bytes for a script. Byte equality is script equality."""
    return bytes([FORMAT_VERSION]) + _encode(expr)


class _Reader:
    def __init__(self, data: bytes, depth: int):
        self.data = data
        self.pos = 0
        self.depth = depth  # nodes open around the next one to decode

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ScriptFormatError("truncated script bytes")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def string(self) -> str:
        n = self.u32()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScriptFormatError("bad utf-8 in script bytes") from exc


def _dec_value(r: _Reader):
    tag = r.u8()
    if tag == 0x20:
        b = r.u8()
        if b not in (0, 1):
            raise ScriptFormatError("bad bool byte")
        return b == 1
    if tag == 0x21:
        n = r.u32()
        raw = r.take(n)
        return int.from_bytes(raw, "big", signed=True) if raw else 0
    if tag == 0x22:
        nbits = r.u32()
        raw = r.take((nbits + 7) // 8)
        return Bits.from_packed(raw, nbits)
    if tag == 0x23:
        n = r.u32()
        return ScriptRef.from_bytes(bytes([FORMAT_VERSION]) + r.take(n), r.depth)
    raise ScriptFormatError(f"unknown value tag 0x{tag:02x}")


def _dec_enum(r: _Reader, table):
    b = r.u8()
    if b >= len(table):
        raise ScriptFormatError("bad enum byte")
    return table[b]


def _decode(r: _Reader) -> Expr:
    if r.depth >= MAX_DEPTH:
        raise ScriptFormatError(f"script nests deeper than {MAX_DEPTH} nodes")
    r.depth += 1
    node = _decode_node(r)
    r.depth -= 1
    return node


def _decode_node(r: _Reader) -> Expr:
    tag = r.u8()
    if tag == 0x01:
        return Lit(_dec_value(r))
    if tag == 0x02:
        return Var(r.string())
    if tag == 0x03:
        return CtxRef(_dec_enum(r, _CTX_KINDS))
    if tag == 0x04:
        field = r.string()
        return FieldAccess(_decode(r), field)
    if tag == 0x05:
        return ScriptOf(_decode(r))
    if tag == 0x06:
        return Index(_decode(r), _decode(r))
    if tag == 0x07:
        return Size(_decode(r))
    if tag == 0x08:
        op = _dec_enum(r, _ARITH_OPS)
        return Arith(op, _decode(r), _decode(r))
    if tag == 0x09:
        return PowMod(_decode(r), _decode(r), _decode(r))
    if tag == 0x0A:
        op = _dec_enum(r, _CMP_OPS)
        return Cmp(op, _decode(r), _decode(r))
    if tag == 0x0B:
        op = _dec_enum(r, _BOOL_OPS)
        return BoolOp(op, _decode(r), _decode(r))
    if tag == 0x0C:
        return Not(_decode(r))
    if tag == 0x0D:
        var = r.string()
        return MapIndices(_decode(r), var, _decode(r))
    if tag == 0x0E:
        name = r.string()
        return Let(name, _decode(r), _decode(r))
    if tag == 0x0F:
        return If(_decode(r), _decode(r), _decode(r))
    if tag == 0x10:
        n = r.u32()
        target = _decode(r)
        source = _decode(r)
        overrides = []
        for _ in range(n):
            name = r.string()
            overrides.append((name, _decode(r)))
        return CopyEq(target, source, tuple(overrides))
    if tag == 0x11:
        return ListConcat(_decode(r), _decode(r))
    if tag == 0x12:
        n = r.u32()
        flds = []
        for _ in range(n):
            name = r.string()
            flds.append((name, _decode(r)))
        return SyntheticOutput(tuple(flds), _decode(r))
    raise ScriptFormatError(f"unknown node tag 0x{tag:02x}")


def deserialize_script(data: bytes, depth: int = 0) -> Expr:
    """Decode canonical bytes; ``depth`` as in ``ScriptRef.from_bytes``."""
    r = _Reader(data, depth)
    version = r.u8()
    if version != FORMAT_VERSION:
        raise ScriptFormatError(f"unsupported format version {version}")
    expr = _decode(r)
    if r.pos != len(r.data):
        raise ScriptFormatError("trailing bytes after script")
    return expr


# ---------------------------------------------------------------------------
# Source printer. parse(script_source(e)) == e for any well-formed AST whose
# field names avoid the reserved postfix words.

# Precedence levels, loosest first; unary and postfix are tighter than all.
_PREC_OR = 1
_PREC_XOR = 2
_PREC_AND = 3
_PREC_CMP = 4
_PREC_CONCAT = 5
_PREC_ADD = 6
_PREC_MOD = 7
_PREC_UNARY = 8
_PREC_POSTFIX = 9


def _src_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Bits):
        return "0b" + v.to_text() if len(v) else "0b_"
    raise TypeError(f"no literal syntax for {type(v).__name__}")


def _src(e: Expr, parent_prec: int) -> str:
    def wrap(text: str, prec: int) -> str:
        return f"({text})" if prec < parent_prec else text

    if isinstance(e, Lit):
        if isinstance(e.value, int) and not isinstance(e.value, bool) and e.value < 0:
            return wrap(str(e.value), _PREC_UNARY)
        return _src_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, CtxRef):
        return e.kind
    if isinstance(e, FieldAccess):
        return f"{_src(e.obj, _PREC_POSTFIX)}.{e.field}"
    if isinstance(e, ScriptOf):
        return f"{_src(e.obj, _PREC_POSTFIX)}.script"
    if isinstance(e, Size):
        return f"{_src(e.obj, _PREC_POSTFIX)}.size"
    if isinstance(e, Index):
        return f"{_src(e.obj, _PREC_POSTFIX)}[{_src(e.index, 0)}]"
    if isinstance(e, Arith):
        if e.op == "mod":
            return wrap(f"{_src(e.left, _PREC_MOD)} mod {_src(e.right, _PREC_UNARY)}", _PREC_MOD)
        return wrap(f"{_src(e.left, _PREC_ADD)} {e.op} {_src(e.right, _PREC_MOD)}", _PREC_ADD)
    if isinstance(e, PowMod):
        text = (f"{_src(e.base, _PREC_UNARY)} pow {_src(e.exponent, _PREC_UNARY)}"
                f" mod {_src(e.modulus, _PREC_UNARY)}")
        return wrap(text, _PREC_MOD)
    if isinstance(e, Cmp):
        return wrap(f"{_src(e.left, _PREC_CONCAT)} {e.op} {_src(e.right, _PREC_CONCAT)}", _PREC_CMP)
    if isinstance(e, BoolOp):
        prec = {"|": _PREC_OR, "^": _PREC_XOR, "&": _PREC_AND}[e.op]
        return wrap(f"{_src(e.left, prec)} {e.op} {_src(e.right, prec + 1)}", prec)
    if isinstance(e, Not):
        return wrap(f"!{_src(e.operand, _PREC_UNARY)}", _PREC_UNARY)
    if isinstance(e, ListConcat):
        return wrap(f"{_src(e.left, _PREC_CONCAT)} ++ {_src(e.right, _PREC_ADD)}", _PREC_CONCAT)
    if isinstance(e, MapIndices):
        return f"map({_src(e.length, 0)}, {e.var} -> {_src(e.body, 0)})"
    if isinstance(e, Let):
        # binders swallow everything to their right: parenthesize unless
        # already in a bracketed context
        return wrap(f"let {e.name} = {_src(e.value, 0)} in {_src(e.body, 0)}", 0)
    if isinstance(e, If):
        return wrap(f"if {_src(e.cond, 0)} then {_src(e.then, 0)} else {_src(e.orelse, 0)}", 0)
    if isinstance(e, CopyEq):
        parts = [_src(e.target, 0), _src(e.source, 0)]
        parts += [f"{name} <- {_src(x, 0)}" for name, x in e.overrides]
        return f"copyEq({', '.join(parts)})"
    if isinstance(e, SyntheticOutput):
        parts = [f"{name} <- {_src(x, 0)}" for name, x in e.fields]
        parts.append(f"script <- {_src(e.script, 0)}")
        return f"output({', '.join(parts)})"
    raise TypeError(f"not a script expression: {type(e).__name__}")


def script_source(expr: Expr) -> str:
    """Render an AST back to DSL text."""
    return _src(expr, 0)
