"""Core definitions of the guarding-script language.

A guarding script is a loop-free expression tree evaluated against a
spending transaction.  This module defines the value types, the AST, the
canonical byte serialization (the authoritative notion of script
equality), and a source printer.  One table, ``_WIRE``, gives each node
class's tag and field layout; encoding, decoding and the AST walks all
read it.  AST equality is byte equality: a literal's value type counts,
so ``Lit(True) != Lit(1)``.  Parsing lives in ``parser``; evaluation in
``interp``.

The only repetition construct is ``MapIndices`` whose length is capped at
runtime, so every script terminates in a statically bounded number of
node visits.
"""

from __future__ import annotations

import struct


FORMAT_VERSION = 1

# Deepest node nesting a script may have, counted on through nested
# script literals: the root is at depth 1.  The decoder and the parser
# reject deeper scripts, which bounds the recursion of every tree walk
# after them.  The grid validator is 24 deep.
MAX_DEPTH = 64

# Field names that collide with postfix syntax and are therefore banned
# in payloads.
RESERVED_FIELD_NAMES = frozenset({"size", "script"})


# ---------------------------------------------------------------------------
# Records

def record(cls):
    """Class decorator: a frozen record of the class's own annotated fields.

    Fields keep the order they are written in, and a class-level value is
    that field's default.  ``__init__`` takes the fields positionally or
    by keyword.  Records are equal when they have the same class and
    equal field tuples; a record hashes its field tuple and raises
    ``AttributeError`` on assignment and deletion.  The field-wise
    methods are generated as source and compiled by one ``exec`` per
    class.  A method the class body defines itself is kept, as
    ``dataclasses`` keeps it.  ``__record_fields__`` holds the field names.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    env = {"_set": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            env["_d_" + name] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
    mine = "(" + "".join(f"self.{name}," for name in names) + ")"
    theirs = "(" + "".join(f"other.{name}," for name in names) + ")"
    init = [f" _set(self, {name!r}, {name})" for name in names] or [" pass"]
    source = [f"def __init__(self, {', '.join(params)}):", *init,
              "def __eq__(self, other):",
              " if other.__class__ is self.__class__:",
              f"  return {mine} == {theirs}",
              " return NotImplemented",
              "def __hash__(self):",
              f" return hash({mine})"]
    methods = {"__repr__": _record_repr, "__setattr__": _immutable,
               "__delattr__": _immutable}
    exec("\n".join(source), env, methods)
    for method, function in methods.items():
        if method not in cls.__dict__:
            setattr(cls, method, function)
    cls.__record_fields__ = names
    return cls


def _record_repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in self.__record_fields__)
    return f"{type(self).__qualname__}({fields})"


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


_MARKS = str.maketrans(".#", "01")


class Bits:
    """Immutable sequence of bits (0/1), usable as a payload value.

    A ``Bits`` holds its bits as one int, the first bit most significant,
    and its width, the number of bits: ``Bits.from_text("0110")`` holds
    6 and 4.  The int is below ``2 ** width``, so equal bits have equal
    ints.  Indexing, iteration, text and packing all read that int, and
    ``from_int`` takes one unconverted.
    """

    __slots__ = ("_int", "_width")

    def __init__(self, bits=()):
        vals = [int(b) for b in bits]
        if any(b not in (0, 1) for b in vals):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_int", int("".join(map(str, vals)) or "0", 2))
        object.__setattr__(self, "_width", len(vals))

    @classmethod
    def from_text(cls, text: str) -> "Bits":
        """Parse '0'/'1' or '.'/'#' notation."""
        text = text.strip()
        digits = text.translate(_MARKS)
        if digits.count("0") + digits.count("1") != len(digits):
            bad = next(ch for ch in text if ch not in "01.#")
            raise ValueError(f"invalid bit character {bad!r}")
        return cls.from_int(int(digits or "0", 2), len(digits))

    def to_text(self) -> str:
        return format(self._int, "b").zfill(self._width) if self._width else ""

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "Bits":
        """The ``nbits`` bits of ``0 <= value < 2 ** nbits``, the most
        significant first."""
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value out of range for {nbits} bits")
        bits = object.__new__(cls)
        object.__setattr__(bits, "_int", value)
        object.__setattr__(bits, "_width", nbits)
        return bits

    def packed(self) -> bytes:
        """MSB-first packing, zero-padded to a byte boundary."""
        size = (self._width + 7) // 8
        return (self._int << 8 * size - self._width).to_bytes(size, "big")

    @classmethod
    def from_packed(cls, data: bytes, nbits: int) -> "Bits":
        """The first ``nbits`` bits of ``data``, MSB first; padding bits
        past them are ignored."""
        if nbits <= 0:
            return cls()
        size = (nbits + 7) // 8
        if len(data) < size:
            raise IndexError("packed bits are shorter than their bit count")
        return cls.from_int(int.from_bytes(data[:size], "big")
                            >> (8 * size - nbits), nbits)

    def __len__(self):
        return self._width

    def __iter__(self):
        return map(int, self.to_text())

    def __getitem__(self, i):
        if i < 0:
            i += self._width
        if not 0 <= i < self._width:
            raise IndexError("Bits index out of range")
        return self._int >> self._width - 1 - i & 1

    def __eq__(self, other):
        if not isinstance(other, Bits):
            return NotImplemented
        return self._int == other._int and self._width == other._width

    def __hash__(self):
        return hash(("Bits", self._width, self._int))

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

@record
class Lit:
    value: object  # bool | int | Bits | ScriptRef

    # as their bytes do, literals differ in their value's type: True == 1
    # in Python, but Lit(True) != Lit(1)
    def __eq__(self, other):
        if other.__class__ is not Lit:
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self):
        return hash((type(self.value), self.value))


@record
class Var:
    name: str


@record
class CtxRef:
    kind: str  # "self" | "in" | "out"


@record
class FieldAccess:
    obj: "Expr"
    field: str


@record
class ScriptOf:
    obj: "Expr"


@record
class Index:
    obj: "Expr"
    index: "Expr"


@record
class Size:
    obj: "Expr"


@record
class Arith:
    op: str  # "+" | "-" | "mod"
    left: "Expr"
    right: "Expr"


@record
class PowMod:
    base: "Expr"
    exponent: "Expr"
    modulus: "Expr"


@record
class Cmp:
    op: str  # "=" | "<"
    left: "Expr"
    right: "Expr"


@record
class BoolOp:
    op: str  # "&" | "|" | "^"
    left: "Expr"
    right: "Expr"


@record
class Not:
    operand: "Expr"


@record
class MapIndices:
    length: "Expr"
    var: str
    body: "Expr"


@record
class Let:
    name: str
    value: "Expr"
    body: "Expr"


@record
class If:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@record
class CopyEq:
    target: "Expr"
    source: "Expr"
    overrides: tuple  # of (field, Expr)


@record
class ListConcat:
    left: "Expr"
    right: "Expr"


@record
class SyntheticOutput:
    fields: tuple  # of (field, Expr), payload order
    script: "Expr"


Expr = (
    Lit | Var | CtxRef | FieldAccess | ScriptOf | Index | Size | Arith
    | PowMod | Cmp | BoolOp | Not | MapIndices | Let | If | CopyEq
    | ListConcat | SyntheticOutput
)

# ---------------------------------------------------------------------------
# The wire format.  Canonical bytes are a one-byte format version, then the
# root node: its tag byte, then its fields in the order ``_WIRE`` lists
# them, each written as its kind says (lengths are big-endian):
#   "expr"   a node, in this same form
#   "value"  a literal value, as ``_enc_value`` writes it
#   "name"   a string: u32 length, then UTF-8
#   a tuple  one byte, the index of the field's value in the tuple
#   "count"  the u32 number of the field's (name, expr) pairs
#   "pairs"  that many pairs, each a "name" then an "expr"
# The encoder, the decoder, ``NODE_FIELDS`` and ``children`` all read it.

_WIRE = {
    Lit: (0x01, (("value", "value"),)),
    Var: (0x02, (("name", "name"),)),
    CtxRef: (0x03, (("kind", ("self", "in", "out")),)),
    FieldAccess: (0x04, (("field", "name"), ("obj", "expr"))),
    ScriptOf: (0x05, (("obj", "expr"),)),
    Index: (0x06, (("obj", "expr"), ("index", "expr"))),
    Size: (0x07, (("obj", "expr"),)),
    Arith: (0x08, (("op", ("+", "-", "mod")), ("left", "expr"), ("right", "expr"))),
    PowMod: (0x09, (("base", "expr"), ("exponent", "expr"), ("modulus", "expr"))),
    Cmp: (0x0A, (("op", ("=", "<")), ("left", "expr"), ("right", "expr"))),
    BoolOp: (0x0B, (("op", ("&", "|", "^")), ("left", "expr"), ("right", "expr"))),
    Not: (0x0C, (("operand", "expr"),)),
    MapIndices: (0x0D, (("var", "name"), ("length", "expr"), ("body", "expr"))),
    Let: (0x0E, (("name", "name"), ("value", "expr"), ("body", "expr"))),
    If: (0x0F, (("cond", "expr"), ("then", "expr"), ("orelse", "expr"))),
    CopyEq: (0x10, (("overrides", "count"), ("target", "expr"), ("source", "expr"),
                    ("overrides", "pairs"))),
    ListConcat: (0x11, (("left", "expr"), ("right", "expr"))),
    SyntheticOutput: (0x12, (("fields", "count"), ("fields", "pairs"), ("script", "expr"))),
}

_BY_TAG = {tag: (cls, layout) for cls, (tag, layout) in _WIRE.items()}


def _node_fields(cls, layout) -> tuple:
    holds = {name: kind for name, kind in layout if kind in ("expr", "pairs")}
    return tuple((name, holds.get(name)) for name in cls.__record_fields__)


# Per node class, its fields in declared order as (name, what it holds):
# "expr" one expression, "pairs" a tuple of (name, expression) pairs,
# None no expression.
NODE_FIELDS = {cls: _node_fields(cls, layout) for cls, (_, layout) in _WIRE.items()}


def children(expr: Expr) -> tuple:
    """Direct sub-expressions of a node."""
    out = []
    for name, holds in NODE_FIELDS[type(expr)]:
        if holds == "expr":
            out.append(getattr(expr, name))
        elif holds == "pairs":
            out.extend(e for _, e in getattr(expr, name))
    return tuple(out)


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


def _value_end(data: bytes, pos: int) -> int:
    """Where the value encoding that ``_enc_value`` wrote at ``pos`` ends."""
    tag = data[pos]
    if tag == 0x20:
        return pos + 2
    n = int.from_bytes(data[pos + 1:pos + 5], "big")
    return pos + 5 + ((n + 7) // 8 if tag == 0x22 else n)


def _encode(e: Expr, out: bytearray) -> None:
    wire = _WIRE.get(type(e))
    if wire is None:
        raise TypeError(f"not a script expression: {type(e).__name__}")
    tag, layout = wire
    out.append(tag)
    for name, kind in layout:
        value = getattr(e, name)
        if kind == "expr":
            _encode(value, out)
        elif kind == "value":
            out += _enc_value(value)
        elif kind == "name":
            out += _enc_str(value)
        elif kind == "count":
            out += _u32(len(value))
        elif kind == "pairs":
            for field, x in value:
                out += _enc_str(field)
                _encode(x, out)
        else:
            out.append(kind.index(value))


def serialize_script(expr: Expr) -> bytes:
    """Canonical bytes for a script. Byte equality is script equality."""
    out = bytearray([FORMAT_VERSION])
    _encode(expr, out)
    return bytes(out)


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


def _decode(r: _Reader) -> Expr:
    if r.depth >= MAX_DEPTH:
        raise ScriptFormatError(f"script nests deeper than {MAX_DEPTH} nodes")
    r.depth += 1
    node = _decode_node(r)
    r.depth -= 1
    return node


def _decode_node(r: _Reader) -> Expr:
    tag = r.u8()
    wire = _BY_TAG.get(tag)
    if wire is None:
        raise ScriptFormatError(f"unknown node tag 0x{tag:02x}")
    cls, layout = wire
    fields = {}
    for name, kind in layout:
        if kind == "expr":
            fields[name] = _decode(r)
        elif kind == "value":
            fields[name] = _dec_value(r)
        elif kind == "name":
            fields[name] = r.string()
        elif kind == "count":
            count = r.u32()
        elif kind == "pairs":
            fields[name] = tuple((r.string(), _decode(r)) for _ in range(count))
        else:
            b = r.u8()
            if b >= len(kind):
                raise ScriptFormatError("bad enum byte")
            fields[name] = kind[b]
    return cls(**fields)


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
            # 'a pow b mod c mod d' does not parse: a pow on the left is bracketed
            left = _src(e.left, _PREC_UNARY if isinstance(e.left, PowMod) else _PREC_MOD)
            return wrap(f"{left} mod {_src(e.right, _PREC_UNARY)}", _PREC_MOD)
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
