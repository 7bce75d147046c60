"""``lang.Bits`` as a tuple of one int per bit, kept as a reference.

This is the ``Bits`` class as it was before it held one int and its
width.  Property tests run every operation on both and require the same
value or the same error.
"""

# bytes.translate tables between bit values 0/1 and their text
_TEXT_TO_BITS = bytes(
    {ord("0"): 0, ord("."): 0, ord("1"): 1, ord("#"): 1}.get(c, 0xFF)
    for c in range(256))
_BITS_TO_TEXT = bytes.maketrans(b"\0\1", b"01")


class TupleBits:
    """Immutable sequence of bits (0/1), usable as a payload value."""

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        vals = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in vals):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_bits", vals)

    @classmethod
    def _of(cls, values) -> "TupleBits":
        """Bits from 0/1 ints, bools or bytes that the caller has already
        checked, without the public constructor's check of each value."""
        bits = object.__new__(cls)
        object.__setattr__(bits, "_bits", tuple(bytes(values)))
        return bits

    @classmethod
    def from_text(cls, text: str) -> "TupleBits":
        """Parse '0'/'1' or '.'/'#' notation."""
        text = text.strip()
        if text.isascii():
            values = text.encode("ascii").translate(_TEXT_TO_BITS)
            if 0xFF not in values:
                return cls._of(values)
        bad = next(ch for ch in text if ch not in "01.#")
        raise ValueError(f"invalid bit character {bad!r}")

    def to_text(self) -> str:
        return bytes(self._bits).translate(_BITS_TO_TEXT).decode("ascii")

    def to_int(self) -> int:
        """The bits as one int, the first bit most significant; 0 when
        there are none."""
        if not self._bits:
            return 0
        return int(bytes(self._bits).translate(_BITS_TO_TEXT), 2)

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "TupleBits":
        """The ``nbits`` bits of ``0 <= value < 2 ** nbits``, the most
        significant first: the inverse of ``to_int`` at that width."""
        if nbits <= 0:
            return cls._of(b"")
        return cls._of(format(value, f"0{nbits}b").encode("ascii")
                       .translate(_TEXT_TO_BITS))

    def packed(self) -> bytes:
        """MSB-first packing, zero-padded to a byte boundary."""
        size = (len(self._bits) + 7) // 8
        pad = 8 * size - len(self._bits)
        return (self.to_int() << pad).to_bytes(size, "big")

    @classmethod
    def from_packed(cls, data: bytes, nbits: int) -> "TupleBits":
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
        return len(self._bits)

    def __iter__(self):
        return iter(self._bits)

    def __getitem__(self, i):
        return self._bits[i]

    def __eq__(self, other):
        if not isinstance(other, TupleBits):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self):
        return hash(("Bits", self._bits))

    def __setattr__(self, name, value):
        raise AttributeError("Bits is immutable")

    def __repr__(self):
        return f"Bits({self.to_text()!r})"
