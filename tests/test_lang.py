import pytest
from hypothesis import example, given, settings, strategies as st

from utxo110.lang import (
    MAX_DEPTH, Arith, Bits, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess,
    Index, If, Let, ListConcat, Lit, MapIndices, Not, PowMod, ScriptFormatError,
    ScriptOf, ScriptRef, Size, SyntheticOutput, Var, children,
    _WIRE, deserialize_script, script_source, serialize_script,
)
from bits_oracle import TupleBits
from conftest import NON_CANONICAL_SCRIPTS, node_count
from utxo110.parser import parse
from utxo110.rule110 import build_bit_script, build_layer_script


class TestBits:
    def test_from_text_digits_and_marks(self):
        assert list(Bits.from_text("0110")) == [0, 1, 1, 0]
        assert list(Bits.from_text(".##.")) == [0, 1, 1, 0]

    def test_bad_character(self):
        with pytest.raises(ValueError):
            Bits.from_text("01x")

    def test_packing_round_trip(self):
        for text in ("", "1", "01101", "1" * 17, "0" * 9 + "1"):
            b = Bits.from_text(text) if text else Bits()
            assert Bits.from_packed(b.packed(), len(b)) == b

    def test_equality_and_hash(self):
        assert Bits([0, 1]) == Bits((0, 1))
        assert Bits([0, 1]) != Bits([0, 1, 0])
        assert hash(Bits([1])) == hash(Bits([1]))

    def test_immutable(self):
        b = Bits([1, 0])
        with pytest.raises(AttributeError):
            b.something = 1


def _outcome(function, *args):
    """What a call gives, comparable across the two Bits classes: its
    bits as text and its width, or its error's type and message."""
    try:
        value = function(*args)
    except (ValueError, IndexError) as exc:
        return "raised", type(exc), str(exc)
    return "value", value.to_text(), len(value)


_widths = st.integers(0, 300)  # past the default max_width of 256
_bit_lists = _widths.flatmap(
    lambda w: st.lists(st.integers(0, 1), min_size=w, max_size=w))


class TestBitsConversions:
    """Every Bits operation gives the value or error of the tuple
    implementation it replaced, ``bits_oracle.TupleBits``."""

    @settings(max_examples=300)
    @given(st.text(alphabet=st.one_of(st.sampled_from("01.#01.# \t\n"),
                                      st.characters()), max_size=320))
    @example("01é")
    @example(" 1#\u2003")  # Unicode whitespace is stripped too
    @example("0" * 300)
    @example("x")
    @example("0b1")
    @example("1_0")
    # str <-> int conversion limits exempt base 2: pin that
    @example("10" * 2_500)
    def test_from_text(self, text):
        got = _outcome(Bits.from_text, text)
        assert got == _outcome(TupleBits.from_text, text)
        if got[0] == "value":
            bits = Bits.from_text(text)
            assert Bits.from_text(bits.to_text()) == bits
            assert bits.to_text() == text.strip().translate(str.maketrans(".#", "01"))

    @given(_bit_lists)
    def test_to_text_and_packed(self, values):
        bits, want = Bits(values), TupleBits(values)
        assert bits.to_text() == want.to_text()
        assert bits.packed() == want.packed()
        assert repr(bits) == repr(want)

    @given(st.binary(max_size=40), st.data())
    def test_from_packed_ignores_padding(self, data, draw):
        nbits = draw.draw(st.integers(-2, 8 * len(data) + 9), label="nbits")
        got = _outcome(Bits.from_packed, data, nbits)
        assert got == _outcome(TupleBits.from_packed, data, nbits)
        if got[0] == "value" and nbits % 8 == 0:
            assert Bits.from_packed(data, nbits).packed() == data[:nbits // 8]

    @given(_bit_lists, st.integers(-3, 3))
    @example([0, 0, 1], 0)
    @example([1, 0, 0], 0)
    @example([0] * 300, 0)
    @example([], -1)
    def test_int_round_trip(self, values, off):
        bits, want = Bits(values), TupleBits(values)
        value = bits._int
        assert value == want.to_int()
        assert value == sum(b << (len(values) - 1 - k) for k, b in enumerate(values))
        assert Bits.from_int(value, len(values)) == bits
        assert _outcome(Bits.from_int, value, len(values)) \
            == _outcome(TupleBits.from_int, value, len(values))
        # outside 0 <= value < 2 ** nbits, and at a negative width, it raises
        for v, n in ((value + off * 2 ** len(values), len(values)),
                     (-1 - value, len(values)), (0, -1 - abs(off))):
            if not 0 <= v < 2 ** n:
                with pytest.raises(ValueError):
                    Bits.from_int(v, n)

    def test_from_packed_of_too_few_bytes(self):
        with pytest.raises(IndexError):
            Bits.from_packed(b"\xff", 9)

    @given(_bit_lists)
    def test_indexing_and_iteration(self, values):
        bits, want = Bits(values), TupleBits(values)
        assert len(bits) == len(want)
        items = list(bits)
        assert items == list(want) and [type(b) for b in items] == [int] * len(items)
        for i in range(-len(values) - 2, len(values) + 2):
            try:
                expected = want[i]
            except IndexError:
                with pytest.raises(IndexError):
                    bits[i]
            else:
                got = bits[i]
                assert got == expected and type(got) is int

    @given(_bit_lists, st.data())
    def test_equality_and_hash(self, values, data):
        # the other value is mostly close to the first: the same bits, one
        # flipped, one more or one less
        other = data.draw(st.one_of(
            st.just(values), _bit_lists,
            st.integers(0, max(len(values) - 1, 0)).map(
                lambda k: [b ^ (j == k) for j, b in enumerate(values)]),
            st.just(values + [0]), st.just([0] + values), st.just(values[1:])))
        a, b = Bits(values), Bits(other)
        assert (a == b) == (TupleBits(values) == TupleBits(other))
        assert (a != b) == (TupleBits(values) != TupleBits(other))
        if a == b:
            assert hash(a) == hash(b)
        assert a != tuple(values) and a != a._int and a != a.to_text()


class TestSerialization:
    def test_version_prefix(self):
        data = serialize_script(Lit(True))
        assert data[0] == 1

    def test_parse_serialize_deterministic(self):
        a = serialize_script(parse("self.layer = out[0].layer"))
        b = serialize_script(parse("  self.layer   =\n out[ 0 ].layer  # c"))
        assert a == b

    def test_different_scripts_different_bytes(self):
        assert serialize_script(build_layer_script()) \
            != serialize_script(build_bit_script())

    @pytest.mark.parametrize("source", [
        "true", "false", "0", "-17", "123456789012345678901234567890",
        "0b0110", "0b_", "self", "in", "out",
        "in[0].x + 1 - 2 mod 3",
        "5 pow out[0].x mod 23 = 13",
        "map(4, i -> in[0].layer[i])",
        "let a = 1 in a < 2",
        "if in.size = 1 then true else !false",
        "copyEq(out[1], out[0], mid <- true)",
        "output(val <- false, x <- 1, script <- in[0].script)",
        "in ++ out",
        "(1 = 1) & (2 = 2) | true ^ false",
    ])
    def test_byte_round_trip(self, source):
        expr = parse(source)
        assert deserialize_script(serialize_script(expr)) == expr

    def test_script_ref_literal_round_trip(self):
        expr = Lit(ScriptRef(parse("1 + 1 = 2")))
        assert deserialize_script(serialize_script(expr)) == expr

    def test_full_scripts_round_trip(self):
        for script in (build_layer_script(), build_bit_script()):
            assert deserialize_script(serialize_script(script)) == script

    def test_bad_version(self):
        data = bytearray(serialize_script(Lit(1)))
        data[0] = 9
        with pytest.raises(ScriptFormatError):
            deserialize_script(bytes(data))

    def test_trailing_bytes(self):
        with pytest.raises(ScriptFormatError):
            deserialize_script(serialize_script(Lit(1)) + b"\x00")

    def test_truncated(self):
        data = serialize_script(build_layer_script())
        with pytest.raises(ScriptFormatError):
            deserialize_script(data[:-3])

    def test_unknown_tag(self):
        with pytest.raises(ScriptFormatError):
            deserialize_script(bytes([1, 0x7F]))


def _every_node_kind():
    """One script holding every node kind, every enum value, and literals
    of every value kind: both bools, ints 0, -1 and a three-byte one,
    empty and 9-bit ``Bits``, and a nested script."""
    inner = ScriptRef(Cmp("=", Size(CtxRef("in")), Lit(1)))
    return Let("k", Lit(0), If(
        BoolOp("&", Cmp("<", Arith("-", Var("k"), Lit(-1)), Lit(70000)),
               BoolOp("|", Not(Lit(False)), BoolOp("^", Lit(True), Lit(False)))),
        CopyEq(Index(CtxRef("out"), Lit(1)), Index(CtxRef("out"), Lit(0)),
               (("x", Arith("mod", PowMod(Lit(3), FieldAccess(CtxRef("self"), "x"),
                                          Lit(7)), Lit(5))),
                ("mid", Lit(Bits.from_text("100000001"))))),
        Cmp("=", ListConcat(CtxRef("in"), CtxRef("out")),
            ListConcat(MapIndices(Lit(2), "i", Arith("+", Var("i"), Lit(1))),
                       SyntheticOutput((("layer", Lit(Bits())), ("n", Lit(-1))),
                                       ScriptOf(Lit(inner)))))))


# The canonical bytes of ``_every_node_kind()``: this pins each node tag,
# value tag and enum byte of the wire format, and the order of fields.
_GOLDEN_HEX = (
    "010e000000016b0121000000000f0b000a01080102000000016b012100000001"
    "ff0121000000030111700b010c0120000b020120010120001000000002060302"
    "0121000000010106030201210000000000000001780802090121000000010304"
    "000000017803000121000000010701210000000105000000036d696401220000"
    "000980800a001103010302110d00000001690121000000010208000200000001"
    "69012100000001011200000002000000056c6179657201220000000000000001"
    "6e012100000001ff0501230000000c0a0007030101210000000101"
)


class TestGoldenBytes:
    def test_wire_table_writes_every_field_of_every_node(self):
        assert set(_WIRE) == set(Expr.__args__)
        assert len({tag for tag, _ in _WIRE.values()}) == len(_WIRE)
        for cls, (_, layout) in _WIRE.items():
            names = [name for name, kind in layout if kind != "count"]
            assert sorted(names) == sorted(cls.__record_fields__)
            counted = [name for name, kind in layout if kind == "count"]
            paired = [name for name, kind in layout if kind == "pairs"]
            assert counted == paired
            if counted:  # the count comes first
                assert layout.index((counted[0], "count")) \
                    < layout.index((paired[0], "pairs"))

    def test_script_of_every_node_kind(self):
        expr = _every_node_kind()
        data = serialize_script(expr)
        assert data.hex() == _GOLDEN_HEX
        assert deserialize_script(data) == expr
        assert ScriptRef.from_bytes(data).expr == expr

    def test_golden_script_covers_the_format(self):
        nodes, queue = [], [_every_node_kind()]
        while queue:  # into the nested script too
            node = queue.pop()
            nodes.append(node)
            queue.extend(children(node))
            if isinstance(node, Lit) and type(node.value) is ScriptRef:
                queue.append(node.value.expr)
        assert {type(n) for n in nodes} == set(Expr.__args__)
        assert len(Expr.__args__) == 18
        values = [n.value for n in nodes if isinstance(n, Lit)]
        assert {True, False} <= set(v for v in values if type(v) is bool)
        ints = {v for v in values if type(v) is int}
        assert {0, -1} <= ints and any(v.bit_length() > 16 for v in ints)
        assert {len(v) for v in values if type(v) is Bits} == {0, 9}
        assert any(type(v) is ScriptRef for v in values)
        ops = {(type(n), getattr(n, name)) for n in nodes
               for name in ("op", "kind") if hasattr(n, name)}
        assert ops == {(Arith, "+"), (Arith, "-"), (Arith, "mod"), (Cmp, "="),
                       (Cmp, "<"), (BoolOp, "&"), (BoolOp, "|"), (BoolOp, "^"),
                       (CtxRef, "self"), (CtxRef, "in"), (CtxRef, "out")}


class TestStaticCost:
    def test_single_node(self):
        assert node_count(Lit(True)) == 1

    def test_strict_monotonicity_under_containment(self):
        for source in ("1 + 2", "map(3, i -> in[0].layer[i])",
                       "if true then 1 else 2"):
            expr = parse(source)
            queue = [expr]
            while queue:
                node = queue.pop()
                from utxo110.lang import children
                for child in children(node):
                    assert node_count(node) > node_count(child)
                    queue.append(child)


# A pool of closed expressions for printer round trips; binders are added
# by wrapping because a random strategy will not keep names in scope.
_names = st.sampled_from(["val", "x", "n", "mid", "layer", "field_1"])
_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.lists(st.integers(0, 1), max_size=9).map(Bits),
)
_leaf = st.one_of(
    _values.map(Lit),
    st.sampled_from(["self", "in", "out"]).map(CtxRef),
)


def _extend(expr):
    return st.one_of(
        st.tuples(expr, _names).map(lambda t: FieldAccess(t[0], t[1])),
        expr.map(ScriptOf),
        expr.map(Size),
        expr.map(Not),
        st.tuples(expr, expr).map(lambda t: Index(t[0], t[1])),
        st.tuples(st.sampled_from(["+", "-", "mod"]), expr, expr)
          .map(lambda t: Arith(t[0], t[1], t[2])),
        st.tuples(expr, expr, expr).map(lambda t: PowMod(*t)),
        st.tuples(st.sampled_from(["=", "<"]), expr, expr)
          .map(lambda t: Cmp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["&", "|", "^"]), expr, expr)
          .map(lambda t: BoolOp(t[0], t[1], t[2])),
        st.tuples(expr, expr, expr).map(lambda t: If(*t)),
        st.tuples(expr, expr).map(lambda t: CopyEq(t[0], t[1], ())),
        st.tuples(_names, expr, expr)
          .map(lambda t: SyntheticOutput(((t[0], t[1]),), t[2])),
    )


_exprs = st.recursive(_leaf, _extend, max_leaves=25)


class TestSourcePrinter:
    @settings(max_examples=300, deadline=None)
    @given(_exprs)
    @example(Not(Size(ScriptOf(Arith("mod", PowMod(Lit(False), Lit(False), Lit(False)),
                                      Lit(False))))))
    @example(Arith("mod", Lit(4), PowMod(Lit(2), Lit(3), Lit(5))))
    def test_parse_print_identity(self, expr):
        assert parse(script_source(expr)) == expr

    @settings(max_examples=150, deadline=None)
    @given(_exprs, _exprs)
    @example(Lit(True), Lit(1))
    @example(Not(Lit(False)), Not(Lit(0)))
    def test_serialization_injective(self, a, b):
        assert (a == b) == (serialize_script(a) == serialize_script(b))

    def test_pow_as_the_left_operand_of_mod(self):
        expr = Arith("mod", PowMod(Lit(2), Lit(3), Lit(5)), Lit(4))
        assert script_source(expr) == "(2 pow 3 mod 5) mod 4"
        assert parse(script_source(expr)) == expr
        assert script_source(Arith("mod", Lit(4), PowMod(Lit(2), Lit(3), Lit(5)))) \
            == "4 mod (2 pow 3 mod 5)"
        assert script_source(parse("1 + 2 pow 3 mod 5")) == "1 + 2 pow 3 mod 5"

    def test_binders_round_trip(self):
        for source in ("let a = 1 in map(3, i -> a < i)",
                       "map(2, i -> let a = i in a = 0)"):
            expr = parse(source)
            assert parse(script_source(expr)) == expr

    def test_builtin_scripts_round_trip(self):
        for script in (build_layer_script(), build_bit_script()):
            assert parse(script_source(script)) == script


def _mutate(t):
    data, pos, byte = t
    data = bytearray(data)
    data[pos % len(data)] = byte
    return bytes(data)


class TestScriptRef:
    @settings(max_examples=200, deadline=None)
    @given(_exprs)
    def test_one_object_per_canonical_bytes(self, expr):
        ref = ScriptRef(expr)
        assert ScriptRef.from_bytes(serialize_script(expr)) is ref
        assert ScriptRef(ref) is ref

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.tuples(_exprs.map(serialize_script), st.integers(0), st.integers(0, 255))
          .map(_mutate),
    ))
    def test_bytes_are_rejected_or_round_trip(self, data):
        try:
            ref = ScriptRef.from_bytes(data)
        except ScriptFormatError:
            return
        assert ref.canonical == data
        assert serialize_script(ref.expr) == data

    def test_separately_parsed_scripts_share_one_ref(self):
        a = ScriptRef(parse("self.layer = out[0].layer"))
        b = ScriptRef(parse("  self.layer   =\n out[ 0 ].layer  # c"))
        assert a is b
        assert ScriptRef(parse("1 = 1")) is not a

    @pytest.mark.parametrize("script_hex", NON_CANONICAL_SCRIPTS)
    def test_non_canonical_bytes_rejected(self, script_hex):
        data = bytes.fromhex(script_hex)
        deserialize_script(data)  # the bare decoder accepts them
        with pytest.raises(ScriptFormatError, match="canonical"):
            ScriptRef.from_bytes(data)


def _nested(depth, leaf=Lit(True)):
    """``leaf`` under enough negations to make a script ``depth`` nodes deep."""
    expr = leaf
    for _ in range(depth - 1):
        expr = Not(expr)
    return expr


class TestDepthLimit:
    def test_node_nesting(self):
        data = serialize_script(_nested(MAX_DEPTH))
        assert ScriptRef.from_bytes(data).canonical == data
        with pytest.raises(ScriptFormatError, match="deeper"):
            deserialize_script(serialize_script(_nested(MAX_DEPTH + 1)))

    @pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
    def test_count_carries_into_script_literals(self, extra, ok):
        # a chain of literals, each holding the next script, ending in a leaf
        script = Lit(True)
        for _ in range(MAX_DEPTH - 1 + extra):
            script = Lit(ScriptRef(script))
        data = serialize_script(script)
        if ok:
            assert ScriptRef.from_bytes(data).canonical == data
        else:
            with pytest.raises(ScriptFormatError, match="deeper"):
                ScriptRef.from_bytes(data)

    def test_interned_literal_still_counts(self):
        inner = ScriptRef(_nested(MAX_DEPTH // 2))
        assert ScriptRef.from_bytes(inner.canonical) is inner
        fits = _nested(MAX_DEPTH // 2, Lit(inner))
        assert ScriptRef.from_bytes(serialize_script(fits)).expr == fits
        with pytest.raises(ScriptFormatError, match="deeper"):
            ScriptRef.from_bytes(serialize_script(Not(fits)))
