import pytest
from hypothesis import given, settings, strategies as st

from utxo110.lang import (
    MAX_DEPTH, Arith, Bits, BoolOp, Cmp, CopyEq, CtxRef, FieldAccess, Index, If,
    Lit, Not, PowMod, ScriptFormatError, ScriptOf, ScriptRef,
    Size, SyntheticOutput, deserialize_script, script_source,
    serialize_script, static_cost,
)
from conftest import NON_CANONICAL_SCRIPTS
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


class TestStaticCost:
    def test_single_node(self):
        assert static_cost(Lit(True)) == 1

    def test_strict_monotonicity_under_containment(self):
        for source in ("1 + 2", "map(3, i -> in[0].layer[i])",
                       "if true then 1 else 2"):
            expr = parse(source)
            queue = [expr]
            while queue:
                node = queue.pop()
                from utxo110.lang import children
                for child in children(node):
                    assert static_cost(node) > static_cost(child)
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
    def test_parse_print_identity(self, expr):
        assert parse(script_source(expr)) == expr

    @settings(max_examples=150, deadline=None)
    @given(_exprs, _exprs)
    def test_serialization_injective(self, a, b):
        if a != b:
            assert serialize_script(a) != serialize_script(b)

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
