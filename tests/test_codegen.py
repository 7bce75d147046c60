"""The generated evaluator against the closure-tree oracle.

Every case runs a script through ``interp.evaluate`` and through
``closure_oracle.evaluate`` and requires the same outcome: an identical
value and ``CostReceipt``, or the same exception type and message.
"""

import functools
import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import closure_oracle
from bits_oracle import TupleBits
from conftest import drive_grid, drive_layer, node_count
from rule110_oracle import evolve_cyclic
from test_bignum import unsigned, widths
from test_lang import _extend, _leaf
from utxo110 import interp
from utxo110.builder import derive_build_rules
from utxo110.interp import EvalContext
from utxo110.lang import (
    MAX_DEPTH, Arith, Bits, BoolOp, Cmp, CopyEq, CtxRef, FieldAccess, If,
    Index, Let, ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf,
    ScriptRef, Size, SyntheticOutput, Var, serialize_script,
)
from utxo110.model import Output, Payload
from utxo110.parser import parse
from utxo110.rule110 import build_bit_script, build_layer_script

FIELDS = ["val", "x", "n", "mid", "layer", "field_1"]
ENOUGH = 10**6


def outcome(evaluate, script, ctx, limit, max_width=8):
    try:
        value, receipt = evaluate(script, ctx, limit, max_width)
    except Exception as exc:  # every exception is part of the outcome
        return "raised", type(exc), str(exc)
    return "value", type(value), value, receipt


def assert_same(script, ctx, limit=ENOUGH, max_width=8):
    got = outcome(interp.evaluate, script, ctx, limit, max_width)
    want = outcome(closure_oracle.evaluate, script, ctx, limit, max_width)
    assert got == want
    return got


# Random contexts: one to three inputs, up to three outputs.  Each field
# mostly holds one kind of value (x and n ints, val and mid bools, layer
# bits) and is mostly present, so that typed scripts often succeed.
_bits = st.lists(st.integers(0, 1), max_size=6).map(Bits)
_any_value = st.one_of(st.booleans(), st.integers(-3, 8), _bits,
                       st.just(ScriptRef(Lit(True))))
_field_values = {"x": st.integers(-3, 8), "n": st.integers(-3, 8),
                 "val": st.booleans(), "mid": st.booleans(), "layer": _bits,
                 "field_1": _any_value}


@st.composite
def _payloads(draw):
    pairs = []
    for name in draw(st.permutations(FIELDS)):
        if draw(st.integers(0, 4)):
            usual = _field_values[name]
            pairs.append((name, draw(st.one_of(usual, usual, usual, _any_value))))
    return Payload(pairs)


_outputs = st.builds(Output, st.sampled_from([Lit(True), Lit(1)]), _payloads())


@st.composite
def _contexts(draw):
    inputs = draw(st.lists(_outputs, min_size=1, max_size=3))
    me = draw(st.sampled_from(inputs))
    return EvalContext(me, inputs, draw(st.lists(_outputs, max_size=3)))


# test_lang's closed expressions plus binders, variables and '++'; the
# variable names are drawn independently of the binders around them, so
# some are in scope and some are not.
_vars = st.sampled_from(["a", "b", "i"])


def _extend_binders(expr):
    return st.one_of(
        _extend(expr),
        st.tuples(_vars, expr, expr).map(lambda t: Let(*t)),
        st.tuples(expr, _vars, expr).map(lambda t: MapIndices(*t)),
        st.tuples(expr, expr).map(lambda t: ListConcat(*t)),
    )


_untyped = st.recursive(
    st.one_of(_leaf, st.integers(-2, 6).map(Lit), _vars.map(Var)),
    _extend_binders, max_leaves=25)


@functools.cache
def _typed(kind, depth):
    """Scripts that mostly evaluate to ``kind``: each node's operands are
    drawn at the kinds it needs, with variables that may be unbound."""
    leaves = {
        "int": st.one_of(st.integers(-2, 6).map(Lit), st.integers(0, 3).map(Lit),
                         _vars.map(Var)),
        "bool": st.booleans().map(Lit),
        "bits": _bits.map(Lit),
        "output": st.just(CtxRef("self")),
        "list": st.sampled_from([CtxRef("in"), CtxRef("out")]),
    }[kind]
    if depth == 0:
        return leaves
    sub = functools.partial(_typed, depth=depth - 1)
    out = sub("output")

    def field(*names):
        return st.tuples(out, st.sampled_from(names)).map(lambda t: FieldAccess(*t))

    branches = {
        "int": [
            st.tuples(st.sampled_from(["+", "-", "mod"]), sub("int"), sub("int"))
              .map(lambda t: Arith(*t)),
            st.tuples(sub("int"), sub("int"), sub("int")).map(lambda t: PowMod(*t)),
            st.one_of(sub("bits"), sub("list")).map(Size),
            field("x", "n", "field_1"),
        ],
        "bool": [
            st.tuples(st.sampled_from(["=", "<"]), sub("int"), sub("int"))
              .map(lambda t: Cmp(*t)),
            st.tuples(sub("bits"), sub("bits")).map(lambda t: Cmp("=", *t)),
            st.tuples(out, out).map(lambda t: Cmp("=", *t)),
            st.tuples(st.sampled_from(["&", "|", "^"]), sub("bool"), sub("bool"))
              .map(lambda t: BoolOp(*t)),
            sub("bool").map(Not),
            st.tuples(sub("bits"), sub("int")).map(lambda t: Index(*t)),
            field("val", "mid", "field_1"),
            st.tuples(out, out, st.lists(st.tuples(st.sampled_from(["val", "x"]),
                                                   sub("int")), max_size=2))
              .map(lambda t: CopyEq(t[0], t[1], tuple(t[2]))),
        ],
        "bits": [
            st.tuples(sub("int"), _vars, sub("bool")).map(lambda t: MapIndices(*t)),
            field("layer"),
        ],
        "output": [
            st.tuples(sub("list"), sub("int")).map(lambda t: Index(*t)),
            st.tuples(sub("int"), sub("bool"), out).map(
                lambda t: SyntheticOutput((("x", t[0]), ("val", t[1])), ScriptOf(t[2]))),
        ],
        "list": [
            st.tuples(st.one_of(sub("list"), out), st.one_of(sub("list"), out))
              .map(lambda t: ListConcat(*t)),
        ],
    }[kind]
    binders = [
        st.tuples(_vars, sub("int"), sub(kind)).map(lambda t: Let(*t)),
        st.tuples(sub("bool"), sub(kind), sub(kind)).map(lambda t: If(*t)),
    ]
    return st.one_of(leaves, *branches, *binders)


_scripts = st.one_of(_untyped, *(_typed(kind, 4) for kind in
                                 ("bool", "int", "bits", "output", "list")))

DIFF = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestDifferential:
    @DIFF
    @given(script=_scripts, ctx=_contexts(), max_width=st.integers(0, 8),
           data=st.data())
    def test_same_outcome_as_closure_tree(self, script, ctx, max_width, data):
        full = assert_same(script, ctx, ENOUGH, max_width)
        # limits from 1 to the full cost, so that running out of budget
        # meets every other failure the script can hit
        top = full[3].total_cost if full[0] == "value" else 4 * node_count(script)
        limit = data.draw(st.integers(1, max(top, 1)), label="limit")
        assert_same(script, ctx, limit, max_width)

    @pytest.mark.parametrize("drive", [lambda: drive_layer([0, 1, 1, 0, 1], 3),
                                       lambda: drive_grid([1, 0, 1], 2)],
                             ids=["layer", "grid"])
    def test_validators_on_their_own_chains(self, drive):
        txs, _ = drive()
        outputs = {tx.tx_id(): tx.outputs for tx in txs}
        checked = 0
        for tx in txs[1:]:
            inputs = [outputs[ref.tx_id][ref.index] for ref in tx.inputs]
            for me in inputs:
                ctx = EvalContext(me, inputs, tx.outputs)
                value, receipt = assert_same(me.script_ref, ctx, 10_000, 256)[2:]
                assert value is True
                for limit in (receipt.total_cost - 1, receipt.total_cost // 2):
                    assert assert_same(me.script_ref, ctx, limit, 256)[1] \
                        is interp.CostLimitExceeded
                checked += 1
        assert checked


# (base pow exp mod modulus) = out[0].r, each operand a literal or a
# field of self, of up to 8,192 bits: the generated code takes a power
# whose modulus is not a literal of at most 64 bits in _pow_mod, and the
# oracle always in builtin pow.  About one operand in ten is negative,
# one in ten is not an int and one field in ten is missing, and r is the
# power about half the time.
def _rarely(draw):
    return draw(st.integers(0, 9)) == 9


@st.composite
def _wide_pow_cases(draw):
    fields, operands = [], []
    for name in ("b", "e", "m"):
        value = draw(widths(8192).flatmap(unsigned))
        if _rarely(draw):
            value = -value
        if _rarely(draw):
            value = draw(st.booleans())
            operands.append(FieldAccess(CtxRef("self"), name))
        elif draw(st.booleans()):
            operands.append(Lit(value))
        else:
            operands.append(FieldAccess(CtxRef("self"), name))
        if not _rarely(draw):
            fields.append((name, value))
    values = dict(fields)
    b, x, m = (op.value if type(op) is Lit else values.get(name)
               for op, name in zip(operands, "bem"))
    r = draw(widths(8192).flatmap(unsigned))
    if all(type(v) is int for v in (b, x, m)) and x >= 0 and m > 0 \
            and draw(st.booleans()):
        r = pow(b, x, m)
    me = Output(Lit(True), Payload(fields))
    out = Output(Lit(True), Payload(r=r))
    script = Cmp("=", PowMod(*operands),
                 FieldAccess(Index(CtxRef("out"), Lit(0)), "r"))
    return script, EvalContext(me, (me,), (out,))


class TestWidePow:
    @settings(max_examples=100, deadline=None)
    @given(_wide_pow_cases(), st.data())
    def test_same_outcome_as_closure_tree(self, case, data):
        script, ctx = case
        full = assert_same(script, ctx)
        top = full[3].total_cost if full[0] == "value" else 4 * node_count(script)
        assert_same(script, ctx, data.draw(st.integers(1, top), label="limit"))

    @pytest.mark.parametrize("modulus, power", [
        ("1000003", "pow"), (str(2**64 - 1), "pow"), (str(2**64), "_pow_mod"),
        ("self.m", "_pow_mod"), ("(2 + 3)", "_pow_mod")])
    def test_builtin_pow_only_for_a_narrow_literal_modulus(self, modulus, power):
        source = interp._Generator().generate(
            parse(f"(self.b pow 65537 mod {modulus}) = out[0].r"))
        calls = re.findall(r"(\w+)\(t\d+, k\d+, \w+\)", source)
        assert calls == [power]


# copyEq's operands: values whose kinds differ where Python's == does not
# (True and 1) or whose ints do not (Bits at two widths), over few field
# names, so that the source often matches the target once its overrides
# apply, or matches it but for the kind of one value.
_COPY_VALUES = st.sampled_from([
    True, False, 1, 0, Bits.from_int(1, 1), Bits.from_int(1, 3), Bits(),
    ScriptRef(Lit(True)), ScriptRef(Lit(1))])
_COPY_NAMES = ("x", "y", "z", "w")


def _twin(v):
    """Another kind of ``v``: the int of a bool, the bool of an int, the
    same int at a wider width, or the other script."""
    if isinstance(v, Bits):
        return Bits.from_int(v._int, len(v) + 2)
    if isinstance(v, ScriptRef):
        return ScriptRef(Lit(1)) if v is ScriptRef(Lit(True)) else ScriptRef(Lit(True))
    return int(v) if type(v) is bool else bool(v)


def _near(value):
    return st.one_of(st.just(value), st.just(value), st.just(_twin(value)),
                     _COPY_VALUES)


@st.composite
def _copy_eq_cases(draw):
    names = draw(st.lists(st.sampled_from(_COPY_NAMES), max_size=4, unique=True))
    mine = {name: draw(_COPY_VALUES) for name in names}
    order = draw(st.sampled_from([names, draw(st.permutations(names))]))
    theirs = [(name, draw(_near(mine[name]))) for name in order]
    scripts = draw(st.sampled_from([(Lit(True),) * 2, (Lit(True),) * 2,
                                    (Lit(True), Lit(1))]))
    a = Output(scripts[0], Payload(mine.items()))
    b = Output(scripts[1], Payload(theirs))
    # an override names a field of the target or one of neither, and
    # gives a value near the target's or no payload value at all
    overrides = draw(st.lists(st.sampled_from(_COPY_NAMES + ("q",)).flatmap(
        lambda name: st.tuples(st.just(name), st.one_of(
            _near(mine.get(name, 0)).map(Lit),
            st.sampled_from([CtxRef("in"), CtxRef("self")])))), max_size=3))
    target = draw(st.sampled_from([CtxRef("self"), Index(CtxRef("in"), Lit(0))]))
    return CopyEq(target, Index(CtxRef("in"), Lit(1)), tuple(overrides)), \
        EvalContext(a, (a, b), ())


class TestCopyEq:
    @settings(max_examples=400, deadline=None)
    @given(_copy_eq_cases(), st.data())
    def test_same_outcome_as_building_the_copy(self, case, data):
        """The generated copyEq compares fields; the oracle builds the
        overridden payload and compares its bytes."""
        script, ctx = case
        full = assert_same(script, ctx)
        top = full[3].total_cost if full[0] == "value" else node_count(script)
        assert_same(script, ctx, data.draw(st.integers(1, top), label="limit"))

    def test_generated_code_builds_no_payload(self):
        source = interp._Generator().generate(build_bit_script())
        assert "_copy_eq(" in source
        assert "replace(" not in source and "Payload(" not in source

    def test_grid_checks_its_override_field_once(self):
        """Both of the grid's copyEqs override ``mid`` of ``out[0]``; the
        second cannot find it missing once the first has not."""
        source = interp._Generator().generate(build_bit_script())
        assert source.count("_missing_override(") == 1

    @pytest.mark.parametrize("fields", [
        (("val", True), ("mid", False)), (("val", True),)], ids=["present", "missing"])
    def test_two_copy_eqs_over_one_source(self, fields):
        """At every limit, as the oracle does: with ``mid`` missing from
        the source, the first copyEq raises MissingField."""
        source = Output(Lit(True), Payload(fields))
        copies = [Output(Lit(True), Payload(fields[:1] + (("mid", m),)))
                  for m in (True, False)]
        ctx = EvalContext(source, (source,), (source, *copies))
        script = parse("copyEq(out[1], out[0], mid <- true) "
                       "& copyEq(out[2], out[0], mid <- false)")
        full = assert_same(script, ctx)
        if len(fields) == 1:
            assert full[1] is interp.MissingField
        else:
            assert full[2] is True
        top = full[3].total_cost if full[0] == "value" else node_count(script)
        for limit in range(1, top + 1):
            assert_same(script, ctx, limit)

    def test_check_in_a_branch_does_not_hold_after_it(self):
        """The check the 'then' branch passes is made again after the
        'if', where the 'else' branch may have led."""
        script = parse("(if self.val then copyEq(self, out[0], mid <- true) "
                       "else true) & copyEq(self, out[0], mid <- true)")
        source = interp._Generator().generate(script)
        assert source.count("_missing_override(") == 2
        me = Output(Lit(True), Payload((("val", False),)))
        ctx = EvalContext(me, (me,), (me,))
        assert assert_same(script, ctx)[1] is interp.MissingField


# Every node kind over operands of every kind, including ones that raise,
# so that each check, its order against its operands and each operator
# is compared with the oracle under every limit up to the full cost.
_OPERANDS = [
    Lit(True), Lit(False), Lit(0), Lit(3), Lit(-2), Lit(Bits([1, 0])),
    Lit(ScriptRef(Lit(True))), CtxRef("self"), CtxRef("in"),
    FieldAccess(CtxRef("self"), "x"), Var("unbound"),
]
_NODES = {
    "+": lambda a, b: Arith("+", a, b),
    "-": lambda a, b: Arith("-", a, b),
    "mod": lambda a, b: Arith("mod", a, b),
    "=": lambda a, b: Cmp("=", a, b),
    "<": lambda a, b: Cmp("<", a, b),
    "&": lambda a, b: BoolOp("&", a, b),
    "|": lambda a, b: BoolOp("|", a, b),
    "^": lambda a, b: BoolOp("^", a, b),
    "index": Index,
    "++": ListConcat,
    "pow": lambda a, b: PowMod(a, b, Lit(7)),
    "pow modulus": lambda a, b: PowMod(Lit(2), a, b),
    "copyEq": lambda a, b: CopyEq(a, b, ()),
    "override": lambda a, b: CopyEq(CtxRef("self"), b, (("x", a),)),
    "output": lambda a, b: SyntheticOutput((("x", a),), b),
    "if": lambda a, b: If(a, b, Lit(1)),
    "let": lambda a, b: Let("v", a, BoolOp("&", Var("v"), b)),
    "map": lambda a, b: MapIndices(a, "i", Cmp("<", Var("i"), b)),
    "unary": lambda a, b: BoolOp("&", Not(a), Cmp("=", Size(b), ScriptOf(b))),
    "field": lambda a, b: Cmp("=", FieldAccess(a, "x"), FieldAccess(b, "val")),
}


@pytest.mark.parametrize("node", list(_NODES))
def test_every_node_over_every_operand_kind(node):
    me = Output(Lit(True), Payload((("x", 5), ("val", True), ("layer", Bits([0, 1])))))
    ctx = EvalContext(me, (me, Output(Lit(1), Payload((("x", 2),)))), (me,))
    for a in _OPERANDS:
        for b in _OPERANDS:
            script = _NODES[node](a, b)
            full = assert_same(script, ctx, ENOUGH, 4)
            top = full[3].total_cost if full[0] == "value" else node_count(script)
            for limit in range(1, top):
                assert_same(script, ctx, limit, 4)


def _ctx(**fields):
    me = Output(Lit(True), Payload(tuple(fields.items())))
    return EvalContext(me, (me,), (me,))


def _decoded(expr):
    """The script as the chain reader gets it: decoded from its bytes."""
    data = serialize_script(expr)
    ref = ScriptRef.from_bytes(data)
    assert ref.canonical == data
    return ref


class TestHostileScripts:
    @pytest.mark.parametrize("name", ["a\nimport os", "'", "__import__('os')", "s"])
    def test_names_never_reach_the_source(self, name):
        me = CtxRef("self")
        cases = [
            Let(name, Lit(3), Arith("+", Var(name), Var(name))),
            Let(name, Lit(3), Var("s")),
            MapIndices(Lit(3), name, Cmp("<", Var(name), Lit(2))),
            Let(name, Lit(1), MapIndices(Lit(2), name, Cmp("=", Var(name), Lit(0)))),
            FieldAccess(me, name),
            Var(name),
            CopyEq(me, me, ((name, Lit(1)),)),
            SyntheticOutput(((name, Lit(1)),), Lit(ScriptRef(Lit(True)))),
        ]
        for expr in cases:
            ref = _decoded(expr)
            source = interp._Generator().generate(ref.expr)
            if len(name) > 1:  # "'" and "s" occur in any generated source
                assert name not in source
            for ctx in (_ctx(), _ctx(s=5)):
                assert_same(ref, ctx)

    def test_counter_name_as_a_field(self):
        result = assert_same(_decoded(parse("self.s + 1")), _ctx(s=5))
        assert result[2] == 6

    def test_long_int_literal(self):
        big = 10**5000 + 7  # past the 4,300 digits that repr() will print
        for expr in (Cmp("=", Arith("+", Lit(big), Lit(1)), Lit(big + 1)),
                     Arith("mod", Lit(big), Lit(1000)),
                     Cmp("<", Lit(-big), Lit(big))):
            assert_same(_decoded(expr), _ctx())

    def test_deepest_nested_maps(self):
        def nest(depth, leaf, wrap=lambda body: body):
            expr = leaf
            for k in range(depth):
                expr = MapIndices(Lit(1), "v", wrap(expr) if k else expr)
            return expr
        flag = FieldAccess(CtxRef("self"), "flag")
        # a map body that is a map is a type error, at any depth
        for expr in (nest(MAX_DEPTH - 1, Lit(True)), nest(MAX_DEPTH - 2, flag)):
            assert assert_same(_decoded(expr), _ctx(flag=True))[1] \
                is interp.EvalTypeError
        # one node past what the decoder accepts still generates
        assert assert_same(nest(MAX_DEPTH - 1, flag), _ctx(flag=True))[1] \
            is interp.EvalTypeError
        one = Lit(Bits([1]))
        expr = nest(MAX_DEPTH // 2 - 1, flag, lambda body: Cmp("=", body, one))
        assert assert_same(_decoded(expr), _ctx(flag=True))[2] == Bits([1])
        assert assert_same(_decoded(expr), _ctx(flag=False))[2] == Bits([0])

    @pytest.mark.parametrize("taken", [True, False])
    def test_deepest_nested_ifs(self, taken):
        expr = Lit(7)
        for _ in range(MAX_DEPTH - 1):
            expr = If(Lit(taken), expr, Lit(0)) if taken else If(Lit(taken), Lit(0), expr)
        assert assert_same(_decoded(expr), _ctx())[2] == 7

    @pytest.mark.parametrize("script, expected", [
        (Let("a", Var("a"), Var("a")), interp.UnboundVariable),
        (parse("let a = 1 in let a = a + 1 in a"), 2),
        (parse("let a = 5 in (map(2, a -> a < 1) = 0b10) & (a = 5)"), True),
        (parse("map(2, i -> let i = i + 1 in i < 2)"), Bits([1, 0])),
        (MapIndices(Lit(2), "i", Cmp("<", Var("j"), Lit(2))), interp.UnboundVariable),
        (MapIndices(Lit(0), "i", Cmp("<", Var("j"), Lit(2))), Bits()),
        (Arith("+", Let("a", Lit(1), Var("a")), Var("a")), interp.UnboundVariable),
        (If(Lit(True), Lit(1), Var("b")), 1),
        (If(Lit(False), Lit(1), Var("b")), interp.UnboundVariable),
    ])
    def test_shadowed_and_unbound_variables(self, script, expected):
        result = assert_same(_decoded(script), _ctx())
        if isinstance(expected, type):
            assert result[1] is expected
        else:
            assert result[2] == expected


def _functions(source):
    """The lines of each generated function, by name."""
    functions = {}
    for line in source.splitlines():
        if line.startswith("def "):
            lines = functions[line[4:line.index("(")]] = []
        lines.append(line)
    return functions


_PRECHARGE = re.compile(r" if s \+ (\d+) \* n <= L(?: and .+)?:")


def _fast_loops(source):
    """Each map body's word form: its lines from the up-front test to its
    return."""
    loops = {}
    for name, lines in _functions(source).items():
        for k, line in enumerate(lines):
            if _PRECHARGE.fullmatch(line):
                end = next(j for j in range(k, len(lines))
                           if lines[j].startswith("  return "))
                loops[name] = lines[k + 1:end]
    return loops


_HOISTED = re.compile(r" (h\d+), (p\d+) = \((t\d+)\._width, \3\._int\) "
                      r"if type\(\3\) is Bits else \(-1, 0\)")


def _assert_reads_hoisted_ints(source, loop):
    """The word form reads the int that each target's hoisted line bound
    before its up-front test, and the source calls no ``_of``."""
    ints = {m[2] for m in _HOISTED.finditer(source)}
    words = set(re.findall(r"\w+", "\n".join(loop)))
    assert ints and ints <= words
    assert not re.search(r"\b_of\(", source)


def _precharge_limit(script, n):
    """The least limit under which the word form of the script's one
    top-level map is charged up front: the cost charged before the map's
    call plus c × n."""
    source = interp._Generator().generate(script)
    c = int(_PRECHARGE.search(source)[1])
    before = 0
    for line in _functions(source)["f"]:
        if re.match(r" t\d+, s = m\d+\(", line):
            return before + c * n
        charge = re.match(r" if \(s := s \+ (\d+)\) > L: _over\(L\)$", line)
        before += int(charge[1]) if charge else 0
    raise AssertionError("no map call")


def _layer_ctx(width, seed=3):
    bits = Bits(random.Random(seed).getrandbits(1) for _ in range(width))
    me = Output(Lit(True), Payload((("layer", bits), ("x", 2))))
    nxt = Output(Lit(True), Payload((("layer", evolve_cyclic(bits, 1)[0]),)))
    return EvalContext(me, (me,), (nxt,))


def _every_limit(script, ctx, max_width=8):
    """The same outcome as the oracle at every limit from 1 to two past
    the full cost; returns the full cost."""
    full = assert_same(script, ctx, ENOUGH, max_width)
    top = full[3].total_cost if full[0] == "value" else 4 * node_count(script)
    for limit in range(1, top + 3):
        assert_same(script, ctx, limit, max_width)
    return top


class TestPrecharge:
    """A map body with a word form is charged c × n up front when all n
    runs fit, and is metered run by run when they do not; every other
    body is always metered: at every limit on either side, the value,
    receipt or error is the oracle's."""

    # each body charges the same on every run; whether it has a word form
    STATIC = {
        "map(self.layer.size, i -> self.layer[(i - 1) mod self.layer.size] "
        "^ self.layer[i]) = out[0].layer": True,
        # 'i < self.x' has no word
        "(map(self.layer.size, i -> i < self.x) = 0b110000) & true": False,
        # in[0] is first read inside the body
        "map(self.layer.size, i -> !self.layer[i] & (in[0].x = 2)) = self.layer": False,
    }

    @pytest.mark.parametrize("source", list(STATIC))
    def test_static_bodies_at_every_limit(self, source):
        script = parse(source)
        top = _every_limit(script, _layer_ctx(6))
        if self.STATIC[source]:
            at = _precharge_limit(script, 6)
            assert 1 < at < top  # the sweep crosses the up-front test
        else:
            assert _fast_loops(interp._Generator().generate(script)) == {}

    def test_layer_validator_at_the_boundary(self):
        script = ScriptRef(build_layer_script())
        ctx = _layer_ctx(256)
        value, receipt = assert_same(script, ctx, 10_000, 256)[2:]
        assert value is True and receipt.total_cost == 9_235
        at = _precharge_limit(script.expr, 256)
        assert at == 9_235 - 7  # '&', 'out[0].script = self.script' follow
        for limit in (1, at - 1, at, at + 1, 9_234, 9_235):
            assert_same(script, ctx, limit, 256)
        assert assert_same(script, ctx, at, 256)[1] is interp.CostLimitExceeded
        assert assert_same(script, ctx, at - 1, 256)[1] is interp.CostLimitExceeded

    @pytest.mark.parametrize("source, error", [
        # out of range at index 3, a domain error at index 2, and bodies
        # that are not bools from index 0
        ("map(4, i -> self.layer[i])", interp.IndexOutOfBounds),
        ("map(4, i -> (1 mod (2 - i)) = 1)", interp.ArithmeticDomainError),
        ("map(4, i -> self.x)", interp.EvalTypeError),
        ("map(4, i -> in[i - i])", interp.EvalTypeError),
        ("map(4, i -> i)", interp.EvalTypeError),
        ("let x = self.x in map(4, i -> x[i])", interp.EvalTypeError),
    ])
    def test_bodies_that_raise(self, source, error):
        script = parse(source)
        ctx = _layer_ctx(3)
        assert assert_same(script, ctx)[1] is error
        _every_limit(script, ctx)

    @pytest.mark.parametrize("source", [
        "map(3, i -> map(2, j -> i < j) = 0b01)",
        "(if self.x < 3 then map(self.layer.size, i -> self.layer[i]) "
        "else self.layer) = self.layer",
        "map(self.layer.size, i -> (2 pow i mod 7) < 3)",
        "map(self.layer.size, i -> if self.layer[i] then i < 2 else self.x < i)",
        "map(2, i -> map(self.layer.size, j -> self.layer[j] ^ self.layer[i]) "
        "= self.layer)",
    ])
    def test_nested_and_dynamic_bodies(self, source):
        _every_limit(parse(source), _layer_ctx(5))

    @pytest.mark.parametrize("x", [2, 3, 5])
    def test_index_target_of_unknown_kind(self, x):
        # the same target before the loop is a list or Bits, by self.x: an
        # output list under 3, the layer from 3
        let = "let t = if self.x < 3 then in ++ in else self.layer in "
        me = Output(Lit(True), Payload((("layer", Bits([1, 0])), ("x", x))))
        _every_limit(parse(let + "map(2, i -> t[i] = in[0])"),
                     EvalContext(me, (me,), ()))
        # bodies with no word form: the metered loop checks each bit read
        for body in ("map(self.layer.size, i -> self.layer[i] & (i < self.x))",
                     let + "map(t.size, i -> t[i] & (i < self.x))"):
            for layer in (Bits([1, 0, 1, 1]), Bits([])):
                me = Output(Lit(True), Payload((("layer", layer), ("x", x))))
                _every_limit(parse(body), EvalContext(me, (me, me), ()))

    def test_validator_fast_loops_charge_nothing(self):
        layer = build_layer_script()
        rules = derive_build_rules(layer)
        (rule,), = [made.fields for made in rules.cases[0].outputs]
        for script in (layer, rule[1].expr):
            source = interp._Generator().generate(script)
            loops = _fast_loops(source)
            assert len(loops) == 1
            (loop,) = loops.values()
            _assert_reads_hoisted_ints(source, loop)
            assert not any("_over" in line for line in loop)
            assert source.count("_over") > 1  # the metered loop still charges

    @pytest.mark.parametrize("script", [
        build_bit_script(), parse("(self.b pow 65537 mod 1000003) = out[0].r"),
    ], ids=["grid", "modexp"])
    def test_scripts_without_a_map_get_no_word_form(self, script):
        source = interp._Generator().generate(script)
        assert _fast_loops(source) == {} and not _HOISTED.search(source)

    @pytest.mark.parametrize("script", [
        build_layer_script(),
        parse("map(2, i -> map(self.layer.size, j -> self.layer[j] = (i < j)) "
              "= self.layer)"),
        parse("let t = self.x in map(3, i -> map(2, j -> i < t) = 0b11)"),
    ], ids=["layer", "nested", "let"])
    def test_map_bodies_take_only_what_they_read(self, script):
        for name, (head, *lines) in _functions(
                interp._Generator().generate(script)).items():
            params = re.findall(r"\w+", head[head.index("("):])
            words = set(re.findall(r"\w+", "\n".join(lines)))
            # the layer body reads the caller's self.layer, not the self slot
            assert [p for p in params if p not in words] == [], name

    @pytest.mark.parametrize("source, static", [
        ("map(3, i -> if i < 1 then true else false)", []),
        ("map(3, i -> (2 pow i mod 5) < 2)", []),
        # only the inner body of nested maps can have a word form
        ("map(3, i -> map(2, j -> i < j) = 0b01)", []),
        ("let t = self.layer in map(3, i -> map(2, j -> t[j]) = t)", ["inner"]),
    ])
    def test_dynamic_bodies_get_no_fast_loop(self, source, static):
        source = interp._Generator().generate(parse(source))
        bodies = {name: "inner" if not re.search(r"= m\d+\(", "\n".join(lines))
                  else "outer" for name, lines in _functions(source).items()
                  if name != "f"}
        assert [bodies[name] for name in _fast_loops(source)] == static


# Map bodies the word form covers: bool formulas over reads of a target
# bound before the map, at i ± c or (i ± c) mod m.  The target is Bits, an
# output list, an int or a missing field; m is the target's size, a
# literal below, at or above it, 0 or negative, or an int of unknown kind.
_T, _W, _X = Var("t"), Var("w"), Var("x")
_offsets = st.integers(0, 3).map(Lit)
_positions = st.one_of(
    st.just(Var("i")),
    st.tuples(st.sampled_from(["+", "-"]), st.just(Var("i")), _offsets)
      .map(lambda t: Arith(*t)),
    _offsets.map(lambda c: Arith("+", c, Var("i"))))
_moduli = st.one_of(st.integers(-1, 8).map(Lit), st.sampled_from([_W, _X]))
_SELF = CtxRef("self")
_reads = st.tuples(
    st.sampled_from([_T] * 6 + [FieldAccess(_SELF, "layer"), FieldAccess(_SELF, "gone")]),
    st.one_of(_positions, st.tuples(_positions, _moduli).map(lambda t: Arith("mod", *t))),
).map(lambda t: Index(*t))
_formulas = st.recursive(
    st.one_of(_reads, _reads, _reads, st.booleans().map(Lit), st.just(Var("v"))),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(st.sampled_from(["&", "|", "^"]), sub, sub).map(lambda t: BoolOp(*t)),
        st.tuples(sub, sub).map(lambda t: Cmp("=", *t)),
        st.tuples(sub, sub).map(lambda t: Let("v", *t))),
    max_leaves=8)
# (t, w): w is t's size when it has one
_targets = st.sampled_from([
    (FieldAccess(_SELF, "layer"), Size(_T)),
    (FieldAccess(_SELF, "layer"), Size(_T)),
    (FieldAccess(_SELF, "layer"), Size(_T)),
    (If(Lit(True), CtxRef("in"), FieldAccess(_SELF, "layer")), Size(_T)),
    (FieldAccess(_SELF, "x"), Lit(4)),
    (FieldAccess(_SELF, "gone"), Lit(4)),
])
_lengths = st.one_of(st.sampled_from([0, 1, 2, 5, 6, 7]).map(Lit), st.just(_W))
_covered_maps = st.tuples(_targets, _lengths, _formulas).map(
    lambda t: Let("t", t[0][0], Let("w", t[0][1], Let(
        "x", FieldAccess(_SELF, "x"), MapIndices(t[1], "i", t[2])))))


class TestWordForm:
    """A static map body made only of bit reads and bool operators runs as
    a few operations on whole-row ints when its run-time test holds, and
    through the metered loop when it does not: at every limit, the value,
    receipt or error is the oracle's."""

    @DIFF
    @given(script=_covered_maps, width=st.integers(0, 6),
           x=st.one_of(st.integers(-2, 8), st.booleans()))
    @example(script=parse("let t = self.layer in let w = t.size in let x = self.x in "
                          "map(w, i -> t[(i - 1) mod w] ^ t[i] & !t[(i + 1) mod w])"),
             width=6, x=1)
    def test_same_outcome_as_closure_tree(self, script, width, x):
        layer = Bits(random.Random(width).getrandbits(1) for _ in range(width))
        me = Output(Lit(True), Payload((("layer", layer), ("x", x))))
        _every_limit(script, EvalContext(me, (me,), ()))

    @pytest.mark.parametrize("target", ["self.layer", "if true then in else self.layer",
                                        "self.x", "self.gone"])
    @pytest.mark.parametrize("m", ["w", "w - 1", "w + 1", "0", "0 - 1", "x"])
    @pytest.mark.parametrize("n", ["0", "1", "2", "w", "w + 1"])
    def test_edges_at_every_limit(self, target, m, n):
        size = "4" if target in ("self.x", "self.gone") else "t.size"
        script = parse(f"let t = {target} in let x = self.x in let w = {size} in "
                       f"let m = {m} in let n = {n} in "
                       f"map(n, i -> t[(i + 1) mod m] ^ t[i] & !t[(i - 1) mod m])")
        for x in (3, True):
            me = Output(Lit(True), Payload((("layer", Bits([1, 1, 0])), ("x", x))))
            _every_limit(script, EvalContext(me, (me,), ()))

    def test_covered_bodies_get_the_word_form(self):
        source = interp._Generator().generate(parse(
            "let t = self.layer in map(t.size, i -> t[(i + 3) mod 2] = !t[1 + i] | false)"))
        (loop,) = _fast_loops(source).values()
        _assert_reads_hoisted_ints(source, loop)


def _assert_two_paths(source):
    """Each map body function is the metered loop, after at most one word
    form: one up-front test whose lines up to their return neither loop
    nor charge."""
    for name, lines in _functions(source).items():
        if name == "f":
            continue
        loops = [k for k, line in enumerate(lines) if line.lstrip().startswith("for ")]
        tests = [k for k, line in enumerate(lines)
                 if re.search(r"if s \+ \d+ \* n <= L", line)]
        assert len(loops) == 1 and len(tests) <= 1, name
        for k in tests:
            end = next(j for j in range(k, len(lines))
                       if lines[j].startswith("  return "))
            assert k < end < loops[0], name
            assert not any("_over" in line for line in lines[k:end + 1]), name


class TestTwoPaths:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(_scripts, _covered_maps))
    @example(parse("map(3, i -> i < 2)"))
    @example(parse("map(3, i -> map(2, j -> i < j) = 0b01)"))
    def test_generated_scripts(self, script):
        _assert_two_paths(interp._Generator().generate(script))

    def test_shipped_scripts(self):
        layer = build_layer_script()
        rules = derive_build_rules(layer)
        (rule,), = [made.fields for made in rules.cases[0].outputs]
        for script in (layer, build_bit_script(), rule[1].expr):
            _assert_two_paths(interp._Generator().generate(script))


class TestMapResult:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300).flatmap(
        lambda w: st.lists(st.booleans(), min_size=w, max_size=w)))
    @example([])
    @example([True] * 300)
    def test_same_bits_as_the_public_constructor(self, bools):
        want = Bits(bools)
        ctx = _ctx(layer=want)
        # the word form, then a body only the metered loop runs
        for source in ("map(self.layer.size, i -> self.layer[i])",
                       "map(self.layer.size, i -> if self.layer[i] then true "
                       "else false)"):
            got = interp.evaluate(parse(source), ctx, ENOUGH, 300)[0]
            assert type(got) is Bits
            assert len(got) == len(bools) and 0 <= got._int < 2 ** len(bools)
            assert got == want and hash(got) == hash(want)
            assert list(got) == list(TupleBits(bools))
            assert got.to_text() == TupleBits(bools).to_text()
            assert Payload((("layer", got),)).encoded \
                == Payload((("layer", want),)).encoded


class TestGeneratedSize:
    # a node emits at most a charge, a check and its operation; 'if' adds
    # two block lines, 'map' a function of five lines, and every script
    # a function head, its context slots and the counter
    LINES_PER_NODE = 6

    @settings(max_examples=200, deadline=None)
    @given(_scripts)
    @example(parse("map(3, i -> map(2, j -> i < j) = 0b01)"))
    @example(parse("if true then 1 else if false then 2 else 3"))
    def test_lines_linear_in_nodes(self, script):
        source = interp._Generator().generate(script)
        assert len(source.splitlines()) <= self.LINES_PER_NODE * node_count(script)
        compile(source, "<script>", "exec")

    def test_largest_script(self):
        script = untaken_branches(16_384)
        assert len(serialize_script(script)) <= 16_384
        source = interp._Generator().generate(script)
        assert len(source.splitlines()) <= self.LINES_PER_NODE * node_count(script)
        assert assert_same(script, _ctx(), 10_000, 256)[2] is True


def untaken_branches(size):
    """A script of at most ``size`` bytes that is one untaken 'if': its
    branch is a balanced '&' tree of 'if' nodes, so it stays shallow."""
    def tree(leaves, k):
        if leaves == 1:
            return If(Cmp("=", FieldAccess(CtxRef("self"), "x"), Lit(k)),
                      Cmp("=", FieldAccess(CtxRef("self"), "x"), Lit(k + 1)),
                      Not(Lit(False)))
        half = leaves // 2
        return BoolOp("&", tree(half, k), tree(leaves - half, k + half))

    def script(leaves):
        return If(Lit(False), tree(leaves, 0), Lit(True))

    low, high = 1, size  # script(low) fits, script(high) does not
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if len(serialize_script(script(mid))) <= size \
            else (low, mid)
    return script(low)
