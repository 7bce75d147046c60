import hashlib
import os
import random
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import drive_grid, drive_layer, step_transaction, \
    step_with_oversize_output
from utxo110 import cli, ledger, model
from utxo110.chainio import dump_chain, load_chain
from utxo110.interp import EvalContext, evaluate, unpriced_pow
from utxo110.lang import Bits, Lit, ScriptRef, serialize_script
from utxo110.ledger import (
    BudgetExceeded, ChainLog, CostExceeded, DuplicateInput, FirstFailure, Invalid,
    MisplacedGenesis, MissingInput, OutputExists, OversizeOutput, ScriptError,
    ScriptFalse, TransactionRejected, TxIdMismatch, UtxoSet, Valid, VerifyOk, apply_transaction, utxo_digest, validate_transaction, verify_chain,
)
from utxo110.model import ChainParams, Output, OutputRef, Payload, Transaction
from utxo110.parser import parse
from utxo110.rule110 import genesis_grid, genesis_layer


class TestValidate:
    def test_valid_layer_step(self, params):
        genesis = genesis_layer(Bits.from_text("01101"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        result = validate_transaction(step_transaction(genesis), utxo, params)
        assert isinstance(result, Valid)
        assert result.total_cost > 0

    def test_tampered_payload_is_script_false(self, params):
        genesis = genesis_layer(Bits.from_text("01101"), params)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        good = step_transaction(genesis)
        bits = list(good.outputs[0].payload.get("layer"))
        bits[2] ^= 1
        bad = Transaction(
            inputs=good.inputs,
            outputs=(Output(good.outputs[0].script_ref,
                            Payload((("layer", Bits(bits)),))),))
        result = validate_transaction(bad, utxo, params)
        assert result == Invalid(ScriptFalse(0))

    def test_missing_input(self, params):
        utxo = UtxoSet()
        ref = OutputRef(b"\x00" * 32, 0)
        tx = Transaction(inputs=(ref,),
                         outputs=(Output(Lit(True), Payload()),))
        assert validate_transaction(tx, utxo, params) == Invalid(MissingInput(ref))

    def test_duplicate_input(self, params):
        genesis = genesis_layer(Bits.from_text("01"), params)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        ref = genesis.ref(0)
        tx = Transaction(inputs=(ref, ref), outputs=genesis.outputs)
        assert validate_transaction(tx, utxo, params) == Invalid(DuplicateInput(ref))

    def test_cost_limit_maps_to_cost_exceeded(self):
        params = ChainParams(cost_limit_per_input=10)
        genesis = genesis_layer(Bits.from_text("01101010"), params)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        result = validate_transaction(step_transaction(genesis), utxo, params)
        assert result == Invalid(CostExceeded(0))

    def test_eval_error_maps_to_script_error(self, params):
        out = Output(parse("in[5].x = 1"), Payload())
        gen = Transaction(inputs=(), outputs=(out,), is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(gen, utxo, ChainLog(params.block_budget), params)
        tx = Transaction(inputs=(gen.ref(0),),
                         outputs=(Output(Lit(True), Payload()),))
        result = validate_transaction(tx, utxo, params)
        assert isinstance(result.reason, ScriptError)
        assert result.reason.input_index == 0

    def test_non_bool_result_is_script_error(self, params):
        out = Output(parse("1 + 1"), Payload())
        gen = Transaction(inputs=(), outputs=(out,), is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(gen, utxo, ChainLog(params.block_budget), params)
        tx = Transaction(inputs=(gen.ref(0),),
                         outputs=(Output(Lit(True), Payload()),))
        result = validate_transaction(tx, utxo, params)
        assert isinstance(result.reason, ScriptError)

    @pytest.mark.parametrize("source, evaluations", [
        ("in[1].v = 2", 1), ("in[1].v = 3", 1),
        ("self.v = 1", 2), ("in[1].v = self.v + 1", 2),
    ])
    def test_shared_script_runs_once_unless_it_reads_self(
            self, params, monkeypatch, source, evaluations):
        script = parse(source)
        gen = Transaction(inputs=(), outputs=tuple(
            Output(script, Payload(v=v)) for v in (1, 2, 3)), is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(gen, utxo, ChainLog(params.block_budget), params)
        tx = Transaction(inputs=tuple(gen.ref(i) for i in range(3)),
                         outputs=(Output(Lit(True), Payload()),))
        # the verdict of running the script once per input
        inputs = gen.outputs
        want, total = None, 0
        for i, inp in enumerate(inputs):
            value, receipt = evaluate(script, EvalContext(inp, inputs, tx.outputs),
                                      params.cost_limit_per_input)
            if value is not True:
                want = Invalid(ScriptFalse(i))
                break
            total += receipt.total_cost
        calls = []
        monkeypatch.setattr(ledger, "evaluate",
                            lambda *args, **kw: calls.append(1) or evaluate(*args, **kw))
        assert validate_transaction(tx, utxo, params) == (want or Valid(total))
        assert len(calls) == evaluations

    @pytest.mark.parametrize("source, unpriced", [
        ("out[0].v = self.v + 1", False),
        ("5 pow self.v mod 23 = 1", False),
        (f"5 pow self.v mod {2**64 - 1} = 1", False),
        (f"5 pow self.v mod {2**64} = 1", True),
        ("5 pow self.v mod self.m = 1", True),
        ("let m = 23 in 5 pow self.v mod m = 1", True),
        (f"if false then 5 pow 3 mod {2**64} = 1 else true", True),
    ])
    def test_unpriced_pow_is_a_pow_whose_modulus_is_no_one_limb_literal(
            self, source, unpriced):
        assert unpriced_pow(ScriptRef(parse(source))) is unpriced

    def test_genesis_always_valid(self, params):
        gen = genesis_layer(Bits.from_text("1"), params)
        assert validate_transaction(gen, UtxoSet(), params) == Valid(0)

    def test_extra_outputs_ignored_in_layer_mode(self, params):
        # only out[0] is constrained; surplus outputs do not invalidate
        genesis = genesis_layer(Bits.from_text("0011"), params)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        good = step_transaction(genesis)
        surplus = Output(Lit(True), Payload((("x", 7),)))
        widened = Transaction(inputs=good.inputs,
                              outputs=good.outputs + (surplus,))
        assert isinstance(validate_transaction(widened, utxo, params), Valid)

    def test_oversize_output_invalid_whoever_built_it(self, params):
        genesis = genesis_layer(Bits.from_text("0011"), params)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        result = validate_transaction(step_with_oversize_output(genesis), utxo, params)
        assert isinstance(result, Invalid)
        assert isinstance(result.reason, OversizeOutput)
        assert result.reason.output_index == 1


    @pytest.mark.parametrize("output, detail", [
        (Output(Lit(True), Payload(blob=Bits([1] * 40_000))),
         "payload is 5021 bytes, limit 1024"),
        (Output(Lit(Bits([1] * 140_000)), Payload()),
         "script is 17507 bytes, limit 16384"),
    ], ids=["payload", "script"])
    def test_oversize_genesis_output_invalid(self, params, output, detail):
        genesis = Transaction(inputs=(), outputs=(Output(Lit(True), Payload()), output),
                              is_genesis=True)
        assert validate_transaction(genesis, UtxoSet(), params) \
            == Invalid(OversizeOutput(1, detail))

    @pytest.mark.parametrize("extra, expected", [
        (0, Valid(0)),
        (1, Invalid(OversizeOutput(0, "payload is 1025 bytes, limit 1024"))),
    ], ids=["at-limit", "one-over"])
    def test_payload_limit_boundary(self, params, extra, expected):
        # counted: 4-byte script-length prefix, 14 bytes of field framing,
        # then the packed bits
        payload = Payload(b=Bits([1] * (8 * (params.max_payload_bytes - 18) + extra)))
        assert 4 + len(payload.encoded) == params.max_payload_bytes + extra
        genesis = Transaction(inputs=(), outputs=(Output(Lit(True), payload),),
                              is_genesis=True)
        assert validate_transaction(genesis, UtxoSet(), params) == expected


class TestApply:
    def test_utxo_delta(self, params):
        genesis = genesis_layer(Bits.from_text("0011"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        assert len(utxo) == 1
        apply_transaction(step_transaction(genesis), utxo, log, params)
        assert len(utxo) == 1  # one spent, one created

    def test_double_apply_rejected(self, params):
        genesis = genesis_layer(Bits.from_text("0011"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        tx = step_transaction(genesis)
        apply_transaction(tx, utxo, log, params)
        with pytest.raises(TransactionRejected) as err:
            apply_transaction(tx, utxo, log, params)
        assert isinstance(err.value.reason, MissingInput)

    def test_rejection_leaves_state_unchanged(self, params):
        genesis = genesis_layer(Bits.from_text("0011"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        bad = Transaction(inputs=(OutputRef(b"\x11" * 32, 0),),
                          outputs=(Output(Lit(True), Payload()),))
        with pytest.raises(TransactionRejected):
            apply_transaction(bad, utxo, log, params)
        assert len(utxo) == 1 and len(log.transactions) == 1

    def test_output_collision_rejected_before_spending(self, params):
        genesis = genesis_layer(Bits.from_text("0011"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        tx = step_transaction(genesis)
        utxo.add(tx.ref(0), tx.outputs[0])  # an inconsistent starting state
        before = utxo.items()
        with pytest.raises(TransactionRejected) as err:
            apply_transaction(tx, utxo, log, params)
        assert err.value.reason == OutputExists(tx.ref(0))
        assert utxo.items() == before and len(log.transactions) == 1

    def test_genesis_after_regular_rejected_and_state_unchanged(self, params):
        first = genesis_layer(Bits.from_text("0011"), params)
        second = genesis_layer(Bits.from_text("01"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(first, utxo, log, params)
        apply_transaction(second, utxo, log, params)  # genesis after genesis
        apply_transaction(step_transaction(first), utxo, log, params)
        before = utxo.items(), list(log.transactions)
        with pytest.raises(TransactionRejected) as err:
            apply_transaction(genesis_layer(Bits.from_text("10"), params),
                              utxo, log, params)
        assert err.value.reason == MisplacedGenesis()
        assert (utxo.items(), log.transactions) == before

    def test_grid_interior_spends_three_makes_three(self, params):
        txs, _ = drive_grid([1, 0, 1, 1], 2, params)
        interior = [t for t in txs if len(t.inputs) == 3]
        assert interior, "fixture should contain interior transactions"
        assert all(len(t.outputs) == 3 for t in interior)


class TestLookup:
    def _row_utxo(self, params):
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        gen = genesis_grid([1, 0, 1], params)
        apply_transaction(gen, utxo, log, params)
        return gen, utxo

    def test_singleton_mid_lookup(self, params):
        gen, utxo = self._row_utxo(params)
        refs = utxo.lookup([("x", -1), ("n", -2), ("mid", True)])
        assert len(refs) == 1
        assert utxo.resolve(refs[0]).payload.get("x") == -1

    def test_no_match(self, params):
        _, utxo = self._row_utxo(params)
        assert utxo.lookup([("x", 5)]) == []

    def test_empty_constraints_return_everything(self, params):
        _, utxo = self._row_utxo(params)
        assert utxo.lookup([]) == utxo.refs()

    def test_bool_and_int_keys_are_distinct(self, params):
        utxo = UtxoSet()
        a = Output(Lit(True), Payload((("x", 1),)))
        b = Output(Lit(True), Payload((("x", True),)))
        utxo.add(OutputRef(b"\x01" * 32, 0), a)
        utxo.add(OutputRef(b"\x02" * 32, 0), b)
        assert utxo.lookup([("x", 1)]) == [OutputRef(b"\x01" * 32, 0)]
        assert utxo.lookup([("x", True)]) == [OutputRef(b"\x02" * 32, 0)]


_pairs = st.tuples(st.sampled_from(["x", "n", "mid", "val"]),
                   st.one_of(st.integers(-3, 3), st.booleans()))
_payloads = st.lists(_pairs, max_size=4, unique_by=lambda kv: kv[0])


@settings(max_examples=120, deadline=None)
@given(st.lists(_payloads, min_size=1, max_size=8),
       st.sets(st.integers(0, 7), max_size=3), st.data())
def test_index_matches_linear_scan(payloads, spent, data):
    utxo = UtxoSet()
    early = data.draw(st.integers(0, len(payloads)))
    for i, pairs in enumerate(payloads):
        if i == early:
            utxo.lookup([("x", 0)])  # builds the index the rest must keep
        utxo.add(OutputRef(bytes([i]) * 32, 0), Output(Lit(True), Payload(pairs)))
    for i in spent & set(range(len(payloads))):
        utxo.spend(OutputRef(bytes([i]) * 32, 0))
    # constraints on any field: some of one payload's pairs, so that most
    # lookups match, plus at most one arbitrary pair
    carried = data.draw(st.sampled_from(payloads))
    constraints = data.draw(st.lists(st.sampled_from(carried), unique=True)) \
        if carried else []
    constraints += data.draw(st.lists(
        _pairs | st.tuples(st.just("other"), st.integers(-3, 3)), max_size=1))
    got = utxo.lookup(constraints)
    expected = []
    for ref, out in utxo.items():
        ok = True
        for name, value in constraints:
            have = out.payload.get(name) if name in out.payload else None
            if have is None or type(have) is not type(value) or have != value:
                ok = False
                break
        if ok:
            expected.append(ref)
    assert got == sorted(expected)
    rebuilt = UtxoSet()
    for ref, out in utxo.items():
        rebuilt.add(ref, out)
    for u in (utxo, rebuilt):
        u.lookup([("x", 0)])
    assert utxo._index == rebuilt._index


# -- payload identity ---------------------------------------------------------

def _kind_tag(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, Bits):
        return "bits"
    if isinstance(value, ScriptRef):
        return "scriptref"
    raise TypeError(f"not a payload value: {type(value).__name__}")


def _key(payload):
    """Identity as one (name, kind, value) triple per field, in order:
    the oracle that identity by canonical bytes must agree with."""
    return tuple((n, _kind_tag(v), v) for n, v in payload._map.items())


_SCRIPTS = (ScriptRef(Lit(True)), ScriptRef(parse("1 + 1 = 2")))
_identity_values = st.one_of(st.booleans(), st.integers(-2, 2), st.integers(),
                             st.lists(st.booleans(), max_size=12).map(Bits),
                             st.sampled_from(_SCRIPTS))
_identity_fields = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), _identity_values),
    max_size=3, unique_by=lambda kv: kv[0])


def _recast(pairs):
    """The same fields, each bool turned into an int and each 0 or 1
    int into a bool: equal to Python, not as payload values."""
    return [(n, int(v) if type(v) is bool else bool(v) if type(v) is int and v in (0, 1)
             else v) for n, v in pairs]


@settings(max_examples=300, deadline=None)
@given(_identity_fields, st.data())
def test_payloads_equal_exactly_when_encodings_equal(pairs, data):
    other = data.draw(st.one_of(st.just(pairs), st.permutations(pairs),
                                st.just(_recast(pairs)), _identity_fields))
    a, b = Payload(pairs), Payload(other)
    assert (a == b) == (a.encoded == b.encoded) == (_key(a) == _key(b))
    if a == b:
        assert hash(a) == hash(b)
    # fields keep the order they were given in, and replacing one keeps
    # its position and leaves every other field as it was
    assert tuple(a._map.items()) == tuple(pairs)
    assert a.names() == tuple(name for name, _ in pairs)
    if pairs:
        k = data.draw(st.integers(0, len(pairs) - 1))
        value = data.draw(_identity_values)
        expected = list(pairs)
        expected[k] = (pairs[k][0], value)
        replaced = a.replace(pairs[k][0], value)
        assert tuple(replaced._map.items()) == tuple(expected)
        assert replaced == Payload(expected)


def test_payload_identity_cases():
    assert Payload(x=True) != Payload(x=1)
    assert Payload((("x", 1), ("y", 2))) != Payload((("y", 2), ("x", 1)))
    with pytest.raises(TypeError):
        Payload(x="text")


_replace_values = st.one_of(_identity_values, st.integers(-2 ** 70, 2 ** 70),
                           st.lists(st.booleans(), max_size=40).map(Bits))
_replace_fields = st.lists(
    st.tuples(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
              .filter(lambda name: name not in ("size", "script")), _replace_values),
    max_size=5, unique_by=lambda kv: kv[0])
_NOT_PAYLOAD_VALUES = ("text", 1.5, None, Output(Lit(True), Payload()))


class _NoRegex:
    def fullmatch(self, name):
        raise AssertionError(f"field name {name!r} checked again")


def _replace_outcome(build):
    try:
        payload = build()
    except (KeyError, TypeError) as exc:
        return type(exc), str(exc)
    return (payload.encoded, tuple(payload._map.items()), payload.names(),
            hash(payload), payload)


@settings(max_examples=300, deadline=None)
@given(_replace_fields, st.data())
def test_replace_is_the_rebuilt_payload(pairs, data):
    """``replace`` against building the payload again from its fields."""
    payload = Payload(pairs)
    value = data.draw(st.one_of(_replace_values, st.sampled_from(_NOT_PAYLOAD_VALUES)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_FIELD_NAME_RE", _NoRegex())
        with pytest.raises(KeyError, match="'_{10}'"):
            payload.replace("_" * 10, value)
        if not pairs:
            return
        name = data.draw(st.sampled_from([n for n, _ in pairs]))
        got = _replace_outcome(lambda: payload.replace(name, value))
    assert got == _replace_outcome(lambda: Payload({**payload._map, name: value}.items()))


@pytest.mark.parametrize("fields, name, value", [
    ({"x": 1, "y": 2}, "x", True),
    ({"x": True, "y": 2}, "x", 1),
    ({"a": Bits.from_text("101"), "b": 0}, "a", Bits.from_text("1" * 17)),
    ({"a": 5, "s": ScriptRef(Lit(True)), "b": -3}, "s", ScriptRef(parse("1 + 1 = 2"))),
])
def test_replace_keeps_the_kind_of_the_new_value(fields, name, value):
    payload = Payload(fields.items())
    replaced = payload.replace(name, value)
    assert replaced == Payload({**fields, name: value}.items())
    assert replaced.get(name) is value and replaced.names() == payload.names()
    assert replaced != payload
    assert payload == Payload(fields.items())


def test_verify_encodes_each_payload_once_and_builds_no_index(tmp_path, monkeypatch):
    txs, _ = drive_grid([1], 6)
    chain = tmp_path / "chain.jsonl"
    dump_chain(txs, chain)
    encodings, fields, replaced = [], [], []
    enc_value, init, replace = model._enc_value, Payload.__init__, Payload.replace

    def counted_enc_value(value):
        encodings.append(value)
        return enc_value(value)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fields.append(len(self._map))

    def counted_replace(self, name, value):
        replaced.append(name)
        return replace(self, name, value)

    utxos = []

    class Recorded(UtxoSet):
        def __init__(self):
            super().__init__()
            utxos.append(self)

    monkeypatch.setattr(model, "_enc_value", counted_enc_value)
    monkeypatch.setattr(Payload, "__init__", counted_init)
    monkeypatch.setattr(Payload, "replace", counted_replace)
    monkeypatch.setattr(ledger, "UtxoSet", Recorded)
    records = load_chain(chain)
    # loading builds each output's payload, and encodes each field once
    assert len(fields) == sum(len(tx.outputs) for tx in txs)
    assert len(encodings) == sum(fields)
    del encodings[:], fields[:]
    result = verify_chain([r.tx for r in records],
                          stored_ids=[r.stored_id for r in records])
    assert result == verify_chain(txs)
    assert result.transactions == len(txs)
    # tx ids and limits reuse those bytes; only the outputs the grid
    # validator synthesizes are built, and encoded, while verifying, and
    # each replace in copyEq encodes only the field it replaces
    assert replaced
    assert len(encodings) == sum(fields) + len(replaced)
    assert len(utxos) == 2 and all(u._index is None for u in utxos)


class TestVerify:
    def test_layer_chain_ok(self, params):
        txs, _ = drive_layer(Bits.from_text("01101"), 20, params)
        result = verify_chain(txs, params)
        assert isinstance(result, VerifyOk)
        assert result.transactions == 21

    def test_grid_chain_ok(self, params):
        txs, _ = drive_grid([1], 8, params)
        assert isinstance(verify_chain(txs, params), VerifyOk)

    def test_empty_chain_ok(self, params):
        assert verify_chain([], params) == VerifyOk(
            0, 0, blocks=0, utxo_size=0, utxo_digest=hashlib.sha256().digest())

    def test_edited_payload_fails_at_that_index(self, params):
        txs, _ = drive_layer(Bits.from_text("0111"), 5, params)
        victim = txs[3]
        bits = list(victim.outputs[0].payload.get("layer"))
        bits[0] ^= 1
        edited = Transaction(
            inputs=victim.inputs,
            outputs=(Output(victim.outputs[0].script_ref,
                            Payload((("layer", Bits(bits)),))),))
        stored = [t.tx_id() for t in txs]  # ids as originally written
        tampered = list(txs)
        tampered[3] = edited
        result = verify_chain(tampered, params, stored_ids=stored)
        assert result.tx_index == 3
        assert isinstance(result.reason, TxIdMismatch)

    def test_edited_payload_without_ids_fails_downstream(self, params):
        txs, _ = drive_layer(Bits.from_text("0111"), 5, params)
        victim = txs[3]
        bits = list(victim.outputs[0].payload.get("layer"))
        bits[0] ^= 1
        edited = Transaction(
            inputs=victim.inputs,
            outputs=(Output(victim.outputs[0].script_ref,
                            Payload((("layer", Bits(bits)),))),))
        tampered = list(txs)
        tampered[3] = edited
        result = verify_chain(tampered, params)
        assert isinstance(result, FirstFailure)

    def test_repeated_first_transaction_is_first_failure(self, params):
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        result = verify_chain([txs[0]] + list(txs), params)
        assert result == FirstFailure(1, OutputExists(txs[0].ref(0)))

    def test_oversize_output_fails_replay(self, params):
        genesis = genesis_layer(Bits.from_text("0011"), params)
        result = verify_chain([genesis, step_with_oversize_output(genesis)], params)
        assert isinstance(result, FirstFailure) and result.tx_index == 1
        assert isinstance(result.reason, OversizeOutput)

    def test_misplaced_genesis(self, params):
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        extra = genesis_layer(Bits.from_text("10"), params)
        result = verify_chain(list(txs) + [extra], params)
        assert result == FirstFailure(2, MisplacedGenesis())

    def test_block_budget_packing(self):
        params = ChainParams(block_budget=400)
        txs, _ = drive_layer(Bits.from_text("0110"), 6, params)
        log = ChainLog(params.block_budget)
        utxo = UtxoSet()
        costs = [apply_transaction(tx, utxo, log, params).total_cost for tx in txs]
        blocks = [[]]  # greedy: a cost that does not fit opens the next block
        for cost in costs:
            if sum(blocks[-1]) + cost > params.block_budget:
                blocks.append([])
            blocks[-1].append(cost)
        assert len(blocks) > 1
        assert all(sum(block) <= params.block_budget for block in blocks)
        assert (log.blocks, log.total_cost, log.transactions) \
            == (len(blocks), sum(costs), list(txs))

    def test_transaction_over_block_budget_rejected(self):
        params = ChainParams(block_budget=10)
        genesis = genesis_layer(Bits.from_text("01101"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        with pytest.raises(TransactionRejected):
            apply_transaction(step_transaction(genesis, params), utxo, log, params)


class TestConservation:
    def test_replay_equivalence(self, params):
        txs, utxo = drive_grid([1, 1, 0], 6, params)
        created = {}
        spent = set()
        for tx in txs:
            tx_id = tx.tx_id()
            for ref in tx.inputs:
                assert ref not in spent, "double spend"
                spent.add(ref)
            for i, out in enumerate(tx.outputs):
                created[OutputRef(tx_id, i)] = out
        expected = {ref: out for ref, out in created.items() if ref not in spent}
        assert dict(utxo.items()) == expected

    def test_self_reproduction_along_layer_chain(self, params):
        txs, _ = drive_layer(Bits.from_text("0100110"), 30, params)
        blobs = {serialize_script(t.outputs[0].script_ref.expr) for t in txs}
        assert len(blobs) == 1


class TestUtxoDigest:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=4),
           st.integers(0, 3), st.booleans())
    def test_verify_rebuilds_the_replayed_state(self, bits, steps, grid):
        if grid:
            txs, utxo = drive_grid(bits, steps)
        else:
            txs, utxo = drive_layer(Bits(bits), steps)
        assert utxo_digest(utxo) == digest_of(utxo.items())
        assert verify_chain(txs) == replayed(txs)

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_insertion_order_does_not_matter(self, rng):
        _, utxo = drive_grid([1, 0, 1], 2)
        pairs = utxo.items()
        rng.shuffle(pairs)
        again = UtxoSet()
        for ref, out in pairs:
            again.add(ref, out)
        assert utxo_digest(again) == utxo_digest(utxo)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_any_one_output_change_changes_it(self, data):
        _, utxo = drive_grid([1, 1], 2)
        pairs = utxo.items()
        k = data.draw(st.integers(0, len(pairs) - 1))
        ref, out = pairs[k]
        how = data.draw(st.sampled_from(["payload", "script", "index", "drop"]))
        if how == "payload":
            name = data.draw(st.sampled_from(out.payload.names()))
            value = out.payload.get(name)
            other = not value if isinstance(value, bool) else value + 1
            pairs[k] = (ref, Output(out.script_ref, out.payload.replace(name, other)))
        elif how == "script":
            pairs[k] = (ref, Output(Lit(True), out.payload))
        elif how == "index":
            pairs[k] = (OutputRef(ref.tx_id, ref.index + 1000), out)
        else:
            del pairs[k]
        changed = UtxoSet()
        for pair in pairs:
            changed.add(*pair)
        assert utxo_digest(changed) != utxo_digest(utxo)


# -- script checks shared with a forked helper ---------------------------------

# Guards of the outputs that a split chain spends: each passes, fails or
# runs over a limit of SPLIT on its own, whoever spends it.
GUARDS = {
    "ok": parse("out[0].v = self.v + 1"),
    "false": parse("out[0].v = self.v + 2"),
    "error": parse("self.w = 1"),
    "dear": parse("(map(40, i -> i < 3) = map(40, i -> i < 3)) & (out[0].v = self.v + 1)"),
    "over": parse("map(200, i -> i < 3) = map(200, i -> i < 3)"),
    # a pow whose modulus is a 100-bit literal, and one of one limb
    "wide": parse(f"((3 pow 5 mod {2**99 + 7}) = (3 pow 5 mod {2**99 + 7})) "
                  "& (out[0].v = self.v + 1)"),
    "limb": parse("(5 pow self.v mod 23 < 23) & (out[0].v = self.v + 1)"),
}
SPLIT = ChainParams(cost_limit_per_input=1_000, block_budget=100)


def spends(guards, picks=()):
    """A genesis with one output per guard, v = 0, then one transaction
    per guard.  Each spends an unspent output, the ``picks[k]``-th
    (default the oldest), and creates one guarded by "ok" with v one
    higher.  Returns the transactions and their ids."""
    genesis = Transaction((), [Output(GUARDS[g], Payload(v=0)) for g in guards],
                          is_genesis=True)
    txs = [genesis]
    unspent = [(genesis.ref(i), out) for i, out in enumerate(genesis.outputs)]
    for k in range(len(guards)):
        ref, out = unspent.pop(picks[k] % len(unspent) if k < len(picks) else 0)
        tx = Transaction([ref], [Output(GUARDS["ok"], Payload(v=out.payload.get("v") + 1))])
        txs.append(tx)
        unspent.append((tx.ref(0), tx.outputs[0]))
    return txs, [tx.tx_id() for tx in txs]


def tampered(txs, stored, how, j):
    """The chain and ids with one line edited at ``j``: a flipped bit of
    a payload, a wrong stored id, the line dropped or repeated, or a new
    genesis line put before it."""
    txs, stored = list(txs), list(stored)
    j %= len(txs)
    if how == "flip":
        tx = txs[j]
        out = tx.outputs[0]
        flipped = Output(out.script_ref, Payload(v=out.payload.get("v") ^ 1))
        txs[j] = Transaction(tx.inputs, (flipped,) + tx.outputs[1:], tx.is_genesis)
    elif how == "id":
        stored[j] = bytes(32)
    elif how == "drop":
        del txs[j], stored[j]
    elif how == "repeat":
        txs.insert(j, txs[j])
        stored.insert(j, stored[j])
    elif how == "genesis":
        extra = Transaction((), [Output(GUARDS["ok"], Payload(v=7))], is_genesis=True)
        txs.insert(j, extra)
        stored.insert(j, extra.tx_id())
    return txs, stored


@pytest.fixture
def helpers(monkeypatch):
    """Every helper forked while the test runs."""
    made = []

    class Counted(ledger._Helper):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(ledger, "_Helper", Counted)
    return made


def verify_both_ways(txs, params, stored=None):
    """verify_chain with a helper forked before the first check, and
    with none; both verdicts must agree in every part."""
    results = []
    saved = ledger.FORK_AFTER_S, ledger._may_fork
    try:
        for after, may_fork in ((0.0, saved[1]), (float("inf"), lambda: False)):
            ledger.FORK_AFTER_S, ledger._may_fork = after, may_fork
            results.append(verify_chain(txs, params, stored_ids=stored))
    finally:
        ledger.FORK_AFTER_S, ledger._may_fork = saved
    forked, alone = results
    assert type(forked) is type(alone)
    if isinstance(alone, FirstFailure):
        assert forked.tx_index == alone.tx_index
        assert str(forked.reason) == str(alone.reason) and forked.reason == alone.reason
    else:
        assert forked == alone == replayed(txs, params)
    assert_no_child_left()
    return alone


def digest_of(pairs) -> bytes:
    """The UTXO digest, computed here: sha256 over each (reference,
    output) pair in (tx id, index) order, the id, the index as a
    big-endian u32, then the output's canonical bytes."""
    h = hashlib.sha256()
    for ref, out in sorted(pairs, key=lambda pair: (pair[0].tx_id, pair[0].index)):
        h.update(ref.tx_id + ref.index.to_bytes(4, "big") + model.output_bytes(out))
    return h.digest()


def replayed(txs, params=ChainParams()) -> VerifyOk:
    """What ``verify_chain`` should find for a valid chain, from a plain
    ``apply_transaction`` replay into a ``ChainLog``."""
    utxo, log = UtxoSet(), ChainLog(params.block_budget)
    for tx in txs:
        apply_transaction(tx, utxo, log, params)
    return VerifyOk(len(txs), log.total_cost, blocks=log.blocks, utxo_size=len(utxo),
                    utxo_digest=digest_of(utxo.items()))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


MODEXP_SAMPLE = Path(__file__).resolve().parent.parent / "samples" / "modexp-3x256.jsonl"


def modexp_sample():
    """The chain in MODEXP_SAMPLE: a genesis output per spend guarded by
    ``(self.b pow E mod M) = out[0].r`` with 256-bit operands drawn from
    a seeded generator, and three transactions that spend them, each
    creating ``r = b^E mod M`` under a distinct ``nonce = nonce`` script.
    Each spend costs 9 node visits plus 1 + 256 for its pow."""
    rng = random.Random("modexp-3x256")
    top = 1 << 255
    specs = []
    for _ in range(3):
        modulus = rng.getrandbits(256) | top | 1
        exponent = rng.getrandbits(256) | top
        base = rng.randrange(2, modulus)
        specs.append((base, exponent, modulus, rng.getrandbits(64)))
    genesis = Transaction((), [Output(parse(f"(self.b pow {e} mod {m}) = out[0].r"),
                                      Payload(b=b)) for b, e, m, _ in specs],
                          is_genesis=True)
    return [genesis] + [
        Transaction([genesis.ref(i)], [Output(parse(f"{nonce} = {nonce}"),
                                              Payload(r=pow(b, e, m)))])
        for i, (b, e, m, nonce) in enumerate(specs)]


class TestSplitChecks:
    """Forked at the first check, the parent runs checks 0, 2, 4, … of
    the queue and the helper 1, 3, 5, …; transaction k + 1 holds check k
    in a chain from ``spends``."""

    @pytest.mark.parametrize("guards, tamper, index, reason", [
        ("ok error ok ok ok", None, 2, ScriptError),  # in the helper's share
        ("ok ok false ok ok", None, 3, ScriptFalse),  # in the parent's
        # in both shares, the helper's first, then the parent's
        ("ok over dear ok", None, 2, CostExceeded),
        ("ok ok dear over", None, 3, BudgetExceeded),
        # the first pass fails before a script check fails, and after
        ("ok ok ok ok error", ("repeat", 2), 3, MissingInput),
        ("ok error ok ok ok", ("genesis", 4), 2, ScriptError),
    ])
    def test_first_failure_in_either_share(self, helpers, guards, tamper, index, reason):
        txs, stored = spends(guards.split())
        if tamper:
            txs, stored = tampered(txs, stored, *tamper)
        got = verify_both_ways(txs, SPLIT, stored)
        assert len(helpers) == 1 and helpers[0].start == 1
        assert got.tx_index == index and type(got.reason) is reason

    def test_valid_chain_with_a_helper(self, helpers):
        txs, stored = spends(["ok"] * 6)
        result = verify_both_ways(txs, SPLIT, stored)
        assert (result.transactions, result.total_cost, result.blocks) == (7, 54, 1)
        assert len(helpers) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["ok"] * 4 + sorted(GUARDS)), min_size=1, max_size=8),
           st.lists(st.integers(0, 7), max_size=8),
           st.lists(st.tuples(st.sampled_from(["flip", "id", "drop", "repeat", "genesis"]),
                              st.integers(0, 20)), max_size=2),
           st.booleans())
    def test_helper_agrees_with_one_process(self, guards, picks, tampers, with_ids):
        txs, stored = spends(guards, picks)
        for how, j in tampers:
            txs, stored = tampered(txs, stored, how, j)
        verify_both_ways(txs, SPLIT, stored if with_ids else None)

    def test_helper_takes_every_other_check(self, helpers, monkeypatch):
        txs, stored = spends(["ok"] * 6)
        want = replayed(txs, SPLIT)
        ran = []
        check = ledger.check_scripts
        monkeypatch.setattr(ledger, "check_scripts",
                            lambda tx, *args: ran.append(txs.index(tx)) or check(tx, *args))
        monkeypatch.setattr(ledger, "FORK_AFTER_S", 0.0)
        assert verify_chain(txs, SPLIT, stored) == want
        assert len(helpers) == 1 and ran == [1, 3, 5]  # the parent's share
        assert_no_child_left()

    def test_helper_that_crashes_at_once(self, helpers, monkeypatch):
        def crash(*args):
            raise RuntimeError("helper down")

        monkeypatch.setattr(ledger, "_serve", crash)
        for guards in (["ok"] * 5, ["ok", "ok", "ok", "error", "ok"]):
            txs, stored = spends(guards)
            verify_both_ways(txs, SPLIT, stored)
        assert len(helpers) == 2 and all(h.pid is None for h in helpers)

    def test_no_fork_on_one_core_without_fork_or_with_threads(self, helpers, monkeypatch):
        txs, stored = spends(["ok", "ok", "error", "ok"])
        want = verify_chain(txs, SPLIT, stored)
        monkeypatch.setattr(ledger, "FORK_AFTER_S", 0.0)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert verify_chain(txs, SPLIT, stored) == want
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert verify_chain(txs, SPLIT, stored) == want
        with monkeypatch.context() as patch:
            patch.setattr(threading, "active_count", lambda: 2)
            assert verify_chain(txs, SPLIT, stored) == want
        assert helpers == []

    def test_reference_chains_fork_only_when_checks_are_slow(self, helpers):
        txs, _ = drive_grid([1], 4)
        assert isinstance(verify_chain(txs), VerifyOk)
        # a seeded 256-cell row x 100 layer steps: no pow, cheap checks
        row = Bits.from_text(format(random.Random(110).getrandbits(256), "0256b"))
        txs, _ = drive_layer(row, 100)
        assert isinstance(verify_chain(txs), VerifyOk)
        assert helpers == []

    @pytest.mark.parametrize("guards, helpers_at_each_check", [
        (["wide"] * 4, [1, 1]),
        (["ok", "ok", "wide", "ok"], [0, 0, 1]),
    ])
    def test_forks_before_a_check_with_a_wide_pow(
            self, helpers, monkeypatch, guards, helpers_at_each_check):
        # under the default FORK_AFTER_S: the parent has a helper by the
        # time it runs the first check whose script holds a wide pow
        txs, stored = spends(guards)
        seen = []
        check = ledger.check_scripts
        monkeypatch.setattr(ledger, "check_scripts",
                            lambda *args: seen.append(len(helpers)) or check(*args))
        got = verify_chain(txs, SPLIT, stored)
        assert seen == helpers_at_each_check
        assert helpers[0].start == guards.index("wide") + 1
        assert_no_child_left()
        assert got == verify_both_ways(txs, SPLIT, stored)

    @pytest.mark.parametrize("guards", [["limb"] * 6, ["wide"], ["ok"] * 5 + ["wide"]])
    def test_no_fork_for_one_limb_pows_or_one_check_left(self, helpers, guards):
        txs, stored = spends(guards)
        assert isinstance(verify_chain(txs, SPLIT, stored), VerifyOk)
        assert helpers == []

    def test_modexp_sample_forks_and_verifies(self, helpers, capsys, tmp_path):
        dump_chain(modexp_sample(), tmp_path / "chain.jsonl")
        assert (tmp_path / "chain.jsonl").read_bytes() == MODEXP_SAMPLE.read_bytes()
        assert cli.main(["verify", "--chain", str(MODEXP_SAMPLE)]) == 0
        assert capsys.readouterr().out == (
            "ok: 4 transactions, total cost 798\n"
            "blocks: 1\n"
            "utxo size: 3\n"
            "utxo digest: 51d402ecade108bab1582643c91e0f9c8c5a6891d1ec25128d9baa39eb7a7af3\n")
        assert len(helpers) == 1 and helpers[0].start == 1
        assert_no_child_left()
