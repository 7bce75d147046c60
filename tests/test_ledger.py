import pytest
from hypothesis import given, settings, strategies as st

from conftest import drive_grid, drive_layer, step_transaction, \
    step_with_oversize_output
from utxo110.lang import Bits, Lit, serialize_script
from utxo110.ledger import (
    ChainLog, CostExceeded, DuplicateInput, FirstFailure, Invalid,
    MisplacedGenesis, MissingInput, OutputExists, OversizeOutput, ScriptError,
    ScriptFalse, TransactionRejected, TxIdMismatch, UtxoSet, Valid, VerifyOk, apply_transaction, validate_transaction, verify_chain,
)
from utxo110.model import ChainParams, Output, OutputRef, Payload, Transaction
from utxo110.parser import parse
from utxo110.rule110 import GridRow, evolve_cyclic, genesis_grid, genesis_layer


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
            outputs=(Output(good.outputs[0].script,
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
        assert len(utxo) == 1 and len(log) == 1

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
        assert utxo.items() == before and len(log) == 1

    def test_genesis_after_regular_rejected_and_state_unchanged(self, params):
        first = genesis_layer(Bits.from_text("0011"), params)
        second = genesis_layer(Bits.from_text("01"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(first, utxo, log, params)
        apply_transaction(second, utxo, log, params)  # genesis after genesis
        apply_transaction(step_transaction(first), utxo, log, params)
        before = utxo.items(), list(log.transactions())
        with pytest.raises(TransactionRejected) as err:
            apply_transaction(genesis_layer(Bits.from_text("10"), params),
                              utxo, log, params)
        assert err.value.reason == MisplacedGenesis()
        assert (utxo.items(), list(log.transactions())) == before

    def test_grid_interior_spends_three_makes_three(self, params):
        txs, _ = drive_grid([1, 0, 1, 1], 2, params)
        interior = [t for t in txs if len(t.inputs) == 3]
        assert interior, "fixture should contain interior transactions"
        assert all(len(t.outputs) == 3 for t in interior)


class TestLookup:
    def _row_utxo(self, params):
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        gen = genesis_grid(GridRow.from_bits([1, 0, 1]), params)
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
    for i, pairs in enumerate(payloads):
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
        assert verify_chain([], params) == VerifyOk(0, 0)

    def test_edited_payload_fails_at_that_index(self, params):
        txs, _ = drive_layer(Bits.from_text("0111"), 5, params)
        victim = txs[3]
        bits = list(victim.outputs[0].payload.get("layer"))
        bits[0] ^= 1
        edited = Transaction(
            inputs=victim.inputs,
            outputs=(Output(victim.outputs[0].script,
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
            outputs=(Output(victim.outputs[0].script,
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
        for tx in txs:
            apply_transaction(tx, utxo, log, params)
        assert len(log.blocks) > 1
        assert all(b.cost_used <= b.budget for b in log.blocks)

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
        blobs = {serialize_script(t.outputs[0].script) for t in txs}
        assert len(blobs) == 1
