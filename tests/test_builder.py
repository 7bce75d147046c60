import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import builder_oracle
from conftest import OVERSIZED_LETS, drive_grid, drive_layer
from rule110_oracle import GridRow, evolve_cyclic, evolve_grid
from test_codegen import _untyped
from test_lang import _exprs
from utxo110 import builder
from utxo110.builder import (
    Assign, BuildRules, CannotBuild, ConsistencyCheckFailed, LookupMiss,
    NoProgress, NotBuildable, _makes_no_progress, analyze_canonical,
    build_next, derive_build_rules, sweep,
)
from utxo110.chainio import load_chain
from utxo110.cli import main
from utxo110.interp import EvalContext
from utxo110.lang import (
    Arith, Bits, Cmp, FieldAccess, If, Lit, Not, ScriptRef, Size, script_source,
)
from utxo110.ledger import ChainLog, UtxoSet, Valid, apply_transaction, \
    validate_transaction
from utxo110.model import ChainParams, Output, OutputRef, Payload, Transaction
from utxo110.parser import parse
from utxo110.rule110 import (
    build_bit_script, build_layer_script, genesis_grid, genesis_layer,
)


class TestDeriveRules:
    def test_layer_rules(self):
        rules = derive_build_rules(build_layer_script())
        assert isinstance(rules, BuildRules)
        assert len(rules.cases) == 1
        case = rules.cases[0]
        assert case.input_count == 1
        assert case.lookups == ()
        assert [type(made) for made in case.outputs] == [Assign]

    def test_bit_rules_cases(self):
        rules = derive_build_rules(build_bit_script())
        assert isinstance(rules, BuildRules)
        assert [c.input_count for c in rules.cases] == [3, 2, 2, 1, 1, 1]
        normal = rules.cases[0]
        assert len(normal.lookups) == 2
        in1 = {field: ref.expr for field, ref in normal.lookups[0]}
        assert in1["x"] == parse("in[0].x + 1")
        assert in1["n"] == parse("in[0].n")
        assert in1["mid"] == parse("true")
        in2 = {field: ref.expr for field, ref in normal.lookups[1]}
        assert in2["x"] == parse("in[1].x + 1")
        assert in2["mid"] == parse("false")

    def test_discrete_log_not_buildable(self):
        result = derive_build_rules(parse("5 pow out[0].x mod 23 = 13"))
        assert isinstance(result, NotBuildable)

    def test_missing_lookup_rule(self):
        # two inputs but nothing pins in[1]
        result = derive_build_rules(parse("(in.size = 2) & (out[0].x = in[1].x)"))
        assert isinstance(result, NotBuildable)
        assert "lookup" in result.reason

    def test_missing_script_assignment(self):
        result = derive_build_rules(parse("out[0].x = in[0].x"))
        assert isinstance(result, NotBuildable)
        assert "script" in result.reason

    def test_canonical_branches_build_where_the_flat_form_is_not(self, params):
        script = parse(
            "if in[0].a then (out[0].x = 1) & (out[0].script = in[0].script) "
            "else (out[0].x = 2) & (out[0].script = in[0].script)")
        assert isinstance(analyze_canonical(script), NotBuildable)
        rules = derive_build_rules(script)
        assert isinstance(rules, BuildRules)
        assert len(rules.cases) == 2
        genesis = Transaction(inputs=(), outputs=(
            Output(script, Payload(a=True)), Output(script, Payload(a=False))),
            is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        for index, x in ((0, 1), (1, 2)):
            built = build_next(utxo, genesis.ref(index), params)
            assert isinstance(built, Transaction)
            assert built.outputs == (Output(script, Payload(x=x)),)
            assert isinstance(validate_transaction(built, utxo, params), Valid)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_untyped, _exprs))
    def test_derive_returns_rules_or_a_reason(self, script):
        result = derive_build_rules(script)
        assert isinstance(result, (BuildRules, NotBuildable))


class TestBuildNext:
    def test_layer_step_matches_hand_built(self, params):
        genesis = genesis_layer(Bits.from_text("01101"), params)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        built = build_next(utxo, genesis.ref(0), params)
        assert isinstance(built, Transaction)

        nxt = evolve_cyclic(Bits.from_text("01101"), 1)[0]
        by_hand = Transaction(
            inputs=(genesis.ref(0),),
            outputs=(Output(build_layer_script(), Payload((("layer", nxt),))),))
        from utxo110.model import transaction_bytes
        assert transaction_bytes(built) == transaction_bytes(by_hand)

    def test_grid_interior_from_two_row_fixture(self, params):
        gen = genesis_grid([0, 1, 1, 1, 0], params)
        utxo = UtxoSet()
        apply_transaction(gen, utxo, ChainLog(params.block_budget), params)
        # seed: a left-neighbor copy of the cell at x = -3 (mid false)
        seeds = utxo.lookup([("x", -3), ("mid", False)])
        built = build_next(utxo, seeds[0], params)
        assert isinstance(built, Transaction)
        assert built.inputs[0] == seeds[0]  # the seed is always in[0]
        assert len(built.inputs) == 3 and len(built.outputs) == 3
        assert isinstance(validate_transaction(built, utxo, params), Valid)
        assert built.outputs[0].payload.get("x") == -2

    def test_lookup_miss_when_neighbor_spent(self, params):
        gen = genesis_grid([0, 1, 1, 1, 0], params)
        utxo = UtxoSet()
        apply_transaction(gen, utxo, ChainLog(params.block_budget), params)
        # remove the unique mid copy the interior case must look up
        (mid_ref,) = utxo.lookup([("x", -2), ("mid", True)])
        utxo.spend(mid_ref)
        seeds = utxo.lookup([("x", -3), ("mid", False)])
        result = build_next(utxo, seeds[0], params)
        assert isinstance(result, CannotBuild)
        assert isinstance(result.reason, LookupMiss)

    def test_misrole_seed_fails_consistency(self, params):
        gen = genesis_grid([1, 1], params)
        utxo = UtxoSet()
        apply_transaction(gen, utxo, ChainLog(params.block_budget), params)
        # the mid copy of column 0 in a width-2 row seeds nothing
        (seed,) = utxo.lookup([("x", 0), ("mid", True)])
        result = build_next(utxo, seed, params)
        assert isinstance(result, CannotBuild)

    def test_script_size_cap_blocks_building(self):
        small = ChainParams(max_script_bytes=64)
        genesis = genesis_layer(Bits.from_text("01"), ChainParams())
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(small.block_budget), ChainParams())
        result = build_next(utxo, genesis.ref(0), small)
        assert isinstance(result, CannotBuild)
        assert isinstance(result.reason, ConsistencyCheckFailed)

    # Rules whose value is an output (in[0]) rather than a payload value:
    # an output field, a copyEq override and a lookup key.
    @pytest.mark.parametrize("source", [
        "(out[0].x = in[0]) & (out[0].script = in[0].script)",
        "(out[0].x = 1) & (out[0].script = in[0].script) "
        "& copyEq(out[1], out[0], x <- in[0])",
        "(in[1].x = in[0]) & (out[0].x = 1) & (out[0].script = in[0].script)",
    ], ids=["field", "copy", "lookup"])
    def test_rule_valued_as_an_output_cannot_build(self, params, source):
        script = parse(source)
        genesis = Transaction(inputs=(), outputs=(Output(script, Payload(x=0)),),
                              is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        result = build_next(utxo, genesis.ref(0), params)
        assert result == CannotBuild(ConsistencyCheckFailed(
            "a rule's value must be a payload value, got output"))

    @pytest.mark.parametrize("name", sorted(OVERSIZED_LETS))
    def test_lets_that_inline_too_large_cannot_build(self, params, name):
        script = parse(OVERSIZED_LETS[name])
        genesis = Transaction(inputs=(), outputs=(Output(script, Payload(x=0)),),
                              is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        result = build_next(utxo, genesis.ref(0), params)
        assert isinstance(result, CannotBuild)
        assert isinstance(result.reason, NotBuildable)
        assert "with its lets inlined the script" in result.reason.reason


class TestSweep:
    def test_layer_one_transaction_per_sweep(self, params):
        genesis = genesis_layer(Bits.from_text("1011"), params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(genesis, utxo, log, params)
        for _ in range(5):
            assert len(sweep(utxo, log, params)) == 1

    def test_grid_full_row_builds_width_plus_one(self, params):
        gen = genesis_grid([1, 0, 1], params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(gen, utxo, log, params)
        built = sweep(utxo, log, params)
        assert len(built) == 4

    def test_empty_utxo(self, params):
        assert sweep(UtxoSet(), ChainLog(params.block_budget), params) == []

    def test_every_swept_transaction_validates(self, params):
        from utxo110.ledger import VerifyOk, verify_chain
        txs, _ = drive_grid([1, 1, 0, 1], 6, params)
        assert isinstance(verify_chain(txs, params), VerifyOk)

    def test_determinism_byte_identical(self, params):
        def run():
            txs, _ = drive_grid([1, 0, 1], 8, params)
            from utxo110.model import transaction_bytes
            return [transaction_bytes(t) for t in txs]
        assert run() == run()

    def test_width_one_retires_redundant_copy(self, params):
        gen = genesis_grid([1], params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(gen, utxo, log, params)
        memory = {}
        built = sweep(utxo, log, params, memory)
        assert len(built) == 2  # new left column and column 0
        retired = [seed for seed, mask in memory.items() if mask == -1]
        assert len(retired) == 1
        leftover = utxo.resolve(retired[0])
        assert leftover.payload.get("mid") is False
        assert leftover.payload.get("x") == 0
        # the retired copy stays inert on later sweeps
        built = sweep(utxo, log, params, memory)
        rows = {out.payload.get("n") for t in built for out in t.outputs}
        assert rows == {-2}

    def test_failed_seed_checks_are_not_run_again(self, tmp_path, monkeypatch, capsys):
        """Seed checks read the seed alone, so ``run`` never attempts a
        (case, seed) pair again once its seed checks failed.  On grid
        0110 x 12, 330 of the 1,290 attempts did before."""
        attempts, failed = [], set()
        run_case = builder._run_case

        def counted(case, utxo, seed, *args):
            assert (id(case), seed) not in failed
            attempts.append(seed)
            try:
                return run_case(case, utxo, seed, *args)
            except builder._CaseFailure as exc:
                if exc.seed_stage:
                    failed.add((id(case), seed))
                raise

        monkeypatch.setattr(builder, "_run_case", counted)
        chain = tmp_path / "chain.jsonl"
        assert main(["run", "--mode", "grid", "--initial", "0110", "--steps", "12",
                     "--chain", str(chain)]) == 0
        capsys.readouterr()
        assert len(attempts) <= 960
        # the chain is the one sweeps build without the memory
        monkeypatch.undo()
        txs, _ = drive_grid([0, 1, 1, 0], 12)
        assert [r.tx for r in load_chain(chain)] == txs

    def test_leak_is_one_per_row_for_any_width(self, params):
        # every fully evolved row leaves exactly one unspent output: the
        # column-0 left-neighbor copy
        for bits in ([1, 1], [0, 1, 0, 1, 1]):
            leftovers = []

            def inspect(row, built, utxo, n0=GridRow.from_bits(bits).n):
                prev_n = n0 - (row - 1)
                remaining = [out for _, out in utxo.items()
                             if out.payload.get("n") == prev_n]
                leftovers.append(remaining)

            drive_grid(bits, 6, params, per_row=inspect)
            for remaining in leftovers:
                assert len(remaining) == 1
                assert remaining[0].payload.get("x") == 0
                assert remaining[0].payload.get("mid") is False

    def test_no_progress_reported_for_duplicate_seed(self, params):
        gen = genesis_grid([1], params)
        utxo = UtxoSet()
        log = ChainLog(params.block_budget)
        apply_transaction(gen, utxo, log, params)
        fr = utxo.lookup([("mid", False)])
        assert len(fr) == 2
        first = build_next(utxo, fr[0], params)
        apply_transaction(first, utxo, log, params)
        second = build_next(utxo, fr[1], params)
        assert isinstance(second, CannotBuild)
        assert isinstance(second.reason, NoProgress)


# Outputs the no-progress guard must tell apart: two scripts, an empty
# payload, True against 1, and the same fields in another order.
_SCRIPTS = (ScriptRef(Lit(True)), ScriptRef(parse("in[0].x = 1")))
_PAYLOADS = (
    Payload(), Payload(x=1), Payload(x=True), Payload(x=2),
    Payload(x=1, y=2), Payload(y=2, x=1), Payload(y=Bits([1])),
)
_POOL = tuple(Output(s, p) for s in _SCRIPTS for p in _PAYLOADS)


def _no_progress_by_full_scan(outputs, inputs, utxo):
    """The guard's definition: count equal unspent copies of every output
    over the whole UTXO set, skipping what the transaction spends."""
    needed = Counter(o.content_key() for o in outputs)
    available = Counter(out.content_key() for ref, out in utxo.items()
                        if ref not in inputs)
    return all(available[k] >= n for k, n in needed.items())


class TestNoProgressGuard:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_index_guard_agrees_with_full_scan(self, data):
        unspent = data.draw(st.lists(st.sampled_from(_POOL), max_size=10))
        utxo = UtxoSet()
        for i, out in enumerate(unspent):
            utxo.add(OutputRef(bytes([i % 3]) * 32, i), out)
        inputs = data.draw(st.lists(st.sampled_from(utxo.refs()), unique=True,
                                    max_size=3)) if unspent else []
        spent_outputs = [utxo.resolve(r) for r in inputs]
        outputs = data.draw(st.lists(st.sampled_from(_POOL + tuple(spent_outputs)),
                                     min_size=1, max_size=4))
        assert _makes_no_progress(outputs, inputs, utxo) \
            == _no_progress_by_full_scan(outputs, inputs, utxo)


# Rule expressions for canonical-shaped scripts, over few enough node
# kinds that some of them build.  Among the leaves are in[0] and in,
# which are an output and an output list, not payload values.
def _extend_rule(expr):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-"]), expr, expr).map(lambda t: Arith(*t)),
        st.tuples(st.sampled_from(["=", "<"]), expr, expr).map(lambda t: Cmp(*t)),
        st.tuples(expr, expr, expr).map(lambda t: If(*t)),
        st.tuples(expr, st.sampled_from(["f", "g"])).map(lambda t: FieldAccess(*t)),
        expr.map(Not),
        expr.map(Size),
    )


_rule_leaves = st.one_of(
    st.integers(-2, 3).map(Lit), st.booleans().map(Lit),
    st.sampled_from([parse(s) for s in ("in[0]", "in", "in[0].f", "in[0].g")]))
_rule_exprs = st.one_of(_rule_leaves,
                        st.recursive(_rule_leaves, _extend_rule, max_leaves=6))
_field_values = st.one_of(st.integers(-2, 3), st.booleans(),
                          st.lists(st.integers(0, 1), max_size=3).map(Bits))


class TestBuildNextNeverRaises:
    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from([
               "(out[0].f = E) & (out[0].script = in[0].script)",
               "(in[1].f = E) & (out[0].g = 1) & (out[0].script = in[0].script)"]),
           rule=_rule_exprs,
           payloads=st.lists(st.tuples(_field_values, _field_values),
                             min_size=1, max_size=3))
    def test_valid_transaction_or_cannot_build(self, shape, rule, payloads):
        params = ChainParams()
        script = parse(shape.replace("E", f"({script_source(rule)})"))
        genesis = Transaction(inputs=(), outputs=tuple(
            Output(script, Payload(f=f, g=g)) for f, g in payloads), is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(params.block_budget), params)
        for seed in utxo.refs():
            result = build_next(utxo, seed, params)
            if isinstance(result, Transaction):
                assert isinstance(validate_transaction(result, utxo, params), Valid)
            else:
                assert isinstance(result, CannotBuild)


def _build_outcome(utxo, seed, params, seed_failures=None):
    """``build_next``'s transaction, its reason's class and text, or the
    ValueError a nonpositive cost limit raises."""
    try:
        result = build_next(utxo, seed, params, seed_failures)
    except ValueError as exc:
        return ValueError, str(exc)
    if isinstance(result, Transaction):
        return result
    return type(result.reason), str(result.reason)


class TestCompiledCases:
    """Each stage of a case runs its rules on one context, against the
    per-rule ``evaluate`` path kept in ``builder_oracle``."""

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from([
               # TestBuildNextNeverRaises's two shapes
               "(out[0].f = RULE) & (out[0].script = in[0].script)",
               "(in[1].f = RULE) & (out[0].g = 1) & (out[0].script = in[0].script)",
               # later stages read the inputs that earlier lookups found
               "(in[1].f = RULE) & (in[2].f = in[1].g) & (out[0].g = in[2].g) "
               "& (out[0].script = in[0].script)",
               # a seed check, then an output copied with an override
               "(in[0].g = RULE) & (out[0].f = in[0].f) & (out[0].g = 1) "
               "& (out[0].script = in[0].script) & copyEq(out[1], out[0], f <- RULE)"]),
           rule=_rule_exprs,
           payloads=st.lists(st.tuples(_field_values, _field_values),
                             min_size=1, max_size=3),
           limit=st.sampled_from([ChainParams.cost_limit_per_input, 2, 0]))
    def test_same_transaction_or_reason_as_the_per_rule_oracle(
            self, shape, rule, payloads, limit):
        script = parse(shape.replace("RULE", f"({script_source(rule)})"))
        genesis = Transaction(inputs=(), outputs=tuple(
            Output(script, Payload(f=f, g=g)) for f, g in payloads), is_genesis=True)
        utxo = UtxoSet()
        apply_transaction(genesis, utxo, ChainLog(ChainParams.block_budget))
        params = ChainParams(cost_limit_per_input=limit)
        run_case, contexts = builder._run_case, []

        def counted_context(*args):
            contexts.append(args)
            return EvalContext(*args)

        def counted_run_case(case, *args):
            contexts.clear()
            try:
                return run_case(case, *args)
            finally:
                assert len(contexts) <= case.input_count + 1

        for seed in utxo.refs():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(builder, "EvalContext", counted_context)
                patch.setattr(builder, "_run_case", counted_run_case)
                got = _build_outcome(utxo, seed, params)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(builder, "_run_case", builder_oracle.run_case)
                assert got == _build_outcome(utxo, seed, params)
            # and again once the seed's failed checks are remembered
            memory = {}
            assert got == _build_outcome(utxo, seed, params, memory) \
                == _build_outcome(utxo, seed, params, memory)


class TestOrderIndependence:
    def test_any_admissible_seed_order_gives_same_row(self, params):
        rng = random.Random(9)
        for trial in range(6):
            width = rng.randint(1, 6)
            bits = [rng.randint(0, 1) for _ in range(width)]
            reference = None
            for perm in range(4):
                utxo = UtxoSet()
                log = ChainLog(params.block_budget)
                apply_transaction(genesis_grid(bits, params), utxo, log, params)
                retired = set()
                order = utxo.refs()
                rng.shuffle(order)
                for seed in order:
                    if seed not in utxo or seed in retired:
                        continue
                    result = build_next(utxo, seed, params)
                    if isinstance(result, Transaction):
                        apply_transaction(result, utxo, log, params)
                    elif isinstance(result.reason, NoProgress):
                        retired.add(seed)
                n_next = GridRow.from_bits(bits).n - 1
                row = sorted(
                    {(out.payload.get("x"), out.payload.get("val"))
                     for tx in log.transactions for out in tx.outputs
                     if out.payload.get("n") == n_next})
                if reference is None:
                    reference = row
                else:
                    assert row == reference
            oracle = evolve_grid(GridRow.from_bits(bits), 1)[0]
            assert reference == [(x, bool(v)) for x, v in oracle.cells()]


class TestChainAgainstOracles:
    def test_layer_chain_equals_oracle(self, params):
        bits = Bits.from_text("01011001")
        txs, _ = drive_layer(bits, 40, params)
        rows = [t.outputs[0].payload.get("layer") for t in txs[1:]]
        assert rows == evolve_cyclic(bits, 40)

    def test_layer_chain_at_maximum_width(self, params):
        # the full width cap still fits the default per-input budget
        rng = random.Random(256)
        bits = Bits(rng.randint(0, 1) for _ in range(params.max_width))
        txs, _ = drive_layer(bits, 2, params)
        rows = [t.outputs[0].payload.get("layer") for t in txs[1:]]
        assert rows == evolve_cyclic(bits, 2)

    def test_grid_chain_equals_oracle(self, params):
        from utxo110.render import grid_rows
        for bits in ([1], [1, 1], [0, 1, 0, 1, 1]):
            txs, _ = drive_grid(bits, 10, params)
            rows = grid_rows(txs)
            oracle = [list(r.bits) for r in evolve_grid(GridRow.from_bits(bits), 10)]
            assert rows[0] == list(bits)
            assert rows[1:] == oracle
