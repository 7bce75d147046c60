"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them)."""

import hashlib
import random
import statistics
import time
from contextlib import contextmanager

from conftest import drive_grid, drive_layer
from utxo110.builder import (
    BuildRules, NotBuildable, build_next, derive_build_rules, sweep,
)
from utxo110.cli import main as cli_main
from utxo110.interp import EvalContext, evaluate
from utxo110.lang import Bits, serialize_script
from utxo110.ledger import (
    ChainLog, UtxoSet, Valid, VerifyOk, apply_transaction, verify_chain,
)
from utxo110.model import ChainParams, Output, Payload, Transaction
from utxo110.parser import parse
from utxo110.render import grid_rows
from utxo110.rule110 import (
    GridRow, build_bit_script, build_layer_script, calc_bit, evolve_cyclic,
    evolve_grid, genesis_grid,
)

PARAMS = ChainParams()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


# -- cached expensive fixtures ------------------------------------------------

_layer_cache = {}


def layer_suite():
    """50 random layer chains, widths 4-32, 100 steps each, verified."""
    if not _layer_cache:
        rng = random.Random(110)
        started = time.perf_counter()
        chains = []
        for _ in range(50):
            width = rng.randint(4, 32)
            bits = Bits(rng.randint(0, 1) for _ in range(width))
            txs, _ = drive_layer(bits, 100, PARAMS)
            oracle = evolve_cyclic(bits, 100)
            rows = [t.outputs[0].payload.get("layer") for t in txs[1:]]
            assert rows == oracle, "chain diverged from the cyclic oracle"
            assert isinstance(verify_chain(txs, PARAMS), VerifyOk)
            chains.append((bits, txs))
        _layer_cache["chains"] = chains
        _layer_cache["elapsed"] = time.perf_counter() - started
    return _layer_cache


_grid_cache = {}


def grid_suite():
    """Single-1 plus three random seeds (widths 1-8), 16 rows each."""
    if not _grid_cache:
        rng = random.Random(2110)
        initials = [[1]] + [[rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
                            for _ in range(3)]
        started = time.perf_counter()
        chains = []
        for bits in initials:
            txs, utxo = drive_grid(bits, 16, PARAMS)
            chains.append((bits, txs, utxo))
        _grid_cache["chains"] = chains
        _grid_cache["elapsed"] = time.perf_counter() - started
    return _grid_cache


# -- criteria -----------------------------------------------------------------

def test_criterion_1_transition_function():
    with criterion(1, "calc_bit reproduces rule number 110 on all 8 cases"):
        cases = [(l, c, r) for l in (0, 1) for c in (0, 1) for r in (0, 1)]
        for l, c, r in cases:
            assert calc_bit(l, c, r) == (110 >> (4 * l + 2 * c + r)) & 1

        def all_eight():
            started = time.perf_counter()
            for l, c, r in cases:
                calc_bit(l, c, r)
            return time.perf_counter() - started

        # best of several repeats, as timeit reports, so that one stall of
        # a busy host is not taken for the cost of calc_bit
        elapsed = min(all_eight() for _ in range(5))
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_criterion_2_layer_chains_match_oracle():
    with criterion(2, "50 layer chains x 100 steps equal the cyclic oracle"):
        suite = layer_suite()
        assert len(suite["chains"]) == 50
        assert suite["elapsed"] < 10.0, f"took {suite['elapsed']:.2f} s"


def test_criterion_3_grid_chains_match_oracle():
    with criterion(3, "grid chains over 16 rows equal the grid oracle"):
        suite = grid_suite()
        for bits, txs, _ in suite["chains"]:
            rows = grid_rows(txs)
            assert rows[0] == list(bits)
            oracle = [list(r.bits)
                      for r in evolve_grid(GridRow.from_bits(bits), 16)]
            assert rows[1:] == oracle, "chain diverged from the grid oracle"
            interior = [t for t in txs if not t.is_genesis and len(t.inputs) == 3]
            assert interior, "no interior transactions in a 16-row run"
            assert all(len(t.outputs) == 3 for t in interior), \
                "interior transactions must spend three and create three"
        assert suite["elapsed"] < 10.0, f"took {suite['elapsed']:.2f} s"


def test_criterion_4_script_self_reproduction():
    with criterion(4, "one byte-identical script along every layer chain"):
        for _, txs in layer_suite()["chains"]:
            blobs = {serialize_script(t.outputs[0].script) for t in txs}
            assert len(blobs) == 1


def _grid_kind(tx, resolved):
    first = resolved[0].payload
    x, n, mid = first.get("x"), first.get("n"), first.get("mid")
    if len(resolved) == 3:
        return "interior"
    if len(resolved) == 2:
        return "next-to-leftmost" if (x == n and mid) else "rightmost"
    if x == 0 and n == 0:
        return "sole-mid" if mid else "sole-left-copy"
    return "leftmost"


def _per_input_costs(txs):
    """Replay a grid chain, recording (row, kind, per-input costs)."""
    utxo = UtxoSet()
    log = ChainLog(PARAMS.block_budget)
    rows = []
    for tx in txs:
        if not tx.is_genesis:
            resolved = [utxo.resolve(ref) for ref in tx.inputs]
            costs = []
            for inp in resolved:
                ctx = EvalContext(self_input=inp, inputs=resolved,
                                  outputs=tx.outputs)
                value, receipt = evaluate(inp.script, ctx,
                                          PARAMS.cost_limit_per_input,
                                          max_width=PARAMS.max_width)
                assert value is True
                costs.append(receipt.total_cost)
            row = -tx.outputs[0].payload.get("n")
            rows.append((row, _grid_kind(tx, resolved), costs))
        apply_transaction(tx, utxo, log, PARAMS)
    return rows


def test_criterion_5_bounded_validation():
    with criterion(5, "grid cost is row-independent; layer cost linear in width"):
        # grid: per-input cost for a given input role never depends on the
        # row number (the single-1 chain reaches row 16)
        single_one = grid_suite()["chains"][0]
        records = _per_input_costs(single_one[1])
        by_kind_row = {}
        for row, kind, costs in records:
            assert len(set(costs)) == 1, "inputs of one transaction differ in cost"
            by_kind_row.setdefault(kind, {}).setdefault(row, set()).add(costs[0])
        for kind, per_row in by_kind_row.items():
            values = {cost for row_costs in per_row.values()
                      for cost in row_costs}
            assert len(values) == 1, f"{kind} cost varies across rows: {per_row}"
        for kind in ("leftmost", "next-to-leftmost", "rightmost"):
            rows_seen = set(by_kind_row[kind])
            assert 2 in rows_seen and 16 in rows_seen
        assert 16 in set(by_kind_row["interior"])

        # layer: validation cost against width fits a line with R^2 > 0.99
        from utxo110.rule110 import genesis_layer
        widths = list(range(4, 33))
        costs = []
        for w in widths:
            genesis = genesis_layer(Bits([1] + [0] * (w - 1)), PARAMS)
            utxo = UtxoSet()
            log = ChainLog(PARAMS.block_budget)
            apply_transaction(genesis, utxo, log, PARAMS)
            (step,) = sweep(utxo, log, PARAMS)
            state = genesis.outputs[0]
            ctx = EvalContext(self_input=state, inputs=(state,),
                              outputs=step.outputs)
            _, receipt = evaluate(build_layer_script(), ctx,
                                  PARAMS.cost_limit_per_input)
            costs.append(receipt.total_cost)
        fit = statistics.linear_regression(widths, costs)
        predicted = [fit.slope * w + fit.intercept for w in widths]
        mean = statistics.fmean(costs)
        ss_res = sum((c - p) ** 2 for c, p in zip(costs, predicted))
        ss_tot = sum((c - mean) ** 2 for c in costs)
        r_squared = 1.0 - ss_res / ss_tot
        assert r_squared > 0.99, f"R^2 = {r_squared}"
        assert fit.slope > 0


def _interior_all_ones_fixture():
    """A valid interior transaction whose input bits are (1, 1, 1).

    The all-ones neighborhood is the only one where flipping any single
    input bit flips the transition output, so it exercises every
    mutation in the tamper suite.
    """
    genesis = genesis_grid(GridRow.from_bits([0, 1, 1, 1, 0]), PARAMS)
    utxo = UtxoSet()
    apply_transaction(genesis, utxo, ChainLog(PARAMS.block_budget), PARAMS)
    (seed,) = [r for r in utxo.lookup([("x", -3), ("mid", False)])][:1]
    tx = build_next(utxo, seed, PARAMS)
    assert isinstance(tx, Transaction)
    vals = [utxo.resolve(ref).payload.get("val") for ref in tx.inputs]
    assert vals == [True, True, True]
    return tx, utxo


def _mutations(value):
    if isinstance(value, bool):
        return not value
    return value + 1


def test_criterion_6_tamper_suite():
    with criterion(6, "all 24 single-field mutations are rejected"):
        tx, utxo = _interior_all_ones_fixture()
        assert isinstance(validate_transaction_ok(tx, utxo), Valid)
        rejected = 0
        for i, ref in enumerate(tx.inputs):
            original = utxo.resolve(ref)
            for field in ("val", "x", "n", "mid"):
                tampered = UtxoSet()
                for other_ref, output in utxo.items():
                    tampered.add(other_ref, output)
                tampered.spend(ref)
                mutated = Output(original.script,
                                 original.payload.replace(
                                     field, _mutations(original.payload.get(field))))
                tampered.add(ref, mutated)
                result = validate_transaction_ok(tx, tampered)
                assert not isinstance(result, Valid), \
                    f"mutation of in[{i}].{field} was accepted"
                rejected += 1
        for j, out in enumerate(tx.outputs):
            for field in ("val", "x", "n", "mid"):
                mutated = Output(out.script,
                                 out.payload.replace(
                                     field, _mutations(out.payload.get(field))))
                outputs = list(tx.outputs)
                outputs[j] = mutated
                candidate = Transaction(inputs=tx.inputs, outputs=outputs)
                result = validate_transaction_ok(candidate, utxo)
                assert not isinstance(result, Valid), \
                    f"mutation of out[{j}].{field} was accepted"
                rejected += 1
        assert rejected == 24


def validate_transaction_ok(tx, utxo):
    from utxo110.ledger import validate_transaction
    return validate_transaction(tx, utxo, PARAMS)


def test_criterion_7_builder_closure_and_determinism(tmp_path):
    with criterion(7, "swept transactions all validate; runs are byte-identical"):
        for _, txs, _ in grid_suite()["chains"]:
            assert isinstance(verify_chain(txs, PARAMS), VerifyOk)
        digests = []
        for name in ("a", "b"):
            chain = tmp_path / f"{name}.jsonl"
            code = cli_main(["run", "--mode", "grid", "--initial", "1",
                             "--steps", "12", "--chain", str(chain)])
            assert code == 0
            digests.append(hashlib.sha256(chain.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        digests = []
        for name in ("c", "d"):
            chain = tmp_path / f"{name}.jsonl"
            code = cli_main(["run", "--mode", "layer", "--initial", "01101001",
                             "--steps", "40", "--chain", str(chain)])
            assert code == 0
            digests.append(hashlib.sha256(chain.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


def test_criterion_8_canonical_analyzer():
    with criterion(8, "analyzer accepts both validators, rejects discrete log"):
        # the analysis the builder uses, read off each branch of a script
        assert isinstance(derive_build_rules(build_layer_script()), BuildRules)
        assert isinstance(derive_build_rules(build_bit_script()), BuildRules)
        discrete_log = parse("5 pow out[0].x mod 23 = 13")
        assert isinstance(derive_build_rules(discrete_log), NotBuildable)

        witnesses = [x for x in range(22) if pow(5, x, 23) == 13]
        assert witnesses == [14]
        probe = Output(parse("true"), Payload((("x", 14),)))
        ctx = EvalContext(self_input=probe, inputs=(probe,), outputs=(probe,))
        value, _ = evaluate(discrete_log, ctx, 10_000)
        assert value is True


def test_criterion_9_grid_consumption_leak():
    with criterion(9, "each evolved row leaves exactly one unspent output"):
        leftovers = []

        def inspect(row, built, utxo):
            previous_n = 1 - row  # row r-1 sits at n = n0 - (r-1), n0 = 0
            remaining = [(ref, out) for ref, out in utxo.items()
                         if out.payload.get("n") == previous_n]
            leftovers.append((row, remaining))

        drive_grid([1], 16, PARAMS, per_row=inspect)
        assert len(leftovers) == 16
        for row, remaining in leftovers:
            assert len(remaining) == 1, \
                f"row {row - 1} left {len(remaining)} unspent outputs"
            (_, out) = remaining[0]
            assert out.payload.get("x") == 0
            assert out.payload.get("mid") is False
