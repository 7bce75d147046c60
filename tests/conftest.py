import pytest

from rule110_oracle import evolve_cyclic
from utxo110.builder import sweep
from utxo110.lang import Bits, Lit, children
from utxo110.ledger import ChainLog, UtxoSet, apply_transaction
from utxo110.model import ChainParams, Output, Payload, Transaction
from utxo110.rule110 import genesis_grid, genesis_layer

# Canonical-looking script bytes that decode but re-encode differently:
# an int with a leading zero byte, and a Bits value with a padding bit set.
NON_CANONICAL_SCRIPTS = ("010121000000020001", "0101220000000181")


def node_count(expr) -> int:
    """The number of nodes in a script tree, strictly more than in any of
    its sub-expressions."""
    return 1 + sum(node_count(c) for c in children(expr))


def let_chain(count: int, value) -> str:
    """Source of a script binding ``a0 = in[0].x`` and then ``count`` lets,
    each ``aI = value("a(I-1)")``, that assigns the last to out[0].x."""
    lets = "".join(f"let a{i} = {value(f'a{i - 1}')} in " for i in range(1, count + 1))
    return (f"let a0 = in[0].x in {lets}"
            f"(out[0].x = a{count}) & (out[0].script = in[0].script)")


def doubling(name: str) -> str:
    return f"{name} + {name}"


# Lets whose inlined form outgrows analysis: one doubles it 16 times
# (327,694 nodes), the other nests it 905 nodes deep.
OVERSIZED_LETS = {
    "doubling": let_chain(16, doubling),
    "deepening": let_chain(30, lambda name: name + " + 1" * 30),
}


@pytest.fixture
def params():
    return ChainParams()


def drive_layer(bits, steps, params=ChainParams()):
    """Genesis plus ``steps`` sweeps in layer mode; (transactions, utxo)."""
    utxo = UtxoSet()
    log = ChainLog(params.block_budget)
    apply_transaction(genesis_layer(bits, params), utxo, log, params)
    for _ in range(steps):
        built = sweep(utxo, log, params)
        assert len(built) == 1, f"layer sweep built {len(built)} transactions"
    return log.transactions, utxo


def drive_grid(bits, rows, params=ChainParams(), per_row=None):
    """Genesis plus ``rows`` sweeps in grid mode; (transactions, utxo).

    ``per_row`` (when given) receives (row_number, built, utxo) after
    every sweep.
    """
    utxo = UtxoSet()
    log = ChainLog(params.block_budget)
    apply_transaction(genesis_grid(bits, params), utxo, log, params)
    seed_failures = {}
    for row in range(1, rows + 1):
        built = sweep(utxo, log, params, seed_failures)
        assert built, f"grid sweep {row} built nothing"
        if per_row is not None:
            per_row(row, built, utxo)
    return log.transactions, utxo


def step_transaction(genesis, params=ChainParams()):
    """Hand-built layer step spending the genesis state."""
    src = genesis.outputs[0].payload.get("layer")
    nxt = evolve_cyclic(src, 1)[0]
    out = Output(genesis.outputs[0].script_ref, Payload((("layer", nxt),)))
    return Transaction(inputs=(genesis.ref(0),), outputs=(out,))


def step_with_oversize_output(genesis):
    """A valid layer step plus an extra output with a 5,000-byte payload."""
    good = step_transaction(genesis)
    blob = Output(Lit(True), Payload((("blob", Bits([1] * 40_000)),)))
    return Transaction(inputs=good.inputs, outputs=good.outputs + (blob,))
