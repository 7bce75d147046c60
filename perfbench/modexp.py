"""Writes the modexp-adversarial chain with the program's public constructors.

A genesis transaction holds one output per spend, each guarded by its
own ``(self.b pow E mod M) = out[0].r`` script.  Transaction ``i`` spends
genesis output ``i`` and creates an output carrying ``r = b^E mod M``,
guarded by a distinct ``nonce = nonce`` script so that no two scripts in
the chain are equal.  The benchmark draws the operands and computes
``r``; this module only builds and writes transactions.

Run as a program::

    python3 perfbench/modexp.py --spec spec.json --chain chain.jsonl [--genesis-only]
"""

from __future__ import annotations

import argparse
import json
import sys

from utxo110 import Output, Payload, Transaction, dump_chain, parse

# Node visits of the guarding script other than pow: the comparison,
# self.b (2), the two literals and out[0].r (4).
OTHER_NODES = 9


def input_cost(exponent: int) -> int:
    """Cost of one spend under the documented rule: 1 per node visit, and
    1 plus the exponent's bit length for ``pow .. mod``."""
    return OTHER_NODES + 1 + exponent.bit_length()


def guard_source(entry) -> str:
    return f"(self.b pow {entry['E']} mod {entry['M']}) = out[0].r"


def build_transactions(spec, genesis_only: bool = False) -> list:
    genesis = Transaction(
        inputs=(),
        outputs=[Output(parse(guard_source(e)), Payload(b=e["b"])) for e in spec],
        is_genesis=True)
    transactions = [genesis]
    if genesis_only:
        return transactions
    for i, e in enumerate(spec):
        keep = parse(f"{e['nonce']} = {e['nonce']}")
        transactions.append(Transaction(
            inputs=[genesis.ref(i)], outputs=[Output(keep, Payload(r=e["r"]))]))
    return transactions


def write_chain(spec_path, chain_path, genesis_only: bool = False) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    transactions = build_transactions(spec, genesis_only)
    dump_chain(transactions, chain_path)
    print(f"transactions: {len(transactions)}")
    # the cost that verify must report, predicted without running a script
    print(f"total cost: {0 if genesis_only else sum(input_cost(e['E']) for e in spec)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--chain", required=True)
    ap.add_argument("--genesis-only", action="store_true")
    args = ap.parse_args(argv)
    return write_chain(args.spec, args.chain, args.genesis_only)


if __name__ == "__main__":
    sys.exit(main())
