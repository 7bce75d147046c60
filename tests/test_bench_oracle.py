"""The benchmark's output checks read what the program writes and prints.

``perfbench/oracle.py`` rebuilds Rule 110 rows from a chain file's JSON
and parses the CLI's summary lines, sharing no code with ``utxo110``.
These tests import it, and ``perfbench/modexp.py``, as they are, so a
change to the chain format or to the printed lines that the benchmark
can no longer read fails here rather than only in a benchmark run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from utxo110.chainio import dump_chain
from utxo110.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
modexp = _load("modexp")


def _run(capsys, tmp_path, mode, initial, steps):
    """The records of a ``run`` chain, and what ``run`` and ``verify`` printed."""
    chain = tmp_path / "chain.jsonl"
    assert main(["run", "--mode", mode, "--initial", initial,
                 "--steps", str(steps), "--chain", str(chain)]) == 0
    ran = capsys.readouterr().out
    assert main(["verify", "--chain", str(chain)]) == 0
    verified = capsys.readouterr().out
    return oracle.read_records(chain), ran, verified


def _summaries_agree(records, ran, verified):
    summary = oracle.run_summary(ran)
    assert summary is not None and summary[0] == len(records)
    assert oracle.verify_verdict(verified) == ("VerifyOk", *summary)


@pytest.mark.parametrize("initial", ["1", "0110"])
def test_grid_rows(tmp_path, capsys, initial):
    records, ran, verified = _run(capsys, tmp_path, "grid", initial, 5)
    assert oracle.chain_grid_rows(records) == oracle.grid_rows(initial, 5)
    _summaries_agree(records, ran, verified)


def test_layer_rows(tmp_path, capsys):
    initial = format(random.Random(7).getrandbits(32), "032b")
    records, ran, verified = _run(capsys, tmp_path, "layer", initial, 6)
    assert oracle.chain_layer_rows(records) == oracle.cyclic_rows(initial, 6)
    _summaries_agree(records, ran, verified)


def test_modexp_results(tmp_path, capsys):
    rng = random.Random("oracle")
    spec = []
    for nonce in range(3):
        modulus = rng.getrandbits(64) | 1 << 63 | 1
        exponent = rng.getrandbits(16) | 1 << 15
        base = rng.randrange(2, modulus)
        spec.append({"b": base, "E": exponent, "M": modulus,
                     "r": pow(base, exponent, modulus), "nonce": nonce})
    chain = tmp_path / "modexp.jsonl"
    dump_chain(modexp.build_transactions(spec), chain)
    records = oracle.read_records(chain)
    rows = [out["payload"]["r"]["v"] for rec in records[1:] for out in rec["outputs"]]
    assert rows == [e["r"] for e in spec]
    assert main(["verify", "--chain", str(chain)]) == 0
    cost = sum(modexp.input_cost(e["E"]) for e in spec)
    assert oracle.verify_verdict(capsys.readouterr().out) == ("VerifyOk", 4, cost)
