"""Pinned chain files: ``run`` must keep writing these exact bytes.

The digests were recorded before the builder's no-progress guard moved
onto the UTXO index and before ``derive_build_rules`` stopped running the
flat canonical pass first.  A builder change that alters seed order,
case choice, lookup choice or block packing changes a digest here.
"""

import hashlib
import random

import pytest

from utxo110.cli import main

# grid rows x 10 sweeps: the three reference rows plus one row of each
# width 1-8 ("1" serves width 1, "1011" width 4)
GRID_SHA256 = {
    "1": "0db2e99967a426e60d8d300647a27bb5b2d896e2ef657bcef08528082660048e",
    "1011": "41277ec5345c12ec85425e77fb1e8e2838b8e353f3c28c221b2c8ea3392a2b9c",
    "0110101": "ac1e949806893af214042ce4b29234aba385b1b44e106689b6a7aa11320a72d6",
    "10": "ec785b4e4519fde0c17efdb6fdd0903f08a2b12080df6974db50d353d64838aa",
    "011": "38e326f8c4c6049d58fc6026c255ae3685970a91934a6d36fdf156ab8091060d",
    "01001": "334f04e5ac9696b0de0a1c67e4cf29b792d2f1a69e3ffa844e5a5cb40398ef95",
    "110110": "0a0094f0e5ac193dec8a82d0132b3bc4df4eccb8d7266882b9aecb15b001c5f9",
    "0100111": "a94499fe04be7f66cbb7b15d3fc199a154d78973f0acd49d2d6f88580ee958d3",
    "10110001": "12c94591f4e73576ec6b8995904ac39c24c4f2ad8b9b0431de27cd5e66c9419d",
}

# a seeded 256-cell row x 100 layer steps
LAYER_ROW = format(random.Random(110).getrandbits(256), "0256b")
LAYER_SHA256 = "d5d5cdbc40593a7014a2fb6d28f5206a6018efae61bdf913507c9233ee9b6213"


def _run_sha256(tmp_path, capsys, mode, initial, steps):
    chain = tmp_path / "chain.jsonl"
    code = main(["run", "--mode", mode, "--initial", initial,
                 "--steps", str(steps), "--chain", str(chain)])
    capsys.readouterr()
    assert code == 0
    return hashlib.sha256(chain.read_bytes()).hexdigest()


@pytest.mark.parametrize("initial", GRID_SHA256)
def test_grid_chain_bytes_are_pinned(tmp_path, capsys, initial):
    assert _run_sha256(tmp_path, capsys, "grid", initial, 10) == GRID_SHA256[initial]


def test_layer_chain_bytes_are_pinned(tmp_path, capsys):
    assert _run_sha256(tmp_path, capsys, "layer", LAYER_ROW, 100) == LAYER_SHA256
