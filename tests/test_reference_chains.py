"""Pinned chain files: ``run`` must keep writing these exact transactions.

Each chain has two pins.  The second is the sha256 of its tx ids, one
lowercase hex id per line in file order; it does not depend on how the
file spells a transaction, so it holds across file-format changes.  The
tx-id pins were recorded before the builder's no-progress guard moved
onto the UTXO index, and still held when chain files began to write each
distinct script once.  A builder change that alters seed order, case
choice, lookup choice or block packing changes both pins.  The first pin
is the sha256 of the file bytes, so it also moves with the file format;
it was last recorded when scripts became back-references.
"""

import base64
import hashlib
import random

import pytest

from utxo110.chainio import load_chain
from utxo110.cli import main

# grid rows x 10 sweeps: the three reference rows plus one row of each
# width 1-8 ("1" serves width 1, "1011" width 4)
GRID_SHA256 = {
    "1": ("28d27b1f7f2b58407d05bf0e02eb6df01f03d7fa4454f607fb02d2d84c713cb9",
          "4adf4106f73a662e79d6ff957d8850441e8897a3ca74579f7a2a4ff1d221a5ed"),
    "1011": ("ecb6a9b60aede242e23733e8305ac1dcc663a071038c235204b68466e455f2be",
             "960e1e77cfdfbe10711726c5e8bec5f556ed5078a79b5cbed28fa37de39a9c21"),
    "0110101": ("445aeaac5b63ff398787bc58dc227a6cb66f22f21ce92b1ea293d87a552b6aeb",
                "b6a6445e2e65f6d99f007ec5c5f7644a865c29dcfadd31ad072c2d540ebef6c6"),
    "10": ("253cebf523f7357c5b3f7cee8873f07bf800e9d97ddca7960f4de6537709aa4c",
           "70507529d02209e7f7b1cf607befe4168db16c2fc1cc23e2af0a98a227f6f8f6"),
    "011": ("2260029412b8a8fbccbec31318904de8a63ef52d745603b8938584714bb5ded9",
            "0dbe4fa72b72fbed435127be4b6d43e3ef8baa791e501ff0e7b468a63480aa26"),
    "01001": ("f7073cb0d55ba31d7dc70fa94f17317d765d9838526c6744580b2263147f2e6a",
              "ad796b01707cdd9842384caf76f5e69e65d5a38347ff34c7a6f92d2a00853fa1"),
    "110110": ("343c09473ec7a42011f562dbd0105d35f9b1bf1a8eebc6f8f1a13e12ad9c5db7",
               "7cb87fe5586025bc1a54d7f87a1fdf05e2cc27ace55a0da112595d90b1dd9908"),
    "0100111": ("d21e8ee3b2fedad826a39d44ce32fb62e6ef85bf491d8b63d5f1fd37bcacb1e3",
                "ed0997f878f772290f457a4f55a09efb8de85d4388ab3302f7db3dfd5cb5be05"),
    "10110001": ("095a94b388395b4da58b8671e6bdbbc5c45efe57735144e502f0da38b2784be6",
                 "46855ca514621be1a3f932f509a265a9624a6a87275adb0586f7cc534656a793"),
}

# a seeded 256-cell row x 100 layer steps
LAYER_ROW = format(random.Random(110).getrandbits(256), "0256b")
LAYER_SHA256 = ("0b86738221a4dd657cb9f8d8663dd4facd36de84e3ed3f27cd9f3bb3f61958da",
                "e9cf5bb3a4e90772a42148927933857295a1f5a084fd175e5e5274dd90845049")


def _run_pins(tmp_path, capsys, mode, initial, steps):
    """(file sha256, tx-id list sha256) of a ``run`` chain, after checking
    that the file spells out each distinct script's bytes exactly once."""
    chain = tmp_path / "chain.jsonl"
    code = main(["run", "--mode", mode, "--initial", initial,
                 "--steps", str(steps), "--chain", str(chain)])
    capsys.readouterr()
    assert code == 0
    data = chain.read_bytes()
    records = load_chain(chain)
    scripts = {out.script_bytes for r in records for out in r.tx.outputs}
    for script in scripts:
        assert data.count(base64.b64encode(script)) == 1
    ids = "".join(r.tx.tx_id().hex() + "\n" for r in records)
    return (hashlib.sha256(data).hexdigest(),
            hashlib.sha256(ids.encode()).hexdigest())


@pytest.mark.parametrize("initial", GRID_SHA256)
def test_grid_chain_bytes_are_pinned(tmp_path, capsys, initial):
    file_pin, ids_pin = _run_pins(tmp_path, capsys, "grid", initial, 10)
    assert ids_pin == GRID_SHA256[initial][1]
    assert file_pin == GRID_SHA256[initial][0]


def test_layer_chain_bytes_are_pinned(tmp_path, capsys):
    file_pin, ids_pin = _run_pins(tmp_path, capsys, "layer", LAYER_ROW, 100)
    assert ids_pin == LAYER_SHA256[1]
    assert file_pin == LAYER_SHA256[0]
