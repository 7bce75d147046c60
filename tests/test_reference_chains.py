"""Pinned chain files: ``run`` must keep writing these exact transactions.

Each chain has two pins.  The second is the sha256 of its tx ids, one
lowercase hex id per line in file order; it does not depend on how the
file spells a transaction, so it holds across file-format changes.  The
tx-id pins were recorded before the builder's no-progress guard moved
onto the UTXO index, and still held when chain files began to write each
distinct script once and then each input as a back-reference.  A builder
change that alters seed order, case choice, lookup choice or block
packing changes both pins.  The first pin is the sha256 of the file
bytes, so it also moves with the file format; it was last recorded when
inputs became back-references.
"""

import base64
import hashlib
import random
from pathlib import Path

import pytest

from utxo110.chainio import load_chain
from utxo110.cli import main

# grid rows x 10 sweeps: the three reference rows plus one row of each
# width 1-8 ("1" serves width 1, "1011" width 4)
GRID_SHA256 = {
    "1": ("6177346900beb74ef81fc3fadb31a473de2afa0a8478ad4ce7c9cc5308f585e5",
          "4adf4106f73a662e79d6ff957d8850441e8897a3ca74579f7a2a4ff1d221a5ed"),
    "1011": ("f8ff883b4ed09e5ff95d958b5011fb4cc463fe579d77f1a9e11893b793cb082d",
             "960e1e77cfdfbe10711726c5e8bec5f556ed5078a79b5cbed28fa37de39a9c21"),
    "0110101": ("e033023bc1f56f390666b7c0fc523be978b2ebc6a09ada0f163ac7788d7c775a",
                "b6a6445e2e65f6d99f007ec5c5f7644a865c29dcfadd31ad072c2d540ebef6c6"),
    "10": ("52f6ef1214b5306b373cb72139a3ad05321db583ad04617e57906cee953c2077",
           "70507529d02209e7f7b1cf607befe4168db16c2fc1cc23e2af0a98a227f6f8f6"),
    "011": ("782b527b9c59c434d0ef21d6a6cc415d8280717cf614ccb05101e4d1c2ec5fb0",
            "0dbe4fa72b72fbed435127be4b6d43e3ef8baa791e501ff0e7b468a63480aa26"),
    "01001": ("700605ed954291302d110f1379cf65658aee3e78e64e4e6c2f56bec65d8a3a0f",
              "ad796b01707cdd9842384caf76f5e69e65d5a38347ff34c7a6f92d2a00853fa1"),
    "110110": ("b585fbe020a39d26ee561446f34591d57735c95dcc3efada056291eb2662fc2a",
               "7cb87fe5586025bc1a54d7f87a1fdf05e2cc27ace55a0da112595d90b1dd9908"),
    "0100111": ("f077b04999593b5eda42ab9348183b63c89f958fe2e925f4d4e0d7d66ad91aa4",
                "ed0997f878f772290f457a4f55a09efb8de85d4388ab3302f7db3dfd5cb5be05"),
    "10110001": ("7803ad248837a2430f51c7e9c8c1e0d25d0aedb2fb3f05e8aa8eea9158b75ab9",
                 "46855ca514621be1a3f932f509a265a9624a6a87275adb0586f7cc534656a793"),
}

# grid "1" x 4, written before inputs became back-references: every input
# spells out the spent tx id
OBJECT_FORM_SAMPLE = (Path(__file__).resolve().parent.parent
                      / "samples" / "grid-1x4-hex-inputs.jsonl")

# a seeded 256-cell row x 100 layer steps
LAYER_ROW = format(random.Random(110).getrandbits(256), "0256b")
LAYER_SHA256 = ("262fab32e2d9113f5dd54d40fafca3b45a50927679a2d28618ecee1a0671c01d",
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


def test_object_form_sample_loads_to_the_run_chain(tmp_path, capsys):
    chain = tmp_path / "chain.jsonl"
    assert main(["run", "--mode", "grid", "--initial", "1", "--steps", "4",
                 "--chain", str(chain)]) == 0
    capsys.readouterr()
    assert "[[" not in OBJECT_FORM_SAMPLE.read_text() and "[[" in chain.read_text()
    old = load_chain(OBJECT_FORM_SAMPLE)
    assert old == load_chain(chain)
    assert [r.stored_id for r in old] == [r.tx.tx_id() for r in old]
    assert main(["verify", "--chain", str(OBJECT_FORM_SAMPLE)]) == 0
    assert capsys.readouterr().out == "ok: 15 transactions, total cost 6841\n"
