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
boolean and integer values lost their kind tags and transactions their
``isGenesis`` key.
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
    "1": ("9c1b1c196ea73f7e7b26f26ee915a83faf5b97542504f75bd1653b78871bbd75",
          "4adf4106f73a662e79d6ff957d8850441e8897a3ca74579f7a2a4ff1d221a5ed"),
    "1011": ("a153e1dcaf37605b3090cb66a1f08194e43e5e15c4bf176c9da2990c7a74fe74",
             "960e1e77cfdfbe10711726c5e8bec5f556ed5078a79b5cbed28fa37de39a9c21"),
    "0110101": ("4ca8029ac8bcd1d701279a086fb929b52dfceab315140cbafa36cfaf0d3607f0",
                "b6a6445e2e65f6d99f007ec5c5f7644a865c29dcfadd31ad072c2d540ebef6c6"),
    "10": ("75f325d574eafbb1813170fe96c3a1eb7ae78642c0c7bad05b53fc602ed34510",
           "70507529d02209e7f7b1cf607befe4168db16c2fc1cc23e2af0a98a227f6f8f6"),
    "011": ("2493d5a07db46339c1aeb9e2a2e90f30ae34dc8446f2fa58cc1255dfc7693b01",
            "0dbe4fa72b72fbed435127be4b6d43e3ef8baa791e501ff0e7b468a63480aa26"),
    "01001": ("d0668785b9d4e0e034f7804901d3a8f9bf019385a97eba847315eab87649e38f",
              "ad796b01707cdd9842384caf76f5e69e65d5a38347ff34c7a6f92d2a00853fa1"),
    "110110": ("708d8d0e2d4ff4a906121fbe23075ab3c1864feb15646a066467d6026aa41ea2",
               "7cb87fe5586025bc1a54d7f87a1fdf05e2cc27ace55a0da112595d90b1dd9908"),
    "0100111": ("0ba25ff08ee976ce156fcea2d099fc825b561b5ad19223e5fa85f1bc1b824bd6",
                "ed0997f878f772290f457a4f55a09efb8de85d4388ab3302f7db3dfd5cb5be05"),
    "10110001": ("a9baaa28dc4bdcc0e9a5c4c6b22592a7bd228202e33975a606f787669ca36fa0",
                 "46855ca514621be1a3f932f509a265a9624a6a87275adb0586f7cc534656a793"),
}

# grid "1" x 4, written before inputs became back-references: every input
# spells out the spent tx id
OBJECT_FORM_SAMPLE = (Path(__file__).resolve().parent.parent
                      / "samples" / "grid-1x4-hex-inputs.jsonl")

# a seeded 256-cell row x 100 layer steps
LAYER_ROW = format(random.Random(110).getrandbits(256), "0256b")
LAYER_SHA256 = ("d99762f7e4ab6d73b05e47224b2004952743f692ce46344ceebb316c5406acc9",
                "e9cf5bb3a4e90772a42148927933857295a1f5a084fd175e5e5274dd90845049")


def state_lines(printed: str) -> list:
    """The block count, UTXO size and UTXO digest lines of ``run`` or
    ``verify`` output."""
    return [line for line in printed.splitlines()
            if line.startswith(("blocks: ", "utxo size: ", "utxo digest: "))]


def _run_pins(tmp_path, capsys, mode, initial, steps):
    """(file sha256, tx-id list sha256) of a ``run`` chain, after checking
    that the file spells out each distinct script's bytes exactly once
    and that ``verify`` rebuilds the state ``run`` printed."""
    chain = tmp_path / "chain.jsonl"
    code = main(["run", "--mode", mode, "--initial", initial,
                 "--steps", str(steps), "--chain", str(chain)])
    built = state_lines(capsys.readouterr().out)
    assert code == 0 and len(built) == 3
    assert main(["verify", "--chain", str(chain)]) == 0
    assert state_lines(capsys.readouterr().out) == built
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
    built = state_lines(capsys.readouterr().out)
    text = OBJECT_FORM_SAMPLE.read_text()
    assert "[[" not in text and "[[" in chain.read_text()
    assert '"isGenesis"' in text and '"t":"int"' in text
    old = load_chain(OBJECT_FORM_SAMPLE)
    assert old == load_chain(chain)
    assert [r.stored_id for r in old] == [r.tx.tx_id() for r in old]
    assert main(["verify", "--chain", str(OBJECT_FORM_SAMPLE)]) == 0
    assert capsys.readouterr().out == (
        "ok: 15 transactions, total cost 6841\n"
        "blocks: 1\n"
        "utxo size: 19\n"
        "utxo digest: 2592e1ab2923234fac4ac52bc6df31b369c58e6fd5a0699f43c5a6a78dbebe70\n")
    assert main(["verify", "--chain", str(chain)]) == 0
    assert state_lines(capsys.readouterr().out) == built
