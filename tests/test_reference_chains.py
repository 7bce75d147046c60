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
outputs began to leave out a script that repeats the one of the output
before them.
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
    "1": ("c6bebb5f78b06eb7b108743d4027823a7e48417d005eb8df09f27a1d788ee33b",
          "4adf4106f73a662e79d6ff957d8850441e8897a3ca74579f7a2a4ff1d221a5ed"),
    "1011": ("2b0bcc723a60d927b4790a9d5444478962595f54e73268cb5ef6eab389c2391c",
             "960e1e77cfdfbe10711726c5e8bec5f556ed5078a79b5cbed28fa37de39a9c21"),
    "0110101": ("d50b41e88b2f14a02ab3f33aac13e200ee56ea1b442cf29f1b7bbcdbccbdef51",
                "b6a6445e2e65f6d99f007ec5c5f7644a865c29dcfadd31ad072c2d540ebef6c6"),
    "10": ("a40518482afdd6511ac6b21fe52aa1c700cf2a38ffebe95c766fad9fbba8d2e2",
           "70507529d02209e7f7b1cf607befe4168db16c2fc1cc23e2af0a98a227f6f8f6"),
    "011": ("28c27b2e3b123f57035815eba4d95a580c2d2c3e4f7ae765531fe65408c1b98d",
            "0dbe4fa72b72fbed435127be4b6d43e3ef8baa791e501ff0e7b468a63480aa26"),
    "01001": ("cdec4179e74384b2b6456a6d7f01254f14dbafbfd0ca96c53cd85d39a64f117d",
              "ad796b01707cdd9842384caf76f5e69e65d5a38347ff34c7a6f92d2a00853fa1"),
    "110110": ("820105ecced9ef5d52672d2d99af3bffa1a1952d75fb0a444e4b2efd34b4f0e2",
               "7cb87fe5586025bc1a54d7f87a1fdf05e2cc27ace55a0da112595d90b1dd9908"),
    "0100111": ("11dfa303930e23d227f9a941d38a2d7ed7963eb3d6289d73d5f4ceb933815398",
                "ed0997f878f772290f457a4f55a09efb8de85d4388ab3302f7db3dfd5cb5be05"),
    "10110001": ("0e32daf4b3d09a8ff2572a7d81acc4d9677fee4b76745b95bd89b5bad7ae1b7f",
                 "46855ca514621be1a3f932f509a265a9624a6a87275adb0586f7cc534656a793"),
}

# grid "1" x 4, written before inputs became back-references: every input
# spells out the spent tx id
OBJECT_FORM_SAMPLE = (Path(__file__).resolve().parent.parent
                      / "samples" / "grid-1x4-hex-inputs.jsonl")

# a seeded 256-cell row x 100 layer steps
LAYER_ROW = format(random.Random(110).getrandbits(256), "0256b")
LAYER_SHA256 = ("8d9ab036d79d62963a95e4c96b0a4b3568146e3a3c17b56f01075048550f3bcb",
                "e9cf5bb3a4e90772a42148927933857295a1f5a084fd175e5e5274dd90845049")


def state_lines(printed: str) -> list:
    """The block count, UTXO size and UTXO digest lines of ``run`` or
    ``verify`` output."""
    return [line for line in printed.splitlines()
            if line.startswith(("blocks: ", "utxo size: ", "utxo digest: "))]


def _run_pins(tmp_path, capsys, mode, initial, steps):
    """(file sha256, tx-id list sha256) of a ``run`` chain, after checking
    that the file spells out each distinct script's bytes exactly once,
    that its one script is named by one output only, and that ``verify``
    rebuilds the state ``run`` printed."""
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
    assert len(scripts) == data.count(b'"script"') == 1
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


def test_grid_chain_of_the_benchmark_shape_states_its_script_once(tmp_path, capsys):
    """A 4-bit row over 12 sweeps, the grid-r12 workload's shape: the one
    script is stated once, which keeps the file at most 372 bytes per
    transaction (about 403 when every output named it)."""
    chain = tmp_path / "chain.jsonl"
    assert main(["run", "--mode", "grid", "--initial", "0110", "--steps", "12",
                 "--chain", str(chain)]) == 0
    capsys.readouterr()
    data = chain.read_bytes()
    assert data.count(b'"script"') == 1
    assert len(data) / data.count(b"\n") <= 372


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
