"""Mutation fuzzing of every file the CLI and the loaders read.

Chain files, snapshots and script sources are mutated as bytes (flip,
insert, delete, non-ASCII included) and, for the JSON files, as values
(a scalar or container swapped for one of a few hostile values).  Each
case must end in a documented outcome: an exit status of 0, 1 or 2, a
``UtxoSet`` or a ``ChainFormatError``, never another exception.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import drive_grid
from utxo110.chainio import (
    ChainFormatError, dump_chain, dump_utxo_snapshot, load_utxo_snapshot,
)
from utxo110.cli import main
from utxo110.ledger import UtxoSet
from utxo110.rule110 import BIT_SCRIPT_SOURCE, LAYER_SCRIPT_SOURCE

HOSTILE_VALUES = (0, -1, 2**64, True, None, "", [], {})

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# one byte-level edit: (kind, position as a fraction of the length, byte)
_edits = st.lists(
    st.tuples(st.sampled_from(["flip", "insert", "delete"]),
              st.floats(0, 1, exclude_max=True),
              st.integers(0, 255)),
    min_size=1, max_size=4)


def mutate_bytes(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in edits:
        pos = int(where * len(buf)) if buf else 0
        if kind == "insert":
            buf.insert(pos, byte)
        elif not buf:
            continue
        elif kind == "flip":
            buf[pos] ^= byte or 0x80
        else:
            del buf[pos]
    return bytes(buf)


def value_paths(obj, path=()):
    """Every path (a tuple of keys and indices) to a value inside obj."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from value_paths(value, path + (key,))


def replace_at(obj, path, value):
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small grid chain and its final UTXO snapshot, as bytes."""
    base = tmp_path_factory.mktemp("fuzz")
    txs, utxo = drive_grid([1, 0, 1], 2)
    dump_chain(txs, base / "chain.jsonl")
    dump_utxo_snapshot(utxo, base / "utxo.json")
    return base, (base / "chain.jsonl").read_bytes(), \
        (base / "utxo.json").read_bytes()


def verify_exit(path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", "--chain", str(path)])


def load_snapshot_or_error(path):
    try:
        return load_utxo_snapshot(path)
    except ChainFormatError as exc:
        return exc


def test_unmutated_files_are_accepted(files):
    base, chain, snapshot = files
    assert verify_exit(base / "chain.jsonl") == 0
    assert isinstance(load_snapshot_or_error(base / "utxo.json"), UtxoSet)


@FUZZ
@given(edits=_edits)
def test_verify_survives_byte_mutations(files, edits):
    base, chain, _ = files
    path = base / "bytes.jsonl"
    path.write_bytes(mutate_bytes(chain, edits))
    assert verify_exit(path) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_verify_survives_value_mutations(files, data):
    base, chain, _ = files
    records = [json.loads(line) for line in chain.decode().splitlines()]
    paths = list(value_paths(records))
    path_to = data.draw(st.sampled_from(paths[1:]))
    value = data.draw(st.sampled_from(HOSTILE_VALUES))
    replace_at(records, path_to, value)
    path = base / "values.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert verify_exit(path) in (0, 1, 2)


@FUZZ
@given(edits=_edits)
def test_snapshot_load_survives_byte_mutations(files, edits):
    base, _, snapshot = files
    path = base / "bytes.json"
    path.write_bytes(mutate_bytes(snapshot, edits))
    result = load_snapshot_or_error(path)
    assert isinstance(result, (UtxoSet, ChainFormatError))


@FUZZ
@given(data=st.data())
def test_snapshot_load_survives_value_mutations(files, data):
    base, _, snapshot = files
    obj = json.loads(snapshot)
    path_to = data.draw(st.sampled_from(list(value_paths(obj))))
    value = data.draw(st.sampled_from(HOSTILE_VALUES))
    path = base / "values.json"
    path.write_text(json.dumps(replace_at(obj, path_to, value)))
    result = load_snapshot_or_error(path)
    assert isinstance(result, (UtxoSet, ChainFormatError))


@FUZZ
@given(source=st.sampled_from([LAYER_SCRIPT_SOURCE, BIT_SCRIPT_SOURCE]),
       edits=_edits)
def test_analyze_survives_script_mutations(files, source, edits):
    base, _, _ = files
    path = base / "mutated.script"
    path.write_bytes(mutate_bytes(source.encode(), edits))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", "--script", str(path)]) in (0, 2)
