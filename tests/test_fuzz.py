"""Mutation fuzzing of every file the CLI and the loaders read.

Chain files and script sources are mutated as bytes (flip, insert,
delete, non-ASCII included) and chain files also as values (a scalar or
container swapped for one of a few hostile values).  Each case must end
in an exit status of 0, 1 or 2, never another exception.  Mutated chains
are verified twice, the second time by the closure-tree oracle, and both
runs must print the same lines; then they are rendered.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import closure_oracle
from conftest import drive_grid
from utxo110 import interp, ledger
from utxo110.chainio import dump_chain, load_chain
from utxo110.cli import main
from utxo110.lang import Bits
from utxo110.model import Output, OutputRef, Transaction
from utxo110.rule110 import (
    BIT_SCRIPT_SOURCE, LAYER_SCRIPT_SOURCE, genesis_grid, genesis_layer,
)

# the fuzzed chain defines one script, so 1 is a script number past it;
# the ints, bools, floats and lists also stand in for an input's [k, index]
# pair or one of its two numbers
HOSTILE_VALUES = (0, 1, -1, 2**32, 2**64, 0.0, 0.5, True, False, None, "",
                  [], [0], [0, 0], [1, 0], [0, 0, 0], {})

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
    """A small grid chain, as bytes."""
    base = tmp_path_factory.mktemp("fuzz")
    txs, _ = drive_grid([1, 0, 1], 2)
    dump_chain(txs, base / "chain.jsonl")
    return base, (base / "chain.jsonl").read_bytes()


def verify_exit(path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", "--chain", str(path)])


def render_exit(path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["render", "--chain", str(path)])


def verify_printed(path):
    """Exit status and stdout of ``verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--chain", str(path)])
    return code, out.getvalue()


def verify_both_ways(path) -> int:
    """``verify``'s exit status, once it has printed the same with the
    closure-tree oracle evaluating the scripts."""
    generated = verify_printed(path)
    with pytest.MonkeyPatch.context() as patch:
        for module in (interp, ledger):
            patch.setattr(module, "evaluate", closure_oracle.evaluate)
        assert verify_printed(path) == generated
    return generated[0]


def test_unmutated_files_are_accepted(files):
    base, chain = files
    assert b'"script":0,' in chain  # the mutations also hit script numbers
    assert b'"inputs":[[0,' in chain  # and input back-references
    assert verify_exit(base / "chain.jsonl") == 0


@FUZZ
@given(edits=_edits)
def test_verify_survives_byte_mutations(files, edits):
    base, chain = files
    path = base / "bytes.jsonl"
    path.write_bytes(mutate_bytes(chain, edits))
    assert verify_both_ways(path) in (0, 1, 2)
    assert render_exit(path) in (0, 1, 2)


@FUZZ
@given(data=st.data(), inputs_only=st.booleans())
def test_verify_survives_value_mutations(files, data, inputs_only):
    """Half the cases aim at the inputs, whose paths are few among the
    payloads' many."""
    base, chain = files
    records = [json.loads(line) for line in chain.decode().splitlines()]
    paths = list(value_paths(records))[1:]
    if inputs_only:
        paths = [p for p in paths if "inputs" in p[1:2]]
    path_to = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(HOSTILE_VALUES))
    replace_at(records, path_to, value)
    path = base / "values.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert verify_both_ways(path) in (0, 1, 2)
    assert render_exit(path) in (0, 1, 2)


def restamped(txs, tx_index, out_index, field, value):
    """The chain with one payload value replaced, and every tx id from
    there on recomputed, so that the scripts get to judge the change."""
    new_ids = {}
    out = []
    for i, tx in enumerate(txs):
        inputs = [OutputRef(new_ids.get(r.tx_id, r.tx_id), r.index) for r in tx.inputs]
        outputs = list(tx.outputs)
        if i == tx_index:
            old = outputs[out_index]
            outputs[out_index] = Output(old.script_ref, old.payload.replace(field, value))
        new = Transaction(inputs, outputs, tx.is_genesis)
        new_ids[tx.tx_id()] = new.tx_id()
        out.append(new)
    return out


_PAYLOAD_VALUES = st.one_of(
    st.booleans(), st.integers(-3, 4), st.just(2**64),
    st.lists(st.integers(0, 1), max_size=3).map(Bits))


@FUZZ
@given(data=st.data(), value=_PAYLOAD_VALUES)
def test_verify_agrees_with_oracle_on_restamped_payloads(files, data, value):
    base, _ = files
    txs = [r.tx for r in load_chain(base / "chain.jsonl")]
    i = data.draw(st.integers(0, len(txs) - 1))
    j = data.draw(st.integers(0, len(txs[i].outputs) - 1))
    field = data.draw(st.sampled_from(txs[i].outputs[j].payload.names()))
    path = base / "restamped.jsonl"
    dump_chain(restamped(txs, i, j, field, value), path)
    assert verify_both_ways(path) in (0, 1)
    assert render_exit(path) in (0, 1)


@FUZZ
@given(data=st.data(), genesis=st.sampled_from([
    genesis_grid([1, 0, 1]), genesis_layer(Bits([0, 1, 1]))]),
    value=_PAYLOAD_VALUES)
def test_render_survives_restamped_genesis_payloads(files, data, genesis, value):
    """No script checks a genesis output, so any payload value verifies
    and reaches the renderer."""
    base, _ = files
    j = data.draw(st.integers(0, len(genesis.outputs) - 1))
    field = data.draw(st.sampled_from(genesis.outputs[j].payload.names()))
    path = base / "genesis.jsonl"
    dump_chain(restamped([genesis], 0, j, field, value), path)
    assert verify_exit(path) == 0
    assert render_exit(path) in (0, 1)


@FUZZ
@given(source=st.sampled_from([LAYER_SCRIPT_SOURCE, BIT_SCRIPT_SOURCE]),
       edits=_edits)
def test_analyze_survives_script_mutations(files, source, edits):
    base, _ = files
    path = base / "mutated.script"
    path.write_bytes(mutate_bytes(source.encode(), edits))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", "--script", str(path)]) in (0, 2)
