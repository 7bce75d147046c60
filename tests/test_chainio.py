import base64
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import NON_CANONICAL_SCRIPTS, drive_grid, drive_layer
from test_fuzz import verify_printed
from utxo110 import lang
from utxo110.cli import main
from utxo110.chainio import (
    ChainFormatError, dump_chain, load_chain, value_from_json, value_to_json,
)
from utxo110.lang import Bits, ScriptRef, script_source, serialize_script
from utxo110.ledger import VerifyOk, verify_chain
from utxo110.model import Output, Payload, Transaction, transaction_bytes
from utxo110.parser import parse
from utxo110.rule110 import build_bit_script


# a bool or an int is written untagged; these are neither, or carry a
# tag that does not fit their value
MALFORMED_VALUES = [
    {"v": "12"}, {"v": 1.0}, {"v": None}, {"v": [1]}, {"v": {}}, {"v": "01"}, {},
    {"t": "int", "v": "12"}, {"t": "bool", "v": 1}, {"t": "int", "v": True},
    {"t": "bits"}, {"t": "float", "v": 1},
]


class TestValues:
    @pytest.mark.parametrize("value", [
        True, False, 0, -12, 2 ** 80, Bits.from_text("01101"), Bits(),
        ScriptRef(parse("1 = 1")),
    ])
    def test_round_trip(self, value):
        again = value_from_json(json.loads(json.dumps(value_to_json(value))))
        assert type(again) is type(value)
        assert again == value

    def test_bool_int_tags_differ(self):
        # JSON's own literals tell the kinds apart, so neither carries a tag
        assert json.dumps(value_to_json(True)) == '{"v": true}'
        assert json.dumps(value_to_json(1)) == '{"v": 1}'
        assert type(value_from_json({"v": True})) is bool
        assert type(value_from_json({"v": 1})) is int

    @pytest.mark.parametrize("obj, value", [
        ({"t": "bool", "v": True}, True), ({"t": "int", "v": 1}, 1),
        ({"t": "int", "v": -7}, -7), ({"t": "bits", "v": "01"}, Bits([0, 1])),
    ])
    def test_tagged_values_of_earlier_files(self, obj, value):
        again = value_from_json(obj)
        assert type(again) is type(value) and again == value

    def test_malformed(self):
        for obj in MALFORMED_VALUES + [[], None, 1, "v"]:
            with pytest.raises(ChainFormatError):
                value_from_json(obj)

    @pytest.mark.parametrize("obj", MALFORMED_VALUES)
    def test_malformed_value_is_a_parse_error(self, tmp_path, params, capsys, obj):
        txs, _ = drive_layer(Bits.from_text("01"), 0, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        record = json.loads(path.read_text())
        record["outputs"][0]["payload"]["layer"] = obj
        path.write_text(json.dumps(record) + "\n")
        assert main(["verify", "--chain", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse chain: line 1: ")
        assert "Traceback" not in err


class TestChainFiles:
    def test_round_trip_bit_exact(self, tmp_path, params):
        txs, _ = drive_layer(Bits.from_text("0110"), 4, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        records = load_chain(path)
        assert len(records) == len(txs)
        for rec, tx in zip(records, txs):
            assert transaction_bytes(rec.tx) == transaction_bytes(tx)
            assert rec.stored_id == tx.tx_id()
            for a, b in zip(rec.tx.outputs, tx.outputs):
                assert a.script_bytes == b.script_bytes

    def test_grid_round_trip(self, tmp_path, params):
        txs, _ = drive_grid([1, 0], 4, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        records = load_chain(path)
        assert [transaction_bytes(r.tx) for r in records] \
            == [transaction_bytes(t) for t in txs]

    def test_script_text_is_informative_only(self, tmp_path, params):
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["outputs"][0]["scriptText"] = "mangled beyond repair ("
        lines[0] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        records = load_chain(path)
        assert records[0].stored_id == records[0].tx.tx_id()

    def test_output_records_hold_only_script_and_payload(self, tmp_path, params):
        """A grid chain's outputs all carry one script, which only the
        first output states."""
        txs, _ = drive_grid([1, 0, 1], 3, params)
        dump_chain(txs, tmp_path / "chain.jsonl")
        lines = (tmp_path / "chain.jsonl").read_text().splitlines()
        records = [out for line in lines for out in json.loads(line)["outputs"]]
        assert len(records) > len(txs)
        assert [list(out) for out in records] \
            == [["script", "payload"]] + [["payload"]] * (len(records) - 1)

    def test_chain_with_script_text_loads_and_verifies(self, tmp_path, params):
        """Files written with the old informative ``scriptText`` key still
        load to the same tx ids and verify to the same total cost."""
        txs, _ = drive_grid([0, 1, 1], 4, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        old_lines = []
        for tx, line in zip(txs, path.read_text().splitlines()):
            obj = json.loads(line)
            obj["outputs"] = [{"script": base64.b64encode(out.script_bytes).decode(),
                               "scriptText": script_source(out.script_ref.expr),
                               "payload": rec["payload"]}
                              for out, rec in zip(tx.outputs, obj["outputs"])]
            old_lines.append(json.dumps(obj, separators=(",", ":")))
        path.write_text("\n".join(old_lines) + "\n")
        records = load_chain(path)
        assert [r.stored_id for r in records] == [t.tx_id() for t in txs]
        assert [r.tx.tx_id() for r in records] == [t.tx_id() for t in txs]
        again = verify_chain([r.tx for r in records], params,
                             stored_ids=[r.stored_id for r in records])
        expected = verify_chain(txs, params)
        assert isinstance(again, VerifyOk)
        assert again.total_cost == expected.total_cost > 0

    def test_truncated_line(self, tmp_path, params):
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ChainFormatError):
            load_chain(path)

    @pytest.mark.parametrize("name", ["x\n", "x\r", "1x", "x-y", ""])
    def test_field_name_no_script_can_read(self, tmp_path, params, name, capsys):
        txs, _ = drive_layer(Bits.from_text("01"), 0, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        obj = json.loads(path.read_text())
        obj["outputs"][0]["payload"][name] = {"t": "int", "v": 1}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ChainFormatError, match="invalid payload field name"):
            load_chain(path)
        assert main(["verify", "--chain", str(path)]) == 2
        assert "invalid payload field name" in capsys.readouterr().err

    def test_bad_script_bytes(self, tmp_path, params):
        txs, _ = drive_layer(Bits.from_text("01"), 0, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        obj = json.loads(path.read_text())
        obj["outputs"][0]["script"] = base64.b64encode(b"\x09garbage").decode()
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ChainFormatError):
            load_chain(path)

    def test_script_that_is_not_a_string(self, tmp_path, params):
        txs, _ = drive_layer(Bits.from_text("01"), 0, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        obj = json.loads(path.read_text())
        obj["outputs"][0]["script"] = {"t": "script", "v": obj["outputs"][0]["script"]}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ChainFormatError, match="base64 string"):
            load_chain(path)

    @pytest.mark.parametrize("script_hex", NON_CANONICAL_SCRIPTS)
    def test_non_canonical_script_bytes(self, tmp_path, params, script_hex):
        txs, _ = drive_layer(Bits.from_text("01"), 0, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        obj = json.loads(path.read_text())
        obj["outputs"][0]["script"] = base64.b64encode(
            bytes.fromhex(script_hex)).decode()
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ChainFormatError, match="canonical"):
            load_chain(path)

    @pytest.mark.parametrize("index, ok", [
        (2**32 - 1, True), (2**32, False), (2**64, False), (-1, False),
    ])
    def test_input_index_is_a_u32(self, tmp_path, params, index, ok):
        """In both input forms: a back-reference and a spelled-out id."""
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        assert obj["inputs"] == [[0, 0]]
        for entry in ([0, index], {"txId": txs[0].tx_id().hex(), "index": index}):
            obj["inputs"] = [entry]
            lines[1] = json.dumps(obj)
            path.write_text("\n".join(lines) + "\n")
            if ok:
                (_, record) = load_chain(path)
                assert record.tx.inputs[0] == txs[0].ref(index)
                assert record.tx.tx_id() != record.stored_id  # the u32 maximum hashes
            else:
                with pytest.raises(ChainFormatError, match="line 2: bad input index"):
                    load_chain(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        path.write_bytes(b"\xff\n")
        with pytest.raises(ChainFormatError, match="not UTF-8"):
            load_chain(path)

    @pytest.mark.parametrize("line", [
        '{"index": ' + "9" * 5_000 + "}",  # past int()'s 4,300-digit limit
        "[" * 100_000,  # past the JSON decoder's recursion limit
    ], ids=["long-int", "deep-array"])
    def test_json_past_decoder_limits(self, tmp_path, line):
        path = tmp_path / "chain.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ChainFormatError, match="line 1"):
            load_chain(path)

    def test_load_decodes_a_shared_script_once(self, tmp_path, params, monkeypatch):
        txs, _ = drive_grid([1], 6, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        monkeypatch.setattr(lang, "_INTERNED", {})  # as in a fresh process
        decoded = []
        decode = lang.deserialize_script
        monkeypatch.setattr(lang, "deserialize_script",
                            lambda data, depth=0: decoded.append(data)
                            or decode(data, depth))
        records = load_chain(path)
        bit = serialize_script(build_bit_script())
        assert decoded == [bit]
        outputs = [out for r in records for out in r.tx.outputs]
        assert len(outputs) > 6
        assert all(out.script_ref is outputs[0].script_ref for out in outputs)


def _inline_scripts(lines):
    """The chain lines with every output's script written in full, as
    files were written before scripts were numbered or left out."""
    defined = []
    last = None
    out = []
    for line in lines:
        obj = json.loads(line)
        for rec in obj["outputs"]:
            script = rec.get("script", last)
            if isinstance(script, int):
                script = defined[script]
            elif script not in defined:
                defined.append(script)
            rec["script"] = last = script
        out.append(json.dumps(obj, separators=(",", ":")))
    return out


def _printed(command, path, capsys):
    code = main([command, "--chain", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScriptNumbers:
    """Each distinct output script is written once; where a later output's
    script differs from the output's before it, the output holds its
    number in the order in which the file first defines it."""

    def test_grid_chain_states_its_one_script_once(self, tmp_path, params):
        txs, _ = drive_grid([1, 0, 1], 3, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        scripts = [out.get("script") for line in path.read_text().splitlines()
                   for out in json.loads(line)["outputs"]]
        assert scripts[0] == base64.b64encode(
            serialize_script(build_bit_script())).decode()
        assert scripts[1:] == [None] * (len(scripts) - 1)

    def test_distinct_scripts_are_all_written_in_full(self, tmp_path):
        genesis = Transaction(
            inputs=(), is_genesis=True,
            outputs=[Output(parse(f"self.b = {i}"), Payload(b=i)) for i in range(3)])
        spends = [Transaction(inputs=[genesis.ref(i)],
                              outputs=[Output(parse(f"{100 + i} = {100 + i}"),
                                              Payload(r=i))])
                  for i in range(3)]
        path = tmp_path / "chain.jsonl"
        dump_chain([genesis] + spends, path)
        scripts = [out["script"] for line in path.read_text().splitlines()
                   for out in json.loads(line)["outputs"]]
        assert len(scripts) == 6
        assert all(isinstance(s, str) for s in scripts)

    def test_inline_scripts_load_to_the_same_chain(self, tmp_path, params, capsys):
        txs, _ = drive_grid([0, 1, 1], 4, params)
        compact = tmp_path / "compact.jsonl"
        dump_chain(txs, compact)
        lines = compact.read_text().splitlines()
        inline = tmp_path / "inline.jsonl"
        inline.write_text("\n".join(_inline_scripts(lines)) + "\n")
        outputs = sum(len(tx.outputs) for tx in txs)
        assert compact.read_text().count('"script"') == 1
        assert inline.read_text().count('"script":"') == outputs
        assert inline.stat().st_size > 5 * compact.stat().st_size
        records = load_chain(compact)
        assert load_chain(inline) == records
        assert [r.stored_id for r in records] == [t.tx_id() for t in txs]
        ok = _printed("verify", compact, capsys)
        assert ok[0] == 0 and ok[1].startswith("ok: ")
        assert _printed("verify", inline, capsys) == ok

    def test_inline_repeat_takes_no_number(self, tmp_path):
        """The third script keeps number 2 after the first script is
        written in full a second time."""
        a, b, c = parse("1 = 1"), parse("2 = 2"), parse("3 = 3")
        genesis = Transaction(inputs=(), is_genesis=True, outputs=[
            Output(s, Payload(v=i)) for i, s in enumerate([a, b, a, c, b, c])])
        path = tmp_path / "chain.jsonl"
        dump_chain([genesis], path)
        obj = json.loads(path.read_text())
        scripts = [out["script"] for out in obj["outputs"]]
        assert [type(s) for s in scripts] == [str, str, int, str, int, int]
        assert (scripts[2], scripts[4:]) == (0, [1, 2])
        obj["outputs"][2]["script"] = obj["outputs"][0]["script"]
        path.write_text(json.dumps(obj) + "\n")
        (record,) = load_chain(path)
        assert record.tx == genesis

    @pytest.mark.parametrize("line, number", [
        (2, -1), (2, True), (2, False), (2, 2**64), (2, 0.0), (2, 1), (1, 0),
    ], ids=["negative", "true", "false", "2^64", "float", "next-number", "before-any"])
    def test_bad_script_number(self, tmp_path, params, capsys, line, number):
        txs, _ = drive_grid([1], 2, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[line - 1])
        obj["outputs"][0]["script"] = number
        lines[line - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChainFormatError, match=f"line {line}: script"):
            load_chain(path)
        code, out, err = _printed("verify", path, capsys)
        assert (code, out) == (2, "")
        assert f"line {line}: script" in err and "Traceback" not in err


# three scripts that any spend satisfies
_POOL = tuple(ScriptRef(parse(f"{i} = {i}")) for i in range(3))


def _pool_chain(lines):
    """A chain with one line per list in ``lines``, whose outputs carry
    the pool scripts it names: a genesis, then a spend of output 0 of
    the line before on each later line."""
    txs = []
    for k, picks in enumerate(lines):
        outputs = [Output(_POOL[p], Payload(v=10 * k + j)) for j, p in enumerate(picks)]
        inputs = [txs[-1].ref(0)] if txs else ()
        txs.append(Transaction(inputs=inputs, outputs=outputs, is_genesis=not txs))
    return txs


class TestOmittedScripts:
    """An output whose script is the one of the output written just before
    it, on its line or the line before, has no ``"script"`` key."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                    min_size=1, max_size=5))
    # adjacent and non-adjacent repeats, changes and a repeat across lines
    @example([[0, 0, 1], [1, 2], [0], [0, 2]])
    def test_round_trip_states_each_change(self, lines):
        txs = _pool_chain(lines)
        picks = [p for line in lines for p in line]
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp, "chain.jsonl"), Path(tmp, "again.jsonl")
            dump_chain(txs, path)
            records = load_chain(path)
            assert [r.tx for r in records] == txs
            assert [r.stored_id for r in records] == [t.tx_id() for t in txs]
            dump_chain([r.tx for r in records], again)
            assert again.read_bytes() == path.read_bytes()

            # where the script changes: its bytes first, its number after
            objs = [json.loads(line) for line in path.read_text().splitlines()]
            stated = [out.get("script") for obj in objs for out in obj["outputs"]]
            first = list(dict.fromkeys(picks))
            expected = [None if i and p == picks[i - 1] else
                        first.index(p) if p in picks[:i] else
                        base64.b64encode(_POOL[p].canonical).decode()
                        for i, p in enumerate(picks)]
            assert stated == expected
            assert verify_printed(path)[0] == 0

            # a first output that states no script
            first_line = dict(objs[0], outputs=[
                {"payload": objs[0]["outputs"][0]["payload"]}, *objs[0]["outputs"][1:]])
            _write_lines(path, [json.dumps(o) for o in [first_line, *objs[1:]]])
            with pytest.raises(ChainFormatError, match="^line 1: the first output"):
                load_chain(path)
            assert verify_printed(path) == (2, "")

            # a change of script left unstated: the output takes the one
            # before it, so the line's stored id no longer matches; unless
            # the record defined the script that a later number names
            where = [(k, j) for k, obj in enumerate(objs)
                     for j in range(len(obj["outputs"]))]
            for i in range(1, len(picks)):
                if stated[i] is None:
                    continue
                k, j = where[i]
                edited = json.loads(json.dumps(objs))
                del edited[k]["outputs"][j]["script"]
                _write_lines(path, [json.dumps(o) for o in edited])
                code, out = verify_printed(path)
                if code == 2 and isinstance(stated[i], str):
                    continue
                assert code == 1
                assert out.startswith(f"verification failed at transaction {k}: "
                                      f"stored id {txs[k].tx_id().hex()[:16]}... "
                                      f"does not match")


def _expand_back_refs(lines):
    """The chain lines with every ``[k, index]`` input spelled out as a
    ``{"txId", "index"}`` object naming the id stored on line ``k``, as
    files were written before inputs were back-references."""
    objs = [json.loads(line) for line in lines]
    for obj in objs:
        obj["inputs"] = [{"txId": objs[e[0]]["txId"], "index": e[1]}
                         if isinstance(e, list) else e for e in obj["inputs"]]
    return [json.dumps(obj, separators=(",", ":")) for obj in objs]


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestInputBackRefs:
    """An input spending an earlier transaction of the same file is
    written ``[k, index]``, with ``k`` that transaction's position."""

    @pytest.mark.parametrize("mode", ["grid", "layer"])
    def test_spelled_out_inputs_load_to_the_same_chain(self, tmp_path, params,
                                                       capsys, mode):
        if mode == "grid":
            txs, _ = drive_grid([0, 1, 1], 4, params)
        else:
            txs, _ = drive_layer(Bits.from_text("0110"), 4, params)
        refs = tmp_path / "refs.jsonl"
        dump_chain(txs, refs)
        lines = refs.read_text().splitlines()
        for tx, line in zip(txs, lines):
            entries = json.loads(line)["inputs"]
            assert [txs[k].ref(i) for k, i in entries] == list(tx.inputs)
        objects = tmp_path / "objects.jsonl"
        _write_lines(objects, _expand_back_refs(lines))
        assert "[[" not in objects.read_text()
        assert objects.stat().st_size > refs.stat().st_size
        records = load_chain(refs)
        assert load_chain(objects) == records
        assert [r.stored_id for r in records] == [t.tx_id() for t in txs]
        assert [r.tx.tx_id() for r in records] == [t.tx_id() for t in txs]
        for command in ("verify", "render"):
            printed = _printed(command, refs, capsys)
            assert printed[0] == 0 and printed[1]
            assert _printed(command, objects, capsys) == printed

    def test_inputs_outside_the_file_keep_the_object_form(self, tmp_path, params):
        txs, _ = drive_grid([1, 0, 1], 2, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs[1:], path)  # without the genesis they spend
        entries = [e for line in path.read_text().splitlines()
                   for e in json.loads(line)["inputs"]]
        outside = [e for e in entries if isinstance(e, dict)]
        assert outside and len(outside) < len(entries)
        assert {e["txId"] for e in outside} == {txs[0].tx_id().hex()}
        records = load_chain(path)
        assert [r.tx for r in records] == txs[1:]
        assert [r.stored_id for r in records] == [t.tx_id() for t in txs[1:]]

    def test_every_prefix_is_a_chain(self, tmp_path, params, capsys):
        txs, _ = drive_grid([1], 3, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        for n in range(1, len(lines) + 1):
            _write_lines(path, lines[:n])
            code, out, _ = _printed("verify", path, capsys)
            assert code == 0 and out.startswith(f"ok: {n} transactions, ")

    @pytest.mark.parametrize("entry", [
        [True, 0], [0, True], [False, 0], [0.0, 0], [0, 0.0], [0], [], [0, 0, 0],
        [-1, 0], "self", "forward", [2**64, 0], [0, -1], [0, 2**32], [0, 2**64],
    ], ids=lambda e: json.dumps(e))
    def test_bad_back_reference(self, tmp_path, params, capsys, entry):
        txs, _ = drive_grid([1], 2, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        line = len(lines)
        if entry in ("self", "forward"):
            entry = [line - 1 if entry == "self" else line, 0]
        obj = json.loads(lines[-1])
        obj["inputs"][0] = entry
        lines[-1] = json.dumps(obj)
        _write_lines(path, lines)
        with pytest.raises(ChainFormatError, match=f"line {line}: "):
            load_chain(path)
        code, out, err = _printed("verify", path, capsys)
        assert (code, out) == (2, "")
        assert f"cannot parse chain: line {line}: " in err
        assert "Traceback" not in err

    def test_index_past_the_outputs_is_a_missing_input(self, tmp_path, params, capsys):
        """Not a format error: the ledger reports it, as for an object."""
        txs, _ = drive_grid([1, 0, 1], 2, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        j = len(lines) - 1
        obj = json.loads(lines[j])
        k = obj["inputs"][0][0]
        printed = []
        for entry in ([k, 99], {"txId": txs[k].tx_id().hex(), "index": 99}):
            obj["inputs"][0] = entry
            lines[j] = json.dumps(obj)
            _write_lines(path, lines)
            obj["txId"] = load_chain(path)[j].tx.tx_id().hex()  # so the ledger judges it
            lines[j] = json.dumps(obj)
            _write_lines(path, lines)
            printed.append(_printed("verify", path, capsys))
        assert printed[0] == printed[1] == (
            1, f"verification failed at transaction {j}: "
               f"missing input {txs[k].ref(99)}\n", "")

    @pytest.mark.parametrize("tamper", ["payload", "txId"])
    def test_tampered_spent_line_fails_at_its_position(self, tmp_path, params,
                                                       capsys, tamper):
        """A grid twin of the benchmark's layer negative control: whether a
        later line names line k by position or by id, an edit to line k
        is reported at transaction k, with the same line.  A position
        resolves to the id computed for line k, so an edited stored id
        changes no transaction."""
        txs, _ = drive_grid([1, 0, 1], 3, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        spent = sorted({e[0] for line in lines for e in json.loads(line)["inputs"]})
        assert len(spent) > 3
        for k in spent:
            printed, loaded = [], []
            for form in (lines, _expand_back_refs(lines)):
                obj = json.loads(form[k])
                if tamper == "payload":
                    value = obj["outputs"][0]["payload"]["val"]
                    value["v"] = not value["v"]
                else:
                    obj["txId"] = "%x" % (int(obj["txId"][0], 16) ^ 1) + obj["txId"][1:]
                _write_lines(path, form[:k] + [json.dumps(obj)] + form[k + 1:])
                printed.append(_printed("verify", path, capsys))
                loaded.append([r.tx for r in load_chain(path)])
            assert printed[0] == printed[1]
            if tamper == "txId":
                assert loaded[0] == loaded[1] == txs
            assert printed[0][0] == 1
            assert printed[0][1].startswith(f"verification failed at transaction {k}: ")


def _tagged_form(lines):
    """The chain lines as files were written before booleans and integers
    lost their kind tags: every value tagged, every line with its
    ``isGenesis`` key."""
    out = []
    for line in lines:
        obj = json.loads(line)
        tagged = {"txId": obj.pop("txId"), "isGenesis": obj["inputs"] == [], **obj}
        for rec in tagged["outputs"]:
            for value in rec["payload"].values():
                if "t" not in value:
                    value["t"] = "bool" if isinstance(value["v"], bool) else "int"
        out.append(json.dumps(tagged, separators=(",", ":")))
    return out


class TestUntaggedValues:
    """Booleans and integers are written as bare JSON literals, and no
    line states ``isGenesis``: a transaction is genesis when it has no
    inputs.  Files that state both still load."""

    def test_new_files_hold_no_kind_tag_but_bits(self, tmp_path, params):
        for txs in (drive_grid([1, 0], 2, params)[0],
                    drive_layer(Bits.from_text("0110"), 2, params)[0]):
            dump_chain(txs, tmp_path / "chain.jsonl")
            text = (tmp_path / "chain.jsonl").read_text()
            assert "isGenesis" not in text
            assert '"t":"bool"' not in text and '"t":"int"' not in text
        assert '"layer":{"t":"bits","v":"' in text

    @pytest.mark.parametrize("mode", ["grid", "layer"])
    def test_tagged_form_loads_to_the_same_chain(self, tmp_path, params, capsys, mode):
        if mode == "grid":
            txs, _ = drive_grid([0, 1, 1], 3, params)
        else:
            txs, _ = drive_layer(Bits.from_text("01101"), 3, params)
        new = tmp_path / "new.jsonl"
        dump_chain(txs, new)
        old = tmp_path / "old.jsonl"
        _write_lines(old, _tagged_form(new.read_text().splitlines()))
        assert old.stat().st_size > new.stat().st_size
        records = load_chain(old)
        assert records == load_chain(new)
        assert [r.stored_id for r in records] == [t.tx_id() for t in txs]
        printed = _printed("verify", new, capsys)
        assert printed[0] == 0 and "utxo digest: " in printed[1]
        assert _printed("verify", old, capsys) == printed

    @pytest.mark.parametrize("line, value", [
        (1, 1), (1, "true"), (1, None), (2, 0), (2, [])], ids=str)
    def test_stated_genesis_that_is_not_a_bool(self, tmp_path, params, capsys,
                                               line, value):
        self._check_stated_genesis(tmp_path, params, capsys, line, value,
                                   "malformed transaction record")

    @pytest.mark.parametrize("line, value, reason", [
        (1, False, "non-genesis transaction needs at least one input"),
        (2, True, "genesis transaction cannot have inputs"),
    ])
    def test_stated_genesis_that_contradicts_the_inputs(self, tmp_path, params,
                                                        capsys, line, value, reason):
        self._check_stated_genesis(tmp_path, params, capsys, line, value, reason)

    @staticmethod
    def _check_stated_genesis(tmp_path, params, capsys, line, value, reason):
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[line - 1])
        obj["isGenesis"] = value
        lines[line - 1] = json.dumps(obj)
        _write_lines(path, lines)
        code, out, err = _printed("verify", path, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse chain: line {line}: {reason}\n"
