import base64
import json

import pytest

from conftest import NON_CANONICAL_SCRIPTS, drive_grid, drive_layer
from utxo110 import lang
from utxo110.cli import main
from utxo110.chainio import (
    ChainFormatError, dump_chain, load_chain, value_from_json, value_to_json,
)
from utxo110.lang import Bits, ScriptRef, script_source, serialize_script
from utxo110.ledger import VerifyOk, verify_chain
from utxo110.model import transaction_bytes
from utxo110.parser import parse
from utxo110.rule110 import build_bit_script


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
        assert value_to_json(True)["t"] == "bool"
        assert value_to_json(1)["t"] == "int"

    def test_malformed(self):
        with pytest.raises(ChainFormatError):
            value_from_json({"t": "int", "v": "12"})
        with pytest.raises(ChainFormatError):
            value_from_json({"v": 1})


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
        txs, _ = drive_grid([1, 0, 1], 3, params)
        dump_chain(txs, tmp_path / "chain.jsonl")
        lines = (tmp_path / "chain.jsonl").read_text().splitlines()
        records = [out for line in lines for out in json.loads(line)["outputs"]]
        assert len(records) > len(txs)
        assert all(list(out) == ["script", "payload"] for out in records)

    def test_chain_with_script_text_loads_and_verifies(self, tmp_path, params):
        """Files written with the old informative ``scriptText`` key still
        load to the same tx ids and verify to the same total cost."""
        txs, _ = drive_grid([0, 1, 1], 4, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        old_lines = []
        for tx, line in zip(txs, path.read_text().splitlines()):
            obj = json.loads(line)
            obj["outputs"] = [{"script": rec["script"],
                               "scriptText": script_source(out.script),
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
        obj["outputs"][0]["script"] = 5
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
        txs, _ = drive_layer(Bits.from_text("01"), 1, params)
        path = tmp_path / "chain.jsonl"
        dump_chain(txs, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["inputs"][0]["index"] = index
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        if ok:
            (_, record) = load_chain(path)
            assert record.tx.inputs[0].index == index
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
