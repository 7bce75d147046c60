import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import NON_CANONICAL_SCRIPTS, step_with_oversize_output
from utxo110 import cli, rule110
from utxo110.chainio import dump_chain, load_chain
from utxo110.cli import main
from utxo110.lang import (
    MAX_DEPTH, Bits, Index, Lit, MapIndices, Not, serialize_script,
)
from utxo110.model import Output, Payload, Transaction
from utxo110.render import pad_rows, rows_to_ascii
from utxo110.rule110 import (
    GridRow, LAYER_SCRIPT_SOURCE, BIT_SCRIPT_SOURCE, evolve_grid, genesis_layer,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
PACKAGE = Path(rule110.__file__).resolve().parent


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRun:
    def test_layer_single_step(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        code = run_cli("run", "--mode", "layer", "--initial", "0001",
                       "--steps", "1", "--chain", chain)
        assert code == 0
        out = capsys.readouterr().out
        assert "transactions: 2" in out
        records = load_chain(chain)
        assert len(records) == 2
        final = records[-1].tx.outputs[0].payload.get("layer")
        assert final == Bits.from_text("0011")

    def test_zero_steps_writes_genesis_only(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        assert run_cli("run", "--mode", "layer", "--initial", "1",
                       "--steps", "0", "--chain", chain) == 0
        assert len(load_chain(chain)) == 1

    def test_marks_accepted_in_initial(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        assert run_cli("run", "--mode", "grid", "--initial", "..#",
                       "--steps", "1", "--chain", chain) == 0

    def test_bad_initial_pattern(self, tmp_path):
        assert run_cli("run", "--mode", "layer", "--initial", "01x2",
                       "--steps", "1", "--chain", tmp_path / "c") == 2

    def test_width_over_cap(self, tmp_path):
        assert run_cli("run", "--mode", "layer", "--initial", "0" * 20,
                       "--steps", "1", "--chain", tmp_path / "c",
                       "--max-width", "8") == 2

    def test_unwritable_chain_file_is_usage_error(self, tmp_path, capsys):
        chain = tmp_path / "no" / "such" / "dir" / "c.jsonl"
        assert run_cli("run", "--mode", "grid", "--initial", "1",
                       "--steps", "1", "--chain", chain) == 2
        assert capsys.readouterr().err.startswith("error: cannot write chain:")

    def test_unwritable_render_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "--mode", "grid", "--initial", "1",
                       "--chain", tmp_path / "chain.jsonl",
                       "--render", tmp_path / "no" / "rows.txt") == 2
        assert capsys.readouterr().err.startswith("error: cannot write render:")

    @pytest.mark.parametrize("bad", ["chain", "render"])
    def test_output_paths_checked_before_any_sweep(self, tmp_path, monkeypatch,
                                                   capsys, bad):
        def sweep(*args):
            raise AssertionError("swept before checking the output paths")
        monkeypatch.setattr(cli, "sweep", sweep)
        paths = {"chain": tmp_path / "chain.jsonl", "render": tmp_path / "rows.txt"}
        paths[bad] = tmp_path / "no" / "such" / "file"
        assert run_cli("run", "--mode", "grid", "--initial", "1", "--steps", "1",
                       "--chain", paths["chain"], "--render", paths["render"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}:")
        assert list(tmp_path.iterdir()) == []  # nothing created is left behind

    def test_failed_run_leaves_output_files_as_they_were(self, tmp_path):
        chain, render = tmp_path / "chain.jsonl", tmp_path / "rows.txt"
        chain.write_text("kept\n")
        assert run_cli("run", "--mode", "layer", "--initial", "0110",
                       "--steps", "1", "--chain", chain, "--render", render,
                       "--block-budget", "5") == 1
        assert chain.read_text() == "kept\n"
        assert not render.exists()

    def test_block_budget_below_one_step_cost(self, tmp_path, capsys):
        assert run_cli("run", "--mode", "layer", "--initial", "0110",
                       "--steps", "1", "--chain", tmp_path / "c",
                       "--block-budget", "5") == 1
        assert "no transaction could be built" in capsys.readouterr().err

    def test_genesis_payload_over_limit(self, tmp_path, capsys):
        assert run_cli("run", "--mode", "layer", "--initial", "1" * 8_200,
                       "--steps", "0", "--chain", tmp_path / "c",
                       "--max-width", "8200") == 2
        assert "payload is" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command, flag", [
    ("verify", "--cost-limit"),
    ("run", "--block-budget"),
    ("run", "--cost-limit"),
    ("run", "--max-width"),
])
def test_limit_below_one_is_usage_error(tmp_path, capsys, command, flag):
    chain = tmp_path / "chain.jsonl"
    assert run_cli("run", "--mode", "layer", "--initial", "0110",
                   "--steps", "1", "--chain", chain) == 0
    capsys.readouterr()
    args = ["--chain", chain, flag, "0"]
    if command == "run":
        args = ["--mode", "layer", "--initial", "0110", "--steps", "1"] + args
    assert run_cli(command, *args) == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err


class TestVerify:
    def test_round_trip(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        assert run_cli("run", "--mode", "grid", "--initial", "101",
                       "--steps", "4", "--chain", chain) == 0
        assert run_cli("verify", "--chain", chain) == 0

    def test_flipped_payload_bit(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "0110",
                "--steps", "3", "--chain", chain)
        lines = chain.read_text().splitlines()
        obj = json.loads(lines[2])
        bits = obj["outputs"][0]["payload"]["layer"]["v"]
        obj["outputs"][0]["payload"]["layer"]["v"] = \
            bits[:1] + ("0" if bits[1] == "1" else "1") + bits[2:]
        lines[2] = json.dumps(obj)
        chain.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", "--chain", chain) == 1
        assert "transaction 2" in capsys.readouterr().out

    def test_truncated_file(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "01",
                "--steps", "1", "--chain", chain)
        text = chain.read_text()
        chain.write_text(text[:-20])
        assert run_cli("verify", "--chain", chain) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("verify", "--chain", tmp_path / "nope.jsonl") == 2

    def test_directory_is_usage_error(self, tmp_path, capsys):
        assert run_cli("verify", "--chain", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: cannot read chain:")

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        chain = tmp_path / "bad.jsonl"
        chain.write_bytes(b"\xff\n")
        assert run_cli("verify", "--chain", chain) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_repeated_first_line(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "0110",
                "--steps", "2", "--chain", chain)
        lines = chain.read_text().splitlines()
        chain.write_text("\n".join([lines[0]] + lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--chain", chain) == 1
        assert "transaction 1" in capsys.readouterr().out

    def test_oversize_genesis_output(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        blob = Output(Lit(True), Payload(blob=Bits([1] * 40_000)))
        dump_chain([Transaction(inputs=(), outputs=(blob,), is_genesis=True)], chain)
        assert run_cli("verify", "--chain", chain) == 1
        assert capsys.readouterr().out == (
            "verification failed at transaction 0: output 0 is too large: "
            "payload is 5021 bytes, limit 1024\n")

    def test_oversize_extra_output(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        genesis = genesis_layer(Bits.from_text("0011"))
        dump_chain([genesis, step_with_oversize_output(genesis)], chain)
        assert run_cli("verify", "--chain", chain) == 1
        assert "transaction 1: output 1 is too large" in capsys.readouterr().out

    @pytest.mark.parametrize("script_hex", NON_CANONICAL_SCRIPTS)
    def test_non_canonical_script_bytes(self, tmp_path, capsys, script_hex):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "01",
                "--steps", "0", "--chain", chain)
        obj = json.loads(chain.read_text())
        obj["outputs"][0]["script"] = base64.b64encode(
            bytes.fromhex(script_hex)).decode()
        chain.write_text(json.dumps(obj) + "\n")
        assert run_cli("verify", "--chain", chain) == 2
        assert "not in canonical form" in capsys.readouterr().err


class TestRender:
    def test_grid_matches_oracle_render(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        steps = 5
        run_cli("run", "--mode", "grid", "--initial", "1",
                "--steps", steps, "--chain", chain)
        capsys.readouterr()
        assert run_cli("render", "--chain", chain) == 0
        got = capsys.readouterr().out
        rows = [[1]] + [list(r.bits)
                        for r in evolve_grid(GridRow.from_bits([1]), steps)]
        want = rows_to_ascii(pad_rows(rows, 1 + steps))
        assert got == want

    def test_layer_matches_oracle_render(self, tmp_path, capsys):
        from utxo110.rule110 import evolve_cyclic
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "01101",
                "--steps", "7", "--chain", chain)
        capsys.readouterr()
        assert run_cli("render", "--chain", chain) == 0
        got = capsys.readouterr().out
        rows = [list(Bits.from_text("01101"))] \
            + [list(r) for r in evolve_cyclic(Bits.from_text("01101"), 7)]
        assert got == rows_to_ascii(pad_rows(rows, 5))

    def test_all_zero_layer_is_dot_rectangle(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "0000",
                "--steps", "3", "--chain", chain)
        capsys.readouterr()
        assert run_cli("render", "--chain", chain) == 0
        assert capsys.readouterr().out == ("....\n" * 4)

    def test_pbm_self_consistent(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        render = tmp_path / "image.pbm"
        steps = 4
        run_cli("run", "--mode", "grid", "--initial", "1",
                "--steps", steps, "--chain", chain)
        assert run_cli("render", "--chain", chain, "--render", render,
                       "--format", "pbm") == 0
        lines = render.read_text().splitlines()
        assert lines[0] == "P1"
        width, height = map(int, lines[1].split())
        assert width == 1 + steps
        assert height == steps + 1
        pixels = [line.split() for line in lines[2:]]
        assert len(pixels) == height
        assert all(len(row) == width for row in pixels)
        assert all(p in ("0", "1") for row in pixels for p in row)

    def test_invalid_chain_refused(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "layer", "--initial", "0110",
                "--steps", "2", "--chain", chain)
        lines = chain.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["txId"] = "00" * 32
        lines[1] = json.dumps(obj)
        chain.write_text("\n".join(lines) + "\n")
        assert run_cli("render", "--chain", chain) == 1

    def test_unwritable_render_file_is_usage_error(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "grid", "--initial", "1", "--chain", chain)
        capsys.readouterr()
        assert run_cli("render", "--chain", chain,
                       "--render", tmp_path / "no" / "rows.txt") == 2
        assert capsys.readouterr().err.startswith("error: cannot write render:")

    def test_run_with_render_flag(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        render = tmp_path / "rows.txt"
        assert run_cli("run", "--mode", "grid", "--initial", "1",
                       "--steps", "3", "--chain", chain,
                       "--render", render) == 0
        assert render.read_text().count("\n") == 4


class TestAnalyze:
    def test_layer_script(self, tmp_path, capsys):
        path = tmp_path / "layer.script"
        path.write_text(LAYER_SCRIPT_SOURCE)
        assert run_cli("analyze", "--script", path) == 0
        out = capsys.readouterr().out
        assert "out rules: 2" in out
        assert "lookup rules: 0" in out
        assert "generation cases: 1" in out

    def test_bit_script(self, tmp_path, capsys):
        path = tmp_path / "bit.script"
        path.write_text(BIT_SCRIPT_SOURCE)
        assert run_cli("analyze", "--script", path) == 0
        out = capsys.readouterr().out
        assert "out rules: 7" in out
        # the interior case locates two inputs by lookup
        assert "in[1] <- lookup(" in out
        assert "in[2] <- lookup(" in out

    def test_discrete_log_sample(self, capsys):
        assert run_cli("analyze", "--script", SAMPLES / "discrete_log.script") == 0
        lines = capsys.readouterr().out.splitlines()
        # the flat verdict, then the builder's, which never disagree here
        assert len(lines) == 2
        assert lines[0].startswith("not canonical: ")
        assert lines[1].startswith("not buildable: ")

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\n")
        assert run_cli("analyze", "--script", path) == 2
        assert capsys.readouterr().err.startswith("error: cannot read script:")

    def test_directory_is_usage_error(self, tmp_path, capsys):
        assert run_cli("analyze", "--script", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: cannot read script:")

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "broken.script"
        path.write_text("out[0].")
        assert run_cli("analyze", "--script", path) == 2

    def test_package_bit_script_prints_as_before(self, capsys):
        # pinned digest of the analysis: moving the source text or editing
        # its comments must not change it
        assert run_cli("analyze", "--script", PACKAGE / "grid_bit.script") == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() \
            == "5fb7f13ab6342b5073acde6bfc36ff7363b8c7203ac4421716002274993bb60c"

    def test_limit_flags_not_accepted(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--script", str(PACKAGE / "layer_step.script"),
                  "--max-width", "8"])
        assert err.value.code == 2

    @pytest.mark.parametrize("source", [
        "(" * 80 + "1 = 1" + ")" * 80,
        "!" * 5_000 + "true",
        " & ".join(["true"] * 5_000),
    ])
    def test_deep_nesting_is_usage_error(self, tmp_path, capsys, source):
        path = tmp_path / "deep.script"
        path.write_text(source)
        assert run_cli("analyze", "--script", path) == 2
        assert "nests deeper than" in capsys.readouterr().err


def _not_chain(nots: int):
    """``nots`` negations of false: true for odd counts, nots + 1 nodes deep."""
    expr = Lit(False)
    for _ in range(nots):
        expr = Not(expr)
    return expr


def _write_spend(path, script):
    """A genesis output guarded by ``script`` and one tx spending it."""
    genesis = Transaction(inputs=(), outputs=(Output(script, Payload(v=1)),),
                          is_genesis=True)
    spend = Transaction(inputs=(genesis.ref(0),),
                        outputs=(Output(script, Payload(v=2)),))
    dump_chain([genesis, spend], path)


class TestNestingLimit:
    def test_script_at_limit_verifies(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsonl"
        _write_spend(chain, _not_chain(MAX_DEPTH - 1))
        assert run_cli("verify", "--chain", chain) == 0
        assert "ok: 2 transactions" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5_000])
    def test_deeper_script_exits_two(self, tmp_path, capsys, depth):
        chain = tmp_path / "chain.jsonl"
        _write_spend(chain, _not_chain(1))
        # written by hand: the encoder itself recurses once per node
        deep = bytes([1]) + b"\x0c" * (depth - 1) + serialize_script(Lit(False))[1:]
        lines = chain.read_text().splitlines()
        record = json.loads(lines[0])
        record["outputs"][0]["script"] = base64.b64encode(deep).decode()
        lines[0] = json.dumps(record)
        chain.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", "--chain", chain) == 2
        assert "nests deeper than" in capsys.readouterr().err


class TestOversizedInts:
    """Ints past Python's 4,300-digit string limit end in a clean error."""

    @pytest.mark.parametrize("script", [
        Index(Lit(Bits([1])), Lit(10**5000)),
        MapIndices(Lit(10**5000), "i", Lit(True)),
    ], ids=["bit-index", "map-length"])
    def test_verify_reports_the_failed_script(self, tmp_path, capsys, script):
        chain = tmp_path / "chain.jsonl"
        _write_spend(chain, script)
        assert run_cli("verify", "--chain", chain) == 1
        out, err = capsys.readouterr()
        assert out.startswith(
            "verification failed at transaction 1: script of input 0 failed: ")
        assert "-bit int>" in out
        assert "Traceback" not in err

    def test_analyze_of_a_huge_literal_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "huge.script"
        path.write_text("in[0].x = 1" + "0" * 4999)
        assert run_cli("analyze", "--script", path) == 2
        assert "integer literal of 5000 digits is too long" in capsys.readouterr().err


def _balanced_and(terms):
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_balanced_and(terms[:half])} & {_balanced_and(terms[half:])})"


def _analyze_process(script, stdout):
    # stdout block-buffered, as it is by default for a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rule110.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "utxo110", "analyze", "--script", str(script)],
        stdout=stdout, stderr=subprocess.PIPE, env=env)


def _exits_one_without_traceback(proc):
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in proc.stderr.read()
    proc.stderr.close()


def test_stdout_closed_after_one_line(tmp_path):
    # about 118 KB of analysis, more than a pipe and the stdout buffer hold,
    # so the writer is still writing when the reader closes
    path = tmp_path / "wide.script"
    path.write_text(_balanced_and(
        [f"out[0].f{i} = {10**99 + i}" for i in range(1000)]))
    proc = _analyze_process(path, subprocess.PIPE)
    assert proc.stdout.readline() == b"canonical form\n"
    proc.stdout.close()
    _exits_one_without_traceback(proc)


def test_stdout_closed_before_any_output():
    # the whole analysis fits in the stdout buffer, so only the final
    # flush meets the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _analyze_process(PACKAGE / "layer_step.script", write_end)
    os.close(write_end)
    _exits_one_without_traceback(proc)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["run", "--mode", "bogus", "--initial", "1", "--chain", "x"])
    assert err.value.code == 2
