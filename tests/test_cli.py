import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    NON_CANONICAL_SCRIPTS, OVERSIZED_LETS, step_with_oversize_output,
)
from rule110_oracle import GridRow, evolve_cyclic, evolve_grid
from utxo110 import builder, rule110
from utxo110.chainio import dump_chain, load_chain
from utxo110.cli import main
from utxo110.lang import (
    MAX_DEPTH, Bits, Index, Lit, MapIndices, Not, serialize_script,
)
from utxo110.model import Output, Payload, Transaction
from utxo110.render import pad_rows, rows_to_ascii
from utxo110.rule110 import LAYER_SCRIPT_SOURCE, BIT_SCRIPT_SOURCE, genesis_layer

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
PACKAGE = Path(rule110.__file__).resolve().parent


def run_cli(*argv):
    return main([str(a) for a in argv])


def _same_file_as(path, how):
    """A second name for ``path``: the path itself, a symlink or a hard link."""
    if how == "same":
        return path
    link = path.with_name("link")
    if how == "symlink":
        link.symlink_to(path)
    else:
        os.link(path, link)
    return link


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
        monkeypatch.setattr(builder, "sweep", sweep)
        paths = {"chain": tmp_path / "chain.jsonl", "render": tmp_path / "rows.txt"}
        paths[bad] = tmp_path / "no" / "such" / "file"
        assert run_cli("run", "--mode", "grid", "--initial", "1", "--steps", "1",
                       "--chain", paths["chain"], "--render", paths["render"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}:")
        assert list(tmp_path.iterdir()) == []  # nothing created is left behind

    @pytest.mark.parametrize("how", ["same", "symlink", "hardlink"])
    def test_render_naming_the_chain_file_is_refused(self, tmp_path, capsys, how):
        chain = tmp_path / "chain.jsonl"
        chain.write_bytes(b"kept\n")
        render = _same_file_as(chain, how)
        before = sorted(tmp_path.iterdir())
        assert run_cli("run", "--mode", "grid", "--initial", "1", "--steps", "2",
                       "--chain", chain, "--render", render) == 2
        assert capsys.readouterr() == ("", "error: --render names the --chain file\n")
        assert chain.read_bytes() == b"kept\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("how", ["same", "symlink"])
    def test_render_naming_a_new_chain_file_creates_nothing(self, tmp_path, how):
        chain = tmp_path / "chain.jsonl"
        render = _same_file_as(chain, how)  # a dangling symlink for "symlink"
        assert run_cli("run", "--mode", "grid", "--initial", "1", "--steps", "2",
                       "--chain", chain, "--render", render) == 2
        assert not os.path.lexists(chain)

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

    @pytest.mark.parametrize("payloads, field", [
        ([dict(val=True, x=0, n=Bits([1]), mid=True)], "'n' is not an int"),
        ([dict(val=True, x=0, n=0, mid=True),
          dict(val=True, x=0, n=Bits([1]), mid=True)], "'n' is not an int"),
        ([dict(layer=5)], "'layer' is not bits"),
    ], ids=["bits-n", "int-and-bits-n", "int-layer"])
    def test_mistyped_payload_is_a_domain_error(self, tmp_path, capsys,
                                                payloads, field):
        chain = tmp_path / "chain.jsonl"
        outputs = tuple(Output(Lit(True), Payload(**p)) for p in payloads)
        dump_chain([Transaction((), outputs, is_genesis=True)], chain)
        assert run_cli("verify", "--chain", chain) == 0
        capsys.readouterr()
        assert run_cli("render", "--chain", chain) == 1
        out, err = capsys.readouterr()
        assert (out, err.startswith("error: "), field in err) == ("", True, True)

    @pytest.mark.parametrize("how", ["same", "symlink", "hardlink"])
    def test_render_naming_the_chain_file_is_refused(self, tmp_path, capsys, how):
        chain = tmp_path / "chain.jsonl"
        run_cli("run", "--mode", "grid", "--initial", "1", "--steps", "2",
                "--chain", chain)
        capsys.readouterr()
        before = chain.read_bytes()
        render = _same_file_as(chain, how)
        assert run_cli("render", "--chain", chain, "--render", render) == 2
        assert capsys.readouterr() == ("", "error: --render names the --chain file\n")
        assert chain.read_bytes() == before

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
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["generation cases: 1", "case 1: 1 input(s), 1 output(s)"]
        # the rules that compute out[0], its script last
        assert [line.split(" <- ")[0] for line in lines[2:]] \
            == ["  out[0].layer", "  out[0].script"]
        assert lines[-1] == "  out[0].script <- self.script"

    def test_bit_script(self, tmp_path, capsys):
        path = tmp_path / "bit.script"
        path.write_text(BIT_SCRIPT_SOURCE)
        assert run_cli("analyze", "--script", path) == 0
        out = capsys.readouterr().out
        assert out.startswith("generation cases: 6\ncase 1: 3 input(s), 3 output(s)\n")
        # the interior case locates two inputs by lookup
        assert "in[1] <- lookup(" in out
        assert "in[2] <- lookup(" in out
        # each case computes out[0] field by field and copies it twice
        assert out.count("  out[0].script <- in[0].script\n") == 6
        assert out.count("  out[1] <- copy(out[0], mid <- true)\n") == 6
        assert out.count("  out[2] <- copy(out[0], mid <- false)\n") == 6
        assert "  out[0].val <- in[0].val & in[1].val & in[2].val ^ " in out

    def test_discrete_log_sample(self, capsys):
        assert run_cli("analyze", "--script", SAMPLES / "discrete_log.script") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("not buildable: ")

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
            == "87659ecff69fe832eddac6c3c09ecbadaf0a2821181216e4f0e793ed885594d1"
        # the case lines alone, without the output-rule lines
        cases = "".join(line for line in out.splitlines(keepends=True)
                        if not line.startswith("  out["))
        assert hashlib.sha256(cases.encode()).hexdigest() \
            == "5514d287a9e470fbce79b1d0363204d4461ef0faae736f5a65d84ec952086085"

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
    # about 122 KB of analysis, more than a pipe and the stdout buffer hold,
    # so the writer is still writing when the reader closes
    path = tmp_path / "wide.script"
    path.write_text(_balanced_and(
        ["out[0].script = in[0].script"]
        + [f"in[0].f{i} = {10**99 + i}" for i in range(1000)]))
    proc = _analyze_process(path, subprocess.PIPE)
    assert proc.stdout.readline() == b"generation cases: 1\n"
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


@pytest.mark.parametrize("name", sorted(OVERSIZED_LETS))
def test_analyze_refuses_lets_that_inline_too_large(tmp_path, name):
    path = tmp_path / "lets.script"
    path.write_text(OVERSIZED_LETS[name])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "utxo110", "analyze", "--script", str(path)],
        capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["not buildable"]
    assert all("with its lets inlined the script" in line for line in lines)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["run", "--mode", "bogus", "--initial", "1", "--chain", "x"])
    assert err.value.code == 2
