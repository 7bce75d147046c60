"""Each command loads only the modules it uses, and the package's public
names resolve on first use to the defining module's objects."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import utxo110
from utxo110.cli import main

SRC = Path(utxo110.__file__).resolve().parent.parent

VERIFY_MODULES = ["cli", "chainio", "interp", "lang", "ledger", "model"]

PRINT_LOADED = """
import sys
print(" ".join(sorted(sys.modules)))
"""


def modules_after(code: str, *flags) -> tuple:
    """What a fresh interpreter, started with ``flags``, printed running
    ``code``, and every module it holds afterwards."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", code + PRINT_LOADED],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return printed, modules.split()


def ours(modules) -> list:
    return [n for n in modules if n.split(".")[0] == "utxo110"]


def loaded_after(code: str) -> tuple:
    """What a fresh interpreter running ``code`` printed, and the
    ``utxo110`` modules it holds afterwards."""
    printed, modules = modules_after(code)
    return printed, ours(modules)


def cli_in_child(*argv) -> str:
    """Child code running ``python -m utxo110 argv`` through runpy and
    printing its exit status."""
    return f"""
import runpy, sys
sys.argv = ["utxo110", *{[str(a) for a in argv]!r}]
try:
    runpy.run_module("utxo110", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code)
"""


def package(*modules) -> list:
    return sorted(["utxo110"] + [f"utxo110.{m}" for m in modules])


def test_import_loads_no_module():
    assert loaded_after("import utxo110") == ([], ["utxo110"])


def test_verify_loads_only_what_validation_needs(tmp_path, capsys):
    chain = tmp_path / "chain.jsonl"
    assert main(["run", "--mode", "grid", "--initial", "1", "--steps", "2",
                 "--chain", str(chain)]) == 0
    capsys.readouterr()
    printed, modules = modules_after(cli_in_child("verify", "--chain", chain))
    assert printed == [
        "ok: 6 transactions, total cost 1796", "blocks: 1", "utxo size: 11",
        "utxo digest: 0ebf7485f36d9a0df03e8a4e99cce49586ddca8e6ba921c5902319957a008f9c",
        "exit 0"]
    assert ours(modules) == package(*VERIFY_MODULES)
    assert "ctypes" not in modules


def test_verify_of_wide_pow_spends_loads_the_kernel():
    # the sample's 256-bit moduli are wider than one limb, so its checks
    # take their powers through bignum
    printed, modules = loaded_after(cli_in_child(
        "verify", "--chain", SRC.parent / "samples" / "modexp-3x256.jsonl"))
    assert printed == [
        "ok: 4 transactions, total cost 798", "blocks: 1", "utxo size: 3",
        "utxo digest: 51d402ecade108bab1582643c91e0f9c8c5a6891d1ec25128d9baa39eb7a7af3",
        "exit 0"]
    assert modules == package(*VERIFY_MODULES, "bignum")


def test_run_without_render_leaves_render_unloaded(tmp_path):
    printed, modules = loaded_after(cli_in_child(
        "run", "--mode", "layer", "--initial", "0110", "--steps", "1",
        "--chain", tmp_path / "chain.jsonl"))
    assert printed[-1] == "exit 0"
    assert modules == package(*VERIFY_MODULES, "builder", "canonical",
                              "parser", "rule110")


def test_run_and_verify_load_neither_dataclasses_nor_inspect(tmp_path):
    # Both modules cost every process their import time; compared with
    # a bare interpreter, so whatever site loads does not count.
    chain = tmp_path / "chain.jsonl"
    bare = set(modules_after("pass")[1])
    for argv in (["run", "--mode", "grid", "--initial", "1", "--steps", "2",
                  "--chain", chain], ["verify", "--chain", chain]):
        printed, modules = modules_after(cli_in_child(*argv))
        assert printed[-1] == "exit 0"
        assert not {"dataclasses", "inspect"} & (set(modules) - bare)


def test_verify_and_render_load_no_process_or_thread_module(tmp_path):
    # A helper that shares the script checks needs only os.fork and a
    # pipe; these modules would cost every verify their import time.
    # The child forks one at the first check, and counts the helpers.
    chain = tmp_path / "chain.jsonl"
    assert main(["run", "--mode", "grid", "--initial", "1", "--steps", "2",
                 "--chain", str(chain)]) == 0
    bare = set(modules_after("pass")[1])
    fork_at_once = """
from utxo110 import ledger
ledger.unpriced_pow = lambda ref: True
made = []
class Counted(ledger._Helper):
    def __init__(self, *args):
        super().__init__(*args)
        made.append(self)
ledger._Helper = Counted
"""
    for argv in (["verify", "--chain", chain], ["render", "--chain", chain]):
        printed, modules = modules_after(
            fork_at_once + cli_in_child(*argv) + 'print("helpers", len(made))\n')
        assert printed[-2:] == ["exit 0", "helpers 1"]
        loaded = {name.split(".")[0] for name in set(modules) - bare}
        assert not {"multiprocessing", "concurrent", "pickle", "subprocess",
                    "threading"} & loaded


def test_run_and_verify_load_no_typing_without_site(tmp_path):
    # Under -S, site loads nothing, so whatever typing costs would be
    # paid by the package itself.
    chain = tmp_path / "chain.jsonl"
    for argv in (["run", "--mode", "grid", "--initial", "1", "--steps", "2",
                  "--chain", chain], ["verify", "--chain", chain]):
        printed, modules = modules_after(cli_in_child(*argv), "-S")
        assert printed[-1] == "exit 0"
        assert "typing" not in modules


def test_chain_writer_names_load_only_their_modules():
    assert loaded_after(
        "from utxo110 import Output, Payload, Transaction, dump_chain, parse"
    ) == ([], package("chainio", "lang", "model", "parser"))


@pytest.mark.parametrize("name", utxo110.__all__)
def test_export_is_the_defining_module_object(name):
    value = getattr(utxo110, name)
    assert value.__module__.startswith("utxo110.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from utxo110 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(utxo110.__all__)
    assert all(namespace[n] is getattr(utxo110, n) for n in utxo110.__all__)
    assert set(utxo110.__all__) <= set(dir(utxo110))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        utxo110.no_such_name
    assert not hasattr(utxo110, "no_such_name")
    with pytest.raises(ImportError):
        exec("from utxo110 import no_such_name", {})
