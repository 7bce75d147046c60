"""Every function defined in ``src/`` is entered by a command, or is
listed in ``NOT_ENTERED`` with the reason no command enters it.

One fresh interpreter runs the commands in-process under
``sys.setprofile``, so that no cache an earlier test filled hides a
call: ``run`` in grid and layer mode with ``--render``, ``verify`` of
both chains and of both samples, ``render`` to ASCII and PBM, and
``analyze`` of the three shipped scripts.  ``ledger._may_fork`` is off,
so every script check runs in that interpreter.  Code that only tests
call belongs in ``tests/``, as the Rule 110 oracles do.

Run as a program, this file is that interpreter: it prints the entered
functions as ``path:line`` lines.
"""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "utxo110"
SAMPLES = SRC.parent / "samples"

FAILURE = "failure path: runs only when a check, a parse or an assignment fails"
UNSHIPPED = ("a script form no shipped script holds: a bits literal, or an "
             "operand whose kind the generated code cannot tell")
FORKED = "forked path: runs only in or around the helper that _may_fork allows"
DUNDER = "dunder: Python calls it for a test, and no command asks for it"
TRACED = "tracer-bound: perfbench/tracer.py wraps it by name"

NOT_ENTERED = {
    "__init__.__dir__": DUNDER,
    "builder.CannotBuild.__str__": FAILURE,
    "builder.ConsistencyCheckFailed.__str__": FAILURE,
    "builder.LookupAmbiguous.__str__": FAILURE,
    "builder.LookupMiss.__str__": FAILURE,
    "builder.NoProgress.__str__": FAILURE,
    "builder.analyze_canonical": TRACED,
    "interp.EvalContext.__setattr__": FAILURE,
    "interp._as_bool": FAILURE,
    "interp._as_int": FAILURE,
    "interp._compare": FAILURE,
    "interp._copy_eq_operands": FAILURE,
    "interp._field": FAILURE,
    "interp._index": UNSHIPPED,
    "interp._int_text": FAILURE,
    "interp._map_length": FAILURE,
    "interp._missing_override": FAILURE,
    "interp._modulus": FAILURE,
    "interp._outputs": FAILURE,
    "interp._over": FAILURE,
    "interp._pow_domain": FAILURE,
    "interp._script_of": FAILURE,
    "interp._size": UNSHIPPED,
    "interp._unbound": FAILURE,
    "interp._values_equal": UNSHIPPED,
    "lang.Bits.__getitem__": DUNDER,
    "lang.Bits.__repr__": DUNDER,
    "lang.Bits.__setattr__": FAILURE,
    "lang.Bits.from_packed": UNSHIPPED,
    "lang.Lit.__hash__": DUNDER,
    "lang.ScriptRef.__repr__": DUNDER,
    "lang.ScriptRef.__setattr__": FAILURE,
    "lang._immutable": FAILURE,
    "lang._record_repr": DUNDER,
    "ledger.BudgetExceeded.__str__": FAILURE,
    "ledger.CostExceeded.__str__": FAILURE,
    "ledger.DuplicateInput.__str__": FAILURE,
    "ledger.FirstFailure.__str__": FAILURE,
    "ledger.Invalid.__str__": FAILURE,
    "ledger.MisplacedGenesis.__str__": FAILURE,
    "ledger.MissingInput.__str__": FAILURE,
    "ledger.OutputExists.__str__": FAILURE,
    "ledger.OversizeOutput.__str__": FAILURE,
    "ledger.ScriptError.__str__": FAILURE,
    "ledger.ScriptFalse.__str__": FAILURE,
    "ledger.TransactionRejected.__init__": FAILURE,
    "ledger.TxIdMismatch.__str__": FAILURE,
    "ledger.UtxoSet.items": TRACED,
    "ledger._Helper.__init__": FORKED,
    "ledger._Helper.close": FORKED,
    "ledger._Helper.cost": FORKED,
    "ledger._may_fork": FORKED,
    "ledger._serve": FORKED,
    "model.Output.__repr__": DUNDER,
    "model.Output.__setattr__": FAILURE,
    "model.OutputRef.__str__": FAILURE,
    "model.Payload.__hash__": DUNDER,
    "model.Payload.__repr__": DUNDER,
    "model.Payload.__setattr__": FAILURE,
    "model.Transaction.__eq__": DUNDER,
    "model.Transaction.__hash__": DUNDER,
    "model.Transaction.__repr__": DUNDER,
    "model.Transaction.__setattr__": FAILURE,
    "parser.ParseError.__init__": FAILURE,
    "parser._Parser.error": FAILURE,
    "parser._Token.__repr__": DUNDER,
}


def commands(tmp: Path) -> list:
    grid, layer = tmp / "grid.jsonl", tmp / "layer.jsonl"
    return [
        ["run", "--mode", "grid", "--initial", "1", "--steps", "3",
         "--chain", grid, "--render", tmp / "grid.txt"],
        ["run", "--mode", "layer", "--initial", "0110", "--steps", "2",
         "--chain", layer, "--render", tmp / "layer.pbm", "--format", "pbm"],
        *(["verify", "--chain", chain] for chain in (
            grid, layer, SAMPLES / "grid-1x4-hex-inputs.jsonl",
            SAMPLES / "modexp-3x256.jsonl")),
        ["render", "--chain", grid],
        ["render", "--chain", layer, "--format", "pbm"],
        *(["analyze", "--script", script] for script in (
            PACKAGE / "layer_step.script", PACKAGE / "grid_bit.script",
            SAMPLES / "discrete_log.script")),
    ]


def defined_functions() -> dict:
    """``(path, first line)`` of each ``def`` and ``lambda`` in the
    package -> its name, qualified by module, class and enclosing
    function.  A code object's first line is its first decorator's."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                lines = [child.lineno] + [d.lineno for d in
                                          getattr(child, "decorator_list", ())]
                found[(str(path), min(lines))] = name
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def entered_functions(tmp: Path) -> set:
    """Names of the package's functions that the commands enter."""
    proc = subprocess.run([sys.executable, __file__, str(tmp)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    defined = defined_functions()
    entered = set()
    for line in proc.stdout.splitlines():
        path, number = line.rsplit(":", 1)
        entered.add(defined.get((path, int(number))))
    return entered - {None}


def test_every_function_is_entered_or_listed(tmp_path):
    names = set(defined_functions().values())
    entered = entered_functions(tmp_path)
    assert sorted(names - entered - set(NOT_ENTERED)) == []
    stale = {name: why for name, why in NOT_ENTERED.items()
             if name in entered or name not in names}
    assert stale == {}


def _enter_commands(tmp: Path) -> set:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)  # before the imports, which call functions too
    try:
        from utxo110 import ledger
        from utxo110.cli import main

        ledger._may_fork = lambda: False
        for argv in commands(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
    finally:
        sys.setprofile(None)
    return {f"{Path(c.co_filename).resolve()}:{c.co_firstlineno}" for c in codes}


if __name__ == "__main__":
    print("\n".join(sorted(_enter_commands(Path(sys.argv[1])))))
