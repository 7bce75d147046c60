"""UTXO ledger simulator with loop-free guarding scripts.

Transactions carry data payloads guarded by small validation scripts;
chaining transactions steps a Rule 110 cellular automaton, and scripts
in canonical form can be turned back into the transactions that satisfy
them.

Each public name below is imported from its module on first use
(PEP 562), so ``import utxo110`` loads no module and
``from utxo110 import X`` loads only the modules that ``X`` needs.
"""

import importlib

_EXPORTS = {
    "builder": (
        "BuildRules", "CannotBuild", "NotBuildable", "analyze_canonical",
        "build_next", "derive_build_rules", "sweep",
    ),
    "chainio": ("ChainFormatError", "ChainRecord", "dump_chain", "load_chain"),
    "interp": (
        "CostLimitExceeded", "CostReceipt", "EvalContext", "EvalError", "evaluate",
    ),
    "lang": (
        "Bits", "ScriptRef", "deserialize_script", "script_source",
        "serialize_script",
    ),
    "ledger": (
        "ChainLog", "FirstFailure", "Invalid", "TransactionRejected", "UtxoSet",
        "Valid", "VerifyOk", "apply_transaction", "validate_transaction",
        "verify_chain",
    ),
    "model": ("ChainParams", "Output", "OutputRef", "Payload", "Transaction"),
    "parser": ("ParseError", "parse"),
    "rule110": (
        "build_bit_script", "build_layer_script", "genesis_grid", "genesis_layer",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
