"""UTXO ledger simulator with loop-free guarding scripts.

Transactions carry data payloads guarded by small validation scripts;
chaining transactions steps a Rule 110 cellular automaton, and scripts
in canonical form can be turned back into the transactions that satisfy
them.
"""

from .builder import (
    BuildRules, CannotBuild, NotBuildable, build_next, derive_build_rules,
    sweep,
)
from .canonical import (
    CanonicalForm, CopyRule, FieldRule, LookupRule, NotCanonical,
    analyze_canonical, rules_to_expr,
)
from .chainio import ChainFormatError, ChainRecord, dump_chain, load_chain
from .interp import (
    CostLimitExceeded, CostReceipt, EvalContext, EvalError, evaluate,
)
from .lang import (
    Bits, ScriptRef, deserialize_script, script_source, serialize_script,
    static_cost,
)
from .ledger import (
    ChainLog, FirstFailure, Invalid, TransactionRejected, UtxoSet, Valid,
    VerifyOk, apply_transaction, validate_transaction, verify_chain,
)
from .model import ChainParams, Output, OutputRef, Payload, Transaction
from .parser import ParseError, parse
from .rule110 import (
    GridRow, build_bit_script, build_layer_script, calc_bit, evolve_cyclic,
    evolve_grid, genesis_grid, genesis_layer,
)

__version__ = "0.1.0"
