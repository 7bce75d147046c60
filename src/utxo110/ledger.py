"""UTXO set, transaction validation, and chain replay.

Validation runs every input's guarding script against the spending
transaction under a per-input cost limit; a transaction is valid only if
every script returns true, its outputs are within the size limits, its
cost fits in one block and none of its outputs already exists.  A
genesis transaction spends nothing and runs no script, so it is checked
for the output limits and collisions only.  Inputs that all carry one
script which never reads ``self`` would each get the same outcome, so
that script runs once and its cost counts once per input.  The one rule
that depends on history, that genesis transactions come before the
first regular one, is checked by ``apply_transaction`` against the chain
log.

The chain log groups applied transactions into blocks greedily by cost
budget.  Blocks are a budgeting device only; the grouping is a pure
function of the transaction sequence and the budget, so a replay
reconstructs it exactly.
"""

from __future__ import annotations

from .interp import (
    CostLimitExceeded, EvalContext, EvalError, evaluate, reads_self,
)
from .lang import record
from .model import (
    ChainParams, Output, OutputRef, Transaction,
)


class UtxoSet:
    """Unspent outputs, with an index over every payload field that is
    built on the first ``lookup`` and kept current from then on."""

    def __init__(self):
        self._primary: dict[OutputRef, Output] = {}
        self._index: dict[tuple, set] | None = None

    def __len__(self):
        return len(self._primary)

    def __contains__(self, ref):
        return ref in self._primary

    def get(self, ref: OutputRef) -> Output | None:
        return self._primary.get(ref)

    def resolve(self, ref: OutputRef) -> Output:
        return self._primary[ref]

    def refs(self):
        """All unspent references in deterministic order."""
        return sorted(self._primary)

    def items(self):
        return [(ref, self._primary[ref]) for ref in self.refs()]

    def _index_output(self, ref: OutputRef, output: Output) -> None:
        # type(value) keeps True and 1 apart, as the payload encoding does
        for name, value in output.payload.items():
            self._index.setdefault((name, type(value), value), set()).add(ref)

    def add(self, ref: OutputRef, output: Output) -> None:
        if ref in self._primary:
            raise ValueError(f"reference already present: {ref}")
        self._primary[ref] = output
        if self._index is not None:
            self._index_output(ref, output)

    def spend(self, ref: OutputRef) -> Output:
        output = self._primary.pop(ref)
        if self._index is not None:
            for name, value in output.payload.items():
                key = (name, type(value), value)
                bucket = self._index[key]
                bucket.discard(ref)
                if not bucket:
                    del self._index[key]
        return output

    def lookup(self, constraints) -> list:
        """References whose payloads match every (field, value) constraint.

        Result is sorted by (tx id, index).  An empty constraint list
        returns every unspent reference.
        """
        constraints = list(constraints)
        if not constraints:
            return self.refs()
        if self._index is None:
            self._index = {}
            for ref, output in self._primary.items():
                self._index_output(ref, output)
        buckets = [self._index.get((name, type(value), value), set())
                   for name, value in constraints]
        buckets.sort(key=len)
        result = set(buckets[0])
        for b in buckets[1:]:
            result &= b
        return sorted(result)


# ---------------------------------------------------------------------------
# Validation results

@record
class Valid:
    total_cost: int


@record
class Invalid:
    reason: object

    def __str__(self):
        return str(self.reason)


@record
class MissingInput:
    ref: OutputRef

    def __str__(self):
        return f"missing input {self.ref}"


@record
class DuplicateInput:
    ref: OutputRef

    def __str__(self):
        return f"duplicate input {self.ref}"


@record
class OversizeOutput:
    output_index: int
    detail: str

    def __str__(self):
        return f"output {self.output_index} is too large: {self.detail}"


@record
class OutputExists:
    ref: OutputRef

    def __str__(self):
        return f"output {self.ref} already exists"


@record
class ScriptFalse:
    input_index: int

    def __str__(self):
        return f"script of input {self.input_index} returned false"


@record
class ScriptError:
    input_index: int
    error: str

    def __str__(self):
        return f"script of input {self.input_index} failed: {self.error}"


@record
class CostExceeded:
    input_index: int

    def __str__(self):
        return f"input {self.input_index} ran over the cost limit"


@record
class BudgetExceeded:
    cost: int
    budget: int

    def __str__(self):
        return f"transaction cost {self.cost} exceeds block budget {self.budget}"


@record
class TxIdMismatch:
    stored: bytes
    computed: bytes

    def __str__(self):
        return (f"stored id {self.stored.hex()[:16]}... does not match "
                f"recomputed {self.computed.hex()[:16]}...")


@record
class MisplacedGenesis:
    def __str__(self):
        return "genesis transaction after the first regular transaction"


def validate_transaction(tx: Transaction, utxo: UtxoSet,
                         params: ChainParams = ChainParams()):
    """Check every ledger rule that the UTXO set decides: Valid(total
    cost) or Invalid(reason).  Genesis order is left to
    ``apply_transaction``, which sees the chain log."""
    seen = set()
    resolved = []
    for ref in tx.inputs:
        if ref in seen:
            return Invalid(DuplicateInput(ref))
        seen.add(ref)
        output = utxo.get(ref)
        if output is None:
            return Invalid(MissingInput(ref))
        resolved.append(output)
    for index in range(len(tx.outputs)):
        if tx.ref(index) in utxo:
            return Invalid(OutputExists(tx.ref(index)))
    for i, output in enumerate(tx.outputs):
        script_size = len(output.script_bytes)
        if script_size > params.max_script_bytes:
            return Invalid(OversizeOutput(
                i, f"script is {script_size} bytes, limit {params.max_script_bytes}"))
        payload_size = 4 + len(output.payload.encoded)  # with the script's length prefix
        if payload_size > params.max_payload_bytes:
            return Invalid(OversizeOutput(
                i, f"payload is {payload_size} bytes, limit {params.max_payload_bytes}"))
    if tx.is_genesis:
        return Valid(0)
    # Inputs that share a script which never reads self all get the same
    # value, cost or error, so one evaluation stands for each of them.
    script = resolved[0].script_ref
    shared = all(o.script_ref is script for o in resolved) and not reads_self(script)
    total = 0
    for i, output in enumerate(resolved[:1] if shared else resolved):
        ctx = EvalContext(self_input=output, inputs=resolved, outputs=tx.outputs)
        try:
            value, receipt = evaluate(output.script_ref, ctx,
                                      params.cost_limit_per_input,
                                      max_width=params.max_width)
        except CostLimitExceeded:
            return Invalid(CostExceeded(i))
        except EvalError as exc:
            return Invalid(ScriptError(i, f"{type(exc).__name__}: {exc}"))
        if value is not True:
            if isinstance(value, bool):
                return Invalid(ScriptFalse(i))
            return Invalid(ScriptError(i, f"script returned {type(value).__name__}"))
        total += receipt.total_cost * (len(resolved) if shared else 1)
    if total > params.block_budget:
        return Invalid(BudgetExceeded(total, params.block_budget))
    return Valid(total)


# ---------------------------------------------------------------------------
# Chain log

@record(frozen=False)
class Block:
    budget: int
    cost_used: int = 0
    transactions: list = []


class ChainLog:
    """Append-only list of applied transactions, packed into blocks greedily."""

    def __init__(self, block_budget: int):
        self.block_budget = block_budget
        self.blocks: list[Block] = [Block(block_budget)]

    def append(self, tx: Transaction, cost: int) -> None:
        if cost > self.block_budget:
            raise ValueError("transaction cost exceeds the whole block budget")
        block = self.blocks[-1]
        if block.cost_used + cost > block.budget and block.transactions:
            block = Block(self.block_budget)
            self.blocks.append(block)
        block.transactions.append(tx)
        block.cost_used += cost

    def transactions(self):
        for block in self.blocks:
            yield from block.transactions

    def __len__(self):
        return sum(len(b.transactions) for b in self.blocks)


class TransactionRejected(Exception):
    def __init__(self, reason):
        super().__init__(str(reason))
        self.reason = reason


def apply_transaction(tx: Transaction, utxo: UtxoSet, log: ChainLog,
                      params: ChainParams = ChainParams()) -> Valid:
    """Validate, then spend inputs and insert outputs. Atomic on failure.

    A genesis transaction is rejected once the log ends in a regular one;
    since only this function fills the log, that keeps every genesis
    before the first regular transaction.
    """
    last = log.blocks[-1].transactions
    if tx.is_genesis and last and not last[-1].is_genesis:
        raise TransactionRejected(MisplacedGenesis())
    result = validate_transaction(tx, utxo, params)
    if isinstance(result, Invalid):
        raise TransactionRejected(result.reason)
    for ref in tx.inputs:
        utxo.spend(ref)
    for index, output in enumerate(tx.outputs):
        utxo.add(tx.ref(index), output)
    log.append(tx, result.total_cost)
    return result


@record
class VerifyOk:
    transactions: int
    total_cost: int


@record
class FirstFailure:
    tx_index: int
    reason: object

    def __str__(self):
        return f"transaction {self.tx_index}: {self.reason}"


def verify_chain(transactions, params: ChainParams = ChainParams(),
                 stored_ids=None):
    """Replay a transaction sequence from scratch.

    ``stored_ids`` (when given) are checked against recomputed ids, so a
    tampered payload is caught at the transaction that carries it.
    """
    utxo = UtxoSet()
    log = ChainLog(params.block_budget)
    total = 0
    for i, tx in enumerate(transactions):
        if stored_ids is not None:
            computed = tx.tx_id()
            if stored_ids[i] != computed:
                return FirstFailure(i, TxIdMismatch(stored_ids[i], computed))
        try:
            result = apply_transaction(tx, utxo, log, params)
        except TransactionRejected as exc:
            return FirstFailure(i, exc.reason)
        total += result.total_cost
    return VerifyOk(transactions=len(log), total_cost=total)
