"""UTXO set, transaction validation, and chain replay.

Validation runs every input's guarding script against the spending
transaction under a per-input cost limit; a transaction is valid only if
every script returns true, its outputs are within the size limits, its
cost fits in one block and none of its outputs already exists.  A
genesis transaction spends nothing and runs no script, so it is checked
for the output limits and collisions only.  The one rule that depends on
history, that genesis transactions come before the first regular one, is
checked by ``apply_transaction`` against the chain log.

The chain log groups applied transactions into blocks greedily by cost
budget.  Blocks are a budgeting device only; the grouping is a pure
function of the transaction sequence and the budget, so a replay
reconstructs it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .interp import CostLimitExceeded, EvalContext, EvalError, evaluate
from .model import (
    ChainParams, Output, OutputRef, Transaction, _kind_tag, output_bytes,
)


class UtxoSet:
    """Unspent outputs with a secondary index over every payload field."""

    def __init__(self):
        self._primary: dict[OutputRef, Output] = {}
        self._index: dict[tuple, set] = {}

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

    def _index_keys(self, output: Output):
        for name, value in output.payload.items():
            yield (name, _kind_tag(value), value)

    def add(self, ref: OutputRef, output: Output) -> None:
        if ref in self._primary:
            raise ValueError(f"reference already present: {ref}")
        self._primary[ref] = output
        for key in self._index_keys(output):
            self._index.setdefault(key, set()).add(ref)

    def spend(self, ref: OutputRef) -> Output:
        output = self._primary.pop(ref)
        for key in self._index_keys(output):
            bucket = self._index.get(key)
            if bucket is not None:
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
        buckets = [self._index.get((name, _kind_tag(value), value), set())
                   for name, value in constraints]
        buckets.sort(key=len)
        result = set(buckets[0])
        for b in buckets[1:]:
            result &= b
        return sorted(result)

    def copy(self) -> "UtxoSet":
        clone = UtxoSet()
        clone._primary = dict(self._primary)
        clone._index = {k: set(v) for k, v in self._index.items()}
        return clone


# ---------------------------------------------------------------------------
# Validation results

@dataclass(frozen=True)
class Valid:
    total_cost: int


@dataclass(frozen=True)
class Invalid:
    reason: object

    def __str__(self):
        return str(self.reason)


@dataclass(frozen=True)
class MissingInput:
    ref: OutputRef

    def __str__(self):
        return f"missing input {self.ref}"


@dataclass(frozen=True)
class DuplicateInput:
    ref: OutputRef

    def __str__(self):
        return f"duplicate input {self.ref}"


@dataclass(frozen=True)
class OversizeOutput:
    output_index: int
    detail: str

    def __str__(self):
        return f"output {self.output_index} is too large: {self.detail}"


@dataclass(frozen=True)
class OutputExists:
    ref: OutputRef

    def __str__(self):
        return f"output {self.ref} already exists"


@dataclass(frozen=True)
class ScriptFalse:
    input_index: int

    def __str__(self):
        return f"script of input {self.input_index} returned false"


@dataclass(frozen=True)
class ScriptError:
    input_index: int
    error: str

    def __str__(self):
        return f"script of input {self.input_index} failed: {self.error}"


@dataclass(frozen=True)
class CostExceeded:
    input_index: int

    def __str__(self):
        return f"input {self.input_index} ran over the cost limit"


@dataclass(frozen=True)
class BudgetExceeded:
    cost: int
    budget: int

    def __str__(self):
        return f"transaction cost {self.cost} exceeds block budget {self.budget}"


@dataclass(frozen=True)
class TxIdMismatch:
    stored: bytes
    computed: bytes

    def __str__(self):
        return (f"stored id {self.stored.hex()[:16]}... does not match "
                f"recomputed {self.computed.hex()[:16]}...")


@dataclass(frozen=True)
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
        payload_size = len(output_bytes(output)) - script_size
        if payload_size > params.max_payload_bytes:
            return Invalid(OversizeOutput(
                i, f"payload is {payload_size} bytes, limit {params.max_payload_bytes}"))
    if tx.is_genesis:
        return Valid(0)
    total = 0
    for i, output in enumerate(resolved):
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
        total += receipt.total_cost
    if total > params.block_budget:
        return Invalid(BudgetExceeded(total, params.block_budget))
    return Valid(total)


# ---------------------------------------------------------------------------
# Chain log

@dataclass
class Block:
    budget: int
    cost_used: int = 0
    transactions: list = field(default_factory=list)


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


@dataclass(frozen=True)
class VerifyOk:
    transactions: int
    total_cost: int


@dataclass(frozen=True)
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
