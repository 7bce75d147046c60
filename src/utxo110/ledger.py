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
first regular one, is ``check_order``; ``apply_transaction`` checks it
against the chain log and ``verify_chain`` against the transaction
before.

``verify_chain`` replays a chain in two passes.  The first applies each
transaction in order under every rule that the UTXO set decides, and
queues the script checks of each regular one.  Once the UTXO set before
a transaction is fixed, its script checks depend on nothing else, so the
second pass may run them in any process.  Where ``_may_fork`` allows
it, a forked helper takes every other remaining check once they have
used 0.1 s of CPU time (``FORK_AFTER_S``), or before the first check
whose script holds a ``pow`` that its charge does not price
(``interp.unpriced_pow``), as no cost tells how long it will take.
The results are merged in chain order, and a check that failed in the
helper is run again in the parent, so the verdict, counts, total and
reason text are those of a one-pass replay.

The chain log keeps the applied transactions and their total cost, and
counts the blocks they pack into greedily by cost budget.  Blocks are a
budgeting device only: the count is a pure function of the transaction
sequence and the budget, so the log keeps no block, only the room left
in the last one.  ``apply_transaction`` packs as it goes;
``verify_chain`` packs once every cost is known, and takes its
transaction count and total cost from the same log.  ``utxo_digest``
hashes an unspent set, so ``run`` and ``verify`` can show that they hold
the same state.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

from .interp import (
    CostLimitExceeded, EvalContext, EvalError, evaluate, reads_self, unpriced_pow,
)
from .lang import _u32, record
from .model import (
    ChainParams, Output, OutputRef, Transaction, output_bytes,
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
        for name, value in output.payload._map.items():
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
            for name, value in output.payload._map.items():
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


def utxo_digest(utxo: UtxoSet) -> bytes:
    """sha256 over every unspent output in reference order: the
    reference's tx id and u32 index, then the output's canonical bytes.
    It depends on the set alone, not on the order it was built in."""
    h = hashlib.sha256()
    for ref in utxo.refs():
        h.update(ref.tx_id)
        h.update(_u32(ref.index))
        h.update(output_bytes(utxo.resolve(ref)))
    return h.digest()


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


def check_order(tx: Transaction, previous: Transaction | None):
    """The one rule that depends on history: every genesis transaction
    comes before the first regular one.  ``previous`` is the transaction
    applied last, None at the start of a chain.  None or Invalid."""
    if tx.is_genesis and previous is not None and not previous.is_genesis:
        return Invalid(MisplacedGenesis())
    return None


def check_ledger(tx: Transaction, utxo: UtxoSet, params: ChainParams):
    """The rules the UTXO set decides without running a script: no input
    twice, every input unspent, no output that already exists, every
    output within the size limits.  The resolved inputs, or Invalid."""
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
    return tuple(resolved)


def check_scripts(tx: Transaction, resolved, params: ChainParams):
    """Run the guarding script of each resolved input of a regular
    transaction, then check its cost against the block budget.  The
    outcome depends on nothing but the arguments: Valid(total cost) or
    Invalid(reason)."""
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


def validate_transaction(tx: Transaction, utxo: UtxoSet,
                         params: ChainParams = ChainParams()):
    """Check every ledger rule that the UTXO set decides: Valid(total
    cost) or Invalid(reason).  Genesis order is left to the callers that
    know the previous transaction."""
    resolved = check_ledger(tx, utxo, params)
    if isinstance(resolved, Invalid):
        return resolved
    return Valid(0) if tx.is_genesis else check_scripts(tx, resolved, params)


def _spend_and_add(tx: Transaction, utxo: UtxoSet) -> None:
    for ref in tx.inputs:
        utxo.spend(ref)
    for index, output in enumerate(tx.outputs):
        utxo.add(tx.ref(index), output)


# ---------------------------------------------------------------------------
# Chain log

class ChainLog:
    """Applied transactions in order, packed greedily into blocks of
    ``block_budget`` cost: a transaction that does not fit in the room
    left in the last block opens the next one."""

    def __init__(self, block_budget: int):
        self.block_budget = block_budget
        self.transactions: list[Transaction] = []
        self.total_cost = 0
        self.blocks = 0
        self.room = 0  # left in the last block

    def append(self, tx: Transaction, cost: int) -> None:
        if cost > self.block_budget:
            raise ValueError("transaction cost exceeds the whole block budget")
        if not self.blocks or cost > self.room:
            self.blocks += 1
            self.room = self.block_budget
        self.room -= cost
        self.total_cost += cost
        self.transactions.append(tx)


class TransactionRejected(Exception):
    def __init__(self, reason):
        super().__init__(str(reason))
        self.reason = reason


def apply_transaction(tx: Transaction, utxo: UtxoSet, log: ChainLog,
                      params: ChainParams = ChainParams()) -> Valid:
    """Validate, then spend inputs and insert outputs. Atomic on failure.

    Genesis order is checked against the last transaction in the log;
    since only this function fills the log, that keeps every genesis
    before the first regular transaction.
    """
    previous = log.transactions[-1] if log.transactions else None
    result = check_order(tx, previous) or validate_transaction(tx, utxo, params)
    if isinstance(result, Invalid):
        raise TransactionRejected(result.reason)
    _spend_and_add(tx, utxo)
    log.append(tx, result.total_cost)
    return result


@record
class VerifyOk:
    """A chain that verified, and the state its replay rebuilt: the
    blocks ``ChainLog`` packs it into and the final unspent set."""

    transactions: int
    total_cost: int
    blocks: int
    utxo_size: int
    utxo_digest: bytes


@record
class FirstFailure:
    tx_index: int
    reason: object

    def __str__(self):
        return f"transaction {self.tx_index}: {self.reason}"


# How much of the process's CPU time the script checks of one chain use
# before a helper is forked to share the rest.  A fork round trip of a
# 20 MB process took 2-3 ms on a 2-vCPU host, so a needless fork wastes
# at most a few percent of the work already done.
FORK_AFTER_S = 0.1


def verify_chain(transactions, params: ChainParams = ChainParams(),
                 stored_ids=None):
    """Replay a transaction sequence from scratch.

    ``stored_ids`` (when given) are checked against recomputed ids, so a
    tampered payload is caught at the transaction that carries it.

    The first pass stops at the first id, order or ledger failure.  A
    queued script check that fails comes first only when its transaction
    does; a transaction's ledger rules come before its scripts, so this
    is the failure a one-pass replay reports.
    """
    utxo = UtxoSet()
    queue = []
    failure = None
    previous = None
    for i, tx in enumerate(transactions):
        if stored_ids is not None:
            computed = tx.tx_id()
            if stored_ids[i] != computed:
                failure = FirstFailure(i, TxIdMismatch(stored_ids[i], computed))
                break
        resolved = check_order(tx, previous) or check_ledger(tx, utxo, params)
        if isinstance(resolved, Invalid):
            failure = FirstFailure(i, resolved.reason)
            break
        _spend_and_add(tx, utxo)
        if not tx.is_genesis:
            queue.append((i, tx, resolved))
        previous = tx
    script_failure, costs = _run_checks(queue, params)
    if script_failure or failure:
        return script_failure or failure
    log = ChainLog(params.block_budget)
    regular = iter(costs)  # one per regular transaction, in chain order
    for tx in transactions:
        log.append(tx, 0 if tx.is_genesis else next(regular))
    return VerifyOk(transactions=len(log.transactions), total_cost=log.total_cost,
                    blocks=log.blocks, utxo_size=len(utxo),
                    utxo_digest=utxo_digest(utxo))


def _run_checks(queue, params: ChainParams):
    """Run queued ``(index, tx, resolved)`` script checks in chain order:
    the FirstFailure of the first that fails, or None, and the costs of
    the checks before it.  Once they have used ``FORK_AFTER_S``
    of CPU time, or before the first whose script takes a ``pow`` that no
    charge prices, and two remain, a helper forked where the system
    allows takes every other remaining check.  A check it reports
    failed, or whose result never arrives, runs here."""
    costs = []
    spent = 0.0
    helper = None
    try:
        for k, (i, tx, resolved) in enumerate(queue):
            cost = helper.cost(k) if helper else None
            if cost is None:
                start = time.process_time()  # compiling for the test counts
                if helper is None and len(queue) - k >= 2 and (
                        spent >= FORK_AFTER_S
                        or any(unpriced_pow(o.script_ref) for o in resolved)) \
                        and _may_fork():
                    helper = _Helper(queue, k + 1, params)
                result = check_scripts(tx, resolved, params)
                spent += time.process_time() - start
                if isinstance(result, Invalid):
                    return FirstFailure(i, result.reason), costs
                cost = result.total_cost
            costs.append(cost)
        return None, costs
    finally:
        if helper is not None:
            helper.close()


def _may_fork() -> bool:
    """Whether the system can fork, this process may run on two cores,
    and it runs no other thread: a fork copies only the calling thread,
    so a lock held by another would stay held in the helper."""
    threading = sys.modules.get("threading")  # not imported just to ask
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
        and len(os.sched_getaffinity(0)) >= 2 \
        and (threading is None or threading.active_count() == 1)


class _Helper:
    """A forked process that runs the checks ``start``, ``start + 2``, …
    of a queue (see ``_serve``).  When the pipe or the fork cannot be
    made, there is no helper and the parent runs every check."""

    def __init__(self, queue, start, params):
        self.start = start
        self.pid = None
        self.reader = None
        try:
            read, write = os.pipe()
        except OSError:
            return
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if self.pid == 0:
            # The helper leaves through os._exit whatever happens: no
            # traceback, no atexit handler and no flush of the parent's
            # buffered output.
            code = 1
            try:
                os.close(read)
                _serve(queue, start, params, write)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.reader = open(read, "rb")

    def cost(self, k):
        """The cost of check ``k`` as the helper found it.  None when the
        check is not the helper's, failed there, or its result never
        arrives because the helper is gone; the parent then runs it."""
        if self.reader is None or (k - self.start) % 2:
            return None
        line = self.reader.readline()
        if line[:1].isdigit():
            return int(line)
        # "!" for a failure, or b"" at end of file; either way the helper
        # has stopped, and writes nothing after
        self.reader.close()
        self.reader = None
        return None

    def close(self):
        """Kill the helper, wherever it is, and reap it."""
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.pid:
            from signal import SIGKILL  # loaded only when a helper ran
            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _serve(queue, start, params, fd):
    """The helper's work: run the checks ``start``, ``start + 2``, … of a
    queue in order, writing each one's cost on a line of its own, or
    ``!`` and the check's number at the first that fails, then stop.  It
    also stops when its parent is gone."""
    parent = os.getppid()
    for k in range(start, len(queue), 2):
        if os.getppid() != parent:
            return
        _, tx, resolved = queue[k]
        result = check_scripts(tx, resolved, params)
        if isinstance(result, Invalid):
            os.write(fd, b"!%d\n" % k)
            return
        os.write(fd, b"%d\n" % result.total_cost)
