"""Transaction synthesis from canonical-form guarding scripts.

``derive_build_rules`` turns a script into executable per-branch rules.
The let-inlined script is split at its ``if``s, and each branch must be
a conjunction of assignments and lookups, even where the script as a
whole is not.  One pass over a branch's conjuncts, in script order,
sorts each into the rules of its ``BuildCase``:

* ``seed_checks``: conjuncts that read only the seed, ``in[0]``, each
  kept once;
* ``lookups[j]``: the ``(field, rule)`` keys that locate ``in[j + 1]``
  among the unspent outputs;
* ``outputs[i]``: an ``Assign`` that computes ``out[i]`` field by field,
  or a ``CopyOf`` an earlier output with some fields replaced.

Any other conjunct over the inputs is left to the validation of the
built transaction.  ``build_next`` drives those rules for one seed;
``sweep`` runs every unspent output as a seed once, applying successes
immediately so later lookups see fresh state.

Two policies matter beyond the raw rules:

* Lookups that match several references pick the smallest one, but only
  when all matches are equal outputs; outputs that actually differ are
  reported as ambiguous.  Interchangeable duplicate copies are a
  designed feature of the grid encoding, so refusing them would wedge
  the automaton.
* A transaction whose outputs all duplicate currently unspent outputs
  (ignoring what it spends) makes no progress and is not emitted; sweep
  permanently retires such seeds.  Without this, the redundant third
  copy of a one-cell row would re-derive old rows forever.  The guard
  finds the copies of each output through the UTXO set's payload index.
"""

from __future__ import annotations

import functools

from .canonical import (
    AnalysisError, DeadCase, flatten_and, inline_lets, normalize_conjunct,
    reduce_case, scan_refs, shared_ref_scan, split_cases,
)
from .interp import EvalContext, EvalError, _payload_value, compiled
from .lang import (
    Cmp, CopyEq, CtxRef, Expr, FieldAccess, Index, Lit, ScriptOf, ScriptRef,
    Size, record, script_source,
)
from .ledger import (
    ChainLog, UtxoSet, Valid, apply_transaction, validate_transaction,
)
from .model import ChainParams, Output, OutputRef, Payload, Transaction


@record
class NotBuildable:
    reason: str

    def __str__(self):
        return f"not buildable: {self.reason}"


@record
class LookupMiss:
    input_index: int
    constraints: tuple

    def __str__(self):
        keys = ", ".join(f"{n}={v!r}" for n, v in self.constraints)
        return f"no unspent output matches in[{self.input_index}] ({keys})"


@record
class LookupAmbiguous:
    input_index: int
    constraints: tuple

    def __str__(self):
        keys = ", ".join(f"{n}={v!r}" for n, v in self.constraints)
        return f"several distinct outputs match in[{self.input_index}] ({keys})"


@record
class ConsistencyCheckFailed:
    detail: str

    def __str__(self):
        return f"consistency check failed: {self.detail}"


@record
class NoProgress:
    def __str__(self):
        return "transaction would only recreate existing unspent outputs"


@record
class CannotBuild:
    reason: object

    def __str__(self):
        return str(self.reason)


@record
class Assign:
    """An output computed field by field: its payload fields' rules in
    script order, then the rule for its script."""
    fields: tuple  # of (field, ScriptRef)
    script: ScriptRef


@record
class CopyOf:
    """An output equal to the earlier ``out[source]`` but for the payload
    fields that ``overrides`` sets."""
    source: int
    overrides: tuple  # of (field, ScriptRef)


@record
class BuildCase:
    """One branch of a script, compiled to generation rules."""

    seed_checks: tuple  # of ScriptRef: conjuncts decidable from in[0] alone
    lookups: tuple      # lookups[j]: the (field, ScriptRef) keys of in[j + 1]
    outputs: tuple      # outputs[i]: the Assign or CopyOf that computes out[i]

    @property
    def input_count(self) -> int:
        return len(self.lookups) + 1


@record
class BuildRules:
    cases: tuple


def _size_equality(e: Expr):
    if isinstance(e, Cmp) and e.op == "=":
        for a, b in ((e.left, e.right), (e.right, e.left)):
            if isinstance(a, Size) and isinstance(a.obj, CtxRef) and a.obj.kind == "in" \
                    and isinstance(b, Lit) and isinstance(b.value, int) \
                    and not isinstance(b.value, bool):
                return b.value
    return None


def _is_seed_check(refs) -> bool:
    return (not refs.uses_out and not refs.bare_in and not refs.in_size
            and not refs.free_vars and refs.max_in_index <= 0)


def _slot_index(e: Expr, kind: str):
    """i when e is out[i] or in[i] (per ``kind``) with a literal index i >= 0."""
    if isinstance(e, Index) and isinstance(e.obj, CtxRef) and e.obj.kind == kind \
            and isinstance(e.index, Lit) and isinstance(e.index.value, int) \
            and not isinstance(e.index.value, bool) and e.index.value >= 0:
        return e.index.value
    return None


def _out_slot(e: Expr):
    """(index, field) when e is out[i].field, out[i].script -> (i, 'script')."""
    if isinstance(e, FieldAccess):
        target, field = e.obj, e.field
    elif isinstance(e, ScriptOf):
        target, field = e.obj, "script"
    else:
        return None
    index = _slot_index(target, "out")
    return None if index is None else (index, field)


def _lookup_key(conj: Expr):
    """(k, (field, ScriptRef)) when ``conj`` is ``in[k].field = g`` with
    k >= 1 and g reading only in[0..k-1], either way round, else None."""
    if not (isinstance(conj, Cmp) and conj.op == "="):
        return None
    for lhs, rhs in ((conj.left, conj.right), (conj.right, conj.left)):
        k = _slot_index(lhs.obj, "in") if isinstance(lhs, FieldAccess) else None
        if k is None or k < 1:
            continue
        refs = scan_refs(rhs)
        if refs.uses_out or refs.bare_in or refs.in_size or refs.free_vars \
                or refs.max_in_index >= k:
            continue
        return k, (lhs.field, ScriptRef(rhs))
    return None


def _output_rule(conj: Expr):
    """(i, rule) for a conjunct that mentions outputs: ``(field,
    ScriptRef)`` when it assigns out[i].field, a CopyOf when it copies
    into out[i].  None for a check on ``out.size``; AnalysisError for
    anything else."""
    if isinstance(conj, Cmp) and conj.op == "=":
        sides = ((conj.left, conj.right), (conj.right, conj.left))
        for lhs, rhs in sides:
            slot = _out_slot(lhs)
            if slot is not None and not scan_refs(rhs).uses_out:
                return slot[0], (slot[1], ScriptRef(rhs))
        # out.size = <input-only expr> is a size check, not an assignment
        for lhs, rhs in sides:
            if isinstance(lhs, Size) and isinstance(lhs.obj, CtxRef) \
                    and lhs.obj.kind == "out" and not scan_refs(rhs).uses_out:
                return None
        raise AnalysisError("output field is not isolated on one side of "
                            "the equality: " + script_source(conj))
    if isinstance(conj, CopyEq):
        target = _slot_index(conj.target, "out")
        source = _slot_index(conj.source, "out")
        if target is None or source is None:
            raise AnalysisError("copyEq over outputs must use literal indices: "
                                + script_source(conj))
        if any(scan_refs(x).uses_out for _, x in conj.overrides):
            raise AnalysisError("copyEq override depends on outputs: "
                                + script_source(conj))
        return target, CopyOf(source, tuple((name, ScriptRef(x))
                                            for name, x in conj.overrides))
    raise AnalysisError("conjunct mentions outputs but is not an assignment: "
                        + script_source(conj))


def _output(i: int, rules: list):
    """The one record for out[i], from its rules in script order."""
    copies = [r for r in rules if isinstance(r, CopyOf)]
    if copies:
        if len(copies) < len(rules):
            raise AnalysisError(f"out[{i}] is both copied and assigned")
        if len(copies) > 1:
            raise AnalysisError(f"out[{i}] has several copy rules")
        if copies[0].source >= i:
            raise AnalysisError(
                f"out[{i}] copies a later output out[{copies[0].source}]")
        return copies[0]
    fields = {}
    for field, rule in rules:
        if field in fields:
            raise AnalysisError(f"out[{i}].{field} is assigned more than once")
        fields[field] = rule
    script = fields.pop("script", None)
    if script is None:
        raise AnalysisError(f"out[{i}] has no script assignment")
    return Assign(tuple(fields.items()), script)


def _compile_case(guards, body):
    """BuildCase for one branch, or None when the branch can never hold.

    One pass over the branch's conjuncts, in script order, sorts each
    into a seed check, a lookup key of in[k], an output rule of out[i]
    or nothing (a check the built transaction's validation makes); the
    first conjunct of no such shape is the error.  Then the input count
    must fit the branch, every input after the seed needs a lookup, and
    each output must be one assignment or one copy of an earlier output.
    A seed check that repeats an earlier one is dropped: it reads the
    same seed under the same limit, so it cannot fail once that passed.
    """
    norm_guards = [n for g in guards for n in normalize_conjunct(g)]
    in_size = next((s for s in map(_size_equality, norm_guards) if s is not None), None)
    try:
        reduced = reduce_case(body, in_size)
    except DeadCase:
        return None

    seed_checks = []
    max_ref = -1
    for g in norm_guards:
        refs = scan_refs(g)
        max_ref = max(max_ref, refs.max_in_index)
        if _is_seed_check(refs):
            seed_checks.append(ScriptRef(g))
    keys = {}   # k -> the (field, ScriptRef) keys of in[k]
    rules = {}  # i -> the rules of out[i]: (field, ScriptRef) or CopyOf
    size = None
    for conj in (n for c in flatten_and(reduced) for n in normalize_conjunct(c)):
        refs = scan_refs(conj)
        max_ref = max(max_ref, refs.max_in_index)
        if refs.free_vars:
            raise AnalysisError(f"conjunct has free variables: {script_source(conj)}")
        if refs.uses_out:
            rule = _output_rule(conj)
            if rule is not None:
                rules.setdefault(rule[0], []).append(rule[1])
            continue
        key = _lookup_key(conj)
        if key is not None:
            keys.setdefault(key[0], []).append(key[1])
        elif _is_seed_check(refs):
            seed_checks.append(ScriptRef(conj))
        elif size is None:
            size = _size_equality(conj)

    if in_size is None:
        in_size = size if size is not None else max(1, max_ref + 1)
    if in_size < 1 or max_ref >= in_size:
        return None  # branch contradicts its own input count
    # max_ref counts the in[k] of every key, so no key lies past the inputs
    for k in range(1, in_size):
        if k not in keys:
            raise AnalysisError(f"in[{k}] has no lookup rule")
    if sorted(rules) != list(range(len(rules))):
        raise AnalysisError("output assignments are not contiguous from out[0]")
    return BuildCase(
        seed_checks=tuple(dict.fromkeys(seed_checks)),
        lookups=tuple(tuple(keys[k]) for k in range(1, in_size)),
        outputs=tuple(_output(i, rules[i]) for i in range(len(rules))),
    )


def derive_build_rules(script: Expr | ScriptRef):
    """Compile a script into branch build rules, or explain why not."""
    return _derive(ScriptRef(script))


@functools.cache
def _derive(ref: ScriptRef):
    try:
        with shared_ref_scan():
            inlined = inline_lets(ref.expr)
            raw_cases = split_cases(inlined)
            cases = []
            for guards, body in raw_cases:
                case = _compile_case(guards, body)
                if case is not None:
                    cases.append(case)
    except AnalysisError as exc:
        return NotBuildable(str(exc))
    if not cases:
        return NotBuildable("no branch admits a transaction")
    cases.sort(key=lambda c: -c.input_count)  # stable: script order on ties
    return BuildRules(cases=tuple(cases))


def analyze_canonical(script: Expr):
    """The whole let-inlined script compiled as one case, its branches
    left in place: a BuildCase, None or NotBuildable.

    Nothing in this package calls it; it stays while the benchmark's tracer
    wraps it."""
    try:
        return _compile_case((), inline_lets(script))
    except AnalysisError as exc:
        return NotBuildable(str(exc))


# ---------------------------------------------------------------------------
# Driving the rules

class _CaseFailure(Exception):
    def __init__(self, reason, seed_stage=False):
        self.reason = reason
        self.seed_stage = seed_stage


# Rule expressions come from let-inlined scripts, which duplicates shared
# subexpressions, so generation may cost a small factor more than running
# the original script.  Each rule runs from its compiled code under this
# factor times the per-input limit, on a context built once per stage of
# a case; the built transaction is still validated under the real
# per-input limit, so nothing over budget ever leaves here.
_RULE_BUDGET_FACTOR = 4


def _rule_value(rule: ScriptRef, ctx: EvalContext, limit: int, max_width: int):
    """A rule's value: a payload field, a lookup key, a script or a check,
    so an output or an output list is an EvalError."""
    if limit <= 0:  # as interp.evaluate refuses it
        raise ValueError("cost limit must be positive")
    value, _ = compiled(rule)(ctx, limit, max_width)
    return _payload_value(value, "a rule's value")


def _makes_no_progress(outputs, inputs, utxo: UtxoSet) -> bool:
    """True when every output already has at least as many equal unspent
    copies outside ``inputs`` as ``outputs`` holds."""
    spent = set(inputs)
    for out in outputs:
        copies = sum(1 for ref in utxo.lookup(out.payload._map.items())
                     if ref not in spent and utxo.resolve(ref) == out)
        if copies < outputs.count(out):
            return False
    return True


def _run_case(case: BuildCase, utxo: UtxoSet, seed: OutputRef,
              seed_output: Output, params: ChainParams):
    limit = _RULE_BUDGET_FACTOR * params.cost_limit_per_input
    width = params.max_width
    # one context per stage: the seed checks and the lookup of in[1] read
    # the seed alone; each later lookup, and the outputs, read every input
    # resolved so far
    resolved_refs = [seed]
    resolved = [seed_output]
    ctx = EvalContext(seed_output, resolved, ())
    for check in case.seed_checks:
        try:
            ok = _rule_value(check, ctx, limit, width)
        except EvalError as exc:
            raise _CaseFailure(ConsistencyCheckFailed(str(exc)), seed_stage=True)
        if ok is not True:
            raise _CaseFailure(
                ConsistencyCheckFailed("seed does not fit this input role"),
                seed_stage=True)

    for k, rules in enumerate(case.lookups, start=1):
        constraints = []
        for field, rule in rules:
            try:
                value = _rule_value(rule, ctx, limit, width)
            except EvalError as exc:
                raise _CaseFailure(ConsistencyCheckFailed(str(exc)))
            constraints.append((field, value))
        matches = [r for r in utxo.lookup(constraints) if r not in resolved_refs]
        if not matches:
            raise _CaseFailure(LookupMiss(k, tuple(constraints)))
        if len({utxo.resolve(r) for r in matches}) > 1:
            raise _CaseFailure(LookupAmbiguous(k, tuple(constraints)))
        chosen = matches[0]
        resolved_refs.append(chosen)
        resolved.append(utxo.resolve(chosen))
        ctx = EvalContext(seed_output, resolved, ())

    outputs = []
    for i, made in enumerate(case.outputs):
        try:
            if isinstance(made, CopyOf):
                base = outputs[made.source]
                payload = base.payload
                for name, rule in made.overrides:
                    payload = payload.replace(name, _rule_value(rule, ctx, limit, width))
                out = Output(base.script_ref, payload)
            else:
                pairs = []
                for field, rule in made.fields:
                    pairs.append((field, _rule_value(rule, ctx, limit, width)))
                ref = _rule_value(made.script, ctx, limit, width)
                if not isinstance(ref, ScriptRef):
                    raise _CaseFailure(ConsistencyCheckFailed(
                        f"out[{i}] script rule did not produce a script"))
                out = Output(ref, Payload(pairs))
        except (EvalError, KeyError, ValueError) as exc:
            raise _CaseFailure(ConsistencyCheckFailed(str(exc)))
        outputs.append(out)

    if _makes_no_progress(outputs, resolved_refs, utxo):
        raise _CaseFailure(NoProgress())

    tx = Transaction(inputs=resolved_refs, outputs=outputs)
    result = validate_transaction(tx, utxo, params)
    if not isinstance(result, Valid):
        raise _CaseFailure(ConsistencyCheckFailed(str(result.reason)))
    return tx


NO_INPUT_ROLE = ConsistencyCheckFailed("seed does not match any input role of the script")


def build_next(utxo: UtxoSet, seed: OutputRef, params: ChainParams = ChainParams(),
               seed_failures: dict | None = None):
    """Build the transaction spending ``seed`` under its script's rules.

    Returns a validated Transaction or CannotBuild.  Branches are tried
    in decreasing input count, so a seed takes the most specific role
    still open given the current unspent set.

    A case's seed checks read the seed alone, so once they fail for a
    seed they fail for as long as it is unspent.  ``seed_failures``
    (when given) keeps, across calls, a bit mask per seed of the cases
    whose seed checks failed, and those cases are not run again.  Their
    reasons need no keeping: a seed-stage failure is reported only as
    ``NO_INPUT_ROLE``, when every case failed there.
    """
    seed_output = utxo.get(seed)
    if seed_output is None:
        raise KeyError(f"seed not in the unspent set: {seed}")

    rules = derive_build_rules(seed_output.script_ref)
    if isinstance(rules, NotBuildable):
        return CannotBuild(rules)

    failed = seed_failures.get(seed, 0) if seed_failures is not None else 0
    reasons = []  # of the cases that got past their seed checks
    for number, case in enumerate(rules.cases):
        if failed >> number & 1:
            continue
        try:
            return _run_case(case, utxo, seed, seed_output, params)
        except _CaseFailure as exc:
            if exc.seed_stage:
                failed |= 1 << number
            else:
                reasons.append(exc.reason)
    if seed_failures is not None and failed:
        seed_failures[seed] = failed

    for reason in reasons:
        if isinstance(reason, NoProgress):
            return CannotBuild(reason)
    return CannotBuild(reasons[0] if reasons else NO_INPUT_ROLE)


def sweep(utxo: UtxoSet, log: ChainLog, params: ChainParams = ChainParams(),
          seed_failures: dict | None = None) -> list:
    """One builder pass over the current unspent set.

    Seeds are the references unspent when the pass starts, visited in
    deterministic order; every built transaction is validated and applied
    before the next seed is considered.  ``seed_failures`` is
    ``build_next``'s memory of failed seed checks, which the caller keeps
    from one sweep to the next.  A seed whose only buildable transaction
    makes no progress, or that fits no input role, is retired: its mask
    becomes -1, as if every case had failed, and later sweeps skip it.
    A seed leaves the memory once it is spent.
    """
    if seed_failures is None:
        seed_failures = {}
    built = []
    for seed in utxo.refs():
        if seed not in utxo or seed_failures.get(seed) == -1:
            continue
        result = build_next(utxo, seed, params, seed_failures)
        if isinstance(result, Transaction):
            apply_transaction(result, utxo, log, params)
            built.append(result)
            for ref in result.inputs:
                seed_failures.pop(ref, None)
        elif isinstance(result.reason, NoProgress) or result.reason == NO_INPUT_ROLE:
            seed_failures[seed] = -1
    return built
