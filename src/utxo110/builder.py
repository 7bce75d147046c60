"""Transaction synthesis from canonical-form guarding scripts.

``derive_build_rules`` turns a script into executable per-branch rules:
which constraints the seed input must satisfy, how to look up every
further input, and how to compute each output.  ``build_next`` drives
those rules for one seed; ``sweep`` runs every unspent output as a seed
once, applying successes immediately so later lookups see fresh state.

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

Rules are derived per branch: the let-inlined script is split at its
``if``s, and each branch must be a conjunction of assignments and
lookups, even where the script as a whole is not.
"""

from __future__ import annotations

import functools

from .canonical import (
    AnalysisError, CopyRule, DeadCase, FieldRule,
    NotCanonical, SCRIPT_FIELD, classify_conjuncts,
    flatten_and, inline_lets, normalize_conjunct, reduce_case, scan_refs,
    shared_ref_scan, split_cases,
)
from .interp import EvalContext, EvalError, _payload_value, compiled
from .lang import Cmp, CtxRef, Expr, Lit, ScriptRef, Size, record
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
class BuildCase:
    """One branch of a script, compiled to generation rules."""

    input_count: int
    seed_checks: tuple  # of ScriptRef: conjuncts decidable from in[0] alone
    lookups: tuple      # of (input index, tuple of (field, ScriptRef))
    out_rules: tuple    # of (out index, 'fields'|'copy', rule data with ScriptRefs)


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


def _max_in_ref(exprs) -> int:
    top = -1
    for e in exprs:
        top = max(top, scan_refs(e).max_in_index)
    return top


def _is_seed_check(e: Expr) -> bool:
    refs = scan_refs(e)
    return (not refs.uses_out and not refs.bare_in and not refs.in_size
            and not refs.free_vars and refs.max_in_index <= 0)


def _compile_case(guards, body):
    """BuildCase for one branch, or None when the branch can never hold."""
    norm_guards = []
    for g in guards:
        norm_guards.extend(normalize_conjunct(g))
    in_size = None
    for g in norm_guards:
        s = _size_equality(g)
        if s is not None:
            in_size = s
            break
    try:
        reduced = reduce_case(body, in_size)
    except DeadCase:
        return None

    conjuncts = []
    for conj in flatten_and(reduced):
        conjuncts.extend(normalize_conjunct(conj))
    form = classify_conjuncts(conjuncts)
    if isinstance(form, NotCanonical):
        raise AnalysisError(form.reason)

    all_exprs = list(norm_guards) + conjuncts
    if in_size is None:
        for conj in conjuncts:
            s = _size_equality(conj)
            if s is not None:
                in_size = s
                break
    max_ref = _max_in_ref(all_exprs)
    if in_size is None:
        in_size = max(1, max_ref + 1)
    if in_size < 1 or max_ref >= in_size:
        return None  # branch contradicts its own input count

    # group lookups per input index; every non-seed input needs a rule
    per_index = {}
    for rule in form.in_rules:
        per_index.setdefault(rule.in_index, []).append(rule)
    lookups = []
    for k in range(1, in_size):
        if k not in per_index:
            raise AnalysisError(f"in[{k}] has no lookup rule")
        lookups.append((k, tuple((r.field, ScriptRef(r.expr)) for r in per_index[k])))
    extra = [k for k in per_index if k >= in_size]
    if extra:
        return None

    # group output rules; each output is either fully assigned or a copy
    by_out = {}
    for rule in form.out_rules:
        by_out.setdefault(rule.out_index, []).append(rule)
    if sorted(by_out) != list(range(len(by_out))):
        raise AnalysisError("output assignments are not contiguous from out[0]")
    out_rules = []
    for i in sorted(by_out):
        rules = by_out[i]
        copies = [r for r in rules if isinstance(r, CopyRule)]
        fields = [r for r in rules if isinstance(r, FieldRule)]
        if copies and fields:
            raise AnalysisError(f"out[{i}] is both copied and assigned")
        if copies:
            if len(copies) > 1:
                raise AnalysisError(f"out[{i}] has several copy rules")
            if copies[0].source >= i:
                raise AnalysisError(
                    f"out[{i}] copies a later output out[{copies[0].source}]")
            overrides = tuple((name, ScriptRef(x)) for name, x in copies[0].overrides)
            out_rules.append((i, "copy", (copies[0].source, overrides)))
        else:
            seen = set()
            script_rule = None
            payload_rules = []
            for r in fields:
                if r.field in seen:
                    raise AnalysisError(
                        f"out[{i}].{r.field} is assigned more than once")
                seen.add(r.field)
                if r.field == SCRIPT_FIELD:
                    script_rule = r
                else:
                    payload_rules.append(r)
            if script_rule is None:
                raise AnalysisError(f"out[{i}] has no script assignment")
            payload = tuple((r.field, ScriptRef(r.expr)) for r in payload_rules)
            out_rules.append((i, "fields", (payload, ScriptRef(script_rule.expr))))

    seed_checks = tuple(ScriptRef(e) for e in norm_guards + list(form.residual)
                        if _is_seed_check(e))
    return BuildCase(
        input_count=in_size,
        seed_checks=seed_checks,
        lookups=tuple(lookups),
        out_rules=tuple(out_rules),
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

    for k, rules in case.lookups:
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
    for i, kind, data in case.out_rules:
        try:
            if kind == "copy":
                source, overrides = data
                base = outputs[source]
                payload = base.payload
                for name, rule in overrides:
                    payload = payload.replace(name, _rule_value(rule, ctx, limit, width))
                out = Output(base.script_ref, payload)
            else:
                payload_rules, script_rule = data
                pairs = []
                for field, rule in payload_rules:
                    pairs.append((field, _rule_value(rule, ctx, limit, width)))
                ref = _rule_value(script_rule, ctx, limit, width)
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
          retired: set | None = None, seed_failures: dict | None = None) -> list:
    """One builder pass over the current unspent set.

    Seeds are the references unspent when the pass starts, visited in
    deterministic order; every built transaction is validated and applied
    before the next seed is considered.  Seeds whose only buildable
    transaction makes no progress, and seeds that fit no input role, are
    added to ``retired`` and skipped by later sweeps.  ``seed_failures``
    is ``build_next``'s memory of failed seed checks; the caller keeps it
    from one sweep to the next, as it keeps ``retired``, and a seed
    leaves both once it is spent.
    """
    if retired is None:
        retired = set()
    if seed_failures is None:
        seed_failures = {}
    built = []
    for seed in utxo.refs():
        if seed not in utxo or seed in retired:
            continue
        result = build_next(utxo, seed, params, seed_failures)
        if isinstance(result, Transaction):
            apply_transaction(result, utxo, log, params)
            built.append(result)
            for ref in result.inputs:
                retired.discard(ref)
                seed_failures.pop(ref, None)
        elif isinstance(result.reason, NoProgress) or result.reason == NO_INPUT_ROLE:
            retired.add(seed)
            seed_failures.pop(seed, None)
    return built
