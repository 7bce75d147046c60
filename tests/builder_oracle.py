"""The builder's per-rule evaluation, kept as a reference for differential tests.

This is ``builder._run_case`` as it was before each stage of a case ran
its rules from their compiled code on one shared context: every rule
went through ``interp.evaluate`` with an ``EvalContext`` of its own.
It reads a case's records as ``_run_case`` does.  Tests patch
``run_case`` in for ``builder._run_case`` and require the same
``Transaction``, or the same ``CannotBuild`` reason class and text.
"""

from __future__ import annotations

from utxo110.builder import (
    _RULE_BUDGET_FACTOR, ConsistencyCheckFailed, CopyOf, LookupAmbiguous,
    LookupMiss, NoProgress, _CaseFailure, _makes_no_progress,
)
from utxo110.interp import EvalContext, EvalError, _payload_value, evaluate
from utxo110.lang import ScriptRef
from utxo110.ledger import Valid, validate_transaction
from utxo110.model import Output, Payload, Transaction


def eval_rule(rule: ScriptRef, resolved, params):
    ctx = EvalContext(self_input=resolved[0], inputs=resolved, outputs=())
    value, _ = evaluate(rule, ctx,
                        _RULE_BUDGET_FACTOR * params.cost_limit_per_input,
                        max_width=params.max_width)
    return _payload_value(value, "a rule's value")


def run_case(case, utxo, seed, seed_output, params):
    for check in case.seed_checks:
        try:
            ok = eval_rule(check, [seed_output], params)
        except EvalError as exc:
            raise _CaseFailure(ConsistencyCheckFailed(str(exc)), seed_stage=True)
        if ok is not True:
            raise _CaseFailure(
                ConsistencyCheckFailed("seed does not fit this input role"),
                seed_stage=True)

    resolved_refs = [seed]
    resolved = [seed_output]
    for k, rules in enumerate(case.lookups, start=1):
        constraints = []
        for field, rule in rules:
            try:
                value = eval_rule(rule, resolved, params)
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

    outputs = []
    for i, made in enumerate(case.outputs):
        try:
            if isinstance(made, CopyOf):
                base = outputs[made.source]
                payload = base.payload
                for name, rule in made.overrides:
                    payload = payload.replace(name, eval_rule(rule, resolved, params))
                out = Output(base.script_ref, payload)
            else:
                pairs = []
                for field, rule in made.fields:
                    pairs.append((field, eval_rule(rule, resolved, params)))
                ref = eval_rule(made.script, resolved, params)
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
