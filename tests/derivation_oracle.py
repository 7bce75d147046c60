"""The let inlining, branch splitting and reduction rewrites as they were
before they worked on the shared let-DAG, kept as a reference for
differential tests.

Each rewrite here walks the let-inlined script as a tree, so a let value
used at k sites is copied and rewritten k times.  ``utxo110.canonical``
memoizes the same rewrites per node; tests require equal expressions,
equal ``Refs``, or the same ``AnalysisError`` or ``DeadCase``.  These
functions are ``utxo110.canonical``'s from before that change, unedited
but for ``scan_refs``, which collects its fields in locals and builds
one ``Refs`` at the end now that ``Refs`` is frozen, and no longer
records ``self`` reads, a field that ``Refs`` lost; its walk is the
same.

The second half is the derivation that ran on those rewrites:
``canonical``'s conjunct classification and ``builder``'s case
compilation from before the builder sorted each conjunct straight into
its records.  They are unedited but for three removals: the
``AnalysisError`` class (this is ``canonical``'s), the cache on
``_derive``, and the old ``derive_build_rules``, which the one at the end
replaces: it runs it all and returns ``builder``'s records, or the same
``NotBuildable``.
"""

from __future__ import annotations

from utxo110 import builder
from utxo110.builder import NotBuildable
from utxo110.canonical import (
    MAX_CASES, AnalysisError, DeadCase, Refs, flatten_and, normalize_conjunct,
    shared_ref_scan,
)
from utxo110.lang import (
    Arith, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess, If, Index, Let,
    ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, ScriptRef, Size,
    SyntheticOutput, Var, children, record, script_source,
)


def scan_refs(expr: Expr) -> Refs:
    uses_out = bare_in = in_size = False
    max_in_index = -1
    free = set()

    def walk(e, bound):
        nonlocal uses_out, bare_in, in_size, max_in_index
        if isinstance(e, CtxRef):
            if e.kind == "out":
                uses_out = True
            elif e.kind != "self":
                bare_in = True
            return
        if isinstance(e, Var):
            if e.name not in bound:
                free.add(e.name)
            return
        if isinstance(e, Index) and isinstance(e.obj, CtxRef) and e.obj.kind == "in" \
                and isinstance(e.index, Lit) and isinstance(e.index.value, int) \
                and not isinstance(e.index.value, bool):
            max_in_index = max(max_in_index, e.index.value)
            walk(e.index, bound)
            return
        if isinstance(e, Size) and isinstance(e.obj, CtxRef) and e.obj.kind == "in":
            in_size = True
            return
        if isinstance(e, MapIndices):
            walk(e.length, bound)
            walk(e.body, bound | {e.var})
            return
        if isinstance(e, Let):
            walk(e.value, bound)
            walk(e.body, bound | {e.name})
            return
        for c in children(e):
            walk(c, bound)

    walk(expr, frozenset())
    return Refs(uses_out, bare_in, in_size, max_in_index, frozenset(free))


def free_vars(expr: Expr) -> frozenset:
    return scan_refs(expr).free_vars


def substitute(expr: Expr, name: str, value: Expr) -> Expr:
    value_free = free_vars(value)

    def sub(e):
        if isinstance(e, Var):
            return value if e.name == name else e
        if isinstance(e, Let):
            new_value = sub(e.value)
            if e.name == name:
                return Let(e.name, new_value, e.body)
            if e.name in value_free:
                raise AnalysisError(
                    f"binding {e.name!r} would capture a substituted variable")
            return Let(e.name, new_value, sub(e.body))
        if isinstance(e, MapIndices):
            new_length = sub(e.length)
            if e.var == name:
                return MapIndices(new_length, e.var, e.body)
            if e.var in value_free:
                raise AnalysisError(
                    f"binding {e.var!r} would capture a substituted variable")
            return MapIndices(new_length, e.var, sub(e.body))
        return _rebuild(e, sub)

    return sub(expr)


def _rebuild(e: Expr, f):
    if isinstance(e, (Lit, Var, CtxRef)):
        return e
    if isinstance(e, FieldAccess):
        return FieldAccess(f(e.obj), e.field)
    if isinstance(e, ScriptOf):
        return ScriptOf(f(e.obj))
    if isinstance(e, Index):
        return Index(f(e.obj), f(e.index))
    if isinstance(e, Size):
        return Size(f(e.obj))
    if isinstance(e, Arith):
        return Arith(e.op, f(e.left), f(e.right))
    if isinstance(e, PowMod):
        return PowMod(f(e.base), f(e.exponent), f(e.modulus))
    if isinstance(e, Cmp):
        return Cmp(e.op, f(e.left), f(e.right))
    if isinstance(e, BoolOp):
        return BoolOp(e.op, f(e.left), f(e.right))
    if isinstance(e, Not):
        return Not(f(e.operand))
    if isinstance(e, MapIndices):
        return MapIndices(f(e.length), e.var, f(e.body))
    if isinstance(e, Let):
        return Let(e.name, f(e.value), f(e.body))
    if isinstance(e, If):
        return If(f(e.cond), f(e.then), f(e.orelse))
    if isinstance(e, CopyEq):
        return CopyEq(f(e.target), f(e.source),
                      tuple((n, f(x)) for n, x in e.overrides))
    if isinstance(e, ListConcat):
        return ListConcat(f(e.left), f(e.right))
    if isinstance(e, SyntheticOutput):
        return SyntheticOutput(tuple((n, f(x)) for n, x in e.fields), f(e.script))
    raise TypeError(type(e).__name__)


def inline_lets(expr: Expr) -> Expr:
    """Eliminate every let by substitution."""
    if isinstance(expr, Let):
        value = inline_lets(expr.value)
        return inline_lets(substitute(expr.body, expr.name, value))
    return _rebuild(expr, inline_lets)


def _find_splittable_if(expr: Expr):
    if isinstance(expr, If) and not scan_refs(expr.cond).free_vars:
        return expr.cond
    for c in children(expr):
        found = _find_splittable_if(c)
        if found is not None:
            return found
    return None


def _take_branch(expr: Expr, cond: Expr, take_then: bool) -> Expr:
    if isinstance(expr, If) and expr.cond == cond:
        chosen = expr.then if take_then else expr.orelse
        return _take_branch(chosen, cond, take_then)
    return _rebuild(expr, lambda e: _take_branch(e, cond, take_then))


def split_cases(expr: Expr):
    """All branch combinations of an expression as (guards, body) pairs.

    Only conditions with no loop-variable dependence are split; anything
    else stays embedded in the body.
    """
    cases = []

    def go(guards, body):
        if len(cases) >= MAX_CASES:
            raise AnalysisError("too many branch combinations")
        cond = _find_splittable_if(body)
        if cond is None:
            cases.append((tuple(guards), body))
            return
        go(guards + flatten_and(cond), _take_branch(body, cond, True))
        go(guards + [Not(cond)], _take_branch(body, cond, False))

    go([], expr)
    return cases


def _concat_segments(e: Expr):
    if isinstance(e, ListConcat):
        return _concat_segments(e.left) + _concat_segments(e.right)
    return [e]


def _segment_size(seg: Expr, in_size):
    if isinstance(seg, SyntheticOutput):
        return 1
    if isinstance(seg, CtxRef) and seg.kind == "in":
        return in_size  # may be None
    if isinstance(seg, Index):
        return 1  # a single output picked out of a list
    return None


def reduce_case(expr: Expr, in_size):
    """Resolve concat indexing and synthetic field access inside one branch.

    ``in_size`` may be None when the branch does not pin the input count;
    reductions that need it are left untouched.  Raises DeadCase when an
    index provably falls outside the list.
    """

    def red(e):
        e = _rebuild(e, red) if not isinstance(e, (Lit, Var, CtxRef)) else e

        if isinstance(e, FieldAccess) and isinstance(e.obj, SyntheticOutput):
            for name, x in e.obj.fields:
                if name == e.field:
                    return x
            raise DeadCase(f"synthetic output lacks field {e.field!r}")
        if isinstance(e, ScriptOf) and isinstance(e.obj, SyntheticOutput):
            return e.obj.script
        if isinstance(e, Size) and isinstance(e.obj, (ListConcat, SyntheticOutput)):
            total = 0
            for seg in _concat_segments(e.obj):
                size = _segment_size(seg, in_size)
                if size is None:
                    return e
                total += size
            return Lit(total)
        if isinstance(e, Size) and isinstance(e.obj, CtxRef) and e.obj.kind == "in" \
                and in_size is not None:
            return Lit(in_size)
        if isinstance(e, Index) and isinstance(e.obj, (ListConcat, SyntheticOutput)) \
                and isinstance(e.index, Lit) and isinstance(e.index.value, int) \
                and not isinstance(e.index.value, bool):
            offset = e.index.value
            if offset < 0:
                raise DeadCase("negative list index")
            for seg in _concat_segments(e.obj):
                size = _segment_size(seg, in_size)
                if size is None:
                    return e
                if offset < size:
                    if isinstance(seg, CtxRef):
                        return red(Index(seg, Lit(offset)))
                    if size == 1 and offset == 0:
                        return seg
                    return e
                offset -= size
            raise DeadCase("list index beyond concatenation")
        return e

    return red(expr)


# ---------------------------------------------------------------------------
# Classification and case compilation as they were before derivation
# sorted each conjunct straight into the builder's records: conjuncts
# went into FieldRule/CopyRule/LookupRule records, which _compile_case
# regrouped into tagged tuples.  ``derive_build_rules`` converts the
# result to ``builder``'s records at the end and drops repeated seed
# checks, the only two steps that are new.

SCRIPT_FIELD = "script"  # rule slot for the output's guarding script


@record
class FieldRule:
    """out[index].field is assigned the value of ``expr`` (inputs only)."""
    out_index: int
    field: str
    expr: Expr


@record
class CopyRule:
    """out[index] is a copy of out[source] with overridden fields."""
    out_index: int
    source: int
    overrides: tuple  # of (field, Expr)


@record
class LookupRule:
    """in[index].field must equal ``expr`` over earlier inputs."""
    in_index: int
    field: str
    expr: Expr


@record
class CanonicalForm:
    out_rules: tuple  # FieldRule | CopyRule
    in_rules: tuple   # LookupRule
    residual: tuple   # Expr


@record
class NotCanonical:
    reason: str



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
        target, field = e.obj, SCRIPT_FIELD
    else:
        return None
    index = _slot_index(target, "out")
    return None if index is None else (index, field)


def _in_slot(e: Expr):
    """(index, field) when e is in[k].field with a literal index."""
    if not isinstance(e, FieldAccess):
        return None
    index = _slot_index(e.obj, "in")
    return None if index is None else (index, e.field)


def _is_out_size(e: Expr) -> bool:
    return isinstance(e, Size) and isinstance(e.obj, CtxRef) and e.obj.kind == "out"


def classify_conjuncts(conjuncts):
    """Sort conjuncts into rules; returns CanonicalForm or NotCanonical."""
    out_rules = []
    in_rules = []
    residual = []
    for conj in conjuncts:
        result = _classify_one(conj)
        if isinstance(result, NotCanonical):
            return result
        kind, rule = result
        if kind == "out":
            out_rules.append(rule)
        elif kind == "in":
            in_rules.append(rule)
        elif kind == "residual":
            residual.append(rule)
    return CanonicalForm(tuple(out_rules), tuple(in_rules), tuple(residual))


def _classify_one(conj: Expr):
    refs = scan_refs(conj)
    if refs.free_vars:
        return NotCanonical(
            f"conjunct has free variables: {script_source(conj)}")
    if not refs.uses_out:
        rule = _try_lookup_rule(conj)
        if rule is not None:
            return "in", rule
        return "residual", conj

    if isinstance(conj, Cmp) and conj.op == "=":
        for lhs, rhs in ((conj.left, conj.right), (conj.right, conj.left)):
            slot = _out_slot(lhs)
            if slot is not None and not scan_refs(rhs).uses_out:
                return "out", FieldRule(slot[0], slot[1], rhs)
        # out.size = <input-only expr> is a size check, not an assignment
        for lhs, rhs in ((conj.left, conj.right), (conj.right, conj.left)):
            if _is_out_size(lhs) and not scan_refs(rhs).uses_out:
                return "residual", conj
        return NotCanonical(
            "output field is not isolated on one side of the equality: "
            + script_source(conj))

    if isinstance(conj, CopyEq):
        ti = _slot_index(conj.target, "out")
        si = _slot_index(conj.source, "out")
        if ti is None or si is None:
            return NotCanonical(
                "copyEq over outputs must use literal indices: "
                + script_source(conj))
        if any(scan_refs(x).uses_out for _, x in conj.overrides):
            return NotCanonical(
                "copyEq override depends on outputs: " + script_source(conj))
        return "out", CopyRule(ti, si, conj.overrides)

    return NotCanonical(
        "conjunct mentions outputs but is not an assignment: "
        + script_source(conj))


def _try_lookup_rule(conj: Expr):
    if not (isinstance(conj, Cmp) and conj.op == "="):
        return None
    for lhs, rhs in ((conj.left, conj.right), (conj.right, conj.left)):
        slot = _in_slot(lhs)
        if slot is None:
            continue
        k, field = slot
        if k < 1:
            continue
        refs = scan_refs(rhs)
        if refs.uses_out or refs.bare_in or refs.in_size or refs.free_vars:
            continue
        if refs.max_in_index >= k:
            continue
        return LookupRule(k, field, rhs)
    return None


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


def derive_build_rules(script):
    """``builder.derive_build_rules`` on this module's rewrites and
    classification, returned as ``builder``'s records."""
    rules = _derive(ScriptRef(script))
    if isinstance(rules, NotBuildable):
        return rules
    return builder.BuildRules(tuple(_convert(case) for case in rules.cases))


def _convert(case):
    outputs = tuple(builder.CopyOf(*data) if kind == "copy" else builder.Assign(*data)
                    for _, kind, data in case.out_rules)
    return builder.BuildCase(tuple(dict.fromkeys(case.seed_checks)),
                             tuple(rules for _, rules in case.lookups), outputs)
