"""Canonical-form analysis of guarding scripts.

A script is in canonical form when it is a conjunction of

* output assignments  ``out[i].field = f(inputs)``,
* input lookups       ``in[k].field = g(in[0..k-1])``,
* residual checks     (size checks and other input-only predicates).

Such a script doubles as a generation procedure: lookups locate the
inputs, assignments compute the outputs, and the script itself is the
final consistency check.  ``analyze_canonical`` extracts that structure
or reports why a conjunct resists it.  The helpers at the bottom
(let inlining, branch splitting, structural reduction) are shared with
the transaction builder, which needs a per-branch view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import (
    Arith, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess, If, Index, Let,
    ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, Size,
    SyntheticOutput, Var, children, script_source,
)

SCRIPT_FIELD = "script"  # rule slot for the output's guarding script


class AnalysisError(Exception):
    """Script shape the analyzer cannot handle (e.g. variable shadowing)."""


@dataclass(frozen=True)
class FieldRule:
    """out[index].field is assigned the value of ``expr`` (inputs only)."""
    out_index: int
    field: str
    expr: Expr


@dataclass(frozen=True)
class CopyRule:
    """out[index] is a copy of out[source] with overridden fields."""
    out_index: int
    source: int
    overrides: tuple  # of (field, Expr)


@dataclass(frozen=True)
class LookupRule:
    """in[index].field must equal ``expr`` over earlier inputs."""
    in_index: int
    field: str
    expr: Expr


@dataclass(frozen=True)
class CanonicalForm:
    out_rules: tuple  # FieldRule | CopyRule
    in_rules: tuple   # LookupRule
    residual: tuple   # Expr


@dataclass(frozen=True)
class NotCanonical:
    reason: str


# ---------------------------------------------------------------------------
# Reference analysis

@dataclass
class Refs:
    uses_out: bool = False
    uses_self: bool = False
    bare_in: bool = False
    in_size: bool = False
    max_in_index: int = -1
    free_vars: frozenset = frozenset()


def scan_refs(expr: Expr) -> Refs:
    refs = Refs()
    free = set()

    def walk(e, bound):
        if isinstance(e, CtxRef):
            if e.kind == "out":
                refs.uses_out = True
            elif e.kind == "self":
                refs.uses_self = True
            else:
                refs.bare_in = True
            return
        if isinstance(e, Var):
            if e.name not in bound:
                free.add(e.name)
            return
        if isinstance(e, Index) and isinstance(e.obj, CtxRef) and e.obj.kind == "in" \
                and isinstance(e.index, Lit) and isinstance(e.index.value, int) \
                and not isinstance(e.index.value, bool):
            refs.max_in_index = max(refs.max_in_index, e.index.value)
            walk(e.index, bound)
            return
        if isinstance(e, Size) and isinstance(e.obj, CtxRef) and e.obj.kind == "in":
            refs.in_size = True
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
    refs.free_vars = frozenset(free)
    return refs


# ---------------------------------------------------------------------------
# Let inlining (capture-checked substitution)

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


# ---------------------------------------------------------------------------
# Conjunct handling

def flatten_and(expr: Expr) -> list:
    if isinstance(expr, BoolOp) and expr.op == "&":
        return flatten_and(expr.left) + flatten_and(expr.right)
    return [expr]


def _is_bool_atom(e: Expr) -> bool:
    """Expressions meaningfully rewritten as ``e = true/false``."""
    return isinstance(e, (FieldAccess, Index, Var))


def normalize_conjunct(e: Expr) -> list:
    """Rewrite a conjunct to equality shape where that is loss-free."""
    if isinstance(e, Lit) and e.value is True:
        return []
    if isinstance(e, Not):
        inner = e.operand
        if isinstance(inner, Not):
            return normalize_conjunct(inner.operand)
        if isinstance(inner, BoolOp) and inner.op == "|":
            return normalize_conjunct(Not(inner.left)) + normalize_conjunct(Not(inner.right))
        if _is_bool_atom(inner):
            return [Cmp("=", inner, Lit(False))]
        return [e]
    if _is_bool_atom(e):
        return [Cmp("=", e, Lit(True))]
    return [e]


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


def analyze_canonical(script: Expr):
    """Extract the flat canonical form of a script, branches left in place."""
    try:
        inlined = inline_lets(script)
    except AnalysisError as exc:
        return NotCanonical(str(exc))
    conjuncts = []
    for conj in flatten_and(inlined):
        conjuncts.extend(normalize_conjunct(conj))
    return classify_conjuncts(conjuncts)


def rules_to_expr(form: CanonicalForm) -> Expr:
    """Reassemble a canonical form into one boolean expression."""
    parts = []
    for rule in form.out_rules:
        if isinstance(rule, FieldRule):
            target = Index(CtxRef("out"), Lit(rule.out_index))
            lhs = ScriptOf(target) if rule.field == SCRIPT_FIELD \
                else FieldAccess(target, rule.field)
            parts.append(Cmp("=", lhs, rule.expr))
        else:
            parts.append(CopyEq(Index(CtxRef("out"), Lit(rule.out_index)),
                                Index(CtxRef("out"), Lit(rule.source)),
                                rule.overrides))
    for rule in form.in_rules:
        lhs = FieldAccess(Index(CtxRef("in"), Lit(rule.in_index)), rule.field)
        parts.append(Cmp("=", lhs, rule.expr))
    parts.extend(form.residual)
    if not parts:
        return Lit(True)
    expr = parts[0]
    for p in parts[1:]:
        expr = BoolOp("&", expr, p)
    return expr


# ---------------------------------------------------------------------------
# Branch splitting and structural reduction (used by the builder)

MAX_CASES = 64


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


class DeadCase(Exception):
    """Branch combination that can never validate."""


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
