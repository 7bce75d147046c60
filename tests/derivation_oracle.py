"""The let inlining, branch splitting and reduction rewrites as they were
before they worked on the shared let-DAG, kept as a reference for
differential tests.

Each rewrite here walks the let-inlined script as a tree, so a let value
used at k sites is copied and rewritten k times.  ``utxo110.canonical``
memoizes the same rewrites per node; tests require equal expressions,
equal ``Refs``, or the same ``AnalysisError`` or ``DeadCase``.  These
functions are ``utxo110.canonical``'s from before that change, unedited
but for ``scan_refs``, which collects its fields in locals and builds
one ``Refs`` at the end now that ``Refs`` is frozen; its walk is the
same.
"""

from __future__ import annotations

from utxo110.canonical import AnalysisError, DeadCase, MAX_CASES, Refs, flatten_and
from utxo110.lang import (
    Arith, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess, If, Index, Let,
    ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, Size,
    SyntheticOutput, Var, children,
)


def scan_refs(expr: Expr) -> Refs:
    uses_out = uses_self = bare_in = in_size = False
    max_in_index = -1
    free = set()

    def walk(e, bound):
        nonlocal uses_out, uses_self, bare_in, in_size, max_in_index
        if isinstance(e, CtxRef):
            if e.kind == "out":
                uses_out = True
            elif e.kind == "self":
                uses_self = True
            else:
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
    return Refs(uses_out, uses_self, bare_in, in_size, max_in_index, frozenset(free))


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
