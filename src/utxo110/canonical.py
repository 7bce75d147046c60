"""The rewrites that bring a guarding script to the builder's shape.

A script is in canonical form when each of its branches is a conjunction
of output assignments ``out[i].field = f(inputs)``, input lookups
``in[k].field = g(in[0..k-1])`` and checks over the inputs.  Such a
script doubles as a generation procedure: lookups locate the inputs,
assignments compute the outputs, and the script itself is the final
consistency check.

This module holds the rewrites on the way there, all over the let-DAG:
``scan_refs`` finds what an expression reads, ``inline_lets`` removes
the lets, ``split_cases`` splits the branches at their ``if``s,
``reduce_case`` resolves list concatenation and synthetic outputs in one
branch, and ``flatten_and`` with ``normalize_conjunct`` cut a branch into
conjuncts of equality shape.  ``builder`` sorts those conjuncts into the
rules it runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .lang import (
    MAX_DEPTH, NODE_FIELDS, BoolOp, Cmp, CtxRef, Expr, FieldAccess, If,
    Index, Let, ListConcat, Lit, MapIndices, Not, ScriptOf, Size,
    SyntheticOutput, Var, children, record,
)


class AnalysisError(Exception):
    """Script shape the analyzer cannot handle (e.g. variable shadowing)."""


# ---------------------------------------------------------------------------
# Walks over the let-DAG
#
# Each walk below maps a node to its result once per call (the reference
# scan once per ``shared_ref_scan`` block) and reuses that result
# wherever the node appears again.  Inlining leaves a let's value
# as one shared object at every use, so the walks take time linear in
# the distinct nodes of that DAG, where a tree walk would copy and
# rewrite the value once per use.

def _per_node(step):
    """``step`` as a function that runs once per distinct node object and
    returns that first result for every later visit of the node."""
    memo = {}

    def rewrite(e):
        hit = memo.get(id(e))
        if hit is None:
            hit = memo[id(e)] = (e, step(e))  # e stays alive, so its id does too
        return hit[1]

    return rewrite


# ---------------------------------------------------------------------------
# Reference analysis

@record
class Refs:
    uses_out: bool = False
    bare_in: bool = False
    in_size: bool = False
    max_in_index: int = -1
    free_vars: frozenset = frozenset()


def _ref_scanner():
    """``scan_refs`` as a function that finds each node's ``Refs`` once,
    from its children's, and keeps it for its own lifetime."""

    def step(e):
        if isinstance(e, CtxRef):
            return Refs(uses_out=e.kind == "out", bare_in=e.kind not in ("out", "self"))
        if isinstance(e, Var):
            return Refs(free_vars=frozenset((e.name,)))
        if isinstance(e, Index) and isinstance(e.obj, CtxRef) and e.obj.kind == "in" \
                and isinstance(e.index, Lit) and isinstance(e.index.value, int) \
                and not isinstance(e.index.value, bool):
            return Refs(max_in_index=max(-1, e.index.value))
        if isinstance(e, Size) and isinstance(e.obj, CtxRef) and e.obj.kind == "in":
            return Refs(in_size=True)
        if isinstance(e, MapIndices):
            return _merge_refs(scan(e.length), scan(e.body), e.var)
        if isinstance(e, Let):
            return _merge_refs(scan(e.value), scan(e.body), e.name)
        refs = Refs()
        for c in children(e):
            refs = _merge_refs(refs, scan(c))
        return refs

    scan = _per_node(step)
    return scan


def _merge_refs(a: Refs, b: Refs, bound=None) -> Refs:
    """What reading both ``a`` and ``b`` reads, with ``bound`` bound in b."""
    return Refs(a.uses_out or b.uses_out, a.bare_in or b.bare_in,
                a.in_size or b.in_size, max(a.max_in_index, b.max_in_index),
                a.free_vars | (b.free_vars - {bound}))


# The scanner that every ``scan_refs`` call shares inside a
# ``shared_ref_scan`` block, or None outside one.
_SHARED_SCAN = ContextVar("_SHARED_SCAN", default=None)


def scan_refs(expr: Expr) -> Refs:
    return (_SHARED_SCAN.get() or _ref_scanner())(expr)


@contextmanager
def shared_ref_scan():
    """Within the block every ``scan_refs`` call keeps each node's ``Refs``
    for the later ones, so a shared node is scanned once per block.  A
    node's ``Refs`` depend on nothing else.  A block inside another shares
    its memo; the outermost drops it, with the nodes it holds, on exit."""
    token = _SHARED_SCAN.set(_SHARED_SCAN.get() or _ref_scanner())
    try:
        yield
    finally:
        _SHARED_SCAN.reset(token)


# ---------------------------------------------------------------------------
# Let inlining (capture-checked substitution)

# The largest inlined form, in tree nodes, that analysis accepts.  Rule
# expressions are cut from it, and their canonical bytes, their generated
# code and ``analyze``'s printout spell it out as a tree, each in time
# linear in its tree size.  Lets can make that size exponential in the
# script's length (each ``let a2 = a1 + a1`` doubles it), so it is
# bounded here: about ten times the 5,121 nodes of the grid validator.
MAX_INLINED_NODES = 50_000


def inlined_size(expr: Expr):
    """``(nodes, depth)`` of ``inline_lets(expr)``, found in one pass over
    ``expr`` without building the inlined form: a let-bound name counts
    as the inlined form of its value."""

    def size(e, env):
        if isinstance(e, Var) and e.name in env:
            return env[e.name]
        if isinstance(e, Let):
            return size(e.body, {**env, e.name: size(e.value, env)})
        if isinstance(e, MapIndices):  # the loop variable is one node
            parts = [size(e.length, env), size(e.body, {**env, e.var: (1, 1)})]
        else:
            parts = [size(c, env) for c in children(e)]
        return 1 + sum(n for n, _ in parts), 1 + max((d for _, d in parts), default=0)

    return size(expr, {})


def substitute(expr: Expr, name: str, value: Expr) -> Expr:
    value_free = scan_refs(value).free_vars

    def step(e):
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

    sub = _per_node(step)
    return sub(expr)


def _rebuild(e: Expr, f):
    """``e`` with ``f`` applied to each child in field order, or ``e``
    itself when ``f`` returns every child unchanged."""
    values = []
    changed = False
    for name, holds in NODE_FIELDS[type(e)]:
        old = getattr(e, name)
        if holds == "expr":
            new = f(old)
            changed = changed or new is not old
        elif holds == "pairs":
            new = tuple((n, f(x)) for n, x in old)
            changed = changed or any(x is not y for (_, x), (_, y) in zip(new, old))
        else:
            new = old
        values.append(new)
    return type(e)(*values) if changed else e


def inline_lets(expr: Expr) -> Expr:
    """Eliminate every let by substitution.

    The result shares each let's value among its uses.  Raises
    AnalysisError when the inlined form would nest deeper than
    ``MAX_DEPTH``, which bounds every later walk's recursion as it does
    for scripts, or would hold more than ``MAX_INLINED_NODES`` nodes.
    """
    nodes, depth = inlined_size(expr)
    if depth > MAX_DEPTH:
        raise AnalysisError(f"with its lets inlined the script nests {depth} "
                            f"nodes deep, past the limit of {MAX_DEPTH}")
    if nodes > MAX_INLINED_NODES:
        raise AnalysisError(f"with its lets inlined the script has more than "
                            f"{MAX_INLINED_NODES} nodes")

    def step(e):
        if isinstance(e, Let):
            return inline(substitute(e.body, e.name, inline(e.value)))
        return _rebuild(e, inline)

    inline = _per_node(step)
    return inline(expr)


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


# ---------------------------------------------------------------------------
# Branch splitting and structural reduction

MAX_CASES = 64


def _find_splittable_if(expr: Expr):
    """The condition of the first ``if`` in pre-order whose condition has
    no free variables, or None."""

    def step(e):
        if isinstance(e, If) and not scan_refs(e.cond).free_vars:
            return e.cond
        for c in children(e):
            found = find(c)
            if found is not None:
                return found
        return None

    find = _per_node(step)
    return find(expr)


def _take_branch(expr: Expr, cond: Expr, take_then: bool) -> Expr:
    def step(e):
        if isinstance(e, If) and e.cond == cond:
            return take(e.then if take_then else e.orelse)
        return _rebuild(e, take)

    take = _per_node(step)
    return take(expr)


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

    with shared_ref_scan():
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

    def step(e):
        e = _rebuild(e, red)

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

    red = _per_node(step)
    return red(expr)
