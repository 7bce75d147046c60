"""Derivation on the shared let-DAG against the derivation it replaced.

``derivation_oracle`` holds the rewrites as they were when let inlining
copied a let's value into every use, and the conjunct classification
and case compilation from before the builder sorted each conjunct
straight into its records.  Scripts that use let-bound names at several
sites, and the random expressions of ``test_lang``, must give equal
expressions, equal ``Refs`` and the same ``AnalysisError`` or
``DeadCase`` both ways.  Those scripts, and conjunctions of conjunct
templates under ``if`` guards, must derive equal ``BuildRules`` of the
same interned ``ScriptRef``s, or the same ``NotBuildable``.  The work
test pins the point of the DAG rewrites: the nodes rebuilt grow with the
script, not with its inlined tree.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import derivation_oracle as oracle
from conftest import OVERSIZED_LETS, doubling, let_chain, node_count
from test_lang import _exprs, _extend, _leaf
from utxo110 import builder, canonical
from utxo110.builder import BuildRules, analyze_canonical
from utxo110.canonical import (
    MAX_INLINED_NODES, AnalysisError, DeadCase, inline_lets, inlined_size,
    reduce_case, scan_refs, split_cases,
)
from utxo110.lang import MAX_DEPTH, Let, Lit, ScriptRef, Var
from utxo110.parser import _node_depth, parse
from utxo110.rule110 import build_bit_script, build_layer_script

CHECK = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def outcome(f, *args):
    """``f(*args)``, or the type and message of the analysis error it raised."""
    try:
        return f(*args)
    except (AnalysisError, DeadCase) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# Scripts in the grid validator's shape: a list value chosen by an if
# chain, bound once and read at several sites.

_ints = st.sampled_from(["in[0].x", "in[0].n", "in[1].x", "1", "-2",
                         "in[0].n - 1"])
_outputs = st.builds(
    lambda x, n, mid: f"output(val <- false, x <- {x}, n <- {n}, mid <- {mid}, "
                      f"script <- in[0].script)",
    _ints, _ints, st.sampled_from(["true", "false"]))
_lists = st.one_of(
    st.just("in"),
    _outputs.map(lambda o: f"{o} ++ in"),
    _outputs.map(lambda o: f"in ++ {o}"),
    st.tuples(_outputs, _outputs).map(lambda t: f"{t[0]} ++ {t[1]} ++ in"),
)
_conds = st.sampled_from([
    "in.size = 1", "(in.size = 2) & in[0].mid", "(in[0].x = in[0].n) & (in.size = 1)",
    "in[0].x = -1", "in[0].mid", "!in[0].mid & (in.size = 3)",
])


def _if_chain(arms, last):
    """``if c1 then v1 elif … else last``, or ``last`` when there are no arms."""
    if not arms:
        return last
    return "if " + " elif ".join(f"{c} then {v}" for c, v in arms) + f" else {last}"


_if_chains = st.builds(_if_chain, st.lists(st.tuples(_conds, _lists), max_size=4), _lists)
_uses = st.sampled_from([
    "out[0].x = r[1].x", "out[0].n = r[0].n - 1", "r.size = 3", "out.size = 3",
    "r[1].x = r[0].x + 1", "r[2].n = r[0].n", "r[1].mid & !(r[0].mid | r[2].mid)",
    "out[0].val = ((r[0].val & r[1].val) ^ r[2].val)", "in[1].x = r[0].x + 1",
    "out[0].x = v + v", "in[1].n = v", "in[2].x = in[1].x + 1",
    "copyEq(out[1], out[0], mid <- r[0].mid)", "map(2, i -> r[i].mid) = 0b10",
    "map(2, i -> let w = i + v in map(1, i -> w = i)) = 0b00",  # captures i
    "(let r = r[0] ++ in in r.size) = 2",  # shadows r
    "map(2, v -> r[v].mid | (v = 0)) = 0b11",  # shadows v
])
_let_scripts = st.builds(
    lambda value, uses: parse(
        f"let r = {value} in let v = r[0].x in "
        + " & ".join(f"({u})" for u in uses + ["out[0].script = in[0].script"])),
    _if_chains, st.lists(_uses, min_size=1, max_size=6))

# test_lang's random expressions, with a let-bound name at their leaves
_open = st.recursive(st.one_of(_leaf, st.just(Var("v"))), _extend, max_leaves=12)
_let_exprs = st.builds(lambda value, body: Let("v", value, body), _exprs, _open)

_scripts = st.one_of(_let_scripts, _let_exprs, _exprs)

# Conjunctions of the conjunct shapes the builder sorts, over out[0..2]
# and in[0..3]: assignments either way round, copies, lookups, size
# checks and checks on the seed, some of them repeated, under if guards.
# One conjunct in twenty has a shape the builder rejects, so that most
# scripts get past the pass to the checks that follow it.
_values = st.sampled_from([
    "1", "in[0].x", "in[0].n - 1", "in[1].x + 1", "in[2].n", "in[3].mid",
    "in[0].script", "self.script", "in.size", "i0",
])
_assigns = st.builds(
    lambda i, f, v, flip: f"{v} = out[{i}].{f}" if flip else f"out[{i}].{f} = {v}",
    st.integers(0, 2), st.sampled_from(["x", "n", "mid", "script"]), _values,
    st.booleans())
_copies = st.builds(
    lambda i, j, over: f"copyEq(out[{i}], out[{j}]{over})",
    st.integers(0, 2), st.integers(0, 2),
    st.sampled_from(["", ", mid <- true", ", x <- in[0].x + 1, n <- i0"]))
_keys = st.sampled_from(["x", "n", "mid"])
_lookups = st.one_of(
    st.builds(
        lambda k, f, v, flip: f"{v} = in[{k}].{f}" if flip else f"in[{k}].{f} = {v}",
        st.integers(0, 3), _keys, _values, st.booleans()),
    st.builds(lambda k, f: f"in[{k}].{f} = in[{k - 1}].{f} + 1",
              st.integers(1, 3), _keys))
_sizes = st.builds(lambda side, n: f"{side}.size = {n}",
                   st.sampled_from(["in", "out"]), st.integers(0, 4))
_checks = st.sampled_from([
    "in[0].mid", "!in[0].mid", "in[0].x = in[0].n", "0 = 0", "!false",
    "-1 = -2 + 1", "true", "in[1].x < in[0].x",
])
_rejected = st.sampled_from([
    "out[0].x < 3", "out[0].x = out[1].x", "out[0] = in[0]",
    "copyEq(out[0], in[0])", "copyEq(out[in[0].x], out[0])",
    "copyEq(out[1], out[0], n <- out[0].n)",
])
_conjuncts = st.integers(0, 19).flatmap(lambda n: _rejected if n == 7 else st.one_of(
    _assigns, _assigns, _copies, _lookups, _lookups, _sizes, _checks))
_conjunctions = st.lists(_conjuncts, min_size=1, max_size=8).map(
    lambda cs: " & ".join(f"({c})" for c in cs))
_guards = st.sampled_from(["in[0].mid", "in.size = 2", "in[0].x = 1",
                           "out[0].x = 1", "(in.size = 1) & !in[0].mid"])
_guarded = st.recursive(
    _conjunctions,
    lambda inner: st.builds(lambda c, a, b: f"if {c} then {a} else {b}",
                            _guards, inner, inner),
    max_leaves=3)
_template_scripts = st.builds(
    lambda common, guarded: parse(f"let i0 = in[0].x + 1 in ({common}) & ({guarded})"),
    _conjunctions, _guarded)


def pipeline(inline, split, reduce, expr):
    """Every stage's outcome: inlined form, cases, and each case reduced
    under each input count a branch may pin."""
    inlined = outcome(inline, expr)
    if isinstance(inlined, tuple):
        return [inlined]
    stages = [inlined]
    cases = outcome(split, inlined)
    stages.append(cases)
    if isinstance(cases, list):
        for _, body in cases:
            stages.extend(outcome(reduce, body, n) for n in (None, 1, 2, 3))
    return stages


def assert_same_rules(ref):
    got, want = builder._derive.__wrapped__(ref), oracle.derive_build_rules(ref)
    assert got == want
    if isinstance(want, BuildRules):
        for new, old in zip(got.cases, want.cases):
            assert _script_refs(new) == _script_refs(old)
            assert all(a is b for a, b in zip(_script_refs(new), _script_refs(old)))


def _script_refs(value):
    if isinstance(value, ScriptRef):
        return [value]
    if isinstance(value, tuple):
        return [r for v in value for r in _script_refs(v)]
    if hasattr(value, "__record_fields__"):
        return [r for name in value.__record_fields__
                for r in _script_refs(getattr(value, name))]
    return []


@CHECK
@given(_scripts)
def test_rewrites_agree_with_the_tree_oracle(expr):
    assert scan_refs(expr) == oracle.scan_refs(expr)
    new = pipeline(inline_lets, split_cases, reduce_case, expr)
    old = pipeline(oracle.inline_lets, oracle.split_cases, oracle.reduce_case, expr)
    assert new == old
    if not isinstance(old[0], tuple):
        assert scan_refs(new[0]) == oracle.scan_refs(old[0])
        assert inlined_size(expr) == (node_count(old[0]), _node_depth(old[0]))


@CHECK
@given(_scripts)
def test_derived_rules_are_the_tree_oracles(expr):
    assert_same_rules(ScriptRef(expr))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_template_scripts)
def test_template_scripts_derive_the_oracles_rules(expr):
    assert_same_rules(ScriptRef(expr))


@pytest.mark.parametrize("script", [build_bit_script, build_layer_script])
def test_shipped_scripts_derive_the_tree_oracles_rules(script):
    assert_same_rules(ScriptRef(script()))


def test_ref_walk_reaches_the_grid_validators_rules():
    # Without this, the identity check in assert_same_rules would pass
    # on empty lists if _script_refs stopped descending into records.
    rules = builder._derive.__wrapped__(ScriptRef(build_bit_script()))
    assert _script_refs(rules)


def test_a_condition_on_true_is_not_one_on_1():
    # the two conditions differ only in a literal's type: each is a branch
    expr = parse("if in[0].x = 1 then (out[0].x = 1) & (out[0].script = self.script) "
                 "else if in[0].x = true then (out[0].x = 2) & (out[0].script = self.script) "
                 "else (out[0].x = 3) & (out[0].script = self.script)")
    rules = builder._derive.__wrapped__(ScriptRef(expr))
    assert len(rules.cases) == 3
    assert [rule.expr for case in rules.cases
            for made in case.outputs
            for _, rule in made.fields] == [Lit(1), Lit(2), Lit(3)]
    assert_same_rules(ScriptRef(expr))


@pytest.mark.parametrize("script", [
    build_bit_script(),
    parse("(in.size = 2) & (out[0].x = in[1].x)"),  # in[1] has no lookup rule
])
def test_one_ref_scan_per_derivation_dropped_when_it_returns(script, monkeypatch):
    want = oracle.derive_build_rules(script)
    scanners = []
    make = canonical._ref_scanner

    def recorded():
        scan = make()
        scanners.append(weakref.ref(scan))
        return scan

    monkeypatch.setattr(canonical, "_ref_scanner", recorded)
    assert builder._derive.__wrapped__(ScriptRef(script)) == want
    # every scan_refs call of the derivation shared one memo, and nothing
    # holds it, or the nodes it maps, once the derivation has returned
    assert len(scanners) == 1
    gc.collect()
    assert scanners[0]() is None


def doubling_lets(count: int):
    return parse(let_chain(count, doubling))


def test_rebuilt_nodes_grow_with_the_script_not_its_inlined_tree(monkeypatch):
    rebuild = canonical._rebuild
    built = [0]

    def counting(e, f):
        result = rebuild(e, f)
        built[0] += result is not e
        return result

    monkeypatch.setattr(canonical, "_rebuild", counting)
    counts = []
    for lets in (8, 12):
        built[0] = 0
        analyze_canonical(doubling_lets(lets))
        builder._derive.__wrapped__(ScriptRef(doubling_lets(lets)))
        counts.append(built[0])
    # the inlined tree grows 16x from 8 to 12 lets
    assert inlined_size(doubling_lets(12))[0] > 15 * inlined_size(doubling_lets(8))[0]
    assert 0 < counts[1] <= 2 * counts[0]


@pytest.mark.parametrize("name, limit", [
    ("doubling", f"more than {MAX_INLINED_NODES} nodes"),
    ("deepening", f"nests 905 nodes deep, past the limit of {MAX_DEPTH}"),
])
def test_inlining_limits(name, limit):
    script = parse(OVERSIZED_LETS[name])
    with pytest.raises(AnalysisError, match=limit):
        inline_lets(script)
