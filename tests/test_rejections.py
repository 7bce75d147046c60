"""Every reason the builder gives for a script it cannot build, in full.

One script per ``NotBuildable`` text, and scripts with two faults that
pin which one is reported: a conjunct of no rule's shape first, then the
input count, then the lookups, then the outputs in index order.  A free
variable cannot be parsed, so that script is built through the API.
Only ``derive_build_rules`` and ``str`` are used, so the pins read the
same on any version of the builder's internals.
"""

import pytest

from conftest import OVERSIZED_LETS
from utxo110.builder import derive_build_rules
from utxo110.lang import BoolOp, Cmp, CtxRef, FieldAccess, Index, Lit, ScriptOf, Var
from utxo110.parser import parse

OUT0 = Index(CtxRef("out"), Lit(0))
FREE_VARIABLE = BoolOp("&", Cmp("=", FieldAccess(OUT0, "x"), Var("y")),
                       Cmp("=", ScriptOf(OUT0), ScriptOf(CtxRef("self"))))
BRANCHES = " & ".join(f"(if in[0].f{i} then out[0].x = {i} else true)" for i in range(7))

REJECTIONS = {
    "free variable": (
        FREE_VARIABLE, "conjunct has free variables: out[0].x = y"),
    "not isolated": (
        "5 pow out[0].x mod 23 = 13",
        "output field is not isolated on one side of the equality: "
        "5 pow out[0].x mod 23 = 13"),
    "copy of an input": (
        "copyEq(out[1], in[0])",
        "copyEq over outputs must use literal indices: copyEq(out[1], in[0])"),
    "override reads outputs": (
        "(out[0].script = self.script) & copyEq(out[1], out[0], x <- out[0].x)",
        "copyEq override depends on outputs: copyEq(out[1], out[0], x <- out[0].x)"),
    "not an assignment": (
        "out[0].x < 3", "conjunct mentions outputs but is not an assignment: out[0].x < 3"),
    "no lookup": (
        "(in.size = 2) & (out[0].x = in[1].x)", "in[1] has no lookup rule"),
    "gap in outputs": (
        "(out[1].x = 1) & (out[1].script = self.script)",
        "output assignments are not contiguous from out[0]"),
    "copied and assigned": (
        "(out[0].script = self.script) & copyEq(out[1], out[0]) & (out[1].x = 2)",
        "out[1] is both copied and assigned"),
    "two copies": (
        "(out[0].script = self.script) & copyEq(out[1], out[0]) "
        "& copyEq(out[1], out[0], x <- 1)",
        "out[1] has several copy rules"),
    "copy of a later output": (
        "copyEq(out[0], out[1]) & (out[1].script = self.script)",
        "out[0] copies a later output out[1]"),
    "copy of itself": (
        "copyEq(out[0], out[0])", "out[0] copies a later output out[0]"),
    "assigned twice": (
        "(out[0].x = 1) & (out[0].x = 2) & (out[0].script = self.script)",
        "out[0].x is assigned more than once"),
    "no script": (
        "out[0].x = in[0].x", "out[0] has no script assignment"),
    "no branch": (
        "in.size = 0", "no branch admits a transaction"),
    "capture": (
        "map(2, i -> let v = i in map(2, i -> v = i)) = 0b00",
        "binding 'i' would capture a substituted variable"),
    "too many branches": (
        BRANCHES, "too many branch combinations"),
    "inlined too deep": (
        OVERSIZED_LETS["deepening"],
        "with its lets inlined the script nests 905 nodes deep, past the limit of 64"),
    "inlined too large": (
        OVERSIZED_LETS["doubling"],
        "with its lets inlined the script has more than 50000 nodes"),
    # two faults: the one reported
    "a bad conjunct before the input count": (
        "(in.size = 1) & (in[2].x = 0) & (out[0].x < 3)",
        "conjunct mentions outputs but is not an assignment: out[0].x < 3"),
    "a bad conjunct after an output fault": (
        "(out[1].x = 1) & (out[1].script = self.script) & (out[0].x < 3)",
        "conjunct mentions outputs but is not an assignment: out[0].x < 3"),
    "the lookups before the outputs": (
        "(out[1].x = in[1].x) & (out[1].script = self.script) & (in.size = 2)",
        "in[1] has no lookup rule"),
    "the outputs in index order": (
        "copyEq(out[1], out[1]) & (out[0].x = 1) & (out[0].x = 2)",
        "out[0].x is assigned more than once"),
    "copied and assigned before two copies": (
        "(out[0].script = self.script) & copyEq(out[1], out[0]) "
        "& copyEq(out[1], out[0]) & (out[1].x = 1)",
        "out[1] is both copied and assigned"),
    "an assignment twice before no script": (
        "(out[0].x = 1) & (out[0].x = 1)", "out[0].x is assigned more than once"),
}


@pytest.mark.parametrize("script, reason", REJECTIONS.values(), ids=REJECTIONS)
def test_rejection_text(script, reason):
    if isinstance(script, str):
        script = parse(script)
    assert str(derive_build_rules(script)) == "not buildable: " + reason
