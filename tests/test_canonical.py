"""How ``derive_build_rules`` sorts a branch's conjuncts into the records
of a ``BuildCase``: seed checks, lookup keys and output rules."""

from utxo110.builder import (
    Assign, BuildCase, BuildRules, CopyOf, NotBuildable, derive_build_rules,
)
from utxo110.canonical import inline_lets
from utxo110.lang import Lit, ScriptRef
from utxo110.parser import parse
from utxo110.rule110 import build_bit_script, build_layer_script


def only_case(source):
    rules = derive_build_rules(parse(source))
    assert isinstance(rules, BuildRules)
    (case,) = rules.cases
    return case


def test_layer_script_form():
    rules = derive_build_rules(build_layer_script())
    (case,) = rules.cases
    (out,) = case.outputs
    assert isinstance(out, Assign)
    assert [field for field, _ in out.fields] == ["layer"]
    assert out.script == ScriptRef(parse("self.script"))
    assert case.lookups == ()
    assert case.seed_checks == ()


def test_bit_script_form():
    rules = derive_build_rules(build_bit_script())
    for case in rules.cases:
        first, *copies = case.outputs
        assert [field for field, _ in first.fields] == ["val", "x", "n", "mid"]
        assert first.script == ScriptRef(parse("in[0].script"))
        assert [(type(c), c.source) for c in copies] == [(CopyOf, 0), (CopyOf, 0)]
    # checks on the seed alone stay, each once
    seed_checks = [check for case in rules.cases for check in case.seed_checks]
    assert seed_checks
    assert all(len(set(case.seed_checks)) == len(case.seed_checks)
               for case in rules.cases)


def test_trivial_script_is_vacuous():
    assert derive_build_rules(Lit(True)) == BuildRules((BuildCase((), (), ()),))


def test_discrete_log_not_canonical():
    result = derive_build_rules(parse("5 pow out[0].x mod 23 = 13"))
    assert isinstance(result, NotBuildable)
    assert "not isolated" in result.reason


def test_non_equality_output_use_rejected():
    result = derive_build_rules(parse("out[0].x < 3"))
    assert isinstance(result, NotBuildable)


def test_out_size_check_is_residual():
    # a check on out.size is left to validation: no rule, no seed check
    case = only_case("(out.size = 1) & (out[0].x = in[0].x) "
                     "& (out[0].script = self.script)")
    assert case == only_case("(out[0].x = in[0].x) & (out[0].script = self.script)")
    assert case.seed_checks == ()


def test_mirrored_equality_accepted():
    (out,) = only_case("(in[0].x + 1 = out[0].x) & (out[0].script = self.script)").outputs
    assert out.fields == (("x", ScriptRef(parse("in[0].x + 1"))),)


def test_lookup_rule_extraction():
    case = only_case("(in[1].x = in[0].x + 1) & in[1].mid")
    assert case.input_count == 2
    assert [[field for field, _ in keys] for keys in case.lookups] == [["x", "mid"]]


def test_lookup_rule_must_reference_earlier_inputs():
    # both orientations reference the input being located, so no key
    case = only_case("(in[1].x = in[0].x) & (in[1].x = in[1].n)")
    assert case.lookups == ((("x", ScriptRef(parse("in[0].x"))),),)
    # the mirrored orientation is picked up when it is well-founded
    case = only_case("(in[1].x = in[0].x) & (in[1].n = in[2].n)")
    assert case.lookups[1] == (("n", ScriptRef(parse("in[1].n"))),)


def test_capture_under_map_rejected():
    result = derive_build_rules(
        parse("map(2, i -> let v = i in map(2, i -> v = i)) = 0b00"))
    assert isinstance(result, NotBuildable)
    assert "capture" in result.reason


def test_inline_lets_respects_shadowing():
    (out,) = only_case("let a = 1 in let a = 2 in "
                       "(out[0].n = a) & (out[0].script = self.script)").outputs
    assert out.fields == (("n", ScriptRef(Lit(2))),)
    assert inline_lets(parse("let a = 1 in let a = 2 in out[0].n = a")) \
        == parse("out[0].n = 2")


def test_repeated_seed_checks_kept_once():
    case = only_case("in[0].mid & (0 = 0) & in[0].mid & !false & (0 = 0) "
                     "& (out[0].script = self.script)")
    assert [check.expr for check in case.seed_checks] \
        == [parse("in[0].mid = true"), parse("0 = 0"), parse("!false")]
