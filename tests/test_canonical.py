from utxo110.canonical import (
    CanonicalForm, CopyRule, FieldRule, NotCanonical, SCRIPT_FIELD,
    analyze_canonical, inline_lets,
)
from utxo110.lang import Lit
from utxo110.parser import parse
from utxo110.rule110 import build_bit_script, build_layer_script


def test_layer_script_form():
    form = analyze_canonical(build_layer_script())
    assert isinstance(form, CanonicalForm)
    slots = [(r.out_index, r.field) for r in form.out_rules]
    assert slots == [(0, "layer"), (0, SCRIPT_FIELD)]
    assert form.in_rules == ()
    assert form.residual == ()


def test_bit_script_form():
    form = analyze_canonical(build_bit_script())
    assert isinstance(form, CanonicalForm)
    field_rules = [r for r in form.out_rules if isinstance(r, FieldRule)]
    copy_rules = [r for r in form.out_rules if isinstance(r, CopyRule)]
    assert [(r.out_index, r.field) for r in field_rules] == \
        [(0, "val"), (0, "x"), (0, "n"), (0, "mid"), (0, SCRIPT_FIELD)]
    assert [(r.out_index, r.source) for r in copy_rules] == [(1, 0), (2, 0)]
    # size checks stay as residual conjuncts
    assert len(form.residual) > 0


def test_trivial_script_is_vacuous():
    form = analyze_canonical(Lit(True))
    assert form == CanonicalForm((), (), ())


def test_discrete_log_not_canonical():
    result = analyze_canonical(parse("5 pow out[0].x mod 23 = 13"))
    assert isinstance(result, NotCanonical)
    assert "not isolated" in result.reason


def test_non_equality_output_use_rejected():
    result = analyze_canonical(parse("out[0].x < 3"))
    assert isinstance(result, NotCanonical)


def test_out_size_check_is_residual():
    form = analyze_canonical(parse("(out.size = 3) & (out[0].x = in[0].x)"))
    assert isinstance(form, CanonicalForm)
    assert len(form.out_rules) == 1
    assert len(form.residual) == 1


def test_mirrored_equality_accepted():
    form = analyze_canonical(parse("in[0].x + 1 = out[0].x"))
    assert isinstance(form, CanonicalForm)
    rule = form.out_rules[0]
    assert (rule.out_index, rule.field) == (0, "x")


def test_lookup_rule_extraction():
    form = analyze_canonical(parse("(in[1].x = in[0].x + 1) & in[1].mid"))
    assert isinstance(form, CanonicalForm)
    assert [(r.in_index, r.field) for r in form.in_rules] == [(1, "x"), (1, "mid")]


def test_lookup_rule_must_reference_earlier_inputs():
    # both orientations reference the input being located, so no rule
    form = analyze_canonical(parse("in[1].x = in[1].n"))
    assert isinstance(form, CanonicalForm)
    assert form.in_rules == ()
    assert len(form.residual) == 1
    # the mirrored orientation is picked up when it is well-founded
    form = analyze_canonical(parse("in[1].x = in[2].x"))
    assert [(r.in_index, r.field) for r in form.in_rules] == [(2, "x")]


def test_capture_under_map_rejected():
    result = analyze_canonical(
        parse("map(2, i -> let v = i in map(2, i -> v = i)) = 0b00"))
    assert isinstance(result, NotCanonical)
    assert "capture" in result.reason


def test_inline_lets_respects_shadowing():
    expr = parse("let a = 1 in let a = 2 in out[0].n = a")
    form = analyze_canonical(expr)
    assert isinstance(form, CanonicalForm)
    assert form.out_rules[0].expr == Lit(2)
    assert inline_lets(expr) == parse("out[0].n = 2")

