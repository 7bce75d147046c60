import tracemalloc

import pytest

import closure_oracle
from utxo110.interp import (
    FREE_ENTRIES, ArithmeticDomainError, CostLimitExceeded, EvalContext,
    EvalTypeError, IndexOutOfBounds, MissingField, WidthExceeded, evaluate,
)
from utxo110.lang import Bits, Lit
from utxo110.model import Output, Payload
from utxo110.parser import parse


def ctx_with(payload_pairs=(), outputs=()):
    """Minimal context: one input whose payload we control."""
    inp = Output(Lit(True), Payload(payload_pairs))
    return EvalContext(self_input=inp, inputs=(inp,), outputs=outputs)


def out_with(**fields):
    return Output(Lit(True), Payload(tuple(fields.items())))


def run(source, ctx=None, limit=10_000, max_width=256):
    return evaluate(parse(source), ctx or ctx_with(), limit, max_width=max_width)


class TestBasics:
    def test_literal_costs_one(self):
        value, receipt = evaluate(Lit(True), ctx_with(), 1)
        assert value is True
        assert receipt.total_cost == 1

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            evaluate(Lit(True), ctx_with(), 0)

    def test_cost_limit_aborts(self):
        with pytest.raises(CostLimitExceeded):
            run("1 + 1", limit=2)

    def test_deterministic(self):
        ctx = ctx_with((("layer", Bits.from_text("0110")),))
        a = run("map(self.layer.size, i -> self.layer[i])", ctx)
        b = run("map(self.layer.size, i -> self.layer[i])", ctx)
        assert a == b

    def test_self_must_be_an_input(self):
        a, b = out_with(x=1), out_with(x=2)
        with pytest.raises(ValueError):
            EvalContext(self_input=a, inputs=(b,), outputs=())


class TestArithmetic:
    def test_mod_is_mathematical(self):
        assert run("-1 mod 5")[0] == 4
        assert run("-7 mod 3")[0] == 2

    def test_mod_nonpositive_modulus(self):
        with pytest.raises(ArithmeticDomainError):
            run("1 mod 0")
        with pytest.raises(ArithmeticDomainError):
            run("1 mod -3")

    def test_bool_is_not_int(self):
        with pytest.raises(EvalTypeError):
            run("true + 1")
        with pytest.raises(EvalTypeError):
            run("1 = true")

    def test_arbitrary_precision(self):
        big = 10 ** 40
        assert run(f"{big} + {big}")[0] == 2 * big


class TestPowMod:
    def test_discrete_log_witness(self):
        # independent brute force over the exponent range
        solutions = [x for x in range(22) if pow(5, x, 23) == 13]
        assert solutions == [14]
        ctx = ctx_with(outputs=(out_with(x=14),))
        value, _ = run("5 pow out[0].x mod 23 = 13", ctx)
        assert value is True
        value, _ = run("5 pow out[0].x mod 23 = 13",
                       ctx_with(outputs=(out_with(x=15),)))
        assert value is False

    def test_cost_scales_with_exponent_bits(self):
        _, small = run("2 pow 1 mod 7")
        _, big = run("2 pow 255 mod 7")
        assert big.total_cost - small.total_cost == (255).bit_length() - (1).bit_length()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            run("2 pow -1 mod 7")


class TestMap:
    def test_produces_bits(self):
        ctx = ctx_with((("layer", Bits.from_text("011")),))
        value, _ = run("map(3, i -> self.layer[i])", ctx)
        assert value == Bits.from_text("011")

    def test_width_cap(self):
        with pytest.raises(WidthExceeded):
            run("map(257, i -> true)", max_width=256)

    def test_cost_linear_in_length(self):
        _, r4 = run("map(4, i -> true)")
        _, r5 = run("map(5, i -> true)")
        _, r6 = run("map(6, i -> true)")
        assert r5.total_cost - r4.total_cost == r6.total_cost - r5.total_cost > 0

    def test_body_must_be_bool(self):
        with pytest.raises(EvalTypeError):
            run("map(2, i -> i)")


class TestAccessors:
    def test_index_out_of_bounds(self):
        ctx = ctx_with((("layer", Bits.from_text("01")),))
        with pytest.raises(IndexOutOfBounds):
            run("self.layer[2]", ctx)
        with pytest.raises(IndexOutOfBounds):
            run("self.layer[-1]", ctx)
        with pytest.raises(IndexOutOfBounds):
            run("in[1].x", ctx)

    def test_missing_field(self):
        with pytest.raises(MissingField):
            run("self.nope", ctx_with((("x", 1),)))

    def test_sizes(self):
        ctx = ctx_with((("layer", Bits.from_text("0110")),),
                       outputs=(out_with(x=1), out_with(x=2)))
        assert run("self.layer.size", ctx)[0] == 4
        assert run("in.size", ctx)[0] == 1
        assert run("out.size", ctx)[0] == 2

    def test_script_handles_compare_by_bytes(self):
        ctx = ctx_with()
        assert run("self.script = in[0].script", ctx)[0] is True


class TestBoolOps:
    def test_strict_evaluation_costs_both_sides(self):
        # and, false, cmp, and both int literals: all five nodes visited
        _, r = run("false & (1 = 1)")
        assert r.total_cost == 5

    def test_if_is_lazy(self):
        _, taken = run("if true then 1 else 1 + 1 + 1")
        _, other = run("if false then 1 else 1 + 1 + 1")
        assert taken.total_cost < other.total_cost

    def test_xor(self):
        assert run("true ^ true")[0] is False
        assert run("true ^ false")[0] is True


class TestOutputValues:
    def test_synthetic_output_fields(self):
        ctx = ctx_with((("x", 3),))
        value, _ = run("output(val <- false, x <- in[0].x + 1,"
                       " script <- in[0].script).x", ctx)
        assert value == 4

    def test_concat_and_index(self):
        ctx = ctx_with((("x", 3),))
        src = "(output(x <- 9, script <- in[0].script) ++ in)[1].x"
        assert run(src, ctx)[0] == 3
        assert run("(in ++ in).size", ctx)[0] == 2

    def test_copy_eq_true_and_false(self):
        a = out_with(val=True, mid=False)
        b = out_with(val=True, mid=True)
        ctx = EvalContext(self_input=a, inputs=(a,), outputs=(a, b))
        assert run("copyEq(out[1], out[0], mid <- true)", ctx)[0] is True
        assert run("copyEq(out[1], out[0])", ctx)[0] is False

    def test_copy_eq_checks_script(self):
        a = out_with(val=True)
        b = Output(parse("1 = 1"), Payload((("val", True),)))
        ctx = EvalContext(self_input=a, inputs=(a,), outputs=(a, b))
        assert run("copyEq(out[1], out[0])", ctx)[0] is False

    def test_copy_eq_missing_override(self):
        a = out_with(val=True)
        ctx = EvalContext(self_input=a, inputs=(a,), outputs=(a, a))
        with pytest.raises(MissingField):
            run("copyEq(out[1], out[0], mid <- true)", ctx)

    def test_payload_order_matters(self):
        a = Output(Lit(True), Payload((("x", 1), ("y", 2))))
        b = Output(Lit(True), Payload((("y", 2), ("x", 1))))
        ctx = EvalContext(self_input=a, inputs=(a,), outputs=(a, b))
        assert run("copyEq(out[1], out[0])", ctx)[0] is False


def _doublings(count):
    """``in`` doubled ``count`` times by ``++``, then its size: a list of
    ``2 ** count`` entries for 4 × count + 4 nodes."""
    return "let a = in in " + "let a = a ++ a in " * count + "a.size"


@pytest.mark.parametrize("evaluator", [evaluate, closure_oracle.evaluate],
                         ids=["generated", "closure"])
class TestConcatCost:
    def test_short_lists_cost_one_per_concat(self, evaluator):
        assert 2 ** 6 == FREE_ENTRIES
        value, receipt = evaluator(parse(_doublings(6)), ctx_with(), 10_000)
        assert (value, receipt.total_cost) == (64, 6 * 4 + 4)

    def test_entries_past_the_free_ones_cost_one_each(self, evaluator):
        value, receipt = evaluator(parse(_doublings(8)), ctx_with(), 10_000)
        assert (value, receipt.total_cost) == (256, 8 * 4 + 4 + (128 - 64) + (256 - 64))
        with pytest.raises(CostLimitExceeded):
            evaluator(parse(_doublings(8)), ctx_with(), 8 * 4 + 4 + 64 + 191)

    def test_doubling_runs_out_of_cost_before_memory(self, evaluator):
        # 22 doublings would build 4,194,304 entries, about 32 MB, for
        # 92 units; the charge stops them at 2 ** 14 entries
        script = parse(_doublings(22))
        tracemalloc.start()
        try:
            with pytest.raises(CostLimitExceeded):
                evaluator(script, ctx_with(), 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
