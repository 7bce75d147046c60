import pytest

from utxo110.lang import (
    MAX_DEPTH, Arith, BoolOp, Cmp, CtxRef, Index, Let, Lit, Not, PowMod,
    ScriptOf, Var,
)
from utxo110.parser import ArityError, ParseError, UnknownNameError, parse


def test_script_equality_check_shape():
    expr = parse("self.script = out[0].script")
    assert expr == Cmp("=", ScriptOf(CtxRef("self")),
                       ScriptOf(Index(CtxRef("out"), Lit(0))))


def test_transition_formula_shape():
    expr = parse("let l = true in let c = true in let r = true in"
                 " (l & c & r) ^ (c & r) ^ c ^ r")
    body = expr.body.body.body
    l, c, r = Var("l"), Var("c"), Var("r")
    assert body == BoolOp(
        "^",
        BoolOp("^",
               BoolOp("^", BoolOp("&", BoolOp("&", l, c), r), BoolOp("&", c, r)),
               c),
        r)


def test_truncated_input_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse("out[0].")
    assert err.value.line == 1
    assert err.value.col >= 7


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("true &\n  %")
    assert err.value.line == 2


def test_unbound_identifier():
    with pytest.raises(UnknownNameError):
        parse("frob = 1")


def test_map_variable_scoping():
    parse("map(3, i -> i = 0)")
    with pytest.raises(UnknownNameError):
        parse("map(3, i -> true) & i = 0")


def test_let_scoping():
    parse("let a = 1 in a = 1")
    with pytest.raises(UnknownNameError):
        parse("(let a = 1 in a = 1) & a = 1")


def test_output_requires_script():
    with pytest.raises(ArityError):
        parse("output(val <- true)")


def test_output_rejects_duplicate_and_reserved():
    with pytest.raises(ArityError):
        parse("output(val <- true, val <- false, script <- in[0].script)")
    with pytest.raises(ArityError):
        parse("output(size <- 1, script <- in[0].script)")


def test_copy_eq_needs_two_arguments():
    with pytest.raises(ArityError):
        parse("copyEq(out[0])")


def test_copy_eq_rejects_script_override():
    with pytest.raises(ArityError):
        parse("copyEq(out[1], out[0], script <- in[0].script)")


def test_pow_requires_mod():
    with pytest.raises(ParseError):
        parse("2 pow 3")


def test_pow_mod_binds_before_comparison():
    expr = parse("5 pow out[0].x mod 23 = 13")
    assert isinstance(expr, Cmp)
    assert isinstance(expr.left, PowMod)


def test_mod_binds_tighter_than_addition():
    assert parse("1 + 2 mod 3") == Arith("+", Lit(1), Arith("mod", Lit(2), Lit(3)))


def test_boolean_precedence():
    # & over ^, ^ over |, comparisons tighter than all of them
    expr = parse("true | false ^ true & false")
    assert expr == BoolOp("|", Lit(True),
                          BoolOp("^", Lit(False), BoolOp("&", Lit(True), Lit(False))))
    expr = parse("1 = 1 & 2 = 2")
    assert expr == BoolOp("&", Cmp("=", Lit(1), Lit(1)), Cmp("=", Lit(2), Lit(2)))


def test_comparison_not_associative():
    with pytest.raises(ParseError):
        parse("1 = 2 = 3")


def test_negative_literals_fold():
    assert parse("-1") == Lit(-1)
    assert parse("1 - -2") == Arith("-", Lit(1), Lit(-2))
    assert parse("-in[0].x") == Arith("-", Lit(0), parse("in[0].x"))


def test_unary_not():
    assert parse("!!true") == Not(Not(Lit(True)))


def test_comments_and_whitespace():
    assert parse("1 +\n 2 # trailing\n") == parse("1+2")


def test_let_value_may_be_context_list():
    from utxo110.lang import Size
    expr = parse("let a = in in a.size = 1")
    assert expr == Let("a", CtxRef("in"), Cmp("=", Size(Var("a")), Lit(1)))


def test_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse("1 = 1 extra")


@pytest.mark.parametrize("nested", [
    lambda n: "(" * (n - 1) + "1" + ")" * (n - 1),  # each expression counts
    lambda n: "!" * (n - 1) + "true",               # each unary operator counts
    lambda n: "-" * (n - 1) + "1",
    lambda n: " & ".join(["true"] * n),             # nodes of a chain count
    lambda n: "in" + "[0]" * (n - 1),
])
def test_nesting_limit(nested):
    parse(nested(MAX_DEPTH))
    with pytest.raises(ParseError, match="nests deeper than"):
        parse(nested(MAX_DEPTH + 1))
    with pytest.raises(ParseError, match="nests deeper than"):
        parse(nested(5_000))


# Binds a, b, c and d on line 1, so that each malformed text sits on line 2
# and its column is the one an error reports.
_BOUND = "let a = 1 in let b = 2 in let c = 3 in let d = 4 in\n"
_EMPTY = "expected an expression, found 'end of input'"
_NOT_ASSOCIATIVE = "comparison is not associative; parenthesize"
_POW = "'pow' must be followed by 'mod'"
_POW_MOD = "'mod' cannot follow 'pow .. mod ..'; parenthesize"


@pytest.mark.parametrize("source, error, message, line, col", [
    # a comparison takes no second comparison, at either level of nesting
    (_BOUND + "a = b = c", ParseError, _NOT_ASSOCIATIVE, 2, 7),
    (_BOUND + "a < b = c", ParseError, _NOT_ASSOCIATIVE, 2, 7),
    (_BOUND + "a = b < c", ParseError, _NOT_ASSOCIATIVE, 2, 7),
    (_BOUND + "a = b & c = d = a", ParseError, _NOT_ASSOCIATIVE, 2, 15),
    ("1 = (2 = 3) = 4", ParseError, _NOT_ASSOCIATIVE, 1, 13),
    # 'pow' needs its 'mod', and no 'mod' may follow 'pow .. mod ..'
    (_BOUND + "a pow b", ParseError, _POW, 2, 3),
    (_BOUND + "a pow b = c", ParseError, _POW, 2, 3),
    ("2 pow 3 mod 5 mod 7", ParseError, _POW_MOD, 1, 15),
    ("1 + 2 pow 3 mod 5 mod 7", ParseError, _POW_MOD, 1, 19),
    ("(2 pow 3 mod 5 mod 7)", ParseError, _POW_MOD, 1, 16),
    ("map(2 pow 3 mod 5 mod 7, i -> true)", ParseError, _POW_MOD, 1, 19),
    # ... also where a 'let' body or an 'else' branch would end before it
    (_BOUND + "a pow b mod c mod d", ParseError, _POW_MOD, 2, 15),
    ("let d = 4 in 2 pow 3 mod 5 mod 7", ParseError, _POW_MOD, 1, 28),
    ("if true then 1 else 2 pow 3 mod 5 mod 7", ParseError, _POW_MOD, 1, 35),
    ("2 mod 3 pow 4 mod 5", ParseError, "unexpected 'pow' after expression", 1, 9),
    # a missing operand
    ("true |", ParseError, _EMPTY, 1, 7),
    ("true ^", ParseError, _EMPTY, 1, 7),
    ("true &", ParseError, _EMPTY, 1, 7),
    ("1 =", ParseError, _EMPTY, 1, 4),
    ("1 <", ParseError, _EMPTY, 1, 4),
    ("in ++", ParseError, _EMPTY, 1, 6),
    ("1 +", ParseError, _EMPTY, 1, 4),
    ("1 -", ParseError, _EMPTY, 1, 4),
    ("1 mod", ParseError, _EMPTY, 1, 6),
    ("2 pow", ParseError, _EMPTY, 1, 6),
    ("2 pow 3 mod", ParseError, _EMPTY, 1, 12),
    ("!", ParseError, _EMPTY, 1, 2),
    ("-", ParseError, _EMPTY, 1, 2),
    ("1 + !", ParseError, _EMPTY, 1, 6),
    ("true | | false", ParseError, "expected an expression, found '|'", 1, 8),
    ("1 + + 2", ParseError, "expected an expression, found '+'", 1, 5),
    ("1 = = 2", ParseError, "expected an expression, found '='", 1, 5),
    ("1 +\n  mod 2", ParseError, "expected an expression, found 'mod'", 2, 3),
    # a leading binary operator
    ("| true", ParseError, "expected an expression, found '|'", 1, 1),
    ("^ true", ParseError, "expected an expression, found '^'", 1, 1),
    ("& true", ParseError, "expected an expression, found '&'", 1, 1),
    ("= 1", ParseError, "expected an expression, found '='", 1, 1),
    ("< 1", ParseError, "expected an expression, found '<'", 1, 1),
    ("++ in", ParseError, "expected an expression, found '++'", 1, 1),
    ("+ 1", ParseError, "expected an expression, found '+'", 1, 1),
    ("mod 1", ParseError, "expected an expression, found 'mod'", 1, 1),
    ("pow 1", ParseError, "expected an expression, found 'pow'", 1, 1),
    # the nesting limit: the parser's own at the token past it, the tree's
    # at the first token
    ("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH, ParseError,
     f"expression nests deeper than {MAX_DEPTH} levels", 1, MAX_DEPTH + 1),
    ("!" * MAX_DEPTH + "true", ParseError,
     f"expression nests deeper than {MAX_DEPTH} levels", 1, MAX_DEPTH + 1),
    ("-" * MAX_DEPTH + "1", ParseError,
     f"expression nests deeper than {MAX_DEPTH} levels", 1, MAX_DEPTH + 1),
    (" + ".join(["1"] * (MAX_DEPTH + 1)), ParseError,
     f"script nests deeper than {MAX_DEPTH} nodes", 1, 1),
    (" ++ ".join(["in"] * (MAX_DEPTH + 1)), ParseError,
     f"script nests deeper than {MAX_DEPTH} nodes", 1, 1),
    ("in" + "[0]" * MAX_DEPTH, ParseError,
     f"script nests deeper than {MAX_DEPTH} nodes", 1, 1),
])
def test_malformed_text(source, error, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)
