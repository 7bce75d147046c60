"""Differential tests of the concrete syntax against ``syntax_oracle``.

The printer must write the oracle's text for every expression, and the
parser must give the oracle's AST, or its ``ParseError`` text and
position, for every token string: printed expressions, the same with one
token changed, and token soup.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import syntax_oracle
from test_lang import _extend, _exprs, _leaf, _names
from utxo110.lang import (
    BINARY_OPS, CopyEq, FieldAccess, If, Index, Let, ListConcat, Lit,
    MapIndices, Not, PowMod, Size, Var, script_source, serialize_script,
)
from utxo110.parser import ParseError, parse

# Binders and free names, which the printer does not check; '.size' and
# '.script' as payload fields, which it prints as the postfix words.
_any_exprs = st.recursive(_leaf | _names.map(Var), lambda expr: st.one_of(
    _extend(expr),
    st.tuples(_names, expr, expr).map(lambda t: Let(*t)),
    st.tuples(expr, _names, expr).map(lambda t: MapIndices(*t)),
    st.tuples(expr, expr, _names, expr)
      .map(lambda t: CopyEq(t[0], t[1], ((t[2], t[3]),))),
    st.tuples(expr, st.sampled_from(["size", "script"]))
      .map(lambda t: FieldAccess(*t)),
), max_leaves=25)

# The vocabulary of the token strings; 'a' is bound by the prefix and 'i'
# by a 'map' that may bind it.
_PREFIX = "let a = 1 in "
_TOKENS = (
    "|", "^", "&", "=", "<", "++", "+", "-", "mod", "pow", "!", "(", ")",
    "[", "]", ".", ",", "->", "<-", "map", "let", "in", "if", "then", "elif",
    "else", "copyEq", "output", "true", "false", "self", "out", "0", "7",
    "0b01", "0b_", "a", "i", "x", "size", "script",
)


def _binary(op, left, right):
    return ListConcat(left, right) if op == "++" else BINARY_OPS[op][1](op, left, right)


_ONE, _TWO = Lit(1), Lit(2)
# One node of each operator, binder and bracketing rule, as an operand
_OPERAND_NODES = [_binary(op, _ONE, _TWO) for op in BINARY_OPS] + [
    PowMod(_ONE, _TWO, _ONE), Not(_ONE), Lit(-1), Let("a", _ONE, _TWO),
    If(_ONE, _ONE, _TWO), Size(_ONE), Index(_ONE, _TWO)]


def _parents(child):
    """``child`` in every operand place of every operator."""
    for op in BINARY_OPS:
        yield _binary(op, child, _TWO)
        yield _binary(op, _ONE, child)
    yield from (PowMod(child, _TWO, _ONE), PowMod(_ONE, child, _TWO),
                PowMod(_ONE, _TWO, child), Not(child), Size(child),
                Index(child, _TWO))


@pytest.mark.parametrize("child", _OPERAND_NODES, ids=script_source)
def test_printer_matches_oracle_on_every_operand_place(child):
    for expr in _parents(child):
        text = script_source(expr)
        assert text == syntax_oracle.script_source(expr)
        assert parse(text) == expr


def _outcome(parse_fn, text):
    try:
        return serialize_script(parse_fn(text))
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.line, exc.col


def _assert_same_parse(text):
    assert _outcome(parse, text) == _outcome(syntax_oracle.parse, text), text


@settings(max_examples=400, deadline=None)
@given(_any_exprs)
def test_printer_matches_oracle(expr):
    assert script_source(expr) == syntax_oracle.script_source(expr)


@settings(max_examples=300, deadline=None)
@given(_exprs, st.randoms(use_true_random=False))
def test_parser_matches_oracle_on_printed_and_edited_text(expr, rng):
    tokens = script_source(expr).replace("(", " ( ").replace(")", " ) ").split()
    _assert_same_parse(" ".join(tokens))
    at = rng.randrange(len(tokens) + 1)
    edits = (tokens[:at] + [rng.choice(_TOKENS)] + tokens[at:],       # insert
             tokens[:at] + [rng.choice(_TOKENS)] + tokens[at + 1:],   # replace
             tokens[:at] + tokens[at + 1:])                           # delete
    for edited in edits:
        _assert_same_parse(_PREFIX + " ".join(edited))


# Token soup alternates operands and binary operators, one token in six
# drawn from the whole vocabulary instead.
_OPERANDS = ("a", "0", "7", "true", "0b01", "self", "in", "(a)", "in[0].x",
             "out.size", "!a", "-7", "let a = 7 in a")
_OPERATORS = ("|", "^", "&", "=", "<", "++", "+", "-", "mod", "pow")


def test_parser_matches_oracle_on_token_soup():
    rng = random.Random(110)
    parsed = 0
    for _ in range(20_000):
        tokens = [rng.choice(_TOKENS if rng.random() < 1 / 6 else
                             _OPERATORS if k % 2 else _OPERANDS)
                  for k in range(rng.randrange(1, 14))]
        text = _PREFIX + " ".join(tokens)
        _assert_same_parse(text)
        parsed += not isinstance(_outcome(parse, text), tuple)
    assert parsed > 2_000  # the soup reaches past the first error paths
