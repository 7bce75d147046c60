"""The source printer and the parser's precedence ladder as they were
before one operator table in ``utxo110.lang`` drove both, kept as a
reference for differential tests.

``script_source`` is ``lang.script_source`` with its nine precedence
constants and a bracket rule per node.  ``parse`` is ``parser.parse``
run by a parser whose expression methods are the old ladder, one method
per binary level, and whose postfix method names ``size`` and ``script``
itself; the tokenizer and the atoms are the module's own.  The one change
to the grammar since, moved here with the parser's, is that no ``mod``
may follow ``pow .. mod ..``.  Tests require the same text, the same
AST, or the same ``ParseError`` text and position.
"""

from __future__ import annotations

from utxo110.lang import (
    MAX_DEPTH, Arith, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess, If,
    Index, Let, ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, Size,
    SyntheticOutput, Var, _src_value,
)
from utxo110.parser import _node_depth, _Parser, _tokenize

# Precedence levels, loosest first; unary and postfix are tighter than all.
_PREC_OR = 1
_PREC_XOR = 2
_PREC_AND = 3
_PREC_CMP = 4
_PREC_CONCAT = 5
_PREC_ADD = 6
_PREC_MOD = 7
_PREC_UNARY = 8
_PREC_POSTFIX = 9

# Binding strength of the boolean operators, loosest first.
_BOOL_PREC = {"|": 1, "^": 2, "&": 3}


def _src(e: Expr, parent_prec: int) -> str:
    def wrap(text: str, prec: int) -> str:
        return f"({text})" if prec < parent_prec else text

    if isinstance(e, Lit):
        if isinstance(e.value, int) and not isinstance(e.value, bool) and e.value < 0:
            return wrap(str(e.value), _PREC_UNARY)
        return _src_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, CtxRef):
        return e.kind
    if isinstance(e, FieldAccess):
        return f"{_src(e.obj, _PREC_POSTFIX)}.{e.field}"
    if isinstance(e, ScriptOf):
        return f"{_src(e.obj, _PREC_POSTFIX)}.script"
    if isinstance(e, Size):
        return f"{_src(e.obj, _PREC_POSTFIX)}.size"
    if isinstance(e, Index):
        return f"{_src(e.obj, _PREC_POSTFIX)}[{_src(e.index, 0)}]"
    if isinstance(e, Arith):
        if e.op == "mod":
            # 'a pow b mod c mod d' does not parse: a pow on the left is bracketed
            left = _src(e.left, _PREC_UNARY if isinstance(e.left, PowMod) else _PREC_MOD)
            return wrap(f"{left} mod {_src(e.right, _PREC_UNARY)}", _PREC_MOD)
        return wrap(f"{_src(e.left, _PREC_ADD)} {e.op} {_src(e.right, _PREC_MOD)}", _PREC_ADD)
    if isinstance(e, PowMod):
        text = (f"{_src(e.base, _PREC_UNARY)} pow {_src(e.exponent, _PREC_UNARY)}"
                f" mod {_src(e.modulus, _PREC_UNARY)}")
        return wrap(text, _PREC_MOD)
    if isinstance(e, Cmp):
        return wrap(f"{_src(e.left, _PREC_CONCAT)} {e.op} {_src(e.right, _PREC_CONCAT)}", _PREC_CMP)
    if isinstance(e, BoolOp):
        prec = {"|": _PREC_OR, "^": _PREC_XOR, "&": _PREC_AND}[e.op]
        return wrap(f"{_src(e.left, prec)} {e.op} {_src(e.right, prec + 1)}", prec)
    if isinstance(e, Not):
        return wrap(f"!{_src(e.operand, _PREC_UNARY)}", _PREC_UNARY)
    if isinstance(e, ListConcat):
        return wrap(f"{_src(e.left, _PREC_CONCAT)} ++ {_src(e.right, _PREC_ADD)}", _PREC_CONCAT)
    if isinstance(e, MapIndices):
        return f"map({_src(e.length, 0)}, {e.var} -> {_src(e.body, 0)})"
    if isinstance(e, Let):
        # binders swallow everything to their right: parenthesize unless
        # already in a bracketed context
        return wrap(f"let {e.name} = {_src(e.value, 0)} in {_src(e.body, 0)}", 0)
    if isinstance(e, If):
        return wrap(f"if {_src(e.cond, 0)} then {_src(e.then, 0)} else {_src(e.orelse, 0)}", 0)
    if isinstance(e, CopyEq):
        parts = [_src(e.target, 0), _src(e.source, 0)]
        parts += [f"{name} <- {_src(x, 0)}" for name, x in e.overrides]
        return f"copyEq({', '.join(parts)})"
    if isinstance(e, SyntheticOutput):
        parts = [f"{name} <- {_src(x, 0)}" for name, x in e.fields]
        parts.append(f"script <- {_src(e.script, 0)}")
        return f"output({', '.join(parts)})"
    raise TypeError(f"not a script expression: {type(e).__name__}")


def script_source(expr: Expr) -> str:
    """Render an AST back to DSL text."""
    return _src(expr, 0)


class _LadderParser(_Parser):
    def expr(self):
        self.deeper()
        node = self.bool_expr(1)
        self.depth -= 1
        return node

    def bool_expr(self, min_prec):
        # precedence climbing: one call covers all three boolean levels
        left = self.cmp_expr()
        while _BOOL_PREC.get(self.cur.kind, 0) >= min_prec:
            op = self.accept(self.cur.kind).kind
            left = BoolOp(op, left, self.bool_expr(_BOOL_PREC[op] + 1))
        return left

    def cmp_expr(self):
        left = self.concat_expr()
        if self.cur.kind in ("=", "<"):
            op = self.accept(self.cur.kind).kind
            right = self.concat_expr()
            if self.cur.kind in ("=", "<"):
                self.error("comparison is not associative; parenthesize")
            return Cmp(op, left, right)
        return left

    def concat_expr(self):
        left = self.add_expr()
        while self.at("++"):
            self.accept("++")
            left = ListConcat(left, self.add_expr())
        return left

    def add_expr(self):
        left = self.mod_expr()
        while self.cur.kind in ("+", "-"):
            op = self.accept(self.cur.kind).kind
            left = Arith(op, left, self.mod_expr())
        return left

    def mod_expr(self):
        left = self.unary_expr()
        if self.at("pow"):
            tok = self.accept("pow")
            exponent = self.unary_expr()
            if not self.accept("mod"):
                self.error("'pow' must be followed by 'mod'", tok)
            left = PowMod(left, exponent, self.unary_expr())
            if self.at("mod"):
                self.error("'mod' cannot follow 'pow .. mod ..'; parenthesize")
            return left
        while self.at("mod"):
            self.accept("mod")
            left = Arith("mod", left, self.unary_expr())
        return left

    def postfix_expr(self):
        node = self.atom()
        while True:
            if self.accept("."):
                name_tok = self.expect("name", "field name")
                if name_tok.text == "size":
                    node = Size(node)
                elif name_tok.text == "script":
                    node = ScriptOf(node)
                else:
                    node = FieldAccess(node, name_tok.text)
            elif self.accept("["):
                index = self.expr()
                self.expect("]")
                node = Index(node, index)
            else:
                return node


def parse(source: str) -> Expr:
    """Parse DSL text into a script AST."""
    parser = _LadderParser(_tokenize(source))
    node = parser.expr()
    if not parser.at("eof"):
        parser.error(f"unexpected {parser.cur.text!r} after expression")
    # operator and postfix chains grow the tree without nesting the parser
    if _node_depth(node) > MAX_DEPTH:
        parser.error(f"script nests deeper than {MAX_DEPTH} nodes", parser.tokens[0])
    return node
