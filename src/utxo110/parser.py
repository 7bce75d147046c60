"""Text parser for the guarding-script DSL.

Grammar, loosest binding first::

    expr    := or
    or      := xor ('|' xor)*
    xor     := and ('^' and)*
    and     := cmp ('&' cmp)*
    cmp     := concat (('=' | '<') concat)?          -- non-associative
    concat  := add ('++' add)*
    add     := mod (('+' | '-') mod)*
    mod     := unary 'pow' unary 'mod' unary         -- modular exponentiation
             | unary ('mod' unary)*
    unary   := '!' unary | '-' unary | postfix
    postfix := atom ('.' NAME | '.size' | '.script' | '[' expr ']')*
    atom    := INT | BITS | 'true' | 'false' | 'self' | 'in' | 'out' | NAME
             | '(' expr ')'
             | 'map' '(' expr ',' NAME '->' expr ')'
             | 'let' NAME '=' expr 'in' expr
             | 'if' expr 'then' expr ('elif' expr 'then' expr)* 'else' expr
             | 'copyEq' '(' expr ',' expr (',' NAME '<-' expr)* ')'
             | 'output' '(' key '<-' expr (',' key '<-' expr)* ')'

INT is a decimal literal, BITS is ``0b`` followed by binary digits (``0b_``
for the empty bit string), and ``#`` starts a comment to end of line.  In
``output(...)`` the ``script`` key supplies the guarding script and is
required; the remaining keys become payload fields in written order.

Identifiers must be bound by an enclosing ``let`` or ``map``; anything
else is rejected at parse time, and so is a script whose expressions,
unary operators or nodes nest deeper than ``lang.MAX_DEPTH``.
"""

from __future__ import annotations

import re

from .lang import (
    MAX_DEPTH, Arith, Bits, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess,
    If, Index, Let, ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, Size,
    SyntheticOutput, Var, children,
)


class ParseError(ValueError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownNameError(ParseError):
    """Identifier not bound by any enclosing let or map."""


class ArityError(ParseError):
    """Construct applied to the wrong number or shape of arguments."""


_KEYWORDS = {
    "self", "in", "out", "true", "false", "mod", "pow", "map", "let",
    "if", "then", "elif", "else", "copyEq", "output",
}

# Binding strength of the boolean operators, loosest first.
_BOOL_PREC = {"|": 1, "^": 2, "&": 3}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<bits>0b(?:[01]+|_))
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\+\+|<-|->|[()\[\].,+\-=<&|^!])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "name":
            kind = text if text in _KEYWORDS else "name"
        elif kind == "op":
            kind = text
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.scope = []  # stack of bound names
        self.depth = 0   # open expressions and unary operators

    @property
    def cur(self):
        return self.tokens[self.pos]

    def error(self, message, tok=None):
        tok = tok or self.cur
        raise ParseError(message, tok.line, tok.col)

    def at(self, kind):
        return self.cur.kind == kind

    def accept(self, kind):
        if self.at(kind):
            tok = self.cur
            self.pos += 1
            return tok
        return None

    def expect(self, kind, what=None):
        tok = self.accept(kind)
        if tok is None:
            shown = self.cur.text or "end of input"
            self.error(f"expected {what or kind!r}, found {shown!r}")
        return tok

    # -- precedence ladder ------------------------------------------------

    def deeper(self):
        """Count one more level of nesting; bounds the parser's recursion."""
        if self.depth >= MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")
        self.depth += 1

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
            return PowMod(left, exponent, self.unary_expr())
        while self.at("mod"):
            self.accept("mod")
            left = Arith("mod", left, self.unary_expr())
        return left

    def unary_expr(self):
        if self.cur.kind not in ("!", "-"):
            return self.postfix_expr()
        op = self.accept(self.cur.kind).kind
        self.deeper()
        operand = self.unary_expr()
        self.depth -= 1
        if op == "!":
            return Not(operand)
        if isinstance(operand, Lit) and isinstance(operand.value, int) \
                and not isinstance(operand.value, bool):
            return Lit(-operand.value)
        return Arith("-", Lit(0), operand)

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

    # -- atoms -------------------------------------------------------------

    def atom(self):
        tok = self.cur
        if self.accept("int"):
            try:
                value = int(tok.text)
            except ValueError:  # past the interpreter's int-string limit
                self.error(f"integer literal of {len(tok.text)} digits is too long",
                           tok)
            return Lit(value)
        if self.accept("bits"):
            digits = tok.text[2:]
            return Lit(Bits() if digits == "_" else Bits.from_text(digits))
        if self.accept("true"):
            return Lit(True)
        if self.accept("false"):
            return Lit(False)
        if self.accept("self"):
            return CtxRef("self")
        if self.accept("in"):
            return CtxRef("in")
        if self.accept("out"):
            return CtxRef("out")
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        if self.accept("map"):
            return self._map(tok)
        if self.accept("let"):
            return self._let()
        if self.accept("if"):
            return self._if()
        if self.accept("copyEq"):
            return self._copy_eq(tok)
        if self.accept("output"):
            return self._output(tok)
        if self.at("name"):
            name_tok = self.accept("name")
            if name_tok.text not in self.scope:
                raise UnknownNameError(
                    f"unbound name {name_tok.text!r}", name_tok.line, name_tok.col)
            return Var(name_tok.text)
        self.error(f"expected an expression, found {tok.text or 'end of input'!r}")

    def _map(self, tok):
        self.expect("(")
        length = self.expr()
        self.expect(",")
        var = self.expect("name", "loop variable").text
        self.expect("->")
        self.scope.append(var)
        body = self.expr()
        self.scope.pop()
        self.expect(")")
        return MapIndices(length, var, body)

    def _let(self):
        name = self.expect("name", "binding name").text
        self.expect("=")
        value = self.expr()
        self.expect("in", "'in'")
        self.scope.append(name)
        body = self.expr()
        self.scope.pop()
        return Let(name, value, body)

    def _if(self):
        cond = self.expr()
        self.expect("then", "'then'")
        then = self.expr()
        if self.accept("elif"):
            return If(cond, then, self._if())
        self.expect("else", "'else'")
        return If(cond, then, self.expr())

    def _copy_eq(self, tok):
        self.expect("(")
        target = self.expr()
        if not self.accept(","):
            raise ArityError("copyEq needs a target and a source", tok.line, tok.col)
        source = self.expr()
        overrides = []
        seen = set()
        while self.accept(","):
            name_tok = self.expect("name", "override field")
            if name_tok.text in ("size", "script"):
                raise ArityError(f"{name_tok.text!r} cannot be overridden",
                                 name_tok.line, name_tok.col)
            if name_tok.text in seen:
                raise ArityError(f"duplicate override {name_tok.text!r}",
                                 name_tok.line, name_tok.col)
            seen.add(name_tok.text)
            self.expect("<-")
            overrides.append((name_tok.text, self.expr()))
        self.expect(")")
        return CopyEq(target, source, tuple(overrides))

    def _output(self, tok):
        self.expect("(")
        fields = []
        script = None
        seen = set()
        while True:
            key_tok = self.expect("name", "field name in output(...)")
            if key_tok.text == "size":
                raise ArityError("'size' is not a valid field name",
                                 key_tok.line, key_tok.col)
            if key_tok.text in seen:
                raise ArityError(f"duplicate field {key_tok.text!r}",
                                 key_tok.line, key_tok.col)
            seen.add(key_tok.text)
            self.expect("<-")
            value = self.expr()
            if key_tok.text == "script":
                script = value
            else:
                fields.append((key_tok.text, value))
            if not self.accept(","):
                break
        self.expect(")")
        if script is None:
            raise ArityError("output(...) requires a script field", tok.line, tok.col)
        return SyntheticOutput(tuple(fields), script)


def _node_depth(expr: Expr) -> int:
    """Nodes on the longest root-to-leaf path, found without recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in children(node))
    return deepest


def parse(source: str) -> Expr:
    """Parse DSL text into a script AST."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    if not parser.at("eof"):
        parser.error(f"unexpected {parser.cur.text!r} after expression")
    # operator and postfix chains grow the tree without nesting the parser
    if _node_depth(node) > MAX_DEPTH:
        parser.error(f"script nests deeper than {MAX_DEPTH} nodes", parser.tokens[0])
    return node
