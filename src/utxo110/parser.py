"""Text parser for the guarding-script DSL.

The grammar is in README.md, "The script language".  The binary
operators and the levels they bind at come from ``lang.BINARY_OPS``, and
the postfix words from ``lang.POSTFIX_WORDS``, the tables the printer
reads too.  ``binary`` climbs every level but ``mod``, the tightest;
``mod_expr`` parses ``mod`` chains and ``pow .. mod``, which no ``mod``
may follow.

Identifiers must be bound by an enclosing ``let`` or ``map``; anything
else is rejected at parse time, and so is a script whose expressions,
unary operators or nodes nest deeper than ``lang.MAX_DEPTH``.
"""

from __future__ import annotations

import re

from .lang import (
    BINARY_OPS, MAX_DEPTH, POSTFIX_WORDS, RESERVED_FIELD_NAMES, Arith, Bits,
    Cmp, CopyEq, CtxRef, Expr, FieldAccess, If, Index, Let, ListConcat, Lit,
    MapIndices, Not, PowMod, SyntheticOutput, Var, children,
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

# The levels ``binary`` climbs: all but 'mod', which ends 'pow .. mod' too.
_CLIMBED = {op: level for op, (level, _) in BINARY_OPS.items() if op != "mod"}

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
        node = self.binary(1)
        self.depth -= 1
        return node

    def binary(self, min_level):
        """Precedence climbing: the operators of ``_CLIMBED`` that bind at
        ``min_level`` or tighter, each operand a ``mod_expr``."""
        left = self.mod_expr()
        while _CLIMBED.get(self.cur.kind, 0) >= min_level:
            op = self.accept(self.cur.kind).kind
            level, node = BINARY_OPS[op]
            right = self.binary(level + 1)
            if node is Cmp and self.cur.kind in ("=", "<"):
                self.error("comparison is not associative; parenthesize")
            left = ListConcat(left, right) if node is ListConcat else node(op, left, right)
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
                word = POSTFIX_WORDS.get(name_tok.text)
                node = word(node) if word else FieldAccess(node, name_tok.text)
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
            if name_tok.text in RESERVED_FIELD_NAMES:
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
