"""A small recursive-descent parser for ring expressions.

Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/')? factor)*
(a missing operator multiplies); factor := '-' factor | atom ('^' uint)?;
atom := uint | name | '(' expr ')'.  Whitespace is ignored.  The `ops` table
supplies "int", the named constants ("var") and optionally "div", and may
override the Python operators behind "add", "sub", "mul", "neg" and "pow",
so the same parser serves F_q[t], F_q(t) and local fields; without "div",
'/' is rejected with BadInput.  So is nesting of '(' and unary '-' deeper
than _MAX_NESTING: each level of parentheses costs the parser five Python
frames, and unguarded, 250 levels reached the interpreter's default
recursion limit of 1000 frames.
"""

from __future__ import annotations

import operator
import re

from .errors import BadInput

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*^/])")
_MAX_NESTING = 100


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise BadInput(f"cannot tokenize {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, ops):
        self.toks = tokens
        self.i = 0
        self.depth = 0
        self.ops = {"add": operator.add, "sub": operator.sub,
                    "mul": operator.mul, "neg": operator.neg,
                    "pow": operator.pow, **ops}

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise BadInput("unexpected end of input" if expect is None
                           else f"expected {expect!r} at the end of input")
        if expect is not None and tok != expect:
            raise BadInput(f"expected {expect!r}, found {tok!r}")
        self.i += 1
        return tok

    def nested(self, parse):
        """parse() one level of '(' or unary '-' deeper."""
        if self.depth == _MAX_NESTING:
            raise BadInput(f"expression nests deeper than {_MAX_NESTING} "
                           f"levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expr(self):
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = self.ops["add"](acc, rhs) if op == "+" \
                else self.ops["sub"](acc, rhs)
        return acc

    def term(self):
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                acc = self.ops["mul"](acc, self.factor())
            elif tok == "/":
                if "div" not in self.ops:
                    raise BadInput("operator '/' is not supported in this "
                                   "expression")
                self.take()
                acc = self.ops["div"](acc, self.factor())
            elif tok is not None and (tok.isdigit() or tok.isidentifier()
                                      or tok == "("):
                # implicit multiplication: 2t, 3(t+1)
                acc = self.ops["mul"](acc, self.factor())
            else:
                return acc

    def factor(self):
        if self.peek() == "-":
            self.take()
            return self.ops["neg"](self.nested(self.factor))
        base = self.atom()
        if self.peek() == "^":
            self.take()
            n = self.take()
            if not n.isdigit():
                raise BadInput("exponent must be a nonnegative integer")
            return self.ops["pow"](base, int(n))
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.nested(self.expr)
            self.take(")")
            return inner
        if tok.isdigit():
            return self.ops["int"](int(tok))
        if tok in self.ops["var"]:
            return self.ops["var"][tok]
        raise BadInput(f"unknown symbol {tok!r}")


def parse_ring_expr(text, ops):
    parser = _Parser(_tokenize(text), ops)
    value = parser.expr()
    if parser.peek() is not None:
        raise BadInput(f"trailing input at {parser.toks[parser.i:]!r}")
    return value
