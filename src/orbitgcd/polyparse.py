"""Text form of polynomials: a small recursive-descent parser.

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := INT | VAR | '(' expr ')'

VAR is x0..x{arity-1}; INT is a non-negative decimal literal.  '^' binds to
the atom immediately before it, so -x0^2 means -(x0^2); chaining as in
x0^2^3 is rejected.  Exponents above 2^16 are rejected outright, and so
is nesting deeper than MAX_NESTING, counting each open parenthesis and
each unary minus that encloses a factor.  This grammar is the contract
for every config file and command-line flag that accepts a polynomial.
"""

from __future__ import annotations

from typing import List, Tuple

from . import poly
from .poly import BigPoly

MAX_EXPONENT = 1 << 16
# a parenthesis level costs five stack frames of the recursive descent, so
# this stays well below Python's default recursion limit of 1000
MAX_NESTING = 64


class PolyParseError(ValueError):
    """Syntax or semantic error, carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# token kinds: INT, VAR, OP (single char), END
Token = Tuple[str, str, int]


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("expected digits after 'x'", i)
            tokens.append(("VAR", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise PolyParseError("unexpected character %r" % ch, i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token], arity: int):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.peek()
        if kind != "OP" or val != op:
            raise PolyParseError("expected %r" % op, at)
        self.take()

    def parse_expr(self) -> BigPoly:
        acc = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.take()
                rhs = self.parse_term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def parse_term(self) -> BigPoly:
        acc = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "*":
                self.take()
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> BigPoly:
        # self.depth counts the factors enclosing this one
        kind, val, at = self.peek()
        if self.depth > MAX_NESTING:
            raise PolyParseError("nesting deeper than %d" % MAX_NESTING, at)
        self.depth += 1
        if kind == "OP" and val == "-":
            self.take()
            out = -self.parse_factor()
        else:
            out = self.parse_power()
        self.depth -= 1
        return out

    def parse_power(self) -> BigPoly:
        base = self.parse_atom()
        kind, val, at = self.peek()
        if kind == "OP" and val == "^":
            self.take()
            ekind, eval_, eat = self.take()
            if ekind != "INT":
                raise PolyParseError("exponent must be an integer literal", eat)
            e = int(eval_)
            if e > MAX_EXPONENT:
                raise PolyParseError("exponent %d exceeds %d" % (e, MAX_EXPONENT), eat)
            # square-and-multiply keeps parenthesized bases cheap; acc
            # starts at the first square that e needs, with no product by 1
            acc = None
            while e:
                if e & 1:
                    acc = base if acc is None else acc * base
                e >>= 1
                if e:
                    base = base * base
            return poly.const(self.arity, 1) if acc is None else acc
        return base

    def parse_atom(self) -> BigPoly:
        kind, val, at = self.take()
        if kind == "INT":
            return poly.const(self.arity, int(val))
        if kind == "VAR":
            index = int(val[1:])
            if index >= self.arity:
                raise PolyParseError(
                    "variable %s out of range for arity %d" % (val, self.arity), at)
            return poly.variable(self.arity, index)
        if kind == "OP" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError("unexpected %s" % (repr(val) if val else "end of input"), at)


def parse(text: str, arity: int) -> BigPoly:
    """Parse text in arity variables into an exact expanded polynomial."""
    if not text.strip():
        raise PolyParseError("empty polynomial source", 0)
    if arity < 1:
        raise PolyParseError("arity must be positive", 0)
    parser = _Parser(_tokenize(text), arity)
    result = parser.parse_expr()
    kind, val, at = parser.peek()
    if kind != "END":
        raise PolyParseError("unexpected %r after expression" % val, at)
    return result
