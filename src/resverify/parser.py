"""Expression grammar: parsing, canonical printing, and manifests.

Grammar (whitespace insignificant, '*' always explicit):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint | uint '/' uint | varname | defined-name | '(' expr ')'

Division exists only inside rational literals, so every parse result is
a polynomial.  The parser carries each subexpression as an integer
polynomial over one positive denominator: a sum lifts both sides to the
lcm of their denominators, a product multiplies both parts and a power
raises both, a defined name enters by `MultiPoly.cleared`, and the
result is divided once.  So every product runs on int, and an integral
coefficient comes back as an int.  A manifest is an ordered list of
"name := expr" lines; later entries may use earlier names, never the
reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .poly import VAR_INDEX, VAR_NAMES, ExponentOverflow, MultiPoly
from .ratio import Rat


class ExprSyntaxError(ValueError):
    """Malformed expression text; .offset is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownName(ExprSyntaxError):
    """Identifier that is neither a variable nor a defined name."""


class NegativeExponent(ExprSyntaxError):
    """'^' followed by a negated exponent."""


class DuplicateName(ValueError):
    pass


class ForwardReference(ValueError):
    """Manifest line refers to a name not defined above it."""


_OPS = set("+-*^/()")
_DIGITS = set("0123456789")  # the grammar's uint is ASCII; str.isdigit is not


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens are (kind, value, offset) with kind in {'int','name','op'}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, env: dict[str, MultiPoly] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env = env or {}

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.take()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    # Each parse_* method returns (num, den): the subexpression is
    # num/den, with num of int coefficients and den a positive int, so
    # that every product in the parse runs on int.

    def parse_expr(self) -> tuple[MultiPoly, int]:
        kind, value, _ = self.peek()
        negate = kind == "op" and value == "-"
        if negate:
            self.take()
        num, den = self.parse_term()
        if negate:
            num = -num
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                tnum, tden = self.parse_term()
                common = math.lcm(den, tden)
                num = _scaled(num, common // den)
                tnum = _scaled(tnum, common // tden)
                num = num + tnum if value == "+" else num - tnum
                den = common
            else:
                return num, den

    def parse_term(self) -> tuple[MultiPoly, int]:
        num, den = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                fnum, fden = self.parse_factor()
                num, den = num * fnum, den * fden
            else:
                return num, den

    def parse_factor(self) -> tuple[MultiPoly, int]:
        num, den = self.parse_base()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, offset = self.take()
            if kind == "op" and value == "-":
                raise NegativeExponent("negative exponent", offset)
            if kind != "int":
                raise ExprSyntaxError("expected integer exponent", offset)
            e = int(value)
            return num ** e, den ** e  # an ExponentOverflow comes first
        return num, den

    def parse_base(self) -> tuple[MultiPoly, int]:
        kind, value, offset = self.take()
        if kind == "int":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "/":
                self.take()
                dk, dv, doff = self.take()
                if dk != "int":
                    raise ExprSyntaxError("expected integer denominator", doff)
                if int(dv) == 0:
                    raise ExprSyntaxError("zero denominator", doff)
                q = Rat(int(value), int(dv))
                return MultiPoly.const(q.numerator), q.denominator
            return MultiPoly.const(int(value)), 1
        if kind == "name":
            if value in VAR_INDEX:
                return MultiPoly.var(value), 1
            if value in self.env:
                nums, den = self.env[value].cleared()
                return MultiPoly(nums), den
            raise UnknownName(f"unknown name {value!r}", offset)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)

    def parse_complete(self) -> MultiPoly:
        num, den = self.parse_expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {value!r}", offset)
        return num if den == 1 else num.exact_div(MultiPoly.const(den))


def _scaled(p: MultiPoly, factor: int) -> MultiPoly:
    """p times a positive int; p itself for 1, which most sums have."""
    return p if factor == 1 else p * factor


def parse(text: str, env: dict[str, MultiPoly] | None = None) -> MultiPoly:
    """Parse expression text to an expanded canonical polynomial."""
    return _Parser(text, env).parse_complete()


def format_poly(p: MultiPoly) -> str:
    """Deterministic canonical text; parse(format_poly(p)) == p."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.terms():
        factors = [f"{VAR_NAMES[i]}^{e}" if e > 1 else VAR_NAMES[i]
                   for i, e in enumerate(exps) if e]
        mag = coeff if coeff > 0 else -coeff
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        pieces.append((coeff > 0, "*".join(factors)))
    positive, text = pieces[0]
    out = [text if positive else f"-{text}"]
    for positive, text in pieces[1:]:
        out.append(f" + {text}" if positive else f" - {text}")
    return "".join(out)


@dataclass
class Manifest:
    """Ordered named polynomial bindings from 'name := expr' lines."""

    names: list[str] = field(default_factory=list)
    values: dict[str, MultiPoly] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __getitem__(self, name: str) -> MultiPoly:
        return self.values[name]

    def __len__(self) -> int:
        return len(self.names)


def load_manifest(text: str) -> Manifest:
    """Parse a manifest; duplicate names and undefined references reject.
    Every error raised for a line says "line N" and keeps its class."""
    manifest = Manifest()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name, sep, expr_text = stripped.partition(":=")
        if not sep:
            raise ExprSyntaxError(f"line {lineno}: expected 'name := expr'", 0)
        name = name.strip()
        if not name.isidentifier():
            raise ExprSyntaxError(f"line {lineno}: bad name {name!r}", 0)
        if name in VAR_INDEX:
            raise DuplicateName(f"line {lineno}: {name!r} is a variable name")
        if name in manifest.values:
            raise DuplicateName(f"line {lineno}: duplicate name {name!r}")
        try:
            value = parse(expr_text.strip(), manifest.values)
        except UnknownName as exc:
            raise ForwardReference(f"line {lineno}: {exc}") from exc
        except (ExprSyntaxError, ExponentOverflow, RecursionError) as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
        manifest.names.append(name)
        manifest.values[name] = value
        manifest.sources[name] = expr_text.strip()
    return manifest
