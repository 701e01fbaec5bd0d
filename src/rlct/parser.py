"""Parser for factored products of rational-linear polynomials.

Grammar (whitespace separates tokens and is otherwise ignored):

    input    :=  [ 'vars' NAME (',' NAME)* ';' ]  factor+  EOF
    factor   :=  atom [ '^' INT ]
    atom     :=  NAME  |  '(' linexpr ')'
    linexpr  :=  ['+'|'-'] term ( ('+'|'-') term )*
    term     :=  coef ['*'] NAME  |  NAME  |  coef
    coef     :=  INT [ '/' INT ]

Factors multiply by juxtaposition or an explicit '*': "x*y^2" and
"x y^2 (x+y)" both work. Note that "xy" is a single variable named "xy",
not a product. Without a `vars` declaration, variables are numbered in
order of first appearance; with one, any other name is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arrangement import IDENTIFIER, ArrangementSpec, NormalizedArrangement, _stored
from .errors import NonlinearFactorError, ParseError, UnknownVariableError
from .ratlinalg import format_rational, integer_row

# Any other non-space character is a "bad" token, so the matches cover the
# text but its whitespace, which the scan steps over.
_TOKEN = re.compile(rf"(?P<name>{IDENTIFIER})|(?P<int>\d+)|(?P<sym>[*^()+\-,;/])|(?P<bad>\S)")

Token = tuple[str, str, int]  # (kind, text, position)
# A coefficient or constant while parsing: an int, or a Fraction once a
# "p/q" coefficient enters. Their sums stay exact, and each factor becomes
# one integer row over its least denominator (`integer_row`) at the end.
Rational = int | Fraction


def _tokenize(text: str) -> list[Token]:
    """Tokens of `text`, then two end tokens, so one token of lookahead never runs off."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    bad = next((tok for tok in tokens if tok[0] == "bad"), None)
    if bad is not None:
        raise ParseError(f"unexpected character {bad[1]!r}", bad[2])
    end = ("end", "", len(text))
    return tokens + [end, end]


def _expected(what: str, tok: Token) -> ParseError:
    found = "end of input" if tok[0] == "end" else repr(tok[1])
    return ParseError(f"{what}, found {found}", tok[2])


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.names: list[str] = []
        self.declared = False

    # -- token stream helpers -------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.index + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at(self, *symbols: str) -> bool:
        # Only symbol tokens have punctuation as their text.
        return self.tokens[self.index][1] in symbols

    # -- variables -------------------------------------------------------

    def variable(self, name: str, pos: int) -> str:
        if name not in self.names:
            if self.declared:
                raise UnknownVariableError(f"unknown variable {name!r}", pos)
            self.names.append(name)
        return name

    # -- grammar ----------------------------------------------------------

    def parse(self) -> ArrangementSpec:
        self.vardecl()
        factors = [self.factor()]
        while True:
            kind, value, pos = self.peek()
            if kind == "end":
                break
            if value == "*":
                self.advance()
            elif kind != "name" and value != "(":
                raise ParseError(f"unexpected {value!r}", pos)
            factors.append(self.factor())
        if not self.names:
            raise ParseError("no variables appear in the product", pos)
        rows = [integer_row([coeffs.get(v, 0) for v in self.names] + [const]) for coeffs, const, _ in factors]
        mults = tuple(exponent for _, _, exponent in factors)
        return _stored(ArrangementSpec, integer_rows=tuple(rows), multiplicities=mults, dim=len(self.names),
                       variables=tuple(self.names))

    def vardecl(self) -> None:
        """`vars a, b;` is a declaration only if its run of names and commas ends in ';'."""
        if self.peek()[1] != "vars":
            return
        end = 1
        while self.tokens[end][0] == "name" or self.tokens[end][1] == ",":
            end += 1
        if self.tokens[end][1] != ";":
            return
        # Names sit in the even slots of the run, separators in the odd ones.
        for slot, tok in enumerate(self.tokens[1 : end + 1]):
            if slot % 2:
                if tok[1] not in (",", ";"):
                    raise _expected("expected ',' or ';' in vars declaration", tok)
            elif tok[0] != "name":
                raise _expected("expected a variable name", tok)
            elif tok[1] in self.names:
                raise ParseError(f"variable {tok[1]!r} declared twice", tok[2])
            else:
                self.names.append(tok[1])
        self.declared = True
        self.index = end + 1

    def factor(self) -> tuple[dict[str, Rational], Rational, int]:
        tok = self.advance()
        if tok[0] == "name":
            coeffs = {self.variable(tok[1], tok[2]): 1}
            const = 0
        elif tok[1] == "(":
            coeffs, const = self.linexpr()
            if not self.at(")"):
                raise _expected("expected ')'", self.peek())
            self.advance()
        else:
            raise _expected("expected a variable or '('", tok)
        exponent = 1
        if self.at("^"):
            self.advance()
            tok = self.advance()
            if tok[0] != "int":
                raise _expected("exponent must be a non-negative integer", tok)
            exponent = int(tok[1])
        return coeffs, const, exponent

    def linexpr(self) -> tuple[dict[str, Rational], Rational]:
        coeffs: dict[str, Rational] = {}
        const = 0
        sign = -1 if self.at("-") else 1
        if self.at("+", "-"):
            self.advance()
        while True:
            name, coef = self.term()
            if name is None:
                const += sign * coef
            else:
                coeffs[name] = coeffs.get(name, 0) + sign * coef
            if not self.at("+", "-"):
                return coeffs, const
            sign = 1 if self.advance()[1] == "+" else -1

    def term(self) -> tuple[str | None, Rational]:
        kind, value, pos = self.advance()
        if kind == "int":
            coef = int(value)
            if self.at("/"):
                self.advance()
                kind, value, pos = self.advance()
                if kind != "int":
                    raise ParseError("expected a denominator after '/'", pos)
                den = int(value)
                if den == 0:
                    raise ParseError("zero denominator", pos)
                coef = Fraction(coef, den)
            star = self.at("*")
            if star:
                self.advance()
            kind, value, pos = self.peek()
            if kind != "name":
                if star:
                    raise ParseError("expected a variable after '*'", pos)
                return None, coef
            self.advance()
        elif kind == "name":
            coef = 1
        else:
            raise _expected("expected a coefficient or variable", (kind, value, pos))
        name = self.variable(value, pos)
        # Inside parentheses a variable may be neither raised to a power nor
        # multiplied by another variable, directly or across one '*'.
        if self.at("^"):
            raise NonlinearFactorError(f"exponent on {name!r} inside a factor is not linear", self.peek()[2])
        other = self.peek(1) if self.at("*") else self.peek()
        if other[0] == "name":
            raise NonlinearFactorError(f"product of variables {name!r} and {other[1]!r} is not linear", other[2])
        return name, coef


def parse_factored_product(text: str) -> ArrangementSpec:
    """Parse a factored product like "x*y^2*z^2*(x+y+z)" into an arrangement.

    One row per factor occurrence; exponents become multiplicities. The
    result is raw and should normally be passed through `normalize`.
    """
    return _Parser(text).parse()


def format_factored_product(arr: NormalizedArrangement) -> str:
    """Render a normalized arrangement so `parse_factored_product` reads it back.

    A `vars` prefix pins the variable order, since re-parsing would otherwise
    infer it from the order of first appearance.
    """
    names = arr.var_names()
    parts = []
    for j in range(arr.n):
        normal, offset, mult = arr.hyperplane(j)
        terms: list[tuple[str | None, Fraction]] = [
            (names[i], c) for i, c in enumerate(normal) if c != 0
        ]
        if offset != 0:
            terms.append((None, offset))
        if len(terms) == 1 and terms[0][0] is not None and terms[0][1] == 1:
            wrapped = terms[0][0]
        else:
            pieces = []
            for i, (name, c) in enumerate(terms):
                mag = abs(c)
                if name is None:
                    text = format_rational(mag)
                elif mag == 1:
                    text = name
                else:
                    text = f"{format_rational(mag)}*{name}"
                if i == 0:
                    pieces.append(text if c > 0 else f"-{text}")
                else:
                    pieces.append(f"{'+' if c > 0 else '-'} {text}")
            wrapped = "(" + " ".join(pieces) + ")"
        parts.append(wrapped if mult == 1 else f"{wrapped}^{mult}")
    return f"vars {', '.join(names)}; " + "*".join(parts)
