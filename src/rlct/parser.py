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

from .arrangement import ArrangementSpec, NormalizedArrangement
from .errors import NonlinearFactorError, ParseError, UnknownVariableError
from .ratlinalg import RationalMatrix, format_rational

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<sym>[*^()+\-,;/]))")

Token = tuple[str, str, int]  # (kind, text, position)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        bad = pos + (len(rest) - len(rest.lstrip()))
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.declared: list[str] | None = None
        self.seen: list[str] = []

    # -- token stream helpers -------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.index + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def advance(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.index += 1
        return tok

    def at_sym(self, symbol: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok[0] == "sym" and tok[1] == symbol

    def end_pos(self) -> int:
        return len(self.text)

    def expect_sym(self, symbol: str) -> None:
        tok = self.advance()
        if tok is None:
            raise ParseError(f"expected {symbol!r} but input ended", self.end_pos())
        if tok[0] != "sym" or tok[1] != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok[1]!r}", tok[2])

    # -- variables -------------------------------------------------------

    def variable(self, name: str, pos: int) -> str:
        if self.declared is not None:
            if name not in self.declared:
                raise UnknownVariableError(f"unknown variable {name!r}", pos)
        elif name not in self.seen:
            self.seen.append(name)
        return name

    # -- grammar ----------------------------------------------------------

    def parse(self) -> ArrangementSpec:
        self.maybe_vardecl()
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok is None:
                break
            kind, value, pos = tok
            if kind == "sym" and value == "*":
                self.advance()
                factors.append(self.factor())
            elif kind == "name" or (kind == "sym" and value == "("):
                factors.append(self.factor())
            else:
                raise ParseError(f"unexpected {value!r}", pos)
        names = tuple(self.declared if self.declared is not None else self.seen)
        if not names:
            raise ParseError("no variables appear in the product", self.end_pos())
        normals, offsets, mults = [], [], []
        for coeffs, const, exponent in factors:
            normals.append([coeffs.get(v, Fraction(0)) for v in names])
            offsets.append(const)
            mults.append(exponent)
        return ArrangementSpec(
            RationalMatrix(normals, cols=len(names)), mults, offsets=offsets, variables=names
        )

    def maybe_vardecl(self) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "name" or tok[1] != "vars":
            return
        # It is only a declaration if a ';' follows a run of names and commas.
        i = self.index + 1
        while i < len(self.tokens):
            kind, value, _ = self.tokens[i]
            if kind == "sym" and value == ";":
                break
            if kind == "name" or (kind == "sym" and value == ","):
                i += 1
                continue
            return
        else:
            return
        self.advance()
        declared: list[str] = []
        while True:
            tok = self.advance()
            if tok is None:
                raise ParseError("unterminated vars declaration", self.end_pos())
            kind, value, pos = tok
            if kind != "name":
                raise ParseError(f"expected a variable name, found {value!r}", pos)
            if value in declared:
                raise ParseError(f"variable {value!r} declared twice", pos)
            declared.append(value)
            tok = self.advance()
            if tok is None:
                raise ParseError("unterminated vars declaration", self.end_pos())
            if tok[1] == ";":
                break
            if tok[1] != ",":
                raise ParseError(f"expected ',' or ';' in vars declaration, found {tok[1]!r}", tok[2])
        self.declared = declared

    def factor(self) -> tuple[dict[str, Fraction], Fraction, int]:
        tok = self.advance()
        if tok is None:
            raise ParseError("expected a factor but input ended", self.end_pos())
        kind, value, pos = tok
        if kind == "name":
            coeffs = {self.variable(value, pos): Fraction(1)}
            const = Fraction(0)
        elif kind == "sym" and value == "(":
            coeffs, const = self.linexpr()
            self.expect_sym(")")
        else:
            raise ParseError(f"expected a variable or '(', found {value!r}", pos)
        exponent = 1
        if self.at_sym("^"):
            self.advance()
            tok = self.advance()
            if tok is None:
                raise ParseError("expected an exponent but input ended", self.end_pos())
            if tok[0] != "int":
                raise ParseError(f"exponent must be a non-negative integer, found {tok[1]!r}", tok[2])
            exponent = int(tok[1])
        return coeffs, const, exponent

    def linexpr(self) -> tuple[dict[str, Fraction], Fraction]:
        coeffs: dict[str, Fraction] = {}
        const = Fraction(0)
        sign = Fraction(1)
        if self.at_sym("+") or self.at_sym("-"):
            sign = Fraction(1) if self.advance()[1] == "+" else Fraction(-1)
        while True:
            name, coef = self.term()
            if name is None:
                const += sign * coef
            else:
                coeffs[name] = coeffs.get(name, Fraction(0)) + sign * coef
            if not (self.at_sym("+") or self.at_sym("-")):
                return coeffs, const
            sign = Fraction(1) if self.advance()[1] == "+" else Fraction(-1)

    def term(self) -> tuple[str | None, Fraction]:
        tok = self.advance()
        if tok is None:
            raise ParseError("expected a term but input ended", self.end_pos())
        kind, value, pos = tok
        if kind == "name":
            name = self.variable(value, pos)
            self.check_linear_tail(name)
            return name, Fraction(1)
        if kind != "int":
            raise ParseError(f"expected a coefficient or variable, found {value!r}", pos)
        coef = Fraction(int(value))
        if self.at_sym("/"):
            self.advance()
            tok = self.advance()
            if tok is None or tok[0] != "int":
                raise ParseError("expected a denominator after '/'", tok[2] if tok else self.end_pos())
            if int(tok[1]) == 0:
                raise ParseError("zero denominator", tok[2])
            coef /= int(tok[1])
        took_star = False
        if self.at_sym("*"):
            self.advance()
            took_star = True
        tok = self.peek()
        if tok is not None and tok[0] == "name":
            self.advance()
            name = self.variable(tok[1], tok[2])
            self.check_linear_tail(name)
            return name, coef
        if took_star:
            raise ParseError(
                "expected a variable after '*'", tok[2] if tok else self.end_pos()
            )
        return None, coef

    def check_linear_tail(self, name: str) -> None:
        """A variable inside parentheses may not be squared or multiplied by another."""
        tok = self.peek()
        if tok is None:
            return
        kind, value, pos = tok
        if kind == "sym" and value == "^":
            raise NonlinearFactorError(f"exponent on {name!r} inside a factor is not linear", pos)
        if kind == "name":
            raise NonlinearFactorError(f"product of variables {name!r} and {value!r} is not linear", pos)
        if kind == "sym" and value == "*":
            after = self.peek(1)
            if after is not None and after[0] == "name":
                raise NonlinearFactorError(
                    f"product of variables {name!r} and {after[1]!r} is not linear", after[2]
                )


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
