"""Factored-product parsing and printing."""

import random
from fractions import Fraction

import pytest

from rlct import (
    ArrangementSpec,
    InvalidHyperplaneError,
    NonlinearFactorError,
    ParseError,
    RationalMatrix,
    RlctError,
    UnknownVariableError,
    format_factored_product,
    normalize,
    parse_factored_product,
)
from rlct.ratlinalg import format_rational

F = Fraction


class TestParse:
    def test_four_planes(self):
        spec = parse_factored_product("x*y^2*z^2*(x+y+z)")
        assert spec.normals == RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert spec.multiplicities == (1, 2, 2, 1)
        assert spec.offsets == (F(0),) * 4
        assert spec.variables == ("x", "y", "z")

    def test_single_variable(self):
        spec = parse_factored_product("x")
        assert spec.normals == RationalMatrix([[1]])
        assert spec.multiplicities == (1,)

    def test_four_lines(self):
        spec = parse_factored_product("x*y*(x+y)*(x-y)")
        assert spec.n == 4
        assert spec.multiplicities == (1, 1, 1, 1)
        assert spec.normals.row(3) == (F(1), F(-1))

    def test_juxtaposition(self):
        starred = parse_factored_product("x*y^2*z^2*(x+y+z)")
        spaced = parse_factored_product("x y^2 z^2 (x+y+z)")
        assert spaced == starred

    def test_adjacent_name_is_one_variable(self):
        spec = parse_factored_product("xy")
        assert spec.dim == 1
        assert spec.variables == ("xy",)

    def test_vars_declaration_controls_order(self):
        spec = parse_factored_product("vars x, y, z; z*y")
        assert spec.variables == ("x", "y", "z")
        assert spec.normals == RationalMatrix([[0, 0, 1], [0, 1, 0]])

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_factored_product("vars x, y; x*w")

    def test_affine_factor(self):
        spec = parse_factored_product("x*(x-1)")
        assert spec.offsets == (F(0), F(-1))

    def test_rational_coefficients(self):
        spec = parse_factored_product("(1/2*x + y - 3/4)")
        assert spec.normals == RationalMatrix([[F(1, 2), 1]])
        assert spec.offsets == (F(-3, 4),)

    def test_coefficient_juxtaposition(self):
        spec = parse_factored_product("(2x + 1/2 y)")
        assert spec.normals == RationalMatrix([[2, F(1, 2)]])

    def test_zero_exponent_drops_after_normalize(self):
        arr = normalize(parse_factored_product("vars x, y; y^0*x"))
        assert arr.normals == RationalMatrix([[1, 0]])
        assert arr.multiplicities == (1,)
        assert arr.dim == 2

    def test_repeated_factor_multiplicities_merge(self):
        arr = normalize(parse_factored_product("x*x^2"))
        assert arr.multiplicities == (3,)

    def test_integer_and_fraction_coefficients_mix_exactly(self):
        assert parse_factored_product("(x + 1/2*x)").normals == RationalMatrix([[F(3, 2)]])
        spec = parse_factored_product("(1/3 + 2/3 + x)")
        assert spec.offsets == (F(1),) and format_rational(spec.offsets[0]) == "1"
        assert parse_factored_product("(2/4*x + y)") == parse_factored_product("(1/2*x + y)")
        assert parse_factored_product("(x - x + y)").normals == RationalMatrix([[0, 1]])
        for text in ("x*(x + 1/2*x)*(1/3 + 2/3 + x)", "(2/4*x + y - 3)", "(x - x + y)", "(1/2*x - 1/2*x)"):
            spec = parse_factored_product(text)
            assert all(type(x) is Fraction for row in spec.normals for x in row)
            assert all(type(x) is Fraction for x in spec.offsets)

    def test_coefficients_that_cancel_leave_a_zero_normal(self):
        spec = parse_factored_product("(1/2*x - 1/2*x)")
        assert spec.normals == RationalMatrix([[0]])
        with pytest.raises(InvalidHyperplaneError, match="^row 0 has a zero normal vector with multiplicity 1$"):
            normalize(spec)

    def test_vars_is_a_variable_without_semicolon(self):
        spec = parse_factored_product("vars")
        assert spec.variables == ("vars",)


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_factored_product("x*)y")
        assert err.value.position == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_factored_product("x$y")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_factored_product("(x+y")

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_factored_product("x^-2")

    @pytest.mark.parametrize("text", ["(x*y)", "(x^2+y)", "(x y)", "(2*x*y)"])
    def test_nonlinear_factor(self, text):
        with pytest.raises(NonlinearFactorError):
            parse_factored_product(text)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_factored_product("   ")

    # (text, exception class, position): the class and position of each error
    # are part of the interface; the message wording is not.
    @pytest.mark.parametrize(
        "text, cls, position",
        [
            # Empty or truncated input: the position is len(text).
            ("x*)y", ParseError, 2),
            ("(x+y", ParseError, 4),
            ("x^", ParseError, 2),
            ("x*", ParseError, 2),
            ("   ", ParseError, 3),
            # Tokens and exponents.
            ("x^-2", ParseError, 2),
            ("x$y", ParseError, 1),
            ("3", ParseError, 0),
            (";", ParseError, 0),
            # Terms inside parentheses.
            ("(2*)", ParseError, 3),
            ("(x*2)", ParseError, 2),
            ("(1/0 x)", ParseError, 3),
            ("(1/ x)", ParseError, 4),
            ("(x+)", ParseError, 3),
            # vars declarations.
            ("vars x y; x", ParseError, 7),
            ("vars x,; x", ParseError, 7),
            ("vars ;x", ParseError, 5),
            ("vars x, x; x", ParseError, 8),
            ("vars x; y", UnknownVariableError, 8),
            # Nonlinear factors.
            ("(x y)", NonlinearFactorError, 3),
            ("(2*x*y)", NonlinearFactorError, 5),
            ("(x^2+y)", NonlinearFactorError, 2),
        ],
    )
    def test_error_class_and_position(self, text, cls, position):
        with pytest.raises(ParseError) as err:
            parse_factored_product(text)
        assert type(err.value) is cls
        assert err.value.position == position

    def test_input_that_ends_early_names_the_end(self):
        with pytest.raises(ParseError, match=r"expected '\)', found end of input \(at position 4\)"):
            parse_factored_product("(x+y")


FUZZ_TOKENS = "x y z vars xy 2 1 0 3/4 * ^ ( ) + - , ; / x1 $".split() + [" "]


def test_random_token_strings_parse_or_fail_in_range():
    """Every string parses or fails at a position inside it; what parses reads back."""
    rng = random.Random(2024)
    parsed = 0
    for _ in range(20_000):
        text = "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 10)))
        if rng.random() < 0.3:
            text = "vars " + text
        try:
            spec = parse_factored_product(text)
        except RlctError as err:
            assert 0 <= err.position <= len(text), text
            continue
        try:
            arr = normalize(spec)
        except RlctError:
            continue
        again = normalize(parse_factored_product(format_factored_product(arr)))
        assert again == arr, text
        assert again.variables == spec.variables, text
        parsed += 1
    assert parsed > 500


# Distinct identifiers, including one that is also the "vars" keyword.
NAME_POOL = ["u", "v_2", "_w", "X", "vars"]


class TestFormatRoundTrip:
    def test_named_examples(self):
        for text in ["x*y", "x*y^2*z^2*(x+y+z)", "x*(x-1)", "(x + 1/2*y - 3)^4*(y - 2)"]:
            arr = normalize(parse_factored_product(text))
            printed = format_factored_product(arr)
            assert normalize(parse_factored_product(printed)) == arr

    def test_unused_variable_survives(self):
        arr = normalize(parse_factored_product("vars x, y; y"))
        printed = format_factored_product(arr)
        again = normalize(parse_factored_product(printed))
        assert again == arr
        assert again.dim == 2

    def test_random_round_trips(self):
        rng = random.Random(321)
        for _ in range(60):
            d = rng.randint(1, 4)
            n = rng.randint(1, 5)
            rows, offsets, mults = [], [], []
            for _ in range(n):
                while True:
                    row = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
                    if any(row):
                        break
                rows.append(row)
                offsets.append(F(rng.randint(-2, 2), rng.randint(1, 2)))
                mults.append(rng.randint(1, 4))
            names = rng.sample(NAME_POOL, d)
            arr = normalize(ArrangementSpec(rows, mults, offsets=offsets, variables=names))
            printed = format_factored_product(arr)
            again = normalize(parse_factored_product(printed))
            assert again == arr
            assert again.variables == tuple(names)
