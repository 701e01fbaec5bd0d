"""Rational matrix operations: frozen examples plus algebraic properties."""

import ast
import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlct.ratlinalg
from rlct import (
    DimensionError,
    RationalMatrix,
    as_rational,
    row_space_canonical,
    rref,
    subspace_leq,
)
from rlct.lattice import _canonical_rows, _closure
from rlct.ratlinalg import (
    format_rational,
    integer_rank,
    lead_sorted,
    lead_strings,
    meets_box,
    primitive_int_row,
    quotient_strings,
)

from conftest import matmul, meets_box_bruteforce, random_invertible

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def matrices(draw, min_rows=0, max_rows=4, max_cols=4):
    cols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=min_rows, max_size=max_rows)
    )
    return RationalMatrix(rows, cols=cols)


class TestRref:
    def test_identity(self):
        m = RationalMatrix([[1, 0], [0, 1]])
        reduced, rk, pivots = rref(m)
        assert reduced == m
        assert rk == 2
        assert pivots == (0, 1)

    def test_proportional_rows(self):
        reduced, rk, pivots = rref(RationalMatrix([[1, 1], [2, 2]]))
        assert reduced == RationalMatrix([[1, 1], [0, 0]])
        assert rk == 1
        assert pivots == (0,)

    def test_fractional_entries(self):
        # Frozen from hand-run exact elimination:
        #   (1/2, 1, 0) -> x2 -> (1, 2, 0); (0, 1/3, 1) -> x3 -> (0, 1, 3);
        #   r1 - 2*r2 = (1, 0, -6).
        reduced, rk, pivots = rref(RationalMatrix([[F(1, 2), 1, 0], [0, F(1, 3), 1]]))
        assert reduced == RationalMatrix([[1, 0, -6], [0, 1, 3]])
        assert rk == 2
        assert pivots == (0, 1)

    def test_empty_matrix(self):
        empty = RationalMatrix([], cols=3)
        reduced, rk, pivots = rref(empty)
        assert reduced == empty
        assert rk == 0
        assert pivots == ()

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_idempotent(self, m):
        reduced, rk, pivots = rref(m)
        again, rk2, pivots2 = rref(reduced)
        assert again == reduced
        assert (rk2, pivots2) == (rk, pivots)


class TestRowSpaceCanonical:
    def test_scaling_normalized_away(self):
        assert row_space_canonical(RationalMatrix([[2, 0], [0, 3]])) == RationalMatrix([[1, 0], [0, 1]])

    def test_dependent_row_dropped(self):
        assert row_space_canonical(RationalMatrix([[1, 1], [2, 2]])) == RationalMatrix([[1, 1]])

    def test_equal_spans_equal_canonical_forms(self):
        # Elimination oracle: both reduce to [[1,0,1],[0,1,1]], so the spans match.
        a = row_space_canonical(RationalMatrix([[1, 2, 3], [0, 1, 1]]))
        b = row_space_canonical(RationalMatrix([[1, 1, 2], [0, 1, 1]]))
        assert a == b == RationalMatrix([[1, 0, 1], [0, 1, 1]])

    def test_invariant_under_invertible_left_factor(self):
        rng = random.Random(101)
        for _ in range(40):
            d = rng.randint(1, 4)
            m = RationalMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(d)])
            p = random_invertible(rng, d)
            assert row_space_canonical(matmul(p, m)) == row_space_canonical(m)


class TestSubspaceLeq:
    def test_origin_inside_line(self):
        origin_normals = RationalMatrix([[1, 0], [0, 1]])
        line_normals = RationalMatrix([[1, 0]])
        assert subspace_leq(origin_normals, line_normals)
        assert not subspace_leq(line_normals, origin_normals)

    def test_two_lines_incomparable(self):
        x_axis = RationalMatrix([[0, 1]])
        y_axis = RationalMatrix([[1, 0]])
        assert not subspace_leq(x_axis, y_axis)
        assert not subspace_leq(y_axis, x_axis)

    def test_nested_pair_by_appending_row(self):
        rng = random.Random(7)
        for _ in range(30):
            d = rng.randint(2, 5)
            base = [[Fraction(rng.randint(-4, 4)) for _ in range(d)]]
            outer = row_space_canonical(RationalMatrix(base, cols=d))
            if outer.rows == 0:
                continue
            extra = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
            inner = row_space_canonical(RationalMatrix(base + [extra], cols=d))
            assert subspace_leq(inner, outer)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            subspace_leq(RationalMatrix([[1, 0]]), RationalMatrix([[1, 0, 0]]))

    def test_partial_order_on_random_flats(self):
        rng = random.Random(55)
        for _ in range(60):
            d = rng.randint(1, 4)
            mats = [
                row_space_canonical(
                    RationalMatrix(
                        [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(rng.randint(1, d))],
                        cols=d,
                    )
                )
                for _ in range(3)
            ]
            a, b, c = mats
            assert subspace_leq(a, a)
            if subspace_leq(a, b) and subspace_leq(b, a):
                assert a == b
            if subspace_leq(a, b) and subspace_leq(b, c):
                assert subspace_leq(a, c)


class TestRationalMatrixValue:
    """Equality, hashing and printing depend only on the entries and the width."""

    def test_equal_entries_are_equal_values(self):
        a = RationalMatrix([[1, "1/2"], [0, 3]])
        b = RationalMatrix([[F(1), F(1, 2)], [F(0), F(3)]], cols=2)
        assert a == b
        assert hash(a) == hash(b)
        assert RationalMatrix([[1, 2]]) != RationalMatrix([[1, 3]])

    def test_one_dict_key_and_one_set_member(self):
        a, b = RationalMatrix([[2, -1]]), RationalMatrix([[2, -1]])
        assert len({a: 1, b: 2}) == 1
        assert len({a, b}) == 1

    def test_zero_row_matrices_differ_by_width(self):
        assert RationalMatrix([], cols=2) != RationalMatrix([], cols=3)
        assert RationalMatrix([], cols=2) == RationalMatrix([], cols=2)

    def test_never_equal_to_a_non_matrix(self):
        m = RationalMatrix([[1, 2]])
        assert m != ((F(1), F(2)),)
        assert m != (((F(1), F(2)),), 2)
        assert m != {"entries": ((F(1), F(2)),), "cols": 2}

    def test_repr(self):
        assert repr(RationalMatrix([[1, "1/2"]])) == "RationalMatrix([[1, 1/2]], cols=2)"

    def test_immutable(self):
        m = RationalMatrix([[1, 2]])
        with pytest.raises(AttributeError):
            m.cols = 3
        assert m.cols == 2

    def test_floats_are_not_rationals(self):
        # Exactness: a float never enters, even one that is a dyadic rational.
        with pytest.raises(TypeError):
            as_rational(1.5)
        with pytest.raises(TypeError):
            RationalMatrix([[1, 0.5]])

    def test_shape_checks(self):
        with pytest.raises(DimensionError, match="inconsistent lengths"):
            RationalMatrix([[1, 2], [3]])
        with pytest.raises(DimensionError, match="does not match"):
            RationalMatrix([[1, 2]], cols=3)
        with pytest.raises(DimensionError, match="at least one column"):
            RationalMatrix([[]])
        with pytest.raises(DimensionError, match="at least one column"):
            RationalMatrix([], cols=0)
        with pytest.raises(DimensionError, match="explicit column count"):
            RationalMatrix([])


class TestQuotientStrings:
    def test_prints_as_format_rational(self):
        # The integer point text: each x / den in lowest terms, exactly as
        # `format_rational(Fraction(x, den))`, with no `Fraction`.
        rng = random.Random(491)
        wide = zeros = whole = negative = 0
        for _ in range(3000):
            bits = rng.choice((3, 20, 70, 130))
            den = rng.choice((1, rng.randint(1, 2**bits), rng.randint(1, 9)))
            nums = [rng.choice((0, rng.randint(-(2**bits), 2**bits), den * rng.randint(-9, 9), rng.randint(-9, 9)))
                    for _ in range(rng.randint(1, 5))]
            assert quotient_strings(nums, den) == [format_rational(Fraction(x, den)) for x in nums]
            wide += any(abs(x) >= 2**64 for x in nums) and den >= 2**64
            zeros += 0 in nums
            whole += den == 1
            negative += any(x < 0 for x in nums)
        assert min(wide, zeros, whole, negative) >= 300, (wide, zeros, whole, negative)


def _lead_rows(rng: random.Random, d: int, count: int) -> list[tuple[int, ...]]:
    """Primitive integer rows of width d with positive leads from 1 to 10^6,
    negative and zero entries, values over their leads that nearly tie, and
    duplicates."""
    rows = []
    while len(rows) < count:
        if rows and rng.random() < 0.2:
            rows.append(rng.choice(rows))
            continue
        start = rng.randrange(d)
        lead = rng.choice((1, rng.randint(1, 9), rng.randint(1, 10**3), rng.randint(1, 10**6), 10**6))
        row = [0] * start + [lead]
        for _ in range(d - start - 1):
            row.append(rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**7), 10**7))))
        if rows and rng.random() < 0.3:
            # Each entry over the lead within 1/lead of another row's.
            other = rng.choice(rows)
            p = next(filter(None, other))
            if other.index(p) == start:
                row[start + 1:] = [x * lead // p + rng.randint(-1, 1) for x in other[start + 1:]]
        g = math.gcd(*row)
        rows.append(tuple(x // g for x in row))
    return rows


class TestLeadRows:
    """`lead_sorted` and `lead_strings` against `Fraction`s over each row's lead."""

    def test_lead_sorted_is_the_rational_order(self):
        rng = random.Random(4811)
        duplicates = near = 0
        for _ in range(400):
            d = rng.randint(1, 6)
            rows = _lead_rows(rng, d, rng.randint(1, 40))

            def value(row):
                p = next(filter(None, row))
                return [Fraction(x, p) for x in row]

            expected = sorted(set(rows), key=value)
            assert lead_sorted(rows) == expected
            assert lead_sorted(iter(rows)) == expected
            duplicates += len(set(rows)) < len(rows)
            values = sorted(map(value, set(rows)))
            near += any(a[:-1] == b[:-1] and 0 < b[-1] - a[-1] < Fraction(1, 10**5) for a, b in zip(values, values[1:]))
        assert duplicates >= 200 and near >= 20, (duplicates, near)

    def test_lead_strings_prints_each_entry_over_the_lead(self):
        rng = random.Random(4812)
        for _ in range(2000):
            for row in _lead_rows(rng, rng.randint(1, 6), 3):
                p = next(filter(None, row))
                assert lead_strings(row) == [format_rational(Fraction(x, p)) for x in row]


class TestPrimitiveIntRow:
    def test_seeded_rows(self):
        rng = random.Random(11)
        for _ in range(500):
            width = rng.randint(1, 6)
            row = [
                F(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 10**9 + 7, 2**61 - 1, rng.randint(1, 10**6)]))
                if rng.random() < 0.7 else F(0)
                for _ in range(width)
            ]
            if not any(row):
                row[rng.randrange(width)] = F(rng.randint(1, 9), rng.randint(1, 10**12))
            r = primitive_int_row(row)
            assert len(r) == width
            assert all(type(x) is int for x in r)
            assert math.gcd(*r) == 1
            assert next(x for x in r if x) > 0
            for i in range(width):
                for j in range(width):
                    assert r[i] * row[j] == r[j] * row[i]


class TestClosureRows:
    """The closure's integer rows must agree with the Fraction path exactly."""

    @staticmethod
    def _residue(row, canonical):
        # One elimination step b[pc]·residue − residue[pc]·b per canonical row b,
        # at its pivot pc: each row is zero on the other pivots, so the
        # result is zero on them all.
        residue = primitive_int_row(row)
        for b in canonical:
            pc = next(c for c, x in enumerate(b) if x)
            residue = [b[pc] * x - residue[pc] * y for x, y in zip(residue, b)]
        return residue

    @settings(max_examples=80, deadline=None)
    @given(matrices(min_rows=1))
    def test_matches_row_space_canonical(self, m):
        rows = [primitive_int_row(r) for r in m if any(r)]
        canon = tuple(primitive_int_row(r) for r in row_space_canonical(m))
        if not rows:  # `_closure` takes at least one row, as every arrangement has one
            assert canon == ()
            return
        flats = _closure(rows, m.cols)
        # Codim rank(m) iff inclusion-maximal: the one flat of all rows.
        maximal = [(chain, mask) for chain, mask in flats if len(chain) == rref(m)[1]]
        assert [mask for _, mask in maximal] == [(1 << len(rows)) - 1]
        assert [_canonical_rows(chain) for chain, _ in maximal] == [canon]
        assert tuple(next(c for c, x in enumerate(r) if x) for r in canon) == rref(m)[2]

    @settings(max_examples=60, deadline=None)
    @given(matrices(min_rows=1))
    def test_membership_matches(self, m):
        canon = row_space_canonical(m)
        rows = [primitive_int_row(r) for r in canon]
        for row in m:
            assert not any(self._residue(row, rows))
            assert subspace_leq(canon, RationalMatrix([row]))
        for unit in ([int(c == a) for c in range(m.cols)] for a in range(m.cols)):
            assert any(self._residue(unit, rows)) != subspace_leq(canon, RationalMatrix([unit]))

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_integer_rank_matches_rank(self, m):
        rows = [primitive_int_row(r) for r in m]
        assert integer_rank(rows) == rref(m)[1]
        assert integer_rank(rows + rows[::-1]) == integer_rank(rows)


class TestMeetsBox:
    """`meets_box` (phase one of the simplex method) against vertex enumeration."""

    B = staticmethod(lambda *intervals: [(F(lo), F(hi)) for lo, hi in intervals])

    def test_examples(self):
        unit = self.B((0, 1), (0, 1))
        assert meets_box([(10, -1)], self.B(("1/20", "1/5")))  # x = 1/10
        assert not meets_box([(1, 0)], self.B(("1/20", "1/5")))  # x = 0
        # x = 1 crosses [1/2, 2] x [5, 6] far from the witness point (1, 0).
        assert meets_box([(1, 0, -1)], self.B(("1/2", 2), (5, 6)))
        assert meets_box([(1, 1, -2)], unit)  # touches the corner (1, 1)
        assert not meets_box([(1, 1, -2), (1, -1, 1)], unit)  # the point (1/2, 3/2)
        assert not meets_box([(1, 1, 0), (1, 1, -1)], unit)  # parallel: no common point
        assert meets_box([(2, 2, 2, -5)], self.B((0, 1), (0, 1), (0, 1)))
        assert not meets_box([(2, 2, 2, -7)], self.B((0, 1), (0, 1), (0, 1)))
        assert meets_box([], unit)

    def test_matches_vertex_enumeration(self):
        rng = random.Random(91)
        outcomes = []
        for _ in range(300):
            d = rng.randint(1, 4)
            bounds = []
            for _ in range(d):
                lo = F(rng.randint(-6, 4), rng.randint(1, 3))
                bounds.append((lo, lo + F(rng.randint(1, 6), rng.randint(1, 3))))
            # About half the rows pass through one point of the box, so both answers occur.
            inside = [F(rng.randint(0, 4), 4) * (hi - lo) + lo for lo, hi in bounds]
            rows = []
            for _ in range(rng.randint(0, d)):
                normal = [rng.randint(-3, 3) for _ in range(d)]
                if rng.random() < 0.5:
                    offset = -sum(a * x for a, x in zip(normal, inside))
                else:
                    offset = F(rng.randint(-9, 9), rng.randint(1, 2))
                # Any integer multiple: meets_box must not rely on positive leads.
                scale = rng.choice((-2, -1, 1, 3))
                rows.append(tuple(scale * x for x in primitive_int_row(normal + [offset])))
            expected = meets_box_bruteforce(rows, bounds)
            assert meets_box(rows, bounds) == expected, (rows, bounds)
            outcomes.append(expected)
        assert 50 < sum(outcomes) < 250
        # Ratio-test ties and many-digit scales: rows through a vertex of the
        # box, some repeated or negated, on bounds whose denominators are
        # distinct large primes, so that their lcm runs to dozens of digits.
        rng = random.Random(93)
        primes = [10007, 10009, 999983, 1000003, 998244353, 1000000007, 1000000009, 2147483647]
        outcomes = []
        for _ in range(150):
            d = rng.randint(1, 4)
            bounds, dens = [], rng.sample(primes, 2 * d)
            for p, q in zip(dens[::2], dens[1::2]):
                lo = F(rng.randint(-2 * p, p), p)
                bounds.append((lo, lo + F(rng.randint(1, 2 * q), q)))
            vertex = [rng.choice(bound) for bound in bounds]
            rows = []
            for _ in range(rng.randint(1, d + 1)):
                normal = [rng.randint(-2, 2) for _ in range(d)]
                if rng.random() < 0.7:
                    offset = -sum(a * x for a, x in zip(normal, vertex))
                else:
                    offset = F(rng.randint(-3, 3), rng.choice(primes))
                scale, again = rng.choice((-1, 2)), rng.choice((-1, 1))
                rows.append(tuple(scale * x for x in primitive_int_row(normal + [offset])))
                if rng.random() < 0.3:
                    rows.append(tuple(again * x for x in rows[-1]))
            expected = meets_box_bruteforce(rows, bounds)
            assert meets_box(rows, bounds) == expected, (rows, bounds)
            outcomes.append(expected)
        assert 40 < sum(outcomes) < 110

    def test_many_variables(self):
        # Twelve variables, six equations through a known point of the box:
        # met, and missed once x_0 = 2 is added. Fourier–Motzkin would
        # blow up here; the simplex takes a few pivots.
        rng = random.Random(92)
        bounds = self.B(*[(-1, 1)] * 12)
        for _ in range(5):
            inside = [F(rng.randint(-3, 3), 4) for _ in range(12)]
            rows = []
            for _ in range(6):
                normal = [rng.randint(-5, 5) for _ in range(12)]
                rows.append(primitive_int_row(normal + [-sum(a * x for a, x in zip(normal, inside))]))
            assert meets_box(rows, bounds)
            assert not meets_box(rows + [(1,) + (0,) * 11 + (-2,)], bounds)

    def test_decides_on_integers(self):
        # The box is scaled to integers once, at entry, and the ratio test
        # cross-multiplies: the body names no Fraction and converts nothing to one.
        tree = ast.parse(inspect.getsource(rlct.ratlinalg))
        (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "meets_box"]
        names = {getattr(node, "id", getattr(node, "attr", None)) for stmt in function.body for node in ast.walk(stmt)}
        assert not names & {"Fraction", "as_rational"}
