"""Exact rationals at the edges, and the integer rows of the closure.

`RationalMatrix` is a matrix of `fractions.Fraction`, so nothing read in
or printed ever rounds. Arrangements store integer rows (`integer_row`,
`primitive_int_row`) and build their `normals` in it only when read, and
`as_rational` and `format_rational` read and print single values.

The lattice closure works on primitive integer rows instead, and
`eliminate` is the package's one elimination step. The closure runs it
once per flat that can build a new flat, on the groups that rules (a)-(c)
of `lattice._closure` leave; `lattice._insert`, which `_canonical_rows`
folds over a chain, `threshold._normal_crossing` and `integer_rank` run it
too. The rows the closure carries for a flat are the rational RREF with
each row rescaled to a primitive integer vector, so two flats are equal if
and only if their rows are. `normalize` merges hyperplanes on such rows
too, and `lead_keys` is the one exact sort key of rows read over their
leads, for `normalize` and the lattice order alike. `meets_box` decides on
such rows whether a flat meets a closed box, on integers too: it reads each
Fraction bound's numerator and denominator once, at entry, and builds no
Fraction after.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import DimensionError

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to a Fraction.

    Floats are rejected deliberately: all combinatorial computations are
    exact, and a float slipping in would silently poison that.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q", shortened to "p" for integers."""
    return str(value)


def quotient_strings(nums: Sequence[int], den: int) -> list[str]:
    """Each x / den in lowest terms, as `format_rational` prints
    `Fraction(x, den)`, with no `Fraction`: den > 0, so with g = gcd(x, den)
    the reduced denominator den // g is positive too."""
    return [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in nums]


@dataclass(frozen=True, slots=True)
class RationalMatrix:
    """Immutable dense matrix of Fractions, row-major.

    A matrix may have zero rows, so the column count is tracked explicitly.
    Instances are hashable and compare by shape and entries.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    def __init__(self, rows: Iterable[Iterable[RationalLike]] = (), cols: int | None = None):
        data = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise DimensionError(f"cols={cols} does not match row width {width}")
            cols = width
        elif cols is None:
            raise DimensionError("a matrix with no rows needs an explicit column count")
        if cols < 1:
            raise DimensionError("matrices must have at least one column")
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "cols", cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"RationalMatrix([{body}], cols={self.cols})"

    def to_string_lists(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]


# ---------------------------------------------------------------------------
# Primitive integer rows (the arithmetic of the lattice closure)
# ---------------------------------------------------------------------------


def integer_row(row: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """A row of ints and Fractions as (integers, den), den the least positive
    integer that makes den·row integer, so equal rows give equal pairs."""
    den = lcm(*(x.denominator for x in row))
    return tuple([x.numerator * (den // x.denominator) for x in row]), den


def primitive_int_row(row: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Rescale a row of ints and Fractions to the primitive integer vector
    with positive lead; a zero row stays zero."""
    ints = integer_row(row)[0]
    g = gcd(*ints) or 1
    if next(filter(None, ints), 1) < 0:
        g = -g
    return tuple([x // g for x in ints])


def lead_keys(rows: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Integer keys that order integer rows with positive leads exactly as
    their rational values do, each row read as its entries over its lead p,
    its first nonzero entry. With P the largest lead among the rows, two
    distinct values x/p and y/q differ by at least 1/(pq) >= 1/P^2. Scaled
    by 2^shift > P^2 they differ by more than 1, so flooring keeps every
    strict inequality, and equal values floor equally: the key
    (x << shift) // p gives exactly the rational order on these rows. A
    common denominator is no option, since the lcm of the leads can run to
    thousands of digits. Each distinct row is keyed once, and the keys hold
    for this call's shift only.
    """
    keys = dict.fromkeys(rows)
    leads = [next(filter(None, row)) for row in keys]
    shift = 2 * max(leads).bit_length()
    for row, p in zip(keys, leads):
        keys[row] = tuple((x << shift) // p for x in row)
    return keys


def eliminate(groups: dict[tuple[int, ...], int], residue: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Every row of `groups` but `residue` after one step at the residue's lead,
    with the bitmasks of rows that become equal OR-ed, in insertion order.

    A row `other` with c = other[pc] nonzero at the lead pc becomes
    p·other − c·residue, p = residue[pc], divided by its own gcd and signed
    so that its lead is positive. A row zero at pc passes through unchanged.
    The rows must be primitive with positive leads and none a multiple of the
    residue but the residue itself, so that no step ends at zero. This is
    the closure's hot loop, so the step is written out here, with no call
    per row.
    """
    pc = residue.index(next(filter(None, residue)))
    p = residue[pc]
    out: dict[tuple[int, ...], int] = {}
    for other, group in groups.items():
        c = other[pc]
        if c:
            if other == residue:
                continue
            row = [p * a - c * b for a, b in zip(other, residue)]
            g = gcd(*row)
            if next(filter(None, row)) < 0:
                g = -g
            other = tuple(row) if g == 1 else tuple([x // g for x in row])
        out[other] = out.get(other, 0) | group
    return out


def integer_rank(rows: Iterable[tuple[int, ...]]) -> int:
    """Rank of primitive integer rows with positive leads (zero rows are
    dropped): steps of `eliminate` on the first remaining row, one per unit
    of rank, until no row is left."""
    groups = dict.fromkeys(filter(any, rows), 0)
    rank = 0
    while groups:
        groups = eliminate(groups, next(iter(groups)))
        rank += 1
    return rank


def meets_box(rows: Sequence[tuple[int, ...]], bounds: Sequence[tuple[Fraction, Fraction]]) -> bool:
    """Whether some x with lo <= x <= hi solves a·x + b = 0 for every integer
    row (a | b), decided exactly, on integers only, by phase one of the
    simplex method.

    The box is scaled to integers once: with D (`scale`) the lcm of the
    bounds' denominators, s = D·(x - lo) and w = D·(hi - lo), the question
    is whether A·s = r, 0 <= s <= w has a solution, r = -(D·b + A·(D·lo)).
    D·lo, w and r are integers, read off each bound's numerator and
    denominator at entry. In equality form with slacks t = w - s >= 0, each
    row s_i + t_i = w_i starts with t_i basic, and each equation, its sign
    flipped so that r >= 0, starts with an artificial variable basic. The
    pivots lower the artificials' sum, choosing the entering and the leaving
    variable by Bland's rule so that no cycle occurs. The ratio test
    compares right sides over entering entries, c_i / e_i, by
    cross-multiplying (c_i·e_j < c_j·e_i, both e positive), and breaks ties
    on the basis index. The box meets the solutions iff the sum ends at 0.
    An equation 0 = r with r != 0 keeps its artificial positive.

    Artificials get no column, so the tableau is 2d + 1 wide. One that
    leaves the basis is 0 and never re-enters: what remains is the same LP
    with that artificial fixed at 0, and its least sum is still 0 iff the
    equations meet the box, since a solution has every artificial at 0. It
    still terminates: the set of variables only shrinks, at most once per
    equation, and on each fixed set Bland's rule cannot cycle. Rows stay
    integer: a pivot scales each other row by the pivot entry, which is
    positive, and cuts it by its gcd, so no sign and no ratio changes.
    (Fourier–Motzkin, the textbook alternative, can blow up doubly
    exponentially: a codim-4 flat in 8 variables took seconds.)
    """
    d, k = len(bounds), len(rows)
    scale = lcm(*(x.denominator for bound in bounds for x in bound))
    lows = [low.numerator * (scale // low.denominator) for low, _ in bounds]
    table = []  # columns s, t; the right side is last
    for row in rows:
        r = -scale * row[d] - sum(a * low for a, low in zip(row, lows))
        sign = -1 if r < 0 else 1
        table.append([sign * a for a in row[:d]] + [0] * d + [sign * r])
    for i, (low, high) in enumerate(bounds):
        line = [0] * (d + d) + [high.numerator * (scale // high.denominator) - lows[i]]
        line[i] = line[d + i] = 1
        table.append(line)
    basis = [d + d + i for i in range(k)] + [d + i for i in range(d)]
    # Reduced costs of the artificials' sum, then its negated value.
    cost = [-sum(line[j] for line in table[:k]) for j in range(d + d + 1)]
    while True:
        enter = next((j for j in range(d + d) if cost[j] < 0), None)
        if enter is None:
            return cost[-1] == 0
        # Some entry is positive, since the artificials' sum is bounded below.
        leave = -1
        for i, line in enumerate(table):
            e = line[enter]
            if e > 0 and (leave < 0 or (line[-1] * pivot[enter], basis[i]) < (pivot[-1] * e, basis[leave])):
                leave, pivot = i, line
        p = pivot[enter]
        for line in table + [cost]:
            if line is not pivot and line[enter]:
                f = line[enter]
                line[:] = [p * x - f * y for x, y in zip(line, pivot)]
                g = gcd(*line)
                if g > 1:
                    line[:] = [x // g for x in line]
        basis[leave] = enter
