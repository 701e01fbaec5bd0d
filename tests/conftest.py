"""Shared generators for randomized tests, and one injected fault. Everything
is seeded explicitly."""

import itertools
import random
from fractions import Fraction

from hypothesis import settings

from rlct import ArrangementSpec, NormalizedArrangement, RationalMatrix, normalize
from rlct.oracle import rref

# Hypothesis draws the same examples on every run and every Python; each
# test keeps its own max_examples.
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def random_rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_central_arrangement(
    rng: random.Random,
    max_n: int = 10,
    max_d: int = 5,
    max_mult: int = 4,
    span: int = 4,
    max_den: int = 1,
) -> NormalizedArrangement:
    """A random normalized central arrangement; rows are retried until nonzero."""
    d = rng.randint(1, max_d)
    n = rng.randint(1, max_n)
    rows = []
    for _ in range(n):
        while True:
            row = [Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(d)]
            if any(row):
                break
        rows.append(row)
    mults = [rng.randint(1, max_mult) for _ in range(n)]
    return normalize(ArrangementSpec(RationalMatrix(rows, cols=d), mults))


def random_invertible(rng: random.Random, d: int, span: int = 3) -> RationalMatrix:
    while True:
        candidate = RationalMatrix(
            [[Fraction(rng.randint(-span, span)) for _ in range(d)] for _ in range(d)]
        )
        if rref(candidate)[1] == d:
            return candidate


def unreduced_rref_strings(rref_strings):
    """A faulty `lattice._rref_strings` that leaves x/p unreduced whenever 5 divides x."""

    def unreduced(row):
        p = next(x for x in row if x)
        return [f"{x}/{p}" if x % 5 == 0 and x and x != p else s for x, s in zip(row, rref_strings(row))]

    return unreduced


def meets_box_bruteforce(rows, bounds) -> bool:
    """Whether a·x + b = 0 for every row (a | b) has a solution with
    lo <= x <= hi, by vertex enumeration in Fractions.

    The solutions in the box form a bounded polyhedron, so if there are any,
    one is a vertex: the unique solution of the equations together with
    some coordinates fixed at a bound. Every choice of bound per coordinate
    (none, lo or hi) is solved by `rref` and its solution checked.
    """
    d = len(bounds)
    for choice in itertools.product((None, 0, 1), repeat=d):
        system = [tuple(Fraction(x) for x in row) for row in rows]
        for i, side in enumerate(choice):
            if side is not None:
                system.append(tuple(Fraction(int(c == i)) for c in range(d)) + (-bounds[i][side],))
        if not system:
            continue
        reduced, r, pivots = rref(RationalMatrix(system, cols=d + 1))
        if r == d and pivots == tuple(range(d)):
            point = [-reduced.entries[i][d] for i in range(d)]
            if all(lo <= x <= hi for x, (lo, hi) in zip(point, bounds)):
                return True
    return False
