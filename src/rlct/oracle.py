"""Naive reference implementations, and the `--verify` checks built on them.

These deliberately mirror the textbook all-subsets construction: one scan
(`_closed_sets`) takes the rational RREF of every nonempty subset of rows,
and each distinct RREF is a flat whose members are the rows of the subsets
that share it. It is all Fraction arithmetic, flats print themselves, and
nothing is shared with the integer closure of production, which is the
point: `verify_central` and `verify_report` (behind the CLI `--verify`
flag) and the test suite compare the two. Longest chains, geometric or of
member masks, are one DP (`_longest_chain`).

The module owns its Fraction linear algebra (`rref`, `rank`,
`row_space_canonical`, `kernel_basis`, `row_in_row_space`,
`subspace_leq`); no production module calls it, and it imports nothing
from `lattice` or `threshold`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .arrangement import NormalizedArrangement
from .errors import CentralityError, DimensionError, SizeLimitError
from .ratlinalg import RationalLike, RationalMatrix, as_rational

# 2^n subsets at 0.4-0.9 ms each (generic draws, n = 14-17 in 4-6
# variables): 2 minutes at 17 hyperplanes, and 7-16 minutes for 2^20 subsets.
MAX_BRUTEFORCE_HYPERPLANES = 20
# 2^16 subsets at 0.5-0.7 ms each (generic draws in 4 variables): an affine
# --verify of under a minute, where 20 hyperplanes would take about 10 minutes.
MAX_BRUTEFORCE_LOCALIZATION_HYPERPLANES = 16
MAX_BRUTEFORCE_CHAIN_FLATS = 50


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns (R, rank, pivot_columns). R is unique for the row space of the
    input: pivots are 1, pivot columns are otherwise zero, zero rows trail.
    """
    work = [list(row) for row in matrix]
    n_rows, width = matrix.rows, matrix.cols
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        if pivot != 1:
            work[r] = [x / pivot for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return RationalMatrix(work, cols=width), r, tuple(pivots)


def rank(matrix: RationalMatrix) -> int:
    return rref(matrix)[1]


def row_space_canonical(matrix: RationalMatrix) -> RationalMatrix:
    """RREF with zero rows removed: the canonical representative of a row space.

    Equal row spaces map to equal (hashable) matrices, so the result doubles
    as a dedup key.
    """
    reduced, rk, _ = rref(matrix)
    return RationalMatrix(reduced.entries[:rk], cols=matrix.cols)


def kernel_basis(matrix: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the right kernel {x : Mx = 0}, one vector per row.

    The result has cols(M) - rank(M) rows and is itself in canonical
    (RREF, no zero rows) form.
    """
    reduced, rk, pivots = rref(matrix)
    width = matrix.cols
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i, f]
        basis.append(vec)
    return row_space_canonical(RationalMatrix(basis, cols=width))


def row_in_row_space(row: Sequence[RationalLike], canonical: RationalMatrix) -> bool:
    """Membership test against a matrix already in RREF; zero rows are skipped."""
    residue = [as_rational(x) for x in row]
    if len(residue) != canonical.cols:
        raise DimensionError("row length does not match matrix width")
    for basis_row in canonical:
        lead = next((c for c, x in enumerate(basis_row) if x != 0), None)
        if lead is None:
            continue
        factor = residue[lead]
        if factor != 0:
            residue = [a - factor * b for a, b in zip(residue, basis_row)]
    return all(x == 0 for x in residue)


def subspace_leq(w1_normals: RationalMatrix, w2_normals: RationalMatrix) -> bool:
    """True iff the flat with normal space w1 lies inside the flat with normal space w2.

    Containment of flats reverses containment of their normal spaces, so this
    checks row_space(w2) <= row_space(w1). Inputs need not be canonical.
    """
    if w1_normals.cols != w2_normals.cols:
        raise DimensionError("normal spaces live in different ambient dimensions")
    canon1 = row_space_canonical(w1_normals)
    return all(row_in_row_space(row, canon1) for row in w2_normals)


class ReferenceFlat(namedtuple("ReferenceFlat", "rows mask weight")):
    """A flat as the oracle sees it: `rows` the rational RREF of its normal
    space, `mask` its member bitmask, `weight` its total multiplicity."""

    @property
    def codim(self) -> int:
        return len(self.rows)

    def to_json_dict(self) -> dict:
        members = [j for j in range(self.mask.bit_length()) if self.mask >> j & 1]
        return {"normal_space": RationalMatrix(self.rows).to_string_lists(), "codim": self.codim,
                "s": self.weight, "members": members}


# The oracle's flats, in its own rational order.
ReferenceLattice = namedtuple("ReferenceLattice", "flats")


def lattice_bruteforce(arr: NormalizedArrangement) -> ReferenceLattice:
    """All-subsets intersection lattice, by `_closed_sets` on the normals;
    cost grows as 2^n. Flats are sorted by their rational RREF, not the
    production key, which is checked against this order."""
    if not arr.is_central:
        raise CentralityError("the brute-force lattice needs a central arrangement")
    n = arr.n
    if n > MAX_BRUTEFORCE_HYPERPLANES:
        raise SizeLimitError(f"brute force is capped at {MAX_BRUTEFORCE_HYPERPLANES} hyperplanes, got {n}")
    flats = [ReferenceFlat(span, mask, sum(s for j, s in enumerate(arr.multiplicities) if mask >> j & 1))
             for span, mask in _closed_sets(arr.normals.entries, arr.dim).items()]
    return ReferenceLattice(flats=tuple(sorted(flats, key=lambda flat: (flat.codim, flat.rows))))


def localizations_bruteforce(arr: NormalizedArrangement) -> list[tuple[int, ...]]:
    """Sorted member sets of the maximal localizations: the inclusion-maximal
    masks of `_closed_sets` on the rows (a | b)."""
    n = arr.n
    if n > MAX_BRUTEFORCE_LOCALIZATION_HYPERPLANES:
        raise SizeLimitError(
            f"brute-force localizations are capped at {MAX_BRUTEFORCE_LOCALIZATION_HYPERPLANES} hyperplanes, got {n}"
        )
    masks = _closed_sets([a + (b,) for a, b in zip(arr.normals, arr.offsets)], arr.dim).values()
    return sorted(tuple(j for j in range(n) if mask >> j & 1)
                  for mask in masks if not any(mask & other == mask != other for other in masks))


def _closed_sets(rows: Sequence[tuple[Fraction, ...]], d: int) -> dict[tuple, int]:
    """Each distinct RREF (zero rows dropped) of a nonempty subset of `rows`
    with no pivot in column d, mapped to the mask of the rows in its span.
    Rows are normals a, d wide, which never pivot there, or rows (a | b),
    which pivot there iff they have no common point (Rouché–Capelli). A row
    lies in the span of a subset iff adding it keeps the RREF, so the mask is
    the union of the subsets with that RREF: the hyperplanes through its flat."""
    spans: dict[tuple, int] = {}
    for r in range(1, len(rows) + 1):
        for comb in combinations(range(len(rows)), r):
            reduced, rk, pivots = rref(RationalMatrix([rows[j] for j in comb]))
            if d not in pivots:
                span = reduced.entries[:rk]
                spans[span] = spans.get(span, 0) | sum(1 << j for j in comb)
    return spans


def longest_chain_bruteforce(flats) -> int:
    """Length of the longest strictly nested chain of flats, by `_longest_chain`
    on their rational row spans, largest codim first: a flat strictly inside
    another has the larger codim. Containment is tested geometrically
    (`_strictly_inside`), not through member sets, so this really is an
    independent route. Production `Flat`s and `ReferenceFlat`s both work."""
    flats = list(flats)
    if len(flats) > MAX_BRUTEFORCE_CHAIN_FLATS:
        raise SizeLimitError(
            f"brute-force chain search is capped at {MAX_BRUTEFORCE_CHAIN_FLATS} flats, got {len(flats)}"
        )
    spaces = [RationalMatrix(flat.rows) for flat in sorted(flats, key=lambda flat: -len(flat.rows))]
    return _longest_chain(spaces, _strictly_inside)


def _longest_mask_chain(masks) -> int:
    """Length of the longest strictly nested chain of member masks, by
    `_longest_chain` on the masks by member count: a strict subset has fewer.
    On one lattice's flats this is their longest chain: a flat is the
    intersection of its members, so flats nest strictly iff their masks do, reversed."""
    return _longest_chain(sorted(masks, key=int.bit_count), lambda low, high: low & high == low != high)


def _longest_chain(items: list, below) -> int:
    """Length of the longest chain of `items` under the strict order `below`,
    by a DP over the items in their given order, which lists everything
    below an item before it. O(M^2) tests for M items."""
    longest: list[int] = []
    for item in items:
        longest.append(1 + max((k for low, k in zip(items, longest) if below(low, item)), default=0))
    return max(longest, default=0)


def _strictly_inside(low: RationalMatrix, high: RationalMatrix) -> bool:
    """The flat with normal space `low` lies strictly inside the one with `high`."""
    return subspace_leq(low, high) and not subspace_leq(high, low)


def verify_central(arr: NormalizedArrangement, result) -> dict:
    """Check `result = rlct_central(arr)` against the oracles: its lattice
    prints exactly as the all-subsets one, its threshold is the least
    codim/s over the oracle's flats and its minimizers print as the oracle's
    flats at that ratio, in the oracle's order (all under "lattice_match");
    and its witness chain is m minimizers, each strictly inside the next,
    with m the longest chain of the oracle's minimizers, from their masks
    (`_longest_mask_chain`, under "chain_match")."""
    flats = lattice_bruteforce(arr).flats
    least = min(Fraction(f.codim, f.weight) for f in flats)
    reference = [f.to_json_dict() for f in flats]
    minimizers = [(f.mask, doc) for f, doc in zip(flats, reference) if Fraction(f.codim, f.weight) == least]
    chain = [RationalMatrix(flat.rows) for flat in result.witness_chain]
    chain_match = (
        _longest_mask_chain(mask for mask, _ in minimizers) == result.pair.multiplicity == len(chain)
        and all(flat in result.minimizer_flats for flat in result.witness_chain)
        and all(_strictly_inside(low, high) for low, high in zip(chain, chain[1:]))
    )
    lattice_match = (
        [f.to_json_dict() for f in result.lattice.flats] == reference
        and result.pair.threshold == least
        and [f.to_json_dict() for f in result.minimizer_flats] == [doc for _, doc in minimizers]
    )
    return {"lattice_match": lattice_match, "chain_match": chain_match}


def verify_report(arr: NormalizedArrangement, report) -> dict:
    """Check `report = rlct_affine(arr)`: `verify_central` on each distinct
    local result, once however many localizations share it; the hyperplanes
    through the reported points are exactly the oracle's maximal
    localizations, and the global localization is the first one with the
    least local pair, smaller threshold first, then larger multiplicity
    (both under "localization_match"). The localizations come first, so an
    input past their cap fails before any other oracle work."""
    expected = localizations_bruteforce(arr)
    results = {id(loc.result): loc.result for loc in report.localizations}.values()
    checks = [verify_central(result.arrangement, result) for result in results]
    found = sorted(
        tuple(j for j, (normal, offset) in enumerate(zip(arr.normals, arr.offsets))
              if sum(a * x for a, x in zip(normal, loc.point)) + offset == 0)
        for loc in report.localizations
    )
    pairs = [(loc.pair.threshold, -loc.pair.multiplicity) for loc in report.localizations]
    return {**{key: all(c[key] for c in checks) for key in ("lattice_match", "chain_match")},
            "localization_match": found == expected
            and report.global_index == pairs.index(min(pairs))}
