"""Intersection lattice of a central arrangement, and the closure engine behind it.

A flat is a nonempty intersection of some of the hyperplanes (the ambient
space itself is excluded). `_closure` extends each frontier flat by one
outside row at a time, so the cost scales with the lattice size, not with
2^n. It serves both the central lattice (rows: the normals) and the affine
localizations in `threshold.py` (rows: (a | b)), and returns each flat as
its residue chain and member bitmask, so a flat's codim is its chain's
length. It works on integer rows and member bitmasks. A flat computes the
residues of its outside rows only if it can build a new flat, as rules
(a)-(c) of `_closure` say. Only the flats that are read get
`_canonical_rows`, from which come the lattice order, `Flat.rows` and the
"p/q" strings. `_insert` is the one step that adds a residue to canonical
rows, here and in `threshold`'s normal-crossing walk. A localization's
witness point comes from its flat's chain by back-substitution
(`_chain_point`), with no canonical rows, as integers over one
denominator. `_order` sorts any list of `Flat`s, so `threshold` orders the
flats it builds without a closure (independent normals) by the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd
from operator import mul
from typing import Sequence

from .arrangement import NormalizedArrangement
from .errors import CentralityError, EmptyArrangementError
from .ratlinalg import eliminate, integer_rank, lead_keys, quotient_strings


@dataclass(frozen=True)
class Flat:
    """One element of the intersection lattice, as plain integer data.

    rows: canonical basis of the span of member normals, as primitive
        integer rows with positive pivots, in pivot order; dividing each
        row by its pivot gives the rational RREF of the normal space,
        which `to_json_dict` prints under "normal_space".
    mask: member bitmask; bit j is set iff hyperplane j contains the flat.
    weight: total multiplicity of the hyperplanes containing the flat
        (serialized under the key "s").
    """

    rows: tuple[tuple[int, ...], ...]
    mask: int
    weight: int

    @property
    def codim(self) -> int:
        return len(self.rows)

    @property
    def members(self) -> frozenset[int]:
        """Indices of exactly the hyperplanes containing the flat."""
        return frozenset(j for j in range(self.mask.bit_length()) if self.mask >> j & 1)

    def to_json_dict(self) -> dict:
        return {
            "normal_space": [_rref_strings(row) for row in self.rows],
            "codim": self.codim,
            "s": self.weight,
            "members": [j for j in range(self.mask.bit_length()) if self.mask >> j & 1],
        }


def _rref_strings(row: tuple[int, ...]) -> list[str]:
    """Each entry x / pivot in lowest terms, as `format_rational` prints it;
    the pivot is the row's first nonzero entry, which is positive. Flats and
    local normals of one report share most rows (a coordinate arrangement
    has k distinct rows over 2^k - 1 flats), so the CLI's printer calls this
    once per distinct row (`cli._indented_json`).
    """
    return quotient_strings(row, next(x for x in row if x))


@dataclass(frozen=True)
class IntersectionLattice:
    """All flats of a central arrangement, ordered on first read.

    `triples` holds the closure's (residue chain, mask, weight) per flat.
    `flats` reduces and sorts them by `_lattice_order` on first read, which
    `rlct_central` never does: it reduces and orders only its minimizers.
    """

    triples: tuple[tuple[tuple[tuple[int, ...], ...], int, int], ...]

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        return tuple(_lattice_order(self.triples))


def _lattice_order(triples) -> list[Flat]:
    """(chain, mask, weight) triples as `Flat`s with canonical rows, in
    lattice order (see `_order`)."""
    return _order([Flat(_canonical_rows(chain), mask, weight) for chain, mask, weight in triples])


def _order(flats: list[Flat]) -> list[Flat]:
    """Flats in lattice order: (codim, rational RREF entries row-major). A
    canonical row over its pivot is its RREF row, so `lead_keys` orders the
    rows exactly. Flats share most rows, so each distinct row is keyed once
    per call, and a flat's key is (codim, tuple of its row keys). Every row
    has the same length, so that orders as the row-major entries do.
    """
    row_keys = lead_keys(row for flat in flats for row in flat.rows)
    return sorted(flats, key=lambda flat: (flat.codim, tuple(map(row_keys.__getitem__, flat.rows))))


def _insert(rows: tuple[tuple[int, ...], ...], residue: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The canonical rows of span(rows) + residue: primitive, positive pivots,
    pivot order, each row zero on the other pivots.

    `rows` are canonical and `residue` is primitive, leads positive at a
    column c and is zero on every pivot of `rows`, so c is a new pivot. A
    row not zero at c leads before c (a row leading after c is zero up to its
    lead), where the residue is zero, so its step p·row − row[c]·residue,
    p = residue[c] > 0, made primitive, keeps its positive lead and its zeros
    on the old pivots and is zero at c; a row zero at c is kept. Each row is
    then the span's one primitive vector that leads positive at its pivot
    and is zero on the other pivots: the canonical row. Descending tuple
    order is pivot order.
    """
    return tuple(sorted([residue, *eliminate(dict.fromkeys(rows, 0), residue)], reverse=True))


def _canonical_rows(chain: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """A residue chain's span as canonical rows. Each chain row is zero at
    every earlier row's lead, which is a pivot of the rows before it, so
    `_insert` adds the rows in chain order."""
    return reduce(_insert, chain, ())


def _chain_point(chain: tuple[tuple[int, ...], ...], d: int) -> tuple[tuple[int, ...], int]:
    """The point of a consistent chain of rows (a | b) whose free coordinates
    (the columns that lead no row) are zero, as (nums, den): coordinate i is
    nums[i] / den, and den > 0.

    That point depends only on the span and the pivot columns, and the chain
    has the pivots of its canonical rows, so it is the point that
    `_canonical_rows` gives. Row j leads at c_j and is zero at every earlier
    lead, so in reverse chain order each row has one unknown left, its lead:
    x[c_j] = -(b_j + sum of a_j[c]·x[c] over the later leads) / a_j[c_j]. The
    coordinates are integers over one common denominator, which each step
    multiplies by the lead, a positive number; nothing is reduced here.
    """
    nums, den = [0] * d, 1
    for residue in reversed(chain):
        lead = residue.index(next(filter(None, residue)))  # never d: the rows are consistent
        total = residue[d] * den + sum(map(mul, residue, nums))  # nums[lead] is still 0
        p = residue[lead]
        if p != 1:
            nums = [x * p for x in nums]
            den *= p
        nums[lead] = -total
    return tuple(nums), den


def _closure(rows: Sequence[tuple[int, ...]], d: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Every flat spanned by `rows`, as (residue chain, member bitmask).

    Rows are primitive integer vectors with d columns (normals) or d + 1
    (rows (a | b), offset last). Closure by rank level from the ambient
    space, whose groups are the rows grouped by value. A flat's groups are
    each primitive residue of the outside rows modulo its span, with the
    bitmask of the rows that have it. Two rows give the same child iff their
    residues are equal, so a group is exactly the child's new members, and
    only a child with a new mask is built, so every flat is built once. A
    frontier item is (chain, mask, the parent's groups): `chain` holds the
    residues that joined the span, in order, the last one the residue the
    item joined by, and its own groups are one `eliminate` call on the
    parent's, made when the item is expanded and only if it can build a new
    flat (rules (a) and (b) below); at codim r - 2 the call gets only the
    parent's groups whose child is not built yet (rule (c)). On rows
    (a | b), a residue that is zero on the normal columns has no common
    point and is skipped. Normals alone never give such a residue, so the
    test runs only on rows with an offset. Every flat returned has a common
    point, so its codim is the rank of its members' normals.

    One elimination step per group gives the child's residues, the same as
    reducing under the child's echelon: let S be a span with RREF pivot
    columns P. For x outside S, the vectors of Qx + S that vanish on P form
    a line (S restricted to P is the identity), so the residue of x, the
    primitive vector with positive lead on it, does not depend on the basis
    of S. The chosen residue e vanishes on P and leads at a new column c;
    the child's pivots are P + {c}. For a parent residue r of x,
    e[c]·r − r[c]·e lies in Qx + S_child, vanishes on P + {c} and keeps a
    nonzero coefficient on x: it is on the child's line. So the chain is
    all the next level needs: each residue is primitive, leads positive and
    is zero at every earlier residue's lead (see `_canonical_rows`).

    (a) Every child is already built. Let F be a flat, g one of its parent's
    groups outside F (the ambient space's groups are its own) and j a row of
    g. The rows of g share one residue modulo the parent's span, so they lie
    in the span of F and j, and F's child through j has the rows in that
    span as members. If the mask F | g is in `seen`, it is a flat and so
    holds exactly the rows in its span, which is the span of F and j: the
    child is F | g, already built. The parent's groups outside F cover F's
    outside rows, so when that holds for each of them, F builds nothing and
    needs no residues. F's own group lies inside F, and F is in `seen`.

    (b) The codim r - 1 level shares one answer, r the rank of `rows`. The
    row space V has dim r, and a flat F at codim r - 1 has r - 1 pivots P,
    all on normal columns since F's rows have a common point. The vectors of
    V that vanish on P form one line, so every outside row of F has the
    same residue, the primitive vector with positive lead on that line. If
    the rows have no common point, V holds the offset axis, which vanishes
    on every such P: the line is the offset axis for every F, and no flat of
    the level builds a child. Otherwise the line never is, and F's one child
    holds every row: the flat of all rows, for every F. So once one flat of
    the level has computed its residues, no other flat of it builds a new
    flat.

    (c) At codim r - 2, a flat F passes `eliminate` only the parent's groups
    g with F | g not in `seen`, and rule (a) tests those. A skipped group's
    child F | g is already built, by (a). No kept group merges with it under
    F: its rows would share the residue of g's rows, so they would lie in
    the span of F and g, that is in the flat F | g, which holds no row of
    another group. So each kept group gets the residue and mask that it gets
    with every group passed, and only the skipped groups' residues are
    missing. Only F's children, of codim r - 1, read F's groups, and by (b)
    only the first flat of that level does. It is the first child of the
    first flat of codim r - 2 that builds one, and when that flat is
    expanded no F | g is in `seen`: it would be a flat of codim r - 1 or
    more, and none is built yet. So that flat passes every group, and every
    chain, mask and order is the same as with every group passed.
    """
    start: dict[tuple[int, ...], int] = {}
    for j, row in enumerate(rows):
        start[row] = start.get(row, 0) | 1 << j
    top = integer_rank(start)
    offset = bool(rows) and len(rows[0]) > d  # normals alone never lead at an offset
    seen = {0}
    frontier = [((), 0, start)]  # the ambient space holds its own groups
    flats = []
    shared = False  # a flat of the codim top - 1 level has computed its residues, rule (b)
    while frontier:
        next_frontier = []
        for chain, mask, parent in frontier:
            if mask:  # the ambient space (mask 0) is not a flat
                flats.append((chain, mask))
            if shared and len(chain) + 1 == top:  # rule (b)
                continue
            if len(chain) + 2 == top:  # rule (c)
                parent = {residue: group for residue, group in parent.items() if mask | group not in seen}
            if all(mask | group in seen for group in parent.values()):  # rule (a)
                continue
            groups = eliminate(parent, chain[-1]) if chain else parent
            for residue, group in groups.items():
                if offset and not any(residue[:d]):
                    # Offset-column lead: the rows have no common point.
                    continue
                child = mask | group
                if child not in seen:
                    seen.add(child)
                    next_frontier.append((chain + (residue,), child, groups))
            shared = shared or len(chain) + 1 == top
        frontier = next_frontier
    return flats


def build_lattice(arr: NormalizedArrangement) -> IntersectionLattice:
    """Enumerate every flat of a central arrangement with its weight and members.

    The flats are the closure of the normals (see `_closure`), which also
    gives each flat's residue chain; member sets are the engine's exact
    bitmasks, and the weight is the sum of member multiplicities.
    """
    if not arr.is_central:
        raise CentralityError("the intersection lattice is defined for central arrangements; localize first")
    if arr.n == 0:
        raise EmptyArrangementError("arrangement has no hyperplanes")
    mult = arr.multiplicities
    triples = tuple((chain, mask, _weight(mask, mult)) for chain, mask in _closure(arr.primitive_normals, arr.dim))
    return IntersectionLattice(triples=triples)


def _weight(mask: int, mult: tuple[int, ...]) -> int:
    """The sum of mult[j] over the members j of `mask`, one step per member."""
    total = 0
    while mask:
        low = mask & -mask
        total += mult[low.bit_length() - 1]
        mask ^= low
    return total

