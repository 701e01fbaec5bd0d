"""Intersection lattice of a central arrangement, and the closure engine behind it.

A flat is a nonempty intersection of some of the hyperplanes (the ambient
space itself is excluded). `_closure` extends each frontier flat by one
outside row at a time, so the cost scales with the lattice size, not with
2^n. It serves both the central lattice (rows: the normals) and the affine
localizations in `threshold.py` (rows: (a | b)), and flags maximal flats.
It works on integer rows and member bitmasks. A flat carries its residue
chain; only the flats that are read get `_canonical_rows`, from which come
the lattice order, `Flat.rows`, witness points and the "p/q" strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .arrangement import NormalizedArrangement
from .errors import CentralityError, EmptyArrangementError
from .ratlinalg import eliminate, integer_rank, primitive_int_row


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
            "normal_space": [list(_rref_strings(row)) for row in self.rows],
            "codim": self.codim,
            "s": self.weight,
            "members": [j for j in range(self.mask.bit_length()) if self.mask >> j & 1],
        }


@lru_cache(maxsize=4096)
def _rref_strings(row: tuple[int, ...]) -> tuple[str, ...]:
    """Each entry x / pivot in lowest terms, as `format_rational` prints it.

    The pivot p is the row's first nonzero entry, which is positive, so with
    g = gcd(x, p) the reduced denominator p // g is positive too.

    The cache is sound: the strings are a pure function of the row, an
    immutable tuple of ints, and they come back as an immutable tuple, which
    `Flat.to_json_dict` copies into a fresh list. Flats of one lattice share
    most rows (a coordinate arrangement has k distinct rows over 2^k - 1
    flats), so most calls are hits; the bound keeps the cache small.
    """
    p = next(x for x in row if x)
    out = []
    for x in row:
        g = gcd(x, p)
        out.append(str(x // g) if g == p else f"{x // g}/{p // g}")
    return tuple(out)


@dataclass(frozen=True)
class IntersectionLattice:
    """All flats of a central arrangement, ordered on first read.

    `triples` holds the closure's (residue chain, mask, weight) per flat.
    `flats` reduces and sorts them by `_lattice_order` on first read, which
    `rlct_central` never does: it reduces and orders only its minimizers.
    """

    triples: tuple[tuple[tuple[tuple[int, ...], ...], int, int], ...]
    dim: int
    n_hyperplanes: int

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        return tuple(_lattice_order(self.triples))


def _lattice_order(triples) -> list[Flat]:
    """(chain, mask, weight) triples as `Flat`s with canonical rows, in lattice
    order: (codim, rational RREF entries row-major). Every RREF entry is x/p
    with p a pivot, 0 < p <= P, so two distinct entries differ by at least
    1/P^2. Scaled by 2^shift > P^2 they differ by more than 1, so flooring
    keeps every strict inequality, and equal entries floor equally: the
    integer key gives exactly the rational order on any set of flats, with P
    the largest pivot among them. A common denominator is no option, since
    the lcm of the pivots can run to thousands of digits.
    """
    flats = [Flat(_canonical_rows(chain), mask, weight) for chain, mask, weight in triples]
    top_pivot = max(next(filter(None, row)) for flat in flats for row in flat.rows)
    shift = 2 * top_pivot.bit_length()

    def key(flat):
        pivots = (next(filter(None, row)) for row in flat.rows)
        return (flat.codim, tuple((x << shift) // p for row, p in zip(flat.rows, pivots) for x in row))

    return sorted(flats, key=key)


def _canonical_rows(chain: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """A residue chain's span as canonical rows: primitive, positive pivots,
    pivot order, each row zero on the other pivots.

    r_j, the j-th chain row, leads at c_j and is zero at every earlier
    lead. For j in order, every earlier row not zero at c_j takes one step
    p·row − row[c_j]·r_j, p = r_j[c_j] > 0, made primitive. As r_j is zero
    at c_1 … c_{j-1}, row i keeps its zeros there and its positive lead c_i
    (if c_j < c_i the row is zero at c_j, else r_j is zero up to c_j), so it
    ends as the span's one primitive vector that leads positive at c_i and
    is zero on the other pivots: the canonical row. Descending tuple order
    is pivot order.
    """
    rows = list(chain)
    for j, residue in enumerate(chain):
        pc = residue.index(next(filter(None, residue)))
        for i in range(j):
            if rows[i][pc]:
                rows[i] = eliminate(rows[i], residue, pc)
    return tuple(sorted(rows, reverse=True))


def _closure(rows: list[tuple[int, ...]], d: int) -> list[tuple[tuple[tuple[int, ...], ...], int, bool]]:
    """Every flat spanned by `rows`, as (residue chain, member bitmask, maximal).

    Rows are primitive integer vectors with d columns (normals) or d + 1
    (rows (a | b), offset last). Closure by rank level from the ambient
    space ((), 0, rows grouped by value): a frontier item is (chain, mask,
    groups), `chain` the residues that joined the span, in order, and
    `groups` each primitive residue of the outside rows modulo the span,
    with the bitmask of the rows that have it. Two rows give the same child
    iff their residues are equal, so a group is exactly the child's new
    members. Only a child with a new mask is built (`_child`), so every
    flat is built once. A residue that is zero on the normal columns has no
    common point and is skipped; a flat is maximal iff every residue is of
    that kind, i.e. iff its member set is inclusion-maximal.

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

    Let r be the rank of `rows`. For a flat of codim r - 1 with pivots P,
    the vectors of the row space that vanish on P form one line, so every
    outside row has the same residue: such a child gets one group, one
    other residue eliminated once, with the mask of all outside rows. On
    normals that group is the top flat; on rows (a | b) it leads either at
    the offset (the flat is maximal, as at the points of a generic affine
    draw) or at a normal column (every hyperplane meets at one point).
    """
    start: dict[tuple[int, ...], int] = {}
    for j, row in enumerate(rows):
        start[row] = start.get(row, 0) | 1 << j
    top, full = integer_rank(start), (1 << len(rows)) - 1
    seen = {0}
    frontier = [((), 0, start)]
    flats = []
    while frontier:
        next_frontier = []
        for chain, mask, groups in frontier:
            maximal = True
            for residue, group in groups.items():
                if not any(residue[:d]):
                    # Offset-column lead: the rows have no common point.
                    continue
                maximal = False
                child = mask | group
                if child not in seen:
                    seen.add(child)
                    outside = groups
                    if len(chain) + 2 == top:  # codim r - 1: one residue left
                        outside = {next(other for other in groups if other != residue): full & ~child}
                    child_chain, child_groups = _child(chain, outside, residue)
                    next_frontier.append((child_chain, child, child_groups))
            if mask:  # the ambient space (mask 0) is not a flat
                flats.append((chain, mask, maximal))
        frontier = next_frontier
    return flats


def _child(
    chain: tuple[tuple[int, ...], ...], groups: dict[tuple[int, ...], int], residue: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The chain with `residue` appended, and the outside residue groups:
    every other residue takes one step at its lead, and equal ones merge."""
    pc = next(c for c, x in enumerate(residue) if x)
    out: dict[tuple[int, ...], int] = {}
    for other, group in groups.items():
        if other != residue:
            other = eliminate(other, residue, pc)
            out[other] = out.get(other, 0) | group
    return chain + (residue,), out


def build_lattice(arr: NormalizedArrangement) -> IntersectionLattice:
    """Enumerate every flat of a central arrangement with its weight and members.

    The flats are the closure of the normals (see `_closure`), which also
    gives each flat's residue chain; member sets are the engine's exact
    bitmasks, and the weight is the sum of member multiplicities.
    """
    if not arr.is_central:
        raise CentralityError("the intersection lattice is defined for central arrangements; localize first")
    n, d = arr.n, arr.dim
    if n == 0:
        raise EmptyArrangementError("arrangement has no hyperplanes")
    normals = [primitive_int_row(row) for row in arr.normals]
    mult = arr.multiplicities
    triples = tuple((chain, mask, _weight(mask, mult)) for chain, mask, _ in _closure(normals, d))
    return IntersectionLattice(triples=triples, dim=d, n_hyperplanes=n)


def _weight(mask: int, mult: tuple[int, ...]) -> int:
    """The sum of mult[j] over the members j of `mask`, one step per member."""
    total = 0
    while mask:
        low = mask & -mask
        total += mult[low.bit_length() - 1]
        mask ^= low
    return total


def inclusion_dag(lat: IntersectionLattice) -> frozenset[tuple[int, int]]:
    """Every (i, j) with flats[i] strictly inside flats[j], via member-set reversal.

    Within one lattice, flat_i is contained in flat_j exactly when
    members(flat_j) is a proper subset of members(flat_i); this matches the
    geometric subspace test and is property-checked against it.
    """
    masks = [flat.mask for flat in lat.flats]
    return frozenset(
        (i, j) for i, mi in enumerate(masks) for j, mj in enumerate(masks) if mi != mj and mi & mj == mj
    )


def lattice_to_json_dict(lat: IntersectionLattice) -> dict:
    """Debug/test export: all flats plus the strict containment pairs."""
    return {
        "dim": lat.dim,
        "n_hyperplanes": lat.n_hyperplanes,
        "flats": [flat.to_json_dict() for flat in lat.flats],
        "containment_pairs": sorted(inclusion_dag(lat)),
    }
