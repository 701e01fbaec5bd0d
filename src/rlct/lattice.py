"""Intersection lattice of a central arrangement, and the closure engine behind it.

A flat is a nonempty intersection of some of the hyperplanes (the ambient
space itself is excluded). `_closure` enumerates flats by adjoining one
row at a time to each frontier flat, so the cost scales with the lattice
size, not with 2^n. The one engine serves both the central lattice here
(rows: the normals, d columns) and the affine localizations in
`threshold.py` (rows: (a | b), offset last), and it flags the
inclusion-maximal flats.

Flats stay integer data: the engine's primitive canonical rows, the member
bitmask and the weight. The threshold pair needs only codim, weight and
masks, so a flat's rational normal space is formed only for output. The
lattice order (codim, then the rational RREF entries) is computed exactly
from the integer rows by a scaled floor key; `build_lattice` proves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import NormalizedArrangement
from .errors import CentralityError, EmptyArrangementError
from .ratlinalg import IntegerEchelon, RationalMatrix, primitive_int_row


@dataclass(frozen=True)
class Flat:
    """One element of the intersection lattice, as plain integer data.

    rows: canonical basis of the span of member normals, as primitive
        integer rows with positive pivots (`IntegerEchelon.rows`); dividing
        each row by its pivot gives the rational RREF, `normal_space`.
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

    @property
    def normal_space(self) -> RationalMatrix:
        """The canonical rational RREF of the normal space (pivot entries 1)."""
        out = []
        for row in self.rows:
            pivot = next(x for x in row if x)
            out.append([Fraction(x, pivot) for x in row])
        return RationalMatrix(out, cols=len(self.rows[0]))

    def to_json_dict(self) -> dict:
        return {
            "normal_space": self.normal_space.to_string_lists(),
            "codim": self.codim,
            "s": self.weight,
            "members": sorted(self.members),
        }


@dataclass(frozen=True)
class IntersectionLattice:
    """All flats of a central arrangement, deterministically ordered.

    Flats are sorted by codimension and then lexicographically by their
    canonical normal-space matrix, so output order is reproducible.
    """

    flats: tuple[Flat, ...]
    dim: int
    n_hyperplanes: int

    def __len__(self) -> int:
        return len(self.flats)


@dataclass(frozen=True)
class InclusionDag:
    """Containment structure over a lattice's flats.

    pairs holds every (i, j) with flats[i] strictly inside flats[j];
    topological_order lists flat indices by decreasing codimension, so
    each flat appears before everything that contains it.
    """

    pairs: frozenset[tuple[int, int]]
    topological_order: tuple[int, ...]


def _closure(rows: list[tuple[int, ...]], d: int) -> list[tuple[IntegerEchelon, int, bool]]:
    """Every flat spanned by `rows`, as (echelon, member bitmask, maximal).

    Rows are primitive integer vectors with d columns (normals) or d + 1
    (augmented rows (a | b), offset last). Closure by rank level, starting
    at the ambient space (empty echelon, mask 0): a flat of rank r+1 is the
    span-closure of a rank-r flat plus one outside row. Each frontier flat
    reduces every outside row once; two rows give the same child iff their
    primitive residues are equal, so each residue's group of rows is exactly
    the child's new members. The child mask is looked up before anything is
    built, and only a new child gets its echelon (`adjoin`), so every flat
    is built once. A residue whose lead is in column d (zero on the normal
    columns) has no common point and is skipped; with d columns that never
    happens. A flat is maximal iff every residue is of that kind, which is
    inclusion-maximality of its member set among all flats.
    """
    n = len(rows)
    seen = {0}
    frontier = [(IntegerEchelon(len(rows[0])), 0)]
    flats = []
    while frontier:
        next_frontier: list[tuple[IntegerEchelon, int]] = []
        for ech, mask in frontier:
            groups: dict[tuple[int, ...], int] = {}
            for j in range(n):
                if not mask >> j & 1:
                    residue = ech.reduce(rows[j])
                    groups[residue] = groups.get(residue, 0) | 1 << j
            maximal = True
            for residue, group in groups.items():
                if not any(residue[:d]):
                    # Offset-column lead: the rows have no common point.
                    continue
                maximal = False
                child = mask | group
                if child not in seen:
                    seen.add(child)
                    next_frontier.append((ech.adjoin(residue), child))
            if mask:  # the ambient space (mask 0) is not a flat
                flats.append((ech, mask, maximal))
        frontier = next_frontier
    return flats


def build_lattice(arr: NormalizedArrangement) -> IntersectionLattice:
    """Enumerate every flat of a central arrangement with its weight and members.

    The flats are the closure of the normals (see `_closure`); member sets
    are the engine's exact bitmasks, and the weight is the sum of member
    multiplicities.
    """
    if not arr.is_central:
        raise CentralityError(
            "the intersection lattice is defined for central arrangements; localize first"
        )
    n, d = arr.n, arr.dim
    if n == 0:
        raise EmptyArrangementError("arrangement has no hyperplanes")
    closure = _closure([primitive_int_row(row) for row in arr.normals], d)

    # Lattice order is (codim, rational RREF entries row-major). Every RREF
    # entry is x/p with p a pivot, 0 < p <= P, so two distinct entries differ
    # by at least 1/P^2. Scaled by 2^shift > P^2 they differ by more than 1,
    # so flooring keeps every strict inequality, and equal entries floor
    # equally: the integer key gives exactly the rational order. A common
    # denominator is no option, since the lcm of the pivots can run to
    # thousands of digits.
    top_pivot = max(row[pc] for ech, _, _ in closure for row, pc in zip(ech.rows, ech.pivots))
    shift = 2 * top_pivot.bit_length()

    def order(item):
        ech = item[0]
        scaled = ((x << shift) // row[pc] for row, pc in zip(ech.rows, ech.pivots) for x in row)
        return (ech.rank, tuple(scaled))

    closure.sort(key=order)
    mult = arr.multiplicities
    flats = [
        Flat(rows=ech.rows, mask=mask, weight=sum(mult[j] for j in range(n) if mask >> j & 1))
        for ech, mask, _ in closure
    ]
    return IntersectionLattice(flats=tuple(flats), dim=d, n_hyperplanes=n)


def inclusion_dag(lat: IntersectionLattice) -> InclusionDag:
    """Strict containment between all flat pairs, via member-set reversal.

    Within one lattice, flat_i is contained in flat_j exactly when
    members(flat_j) is a proper subset of members(flat_i); this matches the
    geometric subspace test and is property-checked against it.
    """
    masks = [flat.mask for flat in lat.flats]
    count = len(masks)
    pairs = set()
    for i in range(count):
        mi = masks[i]
        for j in range(count):
            mj = masks[j]
            if mi != mj and mi & mj == mj:
                pairs.add((i, j))
    order = sorted(range(count), key=lambda i: -lat.flats[i].codim)
    return InclusionDag(pairs=frozenset(pairs), topological_order=tuple(order))


def lattice_to_json_dict(lat: IntersectionLattice) -> dict:
    """Debug/test export: all flats plus the strict containment pairs."""
    dag = inclusion_dag(lat)
    return {
        "dim": lat.dim,
        "n_hyperplanes": lat.n_hyperplanes,
        "flats": [flat.to_json_dict() for flat in lat.flats],
        "containment_pairs": sorted(dag.pairs),
    }
