"""Naive reference implementations, and the `--verify` checks built on them.

These deliberately mirror the textbook all-subsets construction: every
nonempty subset of hyperplanes contributes the kernel of its stacked
normals, kernels are deduplicated, and membership is re-derived by dot
products against kernel basis vectors. It is all Fraction arithmetic,
flats print themselves, and nothing is shared with the integer closure
of production, which is the point: `verify_central` and `verify_report`
(behind the CLI `--verify` flag) and the test suite compare the two.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .arrangement import NormalizedArrangement
from .errors import CentralityError, SizeLimitError
from .ratlinalg import (RationalMatrix, kernel_basis, rank, row_in_row_space, row_space_canonical,
                        subspace_leq)

MAX_BRUTEFORCE_HYPERPLANES = 20
MAX_BRUTEFORCE_CHAIN_FLATS = 50


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


# The oracle's flats, in its own rational order, with the arrangement's shape.
ReferenceLattice = namedtuple("ReferenceLattice", "flats dim n_hyperplanes")


def lattice_bruteforce(arr: NormalizedArrangement) -> ReferenceLattice:
    """All-subsets intersection lattice; cost grows as 2^n.

    Flats are kernels of stacked normal subsets; the normal space of a flat
    is recovered as the kernel of its kernel basis, in rational RREF. Flats
    are sorted by the rational RREF itself, not the production key.
    """
    if not arr.is_central:
        raise CentralityError("the brute-force lattice needs a central arrangement")
    n, d = arr.n, arr.dim
    if n > MAX_BRUTEFORCE_HYPERPLANES:
        raise SizeLimitError(f"brute force is capped at {MAX_BRUTEFORCE_HYPERPLANES} hyperplanes, got {n}")
    kernels: dict[RationalMatrix, None] = {}
    for r in range(1, n + 1):
        for comb in combinations(range(n), r):
            stacked = RationalMatrix([arr.normals.row(j) for j in comb], cols=d)
            kernels.setdefault(kernel_basis(stacked))
    keyed = []
    for kernel in kernels:
        mask = 0
        for j in range(n):
            if all(sum(a * v for a, v in zip(arr.normals.row(j), vec)) == 0 for vec in kernel):
                mask |= 1 << j
        space = kernel_basis(kernel)
        weight = sum(arr.multiplicities[j] for j in range(n) if mask >> j & 1)
        flat = ReferenceFlat(space.entries, mask, weight)
        # The rational reference order, against which the production path's
        # integer sort key is checked.
        keyed.append(((space.rows, space.entries), flat))
    keyed.sort(key=lambda item: item[0])
    return ReferenceLattice(flats=tuple(flat for _, flat in keyed), dim=d, n_hyperplanes=n)


def localizations_bruteforce(arr: NormalizedArrangement) -> list[tuple[int, ...]]:
    """Sorted member sets of the maximal localizations: every subset whose
    normals and rows (a | b) have equal rank closes to all rows in its span,
    and the inclusion-maximal closed sets are the localizations."""
    n, d = arr.n, arr.dim
    if n > MAX_BRUTEFORCE_HYPERPLANES:
        raise SizeLimitError(f"brute force is capped at {MAX_BRUTEFORCE_HYPERPLANES} hyperplanes, got {n}")
    aug_rows = [tuple(arr.normals.row(j)) + (arr.offsets[j],) for j in range(n)]
    closed = set()
    for r in range(1, n + 1):
        for comb in combinations(range(n), r):
            plain = RationalMatrix([arr.normals.row(j) for j in comb], cols=d)
            augmented = RationalMatrix([aug_rows[j] for j in comb], cols=d + 1)
            if rank(plain) != rank(augmented):
                continue
            canon = row_space_canonical(augmented)
            closed.add(frozenset(k for k in range(n) if row_in_row_space(aug_rows[k], canon)))
    return sorted(tuple(sorted(m)) for m in closed if not any(m < other for other in closed))


def longest_chain_bruteforce(flats) -> int:
    """Length of the longest strictly nested chain, by exhaustive extension.

    Containment is tested geometrically on the rational span of each flat's
    rows (`_strictly_inside`), not through member sets, so this really is an
    independent route. Production `Flat`s and `ReferenceFlat`s both work.
    """
    flats = list(flats)
    if len(flats) > MAX_BRUTEFORCE_CHAIN_FLATS:
        raise SizeLimitError(
            f"brute-force chain search is capped at {MAX_BRUTEFORCE_CHAIN_FLATS} flats, got {len(flats)}"
        )
    if not flats:
        return 0
    spaces = [RationalMatrix(flat.rows) for flat in flats]
    strictly_above: list[list[int]] = []
    for i, low in enumerate(spaces):
        above = []
        for j, high in enumerate(spaces):
            if i != j and _strictly_inside(low, high):
                above.append(j)
        strictly_above.append(above)

    memo: dict[int, int] = {}

    def extend(i: int) -> int:
        if i not in memo:
            memo[i] = 1 + max((extend(j) for j in strictly_above[i]), default=0)
        return memo[i]

    return max(extend(i) for i in range(len(flats)))


def _strictly_inside(low: RationalMatrix, high: RationalMatrix) -> bool:
    """The flat with normal space `low` lies strictly inside the one with `high`."""
    return subspace_leq(low, high) and not subspace_leq(high, low)


def verify_central(arr: NormalizedArrangement, result) -> dict:
    """Check `result = rlct_central(arr)` against the oracles: its lattice
    prints exactly as the all-subsets one, and its witness chain is m
    minimizers, each strictly inside the next, m the exhaustive chain length."""
    reference = [f.to_json_dict() for f in lattice_bruteforce(arr).flats]
    chain = [RationalMatrix(flat.rows) for flat in result.witness_chain]
    chain_match = (
        longest_chain_bruteforce(result.minimizer_flats) == result.pair.multiplicity == len(chain)
        and all(flat in result.minimizer_flats for flat in result.witness_chain)
        and all(_strictly_inside(low, high) for low, high in zip(chain, chain[1:]))
    )
    return {"lattice_match": [f.to_json_dict() for f in result.lattice.flats] == reference,
            "chain_match": chain_match}


def verify_report(arr: NormalizedArrangement, report) -> dict:
    """Check `report = rlct_affine(arr)`: `verify_central` at every
    localization, and the hyperplanes through the reported points are
    exactly the oracle's maximal localizations."""
    checks = [verify_central(loc.arrangement, loc.result) for loc in report.localizations]
    found = sorted(
        tuple(j for j, (normal, offset) in enumerate(zip(arr.normals, arr.offsets))
              if sum(a * x for a, x in zip(normal, loc.point)) + offset == 0)
        for loc in report.localizations
    )
    return {**{key: all(c[key] for c in checks) for key in ("lattice_match", "chain_match")},
            "localization_match": found == localizations_bruteforce(arr)}
