"""Naive reference implementations used for cross-checking.

These deliberately mirror the textbook all-subsets construction: every
nonempty subset of hyperplanes contributes the kernel of its stacked
normals, kernels are deduplicated, and membership is re-derived by dot
products against kernel basis vectors. Nothing here shares code paths
with the closure-based production routines, which is the point; the CLI
`--verify` flag and the test suite compare the two.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .arrangement import NormalizedArrangement
from .errors import CentralityError, SizeLimitError
from .lattice import Flat
from .ratlinalg import (RationalMatrix, kernel_basis, primitive_int_row, rank, row_in_row_space,
                        row_space_canonical, subspace_leq)

MAX_BRUTEFORCE_HYPERPLANES = 20
MAX_BRUTEFORCE_CHAIN_FLATS = 50


# The oracle's flats, in its own rational order, with the arrangement's shape.
ReferenceLattice = namedtuple("ReferenceLattice", "flats dim n_hyperplanes")


def lattice_bruteforce(arr: NormalizedArrangement) -> ReferenceLattice:
    """All-subsets intersection lattice; cost grows as 2^n.

    Flats are kernels of stacked normal subsets; the normal space of a flat
    is recovered as the kernel of its kernel basis, in rational RREF, and
    its rows are rescaled to the primitive integer rows a `Flat` holds.
    Flats are sorted by the rational RREF itself, not the production key.
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
        flat = Flat(
            rows=tuple(primitive_int_row(row) for row in space),
            mask=mask,
            weight=sum(arr.multiplicities[j] for j in range(n) if mask >> j & 1),
        )
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
    rows (subspace_leq both ways), not through member sets, so this really
    is an independent route.
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
            if i != j and subspace_leq(low, high) and not subspace_leq(high, low):
                above.append(j)
        strictly_above.append(above)

    memo: dict[int, int] = {}

    def extend(i: int) -> int:
        if i not in memo:
            memo[i] = 1 + max((extend(j) for j in strictly_above[i]), default=0)
        return memo[i]

    return max(extend(i) for i in range(len(flats)))
