"""Real log canonical threshold of an arrangement, with its multiplicity.

For a central arrangement the pair is read off the intersection lattice:
the threshold is the minimum of codim(W)/weight(W) over all flats W, and
the multiplicity is the length of the longest strictly nested chain of
flats achieving that minimum, the number of join-irreducibles of the
minimizers' member sets (`_longest_chain`). Affine arrangements reduce to
finitely many central ones, one per maximal set of hyperplanes with a
common point, and the global pair is the minimum of the local pairs in
the singularity order. The pair of a closed box is the minimum of the
local pairs over the inclusion-maximal flats that meet it (`box_pair`).

When the normals are linearly independent the arrangement is normal
crossing, and no lattice is needed (`_normal_crossing`). Most localizations
of an affine arrangement are of this kind, and so is a coordinate
arrangement. Independence is read off the integer view that every
arrangement keeps (`primitive_normals`, `normal_rank`). The affine path is
integer until printed: a local arrangement is built from its parent's
integer rows, and a witness point is integers over one denominator, so a
report builds no `Fraction` but its λ values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering

from . import lattice
from .arrangement import NormalizedArrangement, _stored, normalize_box
from .errors import CentralityError, EmptyArrangementError, InvalidMultiplicityError, RlctError
from .lattice import Flat, IntersectionLattice, _chain_point, _closure, _insert, _lattice_order, _order, build_lattice
from .ratlinalg import eliminate, format_rational, meets_box, quotient_strings


@total_ordering
@dataclass(frozen=True)
class RlctPair:
    """(threshold, multiplicity), ordered so that smaller means more singular.

    The order is total: compare thresholds first; on a tie the pair with the
    LARGER multiplicity is the smaller (more singular) one.
    """

    threshold: Fraction
    multiplicity: int

    def __lt__(self, other: "RlctPair") -> bool:
        return pair_less(self, other)

    def astuple(self) -> tuple[Fraction, int]:
        return (self.threshold, self.multiplicity)

    def __str__(self) -> str:
        return f"({self.threshold}, {self.multiplicity})"


def pair_less(p: RlctPair, q: RlctPair) -> bool:
    """Strict singularity order: p < q iff p is more singular than q."""
    if p.threshold != q.threshold:
        return p.threshold < q.threshold
    return p.multiplicity > q.multiplicity


@dataclass(frozen=True)
class RlctResult:
    """Pair plus the evidence: which flats attain the minimum ratio.

    witness_chain is one longest strictly increasing chain of minimizer
    flats (smallest flat first); its length equals the multiplicity.
    `arrangement` is the central arrangement solved. The result keeps no
    lattice: `lattice` builds it from `arrangement` on first read and keeps
    it from then on, so only a caller that reads it (the --verify checks)
    holds one.
    """

    pair: RlctPair
    witness_chain: tuple[Flat, ...]
    minimizer_flats: tuple[Flat, ...]
    arrangement: NormalizedArrangement

    @cached_property
    def lattice(self) -> IntersectionLattice:
        return build_lattice(self.arrangement)

    def to_json_dict(self, *, flat=Flat.to_json_dict) -> dict:
        """The pair and its flats, by default as plain JSON. `flat` is how each
        flat enters the document. `flat=None` keeps the objects, the result's
        own tuples of `Flat`s, for the CLI's printer."""
        minimizers, chain = self.minimizer_flats, self.witness_chain
        if flat is not None:
            minimizers, chain = list(map(flat, minimizers)), list(map(flat, chain))
        return {
            "lambda": format_rational(self.pair.threshold),
            "m": self.pair.multiplicity,
            "minimizer_flats": minimizers,
            "witness_chain": chain,
        }


def rlct_central(arr: NormalizedArrangement) -> RlctResult:
    """Threshold and multiplicity of a central arrangement, exactly.

    Independent normals (`arr.normal_rank` is n) are normal crossing, solved
    by `_normal_crossing` with no closure. Otherwise the threshold is the
    least codim/weight over the closure's integer triples, compared as
    c·w' < c'·w, and only the minimizers get canonical rows. Both paths sort
    the minimizers' unique canonical rows by `lattice._order`, so they give
    the same flats in the same order. The result keeps `arr`, not the
    triples; its `lattice` is built again only when read. m is the number of
    join-irreducibles of the minimizers' member sets, and the witness chain
    is picked in a fixed order derived from the lattice order (see
    `_longest_chain`), so it is reproducible.
    """
    if not arr.is_central:
        raise CentralityError("rlct_central needs a central arrangement; use rlct_affine")
    # n <= d first: more rows than d cannot be independent, and need no rank.
    if 0 < arr.n <= arr.dim and arr.normal_rank == arr.n:
        return RlctResult(*_normal_crossing(arr, {}), arr)
    triples = build_lattice(arr).triples
    codim, weight = 1, 0  # 1/0 is above every ratio
    for residues, _, w in triples:
        if len(residues) * weight < codim * w:
            codim, weight = len(residues), w
    minimizers = _lattice_order(t for t in triples if len(t[0]) * weight == codim * t[2])
    return RlctResult(*_solved(minimizers), arr)


def _solved(minimizers: list[Flat]) -> tuple[RlctPair, tuple[Flat, ...], tuple[Flat, ...]]:
    """The pair, witness chain and minimizer flats that the minimizers, in
    lattice order, give: `RlctResult`'s fields but the arrangement."""
    multiplicity, chain = _longest_chain(minimizers)
    pair = RlctPair(threshold=Fraction(minimizers[0].codim, minimizers[0].weight), multiplicity=multiplicity)
    return pair, tuple(chain), tuple(minimizers)


def _normal_crossing(
    arr: NormalizedArrangement, solved: dict
) -> tuple[RlctPair, tuple[Flat, ...], tuple[Flat, ...]]:
    """`_solved` of a central arrangement whose normals are linearly
    independent, taken from `solved` or built and stored there.

    Such an arrangement is normal crossing (Watanabe 2009): every subset S
    of the hyperplanes is a flat of codim |S| and weight the sum of its s_j,
    and |S| / sum(s_j) >= 1/s*, s* the largest multiplicity, with equality
    iff every s_j = s*. So the threshold is 1/s*, the minimizers are the
    nonempty subsets of T, the hyperplanes with s = s*, of weight |S|·s*,
    and m is |T|. The tied set (s*, and each member's position and
    primitive normal) fixes all of that, so it is the key in `solved`, and
    many points of an affine arrangement share one answer; the caller owns
    `solved` and it dies with the call.

    A depth-first walk over T adds one normal at a time to its parent's
    canonical rows by `_insert`. As in `_closure`, a node carries the
    residues modulo its span of the normals it may still add; one
    `eliminate` step gives a child the later residues, and it is skipped
    when they are all zero at the added residue's lead. Sorted by `_order`,
    the flats are byte for byte the closure path's.
    """
    top = max(arr.multiplicities)
    normals = arr.primitive_normals
    tied = (top, *((j, normals[j]) for j, s in enumerate(arr.multiplicities) if s == top))
    if tied in solved:
        return solved[tied]
    flats = []
    # (canonical rows, mask, the residues of the tied normals still to add, with their bits)
    stack = [((), 0, [(row, 1 << j) for j, row in tied[1:]])]
    while stack:
        rows, mask, later = stack.pop()
        for k, (residue, bit) in enumerate(later, 1):
            child_rows, child = _insert(rows, residue), mask | bit
            flats.append(Flat(child_rows, child, child.bit_count() * top))
            if k < len(later):
                rest, c = later[k:], residue.index(next(filter(None, residue)))
                if any(row[c] for row, _ in rest):  # else `eliminate` would pass them through unchanged
                    rest = list(eliminate(dict(rest), residue).items())
                stack.append((child_rows, child, rest))
    solved[tied] = _solved(_order(flats))
    return solved[tied]


def _longest_chain(flats: list[Flat]) -> tuple[int, list[Flat]]:
    """Longest strictly nested chain of the minimizer flats, with one witness.

    The minimizers' member masks, with the empty set, are the minimizing sets
    of the submodular r - lambda*w, so they are closed under union and
    intersection and form a distributive lattice; by Birkhoff's theorem its
    maximal chains all have length m, the number of join-irreducibles. These
    are the J_e, the meet of the masks containing hyperplane e. Every other
    mask containing e strictly contains J_e and so has larger codim; hence,
    by increasing codim, a mask is a J_e iff it has a member e that no
    earlier mask has, and then it is J_e. `reps` holds one such e per J_e,
    the lowest. A mask contains J_e iff it contains e, so its rank in the
    lattice, the number of J_e inside it, is the number of `reps` in it.
    The chain ends at the first flat of rank 1 in the processing order
    (decreasing codim, stable on the lattice order `flats` must be in), and
    each earlier link is the first flat whose mask strictly contains the last
    one's, with rank one higher. Returns (m, chain smallest-flat-first).
    """
    order = sorted(flats, key=lambda flat: -flat.codim)
    reps = seen = 0
    for flat in reversed(order):
        new = flat.mask & ~seen
        reps |= new & -new
        seen |= flat.mask
    chain = []
    for rank in range(1, reps.bit_count() + 1):
        below = chain[-1].mask if chain else 0
        chain.append(next(f for f in order if (f.mask & reps).bit_count() == rank and f.mask & below == below))
    chain.reverse()
    return len(chain), chain


def rlct_line_arrangement_2d(multiplicities) -> RlctPair:
    """Closed form for central line arrangements in the plane.

    With multiplicities sorted ascending and s_n the largest: the threshold
    is 1/s_n when the sum of the others is at most s_n, else 2/(sum of all);
    the multiplicity is 2 exactly when the sum of the others equals s_n.
    """
    s = sorted(multiplicities)
    if not s:
        raise EmptyArrangementError("no lines given")
    for value in s:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InvalidMultiplicityError(f"line multiplicity {value!r} must be a positive integer")
    top = s[-1]
    rest = sum(s[:-1])
    if rest <= top:
        threshold = Fraction(1, top)
    else:
        threshold = Fraction(2, rest + top)
    return RlctPair(threshold=threshold, multiplicity=2 if rest == top else 1)


@dataclass(frozen=True)
class Localization:
    """A maximal central sub-arrangement: the hyperplanes through one point,
    centered there, and its result. The sub-arrangement is stored once, as
    the result's `arrangement`, and localizations that share a result share
    it too. The point is kept as (nums, den) (`lattice._chain_point`), and
    `point` is its `Fraction` view, built on first read."""

    integer_point: tuple[tuple[int, ...], int]
    result: RlctResult

    @cached_property
    def point(self) -> tuple[Fraction, ...]:
        nums, den = self.integer_point
        return tuple([Fraction(x, den) for x in nums])

    @property
    def arrangement(self) -> NormalizedArrangement:
        return self.result.arrangement

    @property
    def pair(self) -> RlctPair:
        return self.result.pair

    def to_json_dict(self, *, flat=Flat.to_json_dict) -> dict:
        return {"point": quotient_strings(*self.integer_point), **localization_body(self.result, flat)}


def localization_body(result: RlctResult, flat) -> dict:
    """The keys of a localization's JSON after "point": its result's pair and
    flats (`flat` as in `RlctResult.to_json_dict`), then its local
    arrangement's normals and multiplicities. Each normal is a list of "p/q"
    strings (`lattice._rref_strings` of its primitive row), or with
    `flat=None` that row, which the CLI's printer prints through the same
    strings. Localizations that share a result share this body, so the CLI
    prints it once per result; the rows are the parent arrangement's."""
    doc = result.to_json_dict(flat=flat)
    rows = result.arrangement.primitive_normals
    doc["normals"] = list(rows) if flat is None else [lattice._rref_strings(row) for row in rows]
    doc["multiplicities"] = list(result.arrangement.multiplicities)
    return doc


@dataclass(frozen=True)
class LocalizationReport:
    """All maximal localizations of an affine arrangement plus the global pair."""

    localizations: tuple[Localization, ...]
    global_index: int

    @property
    def global_result(self) -> RlctResult:
        return self.localizations[self.global_index].result

    @property
    def global_pair(self) -> RlctPair:
        return self.global_result.pair

    def to_json_dict(self, *, flat=Flat.to_json_dict) -> dict:
        """The global pair and flats, each localization and the global point.
        `flat` is as in `RlctResult.to_json_dict`: `flat=None` keeps the
        objects, the global result's tuples and the `Localization`s, for the
        CLI's printer."""
        doc = self.global_result.to_json_dict(flat=flat)
        if flat is None:
            doc["localizations"] = list(self.localizations)
        else:
            doc["localizations"] = [loc.to_json_dict(flat=flat) for loc in self.localizations]
        doc["global_point"] = quotient_strings(*self.localizations[self.global_index].integer_point)
        return doc


def maximal_central_localizations(
    arr: NormalizedArrangement,
) -> list[tuple[tuple[tuple[int, ...], int], NormalizedArrangement]]:
    """Points where maximal subsets of the hyperplanes meet, each as integers
    over one positive denominator (nums, den), with the centered
    sub-arrangements they define.

    The lattice's closure engine runs on the augmented rows (a | b): it
    drops extensions that pivot in the offset column (no common point), so
    each flat it returns has a common point. Such a flat F is
    inclusion-maximal iff its codim is r, the rank of all the normals
    (`arr.normal_rank`). If codim F = r, a hyperplane H outside F has its
    normal in F's normal span, so on F its linear part is a combination of
    the members' and takes one value; H does not contain F, so it misses F.
    If codim F < r, some hyperplane has its normal outside F's normal span,
    and it meets F in a smaller flat. A maximal flat's witness point, the
    solution with free variables at zero, is read off its chain by
    back-substitution (`_chain_point`), so no chain is reduced to canonical
    rows here. Points whose hyperplanes have the same primitive normals and
    multiplicities, in order, share one sub-arrangement object, built from
    `arr`'s integer rows (`_centered`). No `Fraction` is built.
    """
    n, d = arr.n, arr.dim
    if n == 0:
        raise EmptyArrangementError("arrangement has no hyperplanes")
    found = sorted(
        (tuple(j for j in range(n) if mask >> j & 1), chain)
        for chain, mask in _closure(arr.primitive_rows, d)
        if len(chain) == arr.normal_rank
    )
    subs: dict[tuple[tuple[tuple[int, ...], int], ...], NormalizedArrangement] = {}
    out = []
    for members, chain in found:
        key = tuple((arr.primitive_normals[j], arr.multiplicities[j]) for j in members)
        sub = subs.get(key)
        if sub is None:
            sub = subs[key] = _centered(arr, members, len(chain))
        out.append((_chain_point(chain, d), sub))
    return out


def _centered(arr: NormalizedArrangement, members, rank: int) -> NormalizedArrangement:
    """The hyperplanes `members` of `arr`, moved to pass through the origin,
    with their integer view filled in. `rank` is the length of the chain of
    the closure's flat of the members' rows (a | b); rows with a common
    point have the rank of their normals. The rows are the parent's
    primitive normals with a zero offset, and the primitive normals are the
    parent's tuples, so no `Fraction` is built."""
    normals, mults = tuple(arr.primitive_normals[j] for j in members), tuple(arr.multiplicities[j] for j in members)
    rows = tuple(normal + (0,) for normal in normals)
    return _stored(NormalizedArrangement, primitive_rows=rows, multiplicities=mults, dim=arr.dim, variables=arr.variables,
                   primitive_normals=normals, normal_rank=rank)  # the last two are cached properties


def box_pair(arr: NormalizedArrangement, bounds) -> RlctPair:
    """The pair of a closed box: the most singular local pair on it.

    The local pair at a point is the pair of the hyperplanes through it, and
    more hyperplanes through a point are never less singular: the flats of
    the fewer are flats of the more, with weights at least as large. So the
    most singular point of the box lies on a flat of the augmented closure
    that meets the box and is inclusion-maximal among those that do, and the
    box's pair is the least `rlct_central` pair of those flats' centered
    hyperplanes. When every hyperplane passes through one point of the box,
    central input or not, the flat of all of them is the only such flat: one
    `meets_box` test and no closure. Otherwise the walk takes flats by
    decreasing member count, skips a flat inside one already taken, and tests
    the rest with `meets_box`, exactly over Q; a witness point would not do,
    since a flat can cross a box away from it. `bounds` goes through
    `normalize_box` first: one (lo, hi) pair of rationals per coordinate,
    lo < hi, or DimensionError or DegenerateBoxError. A box that no
    hyperplane meets is an error.

    Each point gets the pair of its full neighbourhood, so on a box that a
    flat only touches the pair is known to be wrong: the box cuts off part
    of every neighbourhood of a boundary point, and there the true λ is
    larger than the one returned. On [-1, 1]^2 the line x + y = 2 touches
    only the corner (1, 1): this gives (1, 1), while the sampled volume
    falls as ε^2.
    """
    bounds = normalize_box(bounds, arr.dim)
    rows = arr.primitive_rows
    taken = [((1 << arr.n) - 1, arr.normal_rank)] if meets_box(rows, bounds) else []  # (mask, rank)
    if not taken:
        flats = sorted(((mask, chain) for chain, mask in _closure(rows, arr.dim)), key=lambda f: -f[0].bit_count())
        for mask, chain in flats:
            if all(mask & m != mask for m, _ in taken) and meets_box(chain, bounds):
                taken.append((mask, len(chain)))
    if not taken:
        raise RlctError("no hyperplane meets the box, so the polynomial has no zero there")
    subs = (_centered(arr, [j for j in range(arr.n) if m >> j & 1], rank) for m, rank in taken)
    return min(rlct_central(sub).pair for sub in subs)


def rlct_affine(arr: NormalizedArrangement) -> LocalizationReport:
    """Global pair of an affine arrangement via its maximal localizations.

    Central inputs produce a single localization at the origin, so the
    report then agrees with `rlct_central` exactly. Each distinct local
    arrangement is solved once (`maximal_central_localizations` shares its
    object), and its localizations share the `RlctResult`, which holds that
    object and no lattice. A local arrangement with independent normals is
    solved by `_normal_crossing`, once per tied set in a memo that lives for
    this call only, and each result still keeps its own arrangement. One
    with dependent normals goes to `rlct_central`. The global localization
    is the first appearance of the first most singular result, so
    `pair_less` runs once per distinct result, not once per point.
    """
    results: dict[int, tuple[RlctResult, int]] = {}  # by sub-arrangement object: result, first index
    crossings: dict = {}  # by tied set (see `_normal_crossing`)
    localizations = []
    for point, sub in maximal_central_localizations(arr):
        found = results.get(id(sub))
        if found is None:
            independent = sub.normal_rank == sub.n
            result = RlctResult(*_normal_crossing(sub, crossings), sub) if independent else rlct_central(sub)
            found = results[id(sub)] = (result, len(localizations))
        localizations.append(Localization(point, found[0]))
    # `min` keeps the first least result, and `results` is in order of first appearance.
    _, best_index = min(results.values(), key=lambda found: found[0].pair)
    return LocalizationReport(localizations=tuple(localizations), global_index=best_index)
