"""Threshold pair computation: golden values, closed form, localization."""

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from rlct import (
    ArrangementSpec,
    CentralityError,
    DegenerateBoxError,
    DimensionError,
    EmptyArrangementError,
    InvalidMultiplicityError,
    RlctError,
    RlctPair,
    SizeLimitError,
    build_lattice,
    localizations_bruteforce,
    longest_chain_bruteforce,
    normalize,
    pair_less,
    parse_factored_product,
    rlct_affine,
    rlct_central,
    rlct_line_arrangement_2d,
    rref,
)
from rlct import arrangement, lattice, threshold
from rlct.oracle import (
    MAX_BRUTEFORCE_CHAIN_FLATS,
    MAX_BRUTEFORCE_HYPERPLANES,
    _longest_mask_chain,
    subspace_leq,
    verify_central,
    verify_report,
)
from rlct.ratlinalg import RationalMatrix, primitive_int_row
from rlct.threshold import box_pair, maximal_central_localizations

from conftest import (
    fraction_point,
    matmul,
    meets_box_bruteforce,
    random_central_arrangement,
    random_invertible,
    random_rational,
)

F = Fraction


def strictly_inside(low, high):
    """Strict containment of flats, tested on the rational span of their rows."""
    a, b = RationalMatrix(low.rows), RationalMatrix(high.rows)
    return subspace_leq(a, b) and not subspace_leq(b, a)


def arr_of(text):
    return normalize(parse_factored_product(text))


def pair(threshold, multiplicity):
    return RlctPair(threshold=F(threshold), multiplicity=multiplicity)


class TestPairOrder:
    def test_threshold_dominates(self):
        assert pair_less(pair(F(1, 2), 1), pair(1, 2))

    def test_larger_multiplicity_is_more_singular(self):
        assert pair_less(pair(F(1, 2), 3), pair(F(1, 2), 1))
        assert not pair_less(pair(F(1, 2), 1), pair(F(1, 2), 3))

    def test_irreflexive(self):
        assert not pair_less(pair(1, 2), pair(1, 2))

    def test_total_order_via_dunder(self):
        values = [pair(1, 1), pair(F(1, 2), 2), pair(F(1, 2), 1), pair(2, 3)]
        ordered = sorted(values)
        assert ordered == [pair(F(1, 2), 2), pair(F(1, 2), 1), pair(1, 1), pair(2, 3)]
        assert min(values) == pair(F(1, 2), 2)


class TestCentral:
    def test_single_reduced_hyperplane(self):
        assert rlct_central(arr_of("x")).pair == pair(1, 1)
        # The same line sitting in the plane still gives (1, 1).
        assert rlct_central(arr_of("vars x, y; x")).pair == pair(1, 1)

    def test_normal_crossing_pair(self):
        assert rlct_central(arr_of("x*y")).pair == pair(1, 2)

    def test_non_reduced_axes(self):
        assert rlct_central(arr_of("x^2*y^3")).pair == pair(F(1, 3), 1)

    def test_four_lines(self):
        assert rlct_central(arr_of("x*y*(x+y)*(x-y)")).pair == pair(F(1, 2), 1)

    def test_concurrent_reduced_lines(self):
        for n in range(3, 9):
            rows = [[1, k] for k in range(n - 1)] + [[0, 1]]
            result = rlct_central(normalize(ArrangementSpec(rows, [1] * n)))
            assert result.pair == pair(F(2, n), 1)

    def test_four_planes_with_witness(self):
        result = rlct_central(arr_of("x*y^2*z^2*(x+y+z)"))
        assert result.pair == pair(F(1, 2), 3)
        chain = result.witness_chain
        assert len(chain) == 3
        assert [f.codim for f in chain] == [3, 2, 1]
        for low, high in zip(chain, chain[1:]):
            assert strictly_inside(low, high)
            assert low.members > high.members
        for flat in chain:
            assert F(flat.codim, flat.weight) == F(1, 2)
        assert len(result.minimizer_flats) == 4

    def test_coordinate_hyperplanes_all_dimensions(self):
        # Every flat of the Boolean arrangement has codim equal to weight,
        # so all flats minimize and the longest chain sweeps all of them.
        for d in range(1, 6):
            rows = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
            result = rlct_central(normalize(ArrangementSpec(rows, [1] * d)))
            assert result.pair == pair(1, d)
            assert len(result.minimizer_flats) == len(result.lattice.flats)

    def test_affine_rejected(self):
        with pytest.raises(CentralityError):
            rlct_central(arr_of("x*(x-1)"))

    def test_deterministic_witness(self):
        a = rlct_central(arr_of("x*y^2*z^2*(x+y+z)"))
        b = rlct_central(arr_of("x*y^2*z^2*(x+y+z)"))
        assert a == b

    def test_bounds_and_witness_validity_random(self):
        rng = random.Random(71)
        for _ in range(40):
            arr = random_central_arrangement(rng, max_n=7, max_d=4)
            result = rlct_central(arr)
            total = sum(arr.multiplicities)
            biggest = max(arr.multiplicities)
            assert F(1, total) <= result.pair.threshold <= F(1, biggest)
            assert 1 <= result.pair.multiplicity <= arr.dim
            assert len(result.witness_chain) == result.pair.multiplicity
            for flat in result.witness_chain:
                assert F(flat.codim, flat.weight) == result.pair.threshold
            for low, high in zip(result.witness_chain, result.witness_chain[1:]):
                assert strictly_inside(low, high)


def _join_irreducibles(masks):
    """The distinct J_e: for each hyperplane e in some mask, the meet of the
    masks that contain e."""
    union = 0
    for mask in masks:
        union |= mask
    meets = set()
    for e in range(union.bit_length()):
        if union >> e & 1:
            meet = union
            for mask in masks:
                if mask >> e & 1:
                    meet &= mask
            meets.add(meet)
    return meets


def _multiplicity_corpus():
    rng = random.Random(78)
    corpus = [random_central_arrangement(rng, max_n=8, max_d=5) for _ in range(60)]
    # Rank-deficient weighted draws: rows combine fewer base normals than d.
    for _ in range(60):
        d = rng.randint(2, 5)
        base = [[rng.randint(-2, 2) for _ in range(d - 1)] + [1] for _ in range(rng.randint(1, d - 1))]
        n = rng.randint(2, 8)
        rows = []
        while len(rows) < n:
            coeffs = [rng.randint(-2, 2) for _ in base]
            row = [sum(c * b[i] for c, b in zip(coeffs, base)) for i in range(d)]
            if any(row):
                rows.append(row)
        arr = normalize(ArrangementSpec(rows, [rng.randint(1, 4) for _ in rows]))
        assert rref(arr.normals)[1] < arr.dim
        corpus.append(arr)
    for k in range(1, 7):
        corpus.append(normalize(ArrangementSpec([[int(i == j) for j in range(k)] for i in range(k)], [1] * k)))
    for k in range(4, 7):  # braid A3-A5
        rows = [[int(c == i) - int(c == j) for c in range(k)] for i in range(k) for j in range(i + 1, k)]
        corpus.append(normalize(ArrangementSpec(rows, [1] * len(rows))))
    # A weighted pencil of lines with the top weight equal to the rest: m = 2.
    corpus.append(normalize(ArrangementSpec([[1, 0], [1, 1], [1, 2], [0, 1]], [3, 1, 1, 1])))
    return corpus


class TestJoinIrreducibles:
    """The identity the multiplicity path relies on: the minimizer member
    sets with the empty set are closed under union and intersection, so m is
    the number of join-irreducibles J_e and a flat's rank counts the J_e
    inside it."""

    def test_minimizer_masks_form_a_distributive_lattice(self):
        checked = 0
        for arr in _multiplicity_corpus():
            result = rlct_central(arr)
            masks = {flat.mask for flat in result.minimizer_flats}
            closed = masks | {0}
            assert all(a | b in closed and a & b in closed for a in closed for b in closed)
            irreducibles = _join_irreducibles(masks)
            assert result.pair.multiplicity == len(irreducibles)
            if len(masks) <= 50:
                assert longest_chain_bruteforce(result.minimizer_flats) == len(irreducibles)
                checked += 1
            chain = result.witness_chain
            ranks = [sum(j & flat.mask == j for j in irreducibles) for flat in reversed(chain)]
            assert ranks == list(range(1, len(irreducibles) + 1))
            for low, high in zip(chain, chain[1:]):
                assert strictly_inside(low, high)
        assert checked >= 100


def _direct_sum(blocks):
    """The blocks, each (rows, multiplicities), in disjoint variables: the
    rows, the multiplicities and the dimension of their sum."""
    d = sum(len(rows[0]) for rows, _ in blocks)
    rows, mults, start = [], [], 0
    for block, block_mults in blocks:
        width = len(block[0])
        rows += [[0] * start + list(row) + [0] * (d - start - width) for row in block]
        mults += list(block_mults)
        start += width
    return rows, mults, d


def _hidden_direct_sum(rng, blocks):
    """The direct sum of the blocks taken to new coordinates by a random T in GL(d, Q)."""
    rows, mults, d = _direct_sum(blocks)
    return normalize(ArrangementSpec(matmul(RationalMatrix(rows, cols=d), random_invertible(rng, d)), mults))


class TestChainPastTheOracleCap:
    """m and the witness chain against a longest-chain DP over the minimizer
    masks, which needs no geometry and no cap: the oracle's chain search
    refuses more than 50 flats."""

    def test_multiplicity_is_the_longest_mask_chain(self):
        rng = random.Random(361)
        tied = [random_central_arrangement(rng, max_n=8, max_d=4, max_mult=1, span=1) for _ in range(30)]
        sums = []
        for _ in range(30):
            blocks = [random_central_arrangement(rng, max_n=5, max_d=3, max_mult=3) for _ in range(rng.randint(2, 3))]
            sums.append(_hidden_direct_sum(rng, [(list(b.normals), b.multiplicities) for b in blocks]))
        # Six tied coordinates with six generic planes in three more
        # variables: lambda 1/2 on both blocks, m = 6 + 1, 127 minimizers.
        planes = [[1, 2, 3], [2, -1, 5], [3, 4, -1], [1, -3, 2], [5, 1, 4], [4, -5, -3]]
        coordinates = [[int(i == j) for j in range(6)] for i in range(6)]
        sums.append(_hidden_direct_sum(rng, [(coordinates, [2] * 6), (planes, [1] * 6)]))
        # A pencil whose top weight equals the rest (m = 2) with the six
        # coordinates doubled (m = 6): 3 * 64 - 1 = 191 minimizers, m = 8.
        sums.append(_hidden_direct_sum(rng, [([[1, 0], [0, 1], [1, 1]], [1, 1, 2]), (coordinates, [2] * 6)]))
        ties = large = 0
        for arr in tied + sums:
            result = rlct_central(arr)
            masks = [flat.mask for flat in result.minimizer_flats]
            length = _longest_mask_chain(masks)
            assert result.pair.multiplicity == len(result.witness_chain) == length
            chain = [flat.mask for flat in result.witness_chain]
            assert all(mask in masks for mask in chain)
            # Smallest flat first: each mask strictly holds the next.
            assert all(big | small == big != small for big, small in zip(chain, chain[1:]))
            ties += len(masks) > 1
            if len(masks) > MAX_BRUTEFORCE_CHAIN_FLATS:
                large += 1
                with pytest.raises(SizeLimitError):
                    longest_chain_bruteforce(result.minimizer_flats)
        for arr, m, count in ((sums[-2], 7, 127), (sums[-1], 8, 191)):
            result = rlct_central(arr)
            assert (result.pair, len(result.minimizer_flats)) == (pair(F(1, 2), m), count)
        assert ties >= 15 and large == 2, (ties, large)


class TestDirectSumIdentity:
    """A central arrangement in disjoint variables is a direct sum of its
    blocks: a flat of the sum is a flat (or the whole space) of each block,
    at least one a flat, with codims and weights adding. So lambda is the
    least block lambda, m is the sum of the m of the blocks that attain it,
    and the minimizers are the nonempty products of a minimizer or the whole
    space from each attaining block: prod(k_i + 1) - 1 of them, k_i a
    block's minimizer count. The sums are hidden by a change of coordinates,
    and each block is solved on its own."""

    def test_pair_and_minimizer_count_from_the_blocks(self):
        rng = random.Random(2202)
        sums = []
        for _ in range(30):
            blocks = [random_central_arrangement(rng, max_n=5, max_d=3, max_mult=3) for _ in range(rng.randint(2, 3))]
            sums.append([(list(b.normals), b.multiplicities) for b in blocks])
        def pencil(k):  # k lines through the origin of the plane
            return [[1, i] for i in range(k - 1)] + [[0, 1]]

        # Three pencils at lambda 1/5 (m 1, 1 and 2; 1, 1 and 2 minimizers),
        # 21 hyperplanes: lambda 1/5, m = 4, 2 * 2 * 3 - 1 = 11 minimizers.
        sums.append([(pencil(10), [1] * 10), (pencil(5), [2] * 5), (pencil(6), [5, 1, 1, 1, 1, 1])])
        # Five doubled coordinates (1/2, 5) and a pencil (1/2, 2) attain 1/2,
        # four generic planes (3/4, 1) do not: m = 7, 32 * 3 - 1 = 95 minimizers.
        coordinates = [[int(i == j) for j in range(5)] for i in range(5)]
        planes = [[1, 2, 3], [2, -1, 5], [3, 4, -1], [1, -3, 2]]
        sums.append([(coordinates, [2] * 5), ([[1, 0], [0, 1], [1, 1]], [1, 1, 2]), (planes, [1] * 4)])
        split = 0
        for blocks in sums:
            results = [rlct_central(normalize(ArrangementSpec(rows, mults))) for rows, mults in blocks]
            least = min(r.pair.threshold for r in results)
            attaining = [r for r in results if r.pair.threshold == least]
            result = rlct_central(_hidden_direct_sum(rng, blocks))
            assert result.pair == pair(least, sum(r.pair.multiplicity for r in attaining))
            assert len(result.minimizer_flats) == math.prod(len(r.minimizer_flats) + 1 for r in attaining) - 1
            split += len(attaining) < len(results)
        assert (sum(len(rows) for rows, _ in sums[-2]), len(result.minimizer_flats)) == (21, 95)
        assert split >= 5, split


class TestMinimizersFromTriples:
    """`rlct_central` picks the minimizers on the closure's integer triples
    and orders only them; they must be the lattice's flats at lambda, in
    lattice order, and the full order must stay unbuilt until read."""

    def test_minimizers_are_the_lattice_flats_at_lambda(self):
        rng = random.Random(85)
        tied = [random_central_arrangement(rng, max_n=7, max_d=4, max_mult=1, span=1) for _ in range(40)]
        coordinate = normalize(ArrangementSpec([[int(i == j) for j in range(6)] for i in range(6)], [1] * 6))
        ties = 0
        for arr in _multiplicity_corpus() + tied + [coordinate]:
            result = rlct_central(arr)
            assert "flats" not in vars(result.lattice)
            at_lambda = [f for f in result.lattice.flats if F(f.codim, f.weight) == result.pair.threshold]
            assert list(result.minimizer_flats) == at_lambda
            ties += len(at_lambda) > 1
        assert ties >= 30
        assert len(result.minimizer_flats) == len(result.lattice.flats) == 63

    def test_only_the_flats_read_are_reduced(self, monkeypatch):
        # The closure carries residue chains; canonical rows are formed for
        # the minimizers and, on its first read, every flat of
        # `lattice.flats`, one reduction per flat. Independent normals build
        # their minimizers' rows with no closure, and the maximal
        # localizations read their points off the chains: neither reduces a
        # chain.
        calls = []
        reduce = lattice._canonical_rows

        def counted(chain):
            calls.append(chain)
            return reduce(chain)

        monkeypatch.setattr(lattice, "_canonical_rows", counted)
        rng = random.Random(86)
        skipped = 0
        kinds = {True: 0, False: 0}
        for _ in range(30):
            arr = random_central_arrangement(rng, max_n=7, max_d=4)
            calls.clear()
            result = rlct_central(arr)
            independent = rref(arr.normals)[1] == arr.n
            kinds[independent] += 1
            assert len(calls) == (0 if independent else len(result.minimizer_flats))
            skipped += len(result.lattice.triples) - len(calls)
            calls.clear()
            assert len(result.lattice.flats) == len(calls) == len(result.lattice.triples)
            offsets = [rng.randint(-2, 2) for _ in range(arr.n)]
            affine = normalize(ArrangementSpec(arr.normals, arr.multiplicities, offsets=offsets))
            calls.clear()
            assert maximal_central_localizations(affine) and calls == []
        assert skipped >= 100
        assert min(kinds.values()) >= 5, kinds


def _independent_draw(rng, d, n):
    """n <= d linearly independent normals with rational entries, taken to
    new coordinates by a random T in GL(d, Q), with ties at the largest
    multiplicity."""
    while True:
        rows = RationalMatrix([[random_rational(rng, max_den=3) for _ in range(d)] for _ in range(n)], cols=d)
        if rref(rows)[1] == n:
            break
    top = rng.randint(1, 3)
    mults = [rng.choice((top, top, rng.randint(1, top))) for _ in range(n)]
    mults[rng.randrange(n)] = top
    return matmul(rows, random_invertible(rng, d)), mults


class TestNormalCrossing:
    """Independent normals are solved with no closure: lambda = 1/s*, m is
    the number of hyperplanes of multiplicity s*, and the minimizers and
    witness chain must be those the closure gives through `result.lattice`."""

    @staticmethod
    def check(result, closures):
        """The result's pair and flats against the closure's; returns the
        number of minimizers."""
        arr = result.arrangement
        top = max(arr.multiplicities)
        assert rref(arr.normals)[1] == arr.n
        assert closures == []  # solved with no closure; reading `lattice` runs one
        assert result.pair == pair(F(1, top), arr.multiplicities.count(top))
        flats = result.lattice.flats
        lam = min(F(f.codim, f.weight) for f in flats)
        at_lambda = [f for f in flats if F(f.codim, f.weight) == lam]
        assert list(result.minimizer_flats) == at_lambda
        assert list(result.witness_chain) == threshold._longest_chain(at_lambda)[1]
        if len(at_lambda) <= MAX_BRUTEFORCE_CHAIN_FLATS:
            assert all(verify_central(arr, result).values())
        return len(at_lambda)

    @pytest.fixture
    def closures(self, monkeypatch):
        """The arrangements `threshold.build_lattice` is called on."""
        calls = []
        build = threshold.build_lattice

        def counted(arr):
            calls.append(arr)
            return build(arr)

        monkeypatch.setattr(threshold, "build_lattice", counted)
        return calls

    def test_central_draws_match_the_closure(self, closures):
        rng = random.Random(301)
        sizes = set()
        for d in range(1, 7):
            for n in range(1, d + 1):
                for _ in range(3):
                    rows, mults = _independent_draw(rng, d, n)
                    closures.clear()
                    sizes.add(self.check(rlct_central(normalize(ArrangementSpec(rows, mults))), closures))
        # Every hyperplane tied: all 2^6 - 1 subsets of six are minimizers.
        rows, _ = _independent_draw(rng, 6, 6)
        closures.clear()
        assert self.check(rlct_central(normalize(ArrangementSpec(rows, [2] * 6))), closures) == 63
        assert {1, 3, 7, 15, 31} <= sizes, sizes

    def test_affine_localizations_match_the_closure(self, closures):
        # d + 1 hyperplanes with offsets; in every other draw the last one is
        # a combination of the first two, through their common flat, so some
        # localizations have dependent normals and take the closure.
        rng = random.Random(302)
        independent = dependent = 0
        for d in (2, 3, 4):
            for draw in range(6):
                rows, mults = _independent_draw(rng, d, d)
                offsets = [random_rational(rng, span=2, max_den=2) for _ in range(d)]
                a, b = random_rational(rng), random_rational(rng)
                if draw % 2 and a and b:
                    extra = [a * x + b * y for x, y in zip(rows.row(0), rows.row(1))]
                    offset = a * offsets[0] + b * offsets[1]
                else:
                    extra, offset = [random_rational(rng) for _ in range(d)], random_rational(rng, span=2, max_den=2)
                if not any(extra):
                    continue
                rows = RationalMatrix(list(rows) + [extra], cols=d)
                arr = normalize(ArrangementSpec(rows, mults + [rng.randint(1, 3)], offsets=offsets + [offset]))
                closures.clear()
                report = rlct_affine(arr)
                solved = {id(loc.result): loc.result for loc in report.localizations}.values()
                assert len(closures) == sum(rref(r.arrangement.normals)[1] < r.arrangement.n for r in solved)
                for result in solved:
                    if rref(result.arrangement.normals)[1] < result.arrangement.n:
                        dependent += 1
                        continue
                    # The count above shows no closure ran for it; reading an
                    # earlier result's lattice in `check` runs one.
                    closures.clear()
                    self.check(result, closures)
                    independent += 1
                assert all(verify_report(arr, report).values())
        assert independent >= 30 and dependent >= 5, (independent, dependent)


def _tied_affine_draw(rng, kind):
    """An affine arrangement with rational offsets and multiplicities 1-3,
    in coordinates hidden by a random T in GL(d, Q) every other draw.
    "grid": each unit normal through k parallel hyperplanes, and a slanted
    one through a point of the grid, so that many points share a tied set
    and a few have dependent normals. "generic": d + 3 hyperplanes with
    small entries, some of them parallel. "through": d + 1 such hyperplanes
    through one point."""
    d = rng.randint(2, 3)
    if kind == "grid":
        k = rng.randint(2, 3)
        rows = [[int(c == axis) for c in range(d)] for axis in range(d) for _ in range(k)]
        offsets = [random_rational(rng, span=2, max_den=2) for _ in rows]
        slant = [rng.choice((1, 2)) for _ in range(d)]
        # Through the point where the first hyperplanes of the axes meet.
        rows.append(slant)
        offsets.append(sum(a * offsets[axis * k] for axis, a in enumerate(slant)))
    else:
        rows = []
        while len(rows) < (d + 3 if kind == "generic" else d + 1):
            row = [F(rng.randint(-2, 2)) for _ in range(d)]
            if any(row):
                rows.append(row)
        if kind == "generic":
            offsets = [random_rational(rng, span=2, max_den=2) for _ in rows]
        else:
            point = [random_rational(rng, span=2, max_den=2) for _ in range(d)]
            offsets = [-sum(a * x for a, x in zip(row, point)) for row in rows]
    normals = RationalMatrix(rows, cols=d)
    if rng.random() < 0.5:
        normals = matmul(normals, random_invertible(rng, d))
    return normalize(ArrangementSpec(normals, [rng.randint(1, 3) for _ in rows], offsets=offsets))


class TestTiedSets:
    """`rlct_affine` solves its normal-crossing localizations once per tied
    set (the largest multiplicity, and the local positions and primitive
    normals of the hyperplanes that have it), from a memo that dies with the
    call; localizations with dependent normals still call `rlct_central`."""

    def test_memo_gives_the_fresh_report(self):
        rng = random.Random(311)
        shared = ties = dependent = verified = 0
        for draw in range(40):
            arr = _tied_affine_draw(rng, ("grid", "generic")[draw % 2])
            report = rlct_affine(arr)
            fresh = [threshold.Localization(point, rlct_central(sub)) for point, sub in maximal_central_localizations(arr)]
            best = min(range(len(fresh)), key=lambda i: fresh[i].pair)
            assert report.to_json_dict() == threshold.LocalizationReport(tuple(fresh), best).to_json_dict()
            results = {id(loc.result): loc.result for loc in report.localizations}.values()
            crossing = [r for r in results if rref(r.arrangement.normals)[1] == r.arrangement.n]
            shared += len(crossing) - len({id(r.minimizer_flats) for r in crossing})
            ties += sum(r.pair.multiplicity > 1 for r in crossing)
            dependent += len(results) - len(crossing)
            if all(len(loc.result.minimizer_flats) <= MAX_BRUTEFORCE_CHAIN_FLATS for loc in report.localizations):
                assert all(verify_report(arr, report).values())
                verified += 1
            # A second call builds its own flats: the memo is not process-wide.
            again = rlct_affine(arr)
            assert again.to_json_dict() == report.to_json_dict()
            flats = {id(f) for r in results for f in r.minimizer_flats + r.witness_chain}
            assert not flats & {id(f) for loc in again.localizations for f in loc.result.minimizer_flats}
        # `shared` counts distinct local arrangements that took another's
        # pair and flats; `ties` the normal-crossing ones with m > 1.
        assert shared >= 60 and ties >= 80 and dependent >= 15 and verified >= 35, (shared, ties, dependent, verified)

    def test_no_memo_outlives_a_call(self, monkeypatch):
        # Normal crossing with a tie (two cubes): `rlct_central` and the
        # no-closure path of `box_pair` solve it with no closure. Each call
        # builds its own flats, so no memo is process-wide.
        arr = arr_of("vars x, y, z; (x + 2*y - z)^3*(3*x - y)^3*(y + 5*z)")
        assert arr.normal_rank == arr.n == 3
        solved = []
        central = threshold.rlct_central
        monkeypatch.setattr(threshold, "rlct_central", lambda sub: solved.append(central(sub)) or solved[-1])
        results = [central(arr), central(arr)]
        for _ in range(2):
            assert box_pair(arr, [(-1, 1)] * 3) == pair(F(1, 3), 2)
        results += solved
        assert len(results) == 4 and all(r.to_json_dict() == results[0].to_json_dict() for r in results)
        assert len(results[0].minimizer_flats) == 3
        flats = [{id(f) for f in r.minimizer_flats + r.witness_chain} for r in results]
        for a, b in itertools.combinations(flats, 2):
            assert not a & b


def _must_not_run(*args):
    raise AssertionError("the integer view was recomputed")


class TestIntegerView:
    """An arrangement's primitive normals and their rank, built once: a
    centered sub-arrangement gets them from its parent's rows and from the
    closure's chain length, never by recomputing."""

    def test_centered_view_is_the_recomputed_one(self, monkeypatch):
        subs = []
        central = threshold.rlct_central
        monkeypatch.setattr(threshold, "rlct_central", lambda sub: subs.append(sub) or central(sub))
        rng = random.Random(312)
        whole = walked = 0
        for draw in range(60):
            arr = _tied_affine_draw(rng, ("grid", "generic", "through")[draw % 3])
            subs.clear()
            boxes = []
            for _ in range(3):
                lows = [F(rng.randint(-3, 2), rng.randint(1, 2)) for _ in range(arr.dim)]
                boxes.append([(lo, lo + F(rng.randint(1, 4), rng.randint(1, 2))) for lo in lows])
            if draw % 3 == 2:
                # A box around the common point: the flat of all hyperplanes, with no closure.
                ((point, _),) = maximal_central_localizations(arr)
                boxes.append([(x - F(rng.randint(1, 3), 4), x + F(rng.randint(1, 3), 4)) for x in fraction_point(point)])
            for bounds in boxes:
                try:
                    box_pair(arr, bounds)
                except RlctError:
                    pass
            whole += sum(sub.n == arr.n for sub in subs)
            walked += sum(sub.n < arr.n for sub in subs)
            for sub in subs + [sub for _, sub in maximal_central_localizations(arr)]:
                view = vars(sub)  # filled in by `_centered`, not computed on read
                assert view["primitive_normals"] == tuple(primitive_int_row(row) for row in sub.normals)
                assert view["normal_rank"] == rref(sub.normals)[1]
                with monkeypatch.context() as patched:  # the properties read what `_centered` stored
                    patched.setattr(arrangement, "primitive_int_row", _must_not_run)
                    patched.setattr(arrangement, "integer_rank", _must_not_run)
                    assert sub.primitive_normals is view["primitive_normals"]
                    assert sub.normal_rank == view["normal_rank"]
        assert whole >= 5 and walked >= 30, (whole, walked)

    def test_read_view_of_a_normalized_arrangement(self):
        rng = random.Random(313)
        for _ in range(40):
            arr = random_central_arrangement(rng, max_n=7, max_d=4, max_den=3)
            assert "normal_rank" not in vars(arr)
            assert arr.primitive_normals == tuple(primitive_int_row(row) for row in arr.normals)
            assert arr.normal_rank == rref(arr.normals)[1]


class TestLocalArrangementsAreNormalized:
    """`threshold._centered` builds a local arrangement from its parent's
    rows, past `normalize`'s checks. Each one that the localizations and
    `box_pair` solve is the arrangement `normalize` gives for its own rows:
    at least one row, distinct, in order, with positive multiplicities."""

    def test_each_local_arrangement_equals_its_normalized_rows(self, monkeypatch):
        solved = []
        central = threshold.rlct_central
        monkeypatch.setattr(threshold, "rlct_central", lambda sub: solved.append(sub) or central(sub))
        rng = random.Random(4902)
        dropped = cut = local = 0
        for _ in range(300):
            d, n = rng.randint(1, 4), rng.randint(1, 7)
            rows = []
            while len(rows) < n:
                row = [F(rng.randint(-2, 2)) for _ in range(d)]
                if any(row):
                    rows.append(row)
            offsets = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            mults = [rng.choice([0, 1, 1, 2, 3]) for _ in range(n)]
            if not any(mults):
                mults[0] = 1
            arr = normalize(ArrangementSpec(rows, mults, offsets=offsets))
            dropped += 0 in mults
            solved.clear()
            for _ in range(2):
                lows = [F(rng.randint(-3, 2), rng.randint(1, 2)) for _ in range(d)]
                try:
                    box_pair(arr, [(lo, lo + F(rng.randint(1, 3), rng.randint(1, 2))) for lo in lows])
                except RlctError:
                    pass
            maximal = [sub for _, sub in maximal_central_localizations(arr)]
            cut += any(sub not in maximal for sub in solved)  # the box cut a maximal flat off
            subs = solved + maximal
            for sub in subs:
                again = normalize(ArrangementSpec(sub.normals, sub.multiplicities, sub.offsets, sub.variables))
                assert (sub, hash(sub)) == (again, hash(again))
            local += len(subs)
        assert dropped >= 120 and cut >= 120 and local >= 1800, (dropped, cut, local)


class TestLatticeOnRead:
    """A result keeps the arrangement it solved, not its lattice: `lattice`
    is built on first read, and a localization is its point and its result."""

    def test_fields(self):
        fields = [f.name for f in dataclasses.fields(threshold.RlctResult)]
        assert fields == ["pair", "witness_chain", "minimizer_flats", "arrangement"]
        assert [f.name for f in dataclasses.fields(threshold.Localization)] == ["integer_point", "result"]

    def test_no_result_holds_a_lattice_until_read(self):
        arr = arr_of("x*y^2*z^2*(x+y+z)")
        result = rlct_central(arr)
        assert result.arrangement is arr
        assert "lattice" not in vars(result)
        lat = result.lattice
        assert vars(result)["lattice"] is lat is result.lattice
        report = rlct_affine(arr_of("vars x, y, z; (y-1)*x*(z-2)*(x-2)*(x+y+z-3)*y*(z-1)*(x-1)*(y-2)*z"))
        assert len(report.localizations) > 1
        for loc in report.localizations:
            assert "lattice" not in vars(loc.result)
        assert report.global_result.lattice.flats
        assert "lattice" in vars(report.global_result)

    def test_lattice_on_read_is_build_lattice(self):
        rng = random.Random(91)
        for _ in range(40):
            arr = random_central_arrangement(rng, max_n=7, max_d=4)
            result = rlct_central(arr)
            expected = [f.to_json_dict() for f in build_lattice(arr).flats]
            assert [f.to_json_dict() for f in result.lattice.flats] == expected

    def test_a_localization_reads_its_arrangement_off_its_result(self):
        rng = random.Random(92)
        shared = 0
        for _ in range(40):
            d, n = rng.randint(1, 3), rng.randint(1, 7)
            rows = []
            while len(rows) < n:
                row = [F(rng.randint(-2, 2)) for _ in range(d)]
                if any(row):
                    rows.append(row)
            offsets = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 2) for _ in range(n)], offsets=offsets))
            report = rlct_affine(arr)
            expected = maximal_central_localizations(arr)
            assert [loc.point for loc in report.localizations] == [fraction_point(point) for point, _ in expected]
            for loc, (_, sub) in zip(report.localizations, expected):
                assert loc.arrangement is loc.result.arrangement
                assert loc.arrangement == sub
                assert "lattice" not in vars(loc.result)
            shared += len({id(loc.result) for loc in report.localizations}) < len(report.localizations)
        assert shared >= 5, shared


class TestClosedForm2d:
    def test_balanced_pair(self):
        assert rlct_line_arrangement_2d([1, 1]) == pair(1, 2)

    def test_four_reduced_lines(self):
        assert rlct_line_arrangement_2d([1, 1, 1, 1]) == pair(F(1, 2), 1)

    def test_balanced_triple(self):
        # Cross-check: x*y*(x-y)^2 through the lattice route.
        assert rlct_line_arrangement_2d([1, 1, 2]) == pair(F(1, 2), 2)
        assert rlct_central(arr_of("x*y*(x-y)^2")).pair == pair(F(1, 2), 2)

    def test_single_line(self):
        assert rlct_line_arrangement_2d([4]) == pair(F(1, 4), 1)

    def test_unsorted_input_sorted_internally(self):
        assert rlct_line_arrangement_2d([3, 1, 2]) == rlct_line_arrangement_2d([1, 2, 3])

    def test_empty_errors(self):
        with pytest.raises(EmptyArrangementError):
            rlct_line_arrangement_2d([])

    @pytest.mark.parametrize("bad", [0, True, 1.5])
    def test_multiplicity_must_be_a_positive_int(self, bad):
        with pytest.raises(InvalidMultiplicityError):
            rlct_line_arrangement_2d([1, bad])

    def test_agreement_with_lattice_route(self):
        rng = random.Random(72)
        for _ in range(150):
            n = rng.randint(1, 6)
            mults = [rng.randint(1, 5) for _ in range(n)]
            slopes = rng.sample(range(-12, 13), n)
            rows = [[1, slope] for slope in slopes]
            arr = normalize(ArrangementSpec(rows, mults))
            assert rlct_central(arr).pair == rlct_line_arrangement_2d(mults)


class TestLocalization:
    def test_central_input_single_localization(self):
        locs = maximal_central_localizations(arr_of("x*y"))
        assert len(locs) == 1
        point, sub = locs[0]
        assert fraction_point(point) == (F(0), F(0))
        assert sub == arr_of("x*y")

    def test_parallel_lines(self):
        locs = maximal_central_localizations(arr_of("x*(x-1)"))
        assert len(locs) == 2
        points = sorted(fraction_point(p) for p, _ in locs)
        assert points == [(F(0),), (F(1),)]
        assert all(sub.n == 1 for _, sub in locs)

    def test_three_lines_generic_offsets(self):
        locs = maximal_central_localizations(arr_of("x*y*(x+y-1)"))
        assert len(locs) == 3
        points = sorted(fraction_point(p) for p, _ in locs)
        assert points == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
        assert all(sub.n == 2 for _, sub in locs)

    def test_localizations_are_the_hyperplanes_through_the_point(self):
        rng = random.Random(73)
        for _ in range(25):
            d = rng.randint(1, 3)
            n = rng.randint(1, 5)
            rows, offsets = [], []
            for _ in range(n):
                while True:
                    row = [F(rng.randint(-2, 2)) for _ in range(d)]
                    if any(row):
                        break
                rows.append(row)
                offsets.append(F(rng.randint(-2, 2)))
            arr = normalize(ArrangementSpec(rows, [1] * n, offsets=offsets))
            locs = maximal_central_localizations(arr)
            member_sets = []
            for point, sub in locs:
                point = fraction_point(point)
                through = frozenset(
                    j
                    for j in range(arr.n)
                    if sum(a * x for a, x in zip(arr.normals.row(j), point)) + arr.offsets[j] == 0
                )
                member_sets.append(through)
                expected = sorted(
                    (arr.normals.row(j), arr.multiplicities[j]) for j in through
                )
                got = sorted(
                    (sub.normals.row(k), sub.multiplicities[k]) for k in range(sub.n)
                )
                assert got == expected
            # Maximality: no localization's member set sits inside another's.
            for a in member_sets:
                for b in member_sets:
                    assert a == b or not a < b

    def test_matches_all_subsets_oracle(self):
        # Independent route: `localizations_bruteforce` scans every subset.
        rng = random.Random(77)
        for _ in range(40):
            d = rng.randint(1, 3)
            n = rng.randint(1, 6)
            rows, offsets = [], []
            for _ in range(n):
                while True:
                    row = [F(rng.randint(-2, 2)) for _ in range(d)]
                    if any(row):
                        break
                rows.append(row)
                offsets.append(F(rng.randint(-1, 1), rng.randint(1, 2)))
            arr = normalize(
                ArrangementSpec(rows, [rng.randint(1, 3) for _ in range(n)], offsets=offsets)
            )
            produced = sorted(
                tuple(
                    j
                    for j in range(arr.n)
                    if sum(a * x for a, x in zip(arr.normals.row(j), fraction_point(point))) + arr.offsets[j] == 0
                )
                for point, sub in maximal_central_localizations(arr)
            )
            assert produced == localizations_bruteforce(arr)


def _canonical_point(chain, d):
    """A maximal flat's point as it was read before `lattice._chain_point`:
    the canonical rows with the free coordinates at zero."""
    point = [F(0)] * d
    for row in lattice._canonical_rows(chain):
        pc = next(c for c, x in enumerate(row) if x)
        point[pc] = F(-row[d], row[pc])
    return tuple(point)


def _witness_draw(rng, kind):
    """An affine arrangement for the witness-point corpus, in coordinates
    hidden by a random T in GL(d, Q) every other draw. "rational": up to six
    hyperplanes with rational entries and offsets. "parallel": a few normals,
    each through two or three rational offsets. "lines": at most d - 1
    normals in d = 3 or 4, so that every localization is a flat of positive
    dimension. The other kinds are `_tied_affine_draw`'s."""
    if kind in ("grid", "generic", "through"):
        return _tied_affine_draw(rng, kind)
    d = rng.randint(1, 4) if kind == "rational" else rng.randint(3, 4)
    size = rng.randint(1, {"rational": 6, "parallel": 3, "lines": d - 1}[kind])
    base = []
    while len(base) < size:
        row = [random_rational(rng, span=3, max_den=3) for _ in range(d)]
        if any(row):
            base.append(row)
    if kind == "lines":
        while rref(RationalMatrix(base, cols=d))[1] < len(base):
            base[-1] = [random_rational(rng, span=3, max_den=3) for _ in range(d)]
    copies = 1 if kind == "rational" else rng.randint(1, 3)
    rows = [row for row in base for _ in range(copies)]
    offsets = [random_rational(rng, span=3, max_den=4) for _ in rows]
    normals = RationalMatrix(rows, cols=d)
    if rng.random() < 0.5:
        normals = matmul(normals, random_invertible(rng, d))
    return normalize(ArrangementSpec(normals, [rng.randint(1, 3) for _ in rows], offsets=offsets))


class TestWitnessPoints:
    """`maximal_central_localizations` reads each point off the closure's
    chain by back-substitution (`lattice._chain_point`), with no canonical
    rows."""

    def test_points_from_the_chain(self):
        rng = random.Random(331)
        kinds = ("rational", "parallel", "lines", "grid", "generic", "through")
        count = lines = fractional = 0
        for draw in range(600):
            arr = _witness_draw(rng, kinds[draw % len(kinds)])
            d = arr.dim
            flats = lattice._closure(arr.primitive_rows, d)
            # A flat is inclusion-maximal iff its codim is the rank of the normals.
            r = rref(arr.normals)[1]
            masks = [mask for _, mask in flats]
            for chain, mask in flats:
                assert (len(chain) == r) == (not any(other != mask and other & mask == mask for other in masks))
            chains = sorted(
                (tuple(j for j in range(arr.n) if mask >> j & 1), chain) for chain, mask in flats if len(chain) == r
            )
            if arr.n <= 6:  # the all-subsets oracle on 526 of the 600 draws
                assert [members for members, _ in chains] == localizations_bruteforce(arr)
            locs = maximal_central_localizations(arr)
            assert [fraction_point(point) for point, _ in locs] == [_canonical_point(chain, d) for _, chain in chains]
            for (point, sub), (members, chain) in zip(locs, chains):
                assert lattice._chain_point(chain, d) == point
                assert all(type(x) is int for x in point[0]) and type(point[1]) is int and point[1] > 0
                point = fraction_point(point)
                # On every member hyperplane and on no other, in exact arithmetic.
                through = tuple(
                    j for j in range(arr.n) if sum(a * x for a, x in zip(arr.normals.row(j), point)) + arr.offsets[j] == 0
                )
                assert through == members
                assert sub.normals.entries == tuple(arr.normals.entries[j] for j in members)
                count += 1
                lines += sub.normal_rank < d
                fractional += any(x.denominator > 1 for x in point)
        assert count >= 4000 and lines >= 600 and fractional >= 3000, (count, lines, fractional)


class TestPointsAgainstTheOracle:
    def test_point_is_read_off_the_oracle_rref(self):
        # `Localization.point`, a view of the integers (nums, den), is entry
        # for entry the point of the oracle's own Fraction `rref` of its
        # members' rows (a | b), with the free coordinates at zero. The
        # members are the hyperplanes through the point, and on up to eight
        # hyperplanes they are the all-subsets oracle's localizations.
        rng = random.Random(503)
        kinds = ("rational", "parallel", "lines", "grid", "generic", "through")
        count = checked = deficient = fractional = 0
        for draw in range(200):
            arr = _witness_draw(rng, kinds[draw % len(kinds)])
            d = arr.dim
            report = rlct_affine(arr)
            members = [
                tuple(j for j in range(arr.n) if sum(a * x for a, x in zip(arr.normals.row(j), loc.point)) + arr.offsets[j] == 0)
                for loc in report.localizations
            ]
            if arr.n <= 8:
                assert members == localizations_bruteforce(arr)
                checked += 1
            for loc, through in zip(report.localizations, members):
                assert [arr.multiplicities[j] for j in through] == list(loc.arrangement.multiplicities)
                reduced, rank, pivots = rref(RationalMatrix([arr.normals.row(j) + (arr.offsets[j],) for j in through]))
                expected = [F(0)] * d
                for row, c in zip(reduced, pivots):
                    expected[c] = -row[d]
                assert loc.point == tuple(expected) and all(type(x) is F for x in loc.point)
                count += 1
                fractional += any(x.denominator > 1 for x in loc.point)
            deficient += arr.normal_rank < d
        assert count >= 1200 and checked >= 150 and deficient >= 50 and fractional >= 800, (
            count, checked, deficient, fractional)


class TestAffine:
    def test_central_matches_central_route(self):
        for text in ["x*y", "x*y^2*z^2*(x+y+z)", "x^2*y^3"]:
            arr = arr_of(text)
            report = rlct_affine(arr)
            central = rlct_central(arr)
            assert len(report.localizations) == 1
            assert report.global_pair == central.pair
            assert report.global_result.witness_chain == central.witness_chain

    def test_two_reduced_points_on_line(self):
        report = rlct_affine(arr_of("x*(x-1)"))
        assert report.global_pair == pair(1, 1)
        assert len(report.localizations) == 2
        assert all(loc.pair == pair(1, 1) for loc in report.localizations)

    def test_non_reduced_point_wins(self):
        report = rlct_affine(arr_of("x^2*(x-1)"))
        assert report.global_pair == pair(F(1, 2), 1)
        assert {str(loc.pair) for loc in report.localizations} == {"(1/2, 1)", "(1, 1)"}

    def test_parallel_double_planes(self):
        arr = normalize(
            ArrangementSpec([[0, 0, 1], [0, 0, 1]], [2, 2], offsets=[0, -1])
        )
        report = rlct_affine(arr)
        assert len(report.localizations) == 2
        assert report.global_pair == pair(F(1, 2), 1)

    def test_hand_built_arrangement_is_central_only_by_its_offsets(self):
        # x*(x-1) built from its rows: centrality is read off the offsets, so
        # a value cannot claim to be central while an offset is nonzero.
        arr = normalize(ArrangementSpec([[1], [1]], [1, 1], offsets=[0, -1]))
        assert not arr.is_central
        with pytest.raises(CentralityError):
            rlct_central(arr)
        report = rlct_affine(arr)
        assert report.global_pair == pair(1, 1)
        assert len(report.localizations) == 2

    def test_each_distinct_localization_is_solved_once(self, monkeypatch):
        # A 3-D grid and a slanted plane: 36 points, but 9 distinct local
        # arrangements. The plane x = 1 and the slanted one are double, so the
        # same normals with other multiplicities are another local arrangement
        # (5 distinct normal sets). Only the 2 with dependent normals (the
        # slanted plane through a point of the grid) go to `rlct_central`;
        # the normal-crossing ones are solved once per tied set, with no call.
        k = 3
        rows = [[1, 0, 0]] * k + [[0, 1, 0]] * k + [[0, 0, 1]] * k + [[1, 1, 1]]
        offsets = [-i for _ in range(3) for i in range(k)] + [-(2 * k - 2)]
        mults = [1, 2, 1] + [1] * (2 * k) + [2]
        arr = normalize(ArrangementSpec(rows, mults, offsets=offsets))
        fresh = [
            threshold.Localization(point, rlct_central(sub))
            for point, sub in maximal_central_localizations(arr)
        ]
        best = min(range(len(fresh)), key=lambda i: fresh[i].pair)
        expected = threshold.LocalizationReport(tuple(fresh), best).to_json_dict()
        distinct = {(loc.arrangement.normals, loc.arrangement.multiplicities) for loc in fresh}
        dependent = {(normals, mults) for normals, mults in distinct if rref(normals)[1] < normals.rows}

        calls = []
        central = threshold.rlct_central
        monkeypatch.setattr(threshold, "rlct_central", lambda sub: calls.append(sub) or central(sub))
        report = rlct_affine(arr)
        assert len(calls) == len(dependent) == 2
        assert {(sub.normals, sub.multiplicities) for sub in calls} == dependent
        assert len(distinct) == 9 < len(report.localizations)
        assert report.to_json_dict() == expected


    def test_global_index_is_the_first_most_singular_localization(self):
        # `rlct_affine` compares each distinct result once, in order of first
        # appearance; the global index must still be the first localization
        # whose pair no other localization's pair is below. The draws tie
        # the least pair across distinct results, often away from index 0.
        rng = random.Random(347)
        tied = later = 0
        for draw in range(60):
            arr = _tied_affine_draw(rng, ("grid", "generic", "through")[draw % 3])
            report = rlct_affine(arr)
            pairs = [loc.pair for loc in report.localizations]
            first = next(i for i, p in enumerate(pairs) if not any(pair_less(q, p) for q in pairs))
            assert report.global_index == first
            least = {id(loc.result) for loc in report.localizations if loc.pair == pairs[first]}
            tied += len(least) > 1
            later += len(least) > 1 and first > 0
        assert tied >= 20 and later >= 10, (tied, later)


class TestBoxPair:
    """The pair of a closed box: the most singular local pair on it (`box_pair`)."""

    @staticmethod
    def bounds(box):
        return [(F(lo), F(hi)) for lo, hi in box]

    def test_examples(self):
        assert box_pair(arr_of("x^3*(x-1/10)"), self.bounds([("1/20", "1/5")])) == pair(1, 1)
        assert box_pair(arr_of("x^3*(x-1/10)"), self.bounds([(-1, 1)])) == pair(F(1, 3), 1)
        # Only the non-maximal flat y = 0 meets this box.
        assert box_pair(arr_of("x*y"), self.bounds([(1, 2), (-1, 1)])) == pair(1, 1)
        # x = 1 crosses the box away from its witness point (1, 0).
        assert box_pair(arr_of("vars x, y; x*(x-1)"), self.bounds([("1/2", 2), (5, 6)])) == pair(1, 1)
        with pytest.raises(RlctError, match="no zero"):
            box_pair(arr_of("x*(x-1)"), self.bounds([(2, 3)]))

    def test_the_box_is_checked_first(self):
        # One interval for two coordinates once read a normal entry as the
        # offset and gave (1, 1); three intervals ended in an IndexError.
        arr = arr_of("vars x, y; (x-5)*(y-5)")
        for box in ([(-1, 1)], [(-1, 1)] * 3):
            with pytest.raises(DimensionError):
                box_pair(arr, self.bounds(box))
        # An interval without interior is no box, as for the sampler; it gave (1, 2).
        with pytest.raises(DegenerateBoxError):
            box_pair(arr_of("x*y*(x+y-1)"), self.bounds([(0, 0), (-1, 1)]))

    def test_central_input_meeting_the_box_runs_no_closure(self, monkeypatch):
        # The flat of every hyperplane contains all others, so when it meets
        # the box it is the only flat taken, central input or not.
        monkeypatch.setattr(threshold, "_closure", None)
        assert box_pair(arr_of("x*y^2*z^2*(x+y+z)"), self.bounds([(-1, 1)] * 3)) == pair(F(1, 2), 3)
        # A line of common points that meets the box above the origin.
        arr = arr_of("vars x, y, z; x*y*(x+y)")
        assert box_pair(arr, self.bounds([(-1, 1), (0, 1), (5, 6)])) == pair(F(2, 3), 1)
        # Affine: the three lines meet only at (1, 2), inside the box.
        assert box_pair(arr_of("(x-1)*(y-2)*(x+y-3)"), self.bounds([(0, 2), (1, 3)])) == pair(F(2, 3), 1)

    def test_matches_all_subsets(self):
        # Independent route: each subset of hyperplanes whose common points
        # meet the box (by vertex enumeration) offers its centered pair.
        rng = random.Random(83)
        local = empty = 0
        for _ in range(30):
            d = rng.randint(1, 3)
            n = rng.randint(1, 5)
            rows, offsets = [], []
            for _ in range(n):
                while True:
                    row = [F(rng.randint(-2, 2)) for _ in range(d)]
                    if any(row):
                        break
                rows.append(row)
                offsets.append(F(rng.randint(-2, 2), rng.randint(1, 2)))
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in range(n)], offsets=offsets))
            bounds = []
            for _ in range(d):
                lo = F(rng.randint(-3, 2), rng.randint(1, 2))
                bounds.append((lo, lo + F(rng.randint(1, 3), rng.randint(1, 2))))
            planes = [tuple(arr.normals.row(j)) + (arr.offsets[j],) for j in range(arr.n)]
            candidates = [
                rlct_central(normalize(ArrangementSpec([arr.normals.row(j) for j in subset],
                                                       [arr.multiplicities[j] for j in subset]))).pair
                for size in range(1, arr.n + 1)
                for subset in itertools.combinations(range(arr.n), size)
                if meets_box_bruteforce([planes[j] for j in subset], bounds)
            ]
            if not candidates:
                empty += 1
                with pytest.raises(RlctError):
                    box_pair(arr, bounds)
                continue
            assert box_pair(arr, bounds) == min(candidates)
            local += min(candidates) != rlct_affine(arr).global_pair
        assert empty >= 3 and local >= 3, (empty, local)

    def test_box_around_every_witness_point_gives_the_global_pair(self):
        # Each maximal flat meets a box holding its witness point, so the
        # box's inclusion-maximal flats are the maximal localizations, and
        # two production paths must agree.
        rng = random.Random(89)
        several = flat = 0
        for _ in range(40):
            d, n = rng.randint(1, 4), rng.randint(1, 8)
            rows = []
            while len(rows) < n:
                row = [F(rng.randint(-2, 2)) for _ in range(d)]
                if any(row):
                    rows.append(row)
            offsets = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in range(n)], offsets=offsets))
            points = [fraction_point(point) for point, _ in maximal_central_localizations(arr)]
            bounds = [(min(xs) - F(rng.randint(0, 2), 3), max(xs) + F(rng.randint(0, 2), 3)) for xs in zip(*points)]
            if any(lo == hi for lo, hi in bounds):
                # One witness point and a zero margin: an interval without interior.
                with pytest.raises(DegenerateBoxError):
                    box_pair(arr, bounds)
                flat += 1
            else:
                assert box_pair(arr, bounds) == rlct_affine(arr).global_pair
            several += len(points) > 1
        assert several >= 20, several
        assert flat == 1, flat


def _integer_coordinate_change(data, normals, d):
    """The normals in new coordinates y, with x = T y for a drawn T in
    GL(d, Z): signed permutation columns, then column steps T[:, j] += c T[:, i].
    Hyperplane j becomes (a_j T) . y = 0."""
    perm = data.draw(st.permutations(range(d)), label="permutation")
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d), label="signs")
    t = [[signs[j] * int(perm[j] == i) for j in range(d)] for i in range(d)]
    step = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-2, 2)).filter(lambda s: s[0] != s[1])
    for i, j, c in data.draw(st.lists(step, max_size=6), label="steps"):
        for row in t:
            row[j] += c * row[i]
    return [[sum(a[i] * t[i][k] for i in range(d)) for k in range(d)] for a in normals]


class TestInvariances:
    def test_coordinate_change(self):
        rng = random.Random(74)
        for _ in range(25):
            arr = random_central_arrangement(rng, max_n=6, max_d=4)
            t = random_invertible(rng, arr.dim)
            image = normalize(ArrangementSpec(matmul(arr.normals, t), arr.multiplicities))
            assert rlct_central(image).pair == rlct_central(arr).pair

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_coordinate_change_keeps_the_masks_and_the_pair(self, data):
        # Up to 8 normals in d <= 4 variables, each a combination of fewer base
        # rows than d, so the normals are dependent, taken to new coordinates
        # by T in GL(d, Z). Hyperplane j keeps its index, so the closure's
        # member masks, lambda, m and the minimizer count are the same.
        d = data.draw(st.integers(2, 4), label="d")
        entries = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
        base = data.draw(st.lists(entries, min_size=1, max_size=d - 1), label="base")
        coefs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
        combos = data.draw(st.lists(coefs, min_size=1, max_size=8), label="coefficients")
        normals = [[sum(c * b[k] for c, b in zip(cs, base)) for k in range(d)] for cs in combos]
        normals = [row for row in normals if any(row)]
        assume(normals)
        mults = data.draw(st.lists(st.integers(1, 3), min_size=len(normals), max_size=len(normals)), label="mults")
        image = _integer_coordinate_change(data, normals, d)

        def masks(rows):
            return sorted(mask for _, mask in lattice._closure([primitive_int_row(row) for row in rows], d))

        assert masks(image) == masks(normals)
        before = rlct_central(normalize(ArrangementSpec(normals, mults)))
        after = rlct_central(normalize(ArrangementSpec(image, mults)))
        assert after.pair == before.pair
        assert len(after.minimizer_flats) == len(before.minimizer_flats)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_direct_sum_hidden_by_an_integer_change_reads_its_blocks(self, data):
        # `TestDirectSumIdentity`'s identity on drawn blocks: 2 or 3 central
        # blocks of at most 5 normals in at most 3 variables each, put in
        # disjoint variables and hidden by T in GL(d, Z). lambda is the least
        # block lambda, m the sum of the m of the blocks that attain it, and
        # the minimizer count prod(k_i + 1) - 1 over those blocks.
        blocks = []
        for index in range(data.draw(st.integers(2, 3), label="blocks")):
            width = data.draw(st.integers(1, 3), label=f"d{index}")
            entries = st.lists(st.integers(-3, 3), min_size=width, max_size=width).filter(any)
            rows = data.draw(st.lists(entries, min_size=1, max_size=5), label=f"normals{index}")
            mults = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)), label=f"mults{index}")
            blocks.append((rows, mults))
        normals, mults, d = _direct_sum(blocks)
        image = _integer_coordinate_change(data, normals, d)
        results = [rlct_central(normalize(ArrangementSpec(rows, block_mults))) for rows, block_mults in blocks]
        least = min(r.pair.threshold for r in results)
        attaining = [r for r in results if r.pair.threshold == least]
        arr = normalize(ArrangementSpec(image, mults))
        result = rlct_central(arr)
        # Steer the draws toward sums with a long chain that the closure solves.
        target(result.pair.multiplicity * (rref(arr.normals)[1] < arr.n))
        assert result.pair == pair(least, sum(r.pair.multiplicity for r in attaining))
        assert len(result.minimizer_flats) == math.prod(len(r.minimizer_flats) + 1 for r in attaining) - 1

    def test_affine_coordinate_change(self):
        # x = T y + c sends a.x + b = 0 to (a T).y + (a.c + b) = 0.
        rng = random.Random(79)
        several = 0
        for _ in range(60):
            d = rng.randint(1, 3)
            n = rng.randint(1, 6)
            rows = []
            while len(rows) < n:
                row = [F(rng.randint(-2, 2)) for _ in range(d)]
                if any(row):
                    rows.append(row)
            offsets = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
            arr = normalize(
                ArrangementSpec(rows, [rng.randint(1, 3) for _ in range(n)], offsets=offsets)
            )
            t = random_invertible(rng, d)
            c = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            shifted = [
                b + sum(a * x for a, x in zip(arr.normals.row(j), c)) for j, b in enumerate(arr.offsets)
            ]
            image = normalize(ArrangementSpec(matmul(arr.normals, t), arr.multiplicities, offsets=shifted))
            before, after = rlct_affine(arr), rlct_affine(image)
            assert after.global_pair == before.global_pair
            assert sorted(loc.pair for loc in after.localizations) == sorted(
                loc.pair for loc in before.localizations
            )
            several += len(before.localizations) > 1
        assert several >= 30

    def test_translation(self):
        # Moving every hyperplane by t sends a.x + b = 0 to a.x + (b - a.t) = 0.
        # The localizations keep their number and order, their results, their
        # local arrangements and the global index. With normals of rank d each
        # point moves by exactly t; otherwise the new point is the new flat's
        # point with free coordinates zero, which lies on exactly the
        # hyperplanes through the old point plus t.
        def through(arr, point):
            return [j for j in range(arr.n) if sum(a * x for a, x in zip(arr.normals.row(j), point)) + arr.offsets[j] == 0]

        rng = random.Random(22)
        moved_by_t = on_a_line = several = 0
        for _ in range(250):
            d, n = rng.randint(1, 4), rng.randint(1, 8)
            rows = []
            while len(rows) < n:
                row = [F(rng.randint(-2, 2)) for _ in range(d)]
                if any(row):
                    rows.append(row)
            offsets = [random_rational(rng, span=2, max_den=2) for _ in rows]
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in rows], offsets=offsets))
            t = [random_rational(rng) for _ in range(d)]
            offsets = [b - sum(a * x for a, x in zip(arr.normals.row(j), t)) for j, b in enumerate(arr.offsets)]
            moved = normalize(ArrangementSpec(arr.normals, arr.multiplicities, offsets=offsets))
            assert (moved.normals, moved.multiplicities) == (arr.normals, arr.multiplicities)
            before, after = rlct_affine(arr), rlct_affine(moved)
            assert len(after.localizations) == len(before.localizations)
            assert after.global_index == before.global_index
            full_rank = rref(arr.normals)[1] == d
            for old, new in zip(before.localizations, after.localizations):
                assert new.result.to_json_dict() == old.result.to_json_dict()
                assert new.arrangement == old.arrangement
                shifted = tuple(x + s for x, s in zip(old.point, t))
                if full_rank:
                    assert new.point == shifted
                else:
                    assert through(moved, new.point) == through(moved, shifted) == through(arr, old.point)
            moved_by_t += full_rank
            on_a_line += not full_rank
            several += len(before.localizations) > 1
        assert moved_by_t >= 100 and on_a_line >= 50 and several >= 100, (moved_by_t, on_a_line, several)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_translating_raw_input_moves_every_point_by_t(self, data):
        # Item 22's translation identity on raw input, before `normalize`:
        # each row (a | b) at its own rational scale, some rows repeated at
        # another scale. With normals of rank d, moving every hyperplane by
        # t (b' = b - a.t) moves each localization point by exactly t and
        # keeps its local pair, and the global pair stays. The rows and so
        # the localizations may come out in another order, so the
        # (point - t, pair) are compared as multisets.
        d = data.draw(st.integers(1, 3), label="d")
        entries = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
        base = data.draw(st.lists(entries, min_size=d, max_size=6), label="normals")
        assume(rref(RationalMatrix(base))[1] == d)
        rational = st.fractions(-3, 3, max_denominator=3)
        scale = rational.filter(bool)
        offsets = data.draw(st.lists(rational, min_size=len(base), max_size=len(base)), label="offsets")
        repeats = data.draw(st.lists(st.integers(0, len(base) - 1), max_size=3), label="repeats")
        rows = [(a, b) for a, b in zip(base, offsets)] + [(base[j], offsets[j]) for j in repeats]
        scales = data.draw(st.lists(scale, min_size=len(rows), max_size=len(rows)), label="scales")
        rows = [([c * x for x in a], c * b) for (a, b), c in zip(rows, scales)]
        mults = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)), label="mults")
        t = data.draw(st.lists(st.fractions(-4, 4, max_denominator=4), min_size=d, max_size=d), label="t")
        moved = [(a, b - sum(x * y for x, y in zip(a, t))) for a, b in rows]

        def report(rows):
            return rlct_affine(normalize(ArrangementSpec([a for a, _ in rows], mults, offsets=[b for _, b in rows])))

        before, after = report(rows), report(moved)
        assert after.global_pair == before.global_pair
        expected = Counter((loc.point, loc.pair.astuple()) for loc in before.localizations)
        back = Counter(
            (tuple(x - y for x, y in zip(loc.point, t)), loc.pair.astuple()) for loc in after.localizations
        )
        assert back == expected

    def test_multiplicity_scaling(self):
        rng = random.Random(75)
        for _ in range(25):
            arr = random_central_arrangement(rng, max_n=6, max_d=4)
            k = rng.randint(2, 4)
            scaled = normalize(
                ArrangementSpec(arr.normals, tuple(k * s for s in arr.multiplicities))
            )
            base = rlct_central(arr).pair
            image = rlct_central(scaled).pair
            assert image.threshold == base.threshold / k
            assert image.multiplicity == base.multiplicity

    def test_adding_hyperplane_never_raises_threshold(self):
        rng = random.Random(76)
        for _ in range(25):
            arr = random_central_arrangement(rng, max_n=5, max_d=4)
            before = rlct_central(arr).pair.threshold
            while True:
                extra = [F(rng.randint(-3, 3)) for _ in range(arr.dim)]
                if any(extra):
                    break
            bigger = normalize(
                ArrangementSpec(
                    list(arr.normals.entries) + [extra],
                    list(arr.multiplicities) + [rng.randint(1, 3)],
                )
            )
            assert rlct_central(bigger).pair.threshold <= before

    def test_exact_recompute_bit_identical(self):
        arr = arr_of("x*y^2*z^2*(x+y+z)")
        first = rlct_central(arr)
        second = rlct_central(arr)
        assert first.pair.threshold == second.pair.threshold
        assert first.to_json_dict() == second.to_json_dict()


def _distinct(count, draw, rows=()):
    """`rows` extended by calls of `draw` until `count` rows lie on distinct lines."""
    rows = list(rows)
    seen = {primitive_int_row(row) for row in rows}
    while len(rows) < count:
        row = draw()
        if any(row) and primitive_int_row(row) not in seen:
            seen.add(primitive_int_row(row))
            rows.append(row)
    return rows


def _past_the_oracle_cap(rng, kind):
    """A seeded arrangement of more hyperplanes than the oracle takes, 21-28,
    multiplicities 1-4. "small": entries in [-2, 2] in 3 variables or in
    [-1, 1] in 4; the origin is then mostly the one minimizer. "pencil": in
    3 variables, 10 rows through one line, their weights tripled, so the
    line and the origin compete. "twin": 11-14 weighted lines of the plane,
    placed twice in disjoint variables, so that m >= 2. "affine": lines of
    the plane, entries and offsets in [-2, 2]."""
    n = rng.randint(MAX_BRUTEFORCE_HYPERPLANES + 1, MAX_BRUTEFORCE_HYPERPLANES + 6)
    if kind == "twin":
        block = _distinct(n // 2 + 1, lambda: [rng.randint(-3, 3), rng.randint(-3, 3)])
        weights = [rng.randint(1, 4) for _ in block]
        return normalize(ArrangementSpec([r + [0, 0] for r in block] + [[0, 0] + r for r in block], weights * 2))
    if kind == "affine":
        normals = [[a, b] for a in range(-2, 3) for b in range(-2, 3) if a or b]
        rows = _distinct(n, lambda: rng.choice(normals) + [rng.randint(-2, 2)])
        weights = [rng.randint(1, 4) for _ in rows]
        return normalize(ArrangementSpec([r[:2] for r in rows], weights, offsets=[r[2] for r in rows]))
    d, span = rng.choice([(3, 2), (4, 1)]) if kind == "small" else (3, 2)
    rows = []
    if kind == "pencil":
        b1, b2 = [1, 0, rng.randint(-2, 2)], [0, 1, rng.randint(-2, 2)]
        rows = _distinct(10, lambda: [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(b1, b2)])
    weights = [3 * rng.randint(1, 4) for _ in rows]
    rows = _distinct(n, lambda: [rng.randint(-span, span) for _ in range(d)], rows)
    weights += [rng.randint(1, 4) for _ in rows[len(weights):]]
    return normalize(ArrangementSpec(rows, weights))

def _without(arr, j):
    """`arr` with hyperplane j deleted."""
    keep = [k for k in range(arr.n) if k != j]
    return normalize(ArrangementSpec([arr.normals.row(k) for k in keep], [arr.multiplicities[k] for k in keep],
                                     offsets=[arr.offsets[k] for k in keep]))


class TestRelationsPastTheOracleCap:
    """Relations between exact answers that need no oracle, on draws the
    all-subsets oracle refuses (more than 20 hyperplanes)."""

    def test_deleting_a_hyperplane_never_lowers_lambda(self):
        rng = random.Random(211)
        for kind in ["small", "pencil", "twin"] * 3:
            arr = _past_the_oracle_cap(rng, kind)
            weights = {flat.rows: flat.weight for flat in build_lattice(arr).flats}
            lam = rlct_central(arr).pair.threshold
            for j in rng.sample(range(arr.n), 3):
                smaller = _without(arr, j)
                for flat in build_lattice(smaller).flats:
                    # The key is the canonical rows, so the codim is the same.
                    assert weights[flat.rows] >= flat.weight
                assert rlct_central(smaller).pair.threshold >= lam

    def test_deleting_a_hyperplane_never_lowers_the_global_lambda(self):
        rng = random.Random(212)
        for _ in range(4):
            arr = _past_the_oracle_cap(rng, "affine")
            lam = rlct_affine(arr).global_pair.threshold
            for j in rng.sample(range(arr.n), 2):
                assert rlct_affine(_without(arr, j)).global_pair.threshold >= lam

    def test_scaling_multiplicities_keeps_m_and_the_minimizers(self):
        rng = random.Random(213)
        for kind in ["small", "pencil", "twin"] * 3:
            arr = _past_the_oracle_cap(rng, kind)
            t = rng.randint(2, 5)
            base = rlct_central(arr)
            scaled = rlct_central(normalize(ArrangementSpec(arr.normals, [t * s for s in arr.multiplicities])))
            assert scaled.pair == pair(base.pair.threshold / t, base.pair.multiplicity)
            assert [f.members for f in scaled.minimizer_flats] == [f.members for f in base.minimizer_flats]
