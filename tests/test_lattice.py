"""Intersection lattice construction and the containment structure."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlct import (
    ArrangementSpec,
    CentralityError,
    NormalizedArrangement,
    RationalMatrix,
    build_lattice,
    localizations_bruteforce,
    normalize,
    parse_factored_product,
    rlct_central,
    row_space_canonical,
    rref,
    subspace_leq,
)
from rlct import lattice
from rlct.lattice import _canonical_rows, _closure
from rlct.oracle import _closed_sets
from rlct.ratlinalg import eliminate, primitive_int_row
from rlct.threshold import maximal_central_localizations

from conftest import matmul, random_central_arrangement, random_invertible, random_rational

F = Fraction


def arrangement(rows, mults):
    return normalize(ArrangementSpec(rows, mults))


class TestBuildLattice:
    def test_coordinate_cross(self):
        lat = build_lattice(arrangement([[1, 0], [0, 1]], [1, 1]))
        assert len(lat.flats) == 3
        assert [f.codim for f in lat.flats] == [1, 1, 2]
        assert [f.weight for f in lat.flats] == [1, 1, 2]
        origin = lat.flats[2]
        assert origin.members == frozenset({0, 1})

    def test_single_hyperplane(self):
        lat = build_lattice(arrangement([[1, 2, 3]], [5]))
        assert len(lat.flats) == 1
        assert lat.flats[0].codim == 1
        assert lat.flats[0].weight == 5

    def test_four_planes(self):
        # x y^2 z^2 (x+y+z): 4 planes, 6 lines, the origin.
        lat = build_lattice(
            arrangement([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 2, 2, 1])
        )
        by_codim = {}
        for flat in lat.flats:
            by_codim.setdefault(flat.codim, []).append(flat)
        assert [len(by_codim[c]) for c in (1, 2, 3)] == [4, 6, 1]
        line_ratios = sorted({F(f.codim, f.weight) for f in by_codim[2]})
        assert line_ratios == [F(1, 2), F(2, 3), F(1)]
        assert by_codim[3][0].weight == 6

    def test_every_hyperplane_is_a_codim1_flat(self):
        rng = random.Random(31)
        for _ in range(20):
            arr = random_central_arrangement(rng, max_n=6, max_d=4)
            lat = build_lattice(arr)
            codim1 = [f for f in lat.flats if f.codim == 1]
            assert len(codim1) == arr.n
            for j in range(arr.n):
                assert any(f.members == frozenset({j}) for f in codim1)

    def test_weight_bounds(self):
        rng = random.Random(32)
        for _ in range(25):
            arr = random_central_arrangement(rng, max_n=7, max_d=4)
            total = sum(arr.multiplicities)
            lat = build_lattice(arr)
            for flat in lat.flats:
                low = max(arr.multiplicities[j] for j in flat.members)
                assert low <= flat.weight <= total

    def test_generic_count_bound_and_generic_equality(self):
        rng = random.Random(33)
        for _ in range(15):
            arr = random_central_arrangement(rng, max_n=7, max_d=4, span=30)
            n, d = arr.n, arr.dim
            bound = sum(comb(n, c) for c in range(1, min(n, d) + 1))
            lat = build_lattice(arr)
            assert len(lat.flats) <= bound
        # A pinned wide-entry draw is generic: all small subsets independent.
        rng = random.Random(2)
        rows = [[F(rng.randint(-99, 99)) for _ in range(4)] for _ in range(7)]
        arr = arrangement(rows, [1] * 7)
        expected = sum(comb(7, c) for c in range(1, 4)) + 1
        assert len(build_lattice(arr).flats) == expected

    def test_invariance_under_linear_substitution(self):
        rng = random.Random(34)
        for _ in range(15):
            arr = random_central_arrangement(rng, max_n=6, max_d=4)
            t = random_invertible(rng, arr.dim)
            image = normalize(
                ArrangementSpec(matmul(arr.normals, t), arr.multiplicities)
            )
            lat, lat_image = build_lattice(arr), build_lattice(image)
            assert len(lat.flats) == len(lat_image.flats)
            assert sorted(f.codim for f in lat.flats) == sorted(f.codim for f in lat_image.flats)
            assert sorted(f.weight for f in lat.flats) == sorted(f.weight for f in lat_image.flats)

    def test_flat_normal_spaces_are_canonical(self):
        rng = random.Random(37)
        for _ in range(10):
            arr = random_central_arrangement(rng, max_n=6, max_d=4)
            for flat in build_lattice(arr).flats:
                assert flat.rows == tuple(
                    primitive_int_row(r) for r in row_space_canonical(RationalMatrix(flat.rows))
                )

    def test_normal_space_strings_are_the_rational_rref(self):
        # The JSON strings are formed from the integer rows without Fractions;
        # they must be the canonical rational RREF, entry for entry. Large
        # spans give pivots with many divisors, so unreduced or mis-signed
        # entries show up.
        rng = random.Random(39)
        draws = [random_central_arrangement(rng, max_n=6, max_d=4) for _ in range(10)]
        draws += [random_central_arrangement(rng, max_n=6, max_d=4, span=1000) for _ in range(20)]
        draws += [random_central_arrangement(rng, max_n=6, max_d=4, span=60, max_den=12) for _ in range(10)]
        checked = 0
        for arr in draws:
            for flat in build_lattice(arr).flats:
                expected = row_space_canonical(RationalMatrix(flat.rows)).to_string_lists()
                assert flat.to_json_dict()["normal_space"] == expected
                checked += any("/" in x for row in expected for x in row)
        assert checked >= 100

    def test_repeat_build_is_identical(self):
        rng = random.Random(38)
        arr = random_central_arrangement(rng, max_n=8, max_d=4)
        first = [f.to_json_dict() for f in build_lattice(arr).flats]
        second = [f.to_json_dict() for f in build_lattice(arr).flats]
        assert first == second

    def test_each_doc_gets_fresh_lists(self):
        # Every `to_json_dict` call builds new lists from the flats' integer
        # rows, so a caller that edits one document cannot change the next.
        result = rlct_central(normalize(parse_factored_product("vars x, y, z; (2*x - 3*y)*(4*x + 6*y + 5*z)")))
        first, second = result.to_json_dict(), result.to_json_dict()
        expected = [["1", "-3/2", "0"]]
        assert first["minimizer_flats"][0]["normal_space"] == expected
        first["minimizer_flats"][0]["normal_space"][0][1] = "edited"
        first["minimizer_flats"][0]["normal_space"].append(["0", "0", "1"])
        assert second["minimizer_flats"][0]["normal_space"] == expected
        assert result.to_json_dict() == second

    def test_degenerate_entries_match_bruteforce(self):
        # Entries in {-1, 0, 1} maximize flat coincidences and stress dedup.
        from rlct import lattice_bruteforce

        rng = random.Random(556)
        for _ in range(60):
            d = rng.randint(1, 4)
            n = rng.randint(1, 8)
            rows = []
            for _ in range(n):
                while True:
                    row = [F(rng.choice([-1, 0, 0, 1])) for _ in range(d)]
                    if any(row):
                        break
                rows.append(row)
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 4) for _ in range(n)]))
            produced = [f.to_json_dict() for f in build_lattice(arr).flats]
            reference = [f.to_json_dict() for f in lattice_bruteforce(arr).flats]
            assert produced == reference

    def test_big_coefficients_match_bruteforce(self):
        from rlct import lattice_bruteforce

        rng = random.Random(778)
        for _ in range(8):
            d, n = 3, rng.randint(2, 6)
            rows = [
                [F(rng.randint(-(10**9), 10**9), rng.randint(1, 10**6)) for _ in range(d)]
                for _ in range(n)
            ]
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 4) for _ in range(n)]))
            produced = [f.to_json_dict() for f in build_lattice(arr).flats]
            reference = [f.to_json_dict() for f in lattice_bruteforce(arr).flats]
            assert produced == reference

    def test_big_integer_entries_match_bruteforce_at_larger_sizes(self):
        # 12-digit entries in 4-6 variables. Some rows are multiples of an
        # earlier row (normalize merges them) and some are small combinations
        # of two earlier rows, so the closure's residues carry large entries
        # through many steps and merge into flats with more members than codim.
        from rlct import lattice_bruteforce

        rng = random.Random(779)
        big = 10**12
        merged = crowded = 0
        for _ in range(8):
            d, n = rng.randint(4, 6), rng.randint(7, 9)
            rows = [[rng.randint(-big, big) for _ in range(d)] for _ in range(2)]
            while len(rows) < n:
                kind = rng.random()
                if kind < 0.2:
                    row = [rng.choice([-3, 2, 7]) * x for x in rng.choice(rows)]
                elif kind < 0.6:
                    a, b = rng.sample(rows, 2)
                    s, t = rng.choice([-2, -1, 1, 3]), rng.choice([-1, 1, 2])
                    row = [s * x + t * y for x, y in zip(a, b)]
                else:
                    row = [rng.randint(-big, big) for _ in range(d)]
                if any(row):
                    rows.append(row)
            arr = normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in range(n)]))
            merged += arr.n < n
            flats = build_lattice(arr).flats
            crowded += sum(bin(f.mask).count("1") > f.codim for f in flats)
            assert [f.to_json_dict() for f in flats] == [f.to_json_dict() for f in lattice_bruteforce(arr).flats]
        assert merged and crowded

    def test_rejects_affine(self):
        arr = normalize(ArrangementSpec([[1, 0]], [1], offsets=[1]))
        with pytest.raises(CentralityError):
            build_lattice(arr)


class TestMemberMasks:
    def test_masks_nest_iff_flats_nest(self):
        rng = random.Random(35)
        for _ in range(12):
            arr = random_central_arrangement(rng, max_n=6, max_d=4)
            flats = build_lattice(arr).flats
            spaces = [RationalMatrix(flat.rows) for flat in flats]
            for i, low in enumerate(spaces):
                for j, high in enumerate(spaces):
                    if i == j:
                        continue
                    # Flat i lies strictly inside flat j iff j's members are a proper subset of i's.
                    mi, mj = flats[i].mask, flats[j].mask
                    expected = subspace_leq(low, high) and not subspace_leq(high, low)
                    assert (mi != mj and mi & mj == mj) == expected


def _low_rank_or_parallel(rng, affine):
    """Rows drawn as multiples of a few base normals, so rank < d is common."""
    d = rng.randint(1, 4)
    bases = [[rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 2)]
             for _ in range(rng.randint(1, d))]
    n = rng.randint(1, 7)
    rows = [[rng.choice([1, -1, 2]) * x for x in rng.choice(bases)] for _ in range(n)]
    offsets = [F(rng.randint(-2, 2)) for _ in range(n)] if affine else None
    return normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in range(n)], offsets=offsets))


def _engine_corpus():
    rng = random.Random(41)
    corpus = [
        normalize(parse_factored_product(text))
        for text in ("vars x, y, z; x*(x-1)*y", "x*(x-1)", "vars x, y, z; z^2*(z-1)^2", "x*y*(x+y-1)")
    ]
    for _ in range(30):
        corpus.append(random_central_arrangement(rng, max_n=6, max_d=4))
        corpus.append(_low_rank_or_parallel(rng, affine=False))
        corpus.append(_low_rank_or_parallel(rng, affine=True))
    return corpus


def _builders(flats):
    """The flats whose chain is a proper prefix of another flat's chain: the
    flats that built a new flat."""
    parents = {chain[:-1] for chain, _ in flats}
    return [chain for chain, _ in flats if chain in parents]


def _rule_draws():
    """Seeded (kind, arrangement) pairs with 7-10 hyperplanes in 3-5
    variables: generic and rank-deficient central draws, parallel classes
    with offsets, translated central draws, and generic affine draws, which
    have no common point."""
    rng = random.Random(341)
    kinds = ("generic", "rank-deficient", "parallel", "translated", "no-point")
    for t in range(10):
        kind = kinds[t % len(kinds)]
        d, n = rng.randint(3, 5), rng.randint(7, 10)
        if kind == "rank-deficient":
            base = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(2, d - 1))]
            rows = [[sum(rng.randint(-2, 2) * b[c] for b in base) for c in range(d)] for _ in range(n)]
        elif kind == "parallel":
            base = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(d - 1, d + 1))]
            rows = [[rng.choice([1, -1, 2]) * x for x in rng.choice(base)] for _ in range(n)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
        rows = [row for row in rows if any(row)]
        offsets = None
        if kind == "translated":
            point = [random_rational(rng) for _ in range(d)]
            offsets = [-sum(a * x for a, x in zip(row, point)) for row in rows]
        elif kind in ("parallel", "no-point"):
            offsets = [rng.randint(-3, 3) for _ in rows]
        yield kind, normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in rows], offsets=offsets))


def _raw_step(row, pivot_row, pc):
    """p·row − c·pivot_row as written, p and c the entries at column pc."""
    p, c = pivot_row[pc], row[pc]
    return [p * a - c * b for a, b in zip(row, pivot_row)]


def _reference_step(row, pivot_row, pc):
    """The raw step divided by its gcd, lead made positive; a row already
    zero at pc is returned as it is."""
    if not row[pc]:
        return row
    raw = _raw_step(row, pivot_row, pc)
    g = gcd(*raw)
    if next(x for x in raw if x) < 0:
        g = -g
    return tuple(x // g for x in raw)


def _step_cases():
    """Seeded (groups, residue, pivot column) as the closure hands them to
    `eliminate`: distinct primitive rows with positive leads, the residue among
    them, entries up to 10^15. The residue's pivot carries small factors that
    the outside rows share there. Some outside rows lead before the pivot,
    some at it (their step can lead negative), some are zero there, and some
    are another row plus a multiple of the residue, so the two must merge."""
    rng = random.Random(227)
    big = 10**15
    for _ in range(80):
        width = rng.randint(3, 7)
        pc = rng.randrange(width - 1)
        factor = rng.choice([2, 6, 30, 77, 2**20])
        residue = primitive_int_row(
            [0] * pc + [factor * rng.randint(1, big // factor)] + [rng.randint(-big, big) for _ in range(width - pc - 1)]
        )
        rows = [residue]
        for _ in range(rng.randint(2, 8)):
            lead = rng.randint(0, pc)
            row = [0] * lead + [rng.randint(-big, big) for _ in range(width - lead)]
            row[lead] = rng.randint(1, big)
            kind = rng.random()
            if kind < 0.2:
                row[pc] = 0
            elif kind < 0.6:
                row[pc] = rng.choice([2, 3, 5, 7, 11, 2**10]) * rng.randint(-(10**6), 10**6) or 1
            if rng.random() < 0.4:
                t = rng.randint(-3, 3) or 1
                rows.append(primitive_int_row([a + t * b for a, b in zip(row, residue)]))
            rows.append(primitive_int_row(row))
        rows = [row for row in dict.fromkeys(rows) if any(row)]
        # Some masks have two bits, as a merged start group does.
        groups = {row: 1 << j | (j % 3 == 1) << (j + 20) for j, row in enumerate(rng.sample(rows, len(rows)))}
        yield groups, residue, pc


def _reference_groups(groups, pivot_row, pc):
    """`_reference_step` on every row but the pivot row, equal results OR-ed."""
    out = {}
    for other, group in groups.items():
        if other != pivot_row:
            step = _reference_step(other, pivot_row, pc)
            out[step] = out.get(step, 0) | group
    return out


class TestEliminationStep:
    """`eliminate`, the package's one elimination step, against a plain one."""

    def test_eliminate_matches_reference_step(self):
        shared = negative = merged = 0
        for groups, residue, pc in _step_cases():
            out = eliminate(groups, residue)
            assert list(out.items()) == list(_reference_groups(groups, residue, pc).items())
            for other in groups:
                if other != residue and other[pc]:
                    shared += gcd(residue[pc], other[pc]) > 1
                    negative += next(filter(None, _raw_step(other, residue, pc))) < 0
            merged += len(out) < len(groups) - 1
            # A pivot row with a negative lead, not itself among the rows.
            outside = {other: group for other, group in groups.items() if other != residue}
            negated = tuple(-x for x in residue)
            assert list(eliminate(outside, negated).items()) == list(_reference_groups(outside, negated, pc).items())
        assert shared > 100 and negative > 100 and merged > 20


class TestClosureEngine:
    """The shared closure: the central rows are the normals, the affine rows (a | b)."""

    @staticmethod
    def _maximal_at_codim_r(flats, rows, d):
        """The masks of the flats at codim r, r the rank of the rows' normal
        parts, after checking that a flat has codim r iff its mask is
        inclusion-maximal among the closure's."""
        r = rref(RationalMatrix([row[:d] for row in rows]))[1]
        masks = [mask for _, mask in flats]
        assert len(set(masks)) == len(masks)
        for chain, mask in flats:
            strictly_inside = any(other != mask and other & mask == mask for other in masks)
            assert (len(chain) == r) == (not strictly_inside)
        return [mask for chain, mask in flats if len(chain) == r]

    @staticmethod
    def _as_member_sets(masks, n):
        return sorted(tuple(j for j in range(n) if mask >> j & 1) for mask in masks)

    def test_codim_r_is_inclusion_maximality(self):
        # A flat with a common point is inclusion-maximal iff its codim is the
        # rank of all the normals, and those flats are the all-subsets
        # localizations: one, all rows, on central input.
        for arr in _engine_corpus():
            augmented = [
                primitive_int_row(tuple(arr.normals.row(j)) + (arr.offsets[j],))
                for j in range(arr.n)
            ]
            row_sets = [augmented]
            if arr.is_central:
                row_sets.append([primitive_int_row(arr.normals.row(j)) for j in range(arr.n)])
            for rows in row_sets:
                maximal = self._maximal_at_codim_r(_closure(rows, arr.dim), rows, arr.dim)
                assert self._as_member_sets(maximal, arr.n) == localizations_bruteforce(arr)

    def test_central_input_has_one_maximal_flat_at_top_rank(self):
        low_rank_seen = False
        for arr in _engine_corpus():
            if not arr.is_central:
                continue
            top = rref(arr.normals)[1]
            low_rank_seen |= top < arr.dim
            rows = [primitive_int_row(arr.normals.row(j)) for j in range(arr.n)]
            flats = _closure(rows, arr.dim)
            maximal = self._maximal_at_codim_r(flats, rows, arr.dim)
            assert len(maximal) == 1
            ((chain, mask),) = [(chain, mask) for chain, mask in flats if mask in maximal]
            assert len(chain) == top
            assert mask == (1 << arr.n) - 1
        assert low_rank_seen

    def test_each_flat_is_built_once(self, monkeypatch):
        # A flat's residues are one `eliminate` call on its parent's groups
        # (at codim r - 2 only those whose child is not built yet, rule (c))
        # and the residue it joined by, made only when the flat can build a
        # new one. No flat makes that call twice, every flat that builds a new
        # flat (a proper prefix of another flat's chain) makes it, and on a
        # generic draw no other flat does.
        calls = []
        step = lattice.eliminate

        def counted(groups, residue):
            calls.append((tuple(groups.items()), residue))
            return step(groups, residue)

        monkeypatch.setattr(lattice, "eliminate", counted)
        braid = arrangement(
            [[int(c == i) - int(c == j) for c in range(7)] for i in range(7) for j in range(i + 1, 7)], [1] * 21
        )
        for arr in _engine_corpus() + [braid]:
            row_sets = [[primitive_int_row(tuple(arr.normals.row(j)) + (arr.offsets[j],)) for j in range(arr.n)]]
            if arr.is_central:
                row_sets.append([primitive_int_row(arr.normals.row(j)) for j in range(arr.n)])
            for rows in row_sets:
                calls.clear()
                flats = _closure(rows, arr.dim)
                assert len(set(calls)) == len(calls) <= len(flats)
                assert len(calls) >= len(_builders(flats))
        assert len(flats) == 876
        # A generic draw: every subset of at most d - 1 normals is a flat, and
        # so is the origin. 385 flats of codim 1-4 build another, and one flat
        # of codim 5 builds the origin.
        rng = random.Random(7)
        rows = [primitive_int_row([rng.randint(-99, 99) for _ in range(6)]) for _ in range(11)]
        calls.clear()
        flats = _closure(rows, 6)
        assert len(flats) == sum(comb(11, c) for c in range(1, 6)) + 1 == 1024
        assert len(calls) == len(set(calls)) == len(_builders(flats)) == 386

    def test_codim_r_minus_1_level_shares_one_answer(self, monkeypatch):
        # Rule (b): every flat of codim r - 1 (r the rank of the rows) has one
        # residue, the same line for all. A translated central arrangement
        # and a rank-deficient affine one reach the flat of all rows through
        # it, so no flat of the level is maximal; generic affine draws with
        # n > d + 1 end there at an offset lead, and every flat of the level
        # is. Only the level's first flat computes its residues, so on a
        # generic draw the calls are the flats that build a new flat, and one.
        calls = []
        step = lattice.eliminate
        monkeypatch.setattr(lattice, "eliminate", lambda groups, residue: calls.append(1) or step(groups, residue))
        rng = random.Random(44)
        texts = ("(x-1)*(y-2)*(x+y-3)", "vars x, y, z; (x-1)*(y-1)*(x+y-2)*(x-y)")
        single = [normalize(parse_factored_product(text)) for text in texts]
        generic = []
        for _ in range(8):
            d = rng.randint(2, 4)
            point = [rng.randint(-3, 3) for _ in range(d)]
            base = [[rng.randint(-3, 3) for _ in range(d - 1)] + [1] for _ in range(rng.randint(1, d))]
            coefs = [[rng.randint(-2, 2) for _ in base] for _ in range(d + 3)]
            normals = [[sum(k * b[c] for k, b in zip(coef, base)) for c in range(d)] for coef in coefs]
            normals = [row for row in normals if any(row)]
            offsets = [-sum(a * x for a, x in zip(row, point)) for row in normals]
            mults = [rng.randint(1, 3) for _ in normals]
            single.append(normalize(ArrangementSpec(normals, mults, offsets=offsets)))
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(rng.randint(d + 2, d + 4))]
            offsets = [rng.randint(-9, 9) for _ in rows]
            generic.append(normalize(ArrangementSpec(rows, [1] * len(rows), offsets=offsets)))
        generic_seen = 0
        for arr in single + generic:
            produced = sorted(
                tuple(j for j, (a, b) in enumerate(zip(arr.normals, arr.offsets))
                      if sum(x * y for x, y in zip(a, nums)) + b * den == 0)
                for (nums, den), _ in maximal_central_localizations(arr)
            )
            assert produced == localizations_bruteforce(arr)
            if arr in single:
                assert produced == [tuple(range(arr.n))]
            augmented = [primitive_int_row(a + (b,)) for a, b in zip(arr.normals, arr.offsets)]
            calls.clear()
            flats = _closure(augmented, arr.dim)
            maximal = self._maximal_at_codim_r(flats, augmented, arr.dim)
            assert self._as_member_sets(maximal, arr.n) == produced
            top = rref(RationalMatrix(augmented))[1]
            no_point = rref(arr.normals)[1] < top
            if top > 1:  # at rank 1 the level is the ambient space alone
                assert {mask in maximal for chain, mask in flats if len(chain) == top - 1} == {no_point}
            assert no_point == (arr not in single)
            if no_point and len(flats) == sum(comb(arr.n, c) for c in range(1, arr.dim + 1)):
                assert len(calls) == len(_builders(flats)) + 1
                generic_seen += 1
        assert generic_seen >= 6, generic_seen

    def test_codim_r_minus_2_level_passes_only_unbuilt_groups(self, monkeypatch):
        # Rule (c): a flat of codim r - 2 passes `eliminate` only the parent
        # groups whose child is not built yet. The calls and the flats are
        # those without the rule; the rows passed fall from 3,327 to 2,109 on
        # a generic n = 11, d = 6 draw and from 7,850 to 7,263 on braid A6.
        calls = []
        step = lattice.eliminate

        def counted(groups, residue):
            calls.append((len(groups), residue))
            return step(groups, residue)

        monkeypatch.setattr(lattice, "eliminate", counted)
        braid = [tuple(int(c == i) - int(c == j) for c in range(7)) for i in range(7) for j in range(i + 1, 7)]
        rng = random.Random(7)
        generic = [primitive_int_row([rng.randint(-99, 99) for _ in range(6)]) for _ in range(11)]
        for rows, d, counts in [(braid, 7, (813, 7263, 876)), (generic, 6, (386, 2109, 1024))]:
            calls.clear()
            flats = _closure(rows, d)
            assert (len(calls), sum(size for size, _ in calls), len(flats)) == counts
        # On the generic draw, every group that a codim-4 flat passes builds a
        # codim-5 flat, so those calls pass C(11, 5) = 462 rows, where they
        # passed 1,680 without the rule. The residues a codim-4 flat joined by
        # are no other flat's, so they name those calls.
        last = {chain[-1] for chain, _ in flats if len(chain) == 4}
        assert last.isdisjoint(chain[-1] for chain, _ in flats if len(chain) != 4)
        assert sum(size for size, residue in calls if residue in last) == comb(11, 5) == 462

    def test_rules_match_the_bruteforce_oracle(self, monkeypatch):
        # 7-10 hyperplanes in 3-5 variables, where flats are skipped by rule
        # (a) (every child already built) and by rule (b) (the codim r - 1
        # level shares its first flat's answer), and where rule (c) keeps
        # from `eliminate` the groups of codim r - 2 flats whose child is
        # built (83-1,456 fewer groups passed on each draw kind). On central
        # and translated central draws, the closure of the normals and that
        # of the rows (a | b), with the offset column dropped, give the
        # all-subsets lattice's masks and canonical rows. Every draw's
        # inclusion-maximal masks are its codim-r masks, r the rank of the
        # normals, and the all-subsets localizations; a central draw has one,
        # all rows.
        from rlct import lattice_bruteforce

        calls = []
        step = lattice.eliminate
        monkeypatch.setattr(lattice, "eliminate", lambda groups, residue: calls.append(1) or step(groups, residue))
        skipped = {}
        for kind, arr in _rule_draws():
            n, d = arr.n, arr.dim
            augmented = [primitive_int_row(a + (b,)) for a, b in zip(arr.normals, arr.offsets)]
            row_sets = [augmented, list(arr.primitive_normals)] if arr.is_central else [augmented]
            reference = None
            if kind not in ("parallel", "no-point"):
                centered = NormalizedArrangement(arr.normals, (F(0),) * n, arr.multiplicities)
                reference = {f.mask: tuple(map(primitive_int_row, f.rows)) for f in lattice_bruteforce(centered).flats}
            closures = []
            for rows in row_sets:
                calls.clear()
                flats = _closure(rows, d)
                closures.append(flats)
                top = rref(RationalMatrix(rows))[1]
                rule_b = max(sum(len(chain) == top - 1 for chain, _ in flats) - 1, 0)
                rule_a = len(flats) - len(calls) - rule_b
                assert rule_a >= 0
                tally = skipped.setdefault(kind, [0, 0])
                tally[0] += rule_a
                tally[1] += rule_b
                if reference is not None:
                    assert {mask: tuple(primitive_int_row(r[:d]) for r in _canonical_rows(chain)) for chain, mask in flats} == reference
            maximal = self._as_member_sets(self._maximal_at_codim_r(closures[0], augmented, d), n)
            assert maximal == ([tuple(range(n))] if arr.is_central else localizations_bruteforce(arr))
        assert len(skipped) == 5 and all(a >= 10 and b >= 50 for a, b in skipped.values()), skipped

    @staticmethod
    def _draw_rows(data):
        # Up to six small primitive rows: normals, or (a | b) with the offset last.
        d = data.draw(st.integers(1, 3), label="d")
        affine = data.draw(st.booleans(), label="affine")
        normal = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
        offset = st.lists(st.integers(-1, 1), min_size=int(affine), max_size=int(affine))
        drawn = data.draw(st.lists(st.tuples(normal, offset), min_size=1, max_size=6), label="rows")
        return [primitive_int_row(a + b) for a, b in drawn], d

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_masks_and_rows_match_the_rational_span(self, data):
        # Every subset of rows with a common point closes to the rows in its
        # rational span (the oracle's `_closed_sets`); those closed sets are
        # exactly the returned masks, and each flat's reduced chain is its
        # span's RREF as primitive integer rows.
        rows, d = self._draw_rows(data)
        spans = {mask: span for span, mask in _closed_sets(rows, d).items()}
        flats = _closure(rows, d)
        assert sorted(mask for _, mask in flats) == sorted(spans)
        for chain, mask in flats:
            assert _canonical_rows(chain) == tuple(primitive_int_row(r) for r in spans[mask])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_chains_are_residue_chains(self, data):
        # A chain has one row per codim; each row is primitive, leads positive
        # and is zero at every earlier row's lead. Canonical rows are a chain
        # that the reducer leaves unchanged.
        rows, d = self._draw_rows(data)
        for chain, mask in _closure(rows, d):
            members = RationalMatrix([row for j, row in enumerate(rows) if mask >> j & 1])
            assert len(chain) == rref(members)[1]
            leads = []
            for row in chain:
                lead = next(c for c, x in enumerate(row) if x)
                assert row[lead] > 0 and gcd(*row) == 1
                assert not any(row[c] for c in leads)
                leads.append(lead)
            canon = tuple(primitive_int_row(r) for r in row_space_canonical(members))
            assert _canonical_rows(canon) == canon

