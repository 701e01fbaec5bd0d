"""Brute-force reference paths and their agreement with production."""

import random

import pytest

from rlct import (
    ArrangementSpec,
    SizeLimitError,
    build_lattice,
    lattice_bruteforce,
    longest_chain_bruteforce,
    normalize,
    parse_factored_product,
    rlct_central,
)

from conftest import random_central_arrangement


def flats_key(lattice):
    return [f.to_json_dict() for f in lattice.flats]


class TestLatticeBruteforce:
    def test_four_planes_flat_count(self):
        arr = normalize(parse_factored_product("x*y^2*z^2*(x+y+z)"))
        lat = lattice_bruteforce(arr)
        assert len(lat.flats) == 11
        assert flats_key(lat) == flats_key(build_lattice(arr))

    def test_single_hyperplane(self):
        arr = normalize(ArrangementSpec([[3, 1]], [2]))
        lat = lattice_bruteforce(arr)
        assert len(lat.flats) == 1

    def test_dependent_subsets_dedup(self):
        # Three concurrent lines: each pair spans the same plane of normals,
        # so all three pair-subsets must collapse to the single origin flat.
        arr = normalize(ArrangementSpec([[1, 0], [0, 1], [1, 1]], [1, 1, 1]))
        lat = lattice_bruteforce(arr)
        assert len(lat.flats) == 4
        assert sum(1 for f in lat.flats if f.codim == 2) == 1

    def test_size_guard(self):
        rows = [[1, k] for k in range(21)]
        arr = normalize(ArrangementSpec(rows, [1] * 21))
        with pytest.raises(SizeLimitError):
            lattice_bruteforce(arr)

    def test_agreement_random_smoke(self):
        rng = random.Random(91)
        arrangements = [random_central_arrangement(rng, max_n=7, max_d=4) for _ in range(25)]
        # Large pivots: RREF entries 1/999 and 1/1000 lie 1/(999*1000) apart,
        # so an integer sort key scaled by only 2^bitlen(P) would tie them.
        pair = [[1000, 1, 5], [999, 1, 0]]
        arrangements += [normalize(ArrangementSpec(rows, [1] * len(rows))) for rows in (pair, pair + [[0, 0, 1]])]
        arrangements += [random_central_arrangement(rng, max_n=6, max_d=4, span=1000) for _ in range(6)]
        for arr in arrangements:
            assert flats_key(lattice_bruteforce(arr)) == flats_key(build_lattice(arr))


class TestLongestChainBruteforce:
    def test_antichain(self):
        arr = normalize(ArrangementSpec([[1, 0], [0, 1]], [1, 1]))
        lines = [f for f in build_lattice(arr).flats if f.codim == 1]
        assert longest_chain_bruteforce(lines) == 1

    def test_full_flag(self):
        arr = normalize(ArrangementSpec([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]))
        lat = build_lattice(arr)
        nested = [
            next(f for f in lat.flats if f.codim == 3),
            next(f for f in lat.flats if f.codim == 2),
            next(f for f in lat.flats if f.codim == 1),
        ]
        assert longest_chain_bruteforce(nested) == 3

    def test_four_planes_minimizers(self):
        result = rlct_central(normalize(parse_factored_product("x*y^2*z^2*(x+y+z)")))
        assert longest_chain_bruteforce(result.minimizer_flats) == 3

    def test_empty(self):
        assert longest_chain_bruteforce([]) == 0

    def test_size_guard(self):
        rng = random.Random(92)
        arr = random_central_arrangement(rng, max_n=8, max_d=5)
        flats = list(build_lattice(arr).flats) * 10
        if len(flats) > 50:
            with pytest.raises(SizeLimitError):
                longest_chain_bruteforce(flats)

    def test_matches_production_on_minimizers(self):
        rng = random.Random(93)
        for _ in range(25):
            arr = random_central_arrangement(rng, max_n=7, max_d=4)
            result = rlct_central(arr)
            if len(result.minimizer_flats) <= 50:
                assert longest_chain_bruteforce(result.minimizer_flats) == result.pair.multiplicity
