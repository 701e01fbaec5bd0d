"""Brute-force reference paths and their agreement with production."""

import ast
import hashlib
import inspect
import json
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import rlct.cli
import rlct.lattice
import rlct.oracle
from rlct import (
    ArrangementSpec,
    CentralityError,
    SizeLimitError,
    build_lattice,
    lattice_bruteforce,
    localizations_bruteforce,
    longest_chain_bruteforce,
    normalize,
    parse_factored_product,
    rlct_affine,
    rlct_central,
)
from rlct.oracle import MAX_BRUTEFORCE_CHAIN_FLATS, rref, verify_central, verify_report
from rlct.ratlinalg import RationalMatrix
from rlct.threshold import RlctPair

from conftest import matmul, random_central_arrangement, random_invertible, random_rational, unreduced_rref_strings


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

    def test_affine_input_is_refused(self):
        with pytest.raises(CentralityError):
            lattice_bruteforce(normalize(parse_factored_product("x*(x-1)")))

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

    def test_order_keys_hold_for_one_call_only(self):
        # The production order scales each row by 2^shift, with shift set by
        # the largest pivot of the flats sorted in one call. Both lattices
        # hold the row (1, 0, 0); alternating a large-pivot lattice with a
        # small-pivot one in one process shows a row key kept across calls.
        # Each has independent normals of multiplicity 1, so every flat is a
        # minimizer and rlct_central sorts the whole lattice too.
        large = normalize(ArrangementSpec([[1000, 1, 5], [999, 1, 0], [1, 0, 0]], [1, 1, 1]))
        small = normalize(ArrangementSpec([[1, 0, 0], [2, 1, 0], [0, 0, 1]], [1, 1, 1]))
        for arr in (large, small, large, small):
            reference = flats_key(lattice_bruteforce(arr))
            assert flats_key(build_lattice(arr)) == reference
            assert [f.to_json_dict() for f in rlct_central(arr).minimizer_flats] == reference
        # 40 seeded normal-crossing draws: k independent sparse normals with
        # entries up to +-1000 in k to k + 2 dimensions, their columns
        # shuffled, all multiplicities tied in every other draw. The minimizers
        # must be the oracle's flats at lambda, in the oracle's order.
        rng = random.Random(4747)
        for draw in range(40):
            k = 2 + draw % 7
            d = k + rng.randint(0, 2)
            rows = []
            while rref(RationalMatrix(rows or [[0] * d]))[1] < k:
                rows = [[rng.choice((0, rng.randint(-1000, 1000))) for _ in range(d)] for _ in range(k)]
            perm = rng.sample(range(d), d)
            rows = [[row[c] for c in perm] for row in rows]
            mults = [rng.randint(1, 3)] * k if draw % 2 else [rng.randint(1, 3) for _ in range(k)]
            arr = normalize(ArrangementSpec(rows, mults))
            assert arr.normal_rank == arr.n == k
            flats = lattice_bruteforce(arr).flats
            lam = min(Fraction(f.codim, f.weight) for f in flats)
            reference = [f.to_json_dict() for f in flats if Fraction(f.codim, f.weight) == lam]
            assert [f.to_json_dict() for f in rlct_central(arr).minimizer_flats] == reference

    def test_sees_a_production_formatter_fault(self, monkeypatch):
        # The oracle prints its own rational RREF, so a fault in the
        # production formatter shows up as a difference.
        arr = normalize(parse_factored_product("vars x, y, z; (4*x + 10*y + z)*y"))
        assert flats_key(lattice_bruteforce(arr)) == flats_key(build_lattice(arr))
        monkeypatch.setattr(rlct.lattice, "_rref_strings", unreduced_rref_strings(rlct.lattice._rref_strings))
        assert flats_key(lattice_bruteforce(arr)) != flats_key(build_lattice(arr))

    def test_shares_no_production_module(self):
        tree = ast.parse(inspect.getsource(rlct.oracle))
        imported = {(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not {module for module, _ in imported} & {"lattice", "threshold"}
        assert not {name for _, name in imported} & {"primitive_int_row", "eliminate", "integer_rank"}

    def test_owns_the_fraction_linear_algebra(self):
        # Every module of the package: its package imports as (module, name),
        # and the functions it defines. The oracle reaches neither `lattice`
        # nor `threshold`, not even through another module, and only it
        # defines or imports the Fraction linear algebra (`__init__`
        # re-exports it).
        package = pathlib.Path(rlct.oracle.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
        imports = {
            stem: {(node.module.split(".")[-1] if node.module else alias.name, alias.name)
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
            for stem, tree in trees.items()
        }
        reached, todo = set(), ["oracle"]
        while todo:
            for module, _ in imports[todo.pop()]:
                if module not in reached:
                    reached.add(module)
                    todo.append(module)
        assert "arrangement" in reached and not reached & {"lattice", "threshold"}
        moved = {"rref", "row_space_canonical", "subspace_leq"}
        for stem, tree in trees.items():
            defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            owned = (defined | {name for _, name in imports[stem]}) & moved
            assert owned == (moved if stem == "oracle" else set()) or stem == "__init__", stem


def _nonzero_row(rng, d):
    while True:
        row = [rng.randint(-2, 2) for _ in range(d)]
        if any(row):
            return row


def _reference_corpus():
    """Seeded arrangements whose oracle outputs are pinned: central draws
    with fractional entries, rank-deficient normals (every row a combination
    of two rows in 4-space), coordinate planes for k = 1..8, and affine draws
    on at most three normal directions, so that parallel hyperplanes make
    inconsistent subsets. Returns (central, affine)."""
    rng = random.Random(4001)
    central = [random_central_arrangement(rng, max_n=7, max_d=4, max_den=3) for _ in range(30)]
    for _ in range(8):
        a, b = ([random_rational(rng) for _ in range(4)] for _ in range(2))
        weights = [_nonzero_row(rng, 2) for _ in range(rng.randint(2, 7))]
        rows = [row for row in ([p * x + q * y for x, y in zip(a, b)] for p, q in weights) if any(row)]
        if rows:
            central.append(normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in rows])))
    central += [
        normalize(ArrangementSpec([[int(c == a) for c in range(k)] for a in range(k)], [1] * k)) for k in range(1, 9)
    ]
    affine = []
    for _ in range(30):
        d = rng.randint(1, 3)
        directions = [_nonzero_row(rng, d) for _ in range(rng.randint(1, 3))]
        rows = [rng.choice(directions) for _ in range(rng.randint(1, 8))]
        offsets = [random_rational(rng, span=2, max_den=2) for _ in rows]
        affine.append(normalize(ArrangementSpec(rows, [rng.randint(1, 3) for _ in rows], offsets=offsets)))
    return central, affine


class TestPinnedReferences:
    """The references' own outputs, pinned by a SHA-256: every other oracle
    test compares an oracle with production, which a change that moved both
    the same way would pass."""

    DIGEST = "dd3343f51f63f463ce48ff1dcb5d7a0d96714b56917e5eb1a6d2fc6d11f6ebd4"

    def test_outputs_are_pinned(self):
        central, affine = _reference_corpus()
        outputs = [[([[str(x) for x in row] for row in flat.rows], flat.mask, flat.weight)
                    for flat in lattice_bruteforce(arr).flats] for arr in central]
        outputs += [localizations_bruteforce(arr) for arr in central + affine]
        assert hashlib.sha256(repr(outputs).encode()).hexdigest() == self.DIGEST


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

    def test_any_order_and_duplicates(self):
        # Both routines sort before their DP, so reversed, shuffled and
        # doubled lists of reference and production flats give the same
        # length: the rank of the normals for a whole lattice, m for the
        # minimizers.
        rng = random.Random(391)
        nested = 0
        for _ in range(20):
            arr = random_central_arrangement(rng, max_n=6, max_d=3, max_mult=2)
            result = rlct_central(arr)
            cases = [(lattice_bruteforce(arr).flats, arr.normal_rank), (build_lattice(arr).flats, arr.normal_rank),
                     (result.minimizer_flats, result.pair.multiplicity)]
            for flats, length in cases:
                if len(flats) > MAX_BRUTEFORCE_CHAIN_FLATS // 2:
                    continue
                flats = list(flats)
                for variant in (flats, flats[::-1], rng.sample(flats, len(flats)), flats + rng.sample(flats, len(flats))):
                    assert longest_chain_bruteforce(variant) == length
                    assert rlct.oracle._longest_mask_chain(flat.mask for flat in variant) == length
                nested += length > 1
        assert nested >= 20, nested


class TestVerify:
    def test_report_with_line_localizations(self):
        # x = 0 and x = 1 each meet the plane y = z in a line: two localizations.
        arr = normalize(parse_factored_product("vars x, y, z; x*(x-1)*(y-z)"))
        report = rlct_affine(arr)
        assert len(report.localizations) == 2
        assert verify_report(arr, report) == {
            "lattice_match": True, "chain_match": True, "localization_match": True
        }

    def test_each_distinct_result_is_checked_once(self, monkeypatch):
        # Localizations that share a result share one check: one brute-force
        # lattice per distinct result, and the verdicts of a check per point.
        # The last result is then given a wrong multiplicity, at every point
        # that shares it, and its chain check must still fail the report.
        grid = "vars x, y; " + "*".join(f"(x-{i})*(y-{i})" for i in range(5)) + "*(x-y)"
        cases = [("vars x, y, z; x*(x-1)*y*(y-1)*z*(z-1)*(x+y+z-1)", 11, 5), (grid, 25, 2),
                 ("vars x, y; x*(x-1)*y*(y-1)*(x-y)", 4, 2)]
        calls = []
        bruteforce = rlct.oracle.lattice_bruteforce

        def counting(arr):
            calls.append(arr)
            return bruteforce(arr)

        for poly, points, distinct in cases:
            arr = normalize(parse_factored_product(poly))
            report = rlct_affine(arr)
            last = report.localizations[-1].result
            wrong = replace(last, pair=RlctPair(last.pair.threshold, last.pair.multiplicity + 1))
            broken = replace(report, localizations=tuple(
                replace(loc, result=wrong) if loc.result is last else loc for loc in report.localizations))
            for checked, chain_match in ((report, True), (broken, False)):
                reference = [verify_central(loc.arrangement, loc.result) for loc in checked.localizations]
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(rlct.oracle, "lattice_bruteforce", counting)
                    verdict = verify_report(arr, checked)
                assert (len(checked.localizations), len(calls)) == (points, distinct)
                assert verdict == {"lattice_match": all(c["lattice_match"] for c in reference),
                                   "chain_match": all(c["chain_match"] for c in reference),
                                   "localization_match": True}
                assert verdict["chain_match"] is chain_match


def _only_the_first_member(result):
    """`result` claiming pair (1, 1), with the flat of hyperplane 0 alone as
    its one minimizer and its witness chain."""
    flat = next(f for f in result.minimizer_flats if f.mask == 1)
    return replace(result, pair=RlctPair(Fraction(1), 1), minimizer_flats=(flat,), witness_chain=(flat,))


def _one_minimizer_dropped(result):
    """`result` without its first minimizer off the witness chain."""
    dropped = next(f for f in result.minimizer_flats if f not in result.witness_chain)
    return replace(result, minimizer_flats=tuple(f for f in result.minimizer_flats if f is not dropped))


def _first_localization(tamper):
    """A report whose first localization holds `tamper` of its result."""

    def tampered(report):
        first, *rest = report.localizations
        return replace(report, localizations=(replace(first, result=tamper(first.result)), *rest))

    return tampered


class TestSelfConsistentWrongAnswers:
    """Answers that are wrong but agree with themselves: each chain is a
    chain of its own minimizers as long as its own m, so only the comparison
    with the oracle's threshold, minimizers, m and first least local pair can
    catch them. The true pairs are (1, 2) for x*y, (1/2, 1) for x^2*y and
    (1, 2) at both points of x*(x-1)*y, where the global localization is the
    first. A claimed m of 1 where the oracle's minimizers nest two deep also
    fails "chain_match", which takes m from the oracle's minimizer masks."""

    CASES = {
        "xy_as_1_1_on_x": (
            "compute", "x*y", _only_the_first_member, {"lattice_match": False, "chain_match": False}),
        "x2y_as_1_1": (
            "compute", "x^2*y", lambda result: replace(result, pair=RlctPair(Fraction(1), 1)),
            {"lattice_match": False, "chain_match": True}),
        "xyz_without_a_minimizer": (
            "compute", "x*y*z", _one_minimizer_dropped, {"lattice_match": False, "chain_match": True}),
        "report_with_1_1_at_its_first_point": (
            "localize", "vars x, y; x*(x-1)*y", _first_localization(_only_the_first_member),
            {"lattice_match": False, "chain_match": False, "localization_match": False}),
        "report_at_a_later_point_of_the_same_pair": (
            "localize", "vars x, y; x*(x-1)*y", lambda report: replace(report, global_index=1),
            {"lattice_match": True, "chain_match": True, "localization_match": False}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fails_verify(self, case, capsys, monkeypatch):
        command, poly, tamper, verdict = self.CASES[case]
        arr = normalize(parse_factored_product(poly))
        solve, check = (rlct_central, verify_central) if command == "compute" else (rlct_affine, verify_report)
        answer = solve(arr)
        assert all(check(arr, answer).values())
        assert check(arr, tamper(answer)) == verdict
        monkeypatch.setattr(rlct.cli, solve.__name__, lambda arr: tamper(solve(arr)))
        code = rlct.cli.main([command, "--poly", poly, "--verify"])
        out, err = capsys.readouterr()
        assert (code, json.loads(out)["verify"]) == (1, verdict)
        assert "verification mismatch" in err


class TestChainPastTheChainCap:
    """"chain_match" takes m from the oracle's own minimizer masks by a DP, so
    it checks m on inputs with more minimizers than the geometric
    `longest_chain_bruteforce` takes."""

    POLY = "x1*x2*x3*x4*x5*x6"

    def test_mask_chain_equals_the_geometric_chain(self):
        # Generic draws, and tied coordinate planes (m > 1) in coordinates
        # hidden by a random T in GL(d, Q), some with one more plane.
        rng = random.Random(371)
        checked = 0
        for draw in range(60):
            if draw % 2:
                arr = random_central_arrangement(rng, max_n=7, max_d=4)
            else:
                d = rng.randint(2, 5)
                rows = [[int(c == i) for c in range(d)] for i in range(d)]
                rows += [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, 1))]
                normals = matmul(RationalMatrix([row for row in rows if any(row)], cols=d), random_invertible(rng, d))
                arr = normalize(ArrangementSpec(normals, [rng.choice([1, 2, 2]) for _ in range(normals.rows)]))
            flats = lattice_bruteforce(arr).flats
            least = min(Fraction(f.codim, f.weight) for f in flats)
            minimizers = [f for f in flats if Fraction(f.codim, f.weight) == least]
            if len(minimizers) <= MAX_BRUTEFORCE_CHAIN_FLATS:
                chain = rlct.oracle._longest_mask_chain(f.mask for f in minimizers)
                assert chain == longest_chain_bruteforce(minimizers) == rlct_central(arr).pair.multiplicity
                checked += chain > 1
        assert checked >= 10, checked

    def test_six_coordinates_verify(self, capsys):
        # 63 minimizers: the all-subsets lattice is cheap, the geometric chain search refuses.
        arr = normalize(parse_factored_product(self.POLY))
        result = rlct_central(arr)
        assert len(result.minimizer_flats) == 63 > MAX_BRUTEFORCE_CHAIN_FLATS
        with pytest.raises(SizeLimitError):
            longest_chain_bruteforce(result.minimizer_flats)
        assert verify_central(arr, result) == {"lattice_match": True, "chain_match": True}
        code = rlct.cli.main(["compute", "--poly", self.POLY, "--verify", "--format", "csv"])
        assert (code, capsys.readouterr().out) == (0, "lambda,m\n1,6\n")

    def test_a_lowered_multiplicity_fails(self, capsys, monkeypatch):
        # m lowered to 5 with the witness chain cut to its first 5 links: still
        # a strictly nested chain of minimizers as long as its own m.
        def lowered(result):
            return replace(result, pair=RlctPair(result.pair.threshold, 5), witness_chain=result.witness_chain[:5])

        arr = normalize(parse_factored_product(self.POLY))
        verdict = {"lattice_match": True, "chain_match": False}
        assert verify_central(arr, lowered(rlct_central(arr))) == verdict
        monkeypatch.setattr(rlct.cli, "rlct_central", lambda arr: lowered(rlct_central(arr)))
        code = rlct.cli.main(["compute", "--poly", self.POLY, "--verify"])
        out, err = capsys.readouterr()
        assert (code, json.loads(out)["verify"]) == (1, verdict)
        assert json.loads(out)["m"] == 5
        assert "verification mismatch" in err
