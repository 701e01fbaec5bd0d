"""Normalization and ingestion of arrangements."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from rlct import (
    ArrangementSpec,
    DimensionError,
    EmptyArrangementError,
    InvalidHyperplaneError,
    InvalidMultiplicityError,
    NormalizedArrangement,
    RationalMatrix,
    arrangement_from_csv,
    arrangement_from_json,
    arrangement_to_json_dict,
    format_factored_product,
    normalize,
    parse_factored_product,
)
from rlct.ratlinalg import primitive_int_row
from rlct.threshold import maximal_central_localizations

F = Fraction


class TestNormalize:
    def test_merges_proportional_rows(self):
        arr = normalize(ArrangementSpec([[1, 0], [2, 0]], [1, 1]))
        assert arr.normals == RationalMatrix([[1, 0]])
        assert arr.multiplicities == (2,)
        assert arr.is_central

    def test_drops_multiplicity_zero(self):
        # y^0 * x^1 reduces to the single line x = 0.
        arr = normalize(ArrangementSpec([[0, 1], [1, 0]], [0, 1]))
        assert arr.normals == RationalMatrix([[1, 0]])
        assert arr.multiplicities == (1,)

    def test_affine_row_kept(self):
        arr = normalize(ArrangementSpec([[1, 1]], [2], offsets=[1]))
        assert arr.normals == RationalMatrix([[1, 1]])
        assert arr.offsets == (F(1),)
        assert arr.multiplicities == (2,)
        assert not arr.is_central

    def test_rescales_first_nonzero_to_one(self):
        arr = normalize(ArrangementSpec([[0, F(3, 2)]], [1], offsets=[3]))
        assert arr.normals == RationalMatrix([[0, 1]])
        assert arr.offsets == (F(2),)

    def test_proportional_affine_forms_merge(self):
        # 2x + 2 and x + 1 are the same hyperplane; x + 2 is not.
        arr = normalize(ArrangementSpec([[2], [1], [1]], [1, 3, 5], offsets=[2, 1, 2]))
        assert arr.n == 2
        assert arr.multiplicities == (4, 5)

    def test_idempotent_and_order_independent(self):
        rng = random.Random(11)
        for _ in range(50):
            d = rng.randint(1, 4)
            n = rng.randint(1, 6)
            rows, offsets, mults = [], [], []
            for _ in range(n):
                while True:
                    row = [F(rng.randint(-3, 3)) for _ in range(d)]
                    if any(row):
                        break
                rows.append(row)
                offsets.append(F(rng.randint(-2, 2)))
                mults.append(rng.randint(1, 4))
            arr = normalize(ArrangementSpec(rows, mults, offsets=offsets))
            again = normalize(ArrangementSpec(arr.normals, arr.multiplicities, offsets=arr.offsets))
            assert again == arr
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = normalize(
                ArrangementSpec(
                    [rows[i] for i in perm], [mults[i] for i in perm], offsets=[offsets[i] for i in perm]
                )
            )
            assert shuffled == arr

    def test_row_scaling_invariance(self):
        rng = random.Random(12)
        for _ in range(50):
            scale = F(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 5))
            base = ArrangementSpec([[2, 1], [0, 1]], [1, 2], offsets=[1, 0])
            scaled = ArrangementSpec(
                [[2 * scale, scale], [0, 1]], [1, 2], offsets=[scale, 0]
            )
            assert normalize(scaled) == normalize(base)

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidHyperplaneError):
            normalize(ArrangementSpec([[0, 0]], [1]))

    def test_zero_normal_with_zero_multiplicity_dropped(self):
        arr = normalize(ArrangementSpec([[0, 0], [1, 0]], [0, 1]))
        assert arr.n == 1

    def test_all_rows_dropped(self):
        with pytest.raises(EmptyArrangementError):
            normalize(ArrangementSpec([[1, 0]], [0]))

    def test_no_rows(self):
        with pytest.raises(EmptyArrangementError):
            normalize(ArrangementSpec(RationalMatrix([], cols=2), []))

    def test_negative_multiplicity(self):
        with pytest.raises(InvalidMultiplicityError):
            ArrangementSpec([[1, 0]], [-1])

    def test_non_integer_multiplicity(self):
        with pytest.raises(InvalidMultiplicityError):
            ArrangementSpec([[1, 0]], [1.5])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ArrangementSpec([[1, 0], [0, 1]], [1])
        with pytest.raises(DimensionError):
            ArrangementSpec([[1, 0], [0, 1]], [1, 1], offsets=[0])
        with pytest.raises(DimensionError, match="1 variable names for 2 columns"):
            ArrangementSpec([[1, 0]], [1], variables=["x"])
        with pytest.raises(DimensionError, match="3 variable names for 2 columns"):
            ArrangementSpec([[1, 0]], [1], variables=["x", "y", "z"])


def reference_normalize(spec):
    """The definition `normalize` computes, on Fractions: each kept row
    scaled so its normal leads with 1, equal scaled rows merged, and the rows
    sorted as tuples of Fractions. Returns normals, offsets, multiplicities."""
    merged = {}
    for normal, offset, s in zip(spec.normals, spec.offsets, spec.multiplicities):
        if s == 0:
            continue
        lead = next(x for x in normal if x != 0)
        key = (tuple(x / lead for x in normal), offset / lead)
        merged[key] = merged.get(key, 0) + s
    ordered = sorted(merged.items())
    return (
        tuple(normal for (normal, _), _ in ordered),
        tuple(offset for (_, offset), _ in ordered),
        tuple(s for _, s in ordered),
    )


# Large primes, so that two entries 1/p and 1/q can differ by about 1e-12
# and a row's primitive lead is a product of primes.
_PRIMES = (999983, 999979, 999961, 999959, 2147483647)


def _normalize_draw(rng, kind):
    """A raw spec: base rows of one kind of entry, proportional copies of
    some of them at other scales and signs, zero multiplicities (on a zero
    normal too), in shuffled order."""
    d = rng.randint(1, 4)

    def entry():
        if kind == "integer":
            return F(rng.randint(-5, 5))
        if kind == "fraction":
            return F(rng.randint(-5, 5), rng.randint(1, 6))
        return F(rng.choice([-1, 0, 1, 1, 2]), rng.choice(_PRIMES))

    rows = []
    for _ in range(rng.randint(1, 6)):
        normal = [entry() for _ in range(d)]
        if kind == "prime" and rng.random() < 0.5:
            normal[0] = F(1)  # leads tie, so the order rests on the near-equal entries after them
        if any(normal):
            rows.append((normal, entry() if rng.random() < 0.6 else F(0), rng.choice([0, 1, 1, 2, 3])))
    for normal, offset, _ in list(rows):
        if rng.random() < 0.5:
            c = F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
            rows.append(([c * x for x in normal], c * offset, rng.choice([0, 1, 2])))
    if rng.random() < 0.2:
        rows.append(([F(0)] * d, entry(), 0))
    rng.shuffle(rows)
    normals = RationalMatrix([r[0] for r in rows], cols=d)
    return ArrangementSpec(normals, [r[2] for r in rows], offsets=[r[1] for r in rows])


class TestNormalizeDifferential:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(4401)
        kinds = ("integer", "fraction", "prime")
        # 1/999983 < 1/999979, about 4e-12 apart, decide the order of three rows with lead 1.
        near = ArrangementSpec(
            [[1, F(1, 999979), F(1, 999961)], [1, F(1, 999983), F(1, 999959)], [2, F(2, 999983), F(1, 999961)]],
            [1, 2, 3],
        )
        merged = empty = wide = 0
        for spec in [near] + [_normalize_draw(rng, kinds[draw % 3]) for draw in range(600)]:
            if not any(spec.multiplicities):
                with pytest.raises(EmptyArrangementError):
                    normalize(spec)
                empty += 1
                continue
            arr = normalize(spec)
            normals, offsets, mults = reference_normalize(spec)
            assert arr.normals.entries == normals
            assert arr.offsets == offsets
            assert arr.multiplicities == mults
            assert all(type(x) is Fraction for row in arr.normals for x in row)
            assert all(type(x) is Fraction for x in arr.offsets)
            # `normalize` stores the integer rows, and normalizes the reference's output to itself.
            assert arr.primitive_normals == tuple(primitive_int_row(row) for row in normals)
            assert arr.primitive_rows == tuple(primitive_int_row(a + (b,)) for a, b in zip(normals, offsets))
            built = normalize(ArrangementSpec(RationalMatrix(normals), mults, offsets))
            assert (built, hash(built)) == (arr, hash(arr))
            assert (built.primitive_rows, built.primitive_normals) == (arr.primitive_rows, arr.primitive_normals)
            merged += sum(s > 0 for s in spec.multiplicities) > arr.n
            # The sort key's shift is twice the largest lead's bit length.
            wide += 2 * max(next(filter(None, row)) for row in arr.primitive_rows).bit_length() > 60
        assert merged >= 300 and empty >= 20 and wide >= 100, (merged, empty, wide)


def _rebuilt_from_views(obj, build):
    """`build` of `obj`'s `Fraction` views, which `obj` builds here on first
    read, is equal to `obj` and hashes alike, and keeps no view."""
    assert "normals" not in vars(obj) and "offsets" not in vars(obj)
    assert all(type(x) is F for row in obj.normals for x in row)
    assert all(type(x) is F for x in obj.offsets)
    built = build(obj)
    assert "normals" not in vars(built) and "offsets" not in vars(built)
    assert (built, hash(built)) == (obj, hash(obj))
    assert (built.n, built.dim) == (obj.n, obj.dim)
    return built


def _normalized_from_views(arr):
    built = _rebuilt_from_views(
        arr, lambda a: normalize(ArrangementSpec(a.normals, a.multiplicities, a.offsets, a.variables)))
    assert (built.primitive_rows, built.primitive_normals) == (arr.primitive_rows, arr.primitive_normals)
    assert (built.normal_rank, built.is_central) == (arr.normal_rank, arr.is_central)
    return built


class TestIntegerRowsAndTheirViews:
    """Arrangements store integer rows and build their `Fraction` views on
    first read. One built from integers (by the parser, `normalize` or
    `threshold._centered`) equals and hashes like one built again from its
    views: a spec through its constructor, a normalized arrangement through
    `normalize`, its only builder."""

    def test_normalized_arrangement_has_no_public_constructor(self):
        arr = normalize(ArrangementSpec([[1, 0], [0, 1]], [2, 1], offsets=[F(1, 2), 0]))
        with pytest.raises(TypeError):
            NormalizedArrangement(arr.normals, arr.offsets, arr.multiplicities)
        with pytest.raises(TypeError):
            NormalizedArrangement(primitive_rows=arr.primitive_rows, multiplicities=arr.multiplicities, dim=2)
        with pytest.raises(TypeError, match="normalize"):
            NormalizedArrangement()

    def test_normalized_arrangement_round_trips_without_its_constructor(self):
        # With the views read and unread: `pickle` and `copy` build the
        # instance from its fields, not through `__init__`.
        for read in (False, True):
            arr = normalize(ArrangementSpec([[1, 0], [0, 1], [1, 1]], [2, 1, 1], offsets=[F(1, 2), 0, 3], variables=["u", "v"]))
            if read:
                assert arr.normal_rank == 2
            for copied in (pickle.loads(pickle.dumps(arr)), copy.copy(arr), copy.deepcopy(arr)):
                assert type(copied) is NormalizedArrangement
                assert copied == arr and hash(copied) == hash(arr)
                assert (copied.variables, copied.normal_rank, copied.offsets) == (("u", "v"), 2, arr.offsets)

    def test_built_from_integers_equals_built_from_views(self):
        rng = random.Random(487)
        kinds = ("integer", "fraction", "prime")
        arrangements = subs = fractional = 0
        for draw in range(300):
            spec = _normalize_draw(rng, kinds[draw % 3])
            if not any(spec.multiplicities):
                continue
            arr = normalize(spec)
            _normalized_from_views(arr)
            parsed = parse_factored_product(format_factored_product(arr))
            _rebuilt_from_views(parsed, lambda s: ArrangementSpec(s.normals, s.multiplicities, s.offsets, s.variables))
            assert normalize(parsed) == arr
            fractional += any(den > 1 for _, den in parsed.integer_rows)
            seen = set()
            for _, sub in maximal_central_localizations(normalize(spec)):
                if id(sub) not in seen:
                    seen.add(id(sub))
                    _normalized_from_views(sub)
                    assert sub.is_central and sub.offsets == (0,) * sub.n
            arrangements += 1
            subs += len(seen)
        assert arrangements >= 250 and subs >= 400 and fractional >= 100, (arrangements, subs, fractional)


class TestJsonIngestion:
    def test_matrix_document(self):
        doc = {
            "variables": ["x", "y"],
            "normals": [["1", "0"], ["0", "1/2"]],
            "offsets": ["0", "-3"],
            "multiplicities": [1, 2],
        }
        arr = normalize(arrangement_from_json(doc))
        assert arr.dim == 2
        assert arr.normals == RationalMatrix([[0, 1], [1, 0]])
        assert arr.offsets == (F(-6), F(0))

    def test_polynomial_document(self):
        arr = normalize(arrangement_from_json({"polynomial": "x*y"}))
        assert arr.n == 2
        assert arr.is_central

    def test_json_string(self):
        arr = normalize(arrangement_from_json(json.dumps({"normals": [[1, 1]], "multiplicities": [3]})))
        assert arr.multiplicities == (3,)

    def test_missing_fields(self):
        with pytest.raises(DimensionError):
            arrangement_from_json({"normals": [[1, 0]]})
        with pytest.raises(DimensionError):
            arrangement_from_json({"multiplicities": [1]})

    def test_unknown_key_is_an_error(self):
        # "offset" for "offsets" would drop the offsets and read x(x - 1) as x^2.
        with pytest.raises(DimensionError, match="'offset'"):
            arrangement_from_json({"normals": [[1], [1]], "multiplicities": [1, 1], "offset": [0, -1]})

    def test_polynomial_takes_no_matrix_key(self):
        with pytest.raises(DimensionError, match="'normals'"):
            arrangement_from_json({"polynomial": "x", "normals": [[1]], "multiplicities": [1]})

    def test_round_trip_through_json_dict(self):
        arr = normalize(
            ArrangementSpec([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 2, 2, 1])
        )
        doc = arrangement_to_json_dict(arr)
        again = normalize(arrangement_from_json(doc))
        assert again.normals == arr.normals
        assert again.offsets == arr.offsets
        assert again.multiplicities == arr.multiplicities


class TestCsvIngestion:
    def test_central_rows(self):
        text = "# normals then multiplicity\n1,0,0,1\n0,1,0,2\n0,0,1,2\n1,1,1,1\n"
        arr = normalize(arrangement_from_csv(text))
        assert arr.n == 4
        assert arr.dim == 3
        assert sum(arr.multiplicities) == 6

    def test_offset_column_with_dim(self):
        text = "1,0,1,0\n1,0,1,-1\n"
        arr = normalize(arrangement_from_csv(text, dim=2))
        assert not arr.is_central
        assert arr.offsets == (F(-1), F(0))

    def test_rational_fields(self):
        arr = normalize(arrangement_from_csv("1/2,1,3\n"))
        assert arr.normals == RationalMatrix([[1, 2]])
        assert arr.multiplicities == (3,)

    def test_bad_field_count(self):
        with pytest.raises(DimensionError):
            arrangement_from_csv("1,0,1\n1,0,1,0,9\n", dim=2)

    def test_empty_file(self):
        with pytest.raises(EmptyArrangementError):
            arrangement_from_csv("# nothing here\n")

    def test_empty_field_does_not_shift_columns(self):
        # Dropping the gap would read "1,,2" as the 1-D row x with multiplicity 2.
        for text in ["1,,2\n2,,1\n", "1, ,2\n"]:
            with pytest.raises(DimensionError, match="line 1: empty field 2"):
                arrangement_from_csv(text)

    def test_trailing_empty_fields_are_ignored(self):
        assert arrangement_from_csv("1,0,2,\n") == arrangement_from_csv("1,0,2\n")
        assert arrangement_from_csv("1,0,2, ,\n").dim == 2
