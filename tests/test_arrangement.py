"""Normalization and ingestion of arrangements."""

import json
import random
from fractions import Fraction

import pytest

from rlct import (
    ArrangementSpec,
    DimensionError,
    EmptyArrangementError,
    InvalidHyperplaneError,
    InvalidMultiplicityError,
    RationalMatrix,
    arrangement_from_csv,
    arrangement_from_json,
    arrangement_to_json_dict,
    normalize,
)

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
