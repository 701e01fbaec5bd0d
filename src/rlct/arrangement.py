"""Arrangement data model: validation, normalization, and ingestion.

An arrangement is n affine hyperplanes a_i . x + b_i = 0 in d variables,
each carrying an integer multiplicity s_i, together encoding the product
of linear forms f = L_1^{s_1} ... L_n^{s_n}. Normalization merges rows
that define the same affine hyperplane (summing multiplicities) and drops
rows with multiplicity zero. Rows are stored and compared as primitive
integer rows; their lead-1 entries are views, built on first read.
A closed box, as the sampler and `threshold.box_pair` read it, is checked
here too (`normalize_box`).
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    DegenerateBoxError,
    DimensionError,
    EmptyArrangementError,
    InvalidHyperplaneError,
    InvalidMultiplicityError,
)
from .ratlinalg import RationalLike, RationalMatrix, as_rational, integer_rank, integer_row, lead_sorted, lead_strings, primitive_int_row

# A variable name: the parser's NAME token, so every name can be read back.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"


def _check_multiplicities(multiplicities: Sequence[int]) -> tuple[int, ...]:
    out = []
    for s in multiplicities:
        if isinstance(s, bool) or not isinstance(s, int):
            raise InvalidMultiplicityError(f"multiplicity {s!r} is not an integer")
        if s < 0:
            raise InvalidMultiplicityError(f"multiplicity {s} is negative")
        out.append(s)
    return tuple(out)


def _stored(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields` and any views as given, unchecked."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class ArrangementSpec:
    """Raw, possibly redundant arrangement as supplied by the user.

    Hyperplane i is `integer_rows[i]`, the row (a | b) as integers over
    the least denominator that makes it integer (`integer_row`), so equal
    values are equal rows. The constructor checks its input and stores only
    these integer fields; the parser builds them unchecked (`_stored`).
    `normals` and `offsets` are `Fraction` views, built on first read.
    """

    integer_rows: tuple[tuple[tuple[int, ...], int], ...]
    multiplicities: tuple[int, ...]
    dim: int
    # Names are presentation only; they do not enter equality or hashing.
    variables: tuple[str, ...] | None = field(default=None, compare=False)

    def __init__(self, normals, multiplicities: Sequence[int], offsets: Sequence[RationalLike] | None = None,
                 variables: Sequence[str] | None = None):
        if not isinstance(normals, RationalMatrix):
            normals = RationalMatrix(normals)
        n = normals.rows
        offs = tuple(as_rational(b) for b in (offsets if offsets is not None else [0] * n))
        if len(offs) != n:
            raise DimensionError(f"{len(offs)} offsets for {n} hyperplanes")
        mults = _check_multiplicities(multiplicities)
        if len(mults) != n:
            raise DimensionError(f"{len(mults)} multiplicities for {n} hyperplanes")
        if variables is not None:
            variables = tuple(variables)
            if len(variables) != normals.cols:
                raise DimensionError(f"{len(variables)} variable names for {normals.cols} columns")
            names_ok = all(isinstance(v, str) and re.fullmatch(IDENTIFIER, v) for v in variables)
            if not names_ok or len(set(variables)) < len(variables):
                raise DimensionError(f"variable names {list(variables)} are not distinct identifiers")
        rows = tuple(integer_row(normal + (offset,)) for normal, offset in zip(normals, offs))
        vars(self).update(integer_rows=rows, multiplicities=mults, dim=normals.cols, variables=variables)

    @cached_property
    def normals(self) -> RationalMatrix:
        d = self.dim
        return RationalMatrix([[Fraction(x, den) for x in row[:d]] for row, den in self.integer_rows], d)

    @cached_property
    def offsets(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[-1], den) for row, den in self.integer_rows)

    @property
    def n(self) -> int:
        return len(self.integer_rows)


@dataclass(frozen=True, init=False)
class NormalizedArrangement:
    """Deduplicated arrangement: n >= 1 pairwise distinct affine hyperplanes, s_i >= 1.

    Each affine form (a | b) is stored as its primitive integer row with
    positive lead, sorted by its lead-1 form (normal, offset), and compared
    as such, so equal arrangements are equal values. `normals` (the lead-1
    normals, each entry x/lead of its row) and `offsets` are `Fraction`
    views, and `primitive_normals` and `normal_rank` the integer view that
    the closure, `box_pair` and the normal-crossing test read, each built on
    first read and kept. It has no public constructor: `normalize` builds
    it, and `threshold._centered` a subset of one built, filling in the
    integer view (both through `_stored`).
    """

    primitive_rows: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]
    dim: int
    # Names are presentation only; they do not enter equality or hashing.
    variables: tuple[str, ...] | None = field(default=None, compare=False)

    def __init__(self, *args, **kwargs):
        # `_stored`, `pickle` and `copy` build instances without calling this.
        raise TypeError("NormalizedArrangement has no public constructor; build one with rlct.normalize")

    @property
    def n(self) -> int:
        return len(self.primitive_rows)

    @cached_property
    def normals(self) -> RationalMatrix:
        d, rows = self.dim, self.primitive_rows
        return RationalMatrix([[Fraction(x, lead) for x in row[:d]] for row in rows for lead in [next(filter(None, row))]], d)

    @cached_property
    def offsets(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[-1], next(filter(None, row))) for row in self.primitive_rows)

    @cached_property
    def primitive_normals(self) -> tuple[tuple[int, ...], ...]:
        """Each normal as its primitive integer row with positive lead."""
        return tuple(primitive_int_row(row[: self.dim]) for row in self.primitive_rows)

    @cached_property
    def normal_rank(self) -> int:
        """The rank of the normals."""
        return integer_rank(self.primitive_normals)

    @property
    def is_central(self) -> bool:
        """Every hyperplane passes through the origin."""
        return not any(row[-1] for row in self.primitive_rows)

    def hyperplane(self, j: int) -> tuple[tuple[Fraction, ...], Fraction, int]:
        return self.normals.row(j), self.offsets[j], self.multiplicities[j]

    def var_names(self) -> tuple[str, ...]:
        if self.variables is not None:
            return self.variables
        return tuple(f"x{i + 1}" for i in range(self.dim))


# A closed box: one exact (lo, hi) interval per coordinate, lo < hi.
Box = tuple[tuple[Fraction, Fraction], ...]


def default_box(dim: int) -> Box:
    return tuple((Fraction(-1), Fraction(1)) for _ in range(dim))


def normalize_box(box: Sequence[Sequence] | None, dim: int) -> Box:
    """The box as exact (lo, hi) pairs with lo < hi, one per coordinate;
    None is `default_box`. Both the sampler and `threshold.box_pair` take
    their box through here."""
    if box is None:
        return default_box(dim)
    out = []
    for bounds in box:
        lo, hi = bounds
        lo, hi = as_rational(lo), as_rational(hi)
        if lo >= hi:
            raise DegenerateBoxError(f"empty interval [{lo}, {hi}]")
        out.append((lo, hi))
    if len(out) != dim:
        raise DimensionError(f"box has {len(out)} intervals for dimension {dim}")
    return tuple(out)


def normalize(spec: ArrangementSpec) -> NormalizedArrangement:
    """Validate and canonicalize: the one way to build a `NormalizedArrangement`.

    Drops multiplicity-0 rows, rejects zero normals and an input with no row
    left, merges rows whose affine forms (a_i, b_i) are proportional, and
    sorts the survivors, stored as primitive integer rows, by their lead-1
    forms. The work is on the spec's integer rows: two forms are
    proportional iff their primitive integer rows (a | b) are equal, and
    `lead_sorted` orders those rows as their lead-1 forms. No `Fraction` is built.
    """
    if spec.n == 0:
        raise EmptyArrangementError("arrangement has no hyperplanes")
    d = spec.dim
    merged: dict[tuple[int, ...], int] = {}
    for i, ((row, _), s) in enumerate(zip(spec.integer_rows, spec.multiplicities)):
        if s == 0:
            continue
        if not any(row[:d]):
            raise InvalidHyperplaneError(f"row {i} has a zero normal vector with multiplicity {s}")
        row = primitive_int_row(row)
        merged[row] = merged.get(row, 0) + s
    if not merged:
        raise EmptyArrangementError("all rows were dropped (every multiplicity is zero)")
    rows = tuple(lead_sorted(merged))
    mults = tuple(merged[row] for row in rows)
    return _stored(NormalizedArrangement, primitive_rows=rows, multiplicities=mults, dim=d, variables=spec.variables)


# ---------------------------------------------------------------------------
# JSON / CSV ingestion
# ---------------------------------------------------------------------------


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DimensionError(f'"{what}" must be a JSON list, got {value!r}')
    return value


def _json_rationals(value, what: str) -> list:
    """A JSON list of exact rationals: integers or "p/q" strings, never floats."""
    for x in _json_list(value, what):
        if isinstance(x, bool) or not isinstance(x, (int, str)):
            raise DimensionError(f'"{what}" entry {x!r} is not an integer or a "p/q" string')
    return value


# The keys of each JSON input form; the matrix form's are those `rlct parse` writes.
_POLYNOMIAL_KEYS = ("polynomial",)
_MATRIX_KEYS = ("variables", "normals", "offsets", "multiplicities", "central")


def arrangement_from_json(document: str | Mapping) -> ArrangementSpec:
    """Read the JSON input document.

    Either {"polynomial": "<factored text>"} or
    {"variables": [...]?, "normals": [[...]], "offsets": [...]?,
     "multiplicities": [...], "central": ...?} with rationals as "p/q"
    strings or integers: the keys `rlct parse` writes. "central" is read
    back from the offsets, so its value is ignored. Documents of any other
    shape, an unknown key among them, raise DimensionError.
    """
    data = json.loads(document) if isinstance(document, str) else document
    if not isinstance(data, Mapping):
        raise DimensionError("JSON input must be an object")
    form, allowed = ("polynomial", _POLYNOMIAL_KEYS) if "polynomial" in data else ("matrix", _MATRIX_KEYS)
    unknown = next((key for key in data if key not in allowed), None)
    if unknown is not None:
        raise DimensionError(f"JSON input has unknown key {unknown!r}; the {form} form takes only {', '.join(allowed)}")
    if "polynomial" in data:
        from .parser import parse_factored_product

        if not isinstance(data["polynomial"], str):
            raise DimensionError('"polynomial" must be a string')
        return parse_factored_product(data["polynomial"])
    if "normals" not in data:
        raise DimensionError('JSON input needs either "polynomial" or "normals"')
    rows = _json_list(data["normals"], "normals")
    if not rows:
        raise EmptyArrangementError('JSON input has an empty "normals" list')
    normals = RationalMatrix(_json_rationals(row, "normals") for row in rows)
    if "multiplicities" not in data:
        raise DimensionError('JSON input with "normals" needs "multiplicities"')
    mults = _json_list(data["multiplicities"], "multiplicities")
    offsets = data.get("offsets")
    if offsets is not None:
        _json_rationals(offsets, "offsets")
    variables = data.get("variables")
    if variables is not None:
        _json_list(variables, "variables")
    return ArrangementSpec(normals, mults, offsets=offsets, variables=variables)


def arrangement_to_json_dict(arr: NormalizedArrangement) -> dict:
    """Serializable form of a normalized arrangement; rationals become "p/q"
    strings, each row's `lead_strings` (its lead is in the normal), which
    give the lead-1 normal and offset. `rlct parse` prints its `csv` and
    `human` lines from these texts too."""
    d = arr.dim
    texts = [lead_strings(row) for row in arr.primitive_rows]
    return {
        "variables": list(arr.var_names()),
        "normals": [text[:d] for text in texts],
        "offsets": [text[d] for text in texts],
        "multiplicities": list(arr.multiplicities),
        "central": arr.is_central,
    }


def arrangement_from_csv(text: str, dim: int | None = None) -> ArrangementSpec:
    """Read the CSV matrix form: one hyperplane per line.

    Columns are d rational normal entries, then the multiplicity, then an
    optional offset. The offset column is only recognizable when `dim` is
    given; without it every line is read as central (d = width - 1).
    Blank lines and lines starting with '#' are skipped; trailing empty
    fields are ignored and any other empty field is an error.
    """
    rows = []
    for line_no, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        fields = [f.strip() for f in record]
        while fields and fields[-1] == "":
            fields.pop()
        if not fields or fields[0].startswith("#"):
            continue
        if "" in fields:
            raise DimensionError(f"line {line_no}: empty field {fields.index('') + 1}")
        if dim is None:
            d = len(fields) - 1
            has_offset = False
        else:
            d = dim
            if len(fields) == d + 1:
                has_offset = False
            elif len(fields) == d + 2:
                has_offset = True
            else:
                raise DimensionError(f"line {line_no}: expected {d + 1} or {d + 2} fields, got {len(fields)}")
        if d < 1:
            raise DimensionError(f"line {line_no}: too few fields")
        try:
            normal = [as_rational(f) for f in fields[:d]]
            mult = int(fields[d])
            offset = as_rational(fields[d + 1]) if has_offset else Fraction(0)
        except (ValueError, ZeroDivisionError) as exc:
            raise DimensionError(f"line {line_no}: {exc}") from exc
        rows.append((normal, mult, offset))
    if not rows:
        raise EmptyArrangementError("CSV input contains no hyperplane rows")
    widths = {len(r[0]) for r in rows}
    if len(widths) != 1:
        raise DimensionError(f"inconsistent row widths in CSV input: {sorted(widths)}")
    return ArrangementSpec(
        RationalMatrix([r[0] for r in rows]),
        [r[1] for r in rows],
        offsets=[r[2] for r in rows],
    )
