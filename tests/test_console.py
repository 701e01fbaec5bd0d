"""The command-line checks, one row per command, run through `rlct.cli.main`
in process: its argv, its exit code, and the exact stdout or the values a
reading of its output must give. Checks that compare two commands follow
the table."""

import json
import re
from itertools import combinations

import pytest

from rlct import (
    arrangement_to_json_dict,
    default_epsilon_grid,
    normalize,
    parse_factored_product,
    rlct_affine,
    rlct_central,
)

from test_cli import run_cli

# Input files, written to each case's own directory; an argv names one as "{name}".
FILES = {
    # "offset" for "offsets": a key outside the input forms.
    "offset.json": '{"normals": [[1], [1]], "multiplicities": [1, 1], "offset": [0, -1]}',
    "gap.csv": "1,,2\n",
    "empty.json": '{"normals": [], "multiplicities": []}',
    "list.json": "[[1, 0], [0, 1]]",
    "ragged.json": '{"normals": [[1, 0], [1]], "multiplicities": [1, 1]}',
    "one-field.csv": "1\n",
    "zero-denominator.csv": "1/0,2,1\n",
    "two-widths.csv": "1,0,1\n1,1\n",
}


def stdout(out, err):
    return out


def exact(out, err):
    return json.loads(out)["exact"]


def stderr_exact(out, err):
    """With csv, volume-fit prints the exact pair and the fit to stderr."""
    return json.loads(err)["exact"]


def exact_and_fit(lam):
    """The exact pair, and whether the fit at the exact m is within 0.1 of `lam`."""

    def read(out, err):
        doc = json.loads(out)
        return doc["exact"], abs(doc["fit_fixed_m"]["lambda_hat"] - lam) <= 0.1

    return read


def error(pattern):
    """Stdout, the number of stderr lines, and whether a stderr line matches `pattern`."""
    return lambda out, err: (out, err.count("\n"), re.search(pattern, err, re.MULTILINE) is not None)


def stdlib_indent(out, err):
    return out == json.dumps(json.loads(out), indent=2) + "\n"


def library_document(poly):
    """Whether stdout is the library's plain-JSON document through the stdlib."""

    def read(out, err):
        arr = normalize(parse_factored_product(poly))
        result = rlct_central(arr) if arr.is_central else rlct_affine(arr)
        return out == json.dumps({"input": arrangement_to_json_dict(arr), **result.to_json_dict()}, indent=2) + "\n"

    return read


def case(name, argv, expected, read=stdout, code=0):
    return pytest.param(argv, code, read, expected, id=name)


DIRECT_SUM = (
    "vars x1, x2, x3, x4, x5, x6, y1, y2, y3; x1^2*x2^2*x3^2*x4^2*x5^2*x6^2*(y1 + 2*y2 + 3*y3)"
    "*(2*y1 - y2 + 5*y3)*(3*y1 + 4*y2 - y3)*(y1 - 3*y2 + 2*y3)*(5*y1 + y2 + 4*y3)*(4*y1 - 5*y2 - 3*y3)"
)
GRID_3D = "vars x, y, z; (y-1)*x*(z-2)*(x-2)*(x+y+z-3)*y*(z-1)*(x-1)*(y-2)*z"

CASES = [
    # --verify: the oracles check each printed pair (exit 1 on a mismatch).
    case("affine-verify", ["localize", "--poly", "x*(x-1)*y*(y-1)*(x-y)", "--verify", "--format", "csv"],
         "lambda,m\n2/3,1\n"),
    # All three lines meet at (1, 2): one localization holding every hyperplane.
    case("translated-central-verify", ["localize", "--poly", "(x-1)*(y-2)*(x+y-3)", "--verify", "--format", "csv"],
         "lambda,m\n2/3,1\n"),
    # x = 0 and x = 1 each meet the plane y = z in a line: positive-dimensional localizations.
    case("line-localizations-verify",
         ["localize", "--poly", "vars x, y, z; x*(x-1)*(y-z)", "--verify", "--format", "csv"], "lambda,m\n1,2\n"),
    # Three planes through a common line: normals of rank 2 in 3 variables.
    case("rank-deficient-verify", ["compute", "--poly", "vars x, y, z; x*y*(x+y)", "--verify", "--format", "csv"],
         "lambda,m\n2/3,1\n"),
    # 15 minimizer flats and m = 4; --verify checks m and the witness chain.
    case("multiplicity-verify", ["compute", "--poly", "x*y*z*w", "--verify", "--format", "csv"], "lambda,m\n1,4\n"),
    # Independent normals, two of multiplicity 3: normal crossing, solved with
    # no closure; --verify checks the full lattice.
    case("independent-normals-verify",
         ["compute", "--poly", "vars x, y, z; (x + 2*y - z)^3*(3*x - y)^3*(y + 5*z)", "--verify", "--format", "csv"],
         "lambda,m\n1/3,2\n"),
    # (0,0,0) and (1,1,0) lie on three planes with independent normals and
    # multiplicities 2, 1, 2: one tied set, solved with no closure. (1,0,0)
    # and (0,1,0) lie on four planes, whose normals are dependent.
    case("affine-tied-sets-verify",
         ["compute", "--poly", "vars x, y, z; x^2*(x-1)^2*y*(y-1)*z^2*(x+y+z-1)", "--verify", "--format", "csv"],
         "lambda,m\n1/2,3\n"),
    # Each minimizer's normal space prints from integer rows as reduced "p/q" strings.
    case("fractions-in-flat-output", ["compute", "--poly", "vars x, y, z; (2*x - 3*y)*(4*x + 6*y + 5*z)", "--verify"],
         [[["1", "-3/2", "0"]], [["1", "3/2", "5/4"]], [["1", "0", "5/8"], ["0", "1", "5/12"]]],
         lambda out, err: [f["normal_space"] for f in json.loads(out)["minimizer_flats"]]),
    # Five generic planes: every codim-2 flat's canonical rows have fractional
    # RREF entries, and lattice_match compares them all.
    case("every-flats-rows-verify",
         ["compute", "--poly", "(2*x - 3*y + z)*(x + 5*y - 2*z)*(4*x + y + 3*z)*(x - y - 7*z)*(3*x + 2*y - z)",
          "--verify", "--format", "csv"],
         "lambda,m\n3/5,1\n"),
    # Five planes in general position with 12-digit coefficients: residues and
    # canonical rows run to dozens of digits.
    case("twelve-digit-verify",
         ["compute", "--poly", "(394096041694*x - 517224291557*y + 512302353019*z)"
          "*(805551664347*x - 351691341489*y - 785740152505*z)*(585236988886*x - 470064120312*y - 731612841065*z)"
          "*(662961161696*x - 545308377855*y - 997909233135*z)*(568096176171*x + 826332775543*y + 250200681752*z)",
          "--verify", "--format", "csv"],
         "lambda,m\n3/5,1\n"),
    # Nine planes in 4 variables in general position: most flats find every
    # child already built and compute no residues.
    case("nine-planes-verify",
         ["compute", "--poly", "vars w, x, y, z; (w + 2*x - y + 3*z)^2*(3*w - x + 2*y + z)*(w + x + 5*y - 2*z)^2"
          "*(2*w - 3*x + y + 4*z)*(4*w + x - 2*y - z)*(w - 4*x + 3*y + 2*z)*(5*w + 2*x + y - 3*z)"
          "*(2*w + 5*x - 4*y + z)",
          "--verify", "--format", "csv"],
         "lambda,m\n2/5,1\n"),
    # Seven planes in general position with offsets have no common point:
    # every point is a maximal localization, all at one level.
    case("seven-affine-planes-verify",
         ["compute", "--poly", "vars x, y, z; (x + 2*y - z - 1)*(3*x - y + 2*z + 2)*(x + y + 5*z - 3)"
          "*(2*x - 3*y + z + 4)*(4*x + y - 2*z - 5)*(x - 4*y + 3*z + 1)*(5*x + 2*y + z - 2)",
          "--verify", "--format", "csv"],
         "lambda,m\n1,3\n"),
    # Six doubled coordinates (1/2, 6) and six generic planes in three more
    # variables (1/2, 1): lambda = 1/2, m = 6 + 1, and (63 + 1)(1 + 1) - 1 =
    # 127 minimizers, past the 50 flats the chain oracle takes.
    case("direct-sum-past-the-chain-cap", ["compute", "--poly", DIRECT_SUM, "--format", "csv"], "lambda,m\n1/2,7\n"),
    case("direct-sum-minimizers", ["compute", "--poly", DIRECT_SUM], (127, 7),
         lambda out, err: (len(json.loads(out)["minimizer_flats"]), len(json.loads(out)["witness_chain"]))),
    # volume-fit: a descending epsilon grid; criterion 5 bounds lambda_hat at fixed m by 0.1.
    case("volume-fit-sampled", ["volume-fit", "--poly", "x*y", "--samples", "1000000", "--seed", "1"],
         ({"lambda": "1", "m": 2}, True), exact_and_fit(1)),
    # The box's lows and widths differ per coordinate and the offsets are
    # distinct and nonzero. The double line y = -1/3 crosses the box and meets
    # only 2x = 1 there: pair (1/2, 1).
    case("volume-fit-sampled-affine-box",
         ["volume-fit", "--poly", "vars x, y; (2*x-1)*(y+1/3)^2*(x+3*y-2)", "--box=-1/3,2;-1,5/4",
          "--samples", "400000", "--seed", "1"],
         ({"lambda": "1/2", "m": 1}, True), exact_and_fit(0.5)),
    # The CLI samples the library's default epsilon grid, bit for bit.
    case("volume-fit-grid", ["volume-fit", "--poly", "x*y", "--samples", "200000", "--seed", "1"],
         default_epsilon_grid(), lambda out, err: [s["epsilon"] for s in json.loads(out)["samples"]]),
    # The three lines meet at (1, 2) inside the box: pair (2/3, 1).
    case("volume-fit-box-through-one-point",
         ["volume-fit", "--poly", "(x-1)*(y-2)*(x+y-3)", "--box", "0,2;1,3", "--selftest"],
         {"lambda": "2/3", "m": 1}, exact),
    # Given as a separate argument, "-1/3,..." reads as an option; the
    # documented form is --box=SPEC. The box holds the origin: pair (1, 2).
    case("volume-fit-negative-first-bound",
         ["volume-fit", "--poly", "vars x, y; x*y", "--box=-1/3,2;-1,5/4", "--selftest", "--format", "csv"],
         {"lambda": "1", "m": 2}, stderr_exact),
    # The nine coordinate planes of the grid {0, 1, 2}^3 and x+y+z = 3. The
    # whole arrangement's pair (3/4, 1) is at grid points on x+y+z = 3, none in
    # the box; the box's worst point is (1, 1, 2), where three planes meet.
    case("volume-fit-box-walk-3d",
         ["volume-fit", "--poly", GRID_3D, "--box=1/3,7/5;2/3,3/2;5/3,7/3", "--selftest", "--format", "csv"],
         {"lambda": "1", "m": 3}, stderr_exact),
    # eps = 1 passes the grid but not the fit: an epsilon error and no output.
    case("volume-fit-epsilon-rules", ["volume-fit", "--poly", "x*y", "--eps-max", "1"],
         ("", 1, True), error("^error: .*epsilon"), code=2),
    # Input errors exit 2 with one "error:" line; a CSV gap is an error, not a shifted column.
    case("unknown-json-key", ["compute", "--input", "{offset.json}"], ("", 1, True), error("^error: .*'offset'"),
         code=2),
    case("syntax-error-position", ["parse", "--poly", "(x+y"], ("", 1, True), error("^error: .*position 4"), code=2),
    case("csv-gap", ["compute", "--input", "{gap.csv}"], "", code=2),
    case("empty-json-normals", ["compute", "--input", "{empty.json}"], ("", 1, True),
         error('^error: JSON input has an empty "normals" list$'), code=2),
    case("json-list", ["compute", "--input", "{list.json}"], ("", 1, True), error("^error: .*must be an object"),
         code=2),
    case("ragged-json-normals", ["compute", "--input", "{ragged.json}"], ("", 1, True),
         error("^error: .*inconsistent lengths"), code=2),
    case("csv-too-few-fields", ["compute", "--input", "{one-field.csv}"], ("", 1, True),
         error("^error: line 1: too few fields"), code=2),
    case("csv-zero-denominator", ["compute", "--input", "{zero-denominator.csv}"], ("", 1, True),
         error("^error: line 1: .*zero denominator"), code=2),
    case("csv-two-widths", ["compute", "--input", "{two-widths.csv}"], ("", 1, True),
         error(r"^error: inconsistent row widths in CSV input: \[1, 2\]"), code=2),
    # The report printer builds its JSON from joins; the bytes must be the
    # stdlib's, and the library's plain-JSON document through the stdlib:
    # 255 minimizer flats on the coordinate k=8 products, 33 localizations on
    # the 3-D grid, and 11 localizations sharing 5 results on the unit cube's
    # planes with a slanted one.
    case("stdlib-indent-compute", ["compute", "--poly", "x*y^2*z^2*(x+y+z)"], True, stdlib_indent),
    case("stdlib-indent-localize", ["localize", "--poly", "x*(x-1)*y*(y-1)*(x-y)"], True, stdlib_indent),
    *[
        case(f"library-document-{name}", [command, "--poly", poly], True, library_document(poly))
        for name, command, poly in [
            ("shuffled-coordinates", "compute", "vars x3, x7, x1, x5, x8, x2, x6, x4; x5*x2*x8*x1*x7*x3*x6*x4"),
            ("grid-3d", "compute", GRID_3D),
            ("affine-cube", "localize", "vars x, y, z; x*(x-1)*y*(y-1)*z*(z-1)*(x+y+z-1)"),
            ("coordinates", "compute", "x1*x2*x3*x4*x5*x6*x7*x8"),
            # Central reports with member indices of 10 and more: braid A5's one
            # minimizer holds members 0-14, and k=11 has 2,047 minimizers.
            ("braid-a5", "compute", "*".join(f"(x{i}-x{j})" for i, j in combinations(range(1, 7), 2))),
            ("shuffled-coordinates-11", "compute",
             "vars x9, x3, x11, x7, x1, x5, x10, x8, x2, x6, x4; x5*x10*x2*x8*x11*x1*x7*x3*x9*x6*x4"),
            ("weighted-pencil-12", "compute",
             "vars x, y; y^2*x*(x+y)^3*(x-2*y)*(3*x+y)^2*(x+5*y)*(2*x-7*y)^3*(4*x+3*y)*(x-9*y)^2*(5*x-y)"
             "*(6*x+11*y)*(x+13*y)^2"),
        ]
    ],
]


@pytest.mark.parametrize("argv, code, read, expected", CASES)
def test_command(capsys, tmp_path, argv, code, read, expected):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    paths = {f"{{{name}}}": str(tmp_path / name) for name in FILES}
    status, out, err = run_cli(capsys, *[paths.get(arg, arg) for arg in argv])
    assert (status, read(out, err)) == (code, expected), err


def output(capsys, *argv):
    """Stdout of one successful command."""
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    return out


def test_central_input_equals_its_one_localization(capsys):
    # compute solves central input with rlct_central, localize with
    # rlct_affine; on normal-crossing input with a tie both take the pair and
    # flats from one function.
    poly = "vars x, y, z; (x + 2*y - z)^3*(3*x - y)^3*(y + 5*z)"
    whole = json.loads(output(capsys, "compute", "--poly", poly))
    (local,) = json.loads(output(capsys, "localize", "--poly", poly))["localizations"]
    keys = ("lambda", "m", "minimizer_flats", "witness_chain")
    assert [whole[k] for k in keys] == [local[k] for k in keys], (whole, local)
    assert (whole["lambda"], whole["m"], len(whole["minimizer_flats"])) == ("1/3", 2, 3), whole
    assert local["point"] == ["0", "0", "0"], local["point"]


def test_parse_output_reads_back(capsys, tmp_path):
    # compute reads back what parse prints. CSV drops the variable names, so
    # that file is checked on csv-format output only.
    poly = "vars x, y; (1/2*x - y + 3)^2*(x+y)*x*(x-1)"
    (tmp_path / "arr.json").write_text(output(capsys, "parse", "--poly", poly))
    (tmp_path / "arr.csv").write_text(output(capsys, "parse", "--poly", poly, "--format", "csv"))
    a = output(capsys, "compute", "--poly", poly)
    assert a and a == output(capsys, "compute", "--input", str(tmp_path / "arr.json"))
    a = output(capsys, "compute", "--poly", poly, "--format", "csv")
    assert a and a == output(capsys, "compute", "--input", str(tmp_path / "arr.csv"), "--dim", "2", "--format", "csv")
