"""Golden CLI output: the SHA-256 of stdout for fixed inputs.

Output order (flats, localizations, witness chains) is a behaviour, not an
implementation detail, so these digests pin the exact bytes `rlct` prints.
A digest may only change together with a deliberate, documented change to
the output format.
"""

import hashlib
import json

import pytest

from rlct.cli import main


def _braid(k):
    names = [f"x{i}" for i in range(1, k + 1)]
    factors = [f"({a} - {b})" for i, a in enumerate(names) for b in names[i + 1:]]
    return "vars " + ", ".join(names) + "; " + "*".join(factors)


def _grid_with_diagonal(size):
    factors = [f"(x - {c})" if c else "x" for c in range(size)]
    factors += [f"(y - {c})" if c else "y" for c in range(size)]
    factors.append("(x - y)")
    return "vars x, y; " + "*".join(factors)


PARALLEL_DOUBLE_PLANES = {
    "normals": [[0, 0, 1], [0, 0, 1]],
    "offsets": [0, -1],
    "multiplicities": [2, 2],
}

# (case id, argv, sha256 of stdout). Digests were recorded before the
# lattice and localization closures were merged into one engine.
CASES = [
    (
        "four-planes",
        ["compute", "--poly", "x*y^2*z^2*(x+y+z)"],
        "51319c088ec61b95dafbb1925e4e18c2a4deb4d181132768e3f290afa920c6b4",
    ),
    (
        "braid-A4-verify",
        ["compute", "--poly", _braid(5), "--verify"],
        "08308c4202ea1edb8b6f61b7268db965d1bacc1849ed5e545efd4c52c1f04705",
    ),
    (
        "coordinate-k5",
        ["compute", "--poly", "vars a, b, c, d, e; a*b*c*d*e"],
        "c8581005531640c9b87f9be049793cc5da2a2b5e983a3ec683d036e26c6317da",
    ),
    (
        "grid-4x4-diagonal",
        ["localize", "--poly", _grid_with_diagonal(4)],
        "8ae328e73e304b4644fd57460706b9b24897423648173bf22902410bd18f0683",
    ),
    (
        "double-point-line",
        ["compute", "--poly", "x^2*(x-1)"],
        "9c8d364271cbe706feef7fac4965b18204cbab1880904fcc66d08379bf260ddc",
    ),
    (
        "parallel-double-planes",
        ["localize", "--input", "{parallel}"],
        "8e8e0ef4fab2088e2d87a989a8547897f872fa63d7dba41d5516ec1e1505c560",
    ),
    (
        "grid-human",
        ["compute", "--poly", _grid_with_diagonal(3), "--format", "human"],
        "2191fee5dfcb757b9c6d8fbbde651f35717a73867962b86a1ebcefe2db5c3ab1",
    ),
    (
        "braid-A3-csv",
        ["compute", "--poly", _braid(4), "--format", "csv"],
        "54b73d1638dfbc88a3716314ac9ab3fbf9e506d2a3a5e03dbbe5b613291f7d69",
    ),
    # Recorded before estimate_volume reused a descending sweep's draw. The
    # samples cross a chunk boundary; CSV prints values computed from integer
    # hit counts, so no BLAS rounding enters the digest.
    (
        "volume-fit-csv",
        ["volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--samples", "70001", "--seed", "3",
         "--format", "csv"],
        "18a3ef9c4eafa913f19e2fcec5858e24d9e41c6c5a7188e2af3671f00d063120",
    ),
]


@pytest.mark.parametrize("argv, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_stdout_digest(capsys, tmp_path, argv, digest):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(PARALLEL_DOUBLE_PLANES))
    code = main([str(path) if a == "{parallel}" else a for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
