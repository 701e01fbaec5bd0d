"""Production outputs on a seeded corpus, pinned by one SHA-256, so that
"same outputs" is a test and not a claim.

Each entry is one draw or one command: a draw contributes the JSON of
`rlct_affine`, and on central input also of `rlct_central` and of the
`build_lattice` flats, plus `box_pair` on [-1, 1]^d and [0, 2]^d; a command
contributes its exit code and stdout, run in process. `output_digests.txt`
holds one line per entry, its digest and its label, and `DIGEST` is the
SHA-256 of that file's text; on a mismatch the test names the first entry
whose own digest differs. A change of output on purpose rewrites the file
(`python tests/test_output_digest.py > tests/output_digests.txt`) and
`DIGEST` in the same change, and says which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
from fractions import Fraction
from functools import partial

from rlct import (
    ArrangementSpec,
    RlctError,
    arrangement_to_json_dict,
    build_lattice,
    normalize,
    rlct_affine,
    rlct_central,
)
from rlct.cli import main
from rlct.threshold import box_pair

DIGEST = "56ba9ff67c05a5fbe2d40f4670ee577d9f75920a3b742e86becca11ce32ba59d"
PINNED = pathlib.Path(__file__).with_name("output_digests.txt")

KINDS = ("central", "rank-deficient", "fractional", "affine", "parallel")

POLYS = [
    "x*y^2*z^2*(x+y+z)",
    "vars x, y, z; (2*x - 3*y)*(4*x + 6*y + 5*z)",
    "x^2*(x-1)",
    "x*(x-1)*y*(y-1)*(x-y)",
    "vars x, y; (1/2*x - y + 3)^2*(x+y)*x*(x-1)",
]
# Every --format of each command. volume-fit's JSON is left out: it prints
# least-squares fits at full float precision, which depend on the BLAS.
COMMANDS = [
    ["parse", "--poly", POLYS[-1]],
    *[["compute", "--poly", poly] for poly in POLYS],
    *[["compute", "--poly", poly, "--verify"] for poly in POLYS[:3]],
    *[["localize", "--poly", poly] for poly in POLYS[:4]],
    *[["localize", "--poly", poly, "--verify"] for poly in POLYS[2:4]],
    ["compute", "--poly", "(x+y"],
]
FORMATS = ("json", "csv", "human")
VOLUME_COMMANDS = [
    ["volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--samples", "20001", "--seed", "3"],
    ["volume-fit", "--poly", "(x-1)*(y-2)*(x+y-3)", "--box", "0,2;1,3", "--selftest"],
]


def _row(d, entry):
    while True:
        row = [entry() for _ in range(d)]
        if any(row):
            return row


def draw(rng):
    """(kind, arrangement): d 1-4, n 1-8 and multiplicities 1-3."""
    d, n, kind = rng.randint(1, 4), rng.randint(1, 8), rng.choice(KINDS)
    small = partial(rng.randint, -3, 3)
    offsets = None
    if kind == "rank-deficient":
        # Every row a combination of fewer than d rows.
        base = [_row(d, small) for _ in range(rng.randint(1, max(1, d - 1)))]
        rows = [_row(len(base), small) for _ in range(n)]
        rows = [[sum(c * b[i] for c, b in zip(w, base)) for i in range(d)] for w in rows]
        rows = [row for row in rows if any(row)] or [base[0]]
    elif kind == "fractional":
        rows = [_row(d, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(n)]
    elif kind == "parallel":
        # A few directions, each taken by several hyperplanes at small offsets.
        directions = [_row(d, small) for _ in range(rng.randint(1, 3))]
        rows = [[rng.choice((1, -1, 2)) * x for x in rng.choice(directions)] for _ in range(n)]
        offsets = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in rows]
    else:
        rows = [_row(d, small) for _ in range(n)]
        if kind == "affine":
            offsets = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in rows]
    mults = [rng.randint(1, 3) for _ in rows]
    return kind, normalize(ArrangementSpec(rows, mults, offsets=offsets))


def _box(arr, lo, hi):
    try:
        return str(box_pair(arr, [(lo, hi)] * arr.dim))
    except RlctError as exc:
        return type(exc).__name__


def draw_output(arr) -> dict:
    doc = {"input": arrangement_to_json_dict(arr), "affine": rlct_affine(arr).to_json_dict(),
           "boxes": [_box(arr, -1, 1), _box(arr, 0, 2)]}
    if arr.is_central:
        doc["central"] = rlct_central(arr).to_json_dict()
        doc["lattice"] = [f.to_json_dict() for f in build_lattice(arr).flats]
    return doc


def run_cli(argv) -> bytes:
    """The exit code and stdout of one command, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def entries():
    """(label, description, bytes) for every draw and every command."""
    rng = random.Random(2424)
    for i in range(300):
        kind, arr = draw(rng)
        yield f"draw-{i:03d}", f"{kind} d={arr.dim} n={arr.n}", json.dumps(draw_output(arr)).encode()
    argvs = [argv + ["--format", fmt] for argv in COMMANDS for fmt in FORMATS]
    argvs += [argv + ["--format", fmt] for argv in VOLUME_COMMANDS for fmt in ("csv", "human")]
    for i, argv in enumerate(argvs):
        yield f"cli-{i:02d}", " ".join(argv), run_cli(argv)


def digest_lines() -> tuple[list[str], dict]:
    """One "digest label" line per entry, and each label's description."""
    lines, described = [], {}
    for label, description, payload in entries():
        lines.append(f"{hashlib.sha256(payload).hexdigest()[:16]} {label}")
        described[label] = description
    return lines, described


def test_outputs_are_pinned():
    lines, described = digest_lines()
    text = "".join(line + "\n" for line in lines)
    if hashlib.sha256(text.encode()).hexdigest() != DIGEST:
        pinned = PINNED.read_text()
        assert hashlib.sha256(pinned.encode()).hexdigest() == DIGEST, f"{PINNED.name} is not the pinned file"
        label = next((line.split()[1] for line, old in zip(lines, pinned.splitlines()) if line != old), None)
        raise AssertionError(f"outputs changed; first at {label}: {described.get(label)}")


if __name__ == "__main__":
    print("\n".join(digest_lines()[0]))
