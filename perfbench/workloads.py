"""Seeded workload generators: each op is one `rlct` command line.

The program only ever sees the generated `--poly` strings. The seed changes
coefficients, offsets, Monte Carlo streams and the order of hyperplanes and
variables; the sizes (n, d, k, sample counts) are fixed per workload, so the
work per pass stays comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from expect import (
    AffineExpect,
    CentralExpect,
    VolumeExpect,
    braid_closed_form,
    coordinate_closed_form,
    generic_closed_form,
    pencil_closed_form,
)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    expect: object  # has check(doc) -> list of problems


# Spans that fire on every workload; see spans.BINDINGS.
CENTRAL_SPANS = ("cli.main", "parser.parse", "arrangement.normalize", "threshold.rlct_central",
                 "lattice.build_lattice")


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    warmup: tuple[str, ...]
    # One pass of `ops`, with the host-speed references between them, at the
    # baseline commit on a shared 2-CPU host, in seconds. A run makes
    # round(seconds / nominal_pass_s) passes, so every commit times the same
    # op list the same number of times.
    nominal_pass_s: float
    # Spans that must fire in a traced pass; one that does not is reported missing.
    spans: tuple[str, ...]
    probes: list[Op] = field(default_factory=list)
    # The host-speed reference the op times are scaled by (see hostspeed.py).
    reference: str = "interpreter"


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def linear_form(coeffs, names, const=0):
    parts = []
    for c, v in zip(coeffs, names):
        if c:
            parts.append(("-" if c < 0 else "+", v if abs(c) == 1 else f"{abs(c)}*{v}"))
    if const:
        parts.append(("-" if const < 0 else "+", str(abs(const))))
    text = " ".join(f"{sign} {body}" for sign, body in parts)
    return "(" + (text[2:] if text.startswith("+") else "-" + text[2:]) + ")"


def poly(rows, mults, names, offsets=None):
    """Factored product with a `vars` declaration pinning order and dimension."""
    offsets = offsets or [0] * len(rows)
    factors = [
        linear_form(r, names, b) + (f"^{s}" if s > 1 else "")
        for r, b, s in zip(rows, offsets, mults)
    ]
    return "vars " + ", ".join(names) + "; " + "*".join(factors)


def variables(d):
    return [f"x{i + 1}" for i in range(d)]


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# central-generic
# ---------------------------------------------------------------------------

# Every op stays under about 0.5 s, so a run repeats each one several times.
# Two shapes come twice: the median falls among the runs of the two n=12 d=4
# draws, and the runs of the two n=11 d=6 draws, the costliest, hold the ten
# beyond the tail. A generic draw's cost depends on its shape, not its seed.
GENERIC_SHAPES = [
    (8, 4), (9, 4), (10, 4), (11, 4), (12, 4), (12, 4), (13, 4), (8, 5), (9, 5), (10, 5), (11, 5),
    (12, 5), (8, 6), (9, 6), (10, 6), (11, 6), (11, 6),
]


def generic_draw(rng, n, d):
    """Criterion-6 generator: integer normals in [-99, 99], multiplicities 1-4."""
    rows = [[rng.randint(-99, 99) for _ in range(d)] for _ in range(n)]
    return rows, [rng.randint(1, 4) for _ in range(n)]


def central_op(label, rows, mults, closed_form):
    argv = ("compute", "--poly", poly(rows, mults, variables(len(rows[0]))))
    return Op(label, argv, CentralExpect(rows, mults, closed_form))


def central_generic(seed):
    rng = random.Random(f"central-generic/{seed}")
    ops = []
    for n, d in GENERIC_SHAPES:
        rows, mults = generic_draw(rng, n, d)
        ops.append(central_op(f"generic n={n} d={d}", rows, mults, generic_closed_form))
    return Workload(
        name="central-generic",
        ops=ops,
        warmup=("compute", "--poly", "x*y^2*z^2*(x+y+z)"),
        nominal_pass_s=3.0,
        spans=CENTRAL_SPANS,
    )


# ---------------------------------------------------------------------------
# central-degenerate
# ---------------------------------------------------------------------------


def unit_rows(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def degenerate_op(rng, label, rows, mults, closed_form):
    """Permute the coordinates and the factor order by the seed."""
    perm = shuffled(rng, range(len(rows[0])))
    order = shuffled(rng, range(len(rows)))
    rows = [[rows[i][p] for p in perm] for i in order]
    return central_op(label, rows, [mults[i] for i in order], closed_form)


def central_degenerate(seed):
    rng = random.Random(f"central-degenerate/{seed}")
    ops = []
    # With an odd op count the median falls among the runs of braid A5,
    # between the k=7 and k=8 ops, and the tail among the runs of the three
    # k=10 s=1 ops (the same cost, unlike k=10 at other s). Every op stays
    # under about 0.5 s, so a run repeats each one several times.
    for k, s in [(6, 4), (7, 1), (7, 3), (8, 1), (8, 3), (9, 1), (9, 2), (10, 1), (10, 1), (10, 1)]:
        ops.append(degenerate_op(rng, f"coordinate k={k} s={s}", unit_rows(k), [s] * k,
                                 lambda normals, mults, k=k, s=s: coordinate_closed_form(k, s)))
    for k in (4, 5, 6, 7):
        rows = [[int(x == i) - int(x == j) for x in range(k)] for i, j in combinations(range(k), 2)]
        ops.append(degenerate_op(rng, f"braid A{k - 1}", rows, [1] * len(rows),
                                 lambda normals, mults, k=k: braid_closed_form(k)))
    for n, weighted in [(40, False), (12, True)]:
        slopes = rng.sample(range(-60, 61), n - 1)
        rows = [[0, 1]] + [[1, c] for c in slopes]
        mults = [rng.randint(1, 3) if weighted else 1 for _ in rows]
        ops.append(degenerate_op(rng, f"pencil n={n}" + (" weighted" if weighted else ""),
                                 rows, mults, lambda normals, mults: pencil_closed_form(mults)))
    golden = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    ops.append(degenerate_op(rng, "four planes", golden, [1, 2, 2, 1],
                             lambda normals, mults: (Fraction(1, 2), 3, None)))
    return Workload(
        name="central-degenerate",
        ops=ops,
        warmup=("compute", "--poly", "x*y^2*z^2*(x+y+z)"),
        nominal_pass_s=3.3,
        spans=CENTRAL_SPANS,
    )


# ---------------------------------------------------------------------------
# affine-grid
# ---------------------------------------------------------------------------


def affine_op(rng, label, rows, offsets, mults):
    """Shuffle the factor order by the seed."""
    order = shuffled(rng, range(len(rows)))
    rows, offsets, mults = ([seq[i] for i in order] for seq in (rows, offsets, mults))
    argv = ("compute", "--poly", poly(rows, mults, variables(len(rows[0])), offsets))
    return Op(label, argv, AffineExpect(rows, offsets, mults))


def affine_grid(seed):
    rng = random.Random(f"affine-grid/{seed}")
    ops = []
    for k in (4, 6, 8, 10, 12):
        # Lines x = tx + i and y = ty + j for i, j < k, and the diagonal through
        # (tx, ty): k^2 points. The seed moves the grid, not its structure.
        tx, ty = rng.randint(-50, 50), rng.randint(-50, 50)
        rows = [[1, 0]] * k + [[0, 1]] * k + [[1, -1]]
        offsets = [-tx - i for i in range(k)] + [-ty - j for j in range(k)] + [ty - tx]
        ops.append(affine_op(rng, f"grid2 k={k}", rows, offsets, [1] * len(rows)))
    for k in (3, 4, 5):
        # Planes x = t + i, y = t + j, z = t + l for i, j, l < k, and the slanted
        # plane through t + (k-1, k-1, 0): k^3 + 3k(k-1)/2 points (155 at k=5).
        t = [rng.randint(-50, 50) for _ in range(3)]
        rows = [[1, 0, 0]] * k + [[0, 1, 0]] * k + [[0, 0, 1]] * k + [[1, 1, 1]]
        offsets = [-t[axis] - i for axis in range(3) for i in range(k)] + [-sum(t) - 2 * k + 2]
        ops.append(affine_op(rng, f"grid3 k={k}", rows, offsets, [1] * len(rows)))
    # The two n=10 d=4 draws, the costliest, hold the ten runs beyond the tail.
    # Every op stays under about 0.5 s, so a run repeats each one several times.
    for n, d in [(8, 3), (10, 3), (12, 3), (14, 3), (8, 4), (10, 4), (10, 4)]:
        rows, mults = generic_draw(rng, n, d)
        offsets = [rng.randint(-99, 99) for _ in range(n)]
        ops.append(affine_op(rng, f"affine generic n={n} d={d}", rows, offsets, mults))
    return Workload(
        name="affine-grid",
        ops=ops,
        warmup=("compute", "--poly", "vars x, y; x*(x-1)*y*(y-1)*(x-y)"),
        nominal_pass_s=2.4,
        spans=CENTRAL_SPANS + ("threshold.rlct_affine", "threshold.localize"),
    )


# ---------------------------------------------------------------------------
# volume-fit
# ---------------------------------------------------------------------------

# (rows, multiplicities, samples per grid point, Monte Carlo seeds per pass).
# x*y has few hits at eps = 1e-6, so it needs many more samples for its
# fitted lambda to stay well inside the tolerance at every seed.
VOLUME_CASES = [
    ([[1, 0], [0, 1]], [1, 1], 2_000_000, 1),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 2, 2, 1], 250_000, 2),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], [1, 1, 2, 1], 250_000, 2),
]


def volume_op(label, rows, mults, samples, mc_seed):
    argv = ("volume-fit", "--poly", poly(rows, mults, variables(len(rows[0]))),
            "--samples", str(samples), "--seed", str(mc_seed))
    return Op(label, argv, VolumeExpect(rows, mults))


def volume_fit(seed):
    rng = random.Random(f"volume-fit/{seed}")
    ops = []
    for rows, mults, samples, count in VOLUME_CASES:
        for _ in range(count):
            mc_seed = rng.randrange(2**32)
            ops.append(volume_op(f"volume d={len(rows[0])} seed={mc_seed}", rows, mults, samples, mc_seed))
    # ROADMAP item 4's float-overflow reproduction. It is a known defect, not a
    # timed op: it runs once per run and its outcome is reported beside the
    # metrics, so a fix shows as it flipping from failing to passing.
    overflow = Op(
        "overflow x^200*(x-1000)^200 on [999, 1001]",
        ("volume-fit", "--poly", "x^200*(x-1000)^200", "--box", "999,1001",
         "--samples", "250000", "--seed", str(rng.randrange(2**32))),
        VolumeExpect([[1], [1]], [200, 200], offsets=[0, -1000], pair=(Fraction(1, 200), 1)),
    )
    return Workload(
        name="volume-fit",
        ops=ops,
        warmup=("volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--samples", "65536"),
        nominal_pass_s=3.3,
        spans=CENTRAL_SPANS + ("volume.estimate_volume", "volume.fit_asymptotics"),
        probes=[overflow],
        reference="vectorized",
    )


WORKLOADS = {
    "central-generic": central_generic,
    "central-degenerate": central_degenerate,
    "affine-grid": affine_grid,
    "volume-fit": volume_fit,
}


def build(name, seed):
    return WORKLOADS[name](seed)
