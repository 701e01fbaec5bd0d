"""Expected outputs from sources independent of the timed path, and the checks.

Every op's stdout is compared against values computed here, outside the
timed region. The sources are closed forms (generic, coordinate, braid and
pencil arrangements), an all-points enumeration for affine inputs that
solves small systems in exact rationals, and the brute-force oracles
`lattice_bruteforce` and `longest_chain_bruteforce` for ops small enough
for them. None of this calls `build_lattice`, `rlct_central`,
`rlct_affine` or `estimate_volume`.

Member indices in the program's output refer to the normalized order of
the hyperplanes, so `canonical` re-derives that order here: scale each
form so the first nonzero normal entry is 1, then sort by (normal, offset).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# Tolerance of acceptance criterion 5 on lambda_hat with m fixed.
LAMBDA_TOLERANCE = 0.1
# Brute-force lattices grow as 2^n; above this the closed forms carry the check.
BRUTE_MAX_HYPERPLANES = 8


def canonical(normals, offsets, mults):
    """(normals, offsets, mults) in the program's normalized row order."""
    rows = []
    for normal, offset, mult in zip(normals, offsets, mults):
        lead = next(Fraction(x) for x in normal if x != 0)
        rows.append((tuple(Fraction(x) / lead for x in normal), Fraction(offset) / lead, mult))
    rows.sort(key=lambda row: (row[0], row[1]))
    keys = [(row[0], row[1]) for row in rows]
    if len(set(keys)) != len(keys):
        raise ValueError("generated input repeats a hyperplane")
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def pair_key(pair):
    """Singularity order as a sort key: smaller threshold, then larger m."""
    return (pair[0], -pair[1])


def longest_chain_of_sets(sets):
    """Longest chain under strict inclusion among member sets."""
    ordered = sorted(sets, key=len)
    best = {}
    for i, s in enumerate(ordered):
        best[s] = 1 + max((best[t] for t in ordered[:i] if t < s), default=0)
    return max(best.values(), default=0)


def determinant(rows):
    """Exact determinant of an integer matrix by fraction-free Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_row(row):
    """The row scaled by its common denominator; scaling keeps (in)dependence."""
    scale = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * scale) for x in row]


def solve(rows, rhs):
    """Unique solution of rows . x = rhs, or None when rows are dependent."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                factor = m[i][col] / m[col][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# Closed forms for central arrangements. Each returns (lambda, m, sets) where
# sets is the set of member sets of the minimizer flats, in canonical indices.
# ---------------------------------------------------------------------------


def generic_closed_form(normals, mults):
    """Central arrangement in general position (every d normals independent).

    Its flats are the intersections of fewer than d hyperplanes, each with
    exactly those members, plus the origin with all n members when n >= d.
    """
    n, d = len(normals), len(normals[0])
    rows = [integer_row(r) for r in normals]
    if n >= d and any(determinant([rows[j] for j in c]) == 0 for c in combinations(range(n), d)):
        raise ValueError("generated central draw is not in general position")
    candidates = [frozenset(c) for k in range(1, min(d, n + 1)) for c in combinations(range(n), k)]
    ratios = {s: Fraction(len(s), sum(mults[j] for j in s)) for s in candidates}
    if n >= d:
        ratios[frozenset(range(n))] = Fraction(d, sum(mults))
    lam = min(ratios.values())
    sets = {s for s, r in ratios.items() if r == lam}
    return lam, longest_chain_of_sets(sets), sets


def coordinate_closed_form(k, s):
    """x_1^s ... x_k^s: every flat has ratio 1/s, so all 2^k - 1 are minimizers."""
    sets = {frozenset(c) for r in range(1, k + 1) for c in combinations(range(k), r)}
    return Fraction(1, s), k, sets


def braid_closed_form(k):
    """A_{k-1}: a flat is a set partition, ratio sum(|B|-1) / sum(C(|B|,2)).

    Each block contributes (|B|-1) / ((|B|-1)|B|/2) >= 2/k, with equality only
    for one block of size k, so the top flat is the unique minimizer.
    """
    return Fraction(2, k), 1, {frozenset(range(k * (k - 1) // 2))}


def pencil_closed_form(mults):
    """Central lines in the plane: the closed form plus its minimizer flats."""
    from rlct import rlct_line_arrangement_2d

    pair = rlct_line_arrangement_2d(list(mults))
    lam = pair.threshold
    sets = {frozenset([j]) for j, s in enumerate(mults) if Fraction(1, s) == lam}
    if len(mults) >= 2 and Fraction(2, sum(mults)) == lam:
        sets.add(frozenset(range(len(mults))))
    return lam, pair.multiplicity, sets


def brute_central(normals, mults):
    """lattice_bruteforce minimizers (as JSON dicts) and the exhaustive chain length."""
    from rlct import ArrangementSpec, lattice_bruteforce, longest_chain_bruteforce, normalize
    from rlct.oracle import MAX_BRUTEFORCE_CHAIN_FLATS

    lat = lattice_bruteforce(normalize(ArrangementSpec([list(r) for r in normals], list(mults))))
    ratios = [Fraction(f.codim, f.weight) for f in lat.flats]
    lam = min(ratios)
    minimizers = [f for f, r in zip(lat.flats, ratios) if r == lam]
    chain = longest_chain_bruteforce(minimizers) if len(minimizers) <= MAX_BRUTEFORCE_CHAIN_FLATS else None
    return lam, chain, [f.to_json_dict() for f in minimizers]


def local_pair(normals, mults):
    """Central pair of the hyperplanes through one point of an affine arrangement."""
    from rlct import rlct_line_arrangement_2d

    d = len(normals[0])
    if d == 2:
        pair = rlct_line_arrangement_2d(list(mults))
        return pair.threshold, pair.multiplicity
    if len(normals) == d:
        # d independent hyperplanes: flats are all subsets, ratio |S| / w(S).
        top = max(mults)
        return Fraction(1, top), mults.count(top)
    lam, chain, _ = brute_central(normals, mults)
    if chain is None:
        raise ValueError("local arrangement too large for the chain oracle")
    return lam, chain


# ---------------------------------------------------------------------------
# Expectations: one per op, computed lazily on first use.
# ---------------------------------------------------------------------------


def _input_problems(doc_input, normals, offsets, mults):
    got_normals = [tuple(Fraction(x) for x in row) for row in doc_input["normals"]]
    got_offsets = [Fraction(x) for x in doc_input["offsets"]]
    if got_normals != list(normals) or got_offsets != list(offsets):
        return ["normalized input differs from the generated hyperplanes"]
    if list(doc_input["multiplicities"]) != list(mults):
        return ["normalized multiplicities differ from the generated ones"]
    return []


class CentralExpect:
    """`rlct compute` on a central arrangement.

    closed_form(normals, mults) -> (lambda, m, minimizer member sets or None).
    Inputs with at most BRUTE_MAX_HYPERPLANES hyperplanes are also checked
    flat by flat against lattice_bruteforce and longest_chain_bruteforce.
    """

    def __init__(self, normals, mults, closed_form):
        self.normals, self.offsets, self.mults = canonical(normals, [0] * len(normals), mults)
        self.closed_form = closed_form
        self._expected = None

    def expected(self):
        if self._expected is None:
            lam, m, sets = self.closed_form(self.normals, self.mults)
            brute = None
            if len(self.normals) <= BRUTE_MAX_HYPERPLANES:
                brute = brute_central(self.normals, self.mults)
            self._expected = (lam, m, sets, brute)
        return self._expected

    def check(self, doc):
        lam, m, sets, brute = self.expected()
        problems = _input_problems(doc["input"], self.normals, self.offsets, self.mults)
        got_lam, got_m = Fraction(doc["lambda"]), doc["m"]
        if (got_lam, got_m) != (lam, m):
            problems.append(f"pair ({got_lam}, {got_m}) != expected ({lam}, {m})")
        flats = doc["minimizer_flats"]
        got_sets = [frozenset(f["members"]) for f in flats]
        if sets is not None and (len(got_sets) != len(sets) or set(got_sets) != sets):
            problems.append(f"{len(got_sets)} minimizer flats, expected {len(sets)} with other members")
        for f in flats:
            if Fraction(f["codim"], f["s"]) != lam or f["s"] != sum(self.mults[j] for j in f["members"]):
                problems.append(f"minimizer flat {f['members']} has the wrong weight or ratio")
                break
        chain = [frozenset(f["members"]) for f in doc["witness_chain"]]
        if len(chain) != m or any(not a > b for a, b in zip(chain, chain[1:])):
            problems.append("witness chain is not a strictly nested chain of length m")
        elif not set(chain) <= set(got_sets):
            problems.append("witness chain leaves the minimizer flats")
        if brute is not None:
            brute_lam, brute_chain, brute_flats = brute
            if brute_lam != lam or (brute_chain is not None and brute_chain != m):
                problems.append(f"closed form ({lam}, {m}) disagrees with brute force ({brute_lam}, {brute_chain})")
            if flats != brute_flats:
                problems.append("minimizer flats differ from lattice_bruteforce")
        return problems


class AffineExpect:
    """`rlct compute` on an affine arrangement whose maximal localizations are points.

    Every d-subset with independent normals is solved exactly; the points
    found, each with all hyperplanes through it, are the localizations. The
    inputs are built so that no positive-dimensional flat is maximal: every
    flat of dimension >= 1 meets some other hyperplane in a point.
    """

    def __init__(self, normals, offsets, mults):
        self.normals, self.offsets, self.mults = canonical(normals, offsets, mults)
        self._expected = None

    def expected(self):
        if self._expected is None:
            n, d = len(self.normals), len(self.normals[0])
            points = {}
            for subset in combinations(range(n), d):
                point = solve([self.normals[j] for j in subset], [-self.offsets[j] for j in subset])
                if point is None or point in points:
                    continue
                points[point] = [
                    j for j in range(n)
                    if sum(a * x for a, x in zip(self.normals[j], point)) + self.offsets[j] == 0
                ]
            local = {
                point: local_pair([self.normals[j] for j in members], [self.mults[j] for j in members])
                + (sorted(self.mults[j] for j in members),)
                for point, members in points.items()
            }
            best = min((lp[:2] for lp in local.values()), key=pair_key)
            self._expected = (best, local)
        return self._expected

    def check(self, doc):
        (lam, m), local = self.expected()
        problems = _input_problems(doc["input"], self.normals, self.offsets, self.mults)
        if (Fraction(doc["lambda"]), doc["m"]) != (lam, m):
            problems.append(f"global pair ({doc['lambda']}, {doc['m']}) != expected ({lam}, {m})")
        locs = doc["localizations"]
        if len(locs) != len(local):
            problems.append(f"{len(locs)} localizations, expected {len(local)}")
        for loc in locs:
            point = tuple(Fraction(x) for x in loc["point"])
            want = local.get(point)
            got = (Fraction(loc["lambda"]), loc["m"], sorted(loc["multiplicities"]))
            if want is None or got != want:
                problems.append(f"localization at {loc['point']}: got {got[:2]}, expected {want and want[:2]}")
                break
        global_point = tuple(Fraction(x) for x in doc["global_point"])
        if global_point not in local or local[global_point][:2] != (lam, m):
            problems.append("global_point does not attain the global pair")
        return problems


class VolumeExpect:
    """`rlct volume-fit`: exact pair from brute force, fitted lambda within tolerance.

    An affine input passes its exact pair in `pair`; the brute-force lattice
    covers central inputs only.
    """

    def __init__(self, normals, mults, offsets=None, pair=None):
        offsets = offsets or [0] * len(normals)
        self.normals, self.offsets, self.mults = canonical(normals, offsets, mults)
        self._expected = pair

    def expected(self):
        if self._expected is None:
            lam, chain, _ = brute_central(self.normals, self.mults)
            self._expected = (lam, chain)
        return self._expected

    def lambda_err(self, doc):
        return abs(doc["fit_fixed_m"]["lambda_hat"] - float(self.expected()[0]))

    def check(self, doc):
        lam, m = self.expected()
        problems = _input_problems(doc["input"], self.normals, self.offsets, self.mults)
        if (Fraction(doc["exact"]["lambda"]), doc["exact"]["m"]) != (lam, m):
            problems.append(f"exact pair ({doc['exact']['lambda']}, {doc['exact']['m']}) != ({lam}, {m})")
        if doc["fit_fixed_m"]["m_hat"] != m:
            problems.append("fit_fixed_m did not fix m to the exact multiplicity")
        err = self.lambda_err(doc)
        if not err <= LAMBDA_TOLERANCE:
            problems.append(f"lambda_hat misses lambda={lam} by {err:.4f} > {LAMBDA_TOLERANCE}")
        return problems
