"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All randomness is seeded, including the Monte Carlo criteria, so the
suite is reproducible bit for bit.
"""

import math
import random
import time
from fractions import Fraction

from rlct import (
    ArrangementSpec,
    RationalMatrix,
    build_lattice,
    default_epsilon_grid,
    estimate_volume,
    fit_asymptotics,
    lattice_bruteforce,
    longest_chain_bruteforce,
    normalize,
    parse_factored_product,
    rlct_affine,
    rlct_central,
    rlct_line_arrangement_2d,
)

from conftest import matmul, random_central_arrangement, random_invertible

F = Fraction
MC_SEED = 2  # pinned Monte Carlo stream for the stochastic criterion


def report(criterion: str, failures: list, detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert not failures, f"criterion {criterion}: " + "; ".join(str(f) for f in failures)


def arr_of(text):
    return normalize(parse_factored_product(text))


def test_criterion_1_golden_values():
    """Exact pairs for every named example, all under one second combined."""
    failures = []
    start = time.perf_counter()
    cases = [
        ("x", (F(1), 1)),
        ("x*y", (F(1), 2)),
        ("x^2*y^3", (F(1, 3), 1)),
        ("x*y*(x+y)*(x-y)", (F(1, 2), 1)),
    ]
    for text, expected in cases:
        got = rlct_central(arr_of(text)).pair.astuple()
        if got != expected:
            failures.append(f"{text}: got {got}, want {expected}")
    for n in range(3, 9):
        rows = [[1, k] for k in range(n - 1)] + [[0, 1]]
        got = rlct_central(normalize(ArrangementSpec(rows, [1] * n))).pair.astuple()
        if got != (F(2, n), 1):
            failures.append(f"{n} concurrent lines: got {got}")
    result = rlct_central(arr_of("x*y^2*z^2*(x+y+z)"))
    if result.pair.astuple() != (F(1, 2), 3):
        failures.append(f"four planes: got {result.pair.astuple()}")
    if len(result.witness_chain) != 3:
        failures.append(f"four planes witness length {len(result.witness_chain)} != 3")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report("1 (golden values)", failures, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_oracle_equivalence():
    """500 random arrangements: closure lattice == all-subsets lattice, DP m == brute m."""
    failures = []
    rng = random.Random(20201)
    start = time.perf_counter()
    chain_checked = 0
    for i in range(500):
        arr = random_central_arrangement(
            rng, max_n=10, max_d=5, max_mult=4, max_den=2 if i % 3 == 0 else 1
        )
        produced = build_lattice(arr)
        reference = lattice_bruteforce(arr)
        if [f.to_json_dict() for f in produced.flats] != [f.to_json_dict() for f in reference.flats]:
            failures.append(f"lattice mismatch at instance {i} (n={arr.n}, d={arr.dim})")
            break
        result = rlct_central(arr)
        if len(result.minimizer_flats) <= 50:
            chain_checked += 1
            if longest_chain_bruteforce(result.minimizer_flats) != result.pair.multiplicity:
                failures.append(f"chain mismatch at instance {i}")
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    if chain_checked < 450:
        failures.append(f"only {chain_checked} chain comparisons ran")
    report("2 (oracle equivalence)", failures, f"500 instances, {elapsed:.1f}s")


def test_criterion_3_closed_form_cross_check():
    """1000 random central line arrangements: lattice route == closed form."""
    failures = []
    rng = random.Random(20301)
    for i in range(1000):
        n = rng.randint(1, 6)
        mults = [rng.randint(1, 5) for _ in range(n)]
        slopes = rng.sample(range(-15, 16), n)
        arr = normalize(ArrangementSpec([[1, k] for k in slopes], mults))
        via_lattice = rlct_central(arr).pair
        via_formula = rlct_line_arrangement_2d(mults)
        if via_lattice != via_formula:
            failures.append(f"instance {i}: {via_lattice} != {via_formula} for s={sorted(mults)}")
            break
    report("3 (2-D closed form)", failures, "1000 instances")


def test_criterion_4_invariance_suite():
    """Exact invariances, 200 random instances per law."""
    failures = []

    rng = random.Random(20401)
    for i in range(200):
        arr = random_central_arrangement(rng, max_n=6, max_d=4)
        t = random_invertible(rng, arr.dim)
        image = normalize(ArrangementSpec(matmul(arr.normals, t), arr.multiplicities))
        if rlct_central(image).pair != rlct_central(arr).pair:
            failures.append(f"coordinate change broke instance {i}")
            break

    rng = random.Random(20402)
    for i in range(200):
        arr = random_central_arrangement(rng, max_n=6, max_d=4)
        row = rng.randrange(arr.n)
        scale = F(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 4))
        scaled = normalize(
            ArrangementSpec(
                [[scale * x for x in r] if j == row else r for j, r in enumerate(arr.normals)], arr.multiplicities
            )
        )
        if rlct_central(scaled).pair != rlct_central(arr).pair:
            failures.append(f"hyperplane scaling broke instance {i}")
            break

    rng = random.Random(20403)
    for i in range(200):
        arr = random_central_arrangement(rng, max_n=6, max_d=4)
        k = rng.randint(2, 5)
        base = rlct_central(arr).pair
        scaled = rlct_central(
            normalize(ArrangementSpec(arr.normals, tuple(k * s for s in arr.multiplicities)))
        ).pair
        if scaled.threshold != base.threshold / k or scaled.multiplicity != base.multiplicity:
            failures.append(f"multiplicity scaling broke instance {i}")
            break

    rng = random.Random(20404)
    for i in range(200):
        arr = random_central_arrangement(rng, max_n=5, max_d=4)
        before = rlct_central(arr).pair.threshold
        while True:
            extra = [F(rng.randint(-4, 4)) for _ in range(arr.dim)]
            if any(extra):
                break
        bigger = normalize(
            ArrangementSpec(
                list(arr.normals.entries) + [extra],
                list(arr.multiplicities) + [rng.randint(1, 4)],
            )
        )
        if rlct_central(bigger).pair.threshold > before:
            failures.append(f"adding a hyperplane raised the threshold at instance {i}")
            break

    rng = random.Random(20405)
    for i in range(200):
        arr = random_central_arrangement(rng, max_n=7, max_d=5)
        pair = rlct_central(arr).pair
        if not (F(1, sum(arr.multiplicities)) <= pair.threshold <= F(1, max(arr.multiplicities))):
            failures.append(f"threshold bounds broke instance {i}")
            break
        if not 1 <= pair.multiplicity <= arr.dim:
            failures.append(f"multiplicity bounds broke instance {i}")
            break

    report("4 (invariance suite)", failures, "5 laws x 200 instances")


def test_criterion_5_volume_asymptotics():
    """Monte Carlo volumes match the closed form and recover the exponents."""
    failures = []
    start = time.perf_counter()
    grid = default_epsilon_grid()
    assert len(grid) == 9 and max(grid) == 1e-2 and abs(min(grid) - 1e-6) < 1e-18

    arr = arr_of("x*y")
    samples = [estimate_volume(arr, None, eps, 1_000_000, seed=MC_SEED) for eps in grid]
    for s in samples:
        exact = 4.0 * s.epsilon * (1.0 - math.log(s.epsilon))
        if abs(s.volume_estimate - exact) > 3.0 * s.std_error:
            failures.append(
                f"V({s.epsilon:g}) = {s.volume_estimate:g} misses {exact:g} by > 3 sigma"
            )
    fit_l = fit_asymptotics(samples, fixed_multiplicity=2)
    if abs(fit_l.lambda_hat - 1.0) > 0.1:
        failures.append(f"constrained lambda_hat {fit_l.lambda_hat:.4f} outside 1.0 +- 0.1")
    fit_m = fit_asymptotics(samples, fixed_threshold=1.0)
    if abs(fit_m.m_hat - 2.0) > 0.75:
        failures.append(f"constrained m_hat {fit_m.m_hat:.4f} outside 2.0 +- 0.75")

    arr3 = arr_of("x*y^2*z^2*(x+y+z)")
    samples3 = [estimate_volume(arr3, None, eps, 1_000_000, seed=MC_SEED) for eps in grid]
    fit3 = fit_asymptotics(samples3, fixed_multiplicity=3)
    if abs(fit3.lambda_hat - 0.5) > 0.1:
        failures.append(f"3-D constrained lambda_hat {fit3.lambda_hat:.4f} outside 0.5 +- 0.1")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(
        "5 (volume asymptotics)",
        failures,
        f"lambda_hat={fit_l.lambda_hat:.3f}, m_hat={fit_m.m_hat:.3f}, "
        f"3D lambda_hat={fit3.lambda_hat:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_performance():
    """The 4-plane benchmark under 50 ms; n=14, d=6 generic under 5 s."""
    failures = []
    bench = normalize(
        ArrangementSpec([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 2, 2, 1])
    )
    rlct_central(bench)  # warm: imports, allocator
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        rlct_central(bench)
        times.append(time.perf_counter() - t0)
    best = min(times)
    if best >= 0.050:
        failures.append(f"benchmark arrangement took {best * 1000:.1f} ms >= 50 ms")

    rng = random.Random(1)  # pinned draw, verified generic: 3473 flats
    rows = [[F(rng.randint(-99, 99)) for _ in range(6)] for _ in range(14)]
    arr = normalize(ArrangementSpec(rows, [rng.randint(1, 4) for _ in range(14)]))
    t0 = time.perf_counter()
    result = rlct_central(arr)
    elapsed = time.perf_counter() - t0
    expected_flats = sum(math.comb(14, c) for c in range(1, 6)) + 1
    if len(result.lattice.flats) != expected_flats:
        failures.append(
            f"pinned generic draw produced {len(result.lattice.flats)} flats, expected {expected_flats}"
        )
    if elapsed >= 5.0:
        failures.append(f"n=14, d=6 took {elapsed:.2f}s >= 5s")
    report(
        "6 (performance)",
        failures,
        f"benchmark {best * 1000:.2f} ms, n=14 d=6 {elapsed:.2f}s, {len(result.lattice.flats)} flats",
    )


def test_criterion_7_affine_localization():
    """The affine worked examples, plus central passthrough equality."""
    failures = []

    report_a = rlct_affine(arr_of("x*(x-1)"))
    if report_a.global_pair.astuple() != (F(1), 1) or len(report_a.localizations) != 2:
        failures.append(f"x(x-1): {report_a.global_pair}, {len(report_a.localizations)} localizations")

    report_b = rlct_affine(arr_of("x^2*(x-1)"))
    if report_b.global_pair.astuple() != (F(1, 2), 1):
        failures.append(f"x^2(x-1): {report_b.global_pair}")
    pairs_b = sorted(loc.pair.astuple() for loc in report_b.localizations)
    if pairs_b != [(F(1, 2), 1), (F(1), 1)]:
        failures.append(f"x^2(x-1) local pairs: {pairs_b}")

    planes = normalize(
        ArrangementSpec([[0, 0, 1], [0, 0, 1]], [2, 2], offsets=[0, -1])
    )
    report_c = rlct_affine(planes)
    if report_c.global_pair.astuple() != (F(1, 2), 1) or len(report_c.localizations) != 2:
        failures.append(f"parallel double planes: {report_c.global_pair}")

    for text in ["x*y", "x^2*y^3", "x*y^2*z^2*(x+y+z)"]:
        arr = arr_of(text)
        via_affine = rlct_affine(arr)
        via_central = rlct_central(arr)
        if via_affine.global_pair != via_central.pair:
            failures.append(f"{text}: affine {via_affine.global_pair} != central {via_central.pair}")
        if len(via_affine.localizations) != 1:
            failures.append(f"{text}: {len(via_affine.localizations)} localizations on central input")

    report("7 (affine localization)", failures)
