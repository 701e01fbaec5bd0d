"""Monte Carlo volume estimates and the asymptotic fit."""

import math

import numpy as np
import pytest

import rlct.volume
from rlct import (
    DegenerateBoxError,
    DimensionError,
    InsufficientDataError,
    RlctError,
    VolumeSample,
    default_epsilon_grid,
    estimate_volume,
    fit_asymptotics,
    normalize,
    parse_factored_product,
    synthetic_samples,
)

SEED = 1


def arr_of(text):
    return normalize(parse_factored_product(text))


def xy_volume(eps: float) -> float:
    """Closed-form area of {|xy| <= eps} inside [-1,1]^2, for eps <= 1."""
    return 4.0 * eps * (1.0 - math.log(eps))


class TestEpsilonGrid:
    def test_default_grid(self):
        assert default_epsilon_grid() == [10.0 ** (-2 - 0.5 * k) for k in range(9)]

    def test_one_point_is_eps_max(self):
        assert rlct.volume.epsilon_grid(0.001, 0.3, 1) == [0.3]

    def test_infinite_eps_max_is_rejected(self):
        # 0 * inf is NaN: an unchecked grid would be nine NaNs.
        for points in (1, 9):
            with pytest.raises(RlctError, match="eps-max"):
                rlct.volume.epsilon_grid(1e-6, float("inf"), points)


class TestEstimateVolume:
    def test_interval_slab(self):
        # f = x on [-1,1]: the region |x| <= 1/2 has volume exactly 1.
        sample = estimate_volume(arr_of("x"), [(-1, 1)], 0.5, 100_000, seed=SEED)
        assert abs(sample.volume_estimate - 1.0) <= 3 * sample.std_error
        assert sample.sample_count == 100_000

    def test_everything_hits_when_epsilon_huge(self):
        sample = estimate_volume(arr_of("x*y"), None, 10.0, 10_000, seed=SEED)
        assert sample.volume_estimate == 4.0
        assert sample.std_error == 0.0

    def test_xy_brackets_closed_form(self):
        for eps in (0.01, 0.001):
            sample = estimate_volume(arr_of("x*y"), None, eps, 400_000, seed=SEED)
            assert abs(sample.volume_estimate - xy_volume(eps)) <= 3 * sample.std_error

    def test_deterministic(self):
        a = estimate_volume(arr_of("x*y"), None, 0.01, 123_456, seed=9)
        b = estimate_volume(arr_of("x*y"), None, 0.01, 123_456, seed=9)
        assert a == b

    def test_chunking_invisible(self, monkeypatch):
        # Every call draws, chunk by chunk.
        arr = arr_of("x*y")

        def sweep():
            return [estimate_volume(arr, None, eps, 20_003, seed=3) for eps in default_epsilon_grid()]

        default = sweep()
        # The buffers' edges: one chunk exactly, a last chunk of one sample,
        # and a chunk larger than the draw.
        for chunk in (7, 1000, 20_003, 20_002, 1 << 16):
            monkeypatch.setattr(rlct.volume, "CHUNK_SAMPLES", chunk)
            assert sweep() == default

    def test_in_place_loop_is_the_allocating_loop(self):
        # The chunk loop writes into buffers; this is the allocating form of
        # the same float operations, in the same order. Every kept log|f|
        # must agree bit for bit, so a reordered operation fails here even
        # where it moves no hit count.
        arr = arr_of("vars x, y, z; (3/2*x - 5/3*y + 1/7*z + 1/3)^2*(2*x + y - 1/3)^3*(x - 7/4*z + 1/5)")
        box = [("-1/3", "2"), ("-1", "5/4"), ("1/7", "9/5")]
        samples = 3 * rlct.volume.CHUNK_SAMPLES + 12_345
        bounds = rlct.volume.normalize_box(box, arr.dim)
        lo = np.array([float(b[0]) for b in bounds])
        width = np.array([float(b[1] - b[0]) for b in bounds])
        normals = np.array([[float(x) for x in row] for row in arr.normals])
        offsets = np.array([float(x) for x in arr.offsets])
        exponents = np.array([float(x) for x in arr.multiplicities])
        rng = np.random.Generator(np.random.Philox(key=11))
        log_f = []
        for start in range(0, samples, 1 << 16):
            points = lo + rng.random((min(1 << 16, samples - start), arr.dim)) * width
            with np.errstate(divide="ignore"):
                log_f.append(np.log(np.abs(points @ normals.T + offsets)) @ exponents)
        log_f = np.concatenate(log_f)

        grid = rlct.volume.epsilon_grid(1e-4, 1.0, 9)
        sweep = [estimate_volume(arr, box, eps, samples, seed=11) for eps in grid]
        hits = [np.count_nonzero(log_f <= np.log(eps)) for eps in grid]
        box_volume = math.prod(float(hi - lo) for lo, hi in bounds)
        assert [s.volume_estimate for s in sweep] == [box_volume * (h / samples) for h in hits]
        assert 0 < hits[-1] < hits[0] < samples
        kept = estimate_volume(arr, box, grid[0], samples, seed=11)._draw[1]
        assert kept.tobytes() == log_f[log_f <= np.log(grid[0])].tobytes()

    def test_sweeps_reuse_only_their_own_draw(self):
        # Ascending epsilon never reuses the last call's draw, so it is the
        # reference for descending sweeps, alone and interleaved with a key
        # that differs in one field.
        arr = arr_of("x*y")
        grid = default_epsilon_grid()
        base = (None, 20_003, 1)
        for other in (((0, 1), (-1, 1)), 20_003, 1), (None, 20_003, 2), (None, 50_000, 1):
            keys = (base, other)
            ascending = {
                key: [estimate_volume(arr, key[0], eps, key[1], seed=key[2]) for eps in grid[::-1]][::-1]
                for key in keys
            }
            assert ascending[base] != ascending[other]
            interleaved = {key: [] for key in keys}
            for eps in grid:
                for key in keys:
                    interleaved[key].append(estimate_volume(arr, key[0], eps, key[1], seed=key[2]))
            assert interleaved == ascending
            for key in keys:
                alone = [estimate_volume(arr, key[0], eps, key[1], seed=key[2]) for eps in grid]
                assert alone == ascending[key]

    def test_one_stream_per_call(self, monkeypatch):
        # Draws are counted by the Philox streams they open: every
        # estimate_volume call opens one, and `.at` opens none. A sample
        # taken with `.at` is the fresh draw's at that epsilon.
        arr = arr_of("x*y")
        grid = default_epsilon_grid()
        streams = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda **kw: streams.append(kw) or philox(**kw))
        for seed in (1, 2):
            fresh = [estimate_volume(arr, None, eps, 20_003, seed=seed) for eps in grid]
            top = estimate_volume(arr, None, grid[0], 20_003, seed=seed)
            assert len(streams) == 10 * seed
            assert [top.at(eps) for eps in grid] == fresh
            assert [fresh[1].at(eps) for eps in grid[1:]] == fresh[1:]
            assert len(streams) == 10 * seed
        assert fresh[0].volume_estimate > fresh[4].volume_estimate > 0
        for bad in (grid[0] * 1.5, 0.0, -grid[0], float("nan")):
            with pytest.raises(RlctError):
                top.at(bad)
        with pytest.raises(RlctError):
            synthetic_samples(1.0, 2, 1.0, grid)[0].at(grid[1])
        # The draw takes no part in ==, hash or repr.
        bare = VolumeSample(top.epsilon, top.volume_estimate, top.std_error, 20_003)
        assert (top.at(grid[0]), hash(top), repr(top)) == (bare, hash(bare), repr(bare))

    def test_monotone_in_epsilon_for_fixed_seed(self):
        arr = arr_of("x*y")
        estimates = [
            estimate_volume(arr, None, eps, 50_000, seed=4).volume_estimate
            for eps in sorted(default_epsilon_grid())
        ]
        assert estimates == sorted(estimates)

    def test_std_error_shrinks_like_sqrt(self):
        arr = arr_of("x*y")
        base = estimate_volume(arr, None, 0.01, 100_000, seed=5)
        bigger = estimate_volume(arr, None, 0.01, 400_000, seed=5)
        ratio = base.std_error / bigger.std_error
        assert abs(ratio - 2.0) <= 0.4

    def test_affine_offsets_enter_evaluation(self):
        # f = x - 1 on [0, 2]: |x-1| <= 1/2 has volume 1 in a box of volume 2.
        sample = estimate_volume(arr_of("(x-1)"), [(0, 2)], 0.5, 100_000, seed=SEED)
        assert abs(sample.volume_estimate - 1.0) <= 3 * sample.std_error

    def test_degenerate_box(self):
        with pytest.raises(DegenerateBoxError):
            estimate_volume(arr_of("x*y"), [(1, 1), (-1, 1)], 0.1, 100, seed=SEED)

    def test_box_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            estimate_volume(arr_of("x*y"), [(-1, 1)], 0.1, 100, seed=SEED)

    def test_bad_epsilon(self):
        with pytest.raises(DegenerateBoxError):
            estimate_volume(arr_of("x*y"), None, 0.0, 100, seed=SEED)

    def test_bad_sample_count(self):
        with pytest.raises(InsufficientDataError):
            estimate_volume(arr_of("x*y"), None, 0.1, 0, seed=SEED)

    def test_huge_factors_do_not_overflow(self):
        # |f| = |x(x-1000)|^200 overflows floats near x = 999 while its other
        # factor is tiny; the hits are where |u(1000+u)| <= c, u = x - 1000.
        eps = 1e-3
        c = eps ** (1 / 200)
        width = 2 * c / (1000 + math.sqrt(1e6 + 4 * c)) + 2 * c / (1000 + math.sqrt(1e6 - 4 * c))
        sample = estimate_volume(arr_of("x^200*(x-1000)^200"), [(999, 1001)], eps, 200_000, seed=SEED)
        assert abs(sample.volume_estimate - width) <= 5 * sample.std_error


class TestFitAsymptotics:
    def test_exact_recovery_on_synthetic_data(self):
        grid = [10.0 ** (-2 - k) for k in range(5)]
        samples = synthetic_samples(0.5, 3, 1.0, grid)
        fit = fit_asymptotics(samples)
        assert abs(fit.lambda_hat - 0.5) < 1e-9
        assert abs(fit.m_hat - 3.0) < 1e-9
        assert fit.residual_norm < 1e-6

    def test_constrained_fits_echo_fixed_values(self):
        samples = synthetic_samples(1.0, 2, 3.0, default_epsilon_grid())
        fm = fit_asymptotics(samples, fixed_multiplicity=2)
        assert fm.m_hat == 2.0
        assert abs(fm.lambda_hat - 1.0) < 1e-9
        fl = fit_asymptotics(samples, fixed_threshold=1.0)
        assert fl.lambda_hat == 1.0
        assert abs(fl.m_hat - 2.0) < 1e-9
        both = fit_asymptotics(samples, fixed_multiplicity=2, fixed_threshold=1.0)
        assert abs(both.log_C_hat - math.log(3.0)) < 1e-9

    def test_xy_sampled_fit(self):
        arr = arr_of("x*y")
        samples = [estimate_volume(arr, None, eps, 200_000, seed=SEED) for eps in default_epsilon_grid()]
        fm = fit_asymptotics(samples, fixed_multiplicity=2)
        assert abs(fm.lambda_hat - 1.0) <= 0.15
        fl = fit_asymptotics(samples, fixed_threshold=1.0)
        assert abs(fl.m_hat - 2.0) <= 0.9

    def test_needs_three_distinct_epsilons(self):
        samples = synthetic_samples(1.0, 1, 1.0, [0.01, 0.01, 0.01])
        with pytest.raises(InsufficientDataError):
            fit_asymptotics(samples)

    def test_rejects_zero_volume(self):
        bad = [VolumeSample(epsilon=0.01, volume_estimate=0.0, std_error=0.0, sample_count=10)]
        good = synthetic_samples(1.0, 1, 1.0, [0.1, 0.01, 0.001])
        with pytest.raises(InsufficientDataError):
            fit_asymptotics(good + bad)

    def test_rejects_epsilon_at_least_one(self):
        samples = synthetic_samples(1.0, 1, 1.0, [0.5, 0.1]) + [
            VolumeSample(epsilon=1.5, volume_estimate=2.0, std_error=0.0, sample_count=10)
        ]
        with pytest.raises(InsufficientDataError):
            fit_asymptotics(samples)

    def test_unconstrained_fit_near_truth_on_samples(self):
        arr = arr_of("x*y")
        samples = [estimate_volume(arr, None, eps, 400_000, seed=2) for eps in default_epsilon_grid()]
        fit = fit_asymptotics(samples)
        assert abs(fit.lambda_hat - 1.0) <= 0.3
        assert np.isfinite(fit.log_C_hat)

    def test_four_line_bundle_follows_sqrt_law(self):
        # xy(x+y)(x-y) has pair (1/2, 1): the volume shrinks like C*sqrt(eps).
        arr = arr_of("x*y*(x+y)*(x-y)")
        samples = [estimate_volume(arr, None, eps, 400_000, seed=SEED) for eps in default_epsilon_grid()]
        fit = fit_asymptotics(samples, fixed_multiplicity=1)
        assert abs(fit.lambda_hat - 0.5) <= 0.1
        free = fit_asymptotics(samples)
        assert abs(free.m_hat - 1.0) <= 0.75
