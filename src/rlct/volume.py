"""Monte Carlo estimation of V(eps) = vol{w in box : |f(w)| <= eps}.

For small eps this volume behaves like C * eps^t * (-ln eps)^(m-1), where
(t, m) is the threshold pair of the arrangement, so a log-log regression on
sampled volumes recovers the pair numerically. That makes the sampler an
end-to-end statistical check on the exact combinatorial computation.

Sampling uses the counter-based Philox generator, one stream per call drawn
chunk by chunk: sample k always consumes stream positions [k*dim, (k+1)*dim)
of the seed's stream, and its log|f| takes the same float operations down
the same BLAS paths in a chunk of any size, so estimates do not depend on
the chunk size. A draw allocates its buffers and tiles once and evaluates
every chunk of CHUNK_SAMPLES points in place (`_draw_hits`). With the
operands tiled, 2^13 points ran as fast as 2^14 in half the memory: 1.3 MiB
of buffers and tiles for 4 variables and 4 hyperplanes, against 2.6 MiB.

Every `estimate_volume` call draws once, and its sample keeps the log|f|
of its hits, so a sweep down `epsilon_grid` (the grid `rlct volume-fit`
samples) draws at the largest epsilon and counts each smaller one from that
sample with `VolumeSample.at`. The module holds no state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# The box helpers live in `arrangement`; `rlct.volume` keeps both names.
from .arrangement import NormalizedArrangement, default_box, normalize_box
from .errors import DegenerateBoxError, InsufficientDataError, RlctError

CHUNK_SAMPLES = 1 << 13


def epsilon_grid(eps_min: float, eps_max: float, points: int) -> list[float]:
    """`points` values from eps_max down to eps_min, evenly spaced in log10."""
    if points < 1:
        raise RlctError("need at least one eps point")
    if not 0 < eps_min <= eps_max:
        raise RlctError("need 0 < eps-min <= eps-max")
    if not math.isfinite(eps_max):
        raise RlctError(f"eps-max must be finite, got {eps_max}")
    if points == 1:
        return [eps_max]
    hi, lo = math.log10(eps_max), math.log10(eps_min)
    step = (hi - lo) / (points - 1)
    return [10.0 ** (hi - k * step) for k in range(points)]


def default_epsilon_grid() -> list[float]:
    """Nine points from 1e-2 down to 1e-6, the `rlct volume-fit` default."""
    return epsilon_grid(1e-6, 1e-2, 9)


@dataclass(frozen=True)
class VolumeSample:
    """One Monte Carlo estimate of V(eps) with its binomial standard error.

    A sampled estimate keeps its draw, (box volume, log|f| of the hits at
    or below log epsilon of the call that drew), outside `==`, `hash` and
    `repr`; samples taken from it with `at` share it.
    """

    epsilon: float
    volume_estimate: float
    std_error: float
    sample_count: int
    _draw: tuple[float, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def at(self, eps: float) -> VolumeSample:
        """The sample that a fresh draw at eps gives, bit for bit, counted
        from this sample's hits: needs 0 < eps <= epsilon and a draw."""
        if self._draw is None or not 0 < eps <= self.epsilon:
            raise RlctError(f"at() needs a sampled estimate and 0 < eps <= {self.epsilon}, got {eps}")
        hits = np.count_nonzero(self._draw[1] <= np.log(eps))
        return _sample(eps, int(hits), self.sample_count, self._draw)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of log V = log_C + t*log(eps) + (m-1)*log(-log eps)."""

    lambda_hat: float
    m_hat: float
    log_C_hat: float
    residual_norm: float


def estimate_volume(
    arr: NormalizedArrangement,
    box: Sequence[Sequence] | None,
    epsilon: float,
    samples: int,
    seed: int,
) -> VolumeSample:
    """Hit-or-miss estimate of the volume where |f| <= epsilon.

    Points are uniform on the box; |f(w)| is the product of |a_i . w + b_i|
    raised to the multiplicities, evaluated in floating point. The estimate
    is box_volume * hit_fraction, with the usual binomial standard error.
    Fixed (arr, box, epsilon, samples, seed) gives a bit-identical result.

    Every call draws once. The sample keeps the log|f| of its hits, so a
    sweep draws at its largest epsilon and takes the others with `.at(eps)`.
    That is one float64 per hit: at most 1.07 MiB on the benchmark's
    volume-fit ops, whose hit fractions at eps = 1e-2 lie in [0.056, 0.56].

    A draw runs in chunks of size = min(CHUNK_SAMPLES, samples) points
    through three buffers and three tiles allocated once per draw (see
    `_draw_hits`), so its memory is about size * (3*dim + 2*n + 1) float64s
    plus the hits: 1.31 MiB for 4 variables and 4 hyperplanes at the
    default chunk, and a draw with no hits peaks under 1.4 MiB.
    """
    if samples < 1:
        raise InsufficientDataError("need at least one sample")
    if not epsilon > 0:
        raise DegenerateBoxError(f"epsilon must be positive, got {epsilon}")
    bounds = normalize_box(box, arr.dim)
    lo = np.array(_floats([x for b in bounds for x in b], "a box bound")[0::2])
    widths = _floats([b[1] - b[0] for b in bounds], "a box width")
    box_volume = math.prod(widths)
    if not math.isfinite(box_volume):
        raise DegenerateBoxError("the box volume is outside the float range")
    log_f = _draw_hits(arr, lo, np.array(widths), samples, seed, np.log(epsilon))
    return _sample(epsilon, log_f.size, samples, (box_volume, log_f))


def _sample(epsilon: float, hits: int, samples: int, draw: tuple[float, np.ndarray]) -> VolumeSample:
    """The estimate from `hits` of `samples` points of `draw`'s box."""
    box_volume, fraction = draw[0], hits / samples
    return VolumeSample(
        epsilon=float(epsilon),
        volume_estimate=box_volume * fraction,
        std_error=box_volume * float(np.sqrt(fraction * (1.0 - fraction) / samples)),
        sample_count=samples,
        _draw=draw,
    )


def _draw_hits(
    arr: NormalizedArrangement,
    lo: np.ndarray,
    width: np.ndarray,
    samples: int,
    seed: int,
    log_epsilon: float,
) -> np.ndarray:
    """The log|f| values at or below log_epsilon of `samples` fresh points.

    Three buffers, allocated once, serve every chunk: points (rows, dim),
    forms (rows, n) and log|f| (rows,), with size = min(CHUNK_SAMPLES,
    samples) and rows = max(size, 2); a chunk of count <= size points uses
    leading slices. Each float operation is the one of
    `lo + rng.random((count, dim)) * width` and
    `log(abs(points @ normals.T + offsets)) @ exponents`, in that order,
    written into the buffers with `out=`, so the hits are bit for bit those
    of the allocating form.

    `width`, `lo` and `offsets` are tiled once per draw to (size, dim) and
    (size, n), and each chunk reads a leading slice of the tiles. numpy
    broadcasts a 1-D operand along the rows with an inner loop of only dim
    or n elements per call, and those three broadcasts took half the loop's
    time; on operands of the chunk's shape one inner loop covers the chunk.
    Each element still gets the same operation on the same two floats.

    matmul takes an operand of one row down another BLAS path (gemv for
    gemm, dot for gemv), which can round differently, so both products run
    on two rows or more: the buffers have at least two, and a row past the
    chunk holds zeros or an earlier chunk's values, whose products are not
    read.
    """
    normals_t = np.array([_floats(row, "a normal entry") for row in arr.normals]).T.copy()
    offsets = np.array(_floats(arr.offsets, "an offset"))
    exponents = np.array(_floats(arr.multiplicities, "a multiplicity"))
    rng = np.random.Generator(np.random.Philox(key=seed))
    size = min(CHUNK_SAMPLES, samples)
    rows = max(size, 2)
    points, forms, log_f = np.zeros((rows, arr.dim)), np.zeros((rows, arr.n)), np.empty(rows)
    lo_rows, width_rows, offset_rows = (np.tile(v, (size, 1)) for v in (lo, width, offsets))
    kept = []
    # Compare log|f| so that huge factors cannot overflow to inf and turn
    # inf * 0 into NaN; log 0 = -inf still counts as a hit.
    with np.errstate(divide="ignore"):
        for start in range(0, samples, size):
            count = min(size, samples - start)
            span = max(count, 2)
            p, fm, lf = points[:count], forms[:count], log_f[:count]
            rng.random(out=p)
            np.multiply(p, width_rows[:count], out=p)
            np.add(lo_rows[:count], p, out=p)
            np.matmul(points[:span], normals_t, out=forms[:span])
            np.add(fm, offset_rows[:count], out=fm)
            np.abs(fm, out=fm)
            np.log(fm, out=fm)
            np.matmul(forms[:span], exponents, out=log_f[:span])
            kept.append(lf[lf <= log_epsilon])
    return np.concatenate(kept)


def _floats(values, what: str) -> list[float]:
    """Exact numbers as floats; one beyond the float range is a user error."""
    try:
        return [float(x) for x in values]
    except OverflowError:
        raise DegenerateBoxError(f"{what} is outside the float range") from None


def check_fit_epsilons(epsilons: Sequence[float]) -> None:
    """The fit's rules on epsilon: every value in (0, 1), at least three distinct."""
    if any(not 0 < eps < 1 for eps in epsilons):
        raise InsufficientDataError("asymptotic fitting needs 0 < epsilon < 1")
    if len(set(epsilons)) < 3:
        raise InsufficientDataError("need at least three distinct epsilon values")


def _usable(samples: Sequence[VolumeSample]) -> tuple[np.ndarray, np.ndarray]:
    eps = [s.epsilon for s in samples]
    check_fit_epsilons(eps)
    if any(s.volume_estimate <= 0 for s in samples):
        raise InsufficientDataError(
            "a volume estimate is zero; increase the sample count or the epsilon range"
        )
    return np.array(eps), np.array([s.volume_estimate for s in samples])


def fit_asymptotics(
    samples: Sequence[VolumeSample],
    fixed_multiplicity: float | None = None,
    fixed_threshold: float | None = None,
) -> AsymptoticFit:
    """Recover (threshold, multiplicity) from sampled volumes by least squares.

    The unconstrained fit regresses log V on [1, log eps, log(-log eps)].
    Passing fixed_multiplicity pins the log-log term and fits the threshold
    alone (useful to validate a known multiplicity), and vice versa for
    fixed_threshold.
    """
    eps, vol = _usable(samples)
    x1 = np.log(eps)
    x2 = np.log(-np.log(eps))
    columns = [np.ones_like(x1)]
    target = np.log(vol)
    if fixed_threshold is None:
        columns.append(x1)
    else:
        target = target - fixed_threshold * x1
    if fixed_multiplicity is None:
        columns.append(x2)
    else:
        target = target - (fixed_multiplicity - 1.0) * x2
    coef, residual = _lstsq(np.column_stack(columns), target)
    free = iter(coef[1:])
    threshold = next(free) if fixed_threshold is None else float(fixed_threshold)
    multiplicity = next(free) + 1.0 if fixed_multiplicity is None else float(fixed_multiplicity)
    return AsymptoticFit(threshold, multiplicity, coef[0], residual)


def _lstsq(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.linalg.norm(target - design @ coef))
    return coef, residual


def synthetic_samples(
    threshold: float, multiplicity: int, constant: float, epsilons: Sequence[float]
) -> list[VolumeSample]:
    """Noise-free model data V = C * eps^t * (-ln eps)^(m-1), for self-tests."""
    out = []
    for eps in epsilons:
        v = constant * eps**threshold * (-np.log(eps)) ** (multiplicity - 1)
        out.append(VolumeSample(epsilon=eps, volume_estimate=float(v), std_error=0.0, sample_count=0))
    return out
