"""Monte Carlo estimation of V(eps) = vol{w in box : |f(w)| <= eps}.

For small eps this volume behaves like C * eps^t * (-ln eps)^(m-1), where
(t, m) is the threshold pair of the arrangement, so a log-log regression on
sampled volumes recovers the pair numerically. That makes the sampler an
end-to-end statistical check on the exact combinatorial computation.

Sampling uses the counter-based Philox generator, one stream per call drawn
chunk by chunk: sample k always consumes stream positions [k*dim, (k+1)*dim)
of the seed's stream, so estimates do not depend on the chunk size. A draw
allocates its buffers once and evaluates every chunk of CHUNK_SAMPLES points
in place (`_draw_hits`); 2^14 points keep the buffers cache-sized.

A sweep down `epsilon_grid` (the grid `rlct volume-fit` samples) on one
(arrangement, box, samples, seed) draws its points once: `estimate_volume`
keeps the log|f| values of the drawing call's hits, and a call with the
same key and an equal or smaller epsilon counts from them. Every other call
draws again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arrangement import NormalizedArrangement
from .errors import DegenerateBoxError, DimensionError, InsufficientDataError, RlctError
from .ratlinalg import as_rational

CHUNK_SAMPLES = 1 << 14

# The last estimate_volume call that drew: ((arr, bounds, samples, seed),
# its log epsilon, one array of the log|f| values at or below that).
_last_sweep = None

Box = tuple[tuple[Fraction, Fraction], ...]


def default_box(dim: int) -> Box:
    return tuple((Fraction(-1), Fraction(1)) for _ in range(dim))


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


def normalize_box(box: Sequence[Sequence] | None, dim: int) -> Box:
    """The box as exact (lo, hi) pairs with lo < hi; None is `default_box`."""
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


@dataclass(frozen=True)
class VolumeSample:
    """One Monte Carlo estimate of V(eps) with its binomial standard error."""

    epsilon: float
    volume_estimate: float
    std_error: float
    sample_count: int


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

    A call that draws keeps the log|f| values of its hits as a module-level
    record; a later call with an equal (arr, box, samples, seed) and an
    equal or smaller epsilon counts its hits from it instead of drawing
    again, with the same counts, and so results, as a fresh draw. Any other
    call (a new key, or a larger epsilon) drops the record and draws. So a
    sweep from the largest epsilon down draws once, and so does its rerun.
    The record holds one float64 per hit at the drawing epsilon: at most
    1.07 MiB on the benchmark's volume-fit ops, whose hit fractions at
    eps = 1e-2 lie between 0.056 and 0.56.

    A draw runs in chunks of size = min(CHUNK_SAMPLES, samples) points
    through three buffers allocated once per draw (see `_draw_hits`), so
    its memory is about size * (dim + n + 1) float64s plus the record:
    1.1 MiB for 4 variables and 4 hyperplanes at the default chunk.
    """
    global _last_sweep
    if samples < 1:
        raise InsufficientDataError("need at least one sample")
    if not epsilon > 0:
        raise DegenerateBoxError(f"epsilon must be positive, got {epsilon}")
    bounds = normalize_box(box, arr.dim)
    lo = np.array(_floats([x for b in bounds for x in b], "a box bound")[0::2])
    widths = _floats([b[1] - b[0] for b in bounds], "a box width")
    width = np.array(widths)
    box_volume = math.prod(widths)
    if not math.isfinite(box_volume):
        raise DegenerateBoxError("the box volume is outside the float range")

    log_epsilon = np.log(epsilon)
    key = (arr, bounds, samples, seed)
    if _last_sweep is not None and _last_sweep[0] == key and log_epsilon <= _last_sweep[1]:
        hits = np.count_nonzero(_last_sweep[2] <= log_epsilon)
    else:
        # Drop the old record first, so that two draws are never held at once.
        _last_sweep = None
        _last_sweep = (key, log_epsilon, _draw_hits(arr, lo, width, samples, seed, log_epsilon))
        hits = _last_sweep[2].size
    fraction = hits / samples
    return VolumeSample(
        epsilon=float(epsilon),
        volume_estimate=box_volume * fraction,
        std_error=box_volume * float(np.sqrt(fraction * (1.0 - fraction) / samples)),
        sample_count=samples,
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

    Three buffers, allocated once, serve every chunk: points (size, dim),
    forms (size, n) and log|f| (size,), with size = min(CHUNK_SAMPLES,
    samples); the last chunk uses a leading slice. Each float operation is
    the one of `lo + rng.random((count, dim)) * width` and
    `log(abs(points @ normals.T + offsets)) @ exponents`, in that order,
    written into the buffers with `out=`, so the hits are bit for bit those
    of the allocating form.
    """
    normals_t = np.array([_floats(row, "a normal entry") for row in arr.normals]).T.copy()
    offsets = np.array(_floats(arr.offsets, "an offset"))
    exponents = np.array(_floats(arr.multiplicities, "a multiplicity"))
    rng = np.random.Generator(np.random.Philox(key=seed))
    size = min(CHUNK_SAMPLES, samples)
    points, forms, log_f = np.empty((size, arr.dim)), np.empty((size, arr.n)), np.empty(size)
    kept = []
    # Compare log|f| so that huge factors cannot overflow to inf and turn
    # inf * 0 into NaN; log 0 = -inf still counts as a hit.
    with np.errstate(divide="ignore"):
        for start in range(0, samples, size):
            count = min(size, samples - start)
            p, fm, lf = points[:count], forms[:count], log_f[:count]
            rng.random(out=p)
            np.multiply(p, width, out=p)
            np.add(lo, p, out=p)
            np.matmul(p, normals_t, out=fm)
            np.add(fm, offsets, out=fm)
            np.abs(fm, out=fm)
            np.log(fm, out=fm)
            np.matmul(fm, exponents, out=lf)
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
