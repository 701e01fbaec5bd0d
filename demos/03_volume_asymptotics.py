#!/usr/bin/env python3
"""Seeing the threshold pair in volume data.

The volume V(eps) of the region |f| <= eps inside a box shrinks like
C * eps^lambda * (-ln eps)^(m-1), so the exactly computed pair predicts the
shape of a Monte Carlo volume curve. This script samples the curve for two
arrangements, fits the exponents back out, and compares with the exact
pair. For f = xy the closed form V(eps) = 4*eps*(1 - ln eps) is printed
alongside as a ground-truth column.

Writes gnuplot-ready data to volume_xy.dat and volume_planes.dat; plot with
    gnuplot> set logscale xy; plot "volume_xy.dat" using 1:2 with linespoints
"""

import math

from rlct import (
    default_epsilon_grid,
    estimate_volume,
    fit_asymptotics,
    normalize,
    parse_factored_product,
    rlct_central,
)

SEED = 1
SAMPLES = 1_000_000


def sample_curve(text: str, outfile: str) -> None:
    arr = normalize(parse_factored_product(text))
    exact = rlct_central(arr)
    print(f"f = {text}: exact pair {exact.pair}")
    grid = default_epsilon_grid()
    # One draw at the largest epsilon; `.at` counts each smaller one from its hits.
    top = estimate_volume(arr, None, max(grid), SAMPLES, seed=SEED)
    samples = []
    lines = ["# epsilon volume std_error"]
    for eps in grid:
        s = top.at(eps)
        samples.append(s)
        note = ""
        if arr.dim == 2 and text == "x*y":
            truth = 4.0 * eps * (1.0 - math.log(eps))
            note = f"  closed form {truth:.4e}"
        print(f"  eps {eps:9.3e}  V {s.volume_estimate:10.4e} +- {s.std_error:.1e}{note}")
        lines.append(f"{s.epsilon:.12g} {s.volume_estimate:.12g} {s.std_error:.12g}")
    fit = fit_asymptotics(samples)
    constrained = fit_asymptotics(samples, fixed_multiplicity=exact.pair.multiplicity)
    print(f"  unconstrained fit: lambda_hat {fit.lambda_hat:+.3f}, m_hat {fit.m_hat:+.3f}")
    print(
        f"  with m = {exact.pair.multiplicity} fixed: lambda_hat {constrained.lambda_hat:+.3f}"
        f"  (exact lambda = {exact.pair.threshold})"
    )
    with open(outfile, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"  wrote {outfile}")
    print()


def main() -> None:
    sample_curve("x*y", "volume_xy.dat")
    sample_curve("x*y^2*z^2*(x+y+z)", "volume_planes.dat")
    print("note: the m_hat regressor log(-log eps) varies slowly, so m_hat is")
    print("much noisier than lambda_hat; the constrained fit is the sharper check.")


if __name__ == "__main__":
    main()
