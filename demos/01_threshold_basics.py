#!/usr/bin/env python3
"""Threshold pairs of classic arrangements, computed exactly.

Walks through the standard small examples: coordinate axes, powers of the
axes, concurrent line bundles, and the four-plane arrangement in 3-space
whose pair is (1/2, 3). Every value below is an exact rational; nothing is
floating point.
"""

from fractions import Fraction

from rlct import normalize, parse_factored_product, rlct_central, rlct_line_arrangement_2d


def pair_of(text: str):
    return rlct_central(normalize(parse_factored_product(text)))


def main() -> None:
    print("exact threshold pairs")
    print("=====================")
    examples = [
        "x",
        "x*y",
        "x^2*y^3",
        "x*y*(x+y)*(x-y)",
        "x*y*(x-y)^2",
        "x*y^2*z^2*(x+y+z)",
    ]
    for text in examples:
        result = pair_of(text)
        print(f"  f = {text:24s} ->  (lambda, m) = {result.pair}")

    print()
    print("bundles of n distinct lines through the origin follow (2/n, 1):")
    for n in range(3, 9):
        mults = [1] * n
        print(f"  n = {n}:  {rlct_line_arrangement_2d(mults)}")

    print()
    print("the larger-multiplicity direction controls unbalanced planar cases:")
    for mults in ([1, 1], [1, 3], [2, 2], [1, 1, 2], [2, 3, 5, 10]):
        print(f"  line multiplicities {mults} -> {rlct_line_arrangement_2d(mults)}")

    print()
    print("witness chain for x*y^2*z^2*(x+y+z):")
    result = pair_of("x*y^2*z^2*(x+y+z)")
    for flat in result.witness_chain:
        ratio = Fraction(flat.codim, flat.weight)
        rows = flat.to_json_dict()["normal_space"]
        print(f"  codim {flat.codim}, weight {flat.weight}, ratio {ratio}, normal space {rows}")
    print(f"  chain length = multiplicity m = {result.pair.multiplicity}")


if __name__ == "__main__":
    main()
