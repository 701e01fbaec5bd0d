#!/usr/bin/env python3
"""Anatomy of an intersection lattice.

Builds the lattice of the four-plane arrangement x y^2 z^2 (x+y+z) = 0 in
3-space: four planes, six lines, and the origin. Prints each flat with its
codimension, weight (total multiplicity of the hyperplanes through it), and
the ratio codim/weight whose minimum is the threshold. Ends by checking the
closure-based construction against the all-subsets brute force, and exits
non-zero if they differ.
"""

from fractions import Fraction

from rlct import build_lattice, lattice_bruteforce, normalize, parse_factored_product


def main() -> None:
    arr = normalize(parse_factored_product("x*y^2*z^2*(x+y+z)"))
    names = arr.var_names()
    print(f"arrangement: {arr.n} planes in {len(names)} variables {names}")
    for j in range(arr.n):
        normal, _, mult = arr.hyperplane(j)
        form = " + ".join(f"{c}*{names[i]}" for i, c in enumerate(normal) if c != 0)
        print(f"  H{j}: {form} = 0   (multiplicity {mult})")

    lat = build_lattice(arr)
    print(f"\nlattice has {len(lat.flats)} flats:")
    ratios = []
    for i, flat in enumerate(lat.flats):
        ratio = Fraction(flat.codim, flat.weight)
        ratios.append(ratio)
        members = ",".join(f"H{j}" for j in sorted(flat.members))
        print(
            f"  [{i:2d}] codim {flat.codim}  weight {flat.weight}  "
            f"codim/weight {str(ratio):4s}  through {{{members}}}"
        )
    print(f"\nminimum ratio (the threshold) = {min(ratios)}")

    # Flat i lies strictly inside flat j iff j's members are a proper subset of i's.
    masks = [flat.mask for flat in lat.flats]
    pairs = [(i, j) for i, mi in enumerate(masks) for j, mj in enumerate(masks) if mi != mj and mi & mj == mj]
    print(f"strict containments: {len(pairs)} pairs")
    origin = max(range(len(lat.flats)), key=lambda i: lat.flats[i].codim)
    below = sorted(j for (i, j) in pairs if i == origin)
    print(f"the origin (flat {origin}) sits inside every other flat: {below}")

    reference = lattice_bruteforce(arr)
    same = [f.to_json_dict() for f in lat.flats] == [f.to_json_dict() for f in reference.flats]
    print(f"\nclosure construction == all-subsets brute force: {same}")
    if not same:
        raise SystemExit("the closure construction and the all-subsets brute force disagree")


if __name__ == "__main__":
    main()
