"""Exact real log canonical thresholds of real hyperplane arrangements.

The package computes the threshold pair (lambda, m) of a product of linear
forms with integer multiplicities, exactly, from the intersection lattice
of the arrangement, and can validate the answer statistically through the
small-epsilon asymptotics of the volume function V(eps).

Quick start:

    >>> from rlct import parse_factored_product, normalize, rlct_central
    >>> arr = normalize(parse_factored_product("x*y^2*z^2*(x+y+z)"))
    >>> result = rlct_central(arr)
    >>> str(result.pair)
    '(1/2, 3)'
"""

from .arrangement import (
    ArrangementSpec,
    NormalizedArrangement,
    arrangement_from_csv,
    arrangement_from_json,
    arrangement_to_json_dict,
    default_box,
    normalize,
)
from .errors import (
    CentralityError,
    DegenerateBoxError,
    DimensionError,
    EmptyArrangementError,
    InsufficientDataError,
    InvalidHyperplaneError,
    InvalidMultiplicityError,
    NonlinearFactorError,
    ParseError,
    RlctError,
    SizeLimitError,
    UnknownVariableError,
)
from .lattice import Flat, IntersectionLattice, build_lattice
from .oracle import (
    kernel_basis,
    lattice_bruteforce,
    localizations_bruteforce,
    longest_chain_bruteforce,
    rank,
    row_space_canonical,
    rref,
    subspace_leq,
)
from .parser import format_factored_product, parse_factored_product
from .ratlinalg import RationalMatrix, as_rational, format_rational
from .threshold import (
    Localization,
    LocalizationReport,
    RlctPair,
    RlctResult,
    maximal_central_localizations,
    pair_less,
    rlct_affine,
    rlct_central,
    rlct_line_arrangement_2d,
)

__version__ = "0.1.0"

# The Monte Carlo layer, and numpy with it, loads on the first use of one of
# these names; the exact engine above needs neither.
_VOLUME_NAMES = frozenset({
    "AsymptoticFit", "VolumeSample", "default_epsilon_grid",
    "estimate_volume", "fit_asymptotics", "synthetic_samples",
})


def __getattr__(name: str):
    if name in _VOLUME_NAMES:
        from . import volume

        return getattr(volume, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrangementSpec",
    "AsymptoticFit",
    "CentralityError",
    "DegenerateBoxError",
    "DimensionError",
    "EmptyArrangementError",
    "Flat",
    "InsufficientDataError",
    "IntersectionLattice",
    "InvalidHyperplaneError",
    "InvalidMultiplicityError",
    "Localization",
    "LocalizationReport",
    "NonlinearFactorError",
    "NormalizedArrangement",
    "ParseError",
    "RationalMatrix",
    "RlctError",
    "RlctPair",
    "RlctResult",
    "SizeLimitError",
    "UnknownVariableError",
    "VolumeSample",
    "arrangement_from_csv",
    "arrangement_from_json",
    "arrangement_to_json_dict",
    "as_rational",
    "build_lattice",
    "default_box",
    "default_epsilon_grid",
    "estimate_volume",
    "fit_asymptotics",
    "format_factored_product",
    "format_rational",
    "kernel_basis",
    "lattice_bruteforce",
    "localizations_bruteforce",
    "longest_chain_bruteforce",
    "maximal_central_localizations",
    "normalize",
    "pair_less",
    "parse_factored_product",
    "rank",
    "rlct_affine",
    "rlct_central",
    "rlct_line_arrangement_2d",
    "row_space_canonical",
    "rref",
    "subspace_leq",
    "synthetic_samples",
]
