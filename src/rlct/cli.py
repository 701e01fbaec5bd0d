"""Command-line front end.

Subcommands:
    compute     threshold pair of an arrangement (central or affine)
    localize    affine localization report, forced even for central input
    volume-fit  Monte Carlo volume curve plus asymptotic fit
    parse       normalize the input and echo it back as JSON

`compute` and `localize` share one parser definition and one handler,
`cmd_report`: `compute` on central input gets `rlct_central` and
`verify_central`, everything else `rlct_affine` and `verify_report`.
Every report prints through `emit`, the one switch on --format, and the
argparse parser is built once per process, at import. JSON reports print
the bytes of `json.dumps(doc, indent=2, default=lambda x: x.to_json_dict())`
through C-level joins (`_indented_json`; an `indent` makes `json.dumps` skip
its C encoder), from a document that holds its `Flat`s and `Localization`s.
A flat prints from its integer data and its indent's constant pieces, with
one text per distinct row, shared tuple and shared result body per report,
and a point from its integers (nums, den), in JSON and `human` lines alike.
`rlct.volume`, and numpy with it, loads on the first `volume-fit`, inside
`cmd_volume_fit` and the seams `estimate_volume` and `fit_asymptotics`;
`compute`, `localize` and `parse` never load it.

Exit codes: 0 on success, 1 when --verify (the checks of
`rlct.oracle.verify_central` and `verify_report`) finds a mismatch
between the production path and the brute-force oracles (a bug signal),
2 on user or input errors, 141 (128 + SIGPIPE) when the reader of stdout
closes it early. All rationals in output are exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import lattice
from .arrangement import (
    NormalizedArrangement,
    arrangement_from_csv,
    arrangement_from_json,
    arrangement_to_json_dict,
    normalize,
    normalize_box,
)
from .errors import RlctError, SizeLimitError
from .lattice import Flat
from .oracle import verify_central, verify_report
from .parser import parse_factored_product
from .ratlinalg import as_rational, format_rational, quotient_strings
from .threshold import Localization, box_pair, localization_body, rlct_affine, rlct_central

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_BROKEN_PIPE = 141


def estimate_volume(*args, **kwargs):
    """`rlct.volume.estimate_volume`, imported on the call, so that only
    `volume-fit` loads numpy. A wrapper set on this attribute (a test's
    monkeypatch, a benchmark tracer) is what `cmd_volume_fit` calls."""
    from .volume import estimate_volume

    return estimate_volume(*args, **kwargs)


def fit_asymptotics(*args, **kwargs):
    """`rlct.volume.fit_asymptotics`, imported on the call, a seam as `estimate_volume` is."""
    from .volume import fit_asymptotics

    return fit_asymptotics(*args, **kwargs)


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rlct", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="FILE", help="JSON or CSV arrangement file")
        source.add_argument("--poly", metavar="STRING", help="inline factored polynomial")
        p.add_argument("--dim", type=int, default=None, help="ambient dimension (CSV files with offsets)")
        p.add_argument(
            "--format", choices=("json", "csv", "human"), default="json", help="output format"
        )

    for name, help_text in (
        ("compute", "compute the threshold pair"),
        ("localize", "report all maximal central localizations"),
    ):
        report = sub.add_parser(name, help=help_text)
        add_input_flags(report)
        report.add_argument("--verify", action="store_true", help="cross-check against brute-force oracles")
        report.set_defaults(func=cmd_report)

    volume = sub.add_parser("volume-fit", help="Monte Carlo volume curve and asymptotic fit")
    add_input_flags(volume)
    volume.add_argument("--seed", type=int, default=0, help="Philox stream key")
    volume.add_argument("--samples", type=int, default=1_000_000, help="samples per grid point")
    volume.add_argument("--eps-min", type=float, default=1e-6)
    volume.add_argument("--eps-max", type=float, default=1e-2)
    volume.add_argument("--eps-points", type=int, default=9)
    volume.add_argument("--box", metavar="SPEC", default=None,
                        help='bounds "lo,hi;lo,hi;...", or one "lo,hi" for every coordinate; '
                        'a negative first bound needs --box="-1,1;..."')
    volume.add_argument("--gnuplot", metavar="FILE", default=None, help="write plot-ready data file")
    volume.add_argument(
        "--selftest",
        action="store_true",
        help="fit noise-free synthetic data for the exact pair instead of sampling",
    )
    volume.set_defaults(func=cmd_volume_fit)

    parse = sub.add_parser("parse", help="parse and normalize the input arrangement")
    add_input_flags(parse)
    parse.set_defaults(func=cmd_parse)
    return top


def load_arrangement(args: argparse.Namespace) -> NormalizedArrangement:
    if args.poly is not None:
        return normalize(parse_factored_product(args.poly))
    path = Path(args.input)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return normalize(arrangement_from_csv(text, dim=args.dim))
    return normalize(arrangement_from_json(text))


def parse_box(spec: str | None, dim: int):
    if spec is None:
        return None
    intervals = []
    for part in spec.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise RlctError(f"box interval {part!r} is not of the form lo,hi")
        intervals.append((as_rational(pieces[0].strip()), as_rational(pieces[1].strip())))
    if len(intervals) == 1 and dim > 1:
        intervals = intervals * dim
    return intervals


# The text of the scalar types that fill a report's lists; a `Fraction` is its "p/q" string.
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, Fraction: lambda x: f'"{format_rational(x)}"'}


def _indented_json(obj, pad: str = "\n") -> str:
    """Exactly `json.dumps(obj, indent=2, default=lambda x: x.to_json_dict())`,
    with every container one `str.join`, and a `Fraction` as its "p/q" string.

    `pad` is the newline and indent of `obj`'s own line. A list picks its
    item writer once: `_SCALAR_TEXT` if every item is of exact type str, int
    or `Fraction`, the flat writer if every item is a `Flat`, else `text`
    (any other scalar takes `json.dumps(x)`). Dict keys are `str`; a dict is
    one join over its braces, keys, separators and values' texts, so no text
    is copied but into its parent's. A `Flat` prints in the layout of
    `Flat.to_json_dict` through its indent's writer, built once per call with
    the indent's pads, separators and key texts; so are the member index
    texts and each distinct row's text (from the `lattice._rref_strings`
    bound when the call starts), and no flat's text outlives its list's join.
    A `Localization` prints as its point, then its result's body text
    (`threshold.localization_body`); that text and each tuple's are built
    once per indent per call, keyed by id, which is safe as `obj` holds them.
    """
    rref_strings = lattice._rref_strings
    names: list[str] = []  # member index texts, "0", "1", ...
    writers: dict[tuple[object, str], object] = {}  # rows and flat writers, by builder and indent
    shared: dict[tuple[str, int], str] = {}  # tuples' and results' texts, by indent and id

    def writer(build, pad: str):
        """`build(pad)`, built once per call."""
        return writers[build, pad] if (build, pad) in writers else writers.setdefault((build, pad), build(pad))

    def rows_writer(pad: str):
        """Integer rows at `pad` as the list of their `rref_strings`, each distinct row's text built once."""
        row_pad, texts = pad + "  ", {}
        sep, entry_sep = "," + row_pad, "," + row_pad + "  "

        def write(rows) -> str:
            out = []
            for row in rows:
                row_text = texts.get(row)
                if row_text is None:
                    entries = entry_sep.join(map(encode_basestring_ascii, rref_strings(row)))
                    row_text = texts[row] = f"[{entry_sep[1:]}{entries}{row_pad}]"
                out.append(row_text)
            return f"[{row_pad}{sep.join(out)}{pad}]"

        return write

    def flat_writer(pad: str):
        """A `Flat` at `pad`, from the indent's constant pieces and the member index texts."""
        inner = pad + "  "
        rows_text = writer(rows_writer, inner)
        head, codim, weight = "{" + inner + '"normal_space": ', "," + inner + '"codim": ', "," + inner + '"s": '
        members, sep, tail = "," + inner + '"members": [' + inner + "  ", "," + inner + "  ", inner + "]" + pad + "}"

        def write(flat: Flat) -> str:
            mask, n = flat.mask, flat.mask.bit_length()
            if n > len(names):
                names.extend(map(str, range(len(names), n)))
            member_texts = sep.join([names[j] for j in range(n) if mask >> j & 1])
            return f"{head}{rows_text(flat.rows)}{codim}{len(flat.rows)}{weight}{flat.weight}{members}{member_texts}{tail}"

        return write

    def localization_text(loc: Localization, pad: str) -> str:
        inner, key = pad + "  ", (pad, id(loc.result))
        if key not in shared:
            shared[key] = "".join(item_parts(localization_body(loc.result, None), inner, rows="normals"))
        point = text(quotient_strings(*loc.integer_point), inner)
        return "".join(("{", inner, '"point": ', point, shared[key], pad, "}"))

    def item_parts(obj: dict, inner: str, rows: str | None = None) -> list[str]:
        """Each item of `obj` as its separator, key, ": " and value text; the value under `rows` is integer rows."""
        sep, parts = "," + inner, []
        for key, value in obj.items():
            parts += (sep, encode_basestring_ascii(key), ": ", writer(rows_writer, inner)(value) if key == rows else text(value, inner))
        return parts

    def text(obj, pad: str) -> str:
        if not isinstance(obj, (dict, list, tuple)):
            if type(obj) is Flat:
                return writer(flat_writer, pad)(obj)
            if type(obj) is Localization:
                return localization_text(obj, pad)
            return _SCALAR_TEXT.get(type(obj), json.dumps)(obj)
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = pad + "  "
        if isinstance(obj, dict):
            parts = item_parts(obj, inner)
            parts[0] = "{" + inner
            parts += (pad, "}")
            return "".join(parts)
        key = (pad, id(obj)) if type(obj) is tuple else None
        if key in shared:
            return shared[key]
        kinds = set(map(type, obj))
        kind = kinds.pop() if len(kinds) == 1 else None
        write = writer(flat_writer, inner) if kind is Flat else _SCALAR_TEXT.get(kind, lambda x: text(x, inner))
        out = "[" + inner + ("," + inner).join(map(write, obj)) + pad + "]"
        if key:
            shared[key] = out
        return out

    out = text(obj, pad)
    # `text` refers to itself, so these closures form a cycle: free the texts now.
    writers.clear()
    shared.clear()
    return out


def emit(fmt: str, doc: dict, **lines: list[str]) -> None:
    """Print `doc` as indented JSON, or the `csv` or `human` lines, as --format asks.

    The JSON is the bytes of `json.dumps(doc, indent=2, default=lambda x:
    x.to_json_dict())`, built by `_indented_json` from C-level joins.
    """
    print(_indented_json(doc) if fmt == "json" else "\n".join(lines[fmt]))


def cmd_report(args: argparse.Namespace) -> int:
    """`compute` on central input prints the central pair; every other
    input, and `localize` always, prints the affine localization report.
    A verification mismatch gives exit 1."""
    arr = load_arrangement(args)
    if args.command == "compute" and arr.is_central:
        result, verify = rlct_central(arr), verify_central
    else:
        result, verify = rlct_affine(arr), verify_report
    doc = {"input": arrangement_to_json_dict(arr), **result.to_json_dict(flat=None)}
    if args.verify:
        doc["verify"] = verify(arr, result)
    human = [
        f"arrangement: {arr.n} hyperplanes in dimension {arr.dim}"
        f" ({'central' if arr.is_central else 'affine'})",
        f"lambda = {doc['lambda']}",
        f"m = {doc['m']}",
    ]
    if args.format == "human":  # built only when printed: each line formats its point again
        human += [
            f"  at ({', '.join(quotient_strings(*loc.integer_point))}): lambda = {format_rational(loc.pair.threshold)},"
            f" m = {loc.pair.multiplicity}"
            for loc in doc.get("localizations", ())
        ]
    emit(args.format, doc, csv=["lambda,m", f"{doc['lambda']},{doc['m']}"], human=human)
    if args.verify and not all(doc["verify"].values()):
        print("verification mismatch between production and oracle paths", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_volume_fit(args: argparse.Namespace) -> int:
    """`exact` is the pair of the sampled box (the default box without
    --box): the most singular local pair on it, from one `box_pair` call.
    The grid, the fit's rules on it (0 < eps < 1, three distinct values)
    and the box are checked before the exact pair is solved and before any
    draw, so a bad --eps-* or --box fails without running the closure. The
    sweep draws once, at max(grid), and counts each point with `.at`.
    `exact` uses each point's full-neighbourhood pair, so where a flat only
    touches the box the printed λ is too small: `--poly "vars x, y;
    (x+y-2)" --selftest` prints lambda = 1, while the sampled slopes read
    2 (see `box_pair`)."""
    from .volume import check_fit_epsilons, epsilon_grid, synthetic_samples

    arr = load_arrangement(args)
    grid = epsilon_grid(args.eps_min, args.eps_max, args.eps_points)
    check_fit_epsilons(grid)
    box = normalize_box(parse_box(args.box, arr.dim), arr.dim)
    lam, m = box_pair(arr, box).astuple()

    if args.selftest:
        samples = synthetic_samples(float(lam), m, 1.0, grid)
    else:
        top = estimate_volume(arr, box, max(grid), samples=args.samples, seed=args.seed)
        samples = [top.at(eps) for eps in grid]
    fit = fit_asymptotics(samples)
    doc = {
        "input": arrangement_to_json_dict(arr),
        "exact": {"lambda": format_rational(lam), "m": m},
        "samples": [
            {
                "epsilon": s.epsilon,
                "volume": s.volume_estimate,
                "std_error": s.std_error,
                "sample_count": s.sample_count,
            }
            for s in samples
        ],
        "fit": asdict(fit),
        "fit_fixed_m": asdict(fit_asymptotics(samples, fixed_multiplicity=m)),
    }
    # One row format for the --gnuplot file and the csv table.
    rows = [[f"{x:.12g}" for x in (s.epsilon, s.volume_estimate, s.std_error)] for s in samples]
    columns = ["epsilon", "volume", "std_error"]
    if args.gnuplot:
        Path(args.gnuplot).write_text("".join(" ".join(r) + "\n" for r in [["#", *columns], *rows]))
    human = [
        f"exact pair: lambda = {doc['exact']['lambda']}, m = {m}",
        f"fitted:     lambda_hat = {fit.lambda_hat:.4f}, m_hat = {fit.m_hat:.4f}",
    ] + [f"  eps = {s.epsilon:.3e}  V = {s.volume_estimate:.6e}  +- {s.std_error:.2e}" for s in samples]
    emit(args.format, doc, csv=[",".join(r) for r in [columns, *rows]], human=human)
    if args.format == "csv":
        print(json.dumps({"exact": doc["exact"], "fit": doc["fit"]}), file=sys.stderr)
    close = abs(fit.lambda_hat - float(lam)) < 1e-6 and abs(fit.m_hat - m) < 1e-6
    if args.selftest and not close:
        print("synthetic self-test failed to recover the exact pair", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_parse(args: argparse.Namespace) -> int:
    arr = load_arrangement(args)
    names = arr.var_names()
    human, csv = [], []
    for j in range(arr.n):
        normal, offset, mult = arr.hyperplane(j)
        terms = [f"{format_rational(c)}*{names[i]}" for i, c in enumerate(normal) if c != 0]
        if offset != 0:
            terms.append(format_rational(offset))
        human.append(f"[{mult}] {' + '.join(terms)} = 0")
        fields = [format_rational(c) for c in normal] + [str(mult)]
        if not arr.is_central:
            fields.append(format_rational(offset))
        csv.append(",".join(fields))
    emit(args.format, arrangement_to_json_dict(arr), csv=csv, human=human)
    return EXIT_OK


# Built once per process; `main` only parses, however often it is called.
_PARSER = build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (`rlct ... | head`): exit quietly, as a
        # SIGPIPE would end the process; the unflushed rest goes to devnull.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except SizeLimitError as exc:
        print(f"error: {exc} (drop --verify or shrink the input)", file=sys.stderr)
        return EXIT_USER_ERROR
    except (ValueError, OSError) as exc:
        # RlctError and json.JSONDecodeError are ValueErrors; stray ones
        # (bad seeds, malformed numbers) are user errors at this boundary too.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
