"""Spans recorded from outside the program, at the bindings between layers.

A traced pass replaces each module attribute listed in BINDINGS with a
wrapper that records (name, start, end, parent, op) and the counts its hook
reads off the call, then restores the original attribute. Nothing in
`src/` changes; a layer is timed where the layer above calls it. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter


def _lattice_counts(args, kwargs, result):
    return {"flats": len(result.flats)}


def _central_counts(args, kwargs, result):
    return {"minimizers": len(result.minimizer_flats)}


def _localize_counts(args, kwargs, result):
    return {"localizations": len(result)}


def _volume_counts(args, kwargs, result):
    arr = args[0]
    points = result.sample_count
    return {"points": points, "bytes": points * (arr.dim + arr.n) * 8}


# (module, attribute, span name, count hook). rlct_central is bound twice:
# the CLI calls it for central input, rlct_affine once per localization.
BINDINGS = [
    ("rlct.cli", "parse_factored_product", "parser.parse", None),
    ("rlct.cli", "normalize", "arrangement.normalize", None),
    ("rlct.cli", "rlct_central", "threshold.rlct_central", _central_counts),
    ("rlct.cli", "rlct_affine", "threshold.rlct_affine", None),
    ("rlct.cli", "estimate_volume", "volume.estimate_volume", _volume_counts),
    ("rlct.cli", "fit_asymptotics", "volume.fit_asymptotics", None),
    ("rlct.threshold", "rlct_central", "threshold.rlct_central", _central_counts),
    ("rlct.threshold", "maximal_central_localizations", "threshold.localize", _localize_counts),
    ("rlct.threshold", "build_lattice", "lattice.build_lattice", _lattice_counts),
]


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, fn, *args, counts=None, **kwargs):
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if counts is not None:
            span[5] = counts(args, kwargs, result)
        return result

    def wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding for its traced wrapper, and always swap back."""
        saved = []
        try:
            for module_name, attr, name, counts in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the time covered by direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(spans):
    """{span name: {"self_s", "calls", counts...}} summed over the given spans."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in span[5].items():
            entry[key] = entry.get(key, 0) + value
    return totals


# Per-layer metric -> (span name, field, unit).
LAYER_METRICS = {
    "parser.parse_s": ("parser.parse", "self_s", "s"),
    "arrangement.normalize_s": ("arrangement.normalize", "self_s", "s"),
    "lattice.build_s": ("lattice.build_lattice", "self_s", "s"),
    "lattice.calls": ("lattice.build_lattice", "calls", "count"),
    "lattice.flats": ("lattice.build_lattice", "flats", "count"),
    "threshold.central_self_s": ("threshold.rlct_central", "self_s", "s"),
    "threshold.minimizers": ("threshold.rlct_central", "minimizers", "count"),
    "threshold.localize_s": ("threshold.localize", "self_s", "s"),
    "threshold.localizations": ("threshold.localize", "localizations", "count"),
    "threshold.affine_self_s": ("threshold.rlct_affine", "self_s", "s"),
    "volume.estimate_s": ("volume.estimate_volume", "self_s", "s"),
    "volume.points_evaluated": ("volume.estimate_volume", "points", "count"),
    "volume.bytes_computed": ("volume.estimate_volume", "bytes", "B"),
    "volume.fit_s": ("volume.fit_asymptotics", "self_s", "s"),
    "cli.self_s": ("cli.main", "self_s", "s"),
}
# Units of every per-layer metric, including those not read off spans.
UNITS = {name: spec[2] for name, spec in LAYER_METRICS.items()} | {
    "lattice.flats_per_s": "1/s",
    "cli.stdout_bytes": "B",
    "volume.lambda_err": "1",
    "trace.overhead_pct": "%",
}


def layer_metrics(passes, expected_spans):
    """Per-pass layer values, median over traced passes, and the missing spans.

    `passes` is one list of spans per traced pass. A layer whose span is not
    expected on this workload did no work and reads 0; an expected span that
    never fired is left out and returned in `missing`.
    """
    per_pass = [layer_totals(spans) for spans in passes]
    fired = set().union(*per_pass)
    missing = sorted(set(expected_spans) - fired)
    values = {}
    for metric, (span, key, _) in LAYER_METRICS.items():
        if span in missing:
            continue
        values[metric] = statistics.median(t.get(span, {}).get(key, 0) for t in per_pass)
    if "lattice.build_lattice" not in missing and values["lattice.build_s"] > 0:
        values["lattice.flats_per_s"] = values["lattice.flats"] / values["lattice.build_s"]
    return values, missing
