"""rlct benchmark: seeded workloads through `rlct.cli.main`, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; `rlct` is imported from `src/` beside this
directory. One caller runs the workload's op list in a closed loop, each op
an in-process `rlct.cli.main([...])` call with stdout captured. The run
makes round(S / nominal pass time) passes over the list (at least one), so
every commit times the same ops. Each op's output is checked against
independent expected values outside the timed region (see expect.py).
End-to-end times are scaled to a host-speed reference timed between ops
(see hostspeed.py); the raw times are in the record line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracing
overhead. The last stdout line is the result object; the line before it
records the environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from hashlib import blake2b
from pathlib import Path

import hostspeed
import workloads
from spans import UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to an op failing)."""


def import_cli():
    """Import `rlct.cli` from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rlct.cli
    except ImportError as exc:
        raise BenchError(f"cannot import rlct from {src}: {exc}") from exc
    if Path(rlct.cli.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"imported rlct from {rlct.cli.__file__}, not from {src}")
    return rlct.cli


def setup(workload_name, seed):
    """Import rlct, generate the inputs and run one warm-up op.

    Returns (cli, workload, seconds at the reference speed, raw seconds).
    """
    before = hostspeed.time_reference()
    start = time.perf_counter()
    cli = import_cli()
    workload = workloads.build(workload_name, seed)
    rc, _, err, _ = run_op(cli, workload.warmup)
    if rc != 0:
        raise BenchError(f"warm-up op {workload.warmup} failed: {err}")
    seconds = time.perf_counter() - start
    scale = hostspeed.pass_scales([before, hostspeed.time_reference()], "interpreter")[0]
    return cli, workload, seconds * scale, seconds


def run_op(cli, argv, tracer=None):
    """One op: returns (exit code or None if it raised, stdout, stderr or error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.call("cli.main", cli.main, list(argv))
    except SystemExit as exc:  # argparse exits on usage errors; that is the op's exit code
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
        rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def exit_problem(rc, stderr):
    lines = stderr.strip().splitlines()
    return f"exit {rc}: {lines[-1] if lines else ''}"


def check_output(op, rc, stdout, stderr):
    """Problems with one op's result; an empty list means the op passed."""
    if rc != 0:
        return [exit_problem(rc, stderr)]
    try:
        return op.expect.check(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


class Runner:
    """Runs passes over one workload's ops and keeps the per-op record."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.lambda_errs = []
        self.stdout_bytes = 0

    def run_pass(self):
        """Time every op once, with the host-speed reference timed before the
        first op and after each; returns the op latencies in list order, raw
        and scaled to the reference speed."""
        kind = self.workload.reference
        raw, refs = [], [hostspeed.time_reference(kind)]
        for index, op in enumerate(self.workload.ops):
            rc, stdout, stderr, seconds = run_op(self.cli, op.argv)
            refs.append(hostspeed.time_reference(kind))
            self.record(index, op, rc, stdout, stderr)
            raw.append(seconds)
        return raw, [t * f for t, f in zip(raw, hostspeed.pass_scales(refs, kind))]

    def run_traced_pass(self, tracer):
        """Each op untraced and then traced, back to back, so both see the same
        host speed; returns the two pass times."""
        plain = traced = 0.0
        for index, op in enumerate(self.workload.ops):
            plain += self.run_one(index, op)
            tracer.op = self.attempted
            with tracer.installed():
                traced += self.run_one(index, op, tracer)
        return plain, traced

    def run_one(self, index, op, tracer=None):
        rc, stdout, stderr, seconds = run_op(self.cli, op.argv, tracer)
        self.record(index, op, rc, stdout, stderr)
        return seconds

    def record(self, index, op, rc, stdout, stderr):
        """Check an op outside the timed region: fully the first time, by digest after."""
        self.attempted += 1
        digest = blake2b(stdout.encode(), digest_size=16).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            self.stdout_bytes += len(stdout.encode())
            problems = check_output(op, rc, stdout, stderr)
            if not problems and hasattr(op.expect, "lambda_err"):
                self.lambda_errs.append(op.expect.lambda_err(json.loads(stdout)))
        elif rc != 0:
            problems = [exit_problem(rc, stderr)]
        elif digest != self.digests[index]:
            problems = ["output differs from the first pass"]
        else:
            problems = []
        if problems:
            self.failures.append(f"{op.label}: {'; '.join(problems)}")


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10  # ops at or below this one; ten are slower
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup_probes(workload_name, seed, count):
    """Set-up time of `count` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run(workload_name, seed, seconds, trace):
    cli, workload, setup_s, raw_setup_s = setup(workload_name, seed)
    passes = max(1, round(seconds / workload.nominal_pass_s))
    runner = Runner(cli, workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload_name)
    info = {"workload": workload_name, "seed": seed, "why": why, **environment()}
    if trace:
        # Each traced pass runs every op twice, so half as many keep the run's length.
        pairs = max(1, round(passes / 2))
        plain_s = traced_s = 0.0
        traced_spans = []
        for _ in range(pairs):
            tracer = Tracer()
            plain, traced = runner.run_traced_pass(tracer)
            plain_s += plain
            traced_s += traced
            traced_spans.append(tracer.spans)
        values, missing = layer_metrics(traced_spans, workload.spans)
        overhead = 100.0 * (traced_s / plain_s - 1.0)
        values["cli.stdout_bytes"] = runner.stdout_bytes
        values["volume.lambda_err"] = max(runner.lambda_errs, default=0.0)
        values["trace.overhead_pct"] = overhead
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        info.update(pairs=pairs, missing_spans=missing, tracing_overhead_pct=overhead)
        write_spans(workload_name, seed, traced_spans)
    else:
        raw_passes, scaled_passes, setups = [], [], [setup_s]
        probes_per_pass = -(-(SETUP_SAMPLES - 1) // passes)
        for _ in range(passes):
            raw, scaled = runner.run_pass()
            raw_passes.append(raw)
            scaled_passes.append(scaled)
            # Set-up probes between passes, so the median spans the whole run.
            setups += setup_probes(workload_name, seed, min(probes_per_pass, SETUP_SAMPLES - len(setups)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies = [seconds for scaled in scaled_passes for seconds in scaled]
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # The op list's time with each op at its median over the passes.
            "wall_s": {"value": sum(map(statistics.median, zip(*scaled_passes))), "unit": "s"},
            "op_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        info.update(passes=passes, ops=len(latencies), tail_percentile=tail_pct,
                    raw_wall_s=sum(map(statistics.median, zip(*raw_passes))),
                    raw_pass_walls_s=[sum(raw) for raw in raw_passes],
                    setup_samples_s=setups, raw_setup_s=raw_setup_s)
    for probe in workload.probes:
        rc, stdout, stderr, _ = run_op(cli, probe.argv)
        problems = check_output(probe, rc, stdout, stderr)
        info.setdefault("known_defect_probes", {})[probe.label] = problems or "passes"
    times = os.times()
    info.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        error_rate=len(runner.failures) / runner.attempted,
        failures=runner.failures[:5],
        lambda_err_max=max(runner.lambda_errs, default=None),
        cpu_s=times.user + times.system,
        children_cpu_s=times.children_user + times.children_system,
    )
    return info, {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def write_spans(workload_name, seed, traced_spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload_name}-seed{seed}.json"
    with path.open("w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"], "passes": traced_spans}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
