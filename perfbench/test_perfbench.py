"""Tests of the benchmark itself: python3 -m pytest perfbench

A trimmed op list of every workload runs and passes its checks, a wrong
expected pair and a failing exit are counted as failed ops, and the
command refuses to print a result when the program's sources are absent.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hostspeed
import run
import workloads
from expect import CentralExpect
from spans import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
GOLDEN_ARGV = ("compute", "--poly", "x*y^2*z^2*(x+y+z)")


def runner_for(ops):
    cli = run.import_cli()
    workload = dataclasses.replace(workloads.build("central-generic", 0), ops=ops)
    return run.Runner(cli, workload)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_of_each_workload_passes_its_checks(name):
    workload = workloads.build(name, 7)
    runner = runner_for(workload.ops[:2])
    runner.run_pass()
    runner.run_pass()
    assert runner.attempted == 4
    assert runner.failures == []


def test_same_seed_gives_same_inputs_and_other_seeds_differ():
    for name in workloads.WORKLOADS:
        first = [op.argv for op in workloads.build(name, 3).ops]
        assert first == [op.argv for op in workloads.build(name, 3).ops]
        assert first != [op.argv for op in workloads.build(name, 4).ops]


def test_wrong_expected_pair_counts_as_failed_op():
    wrong = CentralExpect(GOLDEN_ROWS, [1, 2, 2, 1], lambda normals, mults: (Fraction(1, 3), 3, None))
    right = CentralExpect(GOLDEN_ROWS, [1, 2, 2, 1], lambda normals, mults: (Fraction(1, 2), 3, None))
    runner = runner_for([workloads.Op("wrong", GOLDEN_ARGV, wrong), workloads.Op("right", GOLDEN_ARGV, right)])
    runner.run_pass()
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and runner.failures[0].startswith("wrong:")


def test_nonzero_exit_counts_as_failed_op():
    expect = CentralExpect(GOLDEN_ROWS, [1, 2, 2, 1], lambda normals, mults: (Fraction(1, 2), 3, None))
    runner = runner_for([workloads.Op("bad input", ("compute", "--poly", "x*(y"), expect)])
    runner.run_pass()
    assert len(runner.failures) == 1 and "exit 2" in runner.failures[0]


def test_tail_has_ten_ops_beyond_it():
    latencies = [float(i) for i in range(1, 31)]
    value, percentile = run.tail(latencies)
    assert value == 20.0 and sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_pass_scales_follow_the_reference_around_each_op():
    nominal = hostspeed.REFERENCES["interpreter"][1]
    assert hostspeed.pass_scales([nominal] * 4, "interpreter") == pytest.approx([1.0] * 3)
    # A host at half speed from the third op on: the ops before it keep a
    # scale near 1, the last op is halved.
    scales = hostspeed.pass_scales([nominal] * 3 + [2 * nominal] * 3, "interpreter")
    assert scales[0] == pytest.approx(1.0) and scales[-1] == pytest.approx(0.5)
    assert scales == sorted(scales, reverse=True)


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, None, 0, {}],
        ["inner", 1.0, 4.0, 0, 0, {"flats": 2}],
        ["inner", 5.0, 6.0, 0, 0, {"flats": 3}],
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == {"self_s": 6.0, "calls": 1}
    assert totals["inner"] == {"self_s": 4.0, "calls": 2, "flats": 5}


def test_tracer_restores_bindings_and_records_layers():
    cli = run.import_cli()
    import rlct.threshold

    original = rlct.threshold.build_lattice
    tracer = Tracer()
    with tracer.installed():
        rc, _, _, _ = run.run_op(cli, GOLDEN_ARGV, tracer)
    assert rc == 0
    assert rlct.threshold.build_lattice is original
    totals = layer_totals(tracer.spans)
    assert totals["lattice.build_lattice"]["flats"] == 11
    assert totals["threshold.rlct_central"]["minimizers"] >= 3
    assert {"cli.main", "parser.parse", "arrangement.normalize"} <= set(totals)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_its_mode(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "affine-grid", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "central-generic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
