"""End-to-end exercise of the command-line surfaces."""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlct.cli
import rlct.lattice
import rlct.oracle
import rlct.threshold
from rlct import (
    ArrangementSpec,
    RationalMatrix,
    arrangement_from_json,
    arrangement_to_json_dict,
    build_lattice,
    default_epsilon_grid,
    estimate_volume,
    normalize,
    parse_factored_product,
    rlct_affine,
    rlct_central,
    rref,
)
from rlct.cli import main
from rlct.ratlinalg import format_rational

from conftest import random_central_arrangement, random_invertible, random_rational, unreduced_rref_strings
from test_golden_cli import CASES, PARALLEL_DOUBLE_PLANES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_matrix_json_input(self, tmp_path, capsys):
        doc = {
            "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
            "multiplicities": [1, 2, 2, 1],
        }
        path = tmp_path / "planes.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == "1/2"
        assert result["m"] == 3
        assert len(result["witness_chain"]) == 3

    def test_poly_input(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--poly", "x*y")
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == "1"
        assert result["m"] == 2

    def test_dimension_mismatch_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"normals": [[1, 0], [0, 1]], "multiplicities": []}))
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "multiplicities" in err or "0" in err
        # Wrong shapes and inexact numbers are input errors (exit 2), never
        # crashes (exit 1 is reserved for --verify mismatches).
        malformed = [
            {"normals": [[1.5, 2]], "multiplicities": [1]},
            {"normals": 5, "multiplicities": [1]},
            {"normals": [[1, 0]], "multiplicities": 5},
            {"polynomial": 5},
            {"normals": [[1, 0]], "multiplicities": [1], "offsets": [0.5]},
            {"normals": [["1/0", 1]], "multiplicities": [1]},
            # Names the factored-product grammar cannot read back.
            {"normals": [[1, 0]], "multiplicities": [1], "variables": ["x", "x"]},
            {"normals": [[1, 0]], "multiplicities": [1], "variables": ["a b", "c"]},
            {"normals": [[1, 0]], "multiplicities": [1], "variables": ["1", "y"]},
        ]
        for doc in malformed:
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "compute", "--input", str(path))
            assert code == 2, doc
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_file_is_user_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/nonexistent/path.json")
        assert code == 2
        assert err.strip()

    def test_verify_flag(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--poly", "x*y^2*z^2*(x+y+z)", "--verify")
        assert code == 0
        result = json.loads(out)
        assert result["verify"] == {"lattice_match": True, "chain_match": True}

    def test_verify_checks_the_witness_chain(self, capsys, monkeypatch):
        # A chain of the right length and members, but largest flat first.
        longest_chain = rlct.threshold._longest_chain

        def reversed_chain(flats):
            m, chain = longest_chain(flats)
            return m, chain[::-1]

        monkeypatch.setattr(rlct.threshold, "_longest_chain", reversed_chain)
        code, out, err = run_cli(capsys, "compute", "--poly", "x*y^2*z^2*(x+y+z)", "--verify")
        assert code == 1
        assert json.loads(out)["verify"] == {"lattice_match": True, "chain_match": False}
        assert "verification mismatch" in err

    def test_verify_checks_the_printed_normal_spaces(self, capsys, monkeypatch):
        monkeypatch.setattr(rlct.lattice, "_rref_strings", unreduced_rref_strings(rlct.lattice._rref_strings))
        code, out, err = run_cli(capsys, "compute", "--poly", "vars x, y, z; (4*x + 10*y + z)*y",
                                 "--verify")
        assert code == 1
        assert json.loads(out)["verify"]["lattice_match"] is False
        assert "verification mismatch" in err

    def test_verify_size_guard_is_user_error(self, capsys):
        poly = "*".join(f"(x+{k}*y)" for k in range(21))
        code, _, err = run_cli(capsys, "compute", "--poly", poly, "--verify")
        assert code == 2
        assert "capped" in err

    def test_affine_input_reports_localizations(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--poly", "x^2*(x-1)")
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == "1/2"
        assert result["m"] == 1
        assert len(result["localizations"]) == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--poly", "x^2*y^3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["lambda,m", "1/3,1"]

    def test_human_format(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--poly", "x*y", "--format", "human")
        assert code == 0
        assert "lambda = 1" in out and "m = 2" in out

    def test_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "compute", "--poly", "x*y^2*z^2*(x+y+z)")
        _, second, _ = run_cli(capsys, "compute", "--poly", "x*y^2*z^2*(x+y+z)")
        assert first == second

    def test_csv_file_input(self, tmp_path, capsys):
        path = tmp_path / "arr.csv"
        path.write_text("1,0,0,1\n0,1,0,2\n0,0,1,2\n1,1,1,1\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == 0
        assert json.loads(out)["lambda"] == "1/2"

    def test_csv_file_with_offsets_needs_dim(self, tmp_path, capsys):
        path = tmp_path / "affine.csv"
        path.write_text("1,1,0\n1,1,-1\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--dim", "1")
        assert code == 0
        assert json.loads(out)["lambda"] == "1"
        assert len(json.loads(out)["localizations"]) == 2

    def test_csv_empty_field_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        for text in ["1,,2\n2,,1\n", "1, ,2\n"]:
            path.write_text(text)
            code, out, err = run_cli(capsys, "compute", "--input", str(path))
            assert code == 2
            assert out == ""
            assert "line 1: empty field 2" in err


class TestLocalize:
    def test_central_input_single_localization(self, capsys):
        code, out, _ = run_cli(capsys, "localize", "--poly", "x*y")
        assert code == 0
        result = json.loads(out)
        assert len(result["localizations"]) == 1
        assert result["localizations"][0]["point"] == ["0", "0"]

    def test_two_points_on_line(self, capsys):
        code, out, _ = run_cli(capsys, "localize", "--poly", "x*(x-1)")
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == "1"
        assert result["m"] == 1
        assert len(result["localizations"]) == 2

    def test_parallel_double_planes(self, tmp_path, capsys):
        doc = {
            "normals": [[0, 0, 1], [0, 0, 1]],
            "offsets": [0, -1],
            "multiplicities": [2, 2],
        }
        path = tmp_path / "planes.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "localize", "--input", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["lambda"] == "1/2"
        assert result["m"] == 1
        assert len(result["localizations"]) == 2

    def test_verify_on_affine_input(self, capsys):
        code, out, _ = run_cli(capsys, "localize", "--poly", "x*(x-1)", "--verify")
        assert code == 0
        result = json.loads(out)
        assert result["verify"] == {"lattice_match": True, "chain_match": True, "localization_match": True}

    def test_verify_checks_the_localizations(self, capsys, monkeypatch):
        # Every reported localization checks out, but one of the two is missing.
        maximal = rlct.threshold.maximal_central_localizations
        monkeypatch.setattr(rlct.threshold, "maximal_central_localizations", lambda arr: maximal(arr)[:-1])
        code, out, err = run_cli(capsys, "localize", "--poly", "x*(x-1)", "--verify")
        assert code == 1
        result = json.loads(out)
        assert len(result["localizations"]) == 1
        assert result["verify"] == {"lattice_match": True, "chain_match": True, "localization_match": False}
        assert "verification mismatch" in err

    def test_verify_localization_cap_is_user_error(self, capsys, monkeypatch):
        # 17 points on the line: past the localization oracle's 16, refused
        # before any local result is checked.
        def unreachable(*args):
            raise AssertionError("checked a local result before the localization cap")

        monkeypatch.setattr(rlct.oracle, "verify_central", unreachable)
        poly = "x*" + "*".join(f"(x-{k})" for k in range(1, 17))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "localize", "--poly", poly, "--verify")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert "capped" in err

    def test_negative_seed_is_user_error(self, capsys):
        code, _, err = run_cli(
            capsys, "volume-fit", "--poly", "x*y", "--samples", "10", "--seed", "-1"
        )
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("poly", ["vars x, y; x*(x-1)*y*(y-1)*(x-y)", "vars x, y, z; x*(x-1)*(y-z)"])
    def test_matches_compute_on_affine(self, capsys, poly, fmt, verify):
        compute = run_cli(capsys, "compute", "--poly", poly, "--format", fmt, *verify)
        localize = run_cli(capsys, "localize", "--poly", poly, "--format", fmt, *verify)
        assert compute == localize
        assert compute[0] == 0 and compute[1]

    def test_agrees_with_compute_on_central(self, capsys):
        _, compute_out, _ = run_cli(capsys, "compute", "--poly", "x*y^2*z^2*(x+y+z)")
        _, localize_out, _ = run_cli(capsys, "localize", "--poly", "x*y^2*z^2*(x+y+z)")
        a, b = json.loads(compute_out), json.loads(localize_out)
        assert (a["lambda"], a["m"]) == (b["lambda"], b["m"])


class TestVolumeFit:
    def test_fit_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "volume-fit", "--poly", "x*y", "--samples", "50000", "--seed", "1",
            "--eps-points", "5", "--eps-min", "1e-4",
        )
        assert code == 0
        result = json.loads(out)
        assert result["exact"] == {"lambda": "1", "m": 2}
        assert len(result["samples"]) == 5
        assert abs(result["fit_fixed_m"]["lambda_hat"] - 1.0) < 0.3

    def test_csv_output_and_gnuplot_file(self, tmp_path, capsys):
        plot = tmp_path / "curve.dat"
        code, out, err = run_cli(
            capsys,
            "volume-fit", "--poly", "x*y", "--samples", "20000", "--seed", "1",
            "--eps-points", "3", "--eps-min", "1e-3", "--format", "csv",
            "--gnuplot", str(plot),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,volume,std_error"
        assert len(lines) == 4
        assert json.loads(err)["exact"]["lambda"] == "1"
        content = plot.read_text().splitlines()
        assert content[0].startswith("#")
        assert len(content) == 4

    def test_selftest_recovers_exact_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--selftest"
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["fit"]["lambda_hat"] - 0.5) < 1e-6
        assert abs(result["fit"]["m_hat"] - 3.0) < 1e-6

    def test_selftest_exits_1_when_the_fit_misses(self, capsys, monkeypatch):
        fit = rlct.cli.fit_asymptotics

        def missed(*args, **kwargs):
            result = fit(*args, **kwargs)
            return replace(result, lambda_hat=result.lambda_hat + 0.01)

        monkeypatch.setattr(rlct.cli, "fit_asymptotics", missed)
        code, out, err = run_cli(capsys, "volume-fit", "--poly", "x*y", "--selftest")
        assert code == 1
        assert json.loads(out)["exact"] == {"lambda": "1", "m": 2}
        assert err == "synthetic self-test failed to recover the exact pair\n"

    def test_box_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "volume-fit", "--poly", "x*y", "--samples", "20000", "--seed", "1",
            "--eps-points", "3", "--eps-min", "1e-3", "--box=-2,2;-2,2",
        )
        assert code == 0
        assert json.loads(out)["samples"][0]["volume"] <= 16.0

    @pytest.mark.parametrize(
        "poly, box",
        [
            ("x^3*(x-1/10)", "1/20,1/5"),  # the whole arrangement's pair (1/3, 1) is at x = 0
            ("x*y", "1,2;-1,1"),  # only the line y = 0, not the point (0, 0), meets the box
            ("vars x, y; x*(x-1)", "1/2,2;5,6"),  # x = 1 crosses the box away from (1, 0)
        ],
    )
    def test_exact_is_the_pair_of_the_box(self, capsys, poly, box):
        code, out, _ = run_cli(capsys, "volume-fit", "--poly", poly, "--box", box, "--selftest")
        assert code == 0
        assert json.loads(out)["exact"] == {"lambda": "1", "m": 1}

    def test_box_without_a_zero_is_user_error(self, capsys):
        code, out, err = run_cli(capsys, "volume-fit", "--poly", "x*(x-1)", "--box", "2,3", "--samples", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "no zero" in err

    def test_central_exact_pair_is_one_rlct_central(self, capsys, monkeypatch):
        # The benchmark's ops: central input, default box. One rlct_central
        # call on the input itself, through the binding `box_pair` calls,
        # and no augmented closure.
        calls = []
        central = rlct.threshold.rlct_central
        monkeypatch.setattr(rlct.threshold, "rlct_central", lambda arr: calls.append(arr) or central(arr))
        monkeypatch.setattr(rlct.threshold, "_closure", None)
        code, out, _ = run_cli(capsys, "volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--selftest")
        assert code == 0
        assert calls == [normalize(parse_factored_product("x*y^2*z^2*(x+y+z)"))]
        assert json.loads(out)["exact"] == {"lambda": "1/2", "m": 3}

    def test_sweep_equals_library_sweep(self, capsys):
        # The CLI samples default_epsilon_grid() itself, so a library sweep
        # reproduces its samples bit for bit.
        code, out, _ = run_cli(
            capsys, "volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--samples", "70001", "--seed", "3"
        )
        assert code == 0
        arr = normalize(parse_factored_product("x*y^2*z^2*(x+y+z)"))
        library = [estimate_volume(arr, None, eps, 70001, seed=3) for eps in default_epsilon_grid()]
        assert json.loads(out)["samples"] == [
            {"epsilon": s.epsilon, "volume": s.volume_estimate, "std_error": s.std_error,
             "sample_count": s.sample_count}
            for s in library
        ]

    def test_infinite_eps_max_is_user_error(self, capsys):
        code, out, err = run_cli(capsys, "volume-fit", "--poly", "x*y", "--eps-max", "inf")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "eps-max" in err and "nan" not in err

    @pytest.mark.parametrize(
        "bad",
        [
            ("--eps-points", "0"),
            ("--eps-min", "0"),
            ("--box", "1,2,3"),
            ("--eps-max", "1"),
            ("--eps-points", "2"),
            ("--eps-min", "0.01", "--eps-max", "0.01"),
        ],
    )
    def test_grid_and_box_fail_before_the_exact_pair(self, capsys, monkeypatch, bad):
        def unreachable(*args):
            raise AssertionError("solved the exact pair before checking the grid and box")

        monkeypatch.setattr(rlct.cli, "box_pair", unreachable)
        monkeypatch.setattr(rlct.cli, "rlct_central", unreachable)
        monkeypatch.setattr(rlct.cli, "rlct_affine", unreachable)
        code, out, err = run_cli(capsys, "volume-fit", "--poly", "x*y", *bad)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "bad", [("--seed", "-1"), ("--seed", str(2**128)), ("--samples", "0"), ("--samples", "-5")]
    )
    def test_seed_and_samples_fail_before_the_exact_pair(self, capsys, monkeypatch, bad):
        # The sampler's key and count, checked with the grid and box and
        # named by their flag; --selftest draws nothing, so it ignores them.
        def unreachable(*args):
            raise AssertionError("solved the exact pair before checking --seed and --samples")

        with monkeypatch.context() as patch:
            patch.setattr(rlct.cli, "box_pair", unreachable)
            code, out, err = run_cli(capsys, "volume-fit", "--poly", "x*y", *bad)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad[0]} {bad[1]} ") and err.count("\n") == 1, err
        code, out, _ = run_cli(capsys, "volume-fit", "--poly", "x*y", *bad, "--selftest", "--format", "csv")
        assert code == 0 and out.startswith("epsilon,volume,std_error\n0.01,0.0460517018599,0\n")

    def test_selftest_epsilon_of_one_is_an_epsilon_error(self, capsys):
        # Nothing is sampled, so the sample-count advice would be wrong.
        code, out, err = run_cli(capsys, "volume-fit", "--poly", "x*y", "--selftest", "--eps-max", "1")
        assert code == 2 and out == ""
        assert err == "error: asymptotic fitting needs 0 < epsilon < 1\n", err

    def test_selftest_csv_and_human_bytes(self, capsys):
        argv = ("volume-fit", "--poly", "x*y^2*z^2*(x+y+z)", "--selftest")
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "epsilon,volume,std_error",
            "0.01,2.12075924419,0",
            "0.00316227766017,1.86342275592,0",
            "0.001,1.50894665561,0",
            "0.000316227766017,1.15496138989,0",
            "0.0001,0.848303697677,0",
            "3.16227766017e-05,0.603748972918,0",
            "1e-05,0.419151848781,0",
            "3.16227766017e-06,0.285204751381,0",
            "1e-06,0.190868331977,0",
        ]
        summary = json.loads(err)
        assert summary["exact"] == {"lambda": "1/2", "m": 3}
        assert abs(summary["fit"]["lambda_hat"] - 0.5) < 1e-6
        code, out, err = run_cli(capsys, *argv, "--format", "human")
        assert code == 0 and err == ""
        assert out == (
            "exact pair: lambda = 1/2, m = 3\n"
            "fitted:     lambda_hat = 0.5000, m_hat = 3.0000\n"
            "  eps = 1.000e-02  V = 2.120759e+00  +- 0.00e+00\n"
            "  eps = 3.162e-03  V = 1.863423e+00  +- 0.00e+00\n"
            "  eps = 1.000e-03  V = 1.508947e+00  +- 0.00e+00\n"
            "  eps = 3.162e-04  V = 1.154961e+00  +- 0.00e+00\n"
            "  eps = 1.000e-04  V = 8.483037e-01  +- 0.00e+00\n"
            "  eps = 3.162e-05  V = 6.037490e-01  +- 0.00e+00\n"
            "  eps = 1.000e-05  V = 4.191518e-01  +- 0.00e+00\n"
            "  eps = 3.162e-06  V = 2.852048e-01  +- 0.00e+00\n"
            "  eps = 1.000e-06  V = 1.908683e-01  +- 0.00e+00\n"
        )

    def test_bad_grid_is_user_error(self, capsys):
        for grid in (("--eps-min", "0.5", "--eps-max", "0.1"), ("--eps-points", "0"), ("--eps-min", "0")):
            code, _, err = run_cli(capsys, "volume-fit", "--poly", "x*y", *grid)
            assert code == 2
            assert "eps" in err
        code, _, err = run_cli(capsys, "volume-fit", "--poly", "x*y", "--box", "1/0,1")
        assert code == 2
        assert "zero denominator" in err
        # Numbers beyond the float range: no OverflowError, no NaN on stdout.
        huge = "1" + "0" * 400
        for argv in (
            ("--poly", "x", "--box", "0,1e400"),
            ("--poly", f"(x+{huge})*y"),
            ("--poly", "x*y", "--box", "0,1e200", "--samples", "20000", "--eps-min", "0.01", "--eps-max", "0.5"),
        ):
            code, out, err = run_cli(capsys, "volume-fit", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "float range" in err


class TestParseCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--poly", "x*y^2*z^2*(x+y+z)")
        assert code == 0
        result = json.loads(out)
        assert result["multiplicities"] == [2, 2, 1, 1]
        assert result["central"] is True

    def test_syntax_error_position_surfaces(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--poly", "x*)y")
        assert code == 2
        assert "position 2" in err

    def test_nonlinear_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--poly", "(x*y)")
        assert code == 2
        assert "not linear" in err

    def test_human_and_csv_formats(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--poly", "x*(x-1)", "--format", "human")
        assert code == 0
        assert "= 0" in out
        code, out, _ = run_cli(capsys, "parse", "--poly", "x*(x-1)", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["1,1,-1", "1,1,0"]

    def test_exact_human_and_csv_lines(self, capsys):
        # A squared factor with a fractional normal, an offset and a variable
        # that only some factors use: one loop builds both formats.
        poly = "vars x, y; (1/2*x - y + 3)^2*(x+y)*x*(x-1)"
        code, out, err = run_cli(capsys, "parse", "--poly", poly, "--format", "human")
        assert (code, err) == (0, "")
        assert out == "[2] 1*x + -2*y + 6 = 0\n[1] 1*x + -1 = 0\n[1] 1*x = 0\n[1] 1*x + 1*y = 0\n"
        code, out, err = run_cli(capsys, "parse", "--poly", poly, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "1,-2,2,6\n1,0,1,-1\n1,0,1,0\n1,1,1,0\n"

    def test_lines_equal_the_fraction_views(self, capsys, tmp_path):
        # `parse` prints its lines from its JSON document's texts; the
        # reference builds them from `hyperplane()` and `format_rational`.
        def reference(arr):
            names, human, csv = arr.var_names(), [], []
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
            return human, csv

        def entry(big):
            x = rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(10**12), 10**12) if big else 1))
            return str(Fraction(x, rng.choice((1, 1, rng.randint(1, 12), rng.randint(1, 10**9) if big else 2))))

        rng = random.Random(4821)
        path = tmp_path / "arr.json"
        fractional = negative = zero = large = 0
        for draw in range(60):
            d, n, central, big = rng.randint(1, 4), rng.randint(1, 6), draw % 2 == 0, draw % 3 == 0
            normals = []
            while len(normals) < n:
                normal = [entry(big) for _ in range(d)]
                if any(x != "0" for x in normal):
                    normals.append(normal)
            normals += rng.sample(normals, rng.randint(0, len(normals)))  # proportional rows merge
            doc = {"normals": normals, "multiplicities": [rng.randint(1, 3) for _ in normals]}
            if not central:
                doc["offsets"] = [entry(big) for _ in normals]
            if rng.random() < 0.5:
                doc["variables"] = [f"v{i}" for i in range(d)]
            path.write_text(json.dumps(doc))
            human, csv = reference(normalize(arrangement_from_json(path.read_text())))
            for fmt, lines in (("human", human), ("csv", csv)):
                assert main(["parse", "--input", str(path), "--format", fmt]) == 0
                assert capsys.readouterr().out == "\n".join(lines) + "\n", (doc, fmt)
            fields = [x for line in csv for x in line.split(",")]
            fractional += any("/" in x for x in fields)
            negative += any(x.startswith("-") for x in fields)
            zero += "0" in fields
            large += any(len(x) > 12 for x in fields)
        assert min(fractional, negative, zero, large) >= 10, (fractional, negative, zero, large)


class TestMain:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        # The parser is built at import; main only parses with it.
        def rebuilt():
            raise AssertionError("main rebuilt the argument parser")

        monkeypatch.setattr(rlct.cli, "build_arg_parser", rebuilt)
        code, out, _ = run_cli(capsys, "compute", "--poly", "x*y")
        assert code == 0
        assert json.loads(out)["lambda"] == "1"

    def test_closed_stdout_exits_141_quietly(self):
        # A reader that stops early (`rlct compute ... | head -c 10`) closes the
        # pipe under a report of about 1 MB: exit 128 + SIGPIPE, nothing on stderr.
        src = str(Path(rlct.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, rlct.cli; sys.exit(rlct.cli.main(sys.argv[1:]))"
        poly = "x1*x2*x3*x4*x5*x6*x7*x8*x9*x10"
        with subprocess.Popen([sys.executable, "-c", code, "compute", "--poly", poly],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "input'
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (141, b"")

    def test_numbers_past_the_int_str_digit_limit(self, capsys):
        # CPython (3.10.7 on) refuses int <-> str conversions past 4,300 digits.
        # 2,500-digit coefficients put the witness point at about 5,000 digits,
        # and a 4,400-digit coefficient is past the cap in the parser. `main`
        # lifts the cap for its command and puts it back on every exit path.
        a, b = "7" * 2500, "3" * 2500
        poly = f"vars x, y; ({a}*x + y - 1)*(x + {b}*y + 1)"
        limit = _int_digit_limit()
        code, out, _ = run_cli(capsys, "compute", "--poly", poly, "--format", "csv")
        assert (code, out, _int_digit_limit()) == (0, "lambda,m\n1,2\n", limit)
        code, out, _ = run_cli(capsys, "compute", "--poly", poly)
        assert (code, _int_digit_limit()) == (0, limit)
        det = int(a) * int(b) - 1
        with _no_int_digit_limit():
            point = [format_rational(Fraction(int(b) + 1, det)), format_rational(Fraction(-int(a) - 1, det))]
        assert json.loads(out)["global_point"] == point
        code, out, _ = run_cli(capsys, "compute", "--poly", f"vars x, y; ({'7' * 4400}*x + y - 1)*y", "--format", "csv")
        assert (code, out, _int_digit_limit()) == (0, "lambda,m\n1,2\n", limit)
        assert run_cli(capsys, "compute", "--poly", "(x+y")[0] == 2
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert _int_digit_limit() == limit


def _int_digit_limit():
    """CPython's cap on int <-> str conversion; 0, none, before 3.10.7."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@contextlib.contextmanager
def _no_int_digit_limit():
    limit = _int_digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _linear_form(coefs, const, names):
    """The text of sum(c * name) + const, in the parser's grammar."""
    terms = [f"{c}*{name}" for c, name in zip(coefs, names) if c] + ([str(const)] if const else [])
    return "(" + " + ".join(terms).replace("+ -", "- ") + ")"


class TestIntegerToThePrintEdge:
    """`rlct compute` keeps arrangements, local arrangements and witness
    points as integers until it prints them: a report builds no
    `RationalMatrix`, and no `Fraction` but the λ of each result it solves."""

    def test_compute_builds_only_the_lambda_fractions(self, capsys, monkeypatch):
        rng = random.Random(463)
        names = ["x1", "x2", "x3", "x4"]

        def draw(n, d, offsets):
            forms = []
            while len(forms) < n:
                coefs = [rng.randint(-5, 5) for _ in range(d)]
                if any(coefs):
                    forms.append(_linear_form(coefs, rng.randint(-4, 4) if offsets else 0, names[:d]))
            return "*".join(forms)

        polys = {
            "generic central": draw(8, 4, offsets=False),
            "coordinate": "x1*x2*x3*x4*x5",
            "grid with its diagonal": "x*(x-1)*(x-2)*y*(y-1)*(y-2)*(x-y)",
            "generic affine": draw(7, 3, offsets=True),
        }
        built, matrices, lambdas = [], [], []
        fraction_new, matrix_init, solved = Fraction.__new__, RationalMatrix.__init__, rlct.threshold._solved

        def counting_new(cls, *args, **kwargs):
            value = fraction_new(cls, *args, **kwargs)
            built.append(value)
            return value

        def counting_solved(minimizers):
            out = solved(minimizers)
            lambdas.append(out[0].threshold)
            return out

        docs = {}
        for kind, poly in polys.items():
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", counting_new)
                patch.setattr(RationalMatrix, "__init__", lambda *a, **k: matrices.append(a) or matrix_init(*a, **k))
                patch.setattr(rlct.threshold, "_solved", counting_solved)
                code = main(["compute", "--poly", poly])
            docs[kind] = json.loads(capsys.readouterr().out)
            assert code == 0, kind
            assert matrices == [], kind
            assert built == lambdas and lambdas, (kind, built, lambdas)
            printed = {docs[kind]["lambda"]} | {loc["lambda"] for loc in docs[kind].get("localizations", ())}
            assert {str(x) for x in built} == printed, kind
            built.clear()
            lambdas.clear()
        # The inputs reach every path: a closure, a normal-crossing shortcut,
        # shared local results, and points with fractional coordinates.
        assert "localizations" not in docs["generic central"] and "localizations" not in docs["coordinate"]
        assert len(docs["grid with its diagonal"]["localizations"]) == 9
        points = [x for loc in docs["generic affine"]["localizations"] for x in loc["point"]]
        assert sum("/" in x for x in points) >= 10, points


# JSON trees as reports hold them, plus the leaves they never hold: keys and
# strings with quotes, backslashes, control and non-ASCII characters; floats
# with NaN, the infinities and -0.0; numpy floats; bools; tuples; empty
# containers; lists of one exact scalar type (the printer's fast path).
# No `Fraction`: reports hold every rational as its "p/q" string.
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\n\t", "\x7f", "é", "λ", "\u2028", "\U0001f600", ""])
_TEXT = st.text(max_size=8) | _TRICKY
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
_LEAVES = (
    _TEXT | st.integers() | st.booleans() | st.none() | _FLOATS | _FLOATS.map(np.float64)
    | st.lists(_TEXT, max_size=4) | st.lists(st.integers(), max_size=4) | st.lists(st.booleans(), max_size=3)
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=24,
)


def _to_json_dict(obj):
    """The stdlib encoder's `default` for a CLI report document, which holds
    `Flat`s and `Localization`s."""
    return obj.to_json_dict()


def _shared_report_draw(rng, kind):
    """An affine arrangement whose localizations share results and tied
    sets: d = 2 or 3 base normals, each through two to four offsets, and one
    or two slanted hyperplanes through grid points, with multiplicities 1-3.
    "grid": unit normals. "hidden": unit normals times a random T in
    GL(d, Q) with fractional entries. "digits": integer normals with 4-digit
    entries and multiples of 5 (which `unreduced_rref_strings` prints
    unreduced), so flats have 4-digit pivots."""
    d = rng.randint(2, 3)
    if kind == "grid":
        base = [[int(c == axis) for c in range(d)] for axis in range(d)]
    elif kind == "hidden":
        t = RationalMatrix([[random_rational(rng, span=3, max_den=4) for _ in range(d)] for _ in range(d)], cols=d)
        while rref(t)[1] < d:
            t = random_invertible(rng, d)
        base = [list(row) for row in t]
    else:
        pivots = [rng.choice((rng.randint(1000, 9999), 5 * rng.randint(200, 1999))) for _ in range(d)]
        base = [[p if c == axis else rng.choice((-10, -5, 5, rng.randint(-9, 9))) for c in range(d)] for axis, p in enumerate(pivots)]
    rows, offsets = [], []
    for row in base:
        for _ in range(rng.randint(2, 4)):
            rows.append(row)
            offsets.append(random_rational(rng, span=9, max_den=2))
    for _ in range(rng.randint(1, 2)):
        # Through the point where a random member of each family meets.
        picks = [rng.randrange(len(rows)) for _ in range(2)]
        slant = [rows[picks[0]][c] + rows[picks[1]][c] * rng.choice((1, 2, -1)) for c in range(d)]
        if not any(slant):
            continue
        point = [random_rational(rng) for _ in range(d)]
        rows.append(slant)
        offsets.append(-sum(a * x for a, x in zip(slant, point)))
    return {
        "normals": [[str(x) for x in row] for row in rows],
        "offsets": [str(b) for b in offsets],
        "multiplicities": [rng.randint(1, 3) for _ in rows],
    }


def _generic_affine_draw(rng, n, d):
    """n affine hyperplanes in d variables: integer normals and offsets in
    [-99, 99], multiplicities 1-4."""
    rows = [[rng.randint(-99, 99) for _ in range(d)] for _ in range(n)]
    return normalize(ArrangementSpec(rows, [rng.randint(1, 4) for _ in rows], offsets=[rng.randint(-99, 99) for _ in rows]))


def _printing_peak(doc):
    """`rlct.cli._indented_json(doc)` and the peak of the memory it allocated, by `tracemalloc`."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = rlct.cli._indented_json(doc)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestIndentedJson:
    @settings(max_examples=400)
    @given(_TREES)
    def test_equals_stdlib_indent_2(self, tree):
        assert rlct.cli._indented_json(tree) == json.dumps(tree, indent=2, default=str)

    def test_a_value_is_copied_once(self):
        # A dict joins its values' texts with no copy of its own, and a
        # list's text is kept only by its parent's join: printing a central
        # report with 1,023 minimizer flats must peak below 2.5 times the
        # output's length (it reads 2.03, and 3.02 when a list keeps its
        # items' texts alive past their join).
        arr = normalize(parse_factored_product("*".join(f"x{i}" for i in range(1, 11))))
        doc = {"input": arrangement_to_json_dict(arr), **rlct_central(arr).to_json_dict(flat=None)}
        out, peak = _printing_peak(doc)
        assert out == json.dumps(doc, indent=2, default=_to_json_dict)
        assert peak < 2.5 * len(out), (peak, len(out))

    def test_an_affine_report_is_copied_about_three_times(self):
        # The localization writer keeps each result's body text and each
        # pair of flat lists' text to the end of the call, and each point's
        # text copies its body once more: on a generic n = 14, d = 3 draw,
        # whose 364 points share no result, printing must peak below 3.5
        # times the output's length (it reads 3.30).
        arr = _generic_affine_draw(random.Random(14), 14, 3)
        report = rlct_affine(arr)
        assert len(report.localizations) == len({id(loc.result) for loc in report.localizations}) == 364
        doc = {"input": arrangement_to_json_dict(arr), **report.to_json_dict(flat=None)}
        out, peak = _printing_peak(doc)
        assert out == json.dumps(doc, indent=2, default=_to_json_dict)
        assert peak < 3.5 * len(out), (peak, len(out))

    def test_equals_stdlib_on_the_golden_reports(self, capsys, monkeypatch, tmp_path):
        docs = []
        emit = rlct.cli.emit

        def recording_emit(fmt, doc, **lines):
            docs.append(doc)
            emit(fmt, doc, **lines)

        monkeypatch.setattr(rlct.cli, "emit", recording_emit)
        path = tmp_path / "parallel.json"
        path.write_text(json.dumps(PARALLEL_DOUBLE_PLANES))
        for _, argv, _ in CASES:
            assert main([str(path) if a == "{parallel}" else a for a in argv]) == 0
        assert main(["volume-fit", "--poly", "x*y", "--samples", "20000", "--seed", "1", "--eps-points", "3",
                     "--eps-min", "1e-3", "--box=-2,2;-2,2"]) == 0
        assert main(["parse", "--poly", "vars x, y; (1/2*x - y + 3)^2*(x+y)*x*(x-1)"]) == 0
        capsys.readouterr()
        assert len(docs) == len(CASES) + 2
        for doc in docs:
            assert rlct.cli._indented_json(doc) == json.dumps(doc, indent=2, default=_to_json_dict)

    def test_a_flat_prints_as_its_json_dict(self):
        # The printer's own path for a `Flat` and the generic path for its
        # dict must agree at every indent, on fractional and large pivots.
        rng = random.Random(94)
        arrangements = [random_central_arrangement(rng, max_n=7, max_d=4) for _ in range(15)]
        arrangements += [random_central_arrangement(rng, max_n=6, max_d=4, span=1000) for _ in range(4)]
        pair = [[1000, 1, 5], [999, 1, 0]]
        arrangements += [normalize(ArrangementSpec(rows, [1] * len(rows))) for rows in (pair, pair + [[0, 0, 1]])]
        for arr in arrangements:
            for flat in build_lattice(arr).flats:
                for pad in ("\n", "\n  ", "\n      "):
                    assert rlct.cli._indented_json(flat, pad) == rlct.cli._indented_json(flat.to_json_dict(), pad)

    def test_a_localization_prints_as_its_json_dict(self):
        # The localization writer keeps one body text per result and one
        # text per pair of flat tuples, and a chain flat that is a minimizer
        # takes that minimizer's text. Each localization must print as its
        # dict does, alone and in one list, at every indent: on reports whose
        # results share tuples, on generic draws, and on results whose flat
        # tuples are empty, or whose chain holds flats that are no minimizer
        # (equal copies and other flats of the lattice).
        rng = random.Random(616)
        reports = [rlct_affine(normalize(arrangement_from_json(json.dumps(_shared_report_draw(rng, kind)))))
                   for kind in ("grid", "hidden", "digits") * 2]
        reports += [rlct_affine(_generic_affine_draw(rng, rng.randint(3, 7), rng.randint(2, 3))) for _ in range(6)]
        shared = outside = 0
        for report in reports:
            locs = list(report.localizations)
            results = {id(loc.result): loc.result for loc in locs}.values()
            shared += len(results) - len({(id(r.minimizer_flats), id(r.witness_chain)) for r in results})
            for loc in locs[::5]:
                result = loc.result
                chain, minimizers = result.witness_chain, result.minimizer_flats
                others = [flat for flat in build_lattice(result.arrangement).flats if flat not in minimizers][:1]
                outside += len(others)
                for tampered in (
                    replace(result, minimizer_flats=(), witness_chain=()),
                    replace(result, witness_chain=()),
                    replace(result, witness_chain=(*chain[:1], *map(replace, chain), *others)),
                ):
                    locs += [replace(loc, result=tampered)] * 2
            for pad in ("\n", "\n  ", "\n      "):
                assert rlct.cli._indented_json(locs, pad) == rlct.cli._indented_json([loc.to_json_dict() for loc in locs], pad)
                for loc in locs:
                    assert rlct.cli._indented_json(loc, pad) == rlct.cli._indented_json(loc.to_json_dict(), pad)
        assert shared >= 20 and outside >= 10, (shared, outside)

    def test_flats_print_through_the_patched_formatter(self, capsys, monkeypatch):
        # The printer must read `lattice._rref_strings` when it runs, as
        # `Flat.to_json_dict` does, not hold a copy bound earlier.
        polys = [("compute", "vars x, y, z; (4*x + 10*y + z)*y"),
                 ("localize", "vars x, y, z; (4*x + 10*y + z + 1)*(x - 1)*y")]
        docs, outs = [], []
        emit = rlct.cli.emit

        def recording_emit(fmt, doc, **lines):
            docs.append(doc)
            emit(fmt, doc, **lines)

        monkeypatch.setattr(rlct.cli, "emit", recording_emit)
        for command, poly in polys:
            assert main([command, "--poly", poly]) == 0
            outs.append(capsys.readouterr().out)
        monkeypatch.setattr(rlct.lattice, "_rref_strings", unreduced_rref_strings(rlct.lattice._rref_strings))
        for (command, poly), unpatched in zip(polys, outs):
            assert main([command, "--poly", poly]) == 0
            out = capsys.readouterr().out
            assert out != unpatched
            assert out == json.dumps(docs[-1], indent=2, default=_to_json_dict) + "\n"

    def test_affine_reports_equal_the_library_documents(self, capsys, monkeypatch, tmp_path):
        # The CLI prints a report's localizations from the objects, with one
        # body text per distinct result, one text per shared flat tuple and
        # one per hyperplane row. Its JSON must be the library's plain
        # document through the stdlib, also under a patched row formatter,
        # and its human lines must be those of the plain document.
        rng = random.Random(333)
        path = tmp_path / "arr.json"
        kinds = ("grid", "hidden", "digits")
        localizations = results = tied = changed = 0
        for draw in range(30):
            path.write_text(json.dumps(_shared_report_draw(rng, kinds[draw % 3])))
            arr = normalize(arrangement_from_json(path.read_text()))
            report = rlct_affine(arr)
            localizations += len(report.localizations)
            solved = {id(loc.result): loc.result for loc in report.localizations}.values()
            results += len(solved)
            tied += len({id(result.minimizer_flats) for result in solved})
            doc = {"input": arrangement_to_json_dict(arr), **report.to_json_dict()}
            assert main(["localize", "--input", str(path)]) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(doc, indent=2) + "\n"
            human = [
                f"arrangement: {arr.n} hyperplanes in dimension {arr.dim} (affine)",
                f"lambda = {doc['lambda']}",
                f"m = {doc['m']}",
            ] + [f"  at ({', '.join(loc['point'])}): lambda = {loc['lambda']}, m = {loc['m']}" for loc in doc["localizations"]]
            assert main(["localize", "--input", str(path), "--format", "human"]) == 0
            assert capsys.readouterr().out == "\n".join(human) + "\n"
            with monkeypatch.context() as patch:
                patch.setattr(rlct.lattice, "_rref_strings", unreduced_rref_strings(rlct.lattice._rref_strings))
                doc = {"input": arrangement_to_json_dict(arr), **report.to_json_dict()}
                assert main(["localize", "--input", str(path)]) == 0
                patched = capsys.readouterr().out
                assert patched == json.dumps(doc, indent=2) + "\n"
                changed += patched != out
        # Points share results, and results share their flat tuples.
        assert localizations >= results + 300 and results >= tied + 150, (localizations, results, tied)
        assert changed >= 5, changed
