"""The exact engine loads without numpy: `rlct.volume` is imported on first use.

The test process has numpy loaded already, so every check of what a run
imports starts a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlct
import rlct.cli
import rlct.volume

SRC = str(Path(rlct.__file__).resolve().parents[1])
CENTRAL = "x*y^2*z^2*(x+y+z)"
AFFINE = "x*(x-1)*y*(y-1)*(x-y)"
VOLUME_NAMES = [
    "AsymptoticFit",
    "VolumeSample",
    "default_box",
    "default_epsilon_grid",
    "estimate_volume",
    "fit_asymptotics",
    "synthetic_samples",
]

# Runs `rlct.cli.main(argv)` and reports its exit code and whether numpy loaded.
RUN_MAIN = """
import sys
import rlct
import rlct.cli
code = rlct.cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


def fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def main_in_fresh_python(*argv: str) -> tuple[int, bool]:
    proc = fresh_python(RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded = proc.stderr.splitlines()[-1].split()
    return int(code), numpy_loaded == "True"


class TestReportsWithoutNumpy:
    @pytest.mark.parametrize("poly", [CENTRAL, AFFINE], ids=["central", "affine"])
    @pytest.mark.parametrize("command", ["compute", "compute --verify", "localize", "localize --verify", "parse"])
    def test_report_commands_never_load_numpy(self, command, poly):
        assert main_in_fresh_python(*command.split(), "--poly", poly) == (0, False)

    def test_volume_fit_loads_numpy(self):
        assert main_in_fresh_python("volume-fit", "--poly", "x*y", "--selftest") == (0, True)


class TestLazyNames:
    @pytest.mark.parametrize("name", VOLUME_NAMES)
    def test_package_name_is_the_volume_object(self, name):
        assert name in rlct.__all__
        assert getattr(rlct, name) is getattr(rlct.volume, name)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from rlct import *", namespace)
        assert set(rlct.__all__) <= namespace.keys()
        assert namespace["estimate_volume"] is rlct.volume.estimate_volume

    @pytest.mark.parametrize("module", [rlct, rlct.cli], ids=["rlct", "rlct.cli"])
    def test_unknown_name_is_attribute_error(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018

    def test_patched_cli_names_are_what_volume_fit_calls(self):
        # Patched before any volume import, as a benchmark tracer patches them.
        proc = fresh_python(
            """
import sys
import pytest
import rlct.cli
assert "rlct.volume" not in sys.modules
calls = []

def recording(name):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return getattr(sys.modules["rlct.volume"], name)(*args, **kwargs)
    return wrapper

with pytest.MonkeyPatch.context() as mp:
    mp.setattr(rlct.cli, "estimate_volume", recording("estimate_volume"))
    mp.setattr(rlct.cli, "fit_asymptotics", recording("fit_asymptotics"))
    grid = ["--eps-min", "0.01", "--eps-max", "0.1", "--eps-points", "3"]
    assert rlct.cli.main(["volume-fit", "--poly", "x*y", "--samples", "2000", *grid]) == 0
assert calls == ["estimate_volume"] + ["fit_asymptotics"] * 2, calls
assert rlct.cli.estimate_volume is sys.modules["rlct.volume"].estimate_volume
"""
        )
        assert proc.returncode == 0, proc.stderr
