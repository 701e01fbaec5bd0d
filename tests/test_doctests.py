"""The `>>>` examples in the package's docstrings, and the `python` examples
in README.md, run as written."""

import doctest
import importlib
import pathlib
import pkgutil
import re

import rlct

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_module_runs_its_examples():
    names = ["rlct", *sorted(name for _, name, _ in pkgutil.iter_modules(rlct.__path__, "rlct."))]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert [name for name, result in results.items() if result.failed] == []
    assert results["rlct"].attempted > 0  # the package's quick start


def test_readme_examples_run_in_order():
    # Each block builds on the names of the ones before it, as a reader
    # would type them into one session; the values are the commented ones.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert repr(namespace["result"].pair) == "RlctPair(threshold=Fraction(1, 2), multiplicity=3)"
    assert str(namespace["report"].global_pair) == "(1/2, 1)"
