"""The `>>>` examples in the package's docstrings run as written."""

import doctest
import importlib
import pkgutil

import rlct


def test_every_module_runs_its_examples():
    names = ["rlct", *sorted(name for _, name, _ in pkgutil.iter_modules(rlct.__path__, "rlct."))]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert [name for name, result in results.items() if result.failed] == []
    assert results["rlct"].attempted > 0  # the package's quick start
