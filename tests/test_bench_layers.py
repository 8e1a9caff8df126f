"""The benchmark's traced layers name functions that exist.

bench/tracing.py wraps each LAYERS entry by looking it up with getattr,
so renaming or deleting one of those functions breaks every traced
benchmark run.  This test makes such a rename fail here instead.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_layer_resolves(tracing):
    assert tracing.LAYERS
    for name, modname, attr in tracing.LAYERS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):  # a dotted attribute is a method of a class
            assert hasattr(obj, part), f"{name}: {modname}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {modname}.{attr} is not callable"
