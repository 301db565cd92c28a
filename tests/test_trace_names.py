"""The traced benchmark run wraps library functions by name; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANS + spans.COUNTS


@pytest.mark.parametrize("module, path", _traced_names())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"dowlingnest.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer patches the attribute in the owner's own namespace
    assert attr in vars(owner), f"dowlingnest.{module}.{path}"
    assert callable(vars(owner)[attr])
