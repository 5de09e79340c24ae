"""The benchmark's patch points still exist in ``graphsynth``.

``benchmarks/op.py`` wraps public functions by name to time each layer; a
name that no longer resolves turns its per-layer metrics into ``null``
without failing anything. These tests read the names from ``op.py`` itself.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def op():
    sys.path.insert(0, str(BENCHMARKS))  # op.py imports its sibling spans.py
    try:
        spec = importlib.util.spec_from_file_location("benchmark_op", BENCHMARKS / "op.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def _module(layer: str):
    return importlib.import_module(f"graphsynth.{layer}")


def test_every_wrapped_function_and_method_resolves(op):
    for layer, names in op.MODULE_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(_module(layer), name, None)), f"{layer}.{name}"
    for layer, cls, method in op.CLASS_METHODS:
        owner = getattr(_module(layer), cls, None)
        assert callable(getattr(owner, method, None)), f"{layer}.{cls}.{method}"


def test_some_module_binds_write_jsonl(op):
    assert any(
        callable(getattr(_module(layer), "write_jsonl", None))
        for layer in op.WRITE_JSONL_BINDINGS
    )


def test_cli_binds_sha256_file():
    assert callable(getattr(_module("cli"), "sha256_file", None))
