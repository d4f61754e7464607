"""The benchmark's tracer wraps drgf functions by name; a function it names
must keep existing, or traced benchmark runs fail."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_traced_function_resolves():
    for module, func in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"drgf.{module}"), func, None)), \
            f"drgf.{module}.{func}"
