"""The benchmark's per-layer tracer wraps package names by string.

`bench/tracing.py` patches functions and engine methods by name, so a rename
in the package would break `bench/run.py --trace 1`.  This guard loads the
tracer by path and checks that every name it wraps still exists.
"""
from __future__ import annotations

import importlib
import importlib.util

import partition_oracle

from conftest import REPO_ROOT


def load_tracing():
    path = REPO_ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    for module in tracing._MODULES:
        importlib.import_module(f"partition_oracle.{module}")
    for module, names in tracing._FUNCTIONS.items():
        mod = importlib.import_module(f"partition_oracle.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    engine = partition_oracle.PartitionOracle
    for name in tracing._ORACLE_METHODS:
        assert callable(getattr(engine, name, None)), f"PartitionOracle.{name}"
