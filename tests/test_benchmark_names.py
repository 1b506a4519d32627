"""The benchmark's per-layer call counts name advclf functions.

Its tracer wraps every public function of the measured modules, so a
deleted or renamed function would leave its metric empty instead of failing.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_traced_call_count_names_a_public_function():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [m["name"].removesuffix(".calls") for m in spec["per_layer"] if m["name"].endswith(".calls")]
    assert names
    missing = []
    for name in names:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"advclf.{module_name}")
        fn = getattr(module, fn_name, None)
        public = not fn_name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
        if not public:
            missing.append(name)
    assert not missing, f"BENCHMARK.json traces functions advclf no longer defines: {missing}"
