"""The benchmark's traced run wraps apimap functions by name; keep those names real."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "apibench" / "spans.py"


def load_traced() -> dict:
    # spans.py imports only the standard library, so it loads without the bench
    spec = importlib.util.spec_from_file_location("apibench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists():
    traced = load_traced()
    assert traced
    missing = []
    for name in traced:
        layer, fname = name.split(".")
        if not callable(getattr(importlib.import_module(f"apimap.{layer}"), fname, None)):
            missing.append(name)
    assert missing == []
