"""The traced benchmark rebinds functions by name; each name must exist."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for modname, attr, _, _ in spans.HOOKS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
