"""The benchmark's tracer (``perfbench/spans.py``) wraps kpartite functions
by name, so a renamed or deleted one breaks ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.LAYERS.items()
        for name in names
        if not hasattr(importlib.import_module(f"kpartite.{module}"), name)
    ]
    assert missing == []
