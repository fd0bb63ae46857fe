"""The names the benchmark's tracer wraps.

``irlbench/spans.py`` wraps package functions by (module, attribute). A name
that no longer resolves is recorded as absent and its layer reads 0, so a
rename would silently drop a layer from the benchmark's per-layer metrics.
"""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "irlbench",
                          "spans.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("irlbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED_NAMES
    missing = [f"{module}.{attr}" for module, attr, _ in spans.TRACED_NAMES
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
