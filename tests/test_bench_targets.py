"""The benchmark's per-layer metrics still have program bindings to wrap.

``perfbench/spans.py`` times each layer by wrapping functions at the names
the package binds them under (``TARGETS``), and reports a per-layer metric
only when every span name it is computed from (``METRIC_TARGETS``) has at
least one wrapper installed.  A rename or deletion in the package silently
drops such a metric from a benchmark run; this test names it instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, attr_path: str) -> bool:
    """Whether the binding exists, looked up as ``Tracer.install`` does."""
    try:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_declared_per_layer_metric_keeps_a_wrapper_target():
    spans = load_spans()
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    problems = []
    for metric in declared:
        for name in spans.METRIC_TARGETS.get(metric, ()):
            bindings = [(module, path) for span, module, path in spans.TARGETS if span == name]
            if not any(resolves(module, path) for module, path in bindings):
                tried = ", ".join(f"{module}.{path}" for module, path in bindings)
                problems.append(f"{metric}: no binding of span {name!r} resolves (tried {tried})")
    assert not problems, "\n".join(problems)
