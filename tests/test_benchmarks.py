"""Guards on the benchmark harness that tier-1 can check without running it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_wrap_points_resolve():
    # the tracer patches each name in its calling module's namespace; a name
    # dropped from an import there would crash `run.py --trace 1`
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, names in spans.WRAP_POINTS.items():
        module = importlib.import_module(module_name)
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
