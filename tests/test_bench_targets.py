import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def test_tracer_resolves_every_target():
    """The traced benchmark wraps ``spans.TARGETS`` by name; building a
    tracer looks every name up without installing anything, so a renamed
    or removed library function fails here rather than in the benchmark."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    wrapped = {id(raw) for _, _, raw, _ in tracer.patches}
    assert len(wrapped) == len(spans.TARGETS)
