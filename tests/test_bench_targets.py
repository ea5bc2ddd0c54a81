import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


@pytest.mark.parametrize("name", ["free_search", "abelian_fresh",
                                  "wide_space", "cli_session"])
def test_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    """Round 0 of each benchmark workload at seed 1: every operation runs,
    every check passes and the oracle sample agrees, so a name that the
    benchmark or an oracle calls at run time cannot go missing unseen."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    for op in workload.round(0):
        assert op.check(op.run()) is None, op.kind
    assert workload.oracle_errors() == []
