"""The benchmark's span tracer looks up specquad functions by name; every
name it traces must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("specquad_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    for mod_name in {*spans.SPAN_NAMES, *spans.WHOLE_MODULES}:
        importlib.import_module(f"specquad.{mod_name}")
    targets = spans._targets("specquad")
    assert targets
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)
