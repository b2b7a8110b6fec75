"""The benchmark's span wrappers resolve against the current source.

bench/spans.py wraps cutflow functions by module and attribute name, and
its recorder raises at install time when a name is gone. This resolves
every target without installing or running anything, so a rename in
src/ fails here instead of only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("target", spans.layer_targets(),
                         ids=lambda t: f"{t.owner}.{t.attr}")
def test_span_target_resolves(target):
    owner = spans._resolve(target.owner)
    if isinstance(owner, type):
        # the recorder reads a class's own attribute, not an inherited one
        assert target.attr in vars(owner)
    else:
        assert hasattr(owner, target.attr)
    assert callable(getattr(owner, target.attr))
