"""Every function that the benchmark's tracer wraps still exists where the
tracer looks for it, so a refactor that moves or renames one fails here
rather than inside a traced benchmark run.  `perfbench/spans.py` is loaded
by path and only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(f"{layer}.{name}", module, path)
            for layer, targets in spans.TARGETS.items() for name, module, path in targets]


TARGETS = load_targets()


@pytest.mark.parametrize("span, module, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves_as_the_tracer_reads_it(span, module, path):
    # as `Tracer.install` does: a class attribute must be in its owner's own
    # __dict__ (a function or a classmethod), a module-level name must exist
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if outer:
        raw = owner.__dict__.get(attr)
        assert callable(raw) or isinstance(raw, classmethod), span
    else:
        assert callable(getattr(owner, attr, None)), span
