"""The benchmark's traced run times each layer through the library names
that `bench/tracer.py` wraps. A group whose names all left the library would
drop its per-layer metrics from the traced result, so each group must keep
at least one name that resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_group_keeps_a_library_name():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    resolves: dict[str, bool] = {}
    for module, attr, group in tracer.WRAPS:
        found = callable(getattr(importlib.import_module(module), attr, None))
        resolves[group] = resolves.get(group, False) or found
    assert resolves and [g for g, ok in resolves.items() if not ok] == []
