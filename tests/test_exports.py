"""The package's public names all resolve, and so do the names the tracer wraps."""

import importlib.util
from pathlib import Path

import fiberband
from fiberband import planner

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in fiberband.__all__ if not hasattr(fiberband, name)]
    assert missing == []
    assert len(set(fiberband.__all__)) == len(fiberband.__all__)


def test_tracer_wraps_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def current():
        return [vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, _name, _counter in tracing.TARGETS]

    before = current()
    tracer = tracing.Tracer()
    tracer.install()  # each (owner, attr) must exist
    try:
        assert planner.bose_sequence(5).values == (1, 10, 14, 15, 17)
        names = [s["name"] for s in tracer.spans]
        counts = {s["name"]: s.get("counts") for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert names == ["planner.bose_sequence", "gf.for_size", "gf.exponent_set"]
    assert counts["gf.exponent_set"] == {"muls": 24}  # the counter reads ext.order
    assert all(a is b for a, b in zip(before, current()))
