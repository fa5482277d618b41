"""Where names live: in their modules, which the perfbench tracer wraps.

The package's `__init__` holds only its docstring and version, so every
name is imported from its module and importing one module loads only
what it needs. The names the tracer wraps resolve, and it restores them.
"""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from fiberband import planner, propagation
from fiberband.cli import resolve_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_numpy_free_modules_import_without_numpy():
    # the package binds no names of its own, so importing a submodule
    # imports only what that submodule needs
    code = "import sys, fiberband.bands, fiberband.gf; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_and_restores_every_target():
    tracing = load_tracing()

    def current():
        return [vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, _name, _counter in tracing.TARGETS]

    before = current()
    tracer = tracing.Tracer()
    tracer.install()  # each (owner, attr) must exist
    try:
        assert planner.bose_sequence(5) == (1, 10, 14, 15, 17)
        names = [s["name"] for s in tracer.spans]
        counts = {s["name"]: s.get("counts") for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert names == ["planner.bose_sequence", "gf.for_size", "gf.exponent_set"]
    assert counts["gf.exponent_set"] == {"muls": 24}  # the counter reads ext.order
    assert all(a is b for a, b in zip(before, current()))


def test_tracer_counts_the_work_of_a_propagation():
    # 0.4 km in 0.1 km steps, lumped filters every 0.2 km, records every 0.2 km
    cfg = dataclasses.replace(
        resolve_config("sidon5"), z_total_km=0.4, dz_km=0.1, filter="lumped",
        filter_spacing_km=0.2, record_every_km=0.2,
    )
    cfg.validate()
    launch = cfg.launch_field()
    z_total, dz, record_every = cfg.run_lengths()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        propagation.propagate(
            launch, z_total, dz, cfg.fiber(), cfg.filter_mode(), cfg.channels(), record_every
        )
        spans = list(tracer.spans)
    finally:
        tracer.uninstall()
    assert [s["name"] for s in spans] == ["propagation.propagate"]
    counts = spans[0]["counts"]
    # the counter reads FilterMode.kind and .spacing; records at 0, 0.2, 0.4 km
    assert (counts["steps"], counts["filter_sites"], counts["records"]) == (4, 2, 3)
    assert counts["ffts"] == 2 * 4 + 3
