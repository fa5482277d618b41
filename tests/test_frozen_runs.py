"""The bundled runs against trace tables frozen at an earlier commit.

A refactor that keeps every contract can still move the numbers a user
sees; these tests pin them. `frozen_runs.json` holds the trace tables
that `fiberband simulate` wrote for sidon5 and uniform5 at their default
settings. The comparison allows a relative 1e-12 for other numpy FFT
builds, and no absolute slack: the energies are of order 1e-12 J.
"""

import json
from pathlib import Path

import pytest

from fiberband.cli import resolve_config, run_simulation

FROZEN = json.loads(Path(__file__).with_name("frozen_runs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["sidon5", "uniform5"])
def test_bundled_run_matches_frozen_trace(tmp_path, name):
    run_simulation(resolve_config(name), tmp_path, name, "json")
    doc = json.loads((tmp_path / f"{name}_trace.json").read_text(encoding="utf-8"))
    want = FROZEN[name]
    assert doc["columns"] == want["columns"]
    assert len(doc["rows"]) == len(want["rows"])
    for got, row in zip(doc["rows"], want["rows"]):
        assert got == pytest.approx(row, rel=1e-12, abs=0.0)
