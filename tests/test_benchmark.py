"""One pass of every benchmark workload, with its correctness checks.

`perfbench/run.py` times the workloads of `perfbench/workloads.py` and
counts a pass whose checks fail as a failed operation. One untimed pass
of each here, with seed 1, finds a wrong result or a workload that no
longer runs in the ordinary suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_each_workload_passes_its_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checks by name
    workloads = importlib.import_module("workloads")
    failed = {}
    # the bounds workload clears max_sidon_table's cache, so a later
    # caller rebuilds the table
    for name, workload_class in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        workload = workload_class(1, work)
        failed[name] = [check for check, ok in workload.check(workload.run()) if not ok]
    assert failed == {name: [] for name in workloads.WORKLOADS}, (
        "the simulate checks compare each bundled run's summary with "
        "perfbench/frozen.json at rel 1e-9; a change that moves those values "
        "fails here until a benchmark change re-freezes them, and only such a "
        "change may edit perfbench/"
    )
