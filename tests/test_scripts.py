"""Smoke tests for the experiment scripts under scripts/.

Each script's `main` must exit 0 and print its summary. Where a script
takes a config or a size, it gets one that shrinks the work (short
fiber, small N).
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from fiberband.cli import resolve_config
from fiberband.config import emit_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_grid_experiments(tmp_path, capsys):
    # the bundled runs in full (about 0.3 s each): the script sets nothing of its own
    main = load_script("run_grid_experiments").main
    assert main(["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "worst channel dev %" in out
    assert "sidon5" in out and "uniform5" in out
    assert (tmp_path / "sidon5_trace.csv").is_file()
    assert (tmp_path / "uniform5_summary.json").is_file()


def test_filter_spacing_sweep(tmp_path, capsys):
    cfg = replace(resolve_config("uniform5"), z_total_km=20.0)
    path = tmp_path / "short.cfg"
    path.write_text(emit_config(cfg), encoding="utf-8")
    main = load_script("filter_spacing_sweep").main
    assert main(["--config", str(path), "--spacings-km", "2.5,5,10"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("spacing") for line in out.splitlines()) == 3
    assert "R2 =" in out


def test_efficiency_table(capsys):
    main = load_script("efficiency_table").main
    assert main(["--n-max", "9"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert "eta*N" in header
    assert [row.split()[0] for row in rows] == ["2", "3", "4", "5", "7", "8", "9"]
