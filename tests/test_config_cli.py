"""Config round-trip and validation, plus the command-line entry point.

emit_config writes floats with repr, so parse(emit(cfg)) must reproduce
the dataclass exactly, not approximately. CLI tests run tiny grids
(n = 512, ~1 km) so the whole module stays under a few seconds.
"""

import argparse
import dataclasses
import json
import math
import re
import time
from importlib import resources

import numpy as np
import pytest

from fiberband import cli
from fiberband.bands import OverlappingIntervals, make_bandset
from fiberband.cli import BOSE_BUDGET, cmd_check, main, resolve_config
from fiberband.config import (
    GHZ,
    ConfigError,
    ExperimentConfig,
    emit_config,
    parse_config,
)
from fiberband.fields import SampledField
from fiberband.propagation import FiberParams, FilterMode, propagate


def sidon_cfg(**kw) -> ExperimentConfig:
    base = dict(
        channel_count=5,
        placement="sequence",
        sequence=(1, 2, 5, 10, 12),
        energies_pj=(0.1, 0.25, 1.0 / 3.0, 0.7, 1.2),
        phases_rad=(0.3, -1.1, 2.0, 0.0, -0.4),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- round trip


def test_emit_parse_round_trip_exact():
    cfg = sidon_cfg(dz_km=0.1 + 1e-14, alpha0_db_per_km=0.2)
    assert parse_config(emit_config(cfg)) == cfg


def test_round_trip_with_optionals_absent():
    cfg = ExperimentConfig(
        alpha0_db_per_km=0.2, beta2_ps2_per_km=-20.0, gamma_per_w_km=1.3, rolloff=0.5, seed=7,
        placement="uniform", sequence=None, span_w=None, energies_pj=None, phases_rad=None,
        filter="distributed", filter_spacing_km=None,
    )
    text = emit_config(cfg)
    unset = ("sequence", "span_w", "energies_pj", "phases_rad", "filter_spacing_km")
    assert not any(key in text for key in unset)
    back = parse_config(text)
    assert back == cfg
    # an omitted unset key gives None, even where the field's default is not None
    assert all(getattr(back, key) is None for key in unset)
    # an omitted defaulted key gives the field's default
    fiber, rest = text.split("[grid]")
    assert fiber.startswith("[fiber]")
    rest = re.sub(r"(?m)^(rolloff|seed) = .*\n", "", rest)
    assert "rolloff" not in rest and "seed" not in rest
    defaults = ExperimentConfig()
    assert parse_config("[grid]" + rest) == dataclasses.replace(
        cfg,
        alpha0_db_per_km=defaults.alpha0_db_per_km,
        beta2_ps2_per_km=defaults.beta2_ps2_per_km,
        gamma_per_w_km=defaults.gamma_per_w_km,
        rolloff=defaults.rolloff,
        seed=defaults.seed,
    )


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("not an ini file at all [[[")
    with pytest.raises(ConfigError, match="grid.n: missing"):
        parse_config("[grid]\ndt_ps = 1.0\n")


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "changes, field",
    [
        (dict(n=1000), "grid.n"),
        (dict(dt_ps=0.0), "grid.dt_ps"),
        (dict(channel_count=0), "channels.count"),
        (dict(width_ghz=-1.0), "channels.width_ghz"),
        (dict(placement="ring"), "channels.placement"),
        (dict(sequence=None), "channels.sequence"),
        (dict(sequence=(1, 2, 5)), "channels.sequence"),
        (dict(placement="uniform", span_w=2.0), "channels.span_w"),
        (dict(rolloff=1.5), "pulses.rolloff"),
        (dict(energies_pj=(1.0, 1.0)), "pulses.energies_pj"),
        (dict(energies_pj=(0.1, 0.2, -0.3, 0.4, 0.5)), "pulses.energies_pj"),
        (dict(dz_km=0.0), "run.dz_km"),
        (dict(filter="comb"), "run.filter"),
        (dict(filter="lumped", filter_spacing_km=None), "run.filter_spacing_km"),
        # five channels in five widths touch: edge bins in two channels
        (dict(placement="uniform", span_w=5.0), "channels.span_w"),
        (dict(sequence=(5, 1, 2, 10, 12)), "channels.sequence"),
        # top channel edge 46 GHz against the 32 GHz Nyquist edge
        (dict(width_ghz=2.0), "channels.width_ghz"),
        # no span_w: 30 channels do not fit the default span of 23 widths
        (dict(placement="uniform", channel_count=30, energies_pj=None, phases_rad=None),
         "channels.count"),
        # 0.01 GHz channels between the bins of a 0.03125 GHz grid
        (dict(width_ghz=0.01), "channels.width_ghz"),
        # steps of dz must partition the run, the records and the filter spacing
        (dict(dz_km=0.3), "run.dz_km"),
        (dict(record_every_km=5.05), "run.dz_km"),
        (dict(filter_spacing_km=10.05), "run.dz_km"),
        (dict(seed=-1), "run.seed"),
        (dict(seed=-3, energies_pj=None, phases_rad=None), "run.seed"),
        (dict(alpha0_db_per_km=-0.2), "fiber.alpha0_db_per_km"),
        # top channel edges past the largest float, in rad/s or in GHz
        (dict(width_ghz=1e298), "channels.width_ghz"),
        (dict(sequence=(1, 2, 5, 10, 10**300)), "channels.width_ghz"),
        (dict(sequence=(1, 2, 5, 10, 10**309)), "channels.width_ghz"),
        (dict(placement="uniform", span_w=23.0, width_ghz=1e300), "channels.width_ghz"),
        # 1e310 steps of 0.1 um: the step count is past the largest float
        (dict(z_total_km=1e300, dz_km=1e-10), "run.dz_km"),
    ],
)
def test_validate_reports_the_offending_key(changes, field):
    # the constructor and dataclasses.replace both validate
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        sidon_cfg(**changes)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        dataclasses.replace(sidon_cfg(), **changes)


def test_grid_errors_speak_in_ghz():
    with pytest.raises(ConfigError) as exc:
        sidon_cfg(width_ghz=2.0)
    assert str(exc.value) == (
        "channels.width_ghz: top channel edge 46 GHz is not below the Nyquist "
        "edge 32 GHz of grid.dt_ps = 15.625"
    )
    # bins are 1 / (2048 * 15.625 ps) = 31.25 MHz apart; a 10 MHz channel
    # at [20, 30] MHz falls between the bins at 0 and 31.25 MHz
    with pytest.raises(ConfigError) as exc:
        sidon_cfg(width_ghz=0.01)
    assert str(exc.value) == (
        "channels.width_ghz: channel 2 [0.02, 0.03] GHz holds no frequency bin: width "
        "0.01 GHz against a bin spacing of 0.03125 GHz (grid.n = 2048, grid.dt_ps = 15.625)"
    )
    # 23 widths of 1e298 GHz overflow in rad/s, not in GHz
    with pytest.raises(ConfigError) as exc:
        sidon_cfg(width_ghz=1e298)
    assert str(exc.value) == (
        "channels.width_ghz: top channel edge 2.3e+299 GHz is not below the Nyquist "
        "edge 32 GHz of grid.dt_ps = 15.625"
    )
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(placement="uniform", channel_count=30)
    assert str(exc.value) == (
        "channels.count: channels [0, 1] and [0.758621, 1.75862] GHz overlap"
    )


def test_channels_that_share_a_bin_fail_naming_the_grid_key():
    # five 1 GHz channels over 5 + 1e-12 widths are disjoint intervals,
    # but each inner edge pair falls within EDGE_TOL of one 31.25 MHz bin,
    # which two channels would then both book
    uniform = dict(placement="uniform", sequence=None, channel_count=5,
                   energies_pj=None, phases_rad=None)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(span_w=5.0 + 1e-12, **uniform)
    assert str(exc.value) == (
        "channels.span_w: channels [0, 1] and [1, 2] GHz share the frequency bin at 1 GHz "
        "(grid.n = 2048, grid.dt_ps = 15.625)"
    )
    # the grid as `channels` builds it, handed to the propagator directly
    w = GHZ
    step = ((5.0 + 1e-12) * w - w) / 4
    centers = [0.5 * w + i * step for i in range(5)]
    chans = make_bandset([(c - 0.5 * w, c + 0.5 * w) for c in centers])
    launch = SampledField(np.zeros(2048), 15.625e-12, -16e-9)
    with pytest.raises(OverlappingIntervals):
        propagate(launch, 1e3, 1e3, FiberParams(), FilterMode("distributed"), chans, 1e3)


def test_a_two_sample_grid_names_the_channel_without_a_bin():
    # bins at -32 and 0 GHz: the second 1 MHz channel holds neither
    with pytest.raises(ConfigError, match=r"^channels\.width_ghz: channel 2 .* "
                       r"bin spacing of 32 GHz \(grid\.n = 2,"):
        ExperimentConfig(n=2, placement="uniform", sequence=None, channel_count=3,
                         span_w=3.0, width_ghz=0.001, energies_pj=None, phases_rad=None)


def test_channels_wider_than_a_bin_launch():
    # 50 MHz channels on a 31.25 MHz bin grid hold one or two bins each
    cfg = sidon_cfg(width_ghz=0.05)
    assert cfg.launch_field().energy() == pytest.approx(sum(cfg.energies_pj) * 1e-12)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "changes, field",
    [
        (dict(alpha0_db_per_km=NAN), "fiber.alpha0_db_per_km"),
        (dict(beta2_ps2_per_km=-INF), "fiber.beta2_ps2_per_km"),
        (dict(gamma_per_w_km=INF), "fiber.gamma_per_w_km"),
        (dict(dt_ps=NAN), "grid.dt_ps"),
        (dict(t0_ns=-INF), "grid.t0_ns"),
        (dict(width_ghz=INF), "channels.width_ghz"),
        (dict(placement="uniform", span_w=NAN), "channels.span_w"),
        (dict(rolloff=NAN), "pulses.rolloff"),
        (dict(energies_pj=(0.1, 0.2, INF, 0.4, 0.5)), "pulses.energies_pj"),
        (dict(phases_rad=(0.0, NAN, 0.0, 0.0, 0.0)), "pulses.phases_rad"),
        (dict(z_total_km=INF), "run.z_total_km"),
        (dict(dz_km=NAN), "run.dz_km"),
        (dict(filter_spacing_km=INF), "run.filter_spacing_km"),
        (dict(record_every_km=NAN), "run.record_every_km"),
    ],
)
def test_validate_rejects_non_finite_values(changes, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.") + ": must be finite"):
        sidon_cfg(**changes)


def test_config_is_frozen():
    cfg = sidon_cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 5


def test_replace_can_unpin_the_phases():
    cfg = sidon_cfg()
    energies, phases = dataclasses.replace(cfg, phases_rad=None, seed=3).pulse_parameters()
    assert energies == cfg.pulse_parameters()[0]
    # with the energies pinned, the seed draws only the phases
    assert phases == tuple(np.random.default_rng(3).uniform(-math.pi, math.pi, 5))


# ---------------------------------------------------------------- placement


def test_sequence_placement_matches_slot_rule():
    cfg = sidon_cfg(channel_count=3, sequence=(1, 2, 5), energies_pj=None,
                    phases_rad=None)
    w = cfg.width_ghz * GHZ
    edges = cfg.channels().intervals
    # slot m occupies [(2m-2)W, (2m-1)W]
    expect = [(0.0, w), (2 * w, 3 * w), (8 * w, 9 * w)]
    assert np.allclose(edges, expect, rtol=1e-12)
    measure = sum(hi - lo for lo, hi in edges)
    assert measure == pytest.approx(3 * w, rel=1e-12)


def test_uniform_placement_centers():
    cfg = ExperimentConfig(placement="uniform")  # span_w defaults to 23 widths
    w = cfg.width_ghz * GHZ
    centers = [0.5 * (lo + hi) for lo, hi in cfg.channels().intervals]
    expect = [(0.5 + 5.5 * i) * w for i in range(5)]
    assert np.allclose(centers, expect, rtol=1e-12)
    for lo, hi in cfg.channels().intervals:
        assert hi - lo == pytest.approx(w, rel=1e-12)


def test_uniform_single_channel():
    cfg = ExperimentConfig(placement="uniform", channel_count=1)
    (channel,) = cfg.channels().intervals
    assert channel == pytest.approx((0.0, cfg.width_ghz * GHZ))


# ---------------------------------------------------------------- pulse draw


def test_pinned_pulse_parameters_pass_through():
    cfg = sidon_cfg()
    energies, phases = cfg.pulse_parameters()
    assert energies == tuple(e * 1e-12 for e in cfg.energies_pj)
    assert phases == cfg.phases_rad


def test_unpinned_draw_is_seeded_and_bounded():
    cfg = sidon_cfg(energies_pj=None, phases_rad=None, seed=3)
    e1, p1 = cfg.pulse_parameters()
    e2, p2 = cfg.pulse_parameters()
    assert e1 == e2 and p1 == p2  # same seed, same draw
    e3, p3 = sidon_cfg(energies_pj=None, phases_rad=None, seed=4).pulse_parameters()
    assert e1 != e3 and p1 != p3
    assert all(0.05e-12 <= e <= 1.5e-12 for e in e1)
    assert all(-math.pi <= p <= math.pi for p in p1)


def test_launch_field_energy_is_sum_of_channel_energies():
    # channel spectra are disjoint, so energies add with no cross terms
    cfg = sidon_cfg(n=512, dt_ps=15.625, t0_ns=-4.0, channel_count=2,
                    width_ghz=4.0, sequence=(1, 2), energies_pj=(0.06, 0.11),
                    phases_rad=(0.4, -1.0))
    f = cfg.launch_field()
    energy = float(np.sum(np.abs(f.samples) ** 2) * f.dt)
    assert energy == pytest.approx(0.17e-12, rel=1e-12)


# ---------------------------------------------------------------- bundled


def test_bundled_configs_resolve_and_validate():
    sidon5 = resolve_config("sidon5")
    assert sidon5.placement == "sequence"
    assert resolve_config("uniform5.cfg").placement == "uniform"
    # the defaults are sidon5 with its launch left to seed 0
    unpinned = dataclasses.replace(sidon5, energies_pj=None, phases_rad=None, seed=0)
    assert ExperimentConfig() == unpinned


def test_resolve_prefers_filesystem_path(tmp_path):
    path = tmp_path / "local.cfg"
    cfg = sidon_cfg(seed=42)
    path.write_text(emit_config(cfg), encoding="utf-8")
    assert resolve_config(str(path)) == cfg
    with pytest.raises(FileNotFoundError):
        resolve_config("no_such_config")


# ---------------------------------------------------------------- CLI


def short_cfg(**kw) -> ExperimentConfig:
    """Two channels on a 512-point grid, 1 km: fast enough for CLI tests."""
    base = dict(
        alpha0_db_per_km=0.2,
        n=512,
        dt_ps=15.625,
        t0_ns=-4.0,
        channel_count=2,
        width_ghz=4.0,
        placement="sequence",
        sequence=(1, 2),
        z_total_km=1.0,
        dz_km=0.05,
        filter="lumped",
        filter_spacing_km=0.25,
        record_every_km=0.25,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def write_cfg(tmp_path, cfg, name="short.cfg"):
    path = tmp_path / name
    path.write_text(emit_config(cfg), encoding="utf-8")
    return path


def test_cli_simulate_writes_trace_and_summary(tmp_path, capsys):
    path = write_cfg(tmp_path, short_cfg(seed=3))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert "total loss" in capsys.readouterr().out

    rows = (out / "short_trace.csv").read_text().splitlines()
    assert rows[0] == "z_km,E_total_J,E_ch1_J,E_ch2_J,E_discarded_cum_J"
    assert len(rows) == 1 + 5  # records at 0, .25, .5, .75, 1 km
    assert float(rows[1].split(",")[0]) == 0.0
    assert float(rows[-1].split(",")[0]) == 1.0

    summary = json.loads((out / "short_summary.json").read_text())
    assert summary["steps"] == 20
    assert summary["seed"] == 3
    assert summary["launch_energy_J"] > summary["final_energy_J"] > 0
    # 1 km at 0.2 dB/km plus filter leakage: loss sits near 4.5 percent
    assert 3.0 < summary["total_loss_pct"] < 7.0
    assert summary["parseval_residual"] < 1e-12


def test_cli_simulate_is_deterministic_per_seed(tmp_path):
    path = write_cfg(tmp_path, short_cfg(energies_pj=None, phases_rad=None))
    outs = []
    for tag, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        out = tmp_path / tag
        rc = main(["simulate", "--config", str(path), "--out", str(out),
                   "--seed", seed])
        assert rc == 0
        outs.append((out / "short_trace.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_cli_simulate_json_format(tmp_path):
    path = write_cfg(tmp_path, short_cfg(z_total_km=0.5))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(path), "--out", str(out),
               "--format", "json"])
    assert rc == 0
    doc = json.loads((out / "short_trace.json").read_text())
    assert doc["columns"][0] == "z_km" and doc["columns"][-1] == "E_discarded_cum_J"
    assert len(doc["rows"]) == 3
    assert all(len(row) == len(doc["columns"]) for row in doc["rows"])


def test_cli_simulate_missing_config_fails(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sidon5", "uniform5"])
def test_cli_simulate_rejects_a_seed_that_cannot_change_the_launch(tmp_path, capsys, name):
    # both bundled configs pin energies and phases, so no seed draws anything
    out = tmp_path / "out"
    assert main(["simulate", "--config", name, "--out", str(out), "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: run.seed: --seed 7 ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("simulate", "--config"), ("check", "--intervals")])
def test_cli_reports_a_directory_as_an_error(tmp_path, capsys, command, flag):
    assert main([command, flag, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


def test_cli_simulate_names_a_negative_seed(tmp_path, capsys):
    path = write_cfg(tmp_path, short_cfg(energies_pj=None, phases_rad=None))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: run.seed: must be nonnegative, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, key",
    [("--dz-km", "nan", "run.dz_km"), ("--filter-spacing-km", "inf", "run.filter_spacing_km")],
)
def test_cli_simulate_names_a_non_finite_override(tmp_path, capsys, option, value, key):
    argv = ["simulate", "--config", "sidon5", "--out", str(tmp_path), option, value]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--dz-km", "0.3", "run.dz_km: 0.3 km does not divide run.z_total_km = 160.0 km"),
        ("--record-every-km", "5.05",
         "run.dz_km: 0.1 km does not divide run.record_every_km = 5.05 km"),
        ("--filter-spacing-km", "10.05",
         "run.dz_km: 0.1 km does not divide run.filter_spacing_km = 10.05 km"),
    ],
    ids=["z-total", "record-every", "filter-spacing"],
)
def test_cli_simulate_names_a_step_that_does_not_divide(tmp_path, capsys, option, value, message):
    argv = ["simulate", "--config", "sidon5", "--out", str(tmp_path), option, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "name, line, bad_line, key",
    [
        ("uniform5", "span_w = 23.0", "span_w = 5.0", "channels.span_w"),
        ("sidon5", "sequence = 1 2 5 10 12", "sequence = 5 1 2 10 12", "channels.sequence"),
        ("sidon5", "width_ghz = 1.0", "width_ghz = 2.0", "channels.width_ghz"),
        ("sidon5", "width_ghz = 1.0", "width_ghz = 0.01", "channels.width_ghz"),
        ("sidon5", "sequence = 1 2 5 10 12", f"sequence = 1 2 5 10 {10**309}",
         "channels.width_ghz"),
        ("sidon5", "alpha0_db_per_km = 0.0", "alpha0_db_per_kn = 0.2",
         "fiber.alpha0_db_per_kn"),
        ("uniform5", "[fiber]", "[fibre]", "fibre"),
        ("sidon5", "seed = 1", "seed = -1", "run.seed"),
        ("sidon5", "alpha0_db_per_km = 0.0", "alpha0_db_per_km = -0.2",
         "fiber.alpha0_db_per_km"),
        ("sidon5", "[fiber]", "[DEFAULT]\nseed = 2\n\n[fiber]", "DEFAULT"),
        # a misspelled required key is unknown, not the required one missing
        ("sidon5", "n = 2048", "nn = 2048", "grid.nn"),
        ("sidon5", "placement = sequence", "placement = sidon", "channels.placement"),
        ("sidon5", "dt_ps = 15.625", "dt_ps = 15.625%", "grid.dt_ps"),
        ("sidon5", "dt_ps = 15.625", "dt_ps = %(n)s", "grid.dt_ps"),
    ],
    ids=["touching", "unsorted", "outside-window", "narrower-than-a-bin",
         "slot-past-the-largest-float", "unknown-key",
         "unknown-section", "negative-seed", "negative-alpha0", "default-section",
         "misspelled-required-key", "sidon-placement", "percent-sign", "interpolation"],
)
def test_cli_simulate_names_a_bad_channel_grid(tmp_path, capsys, name, line, bad_line, key):
    # also a bad key, section or value outside the grid: each fails naming it
    text = resources.files("fiberband").joinpath("configs", f"{name}.cfg").read_text()
    assert line in text
    path = tmp_path / f"{name}.cfg"
    path.write_text(text.replace(line, bad_line), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_trace_json_rows_equal_csv_rows(tmp_path):
    path = write_cfg(tmp_path, short_cfg())
    for fmt in ("csv", "json"):
        main(["simulate", "--config", str(path), "--out", str(tmp_path), "--format", fmt])
    header, *rows = (tmp_path / "short_trace.csv").read_text().splitlines()
    doc = json.loads((tmp_path / "short_trace.json").read_text())
    assert doc["columns"] == header.split(",")
    assert doc["rows"] == [[float(v) for v in row.split(",")] for row in rows]


def test_cli_plan_densest(capsys):
    assert main(["plan", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "(1, 2, 5, 7)" in out
    assert "decoupled     : True" in out
    # eta = 4 / (2*7 - 1)
    assert f"{4 / 13:.6f}" in out


def test_cli_plan_certifies_bose_128(capsys):
    assert main(["plan", "--mode", "bose", "--n", "128"]) == 0
    assert "decoupled     : True\n" in capsys.readouterr().out


def test_cli_plan_with_slot_budget(capsys):
    assert main(["plan", "--n", "5", "--k", "20"]) == 0
    out = capsys.readouterr().out
    assert f"{5 / 39:.6f}" in out  # eta against the budgeted span


@pytest.mark.parametrize("n", [5, 11, 13, 16])
@pytest.mark.parametrize("width", ["0.1", "0.3", "0.7", "1.1", "3.3"])
def test_cli_plan_certifies_bose_at_any_width(capsys, n, width):
    # at these widths floats round the slot edges off the lattice, and
    # sum bands that only touch would overlap by an ulp
    assert main(["plan", "--mode", "bose", "--n", str(n), "--width-ghz", width]) == 0
    out = capsys.readouterr().out
    assert "decoupled     : True\n" in out
    assert f"edges (GHz)   : [0, {width}]," in out  # printed at the requested width


@pytest.mark.parametrize("width", ["inf", "nan", "1e308"])
def test_cli_plan_rejects_a_width_without_finite_edges(capsys, width):
    assert main(["plan", "--mode", "bose", "--n", "11", "--width-ghz", width]) == 1
    assert capsys.readouterr().out == ""


def test_cli_plan_rejects_a_slot_budget_below_the_top_slot(capsys):
    assert main(["plan", "--n", "5", "--k", "11"]) == 1  # densest 5 tops out at slot 12
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "slot budget below the plan's top slot" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0"], "--n: channel count must be at least 1, got 0"),
        (["--mode", "bose", "--n", "-3"], "--n: channel count must be at least 1, got -3"),
        (["--n", "5", "--width-ghz", "0"], "--width-ghz: must be finite and positive, got 0.0"),
        (["--n", "5", "--width-ghz", "nan"], "--width-ghz: must be finite and positive, got nan"),
        (["--n", "5", "--width-ghz", "inf"], "--width-ghz: must be finite and positive, got inf"),
        (["--mode", "bose", "--n", "11", "--width-ghz", "1e308"],
         "--width-ghz: channel width 1e+308 puts the top edge out of range"),
        (["--n", "5", "--k", "11"], "--k: slot budget below the plan's top slot"),
    ],
    ids=["n-densest", "n-bose", "width-zero", "width-nan", "width-inf", "width-huge", "k"],
)
def test_cli_plan_names_the_bad_flag(capsys, argv, message):
    assert main(["plan", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_plan_densest_fails_at_once_past_the_budget(capsys):
    # 18 marks need a top slot of at least 18*17/2 + 1 = 154 > 150
    start = time.perf_counter()
    assert main(["plan", "--mode", "densest", "--n", "18"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --n: no length-18 sequence within span 150: its top slot "
                            "is at least 154\n")


def test_cli_plan_bose_fails_at_once_past_the_budget(capsys):
    start = time.perf_counter()
    assert main(["plan", "--mode", "bose", "--n", str(BOSE_BUDGET + 1)]) == 1
    assert time.perf_counter() - start < 1.0  # before GF(N) or any certification
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n: 1025 channels exceed the bose budget of 1024\n"


def test_cli_check_verdicts(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("# slots 1 2 5, width 2\n0 2\n6 8\n\n18, 20\n")
    assert main(["check", "--intervals", str(good)]) == 0
    assert "energy-decoupled: yes" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("0 2\n4 6\n8 10\n")  # uniform spacing mixes channels
    assert main(["check", "--intervals", str(bad)]) == 0
    out = capsys.readouterr().out
    assert "energy-decoupled: no" in out and "witness" in out

    overlap = tmp_path / "overlap.txt"
    overlap.write_text("0 2\n1 3\n")
    assert main(["check", "--intervals", str(overlap)]) == 1


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    failing = tmp_path / "uniform.txt"
    failing.write_text("0 2\n4 6\n8 10\n")
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0 2\n4\n")
    calls = (
        ["check", "--intervals", str(failing)],
        ["plan", "--n", "5"],
        ["plan", "--n", "5", "--no-such-flag"],
        ["check", "--intervals", str(malformed)],
        ["check", "--intervals", str(failing)],
    )

    def run_calls():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    assert cli.build_parser() is cli.build_parser()
    reused = run_calls()
    assert [code for code, _, _ in reused] == [0, 0, 2, 1, 0]
    assert reused[0][1] == "energy-decoupled: no witness=(1, 3) vs (2, 2)\n"
    assert reused[4] == reused[0]
    # each call again with a parser built for it alone
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_calls() == reused


@pytest.mark.parametrize("line", ["1 2 3", "a b", "4 inf", "nan 6"])
def test_cli_check_names_the_malformed_line(tmp_path, capsys, line):
    path = tmp_path / "grid.txt"
    path.write_text(f"# header\n0 2\n{line}\n8 10\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
        cmd_check(argparse.Namespace(intervals=str(path)))
    assert main(["check", "--intervals", str(path)]) == 1
    assert f"{path}, line 3" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["# no channels\n", "0 2\n1 3\n", "0 2\n6 5\n"],
                         ids=["empty", "overlapping", "lo-not-below-hi"])
def test_cli_check_names_the_file_of_a_bad_grid(tmp_path, capsys, text):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    assert main(["check", "--intervals", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_check_rejects_a_grid_whose_sums_overflow(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("1e308 1.5e308\n1.6e308 1.7e308\n")
    assert main(["check", "--intervals", str(big)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {big}: channels 1 and 1: sum interval (inf, inf) "
                            "overflows a float\n")
    # the same grid at unit scale has a witness
    small = tmp_path / "small.txt"
    small.write_text("1 1.5\n1.6 1.7\n")
    assert main(["check", "--intervals", str(small)]) == 0
    assert capsys.readouterr().out == "energy-decoupled: no witness=(1, 1) vs (1, 2)\n"


def test_cli_three_tone(tmp_path, capsys):
    rc = main([
        "three-tone", "--powers-w", "0.001,0.0016,0.0004",
        "--phases-rad", "0.0,0.5,-1.1", "--z-km", "0.1", "--dz-m", "10",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "drift" in capsys.readouterr().out
    rows = (tmp_path / "three_tone.csv").read_text().splitlines()
    assert rows[0] == "z_km,P1_W,P2_W,P3_W"
    assert len(rows) == 1 + 11  # 10 steps plus the launch state
    launch = [float(tok) for tok in rows[1].split(",")]
    assert launch[1:] == pytest.approx([0.001, 0.0016, 0.0004], rel=1e-12)


def test_cli_three_tone_rejects_bad_list(capsys):
    assert main(["three-tone", "--powers-w", "1.0,2.0"]) == 1
    assert "three powers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--z-km", "inf"),
        ("--z-km", "-1"),
        ("--dz-m", "inf"),
        ("--dz-m", "0"),
        ("--dz-m", "1e12"),
        ("--dz-m", "0.3"),
        ("--spacing-ghz", "nan"),
        ("--spacing-ghz", "1e100"),  # finite, but the powers overflow on the first step
        ("--spacing-ghz", "1e300"),  # finite in GHz, not in rad/s
        ("--powers-w", "1e300,1,1"),  # finite, but the Kerr phase overflows
        ("--powers-w", "nan,1,1"),
        ("--powers-w", "1,x,1"),
        ("--powers-w", "-1,1,1"),
        ("--phases-rad", "inf,0,0"),
        ("--beta2-ps2-per-km", "nan"),
        ("--gamma-per-w-km", "nan"),
    ],
)
def test_cli_three_tone_rejects_bad_flags(tmp_path, capsys, flag, value):
    assert main(["three-tone", f"{flag}={value}", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not (tmp_path / "three_tone.csv").exists()


def test_cli_three_tone_names_where_the_powers_leave_the_floats(tmp_path, capsys):
    assert main(["three-tone", "--spacing-ghz", "1e100", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: --spacing-ghz: the tone powers stop being finite at z = 0.001 km, as the "
        "dispersion phase (with --beta2-ps2-per-km) turns ")
    assert not (tmp_path / "three_tone.csv").exists()


def test_cli_three_tone_dark_launch(tmp_path, capsys):
    assert main(["three-tone", "--powers-w", "0,0,0", "--out", str(tmp_path)]) == 0
    assert "drift: 0.000e+00" in capsys.readouterr().out


def test_cli_bounds_table(capsys):
    assert main(["bounds", "--k-max", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["k", "N(k)", "bound", "bose_fit"]
    assert len(lines) == 6
    last = lines[-1].split()
    assert last[0] == "5" and last[1] == "3"  # N(5) = 3, e.g. (1, 2, 5)


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_cli_bounds_rejects_a_table_size_below_one(capsys, k_max):
    assert main(["bounds", "--k-max", k_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --k-max: table size must be at least 1, got {k_max}\n"
