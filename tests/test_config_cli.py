"""Config round-trip and validation, plus the command-line entry point.

emit_config writes floats with repr, so parse(emit(cfg)) must reproduce
the dataclass exactly, not approximately. CLI tests run tiny grids
(n = 512, ~1 km) so the whole module stays under a few seconds.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiberband import cli
from fiberband.bands import OverlappingIntervals, make_bandset
from fiberband.cli import cmd_check, main, resolve_config
from fiberband.config import (
    GHZ,
    GRID_BUDGET,
    ConfigError,
    ExperimentConfig,
    emit_config,
    parse_config,
)
from fiberband.fields import SampledField, bin_omegas
from fiberband.planner import BOSE_BUDGET
from fiberband.propagation import FILTERS, FiberParams, FilterMode, propagate

from oracles import band_mask


# the bundled sidon5 run with its launch left to seed 0, as keyword arguments
SIDON5 = dataclasses.asdict(
    dataclasses.replace(resolve_config("sidon5"), energies_pj=None, phases_rad=None, seed=0)
)


def config(**kw) -> ExperimentConfig:
    """SIDON5 with the fields named in kw changed."""
    return ExperimentConfig(**{**SIDON5, **kw})


def sidon_cfg(**kw) -> ExperimentConfig:
    return config(**{
        "energies_pj": (0.1, 0.25, 1.0 / 3.0, 0.7, 1.2),
        "phases_rad": (0.3, -1.1, 2.0, 0.0, -0.4),
        **kw,
    })


# ---------------------------------------------------------------- round trip


def test_emit_parse_round_trip_exact():
    cfg = sidon_cfg(dz_km=0.1 + 1e-14, alpha0_db_per_km=0.2)
    assert parse_config(emit_config(cfg)) == cfg


def test_round_trip_with_optionals_absent():
    cfg = config(
        alpha0_db_per_km=0.2, beta2_ps2_per_km=-20.0, gamma_per_w_km=1.3, rolloff=0.5, seed=7,
        sequence=None, span_w=23.0, energies_pj=None, phases_rad=None,
        filter="distributed", filter_spacing_km=None,
    )
    text = emit_config(cfg)
    unset = ("sequence", "energies_pj", "phases_rad", "filter_spacing_km")
    assert not any(key in text for key in unset)
    back = parse_config(text)
    assert back == cfg
    # an omitted optional key gives the field's default, None for these
    assert all(getattr(back, key) is None for key in unset)
    fiber, rest = text.split("[grid]")
    assert fiber.startswith("[fiber]")
    rest = re.sub(r"(?m)^(rolloff|seed) = .*\n", "", rest)
    assert "rolloff" not in rest and "seed" not in rest
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    omitted = ("alpha0_db_per_km", "beta2_ps2_per_km", "gamma_per_w_km", "rolloff", "seed")
    assert parse_config("[grid]" + rest) == dataclasses.replace(
        cfg, **{name: defaults[name] for name in omitted}
    )


def outcome(build):
    """The config `build` returns, or the message of the ConfigError it raises."""
    try:
        return build()
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["sidon5", "uniform5"])
@pytest.mark.parametrize("f", dataclasses.fields(ExperimentConfig),
                         ids=lambda f: f.metadata["key"])
def test_a_key_is_required_exactly_when_its_field_has_no_default(name, f):
    # a bundled file without the key's line fails with `<key>: missing` if the
    # field has no default, and is otherwise the bundled run with the default
    key = f.metadata["key"]
    text, deleted = re.subn(rf"(?m)^{key.split('.')[1]} = .*\n", "", bundled_text(name))
    assert deleted <= 1
    if f.default is dataclasses.MISSING:
        assert deleted == 1
        assert outcome(lambda: parse_config(text)) == f"{key}: missing"
    else:
        bundled = resolve_config(name)
        assert outcome(lambda: parse_config(text)) == outcome(
            lambda: dataclasses.replace(bundled, **{f.name: f.default})
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
        (dict(sequence=None), "channels.sequence"),
        (dict(sequence=(1, 2, 5)), "channels.sequence"),
        (dict(sequence=None, span_w=2.0), "channels.span_w"),
        (dict(rolloff=1.5), "pulses.rolloff"),
        (dict(energies_pj=(1.0, 1.0)), "pulses.energies_pj"),
        (dict(energies_pj=(0.1, 0.2, -0.3, 0.4, 0.5)), "pulses.energies_pj"),
        (dict(dz_km=0.0), "run.dz_km"),
        (dict(filter="comb"), "run.filter"),
        (dict(filter="lumped", filter_spacing_km=None), "run.filter_spacing_km"),
        # five channels in five widths touch: edge bins in two channels
        (dict(sequence=None, span_w=5.0), "channels.span_w"),
        (dict(sequence=(5, 1, 2, 10, 12)), "channels.sequence"),
        # top channel edge 46 GHz against the 32 GHz Nyquist edge
        (dict(width_ghz=2.0), "channels.width_ghz"),
        # a grid sets its slots or its span, not both
        (dict(span_w=23.0), "channels.span_w"),
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
        (dict(sequence=None, span_w=23.0, width_ghz=1e300), "channels.width_ghz"),
        # 1e310 steps of 0.1 um: the step count is past the largest float
        (dict(z_total_km=1e300, dz_km=1e-10), "run.dz_km"),
        # the rolloff is checked before the rule that a channel carries a pulse
        (dict(sequence=None, channel_count=2, span_w=5.0, width_ghz=0.015625, rolloff=1.5),
         "pulses.rolloff"),
    ],
)
def test_validate_reports_the_offending_key(changes, field):
    # the constructor and dataclasses.replace both validate
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        sidon_cfg(**changes)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        dataclasses.replace(sidon_cfg(), **changes)


@pytest.mark.parametrize("count", [0, -2])
def test_validate_names_a_channel_count_below_one(count):
    # the planner's rule, with the value the config gave
    with pytest.raises(ConfigError) as exc:
        config(sequence=None, span_w=23.0, channel_count=count)
    assert str(exc.value) == f"channels.count: must be at least 1, got {count}"


def test_grid_errors_speak_in_ghz():
    with pytest.raises(ConfigError) as exc:
        sidon_cfg(width_ghz=2.0)
    assert str(exc.value) == (
        "channels.width_ghz: top channel edge 46 GHz is not below the Nyquist "
        "edge 32 GHz of grid.dt_ps = 15.625"
    )
    # bins are 1 / (2048 * 15.625 ps) = 31.25 MHz apart; a 10 MHz channel
    # in slot 2, at [20, 30] MHz, falls between the bins at 0 and 31.25 MHz
    with pytest.raises(ConfigError) as exc:
        sidon_cfg(width_ghz=0.01, sequence=(2, 3, 6, 11, 13))
    assert str(exc.value) == (
        "channels.width_ghz: channel 1 [0.02, 0.03] GHz holds no frequency bin: width "
        "0.01 GHz against a bin spacing of 0.03125 GHz (grid.n = 2048, grid.dt_ps = 15.625)"
    )
    # 23 widths of 1e298 GHz overflow in rad/s, not in GHz
    with pytest.raises(ConfigError) as exc:
        sidon_cfg(width_ghz=1e298)
    assert str(exc.value) == (
        "channels.width_ghz: top channel edge 2.3e+299 GHz is not below the Nyquist "
        "edge 32 GHz of grid.dt_ps = 15.625"
    )
    # five 2.5 GHz channels in five widths touch
    with pytest.raises(ConfigError) as exc:
        config(sequence=None, span_w=5.0, width_ghz=2.5)
    assert str(exc.value) == "channels.span_w: channels [2.5, 5] and [5, 7.5] GHz overlap"


def test_channels_that_share_a_bin_fail_naming_the_grid_key():
    # five 1 GHz channels over 5 + 1e-12 widths are disjoint intervals,
    # but each inner edge pair falls within EDGE_TOL of one 31.25 MHz bin,
    # which two channels would then both book
    uniform = dict(sequence=None, channel_count=5,
                   energies_pj=None, phases_rad=None)
    with pytest.raises(ConfigError) as exc:
        config(span_w=5.0 + 1e-12, **uniform)
    assert str(exc.value) == (
        "channels.span_w: channels [0, 1] and [1, 2] GHz share the frequency bin at 1 GHz "
        "(grid.n = 2048, grid.dt_ps = 15.625)"
    )
    # the grid as `channels` builds it, handed to the propagator directly
    w = GHZ
    step = ((5.0 + 1e-12) * w - w) / 4
    centers = [0.5 * w + i * step for i in range(5)]
    chans = make_bandset([(c - 0.5 * w, c + 0.5 * w) for c in centers])
    launch = SampledField(np.zeros(2048), 15.625e-12)
    with pytest.raises(OverlappingIntervals):
        propagate(launch, 1e3, 1e3, FiberParams(), FilterMode("distributed"), chans, 1e3)


def test_a_two_sample_grid_names_the_channel_without_a_bin():
    # bins at -32 and 0 GHz: a 1 MHz channel in slot 2, at [2, 3] MHz, holds neither
    with pytest.raises(ConfigError, match=r"^channels\.width_ghz: channel 1 .* "
                       r"bin spacing of 32 GHz \(grid\.n = 2,"):
        config(n=2, channel_count=1, sequence=(2,), width_ghz=0.001, energies_pj=None,
               phases_rad=None)


def test_channels_wider_than_a_bin_launch():
    # 50 MHz channels on a 31.25 MHz bin grid hold one or two bins each
    cfg = sidon_cfg(width_ghz=0.05)
    assert cfg.launch_field().energy() == pytest.approx(sum(cfg.energies_pj) * 1e-12)


# half-bin channels, 15.625 MHz wide on 31.25 MHz bins: channel 1, [0, 15.625]
# MHz, holds one bin, on its lower edge, where the RRC amplitude is zero
# (it rounds to 3.8e-19), so it cannot carry a pulse; channel 2 of the
# two-channel grid, [62.5, 78.125] MHz, holds one bin on its lower edge too
EDGE_BIN_GRIDS = [
    dict(channel_count=2, span_w=5.0, width_ghz=0.015625, energies_pj=None, phases_rad=None),
    dict(channel_count=1, span_w=1.0, width_ghz=0.015625, energies_pj=(1.0,), phases_rad=(0.0,)),
]


@pytest.mark.parametrize("grid", EDGE_BIN_GRIDS, ids=["two-channels", "one-channel"])
def test_a_channel_that_cannot_carry_a_pulse_fails_naming_the_width(grid):
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(resolve_config("uniform5"), **grid)
    assert str(exc.value) == (
        "channels.width_ghz: channel 1 [0, 0.015625] GHz cannot carry a pulse: the RRC "
        "amplitude is zero on its bins, which lie on its edges: width 0.015625 GHz against a "
        "bin spacing of 0.03125 GHz (grid.n = 2048, grid.dt_ps = 15.625)"
    )


def test_a_grid_of_2048_channels_is_checked_without_a_mask_per_channel():
    # n = 4096 and 2048 channels of 1 MHz on 15.625 MHz bins: a (count, n)
    # bool array alone takes 8.4 MB, the channels' bin ranges tens of kB.
    # Most of these channels hold one bin, on an edge, so the grid fails.
    uniform5 = resolve_config("uniform5")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^channels\.width_ghz: channel 1 .* cannot carry"):
            dataclasses.replace(uniform5, n=4096, channel_count=2048, width_ghz=0.001,
                                span_w=31985.375, energies_pj=None, phases_rad=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


SCHEMA_KEYS = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}


def _ulps_off(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def small_grids(draw):
    """Changes to uniform5 for a grid of 2 to 256 samples: widths at
    quarter-bin multiples and a few ulps off them, counts up to n // 2,
    either grid key, every filter mode, three rolloffs, and a launch
    pinned or drawn by seed."""
    n = 2 ** draw(st.integers(1, 8))
    dt_ps = draw(st.sampled_from([15.625, 20.0, 7.3]))
    bin_ghz = 1e3 / (n * dt_ps)
    # half the draws are wide enough, and have few enough channels, that
    # channel 1 holds a bin off its edges and the grid fits below Nyquist
    quarters = draw(st.one_of(st.integers(5, 8), st.integers(1, 12)))
    width = _ulps_off(quarters / 4 * bin_ghz, draw(st.integers(-3, 3)))
    count = draw(st.one_of(st.integers(1, min(3, n // 2)), st.integers(1, n // 2)))
    if draw(st.booleans()):
        slots = draw(st.sets(st.integers(1, count + 2), min_size=count, max_size=count))
        grid = dict(sequence=tuple(sorted(slots)), span_w=None)
    else:
        span = count + draw(st.integers(-1, 4 * count)) / 4
        grid = dict(sequence=None, span_w=_ulps_off(span, draw(st.integers(-3, 3))))
    mode = draw(st.sampled_from(FILTERS))
    launch = dict(energies_pj=None, phases_rad=None, seed=draw(st.integers(0, 99)))
    if draw(st.booleans()):
        launch.update(energies_pj=tuple(draw(st.lists(st.floats(0.01, 2.0), min_size=count,
                                                      max_size=count))),
                      phases_rad=tuple(draw(st.lists(st.floats(-math.pi, math.pi),
                                                     min_size=count, max_size=count))))
    return dict(n=n, dt_ps=dt_ps, width_ghz=width, channel_count=count, **grid,
                rolloff=draw(st.sampled_from([0.0, 0.15, 1.0])), filter=mode,
                filter_spacing_km=10.0 if mode == "lumped" else None, **launch)


@settings(max_examples=150, deadline=None)
@given(small_grids())
@example(EDGE_BIN_GRIDS[0])
@example(EDGE_BIN_GRIDS[1])
def test_a_config_that_validates_also_runs(changes):
    # either the config fails naming schema keys, or it launches and steps
    # to finite samples with every channel's pulse on bins strictly inside it
    try:
        cfg = dataclasses.replace(resolve_config("uniform5"), **changes)
    except ConfigError as exc:
        assert set(str(exc).split(": ")[0].split(", ")) <= SCHEMA_KEYS, str(exc)
        return
    f, dz, channels = cfg.launch_field(), cfg.run_lengths()[1], cfg.channels()
    g, trace = propagate(f, dz, dz, cfg.fiber(), cfg.filter_mode(), channels, dz)
    assert np.all(np.isfinite(g.samples)) and np.all(np.isfinite(trace.per_channel))
    power, omegas = np.abs(np.fft.fft(f.samples)) ** 2, bin_omegas(f.n, f.dt)
    for (lo, hi), held in zip(channels.intervals, band_mask(f.n, f.dt, channels)):
        inside = (lo < omegas) & (omegas < hi)
        # a bin strictly inside the channel is its strongest, or ties it at
        # rolloff 0, where the edge bins carry the flat amplitude too
        assert inside.any() and power[inside].max() >= (1 - 1e-9) * power[held].max()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "changes, field",
    [
        (dict(alpha0_db_per_km=NAN), "fiber.alpha0_db_per_km"),
        (dict(beta2_ps2_per_km=-INF), "fiber.beta2_ps2_per_km"),
        (dict(gamma_per_w_km=INF), "fiber.gamma_per_w_km"),
        (dict(dt_ps=NAN), "grid.dt_ps"),
        (dict(width_ghz=INF), "channels.width_ghz"),
        (dict(sequence=None, span_w=NAN), "channels.span_w"),
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


# Draws frozen at seeds 7 and 11: energies, then phases, from one
# generator seeded by run.seed. A change to when or how the generator
# is built must leave every value and its order as it is.


def test_unpinned_energies_draw_the_frozen_values():
    cfg = sidon_cfg(energies_pj=None, seed=7)
    energies, phases = cfg.pulse_parameters()
    assert energies == (9.563884265767672e-13, 1.3509600114058843e-12,
                        1.1747442508555305e-12, 3.765504254863582e-13,
                        4.852411131212769e-13)
    assert phases == cfg.phases_rad


def test_unpinned_energies_and_phases_draw_the_frozen_values():
    energies, phases = sidon_cfg(energies_pj=None, phases_rad=None, seed=11).pulse_parameters()
    assert energies == (2.3642679401533944e-13, 7.739529005381666e-13,
                        9.221726185538683e-13, 9.159906213931959e-14,
                        2.644928226373111e-13)
    assert phases == (2.690529207836934, -2.6991271241746224, -2.326198881469457,
                      2.8169307505134302, 0.7658171994444922)


_SHORT_SIDON5_RUN = """
import dataclasses, sys
from pathlib import Path
from fiberband.cli import resolve_config, run_simulation
cfg = dataclasses.replace(resolve_config("sidon5"), z_total_km=0.5, record_every_km=0.5,
                          {unpin})
run_simulation(cfg, Path(sys.argv[1]), "short", "csv")
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("unpin, imported", [("", False), ("phases_rad=None", True)])
def test_a_pinned_launch_never_imports_numpy_random(tmp_path, unpin, imported):
    # a fresh interpreter, since this one has long imported numpy.random
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SHORT_SIDON5_RUN.format(unpin=unpin),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == [str(imported)]


# ---------------------------------------------------------------- grid keys


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
    cfg = config(sequence=None, span_w=23.0)
    w = cfg.width_ghz * GHZ
    centers = [0.5 * (lo + hi) for lo, hi in cfg.channels().intervals]
    expect = [(0.5 + 5.5 * i) * w for i in range(5)]
    assert np.allclose(centers, expect, rtol=1e-12)
    for lo, hi in cfg.channels().intervals:
        assert hi - lo == pytest.approx(w, rel=1e-12)


def test_a_grid_without_a_grid_key_fails_naming_both():
    with pytest.raises(ConfigError) as exc:
        config(sequence=None)
    assert str(exc.value) == (
        "channels.sequence, channels.span_w: neither set; a grid sets exactly one"
    )


@pytest.mark.parametrize("name, line, extra", [
    ("uniform5", "span_w = 23.0", "sequence = 1 2 3"),
    ("sidon5", "sequence = 1 2 5 10 12", "span_w = 99"),
])
def test_a_file_with_both_grid_keys_fails_naming_both(name, line, extra):
    # the second key would otherwise be read by nothing
    text = bundled_text(name)
    assert text.count(line) == 1
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace(line, f"{line}\n{extra}"))
    assert str(exc.value) == (
        "channels.sequence, channels.span_w: both set; a grid sets exactly one"
    )


@pytest.mark.parametrize("section, line", [
    ("channels", "placement = uniform"),
    ("grid", "t0_ns = -16.0"),
])
def test_the_removed_placement_and_window_keys_are_unknown(section, line):
    text = bundled_text("uniform5").replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == f"{section}.{line.split()[0]}: unknown key"


@pytest.mark.parametrize("count", [10**7, 10**20])
def test_a_channel_count_past_the_grid_fails_before_any_channel_is_built(count):
    # n = 2048 holds 1024 bins from 0 Hz up to the Nyquist edge, one per channel
    start = time.perf_counter()
    with pytest.raises(ConfigError) as exc:
        config(sequence=None, span_w=float(count), channel_count=count)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == (
        f"channels.count: {count} channels exceed the 1024 frequency bins below the "
        "Nyquist edge (grid.n = 2048)"
    )
    # n = 8 has bins at 0, 8, 16 and 24 GHz; channel 1 holds the bin at 0 Hz
    # on its edge, so only three 9 GHz channels carry a pulse, at [0, 9],
    # [11.25, 20.25] and [22.5, 31.5] GHz, and five exceed the bins
    three = config(n=8, sequence=None, width_ghz=9.0, span_w=3.5, channel_count=3)
    assert len(three.channels().intervals) == 3
    with pytest.raises(ConfigError, match=r"^channels\.count: 5 channels exceed the 4 "):
        dataclasses.replace(three, channel_count=5)


def test_uniform_single_channel():
    cfg = config(sequence=None, channel_count=1, span_w=1.0)
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
    cfg = sidon_cfg(n=512, dt_ps=15.625, channel_count=2,
                    width_ghz=4.0, sequence=(1, 2), energies_pj=(0.06, 0.11),
                    phases_rad=(0.4, -1.0))
    f = cfg.launch_field()
    energy = float(np.sum(np.abs(f.samples) ** 2) * f.dt)
    assert energy == pytest.approx(0.17e-12, rel=1e-12)


@pytest.mark.parametrize("name", ["sidon5", "uniform5"])
@pytest.mark.parametrize("n, dt_ps", [(2048, 15.625), (512, 15.625), (4096, 7.8125),
                                      (1024, 20.0)])
def test_the_launch_window_is_centred_on_zero(name, n, dt_ps):
    # one channel of the config's grid, alone: its pulse peaks at t = 0,
    # sample n // 2, with the pinned phase
    cfg = resolve_config(name)
    grid = dict(sequence=cfg.sequence[:1]) if cfg.sequence else dict(span_w=1.0)
    f = dataclasses.replace(cfg, n=n, dt_ps=dt_ps, channel_count=1, energies_pj=(0.5,),
                            phases_rad=(1.1,), **grid).launch_field()
    assert f.dt == dt_ps * 1e-12
    assert int(np.argmax(np.abs(f.samples))) == n // 2
    assert np.angle(f.samples[n // 2]) == pytest.approx(1.1, abs=1e-9)


# ---------------------------------------------------------------- bundled


def test_bundled_configs_resolve_and_validate():
    sidon5, uniform5 = resolve_config("sidon5"), resolve_config("uniform5.cfg")
    assert sidon5.sequence == (1, 2, 5, 10, 12) and sidon5.span_w is None
    assert uniform5.span_w == 23.0 and uniform5.sequence is None
    # the .cfg files are the only copy of the bundled runs: no field list spells one
    with pytest.raises(TypeError):
        ExperimentConfig()


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
        channel_count=2,
        width_ghz=4.0,
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
    outs = []
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        cfg = short_cfg(energies_pj=None, phases_rad=None, seed=seed)
        path = write_cfg(tmp_path, cfg, f"{tag}.cfg")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        outs.append((tmp_path / f"{tag}_trace.csv").read_bytes())
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


@pytest.mark.parametrize("command, flag", [("simulate", "--config"), ("check", "--intervals")])
def test_cli_reports_a_directory_as_an_error(tmp_path, capsys, command, flag):
    assert main([command, flag, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


def edited_config(tmp_path, text: str, line: str, new_line: str) -> Path:
    """A config file: `text` with its one `line` replaced by `new_line`."""
    assert text.count(line) == 1
    path = tmp_path / "edited.cfg"
    path.write_text(text.replace(line, new_line), encoding="utf-8")
    return path


def bundled_text(name: str) -> str:
    return resources.files("fiberband").joinpath("configs", f"{name}.cfg").read_text()


def test_cli_simulate_names_a_negative_seed(tmp_path, capsys):
    text = emit_config(short_cfg(energies_pj=None, phases_rad=None))
    path = edited_config(tmp_path, text, "seed = 0", "seed = -3")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: run.seed: must be nonnegative, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, new_line, message",
    [
        ("dz_km = 0.1", "dz_km = 0.3",
         "run.dz_km: 0.3 km does not divide run.z_total_km = 160.0 km"),
        ("record_every_km = 5.0", "record_every_km = 5.05",
         "run.dz_km: 0.1 km does not divide run.record_every_km = 5.05 km"),
        ("filter_spacing_km = 10.0", "filter_spacing_km = 10.05",
         "run.dz_km: 0.1 km does not divide run.filter_spacing_km = 10.05 km"),
    ],
    ids=["z-total", "record-every", "filter-spacing"],
)
def test_cli_simulate_names_a_step_that_does_not_divide(tmp_path, capsys, line, new_line,
                                                        message):
    path = edited_config(tmp_path, bundled_text("sidon5"), line, new_line)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, line, bad_line, key",
    [
        ("uniform5", "span_w = 23.0", "span_w = 5.0", "channels.span_w"),
        ("uniform5", "span_w = 23.0\n", "", "channels.sequence, channels.span_w"),
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
        ("sidon5", "sequence = 1 2 5 10 12", "sequence = 1 2 5 10 12\nspan_w = 99",
         "channels.sequence, channels.span_w"),
        ("sidon5", "dt_ps = 15.625", "dt_ps = 15.625%", "grid.dt_ps"),
        ("sidon5", "dt_ps = 15.625", "dt_ps = %(n)s", "grid.dt_ps"),
    ],
    ids=["touching", "no-span", "unsorted", "outside-window", "narrower-than-a-bin",
         "slot-past-the-largest-float", "unknown-key",
         "unknown-section", "negative-seed", "negative-alpha0", "default-section",
         "misspelled-required-key", "both-grid-keys", "percent-sign",
         "interpolation"],
)
def test_cli_simulate_names_a_bad_channel_grid(tmp_path, capsys, name, line, bad_line, key):
    # also a bad key, section or value outside the grid: each fails naming it
    path = edited_config(tmp_path, bundled_text(name), line, bad_line)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt_ps", ["5e-324", "1e-300"])
def test_cli_simulate_names_a_sample_spacing_too_small_for_a_grid(tmp_path, capsys, dt_ps):
    # 5e-324 ps rounds to 0 s; 1e-300 ps puts the bins an infinite spacing apart
    path = edited_config(tmp_path, bundled_text("sidon5"), "dt_ps = 15.625", f"dt_ps = {dt_ps}")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: grid.dt_ps: {dt_ps} ps is too small for a finite "
                            "frequency grid (grid.n = 2048)\n")
    assert not out.exists()


@pytest.mark.parametrize("n", [2**40, 2**64])
def test_cli_simulate_names_a_grid_past_the_budget(tmp_path, capsys, n):
    # a power of two, but its arrays would not fit: 2**64 samples
    # overflowed numpy's size check, and 2**40 ran out of memory
    path = edited_config(tmp_path, bundled_text("sidon5"), "n = 2048", f"n = {n}")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: grid.n: {n} samples exceed the grid budget of {GRID_BUDGET}\n")
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


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_cli_has_four_subcommands(capsys):
    assert list(subcommands()) == ["simulate", "plan", "check", "bounds"]
    with pytest.raises(SystemExit) as exc:
        main(["three-tone"])
    assert exc.value.code == 2
    assert "invalid choice: 'three-tone'" in capsys.readouterr().err


def test_cli_simulate_takes_every_setting_from_its_config(capsys):
    # a run is its config file: no option sets a config key a second way
    options = [option for action in subcommands()["simulate"]._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings]
    assert options == ["--config", "--out", "--format"]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "sidon5", "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_parse(capsys):
    # every example command in README's CLI section names only options that exist
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```")[1]
    examples = [line.split() for line in block.splitlines() if line.startswith("fiberband ")]
    assert len(examples) == 6
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}\n"
                        f"{capsys.readouterr().err}")


def test_readme_names_every_optional_key():
    # README's sentence on the keys a file may omit names every field with a
    # default, and no other, with the value each gets unless it is None
    (sentence,) = [" ".join(paragraph.split())
                   for paragraph in README.read_text(encoding="utf-8").split("\n\n")
                   if paragraph.startswith("A file may omit ")]
    optional = [f for f in dataclasses.fields(ExperimentConfig)
                if f.default is not dataclasses.MISSING]
    assert set(re.findall(r"`(\w+\.\w+)`", sentence)) == {f.metadata["key"] for f in optional}
    for f in optional:
        if f.default is not None:
            assert f"`{f.metadata['key']}` ({f.default!r}" in sentence


def test_readme_names_only_schema_keys():
    # a backticked `section.key` in README is a key a config file can set
    keys = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
    sections = {key.split(".")[0] for key in keys}
    named = {name for name in re.findall(r"`(\w+\.\w+)`", README.read_text(encoding="utf-8"))
             if name.split(".")[0] in sections}
    assert len(named) > 10
    assert named - keys == set()


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


# the full stdout of plan, bounds and check, pinned byte for byte: a change to a
# sequence, a verdict or a number format shows here; GRID is a uniform grid file
GRID = "<uniform grid>"
PINNED_OUTPUT = {
    "plan-densest-6": (["plan", "--n", "6"], (
        "sequence      : (1, 2, 5, 11, 13, 18)\n"
        "channel width : 1 GHz\n"
        "centers (GHz) : 0.5, 2.5, 8.5, 20.5, 24.5, 34.5\n"
        "edges (GHz)   : [0, 1], [2, 3], [8, 9], [20, 21], [24, 25], [34, 35]\n"
        "decoupled     : True\n"
        "eta           : 0.171429\n"
        "eta * N       : 1.028571\n"
    )),
    "plan-bose-11": (["plan", "--mode", "bose", "--n", "11", "--width-ghz", "2.5", "--k", "130"], (
        "sequence      : (1, 6, 22, 62, 68, 69, 71, 88, 99, 103, 113)\n"
        "channel width : 2.5 GHz\n"
        "centers (GHz) : 1.25, 26.25, 106.25, 306.25, 336.25, 341.25, 351.25, 436.25, "
        "491.25, 511.25, 561.25\n"
        "edges (GHz)   : [0, 2.5], [25, 27.5], [105, 107.5], [305, 307.5], [335, 337.5], "
        "[340, 342.5], [350, 352.5], [435, 437.5], [490, 492.5], [510, 512.5], [560, 562.5]\n"
        "decoupled     : True\n"
        "eta           : 0.042471\n"
        "eta * N       : 0.467181\n"
    )),
    "bounds-12": (["bounds", "--k-max", "12"], (
        "   k  N(k)    bound bose_fit\n"
        "   1     1    2.000        1\n"
        "   2     2    3.236        2\n"
        "   3     2    3.769        2\n"
        "   4     3    4.190        3\n"
        "   5     3    4.500        3\n"
        "   6     3    4.829        3\n"
        "   7     4    5.057        3\n"
        "   8     4    5.331        4\n"
        "   9     4    5.520        4\n"
        "  10     4    5.755        4\n"
        "  11     4    5.921        4\n"
        "  12     5    6.130        4\n"
    )),
    "check-uniform": (["check", "--intervals", GRID], (
        "energy-decoupled: no witness=(1, 3) vs (2, 2)\n"
    )),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUT))
def test_cli_output_is_pinned(tmp_path, capsys, name):
    argv, expected = PINNED_OUTPUT[name]
    grid = tmp_path / "uniform.txt"
    grid.write_text("0 2\n4 6\n8 10\n")
    assert main([str(grid) if arg == GRID else arg for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
