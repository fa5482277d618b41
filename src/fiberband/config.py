"""Experiment configuration: INI-style files with unit-suffixed keys.

Every physical quantity carries its unit in the key name
(beta2_ps2_per_km, dt_ps, z_total_km, energies_pj) because unit slips
are the dominant failure mode in fiber simulations. `parse_config` and
`emit_config` round-trip exactly: floats are written with repr, which
Python parses back to the identical value.

The file's schema is written once, on the `ExperimentConfig` fields:
each field's metadata holds its key (`<section>.<option>`), the parser of
its text and what a file that omits the key gets (REQUIRED, DEFAULTED
or UNSET). `parse_config`, `emit_config` and `validate` loop over
`dataclasses.fields` and spell no key of their own.

Pulse energies and phases may be omitted; they are then drawn from a
seeded generator so a run remains reproducible from its config alone.

A config is checked when it is built: the constructor, `parse_config`
and `dataclasses.replace` all raise `ConfigError` naming the offending
key. `parse_config` rejects a section or key that no field names before
it looks for a missing or unparsable one.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bands import BandError, BandSet, OverlappingIntervals, make_bandset
from .fields import BandOutOfRange, SampledField, band_mask, bin_omegas, rrc_pulse
from .planner import NotIncreasing, plan_channels
from .propagation import FILTERS, FiberParams, FilterMode, step_count

GHZ = 2.0 * math.pi * 1e9  # rad/s per GHz of ordinary frequency

PLACEMENTS = ("sequence", "uniform")
_SPAN_W = 23.0  # channel widths a uniform grid spans when span_w is unset


class ConfigError(ValueError):
    pass


# what a file that omits a key gets
REQUIRED = "required"  # the error `<key>: missing`
DEFAULTED = "defaulted"  # the field's default
UNSET = "unset"  # None


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split())


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split())


def _entry(default, key: str, parse, omitted: str):
    """A field with its schema: config key, parser of its text, omission rule."""
    return field(default=default, metadata={"key": key, "parse": parse, "omitted": omitted})


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: fiber, grid, channels, pulses and steps, in the units its
    field names carry. `__post_init__` validates, so every instance is a
    valid config; derive one from another with `dataclasses.replace`.
    The defaults are the bundled sidon5 run with its launch drawn by seed 0."""

    alpha0_db_per_km: float = _entry(0.0, "fiber.alpha0_db_per_km", float, DEFAULTED)
    beta2_ps2_per_km: float = _entry(-21.667, "fiber.beta2_ps2_per_km", float, DEFAULTED)
    gamma_per_w_km: float = _entry(1.2578, "fiber.gamma_per_w_km", float, DEFAULTED)
    n: int = _entry(2048, "grid.n", int, REQUIRED)
    dt_ps: float = _entry(15.625, "grid.dt_ps", float, REQUIRED)
    t0_ns: float = _entry(-16.0, "grid.t0_ns", float, REQUIRED)
    channel_count: int = _entry(5, "channels.count", int, REQUIRED)
    width_ghz: float = _entry(1.0, "channels.width_ghz", float, REQUIRED)
    placement: str = _entry("sequence", "channels.placement", str, REQUIRED)
    sequence: tuple | None = _entry((1, 2, 5, 10, 12), "channels.sequence", _ints, UNSET)
    span_w: float | None = _entry(None, "channels.span_w", float, UNSET)
    rolloff: float = _entry(0.15, "pulses.rolloff", float, DEFAULTED)
    energies_pj: tuple | None = _entry(None, "pulses.energies_pj", _floats, UNSET)
    phases_rad: tuple | None = _entry(None, "pulses.phases_rad", _floats, UNSET)
    z_total_km: float = _entry(160.0, "run.z_total_km", float, REQUIRED)
    dz_km: float = _entry(0.1, "run.dz_km", float, REQUIRED)
    filter: str = _entry("lumped", "run.filter", str, REQUIRED)
    filter_spacing_km: float | None = _entry(10.0, "run.filter_spacing_km", float, UNSET)
    record_every_km: float = _entry(5.0, "run.record_every_km", float, REQUIRED)
    seed: int = _entry(0, "run.seed", int, DEFAULTED)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def fail(name: str, msg: str):
            raise ConfigError(f"{_KEYS[name]}: {msg}")

        def setting(name: str) -> str:
            return f"{_KEYS[name]} = {getattr(self, name)!r}"

        for f in fields(self):
            value = getattr(self, f.name)
            floats = f.metadata["parse"] in (float, _floats)
            if floats and value is not None and not np.all(np.isfinite(value)):
                fail(f.name, f"must be finite, got {value}")
        if self.alpha0_db_per_km < 0:
            fail("alpha0_db_per_km", f"must be nonnegative, got {self.alpha0_db_per_km}")
        if self.n < 2 or self.n & (self.n - 1):
            fail("n", f"{self.n} is not a power of two >= 2")
        if self.dt_ps <= 0:
            fail("dt_ps", "must be positive")
        if self.channel_count < 1:
            fail("channel_count", "need at least one channel")
        if self.width_ghz <= 0:
            fail("width_ghz", "must be positive")
        if self.placement not in PLACEMENTS:
            fail("placement", f"{self.placement!r} not in {PLACEMENTS}")
        if self.placement == "sequence":
            if not self.sequence:
                fail("sequence", "required for placement = sequence")
            if len(self.sequence) != self.channel_count:
                fail("sequence", f"needs {self.channel_count} elements")
            grid_name, reach = "sequence", 2 * self.sequence[-1] - 1
        else:  # name the key the config set
            if self.span_w is not None and self.span_w < self.channel_count:
                fail("span_w", "span cannot hold the channels")
            grid_name = "channel_count" if self.span_w is None else "span_w"
            reach = 1 if self.channel_count == 1 else self.span_w or _SPAN_W
        dt = self.dt_ps * 1e-12
        edge = -bin_omegas(self.n, dt)[self.n // 2]  # the Nyquist edge, at index n // 2
        nyquist, spacing = edge / GHZ, edge / (self.n // 2)  # a power of two: exact

        def above_nyquist(top_ghz: float):
            fail("width_ghz", f"top channel edge {top_ghz:g} GHz is not below "
                 f"the Nyquist edge {nyquist:g} GHz of {setting('dt_ps')}")

        try:  # reach is the top channel edge in widths; scaled as `channels` does
            top_ghz, top = reach * self.width_ghz, reach * (self.width_ghz * GHZ)
        except OverflowError:  # an int slot past the largest float
            top_ghz = top = math.inf if reach > 0 else -math.inf
        if top == math.inf:  # no grid can be built, and its edge is above Nyquist
            above_nyquist(top_ghz)
        try:
            grid = self.channels()
            rows = band_mask(self.n, dt, grid)
        except BandOutOfRange:
            above_nyquist(grid.hi / GHZ)
        except OverlappingIntervals as exc:
            a, b = (f"[{lo / GHZ:g}, {hi / GHZ:g}]" for lo, hi in exc.pair)
            (_, a_hi), (b_lo, _) = exc.pair
            if a_hi < b_lo:  # disjoint, so both edges sit on the one bin they share
                shared = round(0.5 * (a_hi + b_lo) / spacing) * spacing / GHZ
                fail(grid_name, f"channels {a} and {b} GHz share the frequency bin at "
                     f"{shared:g} GHz ({setting('n')}, {setting('dt_ps')})")
            fail(grid_name, f"channels {a} and {b} GHz overlap")
        except (BandError, NotIncreasing) as exc:
            fail(grid_name, str(exc))
        # launch_field gives each pulse its whole channel as support, and
        # rrc_pulse needs a bin in that support
        for number, ((lo, hi), row) in enumerate(zip(grid.intervals, rows), start=1):
            if not row.any():
                fail("width_ghz", f"channel {number} [{lo / GHZ:g}, {hi / GHZ:g}] GHz "
                     f"holds no frequency bin: width {self.width_ghz!r} GHz against a bin "
                     f"spacing of {spacing / GHZ:g} GHz ({setting('n')}, {setting('dt_ps')})")
        if not 0.0 <= self.rolloff <= 1.0:
            fail("rolloff", "must lie in [0, 1]")
        for name in ("energies_pj", "phases_rad"):
            vals = getattr(self, name)
            if vals is not None and len(vals) != self.channel_count:
                fail(name, f"needs {self.channel_count} elements")
        if self.energies_pj is not None and any(e < 0 for e in self.energies_pj):
            fail("energies_pj", "energies must be nonnegative")
        if self.seed < 0:
            fail("seed", f"must be nonnegative, got {self.seed}")
        for name in ("z_total_km", "dz_km", "record_every_km"):
            if getattr(self, name) <= 0:
                fail(name, "must be positive")
        if self.filter not in FILTERS:
            fail("filter", f"{self.filter!r} not in {FILTERS}")
        if self.filter == "lumped" and not (
            self.filter_spacing_km and self.filter_spacing_km > 0
        ):
            fail("filter_spacing_km", "required and positive for lumped filtering")
        # tested in meters, on the lengths propagate partitions
        dz = self.dz_km * 1e3
        spans = ["z_total_km", "record_every_km"]
        if self.filter == "lumped":
            spans.append("filter_spacing_km")
        for name in spans:
            if step_count(getattr(self, name) * 1e3, dz) is None:
                fail("dz_km", f"{self.dz_km!r} km does not divide {setting(name)} km")

    # derived physical objects

    def fiber(self) -> FiberParams:
        return FiberParams.from_engineering(
            self.alpha0_db_per_km, self.beta2_ps2_per_km, self.gamma_per_w_km
        )

    def channels(self) -> BandSet:
        """The channel grid in rad/s, also the filter: interval k is channel k."""
        w = self.width_ghz * GHZ
        if self.placement == "uniform":
            span = (self.span_w if self.span_w is not None else _SPAN_W) * w
            if self.channel_count == 1:
                centers = [0.5 * w]
            else:
                step = (span - w) / (self.channel_count - 1)
                centers = [0.5 * w + i * step for i in range(self.channel_count)]
            return make_bandset([(c - 0.5 * w, c + 0.5 * w) for c in centers])
        return make_bandset(plan_channels(self.sequence, w).intervals())

    def filter_mode(self) -> FilterMode:
        spacing = self.filter_spacing_km * 1e3 if self.filter == "lumped" else None
        return FilterMode(self.filter, spacing)

    def pulse_parameters(self) -> tuple[tuple, tuple]:
        """Energies in J and phases in rad, drawing unpinned ones by seed."""
        rng = np.random.default_rng(self.seed)
        if self.energies_pj is None:
            energies = tuple(rng.uniform(0.05, 1.5, self.channel_count) * 1e-12)
        else:
            energies = tuple(e * 1e-12 for e in self.energies_pj)
        if self.phases_rad is None:
            phases = tuple(rng.uniform(-math.pi, math.pi, self.channel_count))
        else:
            phases = tuple(self.phases_rad)
        return energies, phases

    def launch_field(self) -> SampledField:
        dt = self.dt_ps * 1e-12
        t0 = self.t0_ns * 1e-9
        energies, phases = self.pulse_parameters()
        total = np.zeros(self.n, dtype=complex)
        for channel, energy, phase in zip(self.channels().intervals, energies, phases):
            total = total + rrc_pulse(channel, self.rolloff, energy, phase, dt, self.n, t0).samples
        return SampledField(total, dt, t0)

    def run_lengths(self) -> tuple[float, float, float]:
        """(z_total, dz, record_every) in meters."""
        return self.z_total_km * 1e3, self.dz_km * 1e3, self.record_every_km * 1e3


_KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    sections = {}  # an unset (None) field writes no key
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is not None:
            section, option = f.metadata["key"].split(".")
            sections.setdefault(section, {})[option] = _fmt(value)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    # no header can name the default section "", so [DEFAULT] is an ordinary,
    # unknown section rather than keys copied into every section; a value is
    # read as written, so "%" is a bad number, not a reference to another key
    cp = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    schema = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
    # unknown names first, so a misspelled required key is named as written
    for section in cp.sections():
        if not any(key.startswith(f"{section}.") for key in schema):
            raise ConfigError(f"{section}: unknown section")
        for option in cp.options(section):
            if f"{section}.{option}" not in schema:
                raise ConfigError(f"{section}.{option}: unknown key")
    values = {}
    for key, f in schema.items():
        section, option = key.split(".")
        if cp.has_option(section, option):
            try:
                values[f.name] = f.metadata["parse"](cp.get(section, option).strip())
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif f.metadata["omitted"] == REQUIRED:
            raise ConfigError(f"{key}: missing")
        elif f.metadata["omitted"] == UNSET:
            values[f.name] = None
    return ExperimentConfig(**values)

