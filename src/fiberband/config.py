"""Experiment configuration: INI-style files with unit-suffixed keys.

Every physical quantity carries its unit in the key name
(beta2_ps2_per_km, dt_ps, z_total_km, energies_pj) because unit slips
are the dominant failure mode in fiber simulations. `parse_config` and
`emit_config` round-trip exactly: floats are written with repr, which
Python parses back to the identical value.

The file's schema is written once, on the `ExperimentConfig` fields:
each field's metadata holds its key (`<section>.<option>`) and the
parser of its text, and its dataclass default is what a file that omits
the key gets. A field without a default is a key every file must set;
`parse_config` reports it as `<key>: missing`. `parse_config`,
`emit_config` and `validate` loop over `dataclasses.fields` and spell no
key of their own. The bundled runs live only in their `.cfg` files.

The config is the one place engineering units become SI: `fiber()`,
`channels()`, `filter_mode()`, `launch_field()` and `run_lengths()`
hand the propagator m, s, rad/s, W and J.

A grid is a sequence grid when `channels.sequence` is set and a uniform
grid when `channels.span_w` is; a config sets exactly one of the two.
A `grid.n` above GRID_BUDGET fails before any array is built.

Pulse energies and phases may be omitted; they are then drawn from a
seeded generator so a run remains reproducible from its config alone.
A config that pins both draws nothing and builds no generator.

A config is checked when it is built: the constructor, `parse_config`
and `dataclasses.replace` all raise `ConfigError` naming the offending
key. `parse_config` rejects a section or key that no field names before
it looks for a missing or unparsable one.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .bands import BandError, BandSet, OverlappingIntervals, _bound, make_bandset
from .fields import BandOutOfRange, GridTooCoarse, SampledField, bin_ranges, rrc_on_bins, rrc_pulse
from .planner import NotIncreasing, plan_channels
from .propagation import FILTERS, FiberParams, FilterMode, step_count

GHZ = 2.0 * math.pi * 1e9  # rad/s per GHz of ordinary frequency

# Largest `grid.n` a config accepts: a one-step `propagate` peaked at 73 and
# 200 MB resident for n = 2**18 and 2**20, about 170 bytes a sample over 29 MB.
GRID_BUDGET = 2**20


class ConfigError(ValueError):
    pass


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split())


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split())


def _entry(key: str, parse, default=MISSING):
    """A field with its schema: config key, parser of its text, and the
    value a file that omits the key gets (none: the key is required)."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One run: fiber, grid, channels, pulses and steps, in the units its
    field names carry. `__post_init__` validates, so every instance is a
    valid config; derive one from another with `dataclasses.replace`."""

    alpha0_db_per_km: float = _entry("fiber.alpha0_db_per_km", float, 0.0)
    beta2_ps2_per_km: float = _entry("fiber.beta2_ps2_per_km", float, -21.667)
    gamma_per_w_km: float = _entry("fiber.gamma_per_w_km", float, 1.2578)
    n: int = _entry("grid.n", int)
    dt_ps: float = _entry("grid.dt_ps", float)
    channel_count: int = _entry("channels.count", int)
    width_ghz: float = _entry("channels.width_ghz", float)
    sequence: tuple | None = _entry("channels.sequence", _ints, None)
    span_w: float | None = _entry("channels.span_w", float, None)
    rolloff: float = _entry("pulses.rolloff", float, 0.15)
    energies_pj: tuple | None = _entry("pulses.energies_pj", _floats, None)
    phases_rad: tuple | None = _entry("pulses.phases_rad", _floats, None)
    z_total_km: float = _entry("run.z_total_km", float)
    dz_km: float = _entry("run.dz_km", float)
    filter: str = _entry("run.filter", str)
    filter_spacing_km: float | None = _entry("run.filter_spacing_km", float, None)
    record_every_km: float = _entry("run.record_every_km", float)
    seed: int = _entry("run.seed", int, 0)

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
        if self.n > GRID_BUDGET:
            fail("n", f"{self.n} samples exceed the grid budget of {GRID_BUDGET}")
        if self.dt_ps <= 0:
            fail("dt_ps", "must be positive")
        dt = self.dt_ps * 1e-12
        # bins lie 2 pi / (n dt) apart, out to the Nyquist edge n // 2 bins up
        edge = self.n // 2 * (2.0 * math.pi / (self.n * dt)) if dt else math.inf
        if math.isinf(edge):
            fail("dt_ps", f"{self.dt_ps!r} ps is too small for a finite frequency grid "
                 f"({setting('n')})")
        nyquist, spacing = edge / GHZ, edge / (self.n // 2)  # a power of two: exact
        if self.channel_count < 1:
            fail("channel_count", f"must be at least 1, got {self.channel_count}")
        if self.channel_count > self.n // 2:  # from 0 Hz up, one bin per channel
            fail("channel_count", f"{self.channel_count} channels exceed the {self.n // 2} "
                 f"frequency bins below the Nyquist edge ({setting('n')})")
        if self.width_ghz <= 0:
            fail("width_ghz", "must be positive")
        grids = [name for name in ("sequence", "span_w") if getattr(self, name) is not None]
        if len(grids) != 1:
            raise ConfigError(f"{_KEYS['sequence']}, {_KEYS['span_w']}: "
                              f"{'both' if grids else 'neither'} set; a grid sets exactly one")
        (grid_name,) = grids
        if grid_name == "sequence":
            if len(self.sequence) != self.channel_count:
                fail("sequence", f"needs {self.channel_count} elements")
            reach = 2 * self.sequence[-1] - 1
        else:
            if self.span_w < self.channel_count:
                fail("span_w", "span cannot hold the channels")
            reach = 1 if self.channel_count == 1 else self.span_w

        def above_nyquist(top_ghz: float):
            fail("width_ghz", f"top channel edge {top_ghz:g} GHz is not below "
                 f"the Nyquist edge {nyquist:g} GHz of {setting('dt_ps')}")

        reach = _bound(reach)  # the top channel edge in widths; scaled as `channels` does
        top_ghz, top = reach * self.width_ghz, reach * (self.width_ghz * GHZ)
        if top == math.inf:  # no grid can be built, and its edge is above Nyquist
            above_nyquist(top_ghz)
        try:
            grid = self.channels()
            ranges = bin_ranges(self.n, dt, grid)
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
        if not 0.0 <= self.rolloff <= 1.0:
            fail("rolloff", "must lie in [0, 1]")
        # launch_field gives each pulse its whole channel as support, and
        # rrc_pulse needs a bin in that support off its edges
        for number, ((lo, hi), bins) in enumerate(zip(grid.intervals, ranges), start=1):
            try:
                rrc_on_bins((lo, hi), self.rolloff, bins, self.n, dt)
            except GridTooCoarse:
                why = ("holds no frequency bin" if bins[0] > bins[1] else "cannot carry a pulse: "
                       "the RRC amplitude is zero on its bins, which lie on its edges")
                fail("width_ghz", f"channel {number} [{lo / GHZ:g}, {hi / GHZ:g}] GHz {why}: "
                     f"width {self.width_ghz!r} GHz against a bin spacing of {spacing / GHZ:g} "
                     f"GHz ({setting('n')}, {setting('dt_ps')})")
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
        """The fiber in SI: dB/km, ps^2/km and 1/(W km) to 1/m, s^2/m and 1/(W m)."""
        return FiberParams(
            alpha0=self.alpha0_db_per_km * math.log(10.0) / 10.0 / 1e3,
            beta2=self.beta2_ps2_per_km * 1e-27,
            gamma=self.gamma_per_w_km * 1e-3,
        )

    def channels(self) -> BandSet:
        """The channel grid in rad/s, also the filter: interval k is channel k."""
        w = self.width_ghz * GHZ
        if self.span_w is not None:
            span = self.span_w * w
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
        """Energies in J and phases in rad, drawing unpinned ones by seed.

        One generator seeded by `seed` draws the energies, then the phases,
        skipping whichever is pinned. A config that pins both builds no
        generator, so its run never imports `numpy.random` (about 6 MB
        resident and 12-19 ms in a fresh process, numpy 2.4)."""
        if self.energies_pj is None or self.phases_rad is None:
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
        energies, phases = self.pulse_parameters()
        total = np.zeros(self.n, dtype=complex)
        for channel, energy, phase in zip(self.channels().intervals, energies, phases):
            total = total + rrc_pulse(channel, self.rolloff, energy, phase, dt, self.n).samples
        return SampledField(total, dt)

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
        elif f.default is MISSING:
            raise ConfigError(f"{key}: missing")
    return ExperimentConfig(**values)

