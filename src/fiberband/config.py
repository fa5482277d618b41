"""Experiment configuration: INI-style files with unit-suffixed keys.

Every physical quantity carries its unit in the key name
(beta2_ps2_per_km, dt_ps, z_total_km, energies_pj) because unit slips
are the dominant failure mode in fiber simulations. `parse_config` and
`emit_config` round-trip exactly: floats are written with repr, which
Python parses back to the identical value.

Pulse energies and phases may be omitted; they are then drawn from a
seeded generator so a run remains reproducible from its config alone.

A config is checked when it is built: the constructor, `parse_config`
and `dataclasses.replace` all raise `ConfigError` naming the offending
key, and `parse_config` rejects any section or key it does not read.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from .bands import BandError, BandSet, OverlappingIntervals, make_bandset
from .fields import BandOutOfRange, SampledField, band_mask, bin_omegas, rrc_pulse
from .planner import NotIncreasing, SidonSequence, plan_channels, sidon_for_channels
from .propagation import FiberParams, FilterMode, step_count

GHZ = 2.0 * math.pi * 1e9  # rad/s per GHz of ordinary frequency

PLACEMENTS = ("sequence", "sidon", "uniform")
FILTERS = ("distributed", "lumped", "none")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: fiber, grid, channels, pulses and steps, in the units its
    field names carry. `__post_init__` validates, so every instance is a
    valid config; derive one from another with `dataclasses.replace`.
    The defaults are the bundled sidon5 run with its launch drawn by seed 0."""

    # fiber
    alpha0_db_per_km: float = 0.0
    beta2_ps2_per_km: float = -21.667
    gamma_per_w_km: float = 1.2578
    # grid
    n: int = 2048
    dt_ps: float = 15.625
    t0_ns: float = -16.0
    # channels
    channel_count: int = 5
    width_ghz: float = 1.0
    placement: str = "sequence"
    sequence: tuple | None = (1, 2, 5, 10, 12)
    span_w: float | None = None
    # pulses
    rolloff: float = 0.15
    energies_pj: tuple | None = None
    phases_rad: tuple | None = None
    # run
    z_total_km: float = 160.0
    dz_km: float = 0.1
    filter: str = "lumped"
    filter_spacing_km: float | None = 10.0
    record_every_km: float = 5.0
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def fail(field: str, msg: str):
            raise ConfigError(f"{field}: {msg}")

        for key, value in (
            ("fiber.alpha0_db_per_km", self.alpha0_db_per_km),
            ("fiber.beta2_ps2_per_km", self.beta2_ps2_per_km),
            ("fiber.gamma_per_w_km", self.gamma_per_w_km),
            ("grid.dt_ps", self.dt_ps),
            ("grid.t0_ns", self.t0_ns),
            ("channels.width_ghz", self.width_ghz),
            ("channels.span_w", self.span_w),
            ("pulses.rolloff", self.rolloff),
            ("pulses.energies_pj", self.energies_pj),
            ("pulses.phases_rad", self.phases_rad),
            ("run.z_total_km", self.z_total_km),
            ("run.dz_km", self.dz_km),
            ("run.filter_spacing_km", self.filter_spacing_km),
            ("run.record_every_km", self.record_every_km),
        ):
            if value is not None and not np.all(np.isfinite(value)):
                fail(key, f"must be finite, got {value}")
        if self.alpha0_db_per_km < 0:
            fail("fiber.alpha0_db_per_km", f"must be nonnegative, got {self.alpha0_db_per_km}")
        if self.n < 2 or self.n & (self.n - 1):
            fail("grid.n", f"{self.n} is not a power of two >= 2")
        if self.dt_ps <= 0:
            fail("grid.dt_ps", "must be positive")
        if self.channel_count < 1:
            fail("channels.count", "need at least one channel")
        if self.width_ghz <= 0:
            fail("channels.width_ghz", "must be positive")
        if self.placement not in PLACEMENTS:
            fail("channels.placement", f"{self.placement!r} not in {PLACEMENTS}")
        if self.placement == "sequence":
            if not self.sequence:
                fail("channels.sequence", "required for placement = sequence")
            if len(self.sequence) != self.channel_count:
                fail("channels.sequence", f"needs {self.channel_count} elements")
        if self.placement == "uniform" and self.span_w is not None:
            if self.span_w < self.channel_count:
                fail("channels.span_w", "span cannot hold the channels")
        grid_key = "channels.sequence"
        if self.placement == "uniform":  # name the key the config set
            grid_key = "channels.count" if self.span_w is None else "channels.span_w"
        try:  # a sidon placement is a valid grid by construction
            grid = self.channels()
        except OverlappingIntervals as exc:
            a, b = (f"[{lo / GHZ:g}, {hi / GHZ:g}]" for lo, hi in exc.pair)
            fail(grid_key, f"channels {a} and {b} GHz overlap")
        except (BandError, NotIncreasing) as exc:
            fail(grid_key, str(exc))
        dt = self.dt_ps * 1e-12
        try:
            band_mask(self.n, dt, grid)
        except BandOutOfRange:
            nyquist = -bin_omegas(self.n, dt)[0] / GHZ
            fail("channels.width_ghz", f"top channel edge {grid.hi / GHZ:g} GHz is not below "
                 f"the Nyquist edge {nyquist:g} GHz of grid.dt_ps = {self.dt_ps!r}")
        # launch_field gives each pulse its whole channel as support, and
        # rrc_pulse needs a bin in that support
        for number, (lo, hi) in enumerate(grid.intervals, start=1):
            if not band_mask(self.n, dt, make_bandset([(lo, hi)])).any():
                spacing = bin_omegas(self.n, dt)[self.n // 2 + 1] / GHZ  # first bin above 0
                fail("channels.width_ghz", f"channel {number} [{lo / GHZ:g}, {hi / GHZ:g}] GHz "
                     f"holds no frequency bin: width {self.width_ghz!r} GHz against a bin "
                     f"spacing of {spacing:g} GHz (grid.n = {self.n}, "
                     f"grid.dt_ps = {self.dt_ps!r})")
        if not 0.0 <= self.rolloff <= 1.0:
            fail("pulses.rolloff", "must lie in [0, 1]")
        for name, vals in (("energies_pj", self.energies_pj), ("phases_rad", self.phases_rad)):
            if vals is not None and len(vals) != self.channel_count:
                fail(f"pulses.{name}", f"needs {self.channel_count} elements")
        if self.energies_pj is not None and any(e < 0 for e in self.energies_pj):
            fail("pulses.energies_pj", "energies must be nonnegative")
        if self.seed < 0:
            fail("run.seed", f"must be nonnegative, got {self.seed}")
        for field in ("z_total_km", "dz_km", "record_every_km"):
            if getattr(self, field) <= 0:
                fail(f"run.{field}", "must be positive")
        if self.filter not in FILTERS:
            fail("run.filter", f"{self.filter!r} not in {FILTERS}")
        if self.filter == "lumped" and not (
            self.filter_spacing_km and self.filter_spacing_km > 0
        ):
            fail("run.filter_spacing_km", "required and positive for lumped filtering")
        # tested in meters, on the lengths propagate partitions
        dz = self.dz_km * 1e3
        spans = ["z_total_km", "record_every_km"]
        if self.filter == "lumped":
            spans.append("filter_spacing_km")
        for field in spans:
            span_km = getattr(self, field)
            if step_count(span_km * 1e3, dz) is None:
                fail("run.dz_km",
                     f"{self.dz_km!r} km does not divide run.{field} = {span_km!r} km")

    # derived physical objects

    def fiber(self) -> FiberParams:
        return FiberParams.from_engineering(
            self.alpha0_db_per_km, self.beta2_ps2_per_km, self.gamma_per_w_km
        )

    def channels(self) -> BandSet:
        """The channel grid in rad/s, also the filter: interval k is channel k."""
        w = self.width_ghz * GHZ
        if self.placement == "uniform":
            span = (self.span_w if self.span_w is not None else 23.0) * w
            if self.channel_count == 1:
                centers = [0.5 * w]
            else:
                step = (span - w) / (self.channel_count - 1)
                centers = [0.5 * w + i * step for i in range(self.channel_count)]
            return make_bandset([(c - 0.5 * w, c + 0.5 * w) for c in centers])
        if self.placement == "sidon":
            seq = sidon_for_channels(self.channel_count)
        else:
            seq = SidonSequence(tuple(self.sequence))
        return make_bandset(plan_channels(seq, w).intervals())

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


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    cp["fiber"] = {
        "alpha0_db_per_km": _fmt(cfg.alpha0_db_per_km),
        "beta2_ps2_per_km": _fmt(cfg.beta2_ps2_per_km),
        "gamma_per_w_km": _fmt(cfg.gamma_per_w_km),
    }
    cp["grid"] = {"n": _fmt(cfg.n), "dt_ps": _fmt(cfg.dt_ps), "t0_ns": _fmt(cfg.t0_ns)}
    channels = {
        "count": _fmt(cfg.channel_count),
        "width_ghz": _fmt(cfg.width_ghz),
        "placement": cfg.placement,
    }
    if cfg.sequence is not None:
        channels["sequence"] = _fmt(cfg.sequence)
    if cfg.span_w is not None:
        channels["span_w"] = _fmt(cfg.span_w)
    cp["channels"] = channels
    pulses = {"rolloff": _fmt(cfg.rolloff)}
    if cfg.energies_pj is not None:
        pulses["energies_pj"] = _fmt(cfg.energies_pj)
    if cfg.phases_rad is not None:
        pulses["phases_rad"] = _fmt(cfg.phases_rad)
    cp["pulses"] = pulses
    run = {
        "z_total_km": _fmt(cfg.z_total_km),
        "dz_km": _fmt(cfg.dz_km),
        "filter": cfg.filter,
        "record_every_km": _fmt(cfg.record_every_km),
        "seed": _fmt(cfg.seed),
    }
    if cfg.filter_spacing_km is not None:
        run["filter_spacing_km"] = _fmt(cfg.filter_spacing_km)
    cp["run"] = run
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    # no header can name the default section "", so [DEFAULT] is an ordinary,
    # unknown section rather than keys copied into every section
    cp = configparser.ConfigParser(default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    read = {}  # section -> the keys read from it

    def get(section, key, cast, default=None):
        read.setdefault(section, set()).add(key)
        if not cp.has_option(section, key):
            if default is not None:
                return default
            raise ConfigError(f"{section}.{key}: missing")
        raw = cp.get(section, key).strip()
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc

    def opt(section, key, cast):
        if not cp.has_option(section, key):
            return None
        return get(section, key, cast)

    floats = lambda raw: tuple(float(x) for x in raw.split())
    ints = lambda raw: tuple(int(x) for x in raw.split())

    values = dict(
        alpha0_db_per_km=get("fiber", "alpha0_db_per_km", float, 0.0),
        beta2_ps2_per_km=get("fiber", "beta2_ps2_per_km", float, -21.667),
        gamma_per_w_km=get("fiber", "gamma_per_w_km", float, 1.2578),
        n=get("grid", "n", int),
        dt_ps=get("grid", "dt_ps", float),
        t0_ns=get("grid", "t0_ns", float),
        channel_count=get("channels", "count", int),
        width_ghz=get("channels", "width_ghz", float),
        placement=get("channels", "placement", str),
        sequence=opt("channels", "sequence", ints),
        span_w=opt("channels", "span_w", float),
        rolloff=get("pulses", "rolloff", float, 0.15),
        energies_pj=opt("pulses", "energies_pj", floats),
        phases_rad=opt("pulses", "phases_rad", floats),
        z_total_km=get("run", "z_total_km", float),
        dz_km=get("run", "dz_km", float),
        filter=get("run", "filter", str),
        filter_spacing_km=opt("run", "filter_spacing_km", float),
        record_every_km=get("run", "record_every_km", float),
        seed=get("run", "seed", int, 0),
    )
    for section in cp.sections():
        if section not in read:
            raise ConfigError(f"{section}: unknown section")
        for key in cp.options(section):
            if key not in read[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    return ExperimentConfig(**values)
