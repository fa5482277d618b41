"""Split-step integration of the NLSE with brick-wall band filtering.

The field obeys

    dq/dz = -(alpha/2) q - j (beta2/2) d^2q/dt^2 + j gamma |q|^2 q

with a frequency-dependent attenuation alpha(w) that equals alpha0
inside the channel grid and is effectively infinite outside it: the
brick-wall filter is the union of the channels, so the band the filter
passes is the band whose energy the trace books channel by channel.
One first-order step of size dz applies, in order: the time-domain Kerr
phase exp(j*gamma*dz*|q|^2); at a filter site, the brick-wall mask
(booking the energy of the out-of-band bins as "discarded", then
zeroing them); and one linear factor, the attenuation exp(-alpha0*dz/2)
times the dispersion phase exp(j*(beta2/2)*w^2*dz). Distributed
filtering masks every step, lumped filtering only at multiples of the
filter spacing, and unfiltered mode never masks; the linear factor
always applies, so discards are booked before attenuation.

The Kerr factor is formed as cos(phi) + j*sin(phi) of the real phase
phi = |q|^2 * (gamma*dz). The complex exp of j*phi has a real part of
exactly 0, so it returns those two values to the bit, and the cheaper
form keeps every trace bit-identical. `propagate` allocates, once per
call, a real buffer for |q| and the phase, a complex buffer whose real
and imaginary parts cos and sin write straight into, a spectrum buffer
the forward FFT writes into, and the working field, a copy of the
launch that the inverse FFT overwrites every step (`out=` in
`numpy.fft` needs numpy >= 2.0). The product keeps q as its first
operand: numpy's complex multiply is not bitwise commutative, and the
swapped order changes the last bit of some samples. A filter site
gathers the out-of-band bins by index, books their energy and zeroes
them in place; the gather is the one array a step allocates, because
numpy's indexing fast path copies them faster than `np.take` into a
preallocated buffer does.

The inverse FFT's 1/n rides in the linear factor too, which `propagate`
builds once per call as the dispersion phase divided by n, times the
attenuation, and the inverse runs unscaled (norm="forward"). The 1/n is
exact: `SampledField` holds only power-of-two n, and scaling by 2^-k
commutes with every rounding of the complex multiply and the FFT
butterflies, barring subnormals. In a lossless run the attenuation is
1.0, so the factor is the dispersion phase divided by n to the bit.

`propagate` drives `_step_kernel`, the only code that steps or filters
a field; a single filtered step is `propagate` with z_total = dz =
record_every and a distributed filter mode. Both work on the grid of
`fields.bin_omegas` and the channel rows of one `fields.band_mask` call,
which are in the FFT order of `numpy.fft`, as given: the filter is the
union of the rows the trace books, and every band energy recorded here
is `fields.band_energy`.
The trace's total is the full-spectrum energy at every record, in every
filter mode: the sum over all bins, in band or not.

All quantities are SI: m, s, rad/s, W, J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandSet
from .fields import SampledField, band_energy, band_mask, bin_omegas

LN10 = float(np.log(10.0))
FILTERS = ("distributed", "lumped", "none")  # FilterMode kinds; config checks run.filter too


class InvalidStepPartition(ValueError):
    pass


@dataclass(frozen=True)
class FiberParams:
    """alpha0 in 1/m, beta2 in s^2/m, gamma in 1/(W*m)."""

    alpha0: float = 0.0
    beta2: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha0", "beta2", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
        if self.alpha0 < 0:
            raise ValueError("alpha0 must be nonnegative")

    @classmethod
    def from_engineering(
        cls,
        alpha0_db_per_km: float = 0.0,
        beta2_ps2_per_km: float = 0.0,
        gamma_per_w_km: float = 0.0,
    ) -> "FiberParams":
        """Convert the usual fiber datasheet units to SI."""
        return cls(
            alpha0=alpha0_db_per_km * LN10 / 10.0 / 1e3,
            beta2=beta2_ps2_per_km * 1e-27,
            gamma=gamma_per_w_km * 1e-3,
        )


@dataclass(frozen=True)
class FilterMode:
    """Where along z the brick-wall filter applies.

    The filter is the channel grid handed to `propagate`: it passes
    exactly the channels. kind is "distributed" (every step), "lumped"
    (every `spacing` meters), or "none" (never; attenuation only).
    """

    kind: str
    spacing: float | None = None

    def __post_init__(self):
        if self.kind not in FILTERS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "lumped" and not (self.spacing and self.spacing > 0):
            raise ValueError("lumped filtering needs a positive spacing")


@dataclass(frozen=True)
class EnergyTrace:
    """Energies recorded along z; the quantities a WDM link budget tracks.

    z                    : record distances in m, starting at 0
    total                : full-spectrum field energy in J at each record,
                           summed over every bin, in band or not
    per_channel          : (len(z), n_channels) in-band energies in J
    discarded_cumulative : running total of energy removed by masks in J
    """

    z: np.ndarray
    total: np.ndarray
    per_channel: np.ndarray
    discarded_cumulative: np.ndarray

    @property
    def n_channels(self) -> int:
        return self.per_channel.shape[1]

    def total_loss_fraction(self) -> float:
        return 1.0 - float(self.total[-1] / self.total[0]) if self.total[0] else 0.0

    def max_channel_deviation(self) -> float:
        """Largest |E_n(z) - E_n(0)| / E_n(0) over channels and records."""
        launch = self.per_channel[0]
        live = launch > 0
        if not np.any(live):
            return 0.0
        dev = np.abs(self.per_channel[:, live] - launch[live]) / launch[live]
        return float(np.max(dev))


def step_count(span: float, dz: float) -> int | None:
    """The number of steps of size dz that make up span, or None if dz
    is not positive or does not divide span to within 1e-9 of span.

    This is the one divisibility rule for step partitions: `propagate`,
    `ExperimentConfig.validate` and the three-tone integrator apply it.
    """
    if not dz > 0:
        return None
    ratio = span / dz
    if not math.isfinite(ratio):
        return None
    steps = int(round(ratio))
    return steps if abs(steps * dz - span) <= 1e-9 * span else None


def _step_kernel(q, gdz, linear, oob, phi, kerr, spec):
    """One split step on a raw sample array, in place; returns (q, discarded).

    gdz is gamma*dz. The Kerr factor is cos(phi) + j*sin(phi) with the
    real phase phi = |q|^2 * gdz, bit for bit what exp(1j*gdz*|q|^2)
    returns, since that argument has a real part of exactly 0. phi (real)
    and kerr, spec (complex) are scratch buffers of q's size: cos and sin
    are written into kerr's real and imaginary parts in place, q times
    kerr overwrites kerr, and its FFT is written into spec. q stays the
    first operand of the product, because numpy's complex multiply is not
    bitwise commutative. oob indexes the out-of-band bins of a filter
    site (None elsewhere): their energy is booked, then they are zeroed,
    both before the linear factor attenuates the spectrum. linear is the
    step's one spectral factor: the dispersion phase times the
    attenuation, divided by n for the inverse FFT, which therefore runs
    unscaled; for a power-of-two n that gives the default ifft to the bit,
    barring subnormals. The inverse FFT overwrites q, which is returned.
    """
    np.abs(q, out=phi)
    phi *= phi
    phi *= gdz
    np.cos(phi, out=kerr.real)
    np.sin(phi, out=kerr.imag)
    np.fft.fft(np.multiply(q, kerr, out=kerr), out=spec)
    discarded = 0.0
    if oob is not None:
        out = spec[oob]
        discarded = float(np.vdot(out, out).real)
        spec[oob] = 0
    spec *= linear
    return np.fft.ifft(spec, norm="forward", out=q), discarded


def propagate(
    f0: SampledField,
    z_total: float,
    dz: float,
    params: FiberParams,
    mode: FilterMode,
    channels: BandSet,
    record_every: float,
) -> tuple[SampledField, EnergyTrace]:
    """Propagate over z_total, recording an EnergyTrace.

    channels is the channel grid: its intervals, in frequency order, are
    the channels of the trace, and the union of their `band_mask` rows is
    the filter; channels that share a bin raise OverlappingIntervals.
    `mode` is one stride of steps between filter sites: 1 distributed,
    spacing / dz lumped, 0 (never) unfiltered. dz must be positive and
    divide z_total, record_every and (in lumped mode) the filter spacing,
    and those spans must be finite; violations raise
    InvalidStepPartition. Records happen at z = 0, every record_every,
    and at z_total.
    """
    if not dz > 0:
        raise InvalidStepPartition(f"dz = {dz} must be positive")

    def stride(span: float, what: str) -> int:
        if not math.isfinite(span):
            raise InvalidStepPartition(f"{what} = {span} is not finite")
        s = step_count(span, dz)
        if s is None or s < 1:
            raise InvalidStepPartition(f"dz = {dz} does not divide {what} = {span}")
        return s

    steps = stride(z_total, "z_total")
    rec_stride = stride(record_every, "record_every")
    filt_stride = int(mode.kind == "distributed")  # 0 never filters
    if mode.kind == "lumped":
        filt_stride = stride(mode.spacing, "filter spacing")
    n, dt, t0 = f0.n, f0.dt, f0.t0

    channel_masks = band_mask(n, dt, channels)
    scale = dt / n  # |FFT(q)|^2 summed equals n * sum|q|^2; scale restores joules

    omegas = bin_omegas(n, dt)
    decay = float(np.exp(-0.5 * params.alpha0 * dz))
    # dispersion, the ifft's 1/n and attenuation; x / n * 1.0 is x / n to the bit
    linear = np.exp(0.5j * params.beta2 * dz * omegas**2) / n * decay
    gdz = params.gamma * dz
    oob = np.flatnonzero(~channel_masks.any(axis=0))  # the bins the filter stops

    rows = []

    def record(step_idx: int, q: np.ndarray, discarded_so_far: float) -> None:
        spec = np.fft.fft(q)
        power = np.abs(spec) ** 2
        total = float(np.sum(power)) * scale
        chans = [band_energy(power, m, dt) for m in channel_masks]
        rows.append((step_idx * dz, total, *chans, discarded_so_far))

    # the kernel's scratch, and its working field: the launch is read-only
    phi, kerr, spec = np.empty(n), np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    q = f0.samples.copy()
    discarded_total = 0.0
    record(0, q, 0.0)
    for s in range(1, steps + 1):
        filtered = filt_stride and s % filt_stride == 0
        q, d = _step_kernel(q, gdz, linear, oob if filtered else None, phi, kerr, spec)
        discarded_total += d * scale
        if s % rec_stride == 0 or s == steps:
            record(s, q, discarded_total)

    cols = np.array(rows).T  # z, total, the channels, discarded
    return SampledField(q, dt, t0), EnergyTrace(cols[0], cols[1], cols[2:-1].T, cols[-1])

