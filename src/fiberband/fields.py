"""Sampled complex fields, spectra, band masks, band energies and launch pulses.

Conventions
-----------
A field q(t) is sampled on a uniform grid t_i = t0 + i*dt, i = 0..n-1,
with n a power of two. Amplitudes are in sqrt(W), so sum(|q|^2)*dt is an
energy in J.

Spectra are in numpy's FFT order, the package's only bin order: index
k holds the bin w_k = k*dw for k < n/2 and (k - n)*dw above, with
dw = 2*pi/(n*dt), so bin k of `np.fft.fft` is index k everywhere. The
forward transform approximates Q(w) = integral q(t) exp(-jwt) dt as dt
times the DFT on those bins. The inverse carries the 1/(2*pi), so the
continuous Parseval identity

    sum |q|^2 dt  =  (1/2*pi) sum |Q|^2 dw

holds exactly (not just to rounding over the analog limit: the discrete
identity is an algebraic consequence of the DFT). Band energies use the
right-hand side restricted to bins whose center frequency lies in the
band; a bin belongs to a closed interval if its center is within
EDGE_TOL of it, which absorbs last-ulp noise when channel edges are
constructed to land exactly on bin centers.

This module alone knows the spectral bookkeeping: `bin_omegas` builds
the bin grid, `band_mask` a mask row per channel and the one window
check, and `band_energy` the energy of masked bins. The propagator uses
them as they are; brick-wall filtering is a propagator step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import BandSet, OverlappingIntervals, make_bandset

# Fraction of a bin spacing by which closed-interval membership is
# widened. Must stay well below 1 so it can never capture a neighbour.
EDGE_TOL = 1e-9


class FieldError(ValueError):
    pass


class BandOutOfRange(FieldError):
    pass


class GridTooCoarse(FieldError):
    pass


def _check_pow2(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise FieldError(f"sample count {n} is not a power of two >= 2")


def _bin_spacing(n: int, dt: float) -> float:
    return 2.0 * np.pi / (n * dt)


def bin_omegas(n: int, dt: float) -> np.ndarray:
    """Bin center frequencies in FFT order: k*domega for the integer
    frequency k of index 0..n-1, that is 0, 1, .., then -(n//2), .., -1."""
    return ((np.arange(n) + n // 2) % n - n // 2) * _bin_spacing(n, dt)


@dataclass(frozen=True)
class SampledField:
    """Complex baseband field on a uniform time grid.

    samples : complex amplitudes in sqrt(W)
    dt      : sample spacing in s
    t0      : time of the first sample in s
    """

    samples: np.ndarray
    dt: float
    t0: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128)
        _check_pow2(arr.size)
        if not np.all(np.isfinite(arr)):
            raise FieldError("samples must be finite")
        if not 0 < self.dt < np.inf:
            raise FieldError(f"dt = {self.dt} must be finite and positive")
        if not np.isfinite(self.t0):
            raise FieldError(f"t0 = {self.t0} must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.size

    def energy(self) -> float:
        """Total energy in J, computed in the time domain."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt)


@dataclass(frozen=True)
class Spectrum:
    """Field spectrum on the bins of `bin_omegas`, in FFT order.

    Stores the dt of the sampled field, so a round trip through
    `inverse` gives back that dt exactly; 2*pi/(n*domega) is not always
    dt to the bit.
    """

    coefficients: np.ndarray
    dt: float
    t0: float

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=np.complex128)
        _check_pow2(arr.size)
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    @property
    def n(self) -> int:
        return self.coefficients.size

    @property
    def domega(self) -> float:
        return _bin_spacing(self.n, self.dt)

    def omegas(self) -> np.ndarray:
        return bin_omegas(self.n, self.dt)

    def energy(self) -> float:
        """Total energy in J, computed in the frequency domain."""
        return float(np.sum(np.abs(self.coefficients) ** 2) * self.domega / (2.0 * np.pi))


def transform(f: SampledField) -> Spectrum:
    """Forward transform, the dt-scaled DFT phased to the time origin."""
    omegas = bin_omegas(f.n, f.dt)
    coeff = f.dt * np.exp(-1j * omegas * f.t0) * np.fft.fft(f.samples)
    return Spectrum(coeff, f.dt, f.t0)


def inverse(s: Spectrum) -> SampledField:
    """Inverse transform; exact round trip with `transform`."""
    dt = s.dt
    q = np.fft.ifft(s.coefficients * np.exp(1j * s.omegas() * s.t0)) / dt
    return SampledField(q, dt, s.t0)


def band_mask(n: int, dt: float, band: BandSet) -> np.ndarray:
    """Bool rows, one per interval of `band`, in the FFT order of
    `bin_omegas(n, dt)`: row i masks the bins whose centers lie in
    closed interval i. A bin in two rows raises OverlappingIntervals
    naming both intervals. The grid represents
    [-(n//2)*domega, (n//2)*domega); a band reaching outside it raises
    BandOutOfRange.
    """
    domega = _bin_spacing(n, dt)
    half_span = (n // 2) * domega
    if band.lo < -half_span or band.hi >= half_span:
        raise BandOutOfRange(
            f"band [{band.lo:g}, {band.hi:g}] exceeds represented "
            f"[-{half_span:g}, {half_span:g}) rad/s"
        )
    tol = EDGE_TOL * domega
    lo, hi = np.array(band.intervals).T[:, :, None]  # columns against the bins
    omegas = bin_omegas(n, dt)
    rows = (omegas >= lo - tol) & (omegas <= hi + tol)
    if (count := rows.sum(axis=0)).max() > 1:  # a bin in two rows
        a, b = np.flatnonzero(rows[:, count.argmax()])[:2]
        raise OverlappingIntervals(band.intervals[a], band.intervals[b])
    return rows


def band_energy(power: np.ndarray, mask: np.ndarray, dt: float) -> float:
    """Energy in J of the bins `mask` selects from power = |fft(q)|^2.

    Both are in FFT order, as `band_mask`'s rows are.
    """
    return float(np.sum(power[mask])) * (dt / power.size)


def rrc_spectral_amplitude(offset: np.ndarray, bandwidth: float, rolloff: float) -> np.ndarray:
    """Root raised cosine |H(w)| at angular offsets from the carrier.

    The pulse occupies the two-sided bandwidth `bandwidth` (rad/s), so
    the symbol period is T = 2*pi*(1+rolloff)/bandwidth and the response
    is the square root of the standard raised-cosine taper: flat at
    sqrt(T) out to (1-rolloff)/(2T) Hz, a cosine quarter-wave to exactly
    zero at (1+rolloff)/(2T) Hz.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise FieldError(f"rolloff {rolloff} outside [0, 1]")
    T = 2.0 * np.pi * (1.0 + rolloff) / bandwidth
    f = np.abs(np.asarray(offset, dtype=float)) / (2.0 * np.pi)
    f_flat = (1.0 - rolloff) / (2.0 * T)
    f_stop = (1.0 + rolloff) / (2.0 * T)
    amp = np.zeros_like(f)
    amp[f <= f_flat] = np.sqrt(T)
    if rolloff > 0.0:
        taper = (f > f_flat) & (f <= f_stop)
        amp[taper] = np.sqrt(T) * np.cos(
            np.pi * T / (2.0 * rolloff) * (f[taper] - f_flat)
        )
    return amp


def rrc_pulse(
    channel: tuple[float, float],
    rolloff: float,
    energy: float,
    phase: float,
    dt: float,
    n: int,
    t0: float,
) -> SampledField:
    """Band-limited root-raised-cosine launch pulse for one channel.

    channel : (lo, hi) in rad/s, one interval of a channel grid; the
              pulse is centered on it and its two-sided bandwidth is
              hi - lo, so the channel is the pulse support
    energy  : band energy of the result in J (exact by construction)
    phase   : complex phase of the pulse peak in rad

    The pulse is synthesized directly in the frequency domain, so its
    spectrum is identically zero outside the channel. The pulse peak
    sits at the center of the time window. Raises BandOutOfRange when
    the channel leaves the window `band_mask` represents, GridTooCoarse
    when no bin falls inside the channel, and FieldError naming energy
    or phase when energy is negative or either is not finite.
    """
    if not 0 <= energy < np.inf:
        raise FieldError(f"energy = {energy} must be finite and nonnegative")
    if not np.isfinite(phase):
        raise FieldError(f"phase = {phase} must be finite")
    lo, hi = channel
    center, width = 0.5 * (lo + hi), hi - lo
    _check_pow2(n)
    # the window check and the support; raises BandOutOfRange
    (support,) = band_mask(n, dt, make_bandset([channel]))

    omegas = bin_omegas(n, dt)
    amp = np.zeros(n)
    amp[support] = rrc_spectral_amplitude(
        omegas[support] - center, width, rolloff
    )
    raw = np.sum(amp**2) * _bin_spacing(n, dt) / (2.0 * np.pi)
    if raw == 0.0:
        raise GridTooCoarse(
            f"no spectral bin falls inside the {width:g} rad/s pulse support"
        )
    t_center = t0 + (n // 2) * dt
    scale = np.sqrt(energy / raw)
    coeff = scale * np.exp(1j * phase) * amp * np.exp(-1j * omegas * t_center)
    return inverse(Spectrum(coeff, dt, t0))


def parseval_residual(f: SampledField) -> float:
    """Relative disagreement between time- and frequency-domain energy."""
    et = f.energy()
    ef = transform(f).energy()
    if et == 0.0 and ef == 0.0:
        return 0.0
    return abs(et - ef) / max(et, ef)
