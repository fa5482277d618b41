"""Sampled complex fields, spectra, channel bin ranges and launch pulses.

Conventions
-----------
A field is its samples and dt: q(t) on the one time grid, centred on
t = 0, t_i = (i - n//2)*dt for i = 0..n-1 with n a power of two.
Amplitudes are in sqrt(W), so sum(|q|^2)*dt is an energy in J.

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
the bin grid, `bin_ranges` each channel's bins as one range k_lo..k_hi
of signed integer frequencies with the one window check and the
one-bin-one-channel check, and `rrc_on_bins` the one rule for a channel
that can carry a pulse. Brick-wall filtering is a propagator step.
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

    samples : complex amplitudes in sqrt(W), sample i at t = (i - n//2)*dt
    dt      : sample spacing in s
    """

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128)
        _check_pow2(arr.size)
        if not np.all(np.isfinite(arr)):
            raise FieldError("samples must be finite")
        if not 0 < self.dt < np.inf:
            raise FieldError(f"dt = {self.dt} must be finite and positive")
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


def _window_start(n: int, dt: float) -> float:
    return -(n // 2) * dt  # the time of sample 0, on the window centred on t = 0


def transform(f: SampledField) -> Spectrum:
    """Forward transform, the dt-scaled DFT phased to the time origin."""
    omegas = bin_omegas(f.n, f.dt)
    coeff = f.dt * np.exp(-1j * omegas * _window_start(f.n, f.dt)) * np.fft.fft(f.samples)
    return Spectrum(coeff, f.dt)


def inverse(s: Spectrum) -> SampledField:
    """Inverse transform; exact round trip with `transform`."""
    dt = s.dt
    q = np.fft.ifft(s.coefficients * np.exp(1j * s.omegas() * _window_start(s.n, dt))) / dt
    return SampledField(q, dt)


def bin_ranges(n: int, dt: float, band: BandSet) -> list[tuple[int, int]]:
    """Each interval's bins as (k_lo, k_hi), the signed integer
    frequencies of its lowest and highest bin; k_hi = k_lo - 1 when the
    interval holds none. Bin k sits at k*domega, at index k % n of an
    FFT-order spectrum, and lies in a closed interval when its center
    is within EDGE_TOL of a bin spacing of it. Two intervals that share
    a bin raise OverlappingIntervals naming the lowest such pair. The
    grid represents [-(n//2)*domega, (n//2)*domega); a band reaching
    outside it raises BandOutOfRange.
    """
    domega = _bin_spacing(n, dt)
    half_span = (n // 2) * domega
    if band.lo < -half_span or band.hi >= half_span:
        raise BandOutOfRange(f"band [{band.lo:g}, {band.hi:g}] exceeds represented "
                             f"[-{half_span:g}, {half_span:g}) rad/s")
    tol = EDGE_TOL * domega
    lo, hi = np.array(band.intervals).T
    # the centers of `bin_omegas`, sorted: bin k is in when lo - tol <= center <= hi + tol
    centers = np.arange(-(n // 2), n // 2) * domega
    k_lo = np.searchsorted(centers, lo - tol) - n // 2
    k_hi = np.searchsorted(centers, hi + tol, side="right") - 1 - n // 2
    # the ranges are sorted, so a shared bin is shared by two neighbours
    if (shared := np.flatnonzero(k_lo[1:] <= k_hi[:-1])).size:
        raise OverlappingIntervals(*band.intervals[shared[0] : shared[0] + 2])
    return list(zip(k_lo.tolist(), k_hi.tolist()))


def rrc_on_bins(
    channel: tuple[float, float], rolloff: float, bins: tuple[int, int], n: int, dt: float
) -> np.ndarray:
    """Root raised cosine |H| of `channel`'s pulse on its `bin_ranges`
    bins k_lo..k_hi, at the offsets k*domega - center from its center.

    The pulse occupies the channel's width W = hi - lo (rad/s), so the
    symbol period is T = 2*pi*(1+rolloff)/W and the response is the
    square root of the standard raised-cosine taper: flat at sqrt(T) out
    to (1-rolloff)/(2T) Hz, a cosine quarter-wave to exactly zero at
    (1+rolloff)/(2T) Hz, the channel edge. The one rule for a channel
    that can carry a pulse, by bin position: GridTooCoarse unless a bin
    lies more than EDGE_TOL of a bin spacing inside both of its edges.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise FieldError(f"rolloff {rolloff} outside [0, 1]")
    (lo, hi), (k_lo, k_hi) = channel, bins
    domega = _bin_spacing(n, dt)
    omegas = np.arange(k_lo, k_hi + 1) * domega  # the centers `bin_ranges` compares
    tol = EDGE_TOL * domega
    if not np.any((omegas > lo + tol) & (omegas < hi - tol)):
        raise GridTooCoarse(f"no bin lies inside the edges of its {hi - lo:g} rad/s support")
    T = 2.0 * np.pi * (1.0 + rolloff) / (hi - lo)
    f = np.abs(omegas - 0.5 * (lo + hi)) / (2.0 * np.pi)
    f_flat = (1.0 - rolloff) / (2.0 * T)
    f_stop = (1.0 + rolloff) / (2.0 * T)
    amp = np.zeros_like(f)
    amp[f <= f_flat] = np.sqrt(T)
    if rolloff > 0.0:
        taper = (f > f_flat) & (f <= f_stop)
        amp[taper] = np.sqrt(T) * np.cos(np.pi * T / (2.0 * rolloff) * (f[taper] - f_flat))
    return amp


def rrc_pulse(
    channel: tuple[float, float], rolloff: float, energy: float, phase: float, dt: float, n: int
) -> SampledField:
    """Band-limited root-raised-cosine launch pulse for one channel.

    channel : (lo, hi) in rad/s, one interval of a channel grid; the
              pulse is centered on it and its two-sided bandwidth is
              hi - lo, so the channel is the pulse support
    energy  : band energy of the result in J (exact by construction)
    phase   : complex phase of the pulse peak in rad

    The pulse is synthesized directly in the frequency domain, so its
    spectrum is identically zero outside the channel. The pulse peak
    sits at t = 0, sample n//2. Raises BandOutOfRange when
    the channel leaves the window `bin_ranges` represents, GridTooCoarse
    by the rule of `rrc_on_bins`, and FieldError naming energy or phase
    when energy is negative or either is not finite.
    """
    if not 0 <= energy < np.inf:
        raise FieldError(f"energy = {energy} must be finite and nonnegative")
    if not np.isfinite(phase):
        raise FieldError(f"phase = {phase} must be finite")
    _check_pow2(n)
    # the window check and the support; raises BandOutOfRange
    ((k_lo, k_hi),) = bin_ranges(n, dt, make_bandset([channel]))
    amp = np.zeros(n)
    # a negative frequency k indexes from the end: index k % n, FFT order
    amp[np.arange(k_lo, k_hi + 1)] = rrc_on_bins(channel, rolloff, (k_lo, k_hi), n, dt)
    raw = np.sum(amp**2) * _bin_spacing(n, dt) / (2.0 * np.pi)
    return inverse(Spectrum(np.sqrt(energy / raw) * np.exp(1j * phase) * amp, dt))


def parseval_residual(f: SampledField) -> float:
    """Relative disagreement between time- and frequency-domain energy."""
    et = f.energy()
    ef = transform(f).energy()
    if et == 0.0 and ef == 0.0:
        return 0.0
    return abs(et - ef) / max(et, ef)
