"""Independent references the suite checks the program against.

None of these is called by the program; each computes a quantity the
program also produces, by a route that shares no stepping code with it:

- `channel_energy_rhs`: dE_n/dz of one channel from the spectral mixing
  integral, against the slope of a propagated per-channel trace;
- `power_rhs`: the three-tone power laws, against the coupled-mode
  integrator's trajectory;
- `is_sidon`: distinct pairwise sums by integer enumeration, against
  the planner's constructions and grid certificates;
- `rk4ip`: a projected RK4IP stepper (interaction-picture fourth-order
  Runge-Kutta; Hult, J. Lightwave Technol. 25(12), 2007), against the
  split step's per-channel drift under distributed filtering.

pytest does not collect this module; the test modules import from it.
"""

from __future__ import annotations

import numpy as np

from fiberband.bands import BandSet
from fiberband.fields import SampledField, Spectrum, band_mask, bin_omegas, transform
from fiberband.planner import SidonSequence
from fiberband.propagation import FiberParams
from fiberband.threetone import ToneState


def channel_energy_rhs(
    f: SampledField,
    n_channel: int,
    channels: BandSet,
    gamma: float,
    alpha0: float = 0.0,
) -> float:
    """Instantaneous dE_n/dz in J/m from the spectral mixing integral.

    Evaluates

        -alpha0*E_n - (gamma/4pi^3) * Im{ sum (Q conv Q) conj(Q_n conv Q) }

    with exact linear convolutions: each FFT-order spectrum is zero-padded
    to length 2n in the middle, where the bins wrap, so every bin keeps its
    signed frequency and no sum frequency aliases. The
    field is expected to be band-limited to the channel grid `channels`,
    whose interval n_channel (counted from 0), with the bins of its
    `band_mask` row, is channel n; out-of-band content contributes mixing
    paths the channel bookkeeping cannot attribute. Useful as an
    independent check on the slope of a propagated per-channel trace.
    An n_channel outside 0..len(channels.intervals) - 1 raises ValueError.
    """
    count = len(channels.intervals)
    if not 0 <= n_channel < count:
        raise ValueError(f"n_channel = {n_channel} is outside the channels 0..{count - 1}")
    s = transform(f)
    q_full = s.coefficients
    q_chan = np.where(band_mask(s.n, s.dt, channels)[n_channel], q_full, 0.0)
    dw = s.domega

    def padded_fft(q):
        return np.fft.fft(np.insert(q, s.n // 2, np.zeros(s.n)))

    full_f = padded_fft(q_full)
    conv_full = np.fft.ifft(full_f * full_f) * dw
    conv_chan = np.fft.ifft(padded_fft(q_chan) * full_f) * dw

    integral = np.sum(conv_full * np.conj(conv_chan)) * dw
    energy_n = Spectrum(q_chan, s.dt, s.t0).energy()
    return -alpha0 * energy_n - gamma / (4.0 * np.pi**3) * float(np.imag(integral))


def power_rhs(state: ToneState, gamma: float) -> tuple[float, float, float]:
    """dP_n/dz from the mixing term alone; sums to zero identically."""
    q1, q2, q3 = state.q1, state.q2, state.q3
    flow = gamma * np.imag(np.conj(q1) * q2 * q2 * np.conj(q3))
    return (-2.0 * flow, 4.0 * flow, -2.0 * flow)


def is_sidon(m) -> bool:
    """All pairwise sums m_i + m_j, i <= j, are distinct (integers)."""
    vals = SidonSequence(tuple(m)).values
    if any(int(v) != v for v in vals):
        raise ValueError("integer Sidon check needs positive integers")
    sums = set()
    for i, a in enumerate(vals):
        for b in vals[i:]:
            if a + b in sums:
                return False
            sums.add(a + b)
    return True


def rk4ip(
    launch: SampledField, keep: np.ndarray, fiber: FiberParams, h: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The projected launch spectrum and its spectrum after `steps` RK4IP steps.

    Both are in FFT order, as is keep, the filter (the union of the
    channels' `band_mask` rows): the launch and each of the four
    nonlinear evaluations of a step are masked with it, so the field never
    leaves the grid. Attenuation is not modelled: fiber.alpha0 is ignored.
    """
    omegas = bin_omegas(launch.n, launch.dt)
    half_step = np.exp(0.25j * fiber.beta2 * h * omegas**2)  # dispersion over h / 2

    def nonlinear(spec):
        q = np.fft.ifft(spec)
        return np.where(keep, np.fft.fft(1j * fiber.gamma * h * np.abs(q) ** 2 * q), 0.0)

    spec = start = np.where(keep, np.fft.fft(launch.samples), 0.0)
    for _ in range(steps):
        mid = half_step * spec
        k1 = half_step * nonlinear(spec)
        k2 = nonlinear(mid + k1 / 2)
        k3 = nonlinear(mid + k2 / 2)
        k4 = nonlinear(half_step * (mid + k3))
        spec = half_step * (mid + k1 / 6 + k2 / 3 + k3 / 3) + k4 / 6
    return start, spec
