"""Independent references the suite checks the program against.

None of these is called by the program; each computes a quantity the
program also produces, by a route that shares no stepping code with it:

- `band_mask` and `band_energy`: a channel's bins as a bool row per
  interval, and the energy of the bins a row selects, against
  `fields.bin_ranges` and the per-channel energies `propagate` records;
- `channel_energy_rhs`: dE_n/dz of one channel from the spectral mixing
  integral, against the slope of a propagated per-channel trace;
- `integrate_tones`: the three-tone coupled-mode model under fixed-step
  RK4, checked by criterion 7's conservation and power-law checks and,
  in `test_crossval.py`, against the split-step propagator launched
  with three CW tones;
- `power_rhs`: the three-tone power laws, against the coupled-mode
  integrator's trajectory;
- `is_sidon`: distinct pairwise sums by integer enumeration, against
  the planner's constructions and grid certificates;
- `gap_floor`: the search's gap-sum floor one clear bit at a time,
  against the planner's byte-table floor;
- `search_length`: the pinned Sidon search testing every candidate mark
  with two shift-register tests, against the planner's search, which
  reads a node's children off one register;
- `rk4ip`: a projected RK4IP stepper (interaction-picture fourth-order
  Runge-Kutta; Hult, J. Lightwave Technol. 25(12), 2007), against the
  split step's per-channel drift under distributed filtering.

pytest does not collect this module; the test modules import from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fiberband.bands import BandSet, OverlappingIntervals
from fiberband.fields import (
    EDGE_TOL,
    BandOutOfRange,
    SampledField,
    Spectrum,
    _bin_spacing,
    bin_omegas,
    transform,
)
from fiberband.planner import NotIncreasing
from fiberband.propagation import FiberParams, step_count


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
    energy_n = Spectrum(q_chan, s.dt).energy()
    return -alpha0 * energy_n - gamma / (4.0 * np.pi**3) * float(np.imag(integral))


# The three-tone coupled-mode model. Three tones at angular offsets
# -domega, 0, +domega interact through the Kerr term: self- and cross-phase
# modulation rotate phases only, while the single degenerate mixing process
# 2*w2 -> w1 + w3 exchanges power. Amplitudes are in sqrt(W). The equations
# integrate the closed three-tone truncation; products at +-2*domega and
# beyond are dropped, so the model is an oracle for the full-field
# propagator only over distances where those products stay negligible.
# `_rhs` is the unique SPM/XPM/mixing form consistent with `power_rhs`'s
# laws; each tone also carries the linear phase j*(beta2/2)*w_n^2 from the
# dispersion operator.


class TonesNotFinite(ValueError):
    """A trajectory whose tone powers left the floats; z (m) is the first
    state where they did."""

    def __init__(self, z: float):
        super().__init__(f"the tone powers stop being finite at z = {z!r} m")
        self.z = z


@dataclass(frozen=True)
class ToneState:
    """Complex tone amplitudes (sqrt(W)), spacing domega (rad/s), z (m)."""

    q1: complex
    q2: complex
    q3: complex
    domega: float
    z: float = 0.0

    def powers(self) -> tuple[float, float, float]:
        return (abs(self.q1) ** 2, abs(self.q2) ** 2, abs(self.q3) ** 2)

    def amplitudes(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3], dtype=complex)


def _rhs(q: np.ndarray, disp: complex, gamma: float) -> np.ndarray:
    """dq/dz; disp = 0.5j*beta2*domega**2 is the outer tones' dispersion factor."""
    q1, q2, q3 = q
    p1, p2, p3 = abs(q1) ** 2, abs(q2) ** 2, abs(q3) ** 2
    d1 = disp * q1 + 1j * gamma * ((p1 + 2 * (p2 + p3)) * q1 + q2 * q2 * np.conj(q3))
    d2 = 1j * gamma * ((p2 + 2 * (p1 + p3)) * q2 + 2 * q1 * np.conj(q2) * q3)
    d3 = disp * q3 + 1j * gamma * ((p3 + 2 * (p1 + p2)) * q3 + q2 * q2 * np.conj(q1))
    return np.array([d1, d2, d3])


def integrate_tones(
    state0: ToneState, z_total: float, dz: float, params
) -> list[ToneState]:
    """Fixed-step fourth-order Runge-Kutta trajectory, sampled every dz.

    State k sits at state0.z + k*dz. dz should stay well below the
    fastest phase-rotation period (set by gamma*P and beta2*domega^2);
    the drift of total power is a built-in quality check and stays near
    rounding level when it does. The exact flow conserves total power,
    so a step far too long for those rates can only overflow: the first
    state whose powers are not finite raises TonesNotFinite. A spacing
    whose dispersion factor 0.5j*beta2*domega**2 is not finite raises
    ValueError before the first step.
    """
    if not (0 < dz < math.inf and 0 <= z_total < math.inf):
        raise ValueError(f"need finite dz > 0 and z_total >= 0, got {dz} and {z_total}")
    steps = step_count(z_total, dz)
    if steps is None:
        raise ValueError(f"dz = {dz} does not divide z_total = {z_total}")
    beta2, gamma, domega = params.beta2, params.gamma, state0.domega
    q = state0.amplitudes()
    out = [state0]
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report it
        try:
            disp = 0.5j * beta2 * domega**2
        except OverflowError:  # a float spacing whose square leaves the floats
            disp = math.inf
        if not (math.isfinite(domega) and np.isfinite(disp)):
            raise ValueError(f"domega = {domega!r} rad/s: the dispersion factor "
                             f"0.5j*beta2*domega**2 is not finite at beta2 = {beta2!r} s^2/m")
        for k in range(1, steps + 1):
            k1 = _rhs(q, disp, gamma)
            k2 = _rhs(q + 0.5 * dz * k1, disp, gamma)
            k3 = _rhs(q + 0.5 * dz * k2, disp, gamma)
            k4 = _rhs(q + dz * k3, disp, gamma)
            q = q + (dz / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            z = state0.z + k * dz
            if not np.isfinite(np.sum(np.abs(q) ** 2)):
                raise TonesNotFinite(z)
            out.append(ToneState(complex(q[0]), complex(q[1]), complex(q[2]), domega, z))
    return out


def power_rhs(state: ToneState, gamma: float) -> tuple[float, float, float]:
    """dP_n/dz from the mixing term alone; sums to zero identically."""
    q1, q2, q3 = state.q1, state.q2, state.q3
    flow = gamma * np.imag(np.conj(q1) * q2 * q2 * np.conj(q3))
    return (-2.0 * flow, 4.0 * flow, -2.0 * flow)


def is_sidon(m) -> bool:
    """All pairwise sums m_i + m_j, i <= j, are distinct (integers).

    `m` must be nonempty, positive and strictly increasing, or
    NotIncreasing is raised, as for a channel plan's slots."""
    vals = tuple(m)
    if not vals or vals[0] <= 0 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise NotIncreasing(f"{vals} is not positive, strictly increasing and nonempty")
    if any(int(v) != v for v in vals):
        raise ValueError("integer Sidon check needs positive integers")
    sums = set()
    for i, a in enumerate(vals):
        for b in vals[i:]:
            if a + b in sums:
                return False
            sums.add(a + b)
    return True


def gap_floor(used: int, r: int) -> int:
    """Sum of the r smallest positive integers whose bit is clear in `used`."""
    used |= 1  # a gap is positive
    floor = 0
    for _ in range(r):
        low = ~used & (used + 1)  # lowest clear bit
        floor += low.bit_length() - 1
        used |= low
    return floor


def search_length(k: int, target: int, minspan: list) -> tuple | None:
    """Lexicographically first Sidon subset of {1..k} of size `target`.

    Same precondition, pinned end marks 1 and k, `minspan` ceiling and
    gap-sum floor (`gap_floor`) as the planner's `_search_length`, but
    every candidate c of a node is tested on its own: `back` has bit d
    set iff a mark sits d below the last mark, so c's differences to the
    marks below it are new = back << (c - last), and c is admissible iff
    new misses `diffs` and its far difference k - c misses `diffs | new`
    (Dollas, Rankin & McCracken 1998)."""

    def span_floor(m: int) -> int:
        if m < len(minspan):
            return minspan[m]
        return m * (m - 1) // 2

    if k - 1 < span_floor(target):
        return None
    ceiling = [k - span_floor(target - d) for d in range(target - 1)]

    def dfs(depth: int, last: int, back: int, diffs: int) -> tuple | None:
        if depth == target - 1:
            return last, back
        top = ceiling[depth]
        if depth < target - 2:  # the child is no leaf: r >= 2 gaps follow it
            top = min(top, k - gap_floor(diffs, target - depth - 1))
        new = back
        for c in range(last + 1, top + 1):
            new <<= 1  # back << (c - last)
            if not new & diffs:
                far = 1 << (k - c)
                if not far & (diffs | new):
                    hit = dfs(depth + 1, c, new | 1, diffs | new | far)
                    if hit:
                        return hit
        return None

    hit = dfs(1, 1, 1, 1 << (k - 1))
    if hit is None:
        return None
    last, back = hit
    return tuple(last - d for d in range(last, -1, -1) if back >> d & 1) + (k,)


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
