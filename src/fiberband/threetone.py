"""Coupled-mode reference for three equally spaced spectral tones.

Three tones at angular offsets -domega, 0, +domega interact through the
Kerr term: self- and cross-phase modulation rotate phases only, while
the single degenerate mixing process 2*w2 -> w1 + w3 exchanges power.
Amplitudes are in sqrt(W). The equations integrate the closed three-tone
truncation; products at +-2*domega and beyond are dropped, so the model
is an oracle for the full-field propagator only over distances where
those higher-order products stay negligible.

The per-tone power laws are

    dP1/dz = -2*gamma*Im{Q1* Q2^2 Q3*}
    dP2/dz = -4*gamma*Im{Q1 Q2*^2 Q3}
    dP3/dz = dP1/dz

whose sum vanishes identically. The amplitude equations below are the
unique SPM/XPM/mixing form consistent with those laws; each tone also
carries the linear phase j*(beta2/2)*w_n^2 from the dispersion operator.
The laws themselves are written out once more among the test suite's
oracles (`tests/oracles.py`), which check the integrated trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagation import step_count


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


def _rhs(q: np.ndarray, domega: float, beta2: float, gamma: float) -> np.ndarray:
    q1, q2, q3 = q
    p1, p2, p3 = abs(q1) ** 2, abs(q2) ** 2, abs(q3) ** 2
    disp = 0.5j * beta2 * domega**2
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
    state whose powers are not finite raises TonesNotFinite.
    """
    if not (0 < dz < math.inf and 0 <= z_total < math.inf):
        raise ValueError(f"need finite dz > 0 and z_total >= 0, got {dz} and {z_total}")
    steps = step_count(z_total, dz)
    if steps is None:
        raise ValueError(f"dz = {dz} does not divide z_total = {z_total}")
    beta2, gamma = params.beta2, params.gamma
    q = state0.amplitudes()
    out = [state0]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for k in range(1, steps + 1):
            k1 = _rhs(q, state0.domega, beta2, gamma)
            k2 = _rhs(q + 0.5 * dz * k1, state0.domega, beta2, gamma)
            k3 = _rhs(q + 0.5 * dz * k2, state0.domega, beta2, gamma)
            k4 = _rhs(q + dz * k3, state0.domega, beta2, gamma)
            q = q + (dz / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            z = state0.z + k * dz
            if not np.isfinite(np.sum(np.abs(q) ** 2)):
                raise TonesNotFinite(z)
            out.append(ToneState(complex(q[0]), complex(q[1]), complex(q[2]), state0.domega, z))
    return out
