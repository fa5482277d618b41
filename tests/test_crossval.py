"""Cross-checks between independent implementations.

The three-tone coupled-mode integrator and the split-step propagator
share no code beyond the parameter container: one runs Runge-Kutta on
three complex ODEs, the other runs FFT cycles on a sampled field.
Launching three CW tones on exact grid bins makes them comparable.
Likewise `oracles.channel_energy_rhs` (a frequency-domain mixing integral) is
checked against finite differences of a propagated energy trace.
"""

from dataclasses import replace

import numpy as np
import pytest

from fiberband.bands import make_bandset
from fiberband.cli import resolve_config
from fiberband.fields import SampledField
from fiberband.propagation import FilterMode, propagate

from oracles import ToneState, channel_energy_rhs, integrate_tones

PARAMS = resolve_config("sidon5").fiber()


def test_three_tone_model_matches_full_propagator():
    # CW tones on exact FFT bins are periodic, so the split-step run has
    # no windowing artifacts. Watt-level powers over 100 m give a ~20
    # percent power exchange while products at +-2*spacing stay small;
    # the truncated model is expected to track within a tenth of the
    # exchange (measured: 6.7 percent of it).
    n, dt = 512, 0.5e-12
    domega = 2 * np.pi / (n * dt)
    spacing = 32 * domega
    amps = (0.7 * np.exp(0.3j), 1.0 + 0.0j, 0.6 * np.exp(-1.2j))

    t = dt * (np.arange(n) - n // 2)  # the window centred on t = 0
    q = sum(a * np.exp(1j * m * spacing * t) for a, m in zip(amps, (-1, 0, 1)))
    field = SampledField(np.asarray(q, dtype=complex), dt)
    chans = make_bandset(
        [(m * spacing - 8 * domega, m * spacing + 8 * domega) for m in (-1, 0, 1)]
    )

    z, dz = 100.0, 1.0
    _, trace = propagate(field, z, dz, PARAMS, FilterMode("none"), chans, z)
    window = n * dt  # CW power = channel energy / time window
    p_launch = np.asarray(trace.per_channel[0]) / window
    p_full = np.asarray(trace.per_channel[-1]) / window

    traj = integrate_tones(ToneState(*amps, spacing), z, dz, PARAMS)
    p_model = np.asarray(traj[-1].powers())

    assert p_launch == pytest.approx([abs(a) ** 2 for a in amps], rel=1e-12)
    # unfiltered lossless run conserves total field energy exactly
    assert trace.total[-1] == pytest.approx(trace.total[0], rel=1e-12)

    exchange = np.max(np.abs(p_full - p_launch))
    assert exchange > 0.1  # the comparison must exercise real mixing
    mismatch = np.max(np.abs(p_full - p_model))
    assert mismatch < 0.10 * exchange


def uniform_run(alpha0_db_per_km: float):
    """Central difference of per-channel energy about z0 = 1 km, and the
    mixing-integral prediction evaluated on the field at z0."""
    cfg = replace(resolve_config("uniform5"), alpha0_db_per_km=alpha0_db_per_km)
    launch = cfg.launch_field()
    chans = cfg.channels()
    params = cfg.fiber()
    mode = FilterMode("distributed")
    z0, h, dz = 1000.0, 100.0, 100.0

    f_mid, _ = propagate(launch, z0, dz, params, mode, chans, z0)
    _, trace = propagate(launch, z0 + h, dz, params, mode, chans, h)
    energy = np.asarray(trace.per_channel)  # one row per h of fiber
    fd = (energy[int((z0 + h) / h)] - energy[int((z0 - h) / h)]) / (2 * h)
    rhs = np.array(
        [
            channel_energy_rhs(f_mid, i, chans, params.gamma, params.alpha0)
            for i in range(len(chans.intervals))
        ]
    )
    return fd, rhs


def test_rhs_matches_trace_slope_on_uniform_grid():
    fd, rhs = uniform_run(0.0)
    scale = np.max(np.abs(fd))
    assert scale > 0
    # measured agreement 0.24 percent of scale; allow 1 percent
    assert np.all(np.abs(rhs - fd) < 1e-2 * scale)
    assert np.all(np.sign(rhs) == np.sign(fd))


def test_rhs_superposes_attenuation_and_mixing():
    fd, rhs = uniform_run(0.2)
    scale = np.max(np.abs(fd))
    assert np.all(rhs < 0)  # decay dominates every channel here
    assert np.all(np.abs(rhs - fd) < 1e-3 * scale)
