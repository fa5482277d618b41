"""The paper's per-channel claim under distributed brick-wall filtering.

The paper claims that a brick-wall profile on an energy-decoupled grid
conserves each channel's energy. That is a statement about the dz -> 0
limit of distributed filtering, so it is checked here two ways over the
bundled grids.

The split step, at two step sizes:

- sidon5 (energy-decoupled) drifts per channel by an amount that halves
  with dz: the first-order leak of the Lie splitting, going to zero;
- uniform5 (coupled) drifts by about 12 % of a channel at both steps:
  the channels trade energy through four-wave mixing, whatever dz.

Measured on the bundled launches, 40 km with records every 5 km: sidon5
1.621e-4 at 100 m and 8.10e-5 at 50 m (ratio 0.4998); uniform5 0.12412
and 0.12367.

A projected RK4IP oracle (`oracles.rk4ip`: interaction-picture
fourth-order Runge-Kutta; Hult, J. Lightwave Technol. 25(12), 2007),
which resolves the limit below the split step's leak. It works on the
raw-order spectrum and applies the filter mask to the launch and to
each of its four nonlinear evaluations, so the field never leaves the
grid. It compares the end of a run with its launch, at steps of 4, 2
and 1 km:

- sidon5, 160 km: 7.4505e-6, 7.4550e-6 and 7.4552e-6, a floor. On bins,
  touching sum intervals share a bin: a channel holds both of its edge
  bins, so closed sidon5 has 8 colliding pairs of pairs on bins;
- sidon5, 160 km, every channel shrunk by half a bin at both edges so
  that the mask and the books drop the edge bins: 4.315e-9, 2.670e-10
  and 1.661e-11, 16x per halving, fourth order and going to zero;
- uniform5, 40 km: 0.10883 at all three steps.

The thresholds below leave margins around these and are contracts.
"""

from dataclasses import replace

import numpy as np
import pytest

from fiberband.bands import make_bandset
from fiberband.cli import resolve_config
from fiberband.fields import band_energy, band_mask, bin_omegas
from fiberband.propagation import propagate

from oracles import rk4ip

KM = 1e3
RUN_KM = 40.0
RECORD_KM = 5.0


def channel_deviation(name: str, dz_km: float) -> float:
    """Max per-channel deviation of a distributed-filter run of the bundled config."""
    cfg = replace(resolve_config(name), filter="distributed")
    _, trace = propagate(
        cfg.launch_field(),
        RUN_KM * KM,
        dz_km * KM,
        cfg.fiber(),
        cfg.filter_mode(),
        cfg.channels(),
        RECORD_KM * KM,
    )
    return trace.max_channel_deviation()


@pytest.fixture(scope="module")
def deviations() -> dict:
    return {
        (name, dz): channel_deviation(name, dz)
        for name in ("sidon5", "uniform5")
        for dz in (0.1, 0.05)
    }


def test_decoupled_grid_conserves_each_channel_in_the_limit(deviations):
    # first order in dz: halving the step halves the worst channel's drift
    coarse, fine = deviations["sidon5", 0.1], deviations["sidon5", 0.05]
    assert coarse < 2.5e-4
    assert 0.45 <= fine / coarse <= 0.55


def test_coupled_grid_trades_energy_at_every_step(deviations):
    # four-wave mixing moves energy between channels; a smaller step
    # does not make that go away
    coarse, fine = deviations["uniform5", 0.1], deviations["uniform5", 0.05]
    assert coarse > 0.10 and fine > 0.10
    assert abs(fine - coarse) < 0.01 * coarse


def rk4ip_deviation(name: str, z_km: float, h_km: float, shrink: bool = False) -> float:
    """Max per-channel end-vs-launch deviation of the projected RK4IP oracle.

    The bundled launch of `name` is masked to its grid, optionally with
    every channel shrunk by half a bin at both edges, and integrated
    over z_km in steps of h_km with distributed filtering.
    """
    cfg = resolve_config(name)
    launch, fiber, grid = cfg.launch_field(), cfg.fiber(), cfg.channels()
    assert fiber.alpha0 == 0.0  # the claim is conservation: a lossless link
    n, dt = launch.n, launch.dt
    if shrink:
        half = 0.5 * bin_omegas(n, dt)[1]  # half the bin spacing
        grid = make_bandset([(lo + half, hi - half) for lo, hi in grid.intervals])
    rows = band_mask(n, dt, grid)

    def energies(spec):
        power = np.abs(spec) ** 2
        return np.array([band_energy(power, row, dt) for row in rows])

    start, end = rk4ip(launch, rows.any(axis=0), fiber, h_km * KM, round(z_km / h_km))
    launched = energies(start)
    return float(np.max(np.abs(energies(end) - launched) / launched))


ORACLE_STEPS_KM = (4.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def oracle() -> dict:
    cases = {"sidon5": ("sidon5", 160.0, False), "shrunk": ("sidon5", 160.0, True),
             "uniform5": ("uniform5", RUN_KM, False)}
    return {
        key: [rk4ip_deviation(name, z_km, h, shrink) for h in ORACLE_STEPS_KM]
        for key, (name, z_km, shrink) in cases.items()
    }


def test_oracle_drift_goes_to_zero_off_the_shared_edge_bins(oracle):
    # fourth order: 16x per halving measured, 8x asserted; 1.66e-11 at 1 km
    devs = oracle["shrunk"]
    assert all(coarse >= 8.0 * fine for coarse, fine in zip(devs, devs[1:]))
    assert devs[-1] < 1e-10


def test_oracle_closed_decoupled_grid_stays_at_its_edge_bin_floor(oracle):
    # 7.455e-6 at every step: the channels' shared edge bins, not step error
    devs = oracle["sidon5"]
    floor = devs[-1]
    assert 5e-6 < floor < 1e-5
    assert all(abs(d - floor) < 0.01 * floor for d in devs)


def test_oracle_coupled_grid_trades_energy_at_every_step(oracle):
    # 10.88 % at every step: four-wave mixing, which no step size removes
    devs = oracle["uniform5"]
    assert all(d > 0.10 for d in devs)
    assert all(abs(d - devs[-1]) < 0.01 * devs[-1] for d in devs)
