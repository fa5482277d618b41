"""The paper's per-channel claim under distributed brick-wall filtering.

The paper claims that a brick-wall profile on an energy-decoupled grid
conserves each channel's energy. That is a statement about the dz -> 0
limit of distributed filtering, so it is checked here on the split step
at two step sizes over the bundled grids:

- sidon5 (energy-decoupled) drifts per channel by an amount that halves
  with dz: the first-order leak of the Lie splitting, going to zero;
- uniform5 (coupled) drifts by about 12 % of a channel at both steps:
  the channels trade energy through four-wave mixing, whatever dz.

Measured on the bundled launches, 40 km with records every 5 km: sidon5
1.621e-4 at 100 m and 8.10e-5 at 50 m (ratio 0.4998); uniform5 0.12412
and 0.12367. The thresholds below leave margins around these and are
contracts. A higher-order oracle that resolves the limit below the
split step's leak can extend this module.
"""

from dataclasses import replace

import pytest

from fiberband.cli import resolve_config
from fiberband.propagation import propagate

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
