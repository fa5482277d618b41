"""Three-tone coupled-mode reference model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberband.propagation import FiberParams
from fiberband.threetone import TonesNotFinite, ToneState, _rhs, integrate_tones

from oracles import power_rhs

PARAMS = FiberParams(beta2=-21.667e-27, gamma=1.2578e-3)
DOM = 2 * np.pi * 10e9


def state():
    # milliwatt-scale launch: the per-step phase rotation is then small
    # enough that RK4 error sits at rounding level over 100 km
    return ToneState(
        0.03 + 0j, 0.04 * np.exp(0.5j), 0.02 * np.exp(-1.1j), domega=DOM
    )


amplitudes = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@given(amplitudes, amplitudes, amplitudes)
def test_power_rhs_conserves_total(q1, q2, q3):
    s = ToneState(q1, q2, q3, domega=DOM)
    d1, d2, d3 = power_rhs(s, gamma=1.3e-3)
    assert d1 + d2 + d3 == 0.0  # -2f + 4f - 2f, exact in floats
    assert d1 == d3  # outer tones gain and lose together


def test_total_power_drift_is_tiny():
    traj = integrate_tones(state(), 100e3, 100.0, PARAMS)
    total0 = sum(traj[0].powers())
    drift = max(abs(sum(s.powers()) / total0 - 1.0) for s in traj)
    assert drift < 1e-12
    assert len(traj) == 1001


# 0.1 m summed ten times is 0.9999999999999999, not 1.0
@pytest.mark.parametrize("z_total, dz", [(100e3, 100.0), (1.0, 0.1), (10.0, 0.01)])
def test_states_sit_at_whole_steps(z_total, dz):
    traj = integrate_tones(state(), z_total, dz, PARAMS)
    assert [s.z for s in traj] == [k * dz for k in range(len(traj))]
    assert traj[-1].z == z_total


def test_powers_leaving_the_floats_raise_at_the_first_such_state():
    # a step far too long for a 1e100 GHz spacing: the dispersion phase
    # overflows the first step, with no RuntimeWarning on the way
    s0 = ToneState(0.03 + 0j, 0.04j, 0.02 + 0j, domega=2 * np.pi * 1e109, z=5.0)
    with pytest.raises(TonesNotFinite) as exc:
        integrate_tones(s0, 10.0, 1.0, PARAMS)
    assert exc.value.z == 6.0


def test_two_tone_powers_are_constant():
    # with the middle tone empty no mixing product lands on the basis,
    # so each remaining tone only rotates in phase
    s0 = ToneState(0.03 + 0j, 0j, 0.02j, domega=DOM)
    traj = integrate_tones(s0, 100e3, 50.0, PARAMS)
    for s in traj:
        assert s.q2 == 0j
        assert abs(s.powers()[0] / 9e-4 - 1.0) < 1e-12
        assert abs(s.powers()[2] / 4e-4 - 1.0) < 1e-12


def test_dispersion_only_phase():
    lin = FiberParams(beta2=PARAMS.beta2, gamma=0.0)
    z = 50e3
    traj = integrate_tones(state(), z, 50.0, lin)
    rot = np.exp(0.5j * lin.beta2 * DOM**2 * z)
    assert traj[-1].q1 == pytest.approx(state().q1 * rot, rel=1e-9)
    assert traj[-1].q2 == pytest.approx(state().q2, rel=1e-12)
    assert traj[-1].q3 == pytest.approx(state().q3 * rot, rel=1e-9)


def test_rhs_matches_finite_differences():
    traj = integrate_tones(state(), 40e3, 10.0, PARAMS)
    ps = np.array([s.powers() for s in traj])
    idx, h = 3000, 10.0
    fd = (ps[idx + 1] - ps[idx - 1]) / (2 * h)
    an = np.array(power_rhs(traj[idx], PARAMS.gamma))
    assert np.max(np.abs(fd - an)) < 1e-6 * np.max(np.abs(an))


def test_tone_rhs_power_consistency():
    # d|q_n|^2/dz = 2 Re{conj(q_n) dq_n/dz} must reproduce power_rhs
    s = state()
    d = _rhs(s.amplitudes(), s.domega, PARAMS.beta2, PARAMS.gamma)
    via_amp = [2 * np.real(np.conj(q) * dq) for q, dq in zip(s.amplitudes(), d)]
    assert via_amp == pytest.approx(list(power_rhs(s, PARAMS.gamma)), abs=1e-18)


def test_fourth_order_convergence():
    # drive hard enough that truncation error clears rounding noise
    strong = ToneState(0.5 + 0j, 0.5 * np.exp(0.5j), 0.4 * np.exp(-1.1j), domega=DOM)
    ref = integrate_tones(strong, 20e3, 6.25, PARAMS)[-1].amplitudes()
    errs = []
    for dz in (200.0, 100.0, 50.0):
        end = integrate_tones(strong, 20e3, dz, PARAMS)[-1].amplitudes()
        errs.append(np.max(np.abs(end - ref)))
    assert 12 < errs[0] / errs[1] < 22
    assert 12 < errs[1] / errs[2] < 22


def test_step_validation():
    with pytest.raises(ValueError):
        integrate_tones(state(), 100.0, 30.0, PARAMS)  # 30 does not divide 100
    with pytest.raises(ValueError):
        integrate_tones(state(), 100.0, -1.0, PARAMS)
    with pytest.raises(ValueError):
        integrate_tones(state(), 100.0, 1e12, PARAMS)  # would round to no step
    for z_total, dz in ((float("inf"), 30.0), (100.0, float("inf")), (float("nan"), 1.0)):
        with pytest.raises(ValueError):
            integrate_tones(state(), z_total, dz, PARAMS)
