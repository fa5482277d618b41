"""Transform pair, band masks and energies, pulse synthesis.

Frozen reference values come from the closed-form Gaussian transform
pair exp(-t^2/(2s^2)) <-> s*sqrt(2*pi)*exp(-s^2 w^2/2). Everything else
is an algebraic identity of the DFT and is tested as such. Brick-wall
filtering is a propagator step and is tested in test_propagation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberband.bands import BandSet, OverlappingIntervals, make_bandset
from fiberband.config import GHZ, ConfigError, ExperimentConfig
from fiberband.fields import (
    BandOutOfRange,
    FieldError,
    GridTooCoarse,
    SampledField,
    _bin_spacing,
    band_energy,
    band_mask,
    bin_omegas,
    inverse,
    parseval_residual,
    rrc_pulse,
    rrc_spectral_amplitude,
    transform,
)

SQRT_2PI = 2.5066282746310002


def gaussian_field(n=2048, dt=0.05, sigma=1.0):
    t0 = -0.5 * n * dt
    t = t0 + dt * np.arange(n)
    return SampledField(np.exp(-(t**2) / (2 * sigma**2)), dt, t0)


def test_gaussian_transform_closed_form():
    f = gaussian_field()
    s = transform(f)
    w = s.omegas()
    expected = SQRT_2PI * np.exp(-0.5 * w**2)
    assert np.max(np.abs(s.coefficients - expected)) < 1e-10


def test_transform_is_grid_independent():
    # same physical pulse sampled on a grid shifted by 7 samples:
    # the spectrum approximates the same integral, so it must agree
    f = gaussian_field()
    n, dt = f.n, f.dt
    t0b = f.t0 + 7 * dt
    tb = t0b + dt * np.arange(n)
    fb = SampledField(np.exp(-(tb**2) / 2), dt, t0b)
    sa, sb = transform(f), transform(fb)
    assert np.max(np.abs(sa.coefficients - sb.coefficients)) < 1e-10


def test_round_trip_and_parseval():
    rng = np.random.default_rng(3)
    q = rng.normal(size=512) + 1j * rng.normal(size=512)
    f = SampledField(q, dt=0.7, t0=-100.0)
    assert parseval_residual(f) < 1e-14
    g = inverse(transform(f))
    assert np.max(np.abs(g.samples - q)) < 1e-12 * np.max(np.abs(q))
    assert g.t0 == f.t0 and g.dt == f.dt
    # no energy in either domain: no disagreement, rather than 0 / 0
    assert parseval_residual(SampledField(np.zeros(512, dtype=complex), 0.7, -100.0)) == 0.0


# dt values for which 2*pi/(n*(2*pi/(n*dt))) is not dt to the bit, so a
# Spectrum that kept only domega handed back a dt one ulp off
@pytest.mark.parametrize("dt", [1.2e-12, 5.7e-12, 10.1e-12, 19.2e-12, 3.1, 12.5])
@pytest.mark.parametrize("n", [8, 2048])
def test_round_trip_keeps_dt_exactly(n, dt):
    f = SampledField(np.ones(n), dt, -3.0 * dt)
    s = transform(f)
    assert s.domega == 2.0 * np.pi / (n * dt)
    g = inverse(s)
    assert g.dt == dt and g.t0 == f.t0
    assert transform(g).domega == s.domega


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(-50.0, 50.0, allow_nan=False),
    st.integers(0, 2**31 - 1),
)
def test_parseval_holds_for_random_fields(log2n, dt, t0, seed):
    rng = np.random.default_rng(seed)
    n = 2**log2n
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert parseval_residual(SampledField(q, dt, t0)) < 1e-12


def test_field_validation():
    with pytest.raises(FieldError):
        SampledField(np.zeros(12), 1.0, 0.0)  # not a power of two
    with pytest.raises(FieldError):
        SampledField(np.zeros(8), -1.0, 0.0)
    f = SampledField(np.zeros(8), 1.0, 0.0)
    with pytest.raises(ValueError):
        f.samples[0] = 1.0  # samples are read-only


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "samples, dt, t0",
    [
        ([NAN, 0.0], 1.0, 0.0),
        ([0.0, complex(0.0, INF)], 1.0, 0.0),
        ([0.0, 0.0], INF, 0.0),
        ([0.0, 0.0], 1.0, NAN),
        ([0.0, 0.0], 1.0, -INF),
    ],
    ids=["nan-sample", "inf-sample", "inf-dt", "nan-t0", "-inf-t0"],
)
def test_field_rejects_non_finite_input(samples, dt, t0):
    with pytest.raises(FieldError):
        SampledField(np.array(samples), dt, t0)


@pytest.mark.parametrize("n", [2, 8, 64, 2048, 16384])
@pytest.mark.parametrize("dt", [1.0, 0.05, 15.625e-12, 20e-12, 7.3e-9])
def test_bins_are_in_numpy_fft_order(n, dt):
    k = np.arange(n)
    signed = np.where(k < n // 2, k, k - n)  # 0, 1, .., n/2 - 1, -n/2, .., -1
    assert np.array_equal(bin_omegas(n, dt), signed * _bin_spacing(n, dt))


@pytest.mark.parametrize("k", [0, 5, 31, -31, -7, -1])
def test_a_tone_on_bin_k_sits_at_index_k_of_every_spectrum(k):
    n, dt, t0 = 64, 0.5, -16.0
    index = k % n
    domega = _bin_spacing(n, dt)
    f = SampledField(np.exp(1j * k * domega * (t0 + dt * np.arange(n))), dt, t0)
    s = transform(f)
    for spectrum in (np.fft.fft(f.samples), s.coefficients):
        peak = np.max(np.abs(spectrum))
        assert list(np.flatnonzero(np.abs(spectrum) > 1e-9 * peak)) == [index]
    assert s.omegas()[index] == k * domega
    # a channel around the tone holds its bin and no other
    (row,) = band_mask(n, dt, make_bandset([((k - 0.4) * domega, (k + 0.4) * domega)]))
    assert list(np.flatnonzero(row)) == [index]


def test_a_channel_across_zero_hz_wraps_to_both_ends():
    domega = _bin_spacing(16, 1.0)
    (row,) = band_mask(16, 1.0, make_bandset([(-2 * domega, 2 * domega)]))
    assert list(np.flatnonzero(row)) == [0, 1, 2, 14, 15]


def test_band_mask_closed_interval_with_edge_snap():
    # dt = 1: 8 bins at k*pi/4 in FFT order, 0 .. 3pi/4 then -pi .. -pi/4
    (m,) = band_mask(8, 1.0, make_bandset([(0.0, np.pi / 4)]))
    assert list(np.nonzero(m)[0]) == [0, 1]
    # an edge a hair inside the bin still owns it
    (m2,) = band_mask(8, 1.0, make_bandset([(1e-12, np.pi / 4 - 1e-12)]))
    assert np.array_equal(m2, m)
    # but half a bin away it does not
    (m3,) = band_mask(8, 1.0, make_bandset([(np.pi / 8, np.pi / 4)]))
    assert list(np.nonzero(m3)[0]) == [1]


def test_band_mask_range_check():
    with pytest.raises(BandOutOfRange):
        band_mask(8, 1.0, make_bandset([(3 * np.pi / 4, np.pi)]))  # hits Nyquist
    band_mask(8, 1.0, make_bandset([(-np.pi, -np.pi / 2)]))  # -pi is represented


def test_band_mask_has_a_row_per_interval_and_books_a_bin_once():
    # dt = 1: 8 bins at k*pi/4 in FFT order, 0 .. 3pi/4 then -pi .. -pi/4
    rows = band_mask(8, 1.0, make_bandset([(0.0, np.pi / 4), (-np.pi, -np.pi / 2)]))
    assert rows.shape == (2, 8)
    assert [list(np.nonzero(r)[0]) for r in rows] == [[4, 5, 6], [0, 1]]
    # disjoint, but both edges fall within EDGE_TOL of the bin at pi/4
    a, b = (0.0, np.pi / 4), (np.pi / 4 * (1 + 1e-12), np.pi / 2)
    with pytest.raises(OverlappingIntervals) as exc:
        band_mask(8, 1.0, make_bandset([a, b]))
    assert exc.value.pair == (a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 10),
    st.floats(0.01, 10.0, allow_nan=False),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_band_energy_splits_the_field_energy(log2n, dt, k, seed):
    rng = np.random.default_rng(seed)
    n = 2**log2n
    f = SampledField(rng.normal(size=n) + 1j * rng.normal(size=n), dt, rng.uniform(-50, 50))
    s = transform(f)
    # k disjoint in-window bands; each edge sits a random fraction of a
    # bin above one of 2k distinct bins, so every band holds a bin
    bins = np.sort(rng.choice(np.arange(-(n // 2), n // 2), size=2 * k, replace=False))
    edges = (bins + rng.uniform(0.0, 0.99, size=2 * k)) * s.domega
    mask = band_mask(n, dt, make_bandset(edges.reshape(k, 2))).any(axis=0)
    power = np.abs(np.fft.fft(f.samples)) ** 2
    inside = band_energy(power, mask, dt)
    outside = band_energy(power, ~mask, dt)
    assert inside + outside == pytest.approx(f.energy(), rel=1e-12)
    reference = np.sum(np.abs(s.coefficients[mask]) ** 2) * s.domega / (2 * np.pi)
    assert inside == pytest.approx(reference, rel=1e-12)


# n = 2048 bins of 24.4140625 MHz at dt = 20 ps: the last bin is at
# 24.9755859375 GHz, and the Nyquist edge one bin higher, at exactly
# 25 GHz in floating point too, is not represented
@pytest.mark.parametrize("width_ghz, inside", [(24.9755859375, True), (25.0, False)])
def test_window_rule_is_shared_by_mask_pulse_and_config(width_ghz, inside):
    n, dt_ps = 2048, 20.0
    dt, w = dt_ps * 1e-12, width_ghz * GHZ
    if inside:
        assert w == pytest.approx(bin_omegas(n, dt)[n // 2 - 1], rel=1e-15)
    else:
        assert w == -bin_omegas(n, dt)[n // 2]
    checks = [  # each on the channel [0, w]
        (lambda: band_mask(n, dt, make_bandset([(0.0, w)])), BandOutOfRange),
        (lambda: rrc_pulse((0.0, w), 0.15, 1.0, 0.0, dt, n, -16e-9), BandOutOfRange),
        (lambda: ExperimentConfig(n=n, dt_ps=dt_ps, placement="uniform", channel_count=1,
                                  width_ghz=width_ghz), ConfigError),
    ]
    for call, error in checks:
        if inside:
            call()
        else:
            with pytest.raises(error):
                call()


def test_rrc_amplitude_profile():
    W, beta = 8.0, 0.25
    T = 2 * np.pi * (1 + beta) / W
    flat = rrc_spectral_amplitude(np.array([0.0]), W, beta)[0]
    assert flat == pytest.approx(np.sqrt(T), rel=1e-14)
    # flat out to (1-beta)/(1+beta) of the half width, zero at the edge
    w_flat = 0.5 * W * (1 - beta) / (1 + beta)
    assert rrc_spectral_amplitude(np.array([w_flat]), W, beta)[0] == pytest.approx(
        np.sqrt(T), rel=1e-12
    )
    assert abs(rrc_spectral_amplitude(np.array([W / 2]), W, beta)[0]) < 1e-12
    with pytest.raises(FieldError):
        rrc_spectral_amplitude(np.array([0.0]), W, rolloff=1.5)


def test_rrc_pulse_energy_band_and_peak():
    n, dt = 1024, 1.0 / 64
    t0 = -0.5 * n * dt
    domega = 2 * np.pi / (n * dt)
    channel = (-24 * domega, 104 * domega)  # centered on 40 bins, 128 bins wide
    f = rrc_pulse(channel, 0.15, energy=2.5, phase=0.8, dt=dt, n=n, t0=t0)
    assert f.energy() == pytest.approx(2.5, rel=1e-12)
    chan = make_bandset([channel])
    (mask,) = band_mask(n, dt, chan)
    power = np.abs(np.fft.fft(f.samples)) ** 2
    assert band_energy(power, mask, dt) == pytest.approx(2.5, rel=1e-12)
    assert int(np.argmax(np.abs(f.samples))) == n // 2
    assert np.angle(f.samples[n // 2]) == pytest.approx(0.8, abs=1e-9)


def test_rrc_pulse_is_nyquist():
    # the squared spectrum is a raised cosine, so the pulse
    # autocorrelation must vanish at multiples of the symbol period
    n, dt = 1024, 1.0 / 64
    t0 = -0.5 * n * dt
    domega = 2 * np.pi / (n * dt)
    beta, width = 0.15, 128 * domega
    f = rrc_pulse((-width / 2, width / 2), beta, energy=1.0, phase=0.0, dt=dt, n=n, t0=t0)
    s = transform(f)
    power = np.abs(s.coefficients) ** 2
    T = 2 * np.pi * (1 + beta) / width
    for k in (1, 2, 3):
        r = np.sum(power * np.exp(1j * s.omegas() * k * T)) * s.domega / (2 * np.pi)
        assert abs(r) < 1e-3  # r(0) = 1


def test_rrc_pulse_guards():
    n, dt = 256, 0.1
    t0, domega = -12.8, 2 * np.pi / 25.6
    with pytest.raises(GridTooCoarse):
        # channel narrower than a bin, centered between bins
        rrc_pulse((0.4 * domega, 0.6 * domega), 0.1, 1.0, 0.0, dt, n, t0)
    with pytest.raises(GridTooCoarse):
        # a dark pulse needs a bin in its channel all the same
        rrc_pulse((0.4 * domega, 0.6 * domega), 0.1, 0.0, 0.0, dt, n, t0)
    with pytest.raises(BandOutOfRange):
        rrc_pulse((np.pi / dt - 2 * domega, np.pi / dt + 2 * domega), 0.1, 1.0, 0.0, dt, n, t0)
    zero = rrc_pulse((-2 * domega, 2 * domega), 0.1, 0.0, 0.0, dt, n, t0)
    assert zero.energy() == 0.0


@pytest.mark.parametrize(
    "energy, phase, name",
    [(-1e-12, 0.0, "energy"), (float("inf"), 0.0, "energy"), (float("nan"), 0.0, "energy"),
     (1.0, float("inf"), "phase"), (1.0, float("nan"), "phase")],
)
def test_rrc_pulse_names_a_bad_energy_or_phase(energy, phase, name):
    n, dt, t0, domega = 256, 0.1, -12.8, 2 * np.pi / 25.6
    with pytest.raises(FieldError, match=f"^{name} = "):
        rrc_pulse((-2 * domega, 2 * domega), 0.1, energy, phase, dt, n, t0)
