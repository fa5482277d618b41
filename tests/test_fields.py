"""Transform pair, channel bin ranges, band energies, pulse synthesis.

Frozen reference values come from the closed-form Gaussian transform
pair exp(-t^2/(2s^2)) <-> s*sqrt(2*pi)*exp(-s^2 w^2/2). Everything else
is an algebraic identity of the DFT and is tested as such. Brick-wall
filtering is a propagator step and is tested in test_propagation.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fiberband.bands import BandError, BandSet, OverlappingIntervals, make_bandset
from fiberband.cli import resolve_config
from fiberband.config import GHZ, ConfigError
from fiberband.fields import (
    EDGE_TOL,
    BandOutOfRange,
    FieldError,
    GridTooCoarse,
    SampledField,
    _bin_spacing,
    bin_omegas,
    bin_ranges,
    inverse,
    parseval_residual,
    rrc_on_bins,
    rrc_pulse,
    transform,
)

from oracles import band_energy, band_mask

SQRT_2PI = 2.5066282746310002


def gaussian_field(n=2048, dt=0.05, sigma=1.0):
    t = dt * (np.arange(n) - n // 2)  # the window centred on t = 0
    return SampledField(np.exp(-(t**2) / (2 * sigma**2)), dt)


def test_gaussian_transform_closed_form():
    f = gaussian_field()
    s = transform(f)
    w = s.omegas()
    expected = SQRT_2PI * np.exp(-0.5 * w**2)
    assert np.max(np.abs(s.coefficients - expected)) < 1e-10


def test_round_trip_and_parseval():
    rng = np.random.default_rng(3)
    q = rng.normal(size=512) + 1j * rng.normal(size=512)
    f = SampledField(q, dt=0.7)
    assert parseval_residual(f) < 1e-14
    g = inverse(transform(f))
    assert np.max(np.abs(g.samples - q)) < 1e-12 * np.max(np.abs(q))
    assert g.dt == f.dt
    # no energy in either domain: no disagreement, rather than 0 / 0
    assert parseval_residual(SampledField(np.zeros(512, dtype=complex), 0.7)) == 0.0


# dt values for which 2*pi/(n*(2*pi/(n*dt))) is not dt to the bit, so a
# Spectrum that kept only domega handed back a dt one ulp off
@pytest.mark.parametrize("dt", [1.2e-12, 5.7e-12, 10.1e-12, 19.2e-12, 3.1, 12.5])
@pytest.mark.parametrize("n", [8, 2048])
def test_round_trip_keeps_dt_exactly(n, dt):
    f = SampledField(np.ones(n), dt)
    s = transform(f)
    assert s.domega == 2.0 * np.pi / (n * dt)
    g = inverse(s)
    assert g.dt == dt
    assert transform(g).domega == s.domega


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.floats(0.01, 10.0, allow_nan=False),
    st.integers(0, 2**31 - 1),
)
def test_parseval_holds_for_random_fields(log2n, dt, seed):
    rng = np.random.default_rng(seed)
    n = 2**log2n
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert parseval_residual(SampledField(q, dt)) < 1e-12


def test_field_validation():
    with pytest.raises(FieldError):
        SampledField(np.zeros(12), 1.0)  # not a power of two
    with pytest.raises(FieldError):
        SampledField(np.zeros(8), -1.0)
    f = SampledField(np.zeros(8), 1.0)
    with pytest.raises(ValueError):
        f.samples[0] = 1.0  # samples are read-only


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "samples, dt",
    [
        ([NAN, 0.0], 1.0),
        ([0.0, complex(0.0, INF)], 1.0),
        ([0.0, 0.0], INF),
    ],
    ids=["nan-sample", "inf-sample", "inf-dt"],
)
def test_field_rejects_non_finite_input(samples, dt):
    with pytest.raises(FieldError):
        SampledField(np.array(samples), dt)


@pytest.mark.parametrize("n", [2, 8, 64, 2048, 16384])
@pytest.mark.parametrize("dt", [1.0, 0.05, 15.625e-12, 20e-12, 7.3e-9])
def test_bins_are_in_numpy_fft_order(n, dt):
    k = np.arange(n)
    signed = np.where(k < n // 2, k, k - n)  # 0, 1, .., n/2 - 1, -n/2, .., -1
    assert np.array_equal(bin_omegas(n, dt), signed * _bin_spacing(n, dt))


@pytest.mark.parametrize("k", [0, 5, 31, -31, -7, -1])
def test_a_tone_on_bin_k_sits_at_index_k_of_every_spectrum(k):
    n, dt = 64, 0.5
    index = k % n
    domega = _bin_spacing(n, dt)
    f = SampledField(np.exp(1j * k * domega * dt * (np.arange(n) - n // 2)), dt)
    s = transform(f)
    for spectrum in (np.fft.fft(f.samples), s.coefficients):
        peak = np.max(np.abs(spectrum))
        assert list(np.flatnonzero(np.abs(spectrum) > 1e-9 * peak)) == [index]
    assert s.omegas()[index] == k * domega
    # a channel around the tone holds its bin and no other
    assert bin_ranges(n, dt, make_bandset([((k - 0.4) * domega, (k + 0.4) * domega)])) == [(k, k)]


def test_a_channel_across_zero_hz_is_one_signed_range():
    domega = _bin_spacing(16, 1.0)
    assert bin_ranges(16, 1.0, make_bandset([(-2 * domega, 2 * domega)])) == [(-2, 2)]
    (row,) = band_mask(16, 1.0, make_bandset([(-2 * domega, 2 * domega)]))
    assert list(np.flatnonzero(row)) == [0, 1, 2, 14, 15]  # indices k % n, both ends


def test_bin_ranges_closed_interval_with_edge_snap():
    # dt = 1: 8 bins at k*pi/4 in FFT order, 0 .. 3pi/4 then -pi .. -pi/4
    assert bin_ranges(8, 1.0, make_bandset([(0.0, np.pi / 4)])) == [(0, 1)]
    # an edge a hair inside the bin still owns it
    assert bin_ranges(8, 1.0, make_bandset([(1e-12, np.pi / 4 - 1e-12)])) == [(0, 1)]
    # but half a bin away it does not
    assert bin_ranges(8, 1.0, make_bandset([(np.pi / 8, np.pi / 4)])) == [(1, 1)]
    # and a channel between two bins holds none: k_hi = k_lo - 1
    assert bin_ranges(8, 1.0, make_bandset([(np.pi / 16, np.pi / 8)])) == [(1, 0)]


def test_bin_ranges_range_check():
    with pytest.raises(BandOutOfRange):
        bin_ranges(8, 1.0, make_bandset([(3 * np.pi / 4, np.pi)]))  # hits Nyquist
    # -pi is represented
    assert bin_ranges(8, 1.0, make_bandset([(-np.pi, -np.pi / 2)])) == [(-4, -2)]


# dt = 1, n = 8: the top edge is inside the window but within EDGE_TOL of
# the Nyquist edge pi, whose bin is -pi at index 4; the range stops at 3
NYQUIST_CLAMP = (8, 1.0, [(0.75 * np.pi, np.pi * (1 - 1e-12))])


def test_bin_ranges_clamp_below_nyquist():
    n, dt, intervals = NYQUIST_CLAMP
    assert bin_ranges(n, dt, make_bandset(intervals)) == [(3, 3)]
    (row,) = band_mask(n, dt, make_bandset(intervals))
    assert list(np.flatnonzero(row)) == [3]


def test_bin_ranges_has_one_range_per_interval_and_books_a_bin_once():
    # dt = 1: 8 bins at k*pi/4 in FFT order, 0 .. 3pi/4 then -pi .. -pi/4
    ranges = bin_ranges(8, 1.0, make_bandset([(0.0, np.pi / 4), (-np.pi, -np.pi / 2)]))
    assert ranges == [(-4, -2), (0, 1)]  # in frequency order, as the intervals are
    # disjoint, but both edges fall within EDGE_TOL of the bin at pi/4
    a, b = (0.0, np.pi / 4), (np.pi / 4 * (1 + 1e-12), np.pi / 2)
    with pytest.raises(OverlappingIntervals) as exc:
        bin_ranges(8, 1.0, make_bandset([a, b]))
    assert exc.value.pair == (a, b)


def _named_pairs(n, band):
    picks = []
    for find in (bin_ranges, band_mask):
        with pytest.raises(OverlappingIntervals) as exc:
            find(n, 1.0, band)
        picks.append(exc.value.pair)
    return picks


def test_a_shared_bin_is_named_at_the_lowest_frequency():
    # the ranges name the lowest pair that shares a bin; the mask oracle
    # named a pair at the bin most intervals share, the lowest FFT index first
    w = np.pi / 4  # n = 8, dt = 1: the bin spacing
    a, b = (-2 * w, -w), (-w * (1 - 1e-12), -w / 2)  # share the bin at -w
    c, d = (0.0, w), (w * (1 + 1e-12), 2 * w)  # share the bin at w, index 1
    assert _named_pairs(8, make_bandset([a, b, c, d])) == [(a, b), (c, d)]
    # n = 16: the bin at 4w is shared by three intervals, the bin at w by two
    w = np.pi / 8
    a, b = (0.0, w), (w * (1 + 1e-12), 2 * w)
    c, d = (3 * w, 4 * w), (4 * w * (1 + 1e-12), 4 * w * (1 + 2e-12))
    e = (4 * w * (1 + 3e-12), 5 * w)
    assert _named_pairs(16, make_bandset([a, b, c, d, e])) == [(a, b), (c, d)]


# edge offsets from a bin center, in bin spacings: on it, within EDGE_TOL
# of it on either side, at the tolerance itself, and well between bins
EDGE_OFFSETS = (0.0, EDGE_TOL, -EDGE_TOL, 0.5 * EDGE_TOL, -0.5 * EDGE_TOL, 0.3, 0.5, 0.8)


@st.composite
def bin_grids(draw):
    """(n, dt, intervals) with n from 2 to 256 and edges near bin centers
    across the whole window, 0 Hz and both Nyquist ends included."""
    n = 2 ** draw(st.integers(1, 8))
    dt = draw(st.sampled_from([1.0, 0.3, 15.625e-12, 20e-12, 7.3e-9]))
    domega = _bin_spacing(n, dt)
    edges = []
    for _ in range(2 * draw(st.integers(1, 4))):
        k = draw(st.integers(-(n // 2) - 1, n // 2))
        x = k * domega + draw(st.sampled_from(EDGE_OFFSETS)) * domega
        ulps = draw(st.integers(-3, 3))  # and a few ulps off
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.copysign(np.inf, ulps))
        edges.append(float(x))
    edges.sort()
    return n, dt, list(zip(edges[::2], edges[1::2]))


@settings(max_examples=200, deadline=None)
@given(bin_grids())
@example(NYQUIST_CLAMP)
def test_bin_ranges_match_the_mask_rows(grid):
    n, dt, intervals = grid
    try:
        band = make_bandset(intervals)
    except BandError:
        assume(False)
    try:
        rows = band_mask(n, dt, band)
    except (BandOutOfRange, OverlappingIntervals) as exc:
        with pytest.raises(type(exc)) as got:
            bin_ranges(n, dt, band)
        if isinstance(exc, OverlappingIntervals):  # the oracle finds the named pair's bin
            with pytest.raises(OverlappingIntervals):
                band_mask(n, dt, make_bandset(got.value.pair))
        return
    ranges = bin_ranges(n, dt, band)
    assert all(k_lo - 1 <= k_hi < n // 2 for k_lo, k_hi in ranges)
    ranged = np.zeros_like(rows)
    for row, (k_lo, k_hi) in zip(ranged, ranges):
        row[np.arange(k_lo, k_hi + 1)] = True  # bin k at index k % n
    assert np.array_equal(ranged, rows)


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
    f = SampledField(rng.normal(size=n) + 1j * rng.normal(size=n), dt)
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
def test_window_rule_is_shared_by_ranges_pulse_and_config(width_ghz, inside):
    n, dt_ps = 2048, 20.0
    dt, w = dt_ps * 1e-12, width_ghz * GHZ
    if inside:
        assert w == pytest.approx(bin_omegas(n, dt)[n // 2 - 1], rel=1e-15)
    else:
        assert w == -bin_omegas(n, dt)[n // 2]
    checks = [  # each on the channel [0, w]
        (lambda: bin_ranges(n, dt, make_bandset([(0.0, w)])), BandOutOfRange),
        (lambda: rrc_pulse((0.0, w), 0.15, 1.0, 0.0, dt, n), BandOutOfRange),
        (lambda: replace(resolve_config("sidon5"), n=n, dt_ps=dt_ps, sequence=None,
                         channel_count=1, span_w=1.0, width_ghz=width_ghz, energies_pj=None,
                         phases_rad=None), ConfigError),
    ]
    for call, error in checks:
        if inside:
            call()
        else:
            with pytest.raises(error):
                call()


def test_rrc_amplitude_profile():
    # dt = 2*pi/64 puts 64 bins exactly 1 rad/s apart; the channel (-10, 10)
    # holds bins -10..10, index k + 10 of the result
    n, dt, W, beta = 64, 2 * np.pi / 64, 20.0, 0.25
    assert _bin_spacing(n, dt) == 1.0
    amp = rrc_on_bins((-W / 2, W / 2), beta, (-10, 10), n, dt)
    T = 2 * np.pi * (1 + beta) / W
    assert amp[10] == pytest.approx(np.sqrt(T), rel=1e-14)
    # flat out to (1-beta)/(1+beta) of the half width, bin 6, zero at the edges
    assert amp[10 + 6] == pytest.approx(np.sqrt(T), rel=1e-12)
    assert abs(amp[0]) < 1e-12 and abs(amp[20]) < 1e-12
    with pytest.raises(FieldError):
        rrc_on_bins((-W / 2, W / 2), 1.5, (-10, 10), n, dt)
    # no bin, or bins past the taper's end only, carry no pulse
    for bins in [(1, 0), (11, 12)]:
        with pytest.raises(GridTooCoarse):
            rrc_on_bins((-W / 2, W / 2), beta, bins, n, dt)


def test_a_pulse_needs_a_bin_off_its_channel_edges():
    # 31.25 MHz bins: the channel [0, 15.625] MHz holds only the bin at 0 Hz,
    # on its edge, where the RRC amplitude rounds to 3.8e-19 rather than 0;
    # at rolloff 0 the edge amplitude is sqrt(T), so only the bin's position
    # can tell that the pulse would be a tone
    n, dt = 2048, 15.625e-12
    for rolloff in (0.15, 0.0):
        with pytest.raises(GridTooCoarse):
            rrc_pulse((0.0, 0.015625 * GHZ), rolloff, 1e-12, 0.0, dt, n)
    # a bin 2 EDGE_TOL inside the lower edge is off it; one 0.5 EDGE_TOL inside is on it
    domega = _bin_spacing(n, dt)
    f = rrc_pulse((-2 * EDGE_TOL * domega, 0.5 * domega), 0.15, 1e-12, 0.0, dt, n)
    assert f.energy() == pytest.approx(1e-12, rel=1e-12)
    with pytest.raises(GridTooCoarse):
        rrc_pulse((-0.5 * EDGE_TOL * domega, 0.5 * domega), 0.15, 1e-12, 0.0, dt, n)


def test_rrc_pulse_energy_band_and_peak():
    n, dt = 1024, 1.0 / 64
    domega = 2 * np.pi / (n * dt)
    channel = (-24 * domega, 104 * domega)  # centered on 40 bins, 128 bins wide
    f = rrc_pulse(channel, 0.15, energy=2.5, phase=0.8, dt=dt, n=n)
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
    domega = 2 * np.pi / (n * dt)
    beta, width = 0.15, 128 * domega
    f = rrc_pulse((-width / 2, width / 2), beta, energy=1.0, phase=0.0, dt=dt, n=n)
    s = transform(f)
    power = np.abs(s.coefficients) ** 2
    T = 2 * np.pi * (1 + beta) / width
    for k in (1, 2, 3):
        r = np.sum(power * np.exp(1j * s.omegas() * k * T)) * s.domega / (2 * np.pi)
        assert abs(r) < 1e-3  # r(0) = 1


def test_rrc_pulse_guards():
    n, dt = 256, 0.1
    domega = 2 * np.pi / 25.6
    with pytest.raises(GridTooCoarse):
        # channel narrower than a bin, centered between bins
        rrc_pulse((0.4 * domega, 0.6 * domega), 0.1, 1.0, 0.0, dt, n)
    with pytest.raises(GridTooCoarse):
        # a dark pulse needs a bin in its channel all the same
        rrc_pulse((0.4 * domega, 0.6 * domega), 0.1, 0.0, 0.0, dt, n)
    with pytest.raises(BandOutOfRange):
        rrc_pulse((np.pi / dt - 2 * domega, np.pi / dt + 2 * domega), 0.1, 1.0, 0.0, dt, n)
    zero = rrc_pulse((-2 * domega, 2 * domega), 0.1, 0.0, 0.0, dt, n)
    assert zero.energy() == 0.0


@pytest.mark.parametrize(
    "energy, phase, name",
    [(-1e-12, 0.0, "energy"), (float("inf"), 0.0, "energy"), (float("nan"), 0.0, "energy"),
     (1.0, float("inf"), "phase"), (1.0, float("nan"), "phase")],
)
def test_rrc_pulse_names_a_bad_energy_or_phase(energy, phase, name):
    n, dt, domega = 256, 0.1, 2 * np.pi / 25.6
    with pytest.raises(FieldError, match=f"^{name} = "):
        rrc_pulse((-2 * domega, 2 * domega), 0.1, energy, phase, dt, n)
