"""Split-step propagator: linear oracles, bookkeeping, trace contract.

The linear sub-operators admit closed forms, so they are checked
exactly: with gamma = 0 the scheme multiplies the spectrum by
exp(j*(beta2/2)*w^2*z) with no approximation error beyond rounding, and
attenuation alone scales the field by exp(-alpha0*z/2) pointwise.
"""

import dataclasses

import numpy as np
import pytest

from fiberband import propagation
from fiberband.bands import make_bandset
from fiberband.cli import resolve_config
from fiberband.fields import SampledField, rrc_pulse, transform
from fiberband.propagation import (
    EnergyTrace,
    FiberParams,
    FilterMode,
    InvalidStepPartition,
    propagate,
    step_count,
)

from oracles import band_energy, band_mask, channel_energy_rhs

N, DT = 512, 15.625e-12
DOMEGA = 2 * np.pi / (N * DT)
W = 32 * DOMEGA  # channel width, 32 bins


def energy_in(f, band):
    power = np.abs(np.fft.fft(f.samples)) ** 2
    return band_energy(power, band_mask(f.n, f.dt, band).any(axis=0), f.dt)


def two_channel_launch(n=N):
    """Two RRC channels on an n-sample window of spacing DT, centred on t = 0."""
    chans = make_bandset([(0.0, W), (2 * W, 3 * W)])
    q = np.zeros(n, dtype=complex)
    for channel, e_pj, ph in zip(chans.intervals, (0.06, 0.11), (0.4, -1.0)):
        q = q + rrc_pulse(channel, 0.15, e_pj * 1e-12, ph, DT, n).samples
    return SampledField(q, DT), chans


def test_engineering_conversions():
    # the config converts a fiber's datasheet units; propagation takes SI only
    p = dataclasses.replace(resolve_config("sidon5"), alpha0_db_per_km=0.2).fiber()
    assert p.alpha0 == pytest.approx(4.605170185988091e-05, rel=1e-12)
    assert p.beta2 == pytest.approx(-21.667e-27, rel=1e-12)
    assert p.gamma == pytest.approx(1.2578e-3, rel=1e-12)
    with pytest.raises(ValueError):
        FiberParams(alpha0=-1.0)


@pytest.mark.parametrize("name", ["alpha0", "beta2", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_fiber_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} = .* is not finite"):
        FiberParams(**{name: value})


def test_filter_mode_validation():
    with pytest.raises(ValueError):
        FilterMode("sometimes")
    with pytest.raises(ValueError):
        FilterMode("lumped")
    assert FilterMode("lumped", 10e3).spacing == 10e3
    assert FilterMode("none").spacing is None


def test_trace_helpers():
    tr = EnergyTrace(
        z=np.array([0.0, 1.0]),
        total=np.array([2.0, 1.5]),
        per_channel=np.array([[1.0, 1.0, 0.0], [0.8, 1.1, 0.0]]),
        discarded_cumulative=np.array([0.0, 0.5]),
    )
    assert tr.n_channels == 3
    assert tr.total_loss_fraction() == pytest.approx(0.25)
    # zero-launch channels are excluded from the deviation
    assert tr.max_channel_deviation() == pytest.approx(0.2)


def test_dark_trace_has_no_loss_or_deviation():
    dark = EnergyTrace(z=np.array([0.0, 1.0]), total=np.zeros(2),
                       per_channel=np.zeros((2, 3)), discarded_cumulative=np.zeros(2))
    assert dark.max_channel_deviation() == 0.0
    assert dark.total_loss_fraction() == 0.0


def test_linear_propagation_is_exact_dispersion():
    f, chans = two_channel_launch()
    params = FiberParams(beta2=-21.667e-27)
    z = 4e3
    out, tr = propagate(f, z, 100.0, params, FilterMode("none"), chans, z)
    sa = transform(f).coefficients * np.exp(0.5j * params.beta2 * transform(f).omegas() ** 2 * z)
    sb = transform(out).coefficients
    assert np.max(np.abs(sb - sa)) < 1e-12 * np.max(np.abs(sa))
    assert out.energy() == pytest.approx(f.energy(), rel=1e-12)
    assert tr.discarded_cumulative[-1] == 0.0


def test_attenuation_scales_field_pointwise():
    f, chans = two_channel_launch()
    params = FiberParams(alpha0=4.6e-5)  # about 0.2 dB/km
    z = 4e3
    out, _ = propagate(f, z, 100.0, params, FilterMode("none"), chans, z)
    expected = f.samples * np.exp(-0.5 * params.alpha0 * z)
    assert np.max(np.abs(out.samples - expected)) < 1e-12 * np.max(np.abs(expected))


def one_step(f, dz, params, band):
    """A single distributed-filter step; returns (field, discarded J)."""
    out, tr = propagate(f, dz, dz, params, FilterMode("distributed"), band, dz)
    return out, float(tr.discarded_cumulative[-1])


def test_one_step_filter_bookkeeping():
    f, chans = two_channel_launch()
    # widen the launch so the Kerr step leaks measurable energy out of band
    g = SampledField(f.samples * 3e3, DT)
    params = FiberParams(alpha0=4.6e-5, beta2=-21.667e-27, gamma=1.2578e-3)
    out, discarded = one_step(g, 100.0, params, chans)
    assert discarded > 0
    survived = (g.energy() - discarded) * np.exp(-params.alpha0 * 100.0)
    assert out.energy() == pytest.approx(survived, rel=1e-12)
    assert energy_in(out, chans) == pytest.approx(out.energy(), rel=1e-12)


def test_one_step_mask_bookkeeping():
    rng = np.random.default_rng(11)
    f = SampledField(rng.normal(size=256) + 1j * rng.normal(size=256), 1.0)
    band = make_bandset([(-1.0, -0.5), (0.2, 1.7)])
    filtered, discarded = one_step(f, 1.0, FiberParams(), band)
    assert discarded > 0
    assert filtered.energy() + discarded == pytest.approx(f.energy(), rel=1e-12)
    assert energy_in(filtered, band) == pytest.approx(filtered.energy(), rel=1e-12)
    # a second pass only meets the rounding noise of the FFT round trip
    _, again = one_step(filtered, 1.0, FiberParams(), band)
    assert again < 1e-25 * f.energy()


def test_one_step_discards_before_decay():
    rng = np.random.default_rng(12)
    f = SampledField(rng.normal(size=256) + 1j * rng.normal(size=256), 1.0)
    band = make_bandset([(-0.9, 1.1)])
    alpha0, dz = 0.046, 3.0
    filtered, discarded = one_step(f, dz, FiberParams(alpha0=alpha0), band)
    survived = f.energy() - discarded
    assert filtered.energy() == pytest.approx(survived * np.exp(-alpha0 * dz), rel=1e-12)


@pytest.mark.parametrize(
    "z_total, dz, record_every, spacing",
    [
        (4e3, 0.0, 4e3, 1e3),
        (4e3, -100.0, 4e3, 1e3),
        (4e3, float("nan"), 4e3, 1e3),
        (float("nan"), 100.0, 4e3, 1e3),
        (4e3, 100.0, float("nan"), 1e3),
        (float("inf"), 100.0, 4e3, 1e3),
        (4e3, 100.0, float("inf"), 1e3),
        (4e3, 100.0, 4e3, float("inf")),
    ],
)
def test_propagate_rejects_bad_step_sizes(z_total, dz, record_every, spacing):
    f, chans = two_channel_launch()
    mode = FilterMode("lumped", spacing)
    with pytest.raises(InvalidStepPartition):
        propagate(f, z_total, dz, FiberParams(), mode, chans, record_every)


def test_step_count_of_a_ratio_past_the_largest_float_is_none():
    assert step_count(1e3, 250.0) == 4
    assert step_count(1e300, 1e-10) is None  # 1e310 steps overflow to inf


@pytest.mark.parametrize("dz", [-0.5, 0.0])
def test_step_count_of_a_step_that_is_not_positive_is_none(dz):
    assert step_count(1.0, dz) is None


def test_propagate_stride_guards():
    f, chans = two_channel_launch()
    params = FiberParams()
    mode = FilterMode("lumped", 1e3)
    with pytest.raises(InvalidStepPartition):
        propagate(f, 4.1e3, 200.0, params, mode, chans, 4.1e3)
    with pytest.raises(InvalidStepPartition):
        propagate(f, 4e3, 200.0, params, mode, chans, 300.0)
    with pytest.raises(InvalidStepPartition):
        propagate(f, 4e3, 300.0, params, mode, chans, 4e3)  # spacing


def test_trace_record_schedule():
    f, chans = two_channel_launch()
    params = FiberParams(gamma=1.2578e-3)
    _, tr = propagate(f, 4e3, 100.0, params, FilterMode("none"), chans, 1e3)
    assert list(tr.z) == [0.0, 1e3, 2e3, 3e3, 4e3]
    assert tr.per_channel.shape == (5, 2)
    assert tr.total[0] == pytest.approx(f.energy(), rel=1e-12)
    # nothing is filtered, so nothing may be discarded
    assert np.all(tr.discarded_cumulative == 0.0)


@pytest.mark.parametrize("kind, spacing_km", [("distributed", None), ("lumped", 0.1), ("none", None)])
def test_trace_total_is_the_full_spectrum_energy(kind, spacing_km):
    # one 0.1-km step of sidon5: the total sums every bin, in band or not,
    # at the launch and after the step, in every filter mode
    cfg = dataclasses.replace(resolve_config("sidon5"), z_total_km=0.1, record_every_km=0.1,
                              filter=kind, filter_spacing_km=spacing_km)
    launch = cfg.launch_field()
    z_total, dz, record_every = cfg.run_lengths()
    out, tr = propagate(launch, z_total, dz, cfg.fiber(), cfg.filter_mode(), cfg.channels(),
                        record_every)

    def energy(q):
        return float(np.sum(np.abs(np.fft.fft(q)) ** 2)) * launch.dt / launch.n

    assert len(tr.total) == 2
    assert tr.total[0] == energy(launch.samples)
    assert tr.total[-1] == energy(out.samples)


@pytest.mark.parametrize("grid", ["sidon5", "across-0-Hz"])
def test_records_are_the_mask_oracle_to_the_bit(grid):
    # one distributed step: every per-channel record is the oracle's
    # band_energy over the band_mask rows of the same spectrum, to the bit
    if grid == "sidon5":
        cfg = dataclasses.replace(resolve_config("sidon5"), z_total_km=0.1, record_every_km=0.1)
        f, band, params = cfg.launch_field(), cfg.channels(), cfg.fiber()
    else:
        rng = np.random.default_rng(5)
        f = SampledField(rng.normal(size=N) + 1j * rng.normal(size=N), DT)
        band = make_bandset([(-140 * DOMEGA, -90.5 * DOMEGA), (-67 * DOMEGA, 72.3 * DOMEGA),
                             (80 * DOMEGA, 161 * DOMEGA)])
        params = FiberParams(beta2=-21.667e-27, gamma=1.2578e-3)
        assert band.intervals[1][0] < 0 < band.intervals[1][1]
    out, tr = propagate(f, 100.0, 100.0, params, FilterMode("distributed"), band, 100.0)
    assert len(tr.per_channel) == 2
    for record, g in zip(tr.per_channel, (f, out)):
        power = np.abs(np.fft.fft(g.samples)) ** 2
        rows = band_mask(g.n, g.dt, band)
        assert np.array_equal(record, [band_energy(power, row, g.dt) for row in rows])


def test_lumped_discards_only_at_filters():
    f, chans = two_channel_launch()
    g = SampledField(f.samples * 3e3, DT)
    params = FiberParams(gamma=1.2578e-3)
    mode = FilterMode("lumped", 400.0)
    _, tr = propagate(g, 2e3, 100.0, params, mode, chans, 100.0)
    inc = np.diff(tr.discarded_cumulative)
    hits = np.nonzero(inc > 0)[0] + 1  # record index of each filter event
    assert list(hits) == [4, 8, 12, 16, 20]
    # with alpha0 = 0 every lost joule is a discarded joule
    drop = tr.total[0] - tr.total[-1]
    assert drop == pytest.approx(tr.discarded_cumulative[-1], rel=1e-9)


def test_distributed_keeps_field_in_band():
    f, chans = two_channel_launch()
    g = SampledField(f.samples * 3e3, DT)
    params = FiberParams(gamma=1.2578e-3)
    out, tr = propagate(g, 2e3, 100.0, params, FilterMode("distributed"), chans, 2e3)
    assert energy_in(out, chans) == pytest.approx(out.energy(), rel=1e-12)
    assert tr.total[-1] == pytest.approx(np.sum(tr.per_channel[-1]), rel=1e-12)


def reference_step(q, gdz, linear, oob, phi, kerr, spec):
    """The split step written with the complex exp, a boolean mask, copies
    and the default-normalised ifft, returning fresh arrays. `propagate`
    passes the linear factor already divided by n, so it is multiplied
    back (exactly, n being a power of two); the scratch buffers phi, kerr
    and spec are not used.
    """
    q = q * np.exp(1j * gdz * np.abs(q) ** 2)
    spec = np.fft.fft(q)
    discarded = 0.0
    if oob is not None:
        mask = np.ones(q.size, dtype=bool)
        mask[oob] = False
        out = spec[~mask]
        discarded = float(np.vdot(out, out).real)
        spec = np.where(mask, spec, 0.0)
    spec = spec * (linear * q.size)
    return np.fft.ifft(spec), discarded


@pytest.mark.parametrize(
    "mode, n",
    [(FilterMode("distributed"), N), (FilterMode("lumped", 400.0), N), (FilterMode("none"), N),
     (FilterMode("distributed"), 4 * N)],
    ids=["distributed", "lumped", "none", "distributed-n2048"],
)
def test_step_kernel_matches_reference_formula(monkeypatch, mode, n):
    f, chans = two_channel_launch(n)
    # Kerr phases up to about 13 rad per step, and alpha0 > 0 so the
    # linear factor attenuates
    g = SampledField(f.samples * 3e2, DT)
    params = FiberParams(alpha0=4.6e-5, beta2=-21.667e-27, gamma=1.2578e-3)
    runs = []
    for kernel in (propagation._step_kernel, reference_step):
        monkeypatch.setattr(propagation, "_step_kernel", kernel)
        runs.append(propagate(g, 2e3, 100.0, params, mode, chans, 400.0))
    (out, tr), (ref_out, ref_tr) = runs
    assert np.array_equal(out.samples, ref_out.samples)
    for name in ("total", "per_channel", "discarded_cumulative"):
        assert np.array_equal(getattr(tr, name), getattr(ref_tr, name))
    assert (tr.discarded_cumulative[-1] > 0) == (mode.kind != "none")


@pytest.mark.parametrize("oob", [np.arange(100, 300), None], ids=["filtered", "unfiltered"])
def test_step_kernel_works_in_place(oob):
    f, _ = two_channel_launch()
    q0 = f.samples * 3e2
    gdz, decay = 1.2578e-3 * 100.0, 0.75
    disp_phase = np.exp(0.5j * np.linspace(-3.0, 3.0, N) ** 2) / N
    q = q0.copy()
    phi, kerr, spec = np.empty(N), np.empty(N, dtype=complex), np.empty(N, dtype=complex)
    out, discarded = propagation._step_kernel(q, gdz, disp_phase * decay, oob, phi, kerr, spec)
    assert out is q
    want = np.fft.fft(q0 * np.exp(1j * gdz * np.abs(q0) ** 2))
    booked = 0.0
    if oob is not None:
        booked = float(np.vdot(want[oob], want[oob]).real)
        want[oob] = 0
    assert discarded == booked
    assert np.array_equal(spec, want * (disp_phase * decay))
    assert np.array_equal(q, np.fft.ifft(spec, norm="forward"))


def test_propagate_scratch_is_per_call():
    f, chans = two_channel_launch()
    g = SampledField(f.samples * 3e2, DT)
    launch = g.samples.copy()
    params = FiberParams(alpha0=4.6e-5, beta2=-21.667e-27, gamma=1.2578e-3)
    for mode in (FilterMode("distributed"), FilterMode("lumped", 400.0), FilterMode("none")):
        (out, tr), (again, again_tr) = (
            propagate(g, 2e3, 100.0, params, mode, chans, 400.0) for _ in range(2)
        )
        assert np.array_equal(out.samples, again.samples)
        for name in ("z", "total", "per_channel", "discarded_cumulative"):
            assert np.array_equal(getattr(tr, name), getattr(again_tr, name))
        assert not np.shares_memory(out.samples, again.samples)
        assert np.array_equal(g.samples, launch)


def test_distributed_filter_is_lumped_at_spacing_dz():
    f, chans = two_channel_launch()
    g = SampledField(f.samples * 3e2, DT)
    params = FiberParams(alpha0=4.6e-5, beta2=-21.667e-27, gamma=1.2578e-3)
    (out, tr), (lumped_out, lumped_tr) = (
        propagate(g, 2e3, 100.0, params, mode, chans, 400.0)
        for mode in (FilterMode("distributed"), FilterMode("lumped", 100.0))
    )
    assert np.array_equal(out.samples, lumped_out.samples)
    for name in ("z", "total", "per_channel", "discarded_cumulative"):
        assert np.array_equal(getattr(tr, name), getattr(lumped_tr, name))
    assert tr.discarded_cumulative[-1] > 0


def test_channel_rhs_rejects_an_index_outside_the_grid():
    f, chans = two_channel_launch()
    for n_channel in (-1, len(chans.intervals)):
        with pytest.raises(ValueError, match=rf"n_channel = {n_channel} .* 0\.\.1$"):
            channel_energy_rhs(f, n_channel, chans, gamma=1.2578e-3)


def test_channel_rhs_is_unchanged_by_a_shift_across_zero_hz():
    # the mixing integral sees frequency differences only: moving the field
    # and its grid down 64 bins, so the grid straddles 0 Hz and the rows
    # wrap around the FFT-order array, leaves every channel's rhs
    chans = make_bandset([(0.0, W), (1.5 * W, 2.5 * W), (3 * W, 4 * W)])
    q = sum(rrc_pulse(c, 0.15, 5e-14, ph, DT, N).samples
            for c, ph in zip(chans.intervals, (0.4, -1.0, 2.0)))
    f = SampledField(q, DT)
    down = 64 * DOMEGA
    t = DT * (np.arange(N) - N // 2)  # the window centred on t = 0
    moved = SampledField(q * np.exp(-1j * down * t), DT)
    moved_chans = make_bandset([(lo - down, hi - down) for lo, hi in chans.intervals])
    assert moved_chans.lo < 0 < moved_chans.hi
    rhs, moved_rhs = (
        np.array([channel_energy_rhs(g, i, c, gamma=1.2578e-3) for i in range(3)])
        for g, c in ((f, chans), (moved, moved_chans))
    )
    assert np.max(np.abs(rhs)) > 0
    assert np.max(np.abs(moved_rhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_channel_rhs_single_channel_is_pure_decay():
    _, chans = two_channel_launch()
    lone = make_bandset(chans.intervals[:1])
    p = rrc_pulse(lone.intervals[0], 0.15, 1e-13, 0.0, DT, N)
    e = energy_in(p, lone)
    alpha0 = 4.6e-5
    rhs = channel_energy_rhs(p, 0, lone, gamma=1.2578e-3, alpha0=alpha0)
    assert rhs == pytest.approx(-alpha0 * e, rel=1e-9)
    # and without attenuation a single channel cannot move energy at all
    rhs0 = channel_energy_rhs(p, 0, lone, gamma=1.2578e-3, alpha0=0.0)
    assert abs(rhs0) < 1e-10 * e / 160e3

