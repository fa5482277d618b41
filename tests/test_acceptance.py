"""Acceptance suite: ten numbered criteria, one test and one verdict each.

Every test prints `criterion NN <name>: PASS|FAIL (detail)` before its
assertions, so a `pytest -v -s` run shows one verdict line per
criterion. The tolerances here are contracts, not tuning knobs; a
criterion that cannot be met by the implementation is left to fail
rather than loosened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fiberband.cli import resolve_config
from fiberband.fields import (
    SampledField,
    band_energy,
    band_mask,
    inverse,
    parseval_residual,
    transform,
)
from fiberband.planner import (
    bose_sequence,
    erdos_bound,
    max_sidon_table,
    next_prime_power,
    plan_channels,
    spectral_filling_efficiency,
)
from fiberband.propagation import (
    FiberParams,
    FilterMode,
    propagate,
)
from fiberband.threetone import ToneState, integrate_tones

from oracles import channel_energy_rhs, is_sidon, power_rhs

KM = 1e3
RUN_KM = 160.0

TONE_PARAMS = FiberParams.from_engineering(0.0, -21.667, 1.2578)
TONE_STATE = ToneState(0.03 + 0j, 0.04 * np.exp(0.5j), 0.02 * np.exp(-1.1j),
                       2 * np.pi * 10e9)


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(line + (f" ({detail})" if detail else ""))


def total_deviation(cfg, dz_km: float) -> float:
    """Max relative drift of recorded total energy from its launch value."""
    _, trace = propagate(
        cfg.launch_field(),
        RUN_KM * KM,
        dz_km * KM,
        cfg.fiber(),
        cfg.filter_mode(),
        cfg.channels(),
        5.0 * KM,
    )
    total = np.asarray(trace.total)
    return float(np.max(np.abs(total - total[0])) / total[0])


def test_criterion_01_transform_energy_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_parseval = worst_roundtrip = 0.0
    for _ in range(100):
        n = int(rng.choice([2**10, 2**11, 2**12, 2**13, 2**14]))
        dt = float(rng.uniform(0.05e-12, 50e-12))
        t0 = float(rng.uniform(-1.0, 0.0)) * n * dt
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = SampledField(samples, dt, t0)
        worst_parseval = max(worst_parseval, parseval_residual(f))
        back = inverse(transform(f))
        err = np.linalg.norm(back.samples - f.samples) / np.linalg.norm(f.samples)
        worst_roundtrip = max(worst_roundtrip, float(err))
    elapsed = time.perf_counter() - start
    ok = worst_parseval < 1e-12 and worst_roundtrip < 1e-12 and elapsed < 10.0
    verdict(1, "transform energy suite", ok,
            f"parseval {worst_parseval:.2e}, roundtrip {worst_roundtrip:.2e}, "
            f"{elapsed:.2f} s")
    assert worst_parseval < 1e-12
    assert worst_roundtrip < 1e-12
    assert elapsed < 10.0


def test_criterion_02_distributed_energy_invariance():
    # lossless distributed-filter run: total in-band energy should be a
    # constant of the motion; the residual drift is the per-step Kerr
    # leakage the filter shaves, which is first order in dz
    start = time.perf_counter()
    cfg = resolve_config("sidon5")
    cfg = replace(
        cfg,
        filter="distributed",
        energies_pj=tuple(0.02 * e for e in cfg.energies_pj),
    )
    dev_base = total_deviation(cfg, 0.1)
    dev_half = total_deviation(cfg, 0.05)
    elapsed = time.perf_counter() - start
    ok = dev_base < 1e-6 and dev_half <= 0.5 * dev_base and elapsed < 120.0
    verdict(2, "distributed energy invariance", ok,
            f"dev {dev_base:.3e}, halved-step dev {dev_half:.3e}, "
            f"{elapsed:.1f} s")
    assert dev_base < 1e-6
    assert dev_half <= 0.5 * dev_base
    assert elapsed < 120.0


def test_criterion_03_attenuation_law():
    cfg = resolve_config("sidon5")
    cfg = replace(
        cfg,
        alpha0_db_per_km=0.2,
        filter="distributed",
        energies_pj=tuple(1e-3 * e for e in cfg.energies_pj),
    )
    _, trace = propagate(
        cfg.launch_field(),
        RUN_KM * KM,
        0.1 * KM,
        cfg.fiber(),
        cfg.filter_mode(),
        cfg.channels(),
        5.0 * KM,
    )
    expected = trace.total[0] * np.exp(-cfg.fiber().alpha0 * np.asarray(trace.z))
    err = float(np.max(np.abs(trace.total - expected) / expected))
    ok = err < 1e-6
    verdict(3, "attenuation law", ok, f"max relative error {err:.3e}")
    assert err < 1e-6


def test_criterion_04_sidon_grid_run():
    start = time.perf_counter()
    cfg = resolve_config("sidon5")
    _, trace = propagate(
        cfg.launch_field(),
        *cfg.run_lengths()[:2],
        cfg.fiber(),
        cfg.filter_mode(),
        cfg.channels(),
        cfg.run_lengths()[2],
    )
    elapsed = time.perf_counter() - start
    loss_pct = 100.0 * trace.total_loss_fraction()
    launch = trace.per_channel[0]
    dev = np.max(np.abs(trace.per_channel - launch) / launch, axis=0)
    ok = 1.9 <= loss_pct <= 2.5 and float(np.max(dev)) < 0.03 and elapsed < 300.0
    verdict(4, "sidon grid run", ok,
            f"loss {loss_pct:.4f}%, per-channel dev "
            f"{np.array2string(100 * dev, precision=3)}%, {elapsed:.1f} s")
    assert 1.9 <= loss_pct <= 2.5
    assert elapsed < 300.0
    # Channel 1 converges to ~3.3% deviation on this grid (halving dz or
    # widening the window does not move it below 3%), so this clause
    # fails; it is asserted anyway because the threshold is the contract.
    assert float(np.max(dev)) < 0.03


def test_criterion_05_uniform_grid_run():
    cfg = resolve_config("uniform5")
    _, trace = propagate(
        cfg.launch_field(),
        *cfg.run_lengths()[:2],
        cfg.fiber(),
        cfg.filter_mode(),
        cfg.channels(),
        cfg.run_lengths()[2],
    )
    loss_pct = 100.0 * trace.total_loss_fraction()
    final_dev = np.abs(trace.per_channel[-1] / trace.per_channel[0] - 1.0)
    ok = 0.68 <= loss_pct <= 1.28 and float(np.max(final_dev)) > 0.30
    verdict(5, "uniform grid run", ok,
            f"loss {loss_pct:.4f}%, worst final deviation "
            f"{100 * float(np.max(final_dev)):.2f}%")
    assert 0.68 <= loss_pct <= 1.28
    assert float(np.max(final_dev)) > 0.30


def test_criterion_06_lumped_loss_scaling():
    spacings = (2.5, 5.0, 10.0, 20.0)
    discarded = []
    for spacing in spacings:
        cfg = replace(resolve_config("uniform5"), filter_spacing_km=spacing)
        _, trace = propagate(
            cfg.launch_field(),
            *cfg.run_lengths()[:2],
            cfg.fiber(),
            cfg.filter_mode(),
            cfg.channels(),
            RUN_KM * KM,
        )
        discarded.append(float(trace.discarded_cumulative[-1]))
    discarded = np.asarray(discarded)
    monotone = bool(np.all(np.diff(discarded) > 0))
    slope, intercept = np.polyfit(spacings, discarded, 1)
    fit = slope * np.asarray(spacings) + intercept
    ss_res = float(np.sum((discarded - fit) ** 2))
    ss_tot = float(np.sum((discarded - discarded.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    ok = monotone and r2 > 0.95
    verdict(6, "lumped loss scaling", ok,
            f"discarded {np.array2string(discarded, precision=3)} J, R2 {r2:.4f}")
    assert monotone
    assert r2 > 0.95


def test_criterion_07_three_tone_oracle():
    # conservation over 100 km
    traj = integrate_tones(TONE_STATE, 100.0 * KM, 100.0, TONE_PARAMS)
    total0 = sum(traj[0].powers())
    drift = max(abs(sum(st.powers()) - total0) for st in traj) / total0

    # with the middle tone dark the mixing term is inactive
    two = ToneState(0.03 + 0j, 0j, 0.02j, TONE_STATE.domega)
    traj2 = integrate_tones(two, 100.0 * KM, 100.0, TONE_PARAMS)
    p0 = traj2[0].powers()
    two_dev = max(
        abs(st.powers()[i] - p0[i]) / p0[i] for st in traj2 for i in (0, 2)
    )

    # analytic power flow against trajectory finite differences
    dz = 10.0
    traj3 = integrate_tones(TONE_STATE, 40.0 * KM, dz, TONE_PARAMS)
    i = 3000
    fd = (
        np.asarray(traj3[i + 1].powers()) - np.asarray(traj3[i - 1].powers())
    ) / (2 * dz)
    rhs = np.asarray(power_rhs(traj3[i], TONE_PARAMS.gamma))
    fd_err = float(np.max(np.abs(fd - rhs)) / np.max(np.abs(rhs)))

    ok = drift < 1e-10 and two_dev < 1e-10 and fd_err < 1e-6
    verdict(7, "three-tone oracle", ok,
            f"drift {drift:.2e}, two-tone dev {two_dev:.2e}, fd {fd_err:.2e}")
    assert drift < 1e-10
    assert two_dev < 1e-10
    assert fd_err < 1e-6


def test_criterion_08_channel_rhs_crosscheck():
    # decoupled grid: the mixing integral is numerically zero at the
    # scale of one total-run energy turnover
    cfg = resolve_config("sidon5")
    chans = cfg.channels()
    params = cfg.fiber()
    mode = cfg.filter_mode()
    launch = cfg.launch_field()
    fields = [launch]
    for z_km in (80.0, 160.0):
        f, _ = propagate(launch, z_km * KM, 0.1 * KM, params, mode, chans,
                         z_km * KM)
        fields.append(f)
    worst = 0.0
    for f in fields:
        power = np.abs(np.fft.fft(f.samples)) ** 2
        for i, row in enumerate(band_mask(f.n, f.dt, chans)):
            energy = band_energy(power, row, f.dt)
            rhs = channel_energy_rhs(f, i, chans, params.gamma, params.alpha0)
            worst = max(worst, abs(rhs) / (energy / (RUN_KM * KM)))

    # uniform grid: the integral must call the initial trend direction
    ucfg = resolve_config("uniform5")
    uch = ucfg.channels()
    uparams = ucfg.fiber()
    ulaunch = ucfg.launch_field()
    rhs0 = np.array(
        [channel_energy_rhs(ulaunch, i, uch, uparams.gamma, 0.0)
         for i in range(len(uch.intervals))]
    )
    _, tr = propagate(ulaunch, 1.0 * KM, 0.1 * KM, uparams,
                      FilterMode("distributed"), uch, 1.0 * KM)
    trend = np.asarray(tr.per_channel[-1]) - np.asarray(tr.per_channel[0])
    signs_ok = bool(np.all(np.sign(rhs0) == np.sign(trend)) and np.all(rhs0 != 0))

    ok = worst < 1e-4 and signs_ok
    verdict(8, "channel energy rhs", ok,
            f"worst |rhs|/(E/L) {worst:.2e}, signs {'agree' if signs_ok else 'differ'}")
    assert worst < 1e-4
    assert signs_ok


def test_criterion_09_bose_construction():
    start = time.perf_counter()
    reference = (1, 6, 22, 62, 68, 69, 71, 88, 99, 103, 113)
    eleven = tuple(bose_sequence(11))
    sizes = []
    q = 2
    while q <= 64:
        sizes.append(q)
        q = next_prime_power(q + 1)
    all_good = True
    for n in sizes:
        seq = bose_sequence(n)
        all_good &= is_sidon(seq) and len(seq) == n and max(seq) <= n * n - 1
    elapsed = time.perf_counter() - start
    ok = eleven == reference and all_good and elapsed < 10.0
    verdict(9, "bose construction", ok,
            f"{len(sizes)} prime powers, {elapsed:.2f} s")
    assert eleven == reference
    assert all_good
    assert elapsed < 10.0


def canonical_ruler(seq) -> tuple:
    fwd = tuple(x - min(seq) for x in seq)
    rev = tuple(max(seq) - x for x in reversed(tuple(seq)))
    return min(fwd, rev)


def test_criterion_10_bound_suite():
    start = time.perf_counter()
    table = max_sidon_table(60)
    violations = [
        k for k in range(1, 61) if table[k - 1][0] > erdos_bound(k)
    ]
    n12, witness = table[11]

    eta_n = []
    for n in (11, 13, 16, 25, 49):
        plan = plan_channels(bose_sequence(n), 1.0)
        eta_n.append(n * spectral_filling_efficiency(plan, slot_budget=n * n - 1))
    eta_n = np.asarray(eta_n)
    in_band = bool(np.all((0.5 < eta_n) & (eta_n < 0.65)))
    decreasing = bool(np.all(np.diff(eta_n) < 0))
    elapsed = time.perf_counter() - start

    ok = (not violations and n12 == 5
          and canonical_ruler(witness) == canonical_ruler((1, 2, 5, 10, 12))
          and in_band and decreasing and elapsed < 60.0)
    verdict(10, "bound suite", ok,
            f"violations {violations}, N(12)={n12}, "
            f"eta*N {np.array2string(eta_n, precision=6)}, {elapsed:.1f} s")
    assert not violations
    assert n12 == 5
    assert canonical_ruler(witness) == canonical_ruler((1, 2, 5, 10, 12))
    assert in_band
    assert decreasing
    assert elapsed < 60.0
