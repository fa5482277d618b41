"""Command-line front end: simulate, plan, check, three-tone, bounds.

Outputs are plain CSV/JSON files designed to be diffable: identical
configs produce bit-identical files. Plot rendering is out of scope;
the trace files carry everything a plotting tool needs.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import json
import math
import sys
from dataclasses import replace
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .bands import BandError
from .config import GHZ, ConfigError, ExperimentConfig, parse_config
from .fields import parseval_residual
from .planner import (
    bose_sequence,
    densest_sidon,
    erdos_bound,
    is_energy_decoupled,
    max_sidon_table,
    next_prime_power,
    plan_channels,
    sidon_for_channels,
    spectral_filling_efficiency,
)
from .propagation import FiberParams, propagate, step_count
from .threetone import TonesNotFinite, ToneState, integrate_tones


# Largest --n that `plan --mode bose` accepts. Building GF(N) and
# certifying the N(N+1)/2 sum intervals peaked at 33, 41 and 72 MB of
# resident memory for N = 256, 512 and 1024, about x1.8 per doubling
# at the top, where the sum-interval arrays dominate.
BOSE_BUDGET = 1024


def resolve_config(name: str) -> ExperimentConfig:
    """Load a config from a path, or fall back to a bundled one by name."""
    path = Path(name)
    if not path.exists():
        stem = name if name.endswith(".cfg") else name + ".cfg"
        path = resources.files("fiberband").joinpath("configs", stem)
        if not path.is_file():
            raise FileNotFoundError(f"no config file or bundled config named {name!r}")
    return parse_config(path.read_text(encoding="utf-8"))


def trace_table(trace) -> tuple[list[str], list[list[float]]]:
    """Column names and rows of a trace file: z in km, energies in J."""
    columns = (
        ["z_km", "E_total_J"]
        + [f"E_ch{i + 1}_J" for i in range(trace.n_channels)]
        + ["E_discarded_cum_J"]
    )
    rows = np.column_stack(
        (trace.z / 1e3, trace.total, trace.per_channel, trace.discarded_cumulative)
    ).tolist()
    return columns, rows


def write_trace_csv(path: Path, trace) -> None:
    columns, rows = trace_table(trace)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_trace_json(path: Path, trace) -> None:
    columns, rows = trace_table(trace)
    doc = {"columns": columns, "rows": rows}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def run_simulation(cfg: ExperimentConfig, out_dir: Path, stem: str, fmt: str) -> dict:
    """Propagate per config; write trace and summary files; return summary."""
    launch = cfg.launch_field()
    z_total, dz, record_every = cfg.run_lengths()
    final, trace = propagate(
        launch,
        z_total,
        dz,
        cfg.fiber(),
        cfg.filter_mode(),
        cfg.channels(),
        record_every,
    )
    loss = trace.total_loss_fraction()
    summary = {
        "total_loss_pct": 100.0 * loss,
        "per_channel_max_dev_pct": 100.0 * trace.max_channel_deviation(),
        "parseval_residual": parseval_residual(final),
        "steps": step_count(z_total, dz),
        "seed": cfg.seed,
        "launch_energy_J": float(trace.total[0]),
        "final_energy_J": float(trace.total[-1]),
        "discarded_J": float(trace.discarded_cumulative[-1]),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        write_trace_json(out_dir / f"{stem}_trace.json", trace)
    else:
        write_trace_csv(out_dir / f"{stem}_trace.csv", trace)
    (out_dir / f"{stem}_summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def cmd_simulate(args) -> int:
    cfg = resolve_config(args.config)
    if args.seed is not None and cfg.energies_pj is not None and cfg.phases_rad is not None:
        raise ConfigError(f"run.seed: --seed {args.seed} cannot change the launch, since "
                          "pulses.energies_pj and pulses.phases_rad are both pinned")
    overrides = dict(dz_km=args.dz_km, filter_spacing_km=args.filter_spacing_km,
                     record_every_km=args.record_every_km, seed=args.seed)
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    stem = Path(args.config).stem
    summary = run_simulation(cfg, Path(args.out), stem, args.format)
    print(f"steps                  : {summary['steps']}")
    print(f"total loss             : {summary['total_loss_pct']:.4f} %")
    print(f"max channel deviation  : {summary['per_channel_max_dev_pct']:.4f} %")
    print(f"parseval residual      : {summary['parseval_residual']:.3e}")
    return 0


def cmd_plan(args) -> int:
    n, width = args.n, args.width_ghz
    if n < 1:
        raise ValueError(f"--n: channel count must be at least 1, got {n}")
    if args.mode == "bose" and n > BOSE_BUDGET:
        raise ValueError(f"--n: {n} channels exceed the bose budget of {BOSE_BUDGET}")
    if not 0 < width < math.inf:
        raise ValueError(f"--width-ghz: must be finite and positive, got {width}")
    try:
        seq = densest_sidon(n) if args.mode == "densest" else sidon_for_channels(n)
    except ValueError as exc:
        raise ValueError(f"--n: {exc}") from None
    # widths in GHz carry through; the verdict and eta are scale-free, so certify
    # at width 1, where floats hold the slot edges exactly and touching sums stay apart
    try:
        plan = plan_channels(seq, width)
    except ValueError as exc:
        raise ValueError(f"--width-ghz: {exc}") from None
    decoupled, witness = is_energy_decoupled(plan_channels(seq, 1.0).intervals())
    try:
        eta = spectral_filling_efficiency(plan, slot_budget=args.k)
    except ValueError as exc:
        raise ValueError(f"--k: {exc}") from None
    print(f"sequence      : {tuple(seq)}")
    print(f"channel width : {width:g} GHz")
    centers = ", ".join(f"{c:g}" for c in plan.centers())
    print(f"centers (GHz) : {centers}")
    edges = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in plan.intervals())
    print(f"edges (GHz)   : {edges}")
    print(f"decoupled     : {decoupled}" + (f" witness {witness}" if witness else ""))
    print(f"eta           : {eta:.6f}")
    print(f"eta * N       : {eta * plan.n:.6f}")
    return 0


def cmd_check(args) -> int:
    path = Path(args.intervals)
    intervals = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            lo, hi = (float(tok) for tok in line.replace(",", " ").split())
        except ValueError:  # not two tokens, or a token that is no number
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{path}, line {lineno}: expected two finite numbers 'lo hi', "
                             f"got {line!r}")
        intervals.append((lo, hi))
    try:
        decoupled, witness = is_energy_decoupled(intervals)
    except BandError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if decoupled:
        print("energy-decoupled: yes")
        return 0
    print(f"energy-decoupled: no witness={witness[0]} vs {witness[1]}")
    return 0


def _tone_flags(args) -> tuple[list[float], list[float]]:
    """Powers and phases of the tones; a bad flag raises ValueError naming it."""
    def check(dest: str, ok: bool, rule: str) -> None:
        if not ok:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag}: must be {rule}, got {getattr(args, dest)}")

    tones = {}
    for dest in ("powers_w", "phases_rad"):
        try:
            tones[dest] = [float(x) for x in getattr(args, dest).split(",")]
        except ValueError:
            tones[dest] = []
        check(dest, len(tones[dest]) == 3, f"three {dest.split('_')[0]} separated by commas")
    powers, phases = tones["powers_w"], tones["phases_rad"]
    check("powers_w", all(0 <= p < math.inf for p in powers), "finite and nonnegative")
    check("phases_rad", all(map(math.isfinite, phases)), "finite")
    for dest in ("spacing_ghz", "beta2_ps2_per_km", "gamma_per_w_km"):
        check(dest, math.isfinite(getattr(args, dest)), "finite")
    domega = args.spacing_ghz * GHZ  # the dispersion phase needs its square
    check("spacing_ghz", math.isfinite(domega * domega),
          f"below {math.sqrt(sys.float_info.max) / GHZ:.4g} GHz, where its angular "
          "frequency squared leaves the floats")
    check("z_km", 0 <= args.z_km < math.inf, "finite and nonnegative")
    check("dz_m", 0 < args.dz_m < math.inf, "finite and positive")
    check("dz_m", step_count(args.z_km * 1e3, args.dz_m) is not None,
          f"a divisor of --z-km = {args.z_km!r} km ({args.z_km * 1e3!r} m)")
    return powers, phases


def cmd_three_tone(args) -> int:
    powers, phases = _tone_flags(args)
    amps = [math.sqrt(p) * complex(math.cos(ph), math.sin(ph)) for p, ph in zip(powers, phases)]
    state = ToneState(*amps, args.spacing_ghz * GHZ)
    params = FiberParams.from_engineering(
        0.0, args.beta2_ps2_per_km, args.gamma_per_w_km
    )
    try:
        traj = integrate_tones(state, args.z_km * 1e3, args.dz_m, params)
    except TonesNotFinite as exc:
        # name the faster of the two phase rotations the step could not follow
        dispersion = 0.5 * abs(params.beta2) * state.domega * state.domega
        kerr = abs(params.gamma) * sum(powers)
        flag, what, rate = (
            ("--spacing-ghz", "dispersion phase (with --beta2-ps2-per-km)", dispersion)
            if dispersion >= kerr else ("--powers-w", "Kerr phase (with --gamma-per-w-km)", kerr))
        raise ValueError(
            f"{flag}: the tone powers stop being finite at z = {exc.z / 1e3!r} km, as the "
            f"{what} turns {rate * args.dz_m:.3g} rad in one --dz-m step"
        ) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "three_tone.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_km", "P1_W", "P2_W", "P3_W"])
        for st in traj:
            writer.writerow([repr(float(x)) for x in (st.z / 1e3, *st.powers())])
    totals = np.array([sum(st.powers()) for st in traj])
    # dark tones stay dark, so an all-zero launch has no drift
    drift = np.max(np.abs(totals - totals[0])) / totals[0] if totals[0] else 0.0
    print(f"wrote {path}")
    print(f"total-power drift: {drift:.3e} relative")
    return 0


def cmd_bounds(args) -> int:
    k_max = args.k_max
    try:
        table = max_sidon_table(k_max)
    except ValueError as exc:
        raise ValueError(f"--k-max: {exc}") from None
    bose_seqs = []
    q = 2
    while q <= k_max:
        bose_seqs.append(list(bose_sequence(q)))
        q = next_prime_power(q + 1)
    print(f"{'k':>4} {'N(k)':>5} {'bound':>8} {'bose_fit':>8}")
    for k in range(1, k_max + 1):
        n_k, _ = table[k - 1]
        # the single-element sequence (1) always fits
        fit = max([1] + [bisect.bisect_right(seq, k) for seq in bose_seqs])
        print(f"{k:>4} {n_k:>5} {erdos_bound(k):>8.3f} {fit:>8}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call.

    Parsing leaves it unchanged; callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="fiberband",
        description="NLSE band-filter simulator and decoupled-grid planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="propagate a configured launch field")
    sim.add_argument("--config", required=True, help="config path or bundled name")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--dz-km", type=float, default=None)
    sim.add_argument("--filter-spacing-km", type=float, default=None)
    sim.add_argument("--record-every-km", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=cmd_simulate)

    plan = sub.add_parser("plan", help="construct and certify a channel grid")
    plan.add_argument("--n", type=int, required=True, help="channel count")
    plan.add_argument("--width-ghz", type=float, default=1.0)
    plan.add_argument("--mode", choices=("densest", "bose"), default="densest")
    plan.add_argument("--k", type=int, default=None,
                      help="slot budget k for eta, at least the top slot")
    plan.set_defaults(func=cmd_plan)

    chk = sub.add_parser("check", help="energy-decoupling verdict for intervals")
    chk.add_argument("--intervals", required=True, help="file of 'lo hi' lines")
    chk.set_defaults(func=cmd_check)

    tt = sub.add_parser("three-tone", help="three-tone coupled-mode reference run")
    tt.add_argument("--powers-w", default="1.0,1.0,1.0")
    tt.add_argument("--phases-rad", default="0.0,0.0,0.0")
    tt.add_argument("--spacing-ghz", type=float, default=5.0)
    tt.add_argument("--z-km", type=float, default=1.0)
    tt.add_argument("--dz-m", type=float, default=1.0)
    tt.add_argument("--beta2-ps2-per-km", type=float, default=-21.667)
    tt.add_argument("--gamma-per-w-km", type=float, default=1.2578)
    tt.add_argument("--out", default=".")
    tt.set_defaults(func=cmd_three_tone)

    bnd = sub.add_parser("bounds", help="exhaustive N(k) vs counting bound table")
    bnd.add_argument("--k-max", type=int, default=30)
    bnd.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
