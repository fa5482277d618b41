"""Command-line front end: simulate, plan, check, bounds.

Outputs are plain CSV/JSON files designed to be diffable: `simulate`
takes every setting of a run from its config file, so identical configs
produce bit-identical files. Plot rendering is out of scope;
the trace files carry everything a plotting tool needs.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import json
import math
import sys
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .bands import BandError
from .config import ExperimentConfig, parse_config
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
from .propagation import propagate, step_count


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
    summary = run_simulation(cfg, Path(args.out), Path(args.config).stem, args.format)
    print(f"steps                  : {summary['steps']}")
    print(f"total loss             : {summary['total_loss_pct']:.4f} %")
    print(f"max channel deviation  : {summary['per_channel_max_dev_pct']:.4f} %")
    print(f"parseval residual      : {summary['parseval_residual']:.3e}")
    return 0


def cmd_plan(args) -> int:
    n, width = args.n, args.width_ghz
    if not 0 < width < math.inf:  # before a densest search, which can take seconds
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
    print(f"sequence      : {seq}")
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


def cmd_bounds(args) -> int:
    k_max = args.k_max
    try:
        table = max_sidon_table(k_max)
    except ValueError as exc:
        raise ValueError(f"--k-max: {exc}") from None
    bose_seqs = []
    q = 2
    while q <= k_max:
        bose_seqs.append(bose_sequence(q))
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
