"""The four workloads, each driven through fiberband's public functions.

A workload is built once per process from the seed (`__init__`, part of
set-up), then `run()` performs one timed pass and returns its result,
and `check()` reduces a result to (check name, passed) pairs outside
the timed region. Calls go through module attributes
(`propagation.propagate`, not a name imported from it), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np

from fiberband import cli, planner, propagation

import checks

HERE = Path(__file__).resolve().parent
FROZEN = json.loads((HERE / "frozen.json").read_text(encoding="utf-8"))

CONFIGS = ("sidon5", "uniform5")


class Simulate:
    """The `fiberband simulate` path on both bundled configs. Seed-free:
    the bundled configs pin their launch, so the seed changes nothing."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.configs = {name: cli.resolve_config(name) for name in CONFIGS}
        # trace files compared with the frozen ones, and how many matched
        self.traces_compared = 0
        self.traces_identical = 0

    def run(self) -> dict:
        return {
            name: cli.run_simulation(cfg, self.work, name, "csv")
            for name, cfg in self.configs.items()
        }

    def check(self, result: dict) -> list:
        for name in CONFIGS:
            data = (self.work / f"{name}_trace.csv").read_bytes()
            self.traces_compared += 1
            if hashlib.sha256(data).hexdigest() == FROZEN["simulate_trace_sha256"][name]:
                self.traces_identical += 1
        return checks.check_simulate(result, FROZEN["simulate_summary"])

    def notes(self) -> str:
        return f"trace files bit-identical to frozen: {self.traces_identical}/{self.traces_compared}"


# (filter kind, lumped spacing in km) for the members of the sweep
SWEEP_FILTERS = (
    ("distributed", None),
    ("lumped", 2.5),
    ("lumped", 5.0),
    ("lumped", 10.0),
    ("lumped", 20.0),
    ("none", None),
)


def launch_seed(seed: int, member: int) -> int:
    """Config seed for one filter setting, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, member]).generate_state(1)[0])


class Sweep:
    """Both grids under every filter setting over Z_KM, recording only at
    the end.

    Launch phases are unpinned and drawn by `pulse_parameters` from a
    config seed derived from the workload seed, one per filter setting,
    so the two grids of a setting share their launch.
    """

    Z_KM = 40.0

    def __init__(self, seed: int, work: Path):
        self.members = []
        for idx, (kind, spacing) in enumerate(SWEEP_FILTERS):
            for name in CONFIGS:
                cfg = dataclasses.replace(
                    cli.resolve_config(name),
                    filter=kind,
                    filter_spacing_km=spacing,
                    phases_rad=None,
                    z_total_km=self.Z_KM,
                    seed=launch_seed(seed, idx),
                )
                cfg.validate()
                z_total, dz, _ = cfg.run_lengths()
                self.members.append({
                    "config": name,
                    "filter": kind if spacing is None else f"lumped{spacing:g}km",
                    "cfg": cfg,
                    "args": (z_total, dz, cfg.fiber(), cfg.filter_mode(), cfg.channels(), z_total),
                })

    def run(self) -> list:
        return [
            propagation.propagate(m["cfg"].launch_field(), *m["args"])[1]
            for m in self.members
        ]

    def check(self, traces: list) -> list:
        rows = [
            {
                "config": m["config"],
                "filter": m["filter"],
                "launch_J": float(tr.total[0]),
                "final_J": float(tr.total[-1]),
                "discarded_J": float(tr.discarded_cumulative[-1]),
                "max_dev": tr.max_channel_deviation(),
            }
            for m, tr in zip(self.members, traces)
        ]
        return checks.check_sweep(rows)


class Bounds:
    """The `fiberband bounds` work at K_MAX, from a cleared table cache.
    Seed-free: the search is exhaustive and deterministic."""

    K_MAX = 40

    def __init__(self, seed: int, work: Path):
        # held before any tracing wrapper replaces the name
        self.clear_cache = planner.max_sidon_table.cache_clear

    def run(self) -> tuple:
        self.clear_cache()
        table = planner.max_sidon_table(self.K_MAX)
        bose = {}
        q = 2
        while q <= self.K_MAX:
            bose[q] = tuple(planner.bose_sequence(q))
            q = planner.next_prime_power(q + 1)
        bounds = [planner.erdos_bound(k) for k in range(1, self.K_MAX + 1)]
        return table, bose, bounds

    def check(self, result: tuple) -> list:
        return checks.check_bounds(*result)


# Uniformly spaced channels: the pair sums (1, 3) and (2, 2) collide.
UNIFORM_GRID = "0 2\n4 6\n8 10\n"


class Plan:
    """Bose sequences at N = 64 (GF(2^6) base, nested tuple arithmetic)
    and N = 41, certification of the N = 41 grid in a channel order
    shuffled from the seed, and the check path on a failing uniform
    grid."""

    SIZES = (64, 41)
    CERTIFIED = 41

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.uniform = work / "uniform.txt"
        self.uniform.write_text(UNIFORM_GRID, encoding="utf-8")

    def run(self) -> tuple:
        seqs = {n: tuple(planner.bose_sequence(n)) for n in self.SIZES}
        intervals = planner.plan_channels(seqs[self.CERTIFIED], 1.0).intervals()
        self.rng.shuffle(intervals)
        verdict = planner.is_energy_decoupled(intervals)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["check", "--intervals", str(self.uniform)])
        return seqs, verdict, out.getvalue()

    def check(self, result: tuple) -> list:
        return checks.check_plan(*result)


WORKLOADS = {"simulate": Simulate, "sweep": Sweep, "bounds": Bounds, "plan": Plan}
