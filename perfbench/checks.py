"""Correctness checks behind the benchmark's error rate.

Every function takes the result of one pass, already reduced to plain
Python values, and returns a list of (check name, passed) pairs. The
functions import nothing from fiberband: a check must not trust the
code it is checking.
"""

from __future__ import annotations

import math

# Published optimal Golomb ruler lengths for 1..11 marks. A Sidon set in
# {1..k} is a Golomb ruler of length at most k - 1, so N(k) is the
# largest mark count whose optimal length fits.
GOLOMB_LENGTHS = (0, 1, 3, 6, 11, 17, 25, 34, 44, 55, 72)

# Relative tolerance on frozen simulate summary values.
SUMMARY_RTOL = 1e-9
# Absolute tolerance on values that are round-off by nature.
SUMMARY_ATOL = 1e-12
# Energy ledger closure |E_total + E_discarded - E_launch| / E_launch.
# Measured residuals sit near 2e-13.
LEDGER_TOL = 1e-12
# The Sidon distributed deviation must stay below this share of the
# uniform one. Measured ratios stay below 0.01.
DECOUPLING_RATIO = 0.1
# Verdict the check path prints for the uniform test grid.
UNIFORM_WITNESS = ((1, 3), (2, 2))


def is_sidon(values) -> bool:
    """All pairwise sums a + b, a <= b, are distinct."""
    vals = list(values)
    sums = [vals[i] + vals[j] for i in range(len(vals)) for j in range(i, len(vals))]
    return len(set(sums)) == len(sums)


def golomb_n(k: int) -> int:
    """N(k) implied by the published optimal ruler lengths."""
    n = max(m for m, length in enumerate(GOLOMB_LENGTHS, start=1) if length <= k - 1)
    if n == len(GOLOMB_LENGTHS):
        raise ValueError(f"k = {k} is beyond the published table")
    return n


def close(actual: float, frozen: float) -> bool:
    return math.isclose(actual, frozen, rel_tol=SUMMARY_RTOL, abs_tol=SUMMARY_ATOL)


def check_simulate(summaries: dict, frozen: dict) -> list:
    """Summary values of each config against the values frozen for it."""
    out = []
    for name, want in frozen.items():
        got = summaries.get(name)
        if got is None:
            out.append((f"{name}.present", False))
            continue
        for key, value in want.items():
            ok = key in got and (
                got[key] == value if isinstance(value, int) else close(got[key], value)
            )
            out.append((f"{name}.{key}", ok))
    return out


def check_sweep(members: list) -> list:
    """Ledger closure per member, and decoupling on the Sidon grid.

    Each member is a dict with keys config, filter, launch_J, final_J,
    discarded_J and max_dev.
    """
    out = []
    for m in members:
        residual = abs(m["final_J"] + m["discarded_J"] - m["launch_J"]) / m["launch_J"]
        label = f"{m['config']}.{m['filter']}"
        out.append((f"{label}.ledger", residual <= LEDGER_TOL))
    dist = {m["config"]: m["max_dev"] for m in members if m["filter"] == "distributed"}
    ok = "sidon5" in dist and "uniform5" in dist and (
        dist["sidon5"] < DECOUPLING_RATIO * dist["uniform5"]
    )
    out.append(("sidon5.distributed.decoupled", ok))
    return out


def check_bounds(table: list, bose: dict, bounds: list) -> list:
    """N(k) rows, their witnesses, the counting bound and Bose sequences.

    `table` holds (N(k), witness) for k = 1..k_max, `bounds` the counting
    bound for the same k, and `bose` maps each prime power q to its
    sequence.
    """
    out = []
    for k, (n_k, witness) in enumerate(table, start=1):
        out.append((f"N({k}).published", n_k == golomb_n(k)))
        witness_ok = (
            len(witness) == n_k
            and all(1 <= v <= k for v in witness)
            and list(witness) == sorted(set(witness))
            and is_sidon(witness)
        )
        out.append((f"N({k}).witness", witness_ok))
        out.append((f"N({k}).bound", n_k <= bounds[k - 1]))
    for q, seq in bose.items():
        ok = (
            len(seq) == q
            and seq[0] == 1
            and seq[-1] < q * q
            and list(seq) == sorted(set(seq))
            and is_sidon(seq)
        )
        out.append((f"bose({q})", ok))
    return out


def check_plan(sequences: dict, verdict: tuple, check_output: str) -> list:
    """Bose sequences, their certification and the check path's witness.

    `sequences` maps N to the Bose sequence, `verdict` is the
    certification of a Bose grid in shuffled order, and
    `check_output` is what the check path printed for the uniform grid.
    """
    out = []
    for n, seq in sequences.items():
        ok = len(seq) == n and seq[0] == 1 and seq[-1] < n * n and is_sidon(seq)
        out.append((f"bose({n})", ok))
    out.append(("certify", tuple(verdict) == (True, None)))
    a, b = UNIFORM_WITNESS
    want = f"energy-decoupled: no witness={a} vs {b}"
    out.append(("check.uniform", check_output.strip() == want))
    return out
