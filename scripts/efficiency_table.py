"""Spectral filling efficiency of Bose-placed channel grids.

For each prime power N the Bose construction gives N channels on slots
inside {1..N^2-1}. Efficiency is channel bandwidth over spanned
bandwidth; `realized` uses the span up to the largest occupied slot,
`budget` charges the full N^2-1 slot allowance. eta*N against the
budget tends to 1/2 from above as N grows.
"""

import argparse
import sys

from fiberband.planner import (
    bose_sequence,
    next_prime_power,
    plan_channels,
    spectral_filling_efficiency,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=64)
    args = ap.parse_args(argv)

    print(f"{'N':>4} {'top slot':>9} {'eta':>9} {'eta*N':>9} {'eta*N (budget)':>15}")
    n = 2
    while n <= args.n_max:
        seq = bose_sequence(n)
        plan = plan_channels(seq, 1.0)
        eta = spectral_filling_efficiency(plan)
        eta_budget = spectral_filling_efficiency(plan, slot_budget=n * n - 1)
        print(
            f"{n:>4} {max(seq):>9} {eta:>9.5f} {eta * n:>9.5f} "
            f"{eta_budget * n:>15.6f}"
        )
        n = next_prime_power(n + 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
