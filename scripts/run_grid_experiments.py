"""Run the two bundled 5-channel experiments and print a comparison.

Both configs pin the same pulse energies and phases and launch them
into 160 km of lossless fiber with lumped band filters every 10 km.
The only difference is the grid: `sidon5` places channels on slots
(1, 2, 5, 10, 12) so that no four-wave-mixing product of one channel
pair lands on another pair, while `uniform5` spreads the same five
channels evenly over the same 23-width bandwidth. The table shows what
that one choice costs.

Writes trace CSVs and summary JSONs under --out (default results/), the
same files `fiberband simulate --config <name>` writes for each config.
"""

import argparse
import sys
from pathlib import Path

from fiberband.cli import resolve_config, run_simulation


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    args = ap.parse_args(argv)

    out = Path(args.out)
    rows = []
    for name in ("sidon5", "uniform5"):
        summary = run_simulation(resolve_config(name), out, name, "csv")
        rows.append((name, summary))

    print(f"\n{'grid':<10} {'loss %':>8} {'worst channel dev %':>20} {'discarded J':>13}")
    for name, s in rows:
        print(
            f"{name:<10} {s['total_loss_pct']:>8.4f} "
            f"{s['per_channel_max_dev_pct']:>20.4f} {s['discarded_J']:>13.3e}"
        )
    print(f"\ntraces and summaries written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
