"""Sweep the lumped-filter spacing on the uniform grid.

The energy shaved by each band filter grows with the distance the field
mixes freely between filters, so cumulative discarded energy should be
close to linear in the spacing. Prints the sweep and the linear-fit R2.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from fiberband.cli import resolve_config
from fiberband.propagation import propagate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spacings-km", default="2.5,5,10,20")
    ap.add_argument("--config", default="uniform5")
    args = ap.parse_args(argv)

    spacings = [float(s) for s in args.spacings_km.split(",")]
    discarded = []
    for spacing in spacings:
        cfg = replace(resolve_config(args.config), filter_spacing_km=spacing)
        z_total, dz, _ = cfg.run_lengths()
        _, trace = propagate(
            cfg.launch_field(), z_total, dz, cfg.fiber(), cfg.filter_mode(),
            cfg.channels(), z_total,
        )
        discarded.append(float(trace.discarded_cumulative[-1]))
        print(f"spacing {spacing:6.2f} km   discarded {discarded[-1]:.6e} J")

    y = np.asarray(discarded)
    slope, intercept = np.polyfit(spacings, y, 1)
    fit = slope * np.asarray(spacings) + intercept
    r2 = 1.0 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
    print(f"\nlinear fit: {slope:.3e} J/km * spacing + {intercept:.3e} J   R2 = {r2:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
