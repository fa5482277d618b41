"""Channel grids on the angular-frequency axis.

A band set is a finite union of pairwise-disjoint closed intervals
[lo, hi] in rad/s. It models a multi-channel WDM occupancy mask; single
intervals model one channel. `BandSet` checks and sorts its intervals
when it is built, so every band set is a valid channel grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class BandError(ValueError):
    pass


class EmptyBandSet(BandError):
    pass


class OverlappingIntervals(BandError):
    """Two intervals intersect; `pair` holds them in sorted order."""

    def __init__(self, a: tuple[float, float], b: tuple[float, float]):
        super().__init__(f"intervals {a} and {b} overlap")
        self.pair = (a, b)


@dataclass(frozen=True)
class BandSet:
    """Sorted union of disjoint closed frequency intervals (rad/s).

    Built from any iterable of (lo, hi) pairs, which it sorts. Raises
    EmptyBandSet on an empty list, OverlappingIntervals if any two
    intervals intersect (shared endpoints count as intersecting;
    `fields.bin_ranges` also rejects a bin in two intervals), and
    BandError if a bound is not finite (an int past the largest float
    is not) or some lo >= hi.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = [(_bound(lo), _bound(hi)) for lo, hi in self.intervals]
        if not ivs:
            raise EmptyBandSet("band set needs at least one interval")
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise BandError(f"interval ({lo}, {hi}) has a non-finite bound")
            if not lo < hi:
                raise BandError(f"interval ({lo}, {hi}) has nonpositive width")
        ivs.sort()
        for a, b in zip(ivs, ivs[1:]):
            if b[0] <= a[1]:
                raise OverlappingIntervals(a, b)
        object.__setattr__(self, "intervals", tuple(ivs))

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[-1][1]


def _bound(x) -> float:
    """x as a float, an int past the largest float as +-inf: the package's one
    rule for an int bound, which `float` alone would raise OverflowError on."""
    try:
        return float(x)
    except OverflowError:  # an int past the largest float
        return math.inf if x > 0 else -math.inf
