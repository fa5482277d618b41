"""Band-set algebra on the angular-frequency axis.

A band set is a finite union of pairwise-disjoint closed intervals
[lo, hi] in rad/s. It models a multi-channel WDM occupancy mask; single
intervals model one channel. All operations are pure and return new
objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class BandError(ValueError):
    pass


class EmptyBandSet(BandError):
    pass


class OverlappingIntervals(BandError):
    pass


@dataclass(frozen=True)
class BandSet:
    """Sorted union of disjoint closed frequency intervals (rad/s)."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[-1][1]

    @property
    def measure(self) -> float:
        """Total occupied bandwidth, sum of interval widths in rad/s."""
        return sum(hi - lo for lo, hi in self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def centers(self) -> list[float]:
        return [0.5 * (lo + hi) for lo, hi in self.intervals]

    def widths(self) -> list[float]:
        return [hi - lo for lo, hi in self.intervals]

    def contains(self, omega: float) -> bool:
        return any(lo <= omega <= hi for lo, hi in self.intervals)

    def channel(self, n: int) -> BandSet:
        """Single-interval band set for channel index n (0-based)."""
        return BandSet((self.intervals[n],))


def make_bandset(intervals) -> BandSet:
    """Validate and sort intervals into a BandSet.

    Raises EmptyBandSet on an empty list, OverlappingIntervals if any
    two intervals intersect (shared endpoints count as intersecting),
    and BandError if a bound is not finite or some lo >= hi.
    """
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if not ivs:
        raise EmptyBandSet("band set needs at least one interval")
    for lo, hi in ivs:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BandError(f"interval ({lo}, {hi}) has a non-finite bound")
        if not lo < hi:
            raise BandError(f"interval ({lo}, {hi}) has nonpositive width")
    ivs.sort()
    for (_, hi_a), (lo_b, _) in zip(ivs, ivs[1:]):
        if lo_b <= hi_a:
            raise OverlappingIntervals(
                f"intervals overlap near omega = {lo_b:g} rad/s"
            )
    return BandSet(tuple(ivs))


def merge_intervals(ivs: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Union of closed intervals; touching or overlapping ones merge."""
    ivs = sorted(ivs)
    out: list[tuple[float, float]] = [ivs[0]]
    for lo, hi in ivs[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            out[-1] = (plo, max(phi, hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def minkowski_sum(a: BandSet, b: BandSet) -> BandSet:
    """Set sum {x + y : x in a, y in b} as a merged interval union.

    The sum of two interval unions is the union of all pairwise
    interval sums [lo1 + lo2, hi1 + hi2]. The result may have fewer
    intervals than len(a) * len(b) because sums can overlap and merge,
    so it is returned as a plain BandSet built without the disjointness
    check.
    """
    sums = [
        (la + lb, ha + hb)
        for la, ha in a.intervals
        for lb, hb in b.intervals
    ]
    return BandSet(merge_intervals(sums))
