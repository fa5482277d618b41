"""Channel grids: a `BandSet` sorts and validates its intervals when built."""

import math
import re

import pytest

from fiberband.bands import (
    BandError,
    BandSet,
    EmptyBandSet,
    OverlappingIntervals,
)


def test_bandset_sorts_and_measures():
    b = BandSet([(3.0, 4.0), (0.0, 1.0)])
    assert b.intervals == ((0.0, 1.0), (3.0, 4.0))
    assert b.lo == 0.0 and b.hi == 4.0


def test_intervals_are_closed():
    # both endpoints belong to a closed interval, so a shared endpoint is
    # a common point, while a gap of one ulp leaves the channels disjoint
    with pytest.raises(OverlappingIntervals):
        BandSet([(1.0, 2.0), (0.0, 1.0)])
    b = BandSet([(math.nextafter(1.0, 2.0), 2.0), (0.0, 1.0)])
    assert b.intervals == ((0.0, 1.0), (math.nextafter(1.0, 2.0), 2.0))


def test_bandset_rejects_bad_input():
    with pytest.raises(EmptyBandSet):
        BandSet([])
    with pytest.raises(BandError):
        BandSet([(1.0, 1.0)])
    with pytest.raises(BandError):
        BandSet([(2.0, 1.0)])
    # shared endpoints are an error here: channels must be disjoint as
    # sets of positive measure AND as point sets, so edge bins are owned
    # by exactly one channel
    with pytest.raises(OverlappingIntervals, match=re.escape("(0.0, 1.0) and (1.0, 2.0) overlap")):
        BandSet([(0.0, 1.0), (1.0, 2.0)])
    # the message names both intervals, in sorted order, whatever the input order
    with pytest.raises(OverlappingIntervals, match=re.escape("(0.0, 2.0) and (1.0, 3.0) overlap")):
        BandSet([(5.0, 6.0), (1.0, 3.0), (0.0, 2.0)])


@pytest.mark.parametrize(
    "intervals",
    [[(float("nan"), 6.0)], [(0.0, float("inf"))], [(0.0, 1.0), (-float("inf"), -1.0)],
     # ints past the largest float
     [(0, 10**309)], [(-(10**309), 0)]],
)
def test_bandset_rejects_non_finite_bounds(intervals):
    with pytest.raises(BandError, match="non-finite"):
        BandSet(intervals)
