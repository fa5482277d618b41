"""Channel grids: construction and validation by `make_bandset`."""

import math
import re

import pytest

from fiberband.bands import (
    BandError,
    EmptyBandSet,
    OverlappingIntervals,
    make_bandset,
)


def test_make_bandset_sorts_and_measures():
    b = make_bandset([(3.0, 4.0), (0.0, 1.0)])
    assert b.intervals == ((0.0, 1.0), (3.0, 4.0))
    assert b.lo == 0.0 and b.hi == 4.0


def test_intervals_are_closed():
    # both endpoints belong to a closed interval, so a shared endpoint is
    # a common point, while a gap of one ulp leaves the channels disjoint
    with pytest.raises(OverlappingIntervals):
        make_bandset([(1.0, 2.0), (0.0, 1.0)])
    b = make_bandset([(math.nextafter(1.0, 2.0), 2.0), (0.0, 1.0)])
    assert b.intervals == ((0.0, 1.0), (math.nextafter(1.0, 2.0), 2.0))


def test_make_bandset_rejects_bad_input():
    with pytest.raises(EmptyBandSet):
        make_bandset([])
    with pytest.raises(BandError):
        make_bandset([(1.0, 1.0)])
    with pytest.raises(BandError):
        make_bandset([(2.0, 1.0)])
    # shared endpoints are an error here: channels must be disjoint as
    # sets of positive measure AND as point sets, so edge bins are owned
    # by exactly one channel
    with pytest.raises(OverlappingIntervals, match=re.escape("(0.0, 1.0) and (1.0, 2.0) overlap")):
        make_bandset([(0.0, 1.0), (1.0, 2.0)])
    # the message names both intervals, in sorted order, whatever the input order
    with pytest.raises(OverlappingIntervals, match=re.escape("(0.0, 2.0) and (1.0, 3.0) overlap")):
        make_bandset([(5.0, 6.0), (1.0, 3.0), (0.0, 2.0)])


@pytest.mark.parametrize(
    "intervals",
    [[(float("nan"), 6.0)], [(0.0, float("inf"))], [(0.0, 1.0), (-float("inf"), -1.0)],
     # ints past the largest float
     [(0, 10**309)], [(-(10**309), 0)]],
)
def test_make_bandset_rejects_non_finite_bounds(intervals):
    with pytest.raises(BandError, match="non-finite"):
        make_bandset(intervals)
