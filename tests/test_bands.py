"""Band-set algebra: construction, validation, interval sums."""

import pytest
from hypothesis import given, strategies as st

from fiberband.bands import (
    BandError,
    BandSet,
    EmptyBandSet,
    OverlappingIntervals,
    make_bandset,
    merge_intervals,
    minkowski_sum,
)


def test_make_bandset_sorts_and_measures():
    b = make_bandset([(3.0, 4.0), (0.0, 1.0)])
    assert b.intervals == ((0.0, 1.0), (3.0, 4.0))
    assert b.lo == 0.0 and b.hi == 4.0
    assert b.measure == 2.0
    assert b.centers() == [0.5, 3.5]
    assert b.widths() == [1.0, 1.0]
    assert len(b) == 2


def test_intervals_are_closed():
    b = make_bandset([(0.0, 1.0), (3.0, 4.0)])
    assert b.contains(0.0) and b.contains(1.0) and b.contains(3.5)
    assert not b.contains(2.0)
    assert not b.contains(-0.1)


def test_channel_selects_single_interval():
    b = make_bandset([(0.0, 1.0), (3.0, 4.0)])
    assert b.channel(1).intervals == ((3.0, 4.0),)


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
    with pytest.raises(OverlappingIntervals):
        make_bandset([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(OverlappingIntervals):
        make_bandset([(0.0, 2.0), (1.0, 3.0)])


@pytest.mark.parametrize(
    "intervals",
    [[(float("nan"), 6.0)], [(0.0, float("inf"))], [(0.0, 1.0), (-float("inf"), -1.0)]],
)
def test_make_bandset_rejects_non_finite_bounds(intervals):
    with pytest.raises(BandError, match="non-finite"):
        make_bandset(intervals)


def test_merge_intervals_joins_touching():
    assert merge_intervals([(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)]) == (
        (0.0, 2.0),
        (3.0, 4.0),
    )
    assert merge_intervals([(0.0, 5.0), (1.0, 2.0)]) == ((0.0, 5.0),)


def test_minkowski_sum_by_hand():
    a = make_bandset([(0.0, 1.0), (10.0, 11.0)])
    b = make_bandset([(0.0, 2.0)])
    s = minkowski_sum(a, b)
    assert s.intervals == ((0.0, 3.0), (10.0, 13.0))
    # self-sum: [0,2], [10,12], [20,22]; the cross terms coincide
    ss = minkowski_sum(a, a)
    assert ss.intervals == ((0.0, 2.0), (10.0, 12.0), (20.0, 22.0))


@st.composite
def bandsets(draw):
    pts = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    pts.sort()
    ivs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    ivs = [(lo, hi) for lo, hi in ivs if hi - lo > 1e-9]
    if not ivs:
        ivs = [(0.0, 1.0)]
    return BandSet(tuple(ivs))


@given(bandsets(), bandsets())
def test_minkowski_sum_commutes(a, b):
    assert minkowski_sum(a, b).intervals == minkowski_sum(b, a).intervals


@given(bandsets(), bandsets())
def test_minkowski_sum_extremes_add(a, b):
    s = minkowski_sum(a, b)
    assert s.lo == a.lo + b.lo
    assert s.hi == a.hi + b.hi
    # translating by any single point of b cannot shrink a
    assert s.measure >= max(a.measure, b.measure) - 1e-12
