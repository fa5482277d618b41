"""Sidon-sequence planning of four-wave-mixing-free WDM channel grids.

A channel grid with centers placed by a Sidon sequence keeps every
degenerate and non-degenerate mixing product of two channels away from
every other channel pair's products, which decouples the per-channel
energy flow. This module verifies the combinatorial condition, builds
sequences (exhaustively for small spans, via the finite-field
exponent-set construction for arbitrary prime powers), certifies grids
by direct interval arithmetic, and computes how densely such grids can
pack spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice

import numpy as np

from .bands import BandError, _bound, make_bandset
from .gf import FieldGF, NotPrimePower, prime_power


class NotIncreasing(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


# Largest span the exhaustive search accepts. It bounds the span, not the
# time. On one core of a 2-vCPU Xeon the table reaches k = 40 in
# 0.009-0.018 s, k = 60 in 0.20-0.38 s and k = 73, which
# `densest_sidon(11)` needs, in 3.8-5.0 s (each the min of five runs).
# Longer rows were timed only on older code, which tested every candidate
# mark on its own and read the gap-sum floor one bit at a time: k = 86,
# the first 12-mark row, in 48-62 s and k = 100 in 296-335 s, row 100
# alone taking 65-76 s; each row that finds no longer set takes about 1.3x
# as long as the one before. Extrapolated from those, not run: k = 107,
# which `densest_sidon(13)` needs, about half an hour; k = 128 for 14
# marks, longer still.
BRUTE_FORCE_BUDGET = 150

# Largest channel count `sidon_for_channels` accepts. Building GF(N) and
# certifying the N(N+1)/2 sum intervals peaked at 33, 41 and 72 MB of
# resident memory for N = 256, 512 and 1024, about x1.8 per doubling
# at the top, where the sum-interval arrays dominate.
BOSE_BUDGET = 1024


def bose_sequence(n: int) -> tuple:
    """Length-n Sidon sequence, as a tuple, from the exponent set of GF(n^2).

    n must be a prime power. The sequence is {m : x^m - x in GF(n)},
    sorted, where x generates GF(n^2)* (see FieldGF); it always starts
    at 1 and stays below n^2. It is read off the first n + 1 powers of
    x, through the norm x^(n+1): each later power is a power of the norm
    times one of the first n.
    """
    field = FieldGF.for_size(n)
    return tuple(field.exponent_set())


def next_prime_power(n: int) -> int:
    q = max(n, 2)
    while True:
        try:
            prime_power(q)
            return q
        except NotPrimePower:
            q += 1


def _check_channel_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"channel count must be at least 1, got {n}")


def sidon_for_channels(n: int) -> tuple:
    """Length-n Sidon tuple for 1 <= n <= BOSE_BUDGET: next prime power,
    truncated. A larger n raises BudgetExceeded before GF(N) is built."""
    _check_channel_count(n)
    if n > BOSE_BUDGET:
        raise BudgetExceeded(f"{n} channels exceed the bose budget of {BOSE_BUDGET}")
    return bose_sequence(next_prime_power(n))[:n]


def _clear_bit_sums() -> tuple:
    """Row b: prefix sums of the clear-bit positions of byte b, from 0.

    Row b has one more entry than b has clear bits, and its last entry
    is their sum. Built by doubling: the bytes below 2^(w+1) are those
    below 2^w with bit w clear (a new, highest position w) and then with
    it set."""
    rows = [(0,)]
    for w in range(8):
        rows = [sums + (sums[-1] + w,) for sums in rows] + rows
    return tuple(rows)


_CLEAR_BIT_SUMS = _clear_bit_sums()


def _gap_floor(used: int, r: int) -> int:
    """Sum of the r smallest positive integers whose bit is clear in `used`.

    Read a byte at a time: byte j's clear positions are those of its
    table row offset by 8j, and past the top of `used` every byte is 0."""
    used |= 1  # a gap is positive
    base = floor = 0
    while True:
        sums = _CLEAR_BIT_SUMS[used & 255]
        clear = len(sums) - 1
        if r <= clear:
            return floor + sums[r] + base * r
        floor += sums[clear] + base * clear
        r -= clear
        base += 8
        used >>= 8


def _search_length(k: int, target: int, minspan: list) -> tuple | None:
    """Lexicographically first Sidon subset of {1..k} of size `target`.

    Precondition: target >= 2 (the table asks for one more than its
    best so far, which starts at 1), and no Sidon set of size `target`
    fits in {1..k-1}. Any
    Sidon set translates to one whose minimum is 1, so the search roots
    at 1 without losing maximal sets, and by the precondition every set
    it can find spans exactly k - 1: both end marks, 1 and k, are pinned
    and only the interior marks are searched. A set is Sidon iff its
    pairwise differences are distinct (a Golomb ruler). `diffs` is a
    bitmask of the differences used so far, including each mark's
    difference to the far mark k; `back` has bit d set iff a mark sits d
    below the last mark `last` (bit 0 is `last` itself); `high` has bit
    m + k set iff m is a placed mark. A mark at c = last + s differs from
    the marks below it by the bits of back << s, as in the shift-register
    search for optimal Golomb rulers (Dollas, Rankin & McCracken 1998),
    and from the far mark by k - c. It is admissible iff it clears two
    registers, each updated in O(1) when a child c is placed:
    - comp, bit s iff back << s meets `diffs`, becomes
      diffs' | comp >> s | high >> 2c: the last term is x - m = k - c,
      a later mark x at distance k - c from a placed mark m;
    - block, bit x iff k - x is in `diffs` or equals x - m for a placed
      m, gains high >> c (k - x = c - m) and the midpoint (c + k) / 2.
    Both gain high >> c once comp is shifted to absolute positions, so
    the node keeps their union `bad` = comp << last | block, and its
    children are exactly the clear bits of `bad` in last+1..top, lowest
    first: no candidate is tested.

    `minspan[m]`, when present, is the exact minimal span of an
    m-element Sidon set; a candidate c with m elements still owed
    (itself and the far mark included) is viable only if minspan[m]
    fits in [c, k]. Without it the counting floor m*(m-1)/2 applies:
    that many distinct positive differences must not exceed the span.

    A gap-sum floor tightens that ceiling once per node. A child c at a
    node of depth `depth` is followed by r = target - depth - 1 gaps up
    to k, and they sum to k - c. Each gap has an end that the node has
    not placed yet (c and every mark above it but k), so on a Golomb
    ruler it differs from the other gaps and from every difference
    between placed marks: the r gaps are distinct positive integers
    whose bits are clear in the node's `diffs`, and k - c is at least
    the sum F of the r smallest of them (`_gap_floor`). F depends on
    the node alone, so it is computed once and every candidate above
    k - F is cut before the loop. A leaf child (r = 1) is exempt: its
    one gap k - c is the far-mark difference that `bad` already
    decides exactly, and counted from the child's own `diffs`,
    where k - c is booked, the floor would even exclude it.
    """

    def span_floor(m: int) -> int:
        if m < len(minspan):
            return minspan[m]
        return m * (m - 1) // 2

    if k - 1 < span_floor(target):  # no room, and at k = 1 the far mark is the root
        return None
    # candidate ceiling per interior node depth, hoisted out of the search
    ceiling = [k - span_floor(target - d) for d in range(target - 1)]
    leaf_depth, floor_depth = target - 1, target - 2
    # per mark c: the bit of its far difference k - c, and the bit of the
    # midpoint x of c and k when that is whole (x - c would equal k - x)
    far = [1 << (k - c) for c in range(k + 1)]
    mid = [1 << ((c + k) // 2) if (c + k) % 2 == 0 else 0 for c in range(k + 1)]

    def dfs(depth: int, last: int, back: int, diffs: int, bad: int, high: int) -> int | None:
        if depth == leaf_depth:
            return high
        top = ceiling[depth]
        if depth < floor_depth:  # the child is no leaf: r >= 2 gaps follow it
            floor_top = k - _gap_floor(diffs, leaf_depth - depth)
            if floor_top < top:
                top = floor_top
        if top <= last:
            return None
        free = ~bad & ((2 << top) - (2 << last))  # clear bits in last+1..top
        while free:
            low = free & -free
            free ^= low
            c = low.bit_length() - 1
            new = back << (c - last)
            child_diffs = diffs | new | far[c]
            hit = dfs(depth + 1, c, new | 1, child_diffs,
                      bad | child_diffs << c | high >> c | mid[c], high | 1 << (k + c))
            if hit:
                return hit
        return None

    high = dfs(1, 1, 1, far[1], mid[1], 1 << (k + 1))
    if high is None:
        return None
    return tuple(m for m in range(1, k) if high >> (k + m) & 1) + (k,)


def _table_rows():
    """(N(k), witness) for k = 1, 2, ... without end, by incremental search.

    N(k) grows by at most 1 per k (drop one element of an optimal set),
    so each k only has to decide whether a set one longer than the
    previous optimum fits in {1..k}. Row k - 1 has already shown that no
    such set fits in {1..k-1}, which is the precondition under which
    _search_length pins both end marks at 1 and k. The witness is the
    lexicographically first set found at the first k where N(k) reached
    its value.
    """
    best, witness = 1, (1,)
    minspan = [0, 0]  # minspan[m]: exact minimal span of an m-element set
    for k in count(1):
        longer = _search_length(k, best + 1, minspan)
        if longer:
            best, witness = best + 1, longer
            minspan.append(k - 1)
        yield best, witness


@lru_cache(maxsize=None)
def max_sidon_table(k_max: int) -> tuple:
    """(N(k), witness) for every k in 1..k_max; see _table_rows."""
    if k_max < 1:
        raise ValueError(f"table size must be at least 1, got {k_max}")
    if k_max > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"k_max {k_max} exceeds budget {BRUTE_FORCE_BUDGET}")
    return tuple(islice(_table_rows(), k_max))


def densest_sidon(n: int) -> tuple:
    """Shortest-span Sidon sequence of length n, as a tuple, by exhaustive search.

    This is the table's witness at the first k where N(k) = n: the
    lexicographically first length-n set among those of least span.
    Before any search, a length below 1 raises ValueError and one the
    counting floor already puts beyond the budget BudgetExceeded.
    """
    _check_channel_count(n)
    top = n * (n - 1) // 2 + 1  # n marks need n(n-1)/2 distinct differences
    if top > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"no length-{n} sequence within span {BRUTE_FORCE_BUDGET}: "
                             f"its top slot is at least {top}")
    for best, witness in islice(_table_rows(), BRUTE_FORCE_BUDGET):
        if best == n:
            return witness
    raise BudgetExceeded(f"no length-{n} sequence within span {BRUTE_FORCE_BUDGET}")


def erdos_bound(k: int) -> float:
    """Counting upper bound on N(k) at window length a = ceil(k^(3/4))."""
    a = 1
    while a**4 < k**3:  # integer ceil of k^(3/4), immune to float rounding
        a += 1
    c = 1.0 + k / a
    return 0.5 * c + math.sqrt(0.25 * c * c + (a + 2) * (a - 1) * (k + a) / a**2)


def is_energy_decoupled(channels) -> tuple[bool, tuple | None]:
    """Certify that no two distinct channel pairs have colliding sum bands.

    `channels` is a sequence of (lo, hi) intervals, validated as a grid
    by `make_bandset`. The unordered channel pairs {n1, n2} (repetition
    allowed) are enumerated in caller order, and two distinct pairs
    collide when their sum intervals W_n1 + W_n2 and W_n + W_n3 share
    positive measure. Returns (True, None) or
    (False, ((n1, n2), (n, n3))) with 1-based channel numbers in the
    caller's channel order: the first colliding pair of pairs in
    enumeration order.

    "Decoupled" is meant as in the paper's continuous model: sum
    intervals that only touch share no bandwidth and do not collide.
    On the propagator's bin grid that is not exact. A slot channel
    [(2m-2)W, (2m-1)W] has its edges on bin centres and holds both edge
    bins, so two touching sum intervals share a bin, and their channels
    couple weakly through it. On sidon5, whose sum intervals touch 8
    times, channel 1 under a distributed filter drifts 3.2e-9 from its
    decoupled energy after 40 km and 7.5e-6 after 160 km.

    The M = N(N+1)/2 sum intervals are built as two edge arrays, the
    pairs in enumeration order from `np.triu_indices`, and swept once
    in (lo, hi) order, an interval-intersection sweep (Shamos & Hoey
    1976). An interval collides with an earlier one iff its lo is below
    the running maximum of the earlier upper edges
    (`np.maximum.accumulate`), and with a later one iff the next lo is
    below its own hi. That flags exactly the colliding sum intervals in
    O(M log M), i.e. O(N^2 log N), with no Python loop over them. A sum
    interval that rounding collapsed to a point carries no bandwidth
    and stays out of the sweep. A sum interval with an edge that
    overflowed is not a point: the first in enumeration order raises
    BandError naming its two channels, since nothing can be certified
    about it. The first flagged interval in enumeration order has all
    its partners later, so it is the witness's first pair, and the
    second is the first interval after it that overlaps it.
    """
    intervals = list(channels)
    make_bandset(intervals)  # so every bound is a finite float
    lo, hi = np.array(intervals, dtype=float).T
    first, second = np.triu_indices(len(intervals))
    with np.errstate(over="ignore"):  # an overflowed edge raises below
        sum_lo, sum_hi = lo[first] + lo[second], hi[first] + hi[second]
    finite = np.isfinite(sum_lo) & np.isfinite(sum_hi)
    if not finite.all():
        k = finite.argmin()  # the first in enumeration order
        raise BandError(f"channels {first[k] + 1} and {second[k] + 1}: sum interval "
                        f"{(float(sum_lo[k]), float(sum_hi[k]))} overflows a float")
    (kept,) = np.nonzero(sum_lo < sum_hi)
    swept = kept[np.lexsort((sum_hi[kept], sum_lo[kept]))]  # stable: (lo, hi, index) order
    swept_lo, swept_hi = sum_lo[swept], sum_hi[swept]
    # highest upper edge among the intervals swept before each one
    reach = np.append(-np.inf, np.maximum.accumulate(swept_hi)[:-1])
    next_lo = np.append(swept_lo[1:], np.inf)
    flagged = swept[(swept_lo < reach) | (next_lo < swept_hi)]
    if not flagged.size:
        return True, None
    p = flagged.min()
    overlaps = np.maximum(sum_lo, sum_lo[p]) < np.minimum(sum_hi, sum_hi[p])
    overlaps[: p + 1] = False
    q = overlaps.argmax()
    return False, tuple((int(first[k]) + 1, int(second[k]) + 1) for k in (p, q))


@dataclass(frozen=True)
class ChannelPlan:
    """Channel grid [(2m-2)W, (2m-1)W] per slot m of the tuple `seq`.

    The one place slots become a grid, so it checks them: positive and
    strictly increasing (else NotIncreasing), but not Sidon, as a config
    may place any grid; `is_energy_decoupled` decides if it decouples."""

    seq: tuple
    width: float

    def __post_init__(self):
        seq = tuple(self.seq)
        if not seq or any(b <= a for a, b in zip(seq, seq[1:])):
            raise NotIncreasing(f"{seq} is not strictly increasing and nonempty")
        if seq[0] <= 0:
            raise NotIncreasing(f"{seq} contains nonpositive values")
        object.__setattr__(self, "seq", seq)
        if not self.width > 0:
            raise ValueError("channel width must be positive")
        reach = _bound(2 * seq[-1] - 1)  # the top edge in widths
        if reach == math.inf:
            raise ValueError("top slot m has 2m - 1 past the largest float")
        if not math.isfinite(reach * self.width):
            raise ValueError(f"channel width {self.width:g} puts the top edge out of range")

    @property
    def n(self) -> int:
        return len(self.seq)

    def intervals(self) -> list[tuple[float, float]]:
        w = self.width
        return [((2 * m - 2) * w, (2 * m - 1) * w) for m in self.seq]

    def centers(self) -> list[float]:
        return [(2 * m - 1.5) * self.width for m in self.seq]


def plan_channels(seq, width: float) -> ChannelPlan:
    """Place channels on the grid induced by a slot sequence; see ChannelPlan."""
    return ChannelPlan(seq, width)


def spectral_filling_efficiency(plan: ChannelPlan, slot_budget: int | None = None) -> float:
    """Occupied bandwidth over spanned bandwidth of a ChannelPlan.

    The span is taken from frequency 0 to the top of the highest
    channel, (2*max(m) - 1)*W, so a plan starting above m = 1 is charged
    for the unused bottom. With `slot_budget` = k the span instead
    covers the whole grid of admissible slots 1..k, i.e. (2k - 1)*W: the
    efficiency of a plan that was free to use any element of {1..k}.
    """
    top = plan.seq[-1]
    if slot_budget is not None:
        if slot_budget < top:
            raise ValueError("slot budget below the plan's top slot")
        top = slot_budget
    return plan.n / (2 * top - 1)
