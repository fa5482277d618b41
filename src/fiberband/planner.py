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

from .bands import BandError, make_bandset
from .gf import FieldGF, NotPrimePower, prime_power


class NotIncreasing(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


BRUTE_FORCE_BUDGET = 150  # largest span the exhaustive search accepts


@dataclass(frozen=True)
class SidonSequence:
    """Strictly increasing positive values: the slots of a channel grid.

    Only the order and the sign are checked. Distinct pairwise sums are
    not: `is_sidon` decides that, and a config's `sequence` placement
    accepts any such grid."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
            raise NotIncreasing(f"{vals} is not strictly increasing and nonempty")
        if vals[0] <= 0:
            raise NotIncreasing(f"{vals} contains nonpositive values")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def is_sidon(m) -> bool:
    """All pairwise sums m_i + m_j, i <= j, are distinct (integers)."""
    vals = SidonSequence(tuple(m)).values
    if any(int(v) != v for v in vals):
        raise ValueError("integer Sidon check needs positive integers")
    sums = set()
    for i, a in enumerate(vals):
        for b in vals[i:]:
            if a + b in sums:
                return False
            sums.add(a + b)
    return True


def bose_sequence(n: int) -> SidonSequence:
    """Length-n Sidon sequence from the exponent set of GF(n^2).

    n must be a prime power. The sequence is {m : x^m - x in GF(n)},
    sorted, where x generates GF(n^2)* (see FieldGF); it always starts
    at 1 and stays below n^2. It is read off the first n + 1 powers of
    x, through the norm x^(n+1): each later power is a power of the norm
    times one of the first n.
    """
    field = FieldGF.for_size(n)
    return SidonSequence(tuple(field.exponent_set()))


def next_prime_power(n: int) -> int:
    q = max(n, 2)
    while True:
        try:
            prime_power(q)
            return q
        except NotPrimePower:
            q += 1


def sidon_for_channels(n: int) -> SidonSequence:
    """Length-n Sidon sequence for any n >= 1: next prime power, truncated."""
    if n < 1:
        raise ValueError("need at least one channel")
    full = bose_sequence(next_prime_power(n))
    return SidonSequence(full.values[:n])


def _gap_floor(used: int, r: int) -> int:
    """Sum of the r smallest positive integers whose bit is clear in `used`."""
    used |= 1  # a gap is positive
    floor = 0
    for _ in range(r):
        low = ~used & (used + 1)  # lowest clear bit
        floor += low.bit_length() - 1
        used |= low
    return floor


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
    difference to the far mark k, and `back` has bit d set iff a mark
    sits d below the last mark `last` (bit 0 is `last` itself). A
    candidate c's differences to the marks below it are then exactly the
    bits of new = back << (c - last), so c is admissible iff that
    shifted register misses `diffs` and its difference k - c to the far
    mark misses `diffs | new`: two integer tests per candidate, after
    the shift-register search for optimal Golomb rulers (Dollas, Rankin
    & McCracken 1998).

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
    one gap k - c is the far-mark difference that the second bit test
    already decides exactly, and counted from the child's own `diffs`,
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

    def dfs(depth: int, last: int, back: int, diffs: int) -> tuple | None:
        if depth == target - 1:
            return last, back
        top = ceiling[depth]
        if depth < target - 2:  # the child is no leaf: r >= 2 gaps follow it
            top = min(top, k - _gap_floor(diffs, target - depth - 1))
        new = back
        for c in range(last + 1, top + 1):
            new <<= 1  # back << (c - last)
            if not new & diffs:
                far = 1 << (k - c)
                if not far & (diffs | new):
                    hit = dfs(depth + 1, c, new | 1, diffs | new | far)
                    if hit:
                        return hit
        return None

    hit = dfs(1, 1, 1, 1 << (k - 1))
    if hit is None:
        return None
    last, back = hit
    return tuple(last - d for d in range(last, -1, -1) if back >> d & 1) + (k,)


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


def densest_sidon(n: int) -> SidonSequence:
    """Shortest-span Sidon sequence of length n, by exhaustive search.

    This is the table's witness at the first k where N(k) = n: the
    lexicographically first length-n set among those of least span.
    A length the counting floor already puts beyond the budget raises
    BudgetExceeded before any search.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    top = n * (n - 1) // 2 + 1  # n marks need n(n-1)/2 distinct differences
    if top > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"no length-{n} sequence within span {BRUTE_FORCE_BUDGET}: "
                             f"its top slot is at least {top}")
    for best, witness in islice(_table_rows(), BRUTE_FORCE_BUDGET):
        if best == n:
            return SidonSequence(witness)
    raise BudgetExceeded(f"no length-{n} sequence within span {BRUTE_FORCE_BUDGET}")


def erdos_bound(k: int) -> float:
    """Counting upper bound on N(k) at window length a = ceil(k^(3/4))."""
    a = 1
    while a**4 < k**3:  # integer ceil of k^(3/4), immune to float rounding
        a += 1
    c = 1.0 + k / a
    return 0.5 * c + math.sqrt(0.25 * c * c + (a + 2) * (a - 1) * (k + a) / a**2)


def _strictly_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    # shared endpoints carry no bandwidth, hence no energy coupling
    return max(a[0], b[0]) < min(a[1], b[1])


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

    The M = N(N+1)/2 sum intervals are swept once in (lo, hi) order
    with the running maximum of the upper edges seen so far, an
    interval-intersection sweep (Shamos & Hoey 1976). An interval
    collides with an earlier one iff its lo is below that maximum, and
    with a later one iff the next lo is below its own hi. That flags
    exactly the colliding sum intervals in O(M log M), i.e.
    O(N^2 log N). A sum interval that rounding collapsed to a point
    carries no bandwidth and stays out of the sweep. A sum interval
    with an edge that overflowed is not a point: it raises BandError
    naming its two channels, since nothing can be certified about it.
    The first flagged interval in enumeration order has all its
    partners later, so it is the witness's first pair, and the second
    is the first flagged interval after it that overlaps it.
    """
    intervals = [(float(lo), float(hi)) for lo, hi in channels]
    band = make_bandset(intervals)
    n = len(intervals)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    sums = [
        (intervals[i][0] + intervals[j][0], intervals[i][1] + intervals[j][1])
        for i, j in pairs
    ]
    # rounding is monotone, so every sum edge lies in [2 lo, 2 hi] of the grid
    if not (math.isfinite(2 * band.lo) and math.isfinite(2 * band.hi)):
        k = next(k for k, edges in enumerate(sums) if not all(map(math.isfinite, edges)))
        raise BandError(f"channels {pairs[k][0] + 1} and {pairs[k][1] + 1}: sum interval "
                        f"{sums[k]} overflows a float")
    swept = sorted((lo, hi, k) for k, (lo, hi) in enumerate(sums) if lo < hi)
    next_los = [lo for lo, _, _ in swept[1:]] + [math.inf]
    flagged = []
    reach = -math.inf  # highest upper edge among the intervals swept so far
    for (lo, hi, k), next_lo in zip(swept, next_los):
        if lo < reach or next_lo < hi:
            flagged.append(k)
        reach = max(reach, hi)
    if not flagged:
        return True, None
    p, *rest = sorted(flagged)
    q = next(q for q in rest if _strictly_overlap(sums[p], sums[q]))
    return False, ((pairs[p][0] + 1, pairs[p][1] + 1), (pairs[q][0] + 1, pairs[q][1] + 1))


@dataclass(frozen=True)
class ChannelPlan:
    """Channel grid [(2m-2)W, (2m-1)W] per sequence element m."""

    seq: SidonSequence
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("channel width must be positive")
        if not math.isfinite((2 * self.seq.values[-1] - 1) * self.width):
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
    """Place channels on the grid induced by a sequence; see ChannelPlan."""
    if not isinstance(seq, SidonSequence):
        seq = SidonSequence(tuple(seq))
    return ChannelPlan(seq, width)


def spectral_filling_efficiency(plan: ChannelPlan, slot_budget: int | None = None) -> float:
    """Occupied bandwidth over spanned bandwidth of a ChannelPlan.

    The span is taken from frequency 0 to the top of the highest
    channel, (2*max(m) - 1)*W, so a plan starting above m = 1 is charged
    for the unused bottom. With `slot_budget` = k the span instead
    covers the whole grid of admissible slots 1..k, i.e. (2k - 1)*W: the
    efficiency of a plan that was free to use any element of {1..k}.
    """
    top = max(plan.seq.values)
    if slot_budget is not None:
        if slot_budget < top:
            raise ValueError("slot budget below the plan's top slot")
        top = slot_budget
    return plan.n / (2 * top - 1)
