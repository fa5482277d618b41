"""Sidon sequences, exhaustive search, decoupling certification.

The frozen N(k) row below was verified by hand for small k (e.g. no
4-element set fits in {1..6} because 6 distinct differences need span 6,
and {1,2,5,7} works at k = 7) and the k = 12 entry matches the witness
(1,2,5,10,12). The decoupling tests exercise the genuinely independent
route: overlap of the sum intervals W_n1 + W_n2 of channel pairs versus
integer sum collisions, and the certificate's witness against a
reference enumeration written out in this module.
"""

import hashlib
import json
import re
import timeit
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberband import planner
from fiberband.bands import BandError, EmptyBandSet, OverlappingIntervals
from fiberband.planner import (
    BRUTE_FORCE_BUDGET,
    BudgetExceeded,
    NotIncreasing,
    SidonSequence,
    bose_sequence,
    densest_sidon,
    erdos_bound,
    is_energy_decoupled,
    is_sidon,
    max_sidon_table,
    next_prime_power,
    plan_channels,
    sidon_for_channels,
    spectral_filling_efficiency,
)

BOSE_11 = (1, 6, 22, 62, 68, 69, 71, 88, 99, 103, 113)

# N(k) for k <= 60, and hashes of the witnesses and of every Bose
# sequence for prime powers q <= 128, frozen before the search and the
# field arithmetic were rewritten on plain integers.
FROZEN = json.loads(Path(__file__).with_name("frozen_sidon.json").read_text(encoding="utf-8"))

# Published optimal Golomb ruler lengths for 1..10 marks. They check
# the exhaustive search from outside; they never stand in for it.
GOLOMB_LENGTHS = (0, 1, 3, 6, 11, 17, 25, 34, 44, 55)


def _sha256(values: list) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


def test_is_sidon_by_hand():
    assert is_sidon((1, 2, 5, 10, 12))
    assert not is_sidon((1, 2, 3))  # 1 + 3 = 2 + 2
    assert is_sidon((1, 2))
    assert is_sidon((3,))
    with pytest.raises(NotIncreasing):
        is_sidon((2, 1))
    with pytest.raises(NotIncreasing):  # the SidonSequence rule: nonempty
        is_sidon(())
    with pytest.raises(ValueError):
        is_sidon((0.5, 1.5))


@settings(max_examples=60)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True))
def test_integer_sidon_iff_unit_gap_r_sidon(vals):
    # integer sums a + b (a <= b) are at least one apart exactly when
    # they are distinct: count the distinct sums
    vals = tuple(sorted(vals))
    sums = {a + b for a, b in combinations(vals, 2)} | {2 * a for a in vals}
    assert is_sidon(vals) == (len(sums) == len(vals) * (len(vals) + 1) // 2)


def test_sequence_validation():
    with pytest.raises(NotIncreasing):
        SidonSequence((1, 1, 2))
    with pytest.raises(NotIncreasing):
        SidonSequence(())
    with pytest.raises(NotIncreasing):
        SidonSequence((0, 1))
    assert len(SidonSequence((1, 4))) == 2


def test_bose_reference_sequence():
    assert bose_sequence(11).values == BOSE_11
    assert bose_sequence(2).values == (1, 2)


def test_bose_small_prime_powers():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31):
        seq = bose_sequence(q)
        assert is_sidon(seq)
        assert len(seq) == q
        assert max(seq.values) <= q * q - 1


def test_next_prime_power_and_truncation():
    assert next_prime_power(5) == 5
    assert next_prime_power(6) == 7
    assert next_prime_power(32) == 32
    assert next_prime_power(60) == 61
    five = sidon_for_channels(5)
    assert is_sidon(five) and len(five) == 5
    six = sidon_for_channels(6)  # Bose(7) truncated; prefixes stay Sidon
    assert is_sidon(six) and len(six) == 6
    assert sidon_for_channels(1).values == (1,)


def test_brute_force_small_table():
    expected = (1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 5)
    table = max_sidon_table(12)
    assert tuple(n for n, _ in table) == expected
    for k, (n, witness) in enumerate(table, start=1):
        assert len(witness) == n
        assert witness[0] == 1 and witness[-1] <= k
        assert is_sidon(witness)
    assert table[-1] == (5, (1, 2, 5, 10, 12))
    with pytest.raises(BudgetExceeded):
        max_sidon_table(BRUTE_FORCE_BUDGET + 1)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match=f"table size must be at least 1, got {k_max}"):
            max_sidon_table(k_max)


def test_densest_sidon():
    assert densest_sidon(4).values == (1, 2, 5, 7)
    assert densest_sidon(5).values == (1, 2, 5, 10, 12)
    assert densest_sidon(1).values == (1,)
    # 18 marks need 153 distinct differences, so a top slot past the
    # budget: this fails before any row is searched
    with pytest.raises(BudgetExceeded, match="top slot is at least 154"):
        densest_sidon(18)
    # the table's witness at the first k where N(k) = n
    table = max_sidon_table(30)
    for n in (6, 7):
        k = GOLOMB_LENGTHS[n - 1] + 1
        assert densest_sidon(n).values == table[k - 1][1]


def test_frozen_table_rows_and_witnesses():
    table = max_sidon_table(60)
    assert [n for n, _ in table] == FROZEN["rows"]
    assert _sha256([list(w) for _, w in table]) == FROZEN["witnesses_sha256"]


def test_frozen_bose_sequences():
    sizes = []
    q = 2
    while q <= 128:
        sizes.append(str(q))
        q = next_prime_power(q + 1)
    assert sizes == list(FROZEN["bose_sha256"])
    for q in sizes:
        assert _sha256(list(bose_sequence(int(q)))) == FROZEN["bose_sha256"][q], q


# one digest over the Bose sequences of all 70 prime powers q <= 256,
# frozen before primitivity was read off the powers of x
BOSE_256_SHA256 = "087d492ffe4fbb32162e3fa274b33dc176431bcde4a80b805852b4b43e1b60f5"


def test_frozen_bose_sequences_to_256():
    sizes = []
    q = 2
    while q <= 256:
        sizes.append(q)
        q = next_prime_power(q + 1)
    assert len(sizes) == 70
    assert _sha256([list(bose_sequence(q)) for q in sizes]) == BOSE_256_SHA256


def test_table_meets_published_golomb_lengths():
    # a Sidon set in {1..k} is a Golomb ruler of length at most k - 1, so
    # the first k with N(k) = m is the optimal m-mark length plus one
    rows = [n for n, _ in max_sidon_table(60)]
    for marks, length in enumerate(GOLOMB_LENGTHS, start=1):
        assert rows.index(marks) + 1 == length + 1, marks


def test_table_witness_ends_where_the_row_grows():
    # the pinned search rests on this: a row that grows holds a set of
    # span exactly k - 1, since the row before it held none of that size
    table = max_sidon_table(60)
    for k in range(2, 61):
        n, witness = table[k - 1]
        if n > table[k - 2][0]:
            assert witness[0] == 1 and witness[-1] == k, k
        else:
            assert witness == table[k - 2][1], k


def _table_minspan(target: int) -> list:
    """minspan as _table_rows holds it when it searches for `target` marks."""
    rows = [n for n, _ in max_sidon_table(60)]
    return [0, 0] + [rows.index(m) for m in range(2, target)]


def test_pinned_search_on_table_rows():
    # 9 marks need span 44 and 8 marks span 34 (GOLOMB_LENGTHS), so both
    # calls meet the precondition: no set of `target` fits below k
    assert planner._search_length(44, 9, _table_minspan(9)) is None
    found = planner._search_length(35, 8, _table_minspan(8))
    assert found[0] == 1 and found[-1] == 35 and is_sidon(found)
    assert found == max_sidon_table(35)[-1][1]


def _diffs(marks) -> int:
    """Bitmask of the pairwise differences of `marks`."""
    used = 0
    for a, b in combinations(marks, 2):
        used |= 1 << (b - a)
    return used


def test_gap_floor_admits_every_known_ruler():
    assert planner._gap_floor(0, 0) == 0
    assert planner._gap_floor(0, 3) == 1 + 2 + 3
    assert planner._gap_floor(1, 1) == 1  # bit 0 is no gap
    assert planner._gap_floor(0b110, 2) == 3 + 4
    assert planner._gap_floor(0b1010, 3) == 2 + 4 + 5
    # the gaps from a mark up to the far mark are distinct differences
    # that no earlier pair uses, so they sum to at least the floor
    rulers = [witness for _, witness in max_sidon_table(60)]
    q = 2
    while q <= 32:
        rulers.append(bose_sequence(q).values)  # rooted at 1, as the search is
        q = next_prime_power(q + 1)
    checked = 0
    for ruler in rulers:
        top = ruler[-1]
        for i in range(1, len(ruler) - 1):  # len(ruler) - i >= 2 gaps left
            prefix = ruler[:i]
            assert top - prefix[-1] >= planner._gap_floor(_diffs(prefix + (top,)), len(ruler) - i)
            checked += 1
    assert checked == 530
    # a leaf is exempt: its one gap, 12 - 10, is the far-mark difference,
    # already booked once the leaf is placed, so the floor would reject it
    assert 12 - 10 < planner._gap_floor(_diffs((1, 2, 5, 10, 12)), 1)
    assert planner._search_length(12, 5, _table_minspan(5)) == (1, 2, 5, 10, 12)


def test_table_to_52_is_fast():
    # the gap-sum floor bounds every node's candidates (about 0.6 s without)
    best = min(timeit.repeat(lambda: tuple(islice(planner._table_rows(), 52)), number=1, repeat=3))
    assert best <= 0.3


def _enumerated_row(k: int) -> tuple:
    """N(k) and the table's witness by enumerating subsets of {1..k}.

    The witness is a largest Sidon subset with the smallest top element,
    the lexicographically first among those: the table carries the set
    found at the first k where N(k) reached its value.
    """
    best = [(1,)]
    for n in range(2, k + 1):
        sets = [s for s in combinations(range(1, k + 1), n) if is_sidon(s)]
        if not sets:
            break
        best = sets
    return len(best[0]), min(best, key=lambda s: (s[-1], s))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 14))
def test_table_matches_enumeration(k):
    assert max_sidon_table(k)[-1] == _enumerated_row(k)


def test_erdos_bound_frozen_values():
    # k = 12: a = 7 (7^4 = 2401 >= 1728 > 6^4), c = 19/7, and the
    # bound evaluates to 1.357143 + sqrt(1.841837 + 20.938776)
    assert erdos_bound(12) == pytest.approx(6.130047, abs=1e-5)
    assert erdos_bound(1) == pytest.approx(2.0, abs=1e-12)
    assert 5 <= erdos_bound(12) < 7


def test_erdos_bound_holds_on_small_range():
    table = max_sidon_table(25)
    for k, (n, _) in enumerate(table, start=1):
        assert n <= erdos_bound(k), k


def test_decoupling_sidon_plan():
    plan = plan_channels((1, 2, 5, 10, 12), width=1.0)
    ok, witness = is_energy_decoupled(plan.intervals())
    assert ok and witness is None


def test_decoupling_uniform_collision():
    ivs = [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    ok, witness = is_energy_decoupled(ivs)
    assert not ok
    # channels 1+3 and 2+2 sum onto the same band [4, 6]
    assert witness == ((1, 3), (2, 2))
    for a, b in witness:
        assert (ivs[a - 1][0] + ivs[b - 1][0], ivs[a - 1][1] + ivs[b - 1][1]) == (4.0, 6.0)


def test_decoupling_keeps_caller_order():
    # indices refer to the order given, not to sorted frequency order
    ok, witness = is_energy_decoupled([(4.0, 5.0), (0.0, 1.0), (2.0, 3.0)])
    assert not ok
    assert witness == ((1, 2), (3, 3))


def test_decoupling_edge_cases():
    # a shared endpoint puts an edge bin in two channels: not a grid
    with pytest.raises(OverlappingIntervals):
        is_energy_decoupled([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(OverlappingIntervals, match=re.escape("(0.0, 2.0) and (1.0, 3.0)")):
        is_energy_decoupled([(1.0, 3.0), (0.0, 2.0)])
    with pytest.raises(EmptyBandSet):
        is_energy_decoupled([])
    ok, _ = is_energy_decoupled([(3.0, 4.0), (0.0, 1.0)])
    assert ok


@pytest.mark.parametrize(
    "intervals",
    [[(0.0, 1.0), (2.0, float("inf"))], [(float("nan"), 1.0), (2.0, 3.0)]],
)
def test_decoupling_rejects_non_finite_bounds(intervals):
    with pytest.raises(ValueError, match="non-finite"):
        is_energy_decoupled(intervals)


@pytest.mark.parametrize(
    "intervals, pair",
    [([(1e308, 1.5e308), (1.6e308, 1.7e308)], "channels 1 and 1"),
     ([(-1e307, -0.5e307), (-1.7e308, -1.6e308)], "channels 1 and 2"),
     ([(-1.0, 1.0), (1e308, 1.7e308)], "channels 2 and 2")],
)
def test_decoupling_rejects_sum_bands_that_overflow(intervals, pair):
    # the edges are finite but some of their sums are not: an overflowed
    # band is no point of zero width, so no verdict can be given
    with pytest.raises(BandError, match=f"^{pair}: sum interval .* overflows a float$"):
        is_energy_decoupled(intervals)


def test_decoupling_near_the_float_limit():
    # every sum edge is finite (the largest is 1.7e308), so the grid
    # certifies as the same grid at unit scale does
    ivs = [(1e307, 1.5e307), (8e307, 8.5e307)]
    assert is_energy_decoupled(ivs) == (True, None)
    assert is_energy_decoupled([(lo / 1e307, hi / 1e307) for lo, hi in ivs]) == (True, None)
    collide = [(1e307, 1.5e307), (4e307, 4.5e307), (7e307, 7.5e307)]
    assert is_energy_decoupled(collide) == (False, ((1, 3), (2, 2)))


@settings(max_examples=80)
@given(
    st.lists(st.integers(1, 3000), min_size=1, max_size=40, unique=True),
    st.sampled_from([0.125, 1.0, 2.5, 37.5]),
)
@example(list(sidon_for_channels(40).values), 1.0)  # Sidon at the full size
@example([1, 2, 3], 2.5)  # 1 + 3 = 2 + 2
def test_decoupled_iff_sidon(vals, width):
    # on the slot lattice two sum intervals overlap iff the slot sums are
    # equal, so the interval route and the integer route must agree for
    # any slot choice, Sidon or not. The widths keep every slot edge an
    # exact float; a width such as 0.1 rounds the edges, and touching sum
    # bands can then overlap by an ulp
    plan = plan_channels(sorted(vals), width)
    assert is_energy_decoupled(plan.intervals())[0] == is_sidon(plan.seq)


def _first_collision(intervals: list) -> tuple | None:
    """Reference certificate: the first two channel pairs, in caller
    order, whose sum intervals share more than an endpoint."""
    n = len(intervals)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def sum_band(pair):
        a, b = pair
        return intervals[a][0] + intervals[b][0], intervals[a][1] + intervals[b][1]

    for p, q in combinations(pairs, 2):
        (plo, phi), (qlo, qhi) = sum_band(p), sum_band(q)
        if max(plo, qlo) < min(phi, qhi):
            return (p[0] + 1, p[1] + 1), (q[0] + 1, q[1] + 1)
    return None


@settings(max_examples=150)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=7, unique=True).flatmap(st.permutations)
)
@example([12, 1, 10, 2, 5])  # Sidon
@example([3, 1, 2])  # 1 + 3 = 2 + 2
def test_decoupling_witness_matches_enumeration(slots):
    # integer-slot grid, channels in the drawn (unsorted) order
    intervals = [((2 * m - 2) * 1.5, (2 * m - 1) * 1.5) for m in slots]
    witness = _first_collision(intervals)
    assert (witness is None) == is_sidon(sorted(slots))
    assert is_energy_decoupled(intervals) == (witness is None, witness)


# float edges: unique sorted values taken two at a time, so the widths
# and gaps are unequal, then the channels in a drawn caller order
float_grids = (
    st.lists(st.floats(-100, 100), min_size=2, max_size=14, unique=True)
    .map(sorted)
    .map(lambda edges: list(zip(edges[0::2], edges[1::2])))
    .flatmap(st.permutations)
)


@settings(max_examples=150)
@given(float_grids)
@example([(0.0, 1.0), (2.0, 3.0)])  # sum bands [0, 2], [2, 4], [4, 6] only touch
@example([(4.0, 6.0), (0.0, 1.0), (2.0, 2.5)])  # 4 + 0 = 2 + 2: equal lower edges
# channels 1-3 on Sidon slots 20, 21, 24 and a wide channel 4: the band
# 1 + 4 = [45, 60.5] covers 2 + 3 = [45, 46] and 3 + 3 = [48, 49]
@example([(20.0, 20.5), (21.0, 21.5), (24.0, 24.5), (25.0, 40.0)])
def test_decoupling_witness_on_float_grids(intervals):
    witness = _first_collision(intervals)
    assert is_energy_decoupled(intervals) == (witness is None, witness)


def test_decoupling_ignores_a_sum_band_rounded_to_a_point():
    # in exact arithmetic no two sum bands meet; in floats channels 1 + 3
    # round to the point 2 - 16 u, which carries no bandwidth even
    # though it lies inside the band of channel 2 doubled
    u = 2.0**-53  # the float spacing just below 1.0
    ivs = [(1 - 14 * u, 1 - 13 * u), (1 - 10 * u, 1 - 7 * u), (1 - 3 * u, 1 - 2 * u)]
    lo, hi = ivs[0][0] + ivs[2][0], ivs[0][1] + ivs[2][1]
    assert lo == hi == 2 - 16 * u
    assert 2 * ivs[1][0] < lo < 2 * ivs[1][1]
    assert is_energy_decoupled(ivs) == (True, None)


def test_decoupling_witness_on_a_broken_bose_grid():
    # move the last of 30 Bose slots to s28 + s29 - s1, so the pair sums
    # (1, 30) and (28, 29) meet at the end of the enumeration
    slots = list(sidon_for_channels(30).values)
    slots[-1] = slots[-2] + slots[-3] - slots[0]
    intervals = plan_channels(slots, 1.0).intervals()
    witness = _first_collision(intervals)
    assert witness is not None and 30 in witness[0] + witness[1]
    assert is_energy_decoupled(intervals) == (False, witness)


def test_bose_128_certifies_fast():
    # the sum bands of 128 channels are swept once, not compared pairwise
    intervals = plan_channels(sidon_for_channels(128), 1.0).intervals()
    assert is_energy_decoupled(intervals) == (True, None)
    best = min(timeit.repeat(lambda: is_energy_decoupled(intervals), number=1, repeat=5))
    assert best <= 0.1


def test_filling_efficiency():
    plan = plan_channels((1, 2, 5, 10, 12), width=2.0)
    assert spectral_filling_efficiency(plan) == pytest.approx(5 / 23)
    assert spectral_filling_efficiency(plan, slot_budget=12) == pytest.approx(5 / 23)
    assert spectral_filling_efficiency(plan, slot_budget=20) == pytest.approx(5 / 39)
    with pytest.raises(ValueError):
        spectral_filling_efficiency(plan, slot_budget=11)


def test_plan_geometry():
    plan = plan_channels((1, 3), width=2.0)
    assert plan.intervals() == [(0.0, 2.0), (8.0, 10.0)]
    assert plan.centers() == [1.0, 9.0]
    assert sum(hi - lo for lo, hi in plan.intervals()) == 4.0
    with pytest.raises(ValueError):
        plan_channels((1, 3), width=0.0)
