"""Finite-field tower: construction, irreducibility, primitive quadratics.

Small-field facts used below were derived by hand: GF(7)* is generated
by 3 (powers 3,2,6,4,5,1) but not by 2 (order 3); x^2+1 factors as
(x+2)(x+3) over GF(5) while x^2+2 is irreducible there since -2 = 3 is
not among the squares {0,1,4}; the first irreducible quartic over GF(2)
in enumeration order is x^4+x+1.

Elements of GF(p^k) are ints whose base-p digits are the polynomial's
coefficients, constant term first, so in GF(4) the int 2 is x and 3 is
x + 1.
"""

import hashlib
import random
import timeit
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fiberband.gf import (
    FieldGF,
    GaloisField,
    NotPrimePower,
    _is_irreducible,
    _walk_to_norm,
    factorize,
    first_irreducible,
    prime_power,
)


def _prime_powers(top: int) -> list[int]:
    return [q for q in range(2, top + 1) if len(factorize(q)) == 1]


def order_of_x(base: GaloisField, modulus: tuple) -> int:
    """Multiplicative order of x in GF(N)[x] / (x^2 + b x + c), or 0.

    Walks x, x^2, ... with the base field's own add/neg/mul, up to
    x^(N^2 - 1), and returns the first m with x^m = 1; 0 if there is
    none, as when x is no unit.
    """
    c, b = modulus
    q = base.order
    u0, u1 = 0, 1
    for m in range(1, q * q):
        if (u0, u1) == (1, 0):
            return m
        # x (u0 + u1 x) = u0 x + u1 x^2 and x^2 = -b x - c
        u0, u1 = base.neg(base.mul(c, u1)), base.add(u0, base.neg(base.mul(b, u1)))
    return 0


def exponent_set_by_full_walk(base: GaloisField, modulus: tuple) -> list[int]:
    """Exponents m in 1..N^2-1 whose x^m has x-coefficient 1.

    Walks all N^2 - 1 powers of x with the base field's own add/neg/mul,
    the products by -c and -b read from rows of N entries.
    """
    c, b = modulus
    q = base.order
    neg_c = [base.mul(base.neg(c), u) for u in range(q)]
    neg_b = [base.mul(base.neg(b), u) for u in range(q)]
    hits = []
    u0, u1 = 1, 0
    for m in range(1, q * q):
        # x (u0 + u1 x) = -c u1 + (u0 - b u1) x, as x^2 = -b x - c
        u0, u1 = neg_c[u1], base.add(u0, neg_b[u1])
        if u1 == 1:
            hits.append(m)
    return hits


def test_factorize_and_prime_power():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(113) == {113: 1}
    assert prime_power(8) == (2, 3)
    assert prime_power(49) == (7, 2)
    for bad in (1, 12, 60):
        with pytest.raises(NotPrimePower):
            prime_power(bad)


def test_prime_field_arithmetic():
    f = GaloisField(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.exp[:6] == [1, 3, 2, 6, 4, 5]  # the tables follow the first generator


def test_irreducibility_over_gf5():
    assert not _is_irreducible(5, (1, 0))  # x^2 + 1 = (x+2)(x+3)
    assert _is_irreducible(5, (2, 0))  # x^2 + 2
    assert first_irreducible(5, 2) == (2, 0)


def test_gf4_multiplication():
    gf4 = GaloisField(2, 2)
    assert gf4.reduction == (1, 1)  # x^2 + x + 1
    x = 2
    assert gf4.mul(x, x) == 3  # x^2 = x + 1
    assert gf4.mul(x, 3) == 1  # x^3 = 1


def test_gf16_ground_modulus():
    gf16 = GaloisField(2, 4)
    assert gf16.reduction == (1, 1, 0, 0)  # x^4 + x + 1
    assert gf16.order == 16
    assert gf16.mul(8, 2) == 3  # x^3 * x = x^4 = x + 1


def _schoolbook(a: int, b: int, p: int, k: int, reduction: tuple) -> int:
    """a * b as base-p digit polynomials, reduced by x^k = -(r0 + ... )."""
    da = [(a // p**j) % p for j in range(k)]
    db = [(b // p**j) % p for j in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += da[i] * db[j]
    for top in range(2 * k - 2, k - 1, -1):
        c, prod[top] = prod[top], 0
        for j, r in enumerate(reduction):
            prod[top - k + j] -= c * r
    return sum((c % p) * p**j for j, c in enumerate(prod[:k]))


@pytest.mark.parametrize(
    "p, k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6), (41, 1)]
)
def test_table_products_match_schoolbook(p, k):
    # pins the int encoding to the enumeration order: int i is the
    # polynomial whose base-p digits are i's, constant term first
    f = GaloisField(p, k)
    reduction = first_irreducible(p, k)
    assert f.reduction == reduction
    for a in range(p**k):
        for b in range(p**k):
            assert f.mul(a, b) == _schoolbook(a, b, p, k, reduction), (a, b)
            assert f.add(a, b) == sum(
                (((a // p**j) + (b // p**j)) % p) * p**j for j in range(k)
            )


def test_products_walk_past_a_non_primitive_x():
    # x^8 + x^4 + x^3 + x + 1 is irreducible but x has order 51 modulo
    # it, so the first generator of GF(2^8) is x + 1, as in GF(9)
    f = GaloisField(2, 8)
    assert f.reduction == (1, 1, 0, 1, 1, 0, 0, 0)
    assert f.exp[1] == 3
    assert GaloisField(3, 2).exp[1] == 4
    rng = random.Random(8)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert f.mul(a, b) == _schoolbook(a, b, 2, 8, f.reduction), (a, b)


# one digest over (reduction, sums, negs, exp, log) of every prime power
# q <= 256, frozen while the tables were still built by schoolbook products
TABLES_256_SHA256 = "b1d2ce64e93cc11698a45d0dfdc7091ab02b75d187f47c8e760fdb2d4727c786"


def test_frozen_tables_to_256():
    digest = hashlib.sha256()
    for q in _prime_powers(256):
        f = GaloisField(*prime_power(q))
        digest.update(repr((f.reduction, f.sums, f.negs, f.exp, f.log)).encode())
    assert digest.hexdigest() == TABLES_256_SHA256


def test_gf_1024_builds_fast():
    # the 2^20-entry sum table is gathered row by row, not summed entry
    # by entry
    best = min(timeit.repeat(lambda: GaloisField(2, 10), number=1, repeat=5))
    assert best <= 0.15


def test_rebuilding_fields_holds_no_memory():
    # plan and bounds rebuild the same fields on every pass, so a build
    # must free all it makes: CPython 3.11 never reuses a freed 20-item
    # tuple or the resized tuple of a star-expanded iterator
    sizes = [(2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (7, 1), (2, 4), (5, 2)]
    tracemalloc.start()
    try:
        for size in sizes:
            GaloisField(*size)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            for size in sizes:
                GaloisField(*size)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096


def test_for_size_reference_tower():
    g = FieldGF.for_size(11)
    assert g.modulus == (7, 1)  # x^2 + x + 7, found, not pinned
    assert order_of_x(g.base, g.modulus) == 120  # x generates


@pytest.mark.parametrize("q", _prime_powers(64))
def test_for_size_takes_the_first_primitive_quadratic(q):
    # walk the powers of x modulo each x^2 + b x + c in enumeration order
    # (c, b) = (i % q, i // q); the first whose x has order q^2 - 1 is
    # the modulus. Full order makes every nonzero element a power of x,
    # hence a unit, so the quotient is a field and needs no separate
    # irreducibility test.
    base = GaloisField(*prime_power(q))
    first = next(
        (i % q, i // q) for i in range(q * q)
        if order_of_x(base, (i % q, i // q)) == q * q - 1
    )
    assert FieldGF.for_size(q).modulus == first


@pytest.mark.parametrize("q", _prime_powers(27))
def test_primitivity_walk_matches_the_order_of_x(q):
    # the walk to x^(q+1) (Thm 3.18) against the order of x, for every
    # monic quadratic, reducible ones included
    base = GaloisField(*prime_power(q))
    for c in range(q):
        for b in range(q):
            full = order_of_x(base, (c, b)) == q * q - 1
            assert (_walk_to_norm(base, c, b) is not None) == full, (c, b)


def test_exponent_set_membership_count():
    # x^m - x lands in GF(N) for exactly N exponents; m = 1 is
    # always one of them since the difference is zero
    for n in (2, 3, 4, 9):
        g = FieldGF.for_size(n)
        exps = g.exponent_set()
        assert len(exps) == n
        assert exps[0] == 1
        assert all(1 <= m <= n * n - 1 for m in exps)


def test_exponent_set_matches_the_full_walk_above_the_frozen_sizes():
    # tests/frozen_sidon.json pins every prime power up to 128; the
    # N + 1-step walk must also agree with all N^2 - 1 powers beyond it
    for q in (131, 243, 256, 343, 512):
        g = FieldGF.for_size(q)
        assert g.exponent_set() == exponent_set_by_full_walk(g.base, g.modulus), q


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 13, 16, 23, 25, 27]))
def test_theta_always_has_full_order(n):
    g = FieldGF.for_size(n)
    assert order_of_x(g.base, g.modulus) == n * n - 1
