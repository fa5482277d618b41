"""Finite-field arithmetic for Sidon-sequence construction.

GF(p^k) is GF(p)[x] modulo the first irreducible monic polynomial of
degree k, and its elements are the ints 0..p^k - 1: the base-p digits
of an int are the polynomial's coefficients, constant term first.
A field is its tables, and callers read them directly: products from
log/antilog tables built from the field's first generator, sums and
negatives from flat tables. They are gathered from permutation rows of
N ints, with no polynomial product and no arithmetic per entry (see
`GaloisField`), and a product is the same whichever generator the
tables follow. The quadratic extension GF(N^2) has elements
(a0, a1) = a0 + a1 x with a0, a1 ints of GF(N), and its modulus is the
first primitive quadratic, so x generates GF(N^2)*. One walk of
x, ..., x^(N+1), run once in `FieldGF.for_size`, tests primitivity
(Lidl & Niederreiter, Finite Fields, Thm 3.18) and holds the exponent
set: every later power is a power of the norm x^(N+1) times one of the
first N.

Polynomial and element enumeration order is fixed once and for all:
index i maps to base-N digits of i, least significant digit = constant
coefficient. "First irreducible", "first generator" and "first
primitive" below refer to this order, so every field is deterministic.
The ints of GF(p^k) are exactly this order, and (a0, a1) in GF(N^2) is
element a0 + a1 N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter


class NotPrimePower(ValueError):
    pass


def prime_power(n: int) -> tuple[int, int]:
    """Return (p, k) with n = p^k, or raise NotPrimePower.

    p is the least prime factor of n, found by trial division up to
    isqrt(n) (n itself if nothing divides); fine for the small sizes here.
    """
    if n < 2:
        raise NotPrimePower(f"{n} is not a prime power")
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    k, rest = 0, n
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrimePower(f"{n} is not a prime power")
    return p, k


def _digits(a: int, p: int, k: int) -> list[int]:
    """The k base-p digits of a, least significant first."""
    out = []
    for _ in range(k):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _poly_mod(a: list, m: list, p: int) -> list:
    """Remainder of a modulo monic m over GF(p) (coefficient lists, constant first)."""
    a = [c % p for c in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _is_irreducible(p: int, low_coeffs: tuple) -> bool:
    """Check the monic poly over GF(p) with the given low coefficients.

    Trial division by every monic polynomial of degree 1..deg/2; the
    fields used here are small enough that this is instantaneous.
    """
    deg = len(low_coeffs)
    poly = list(low_coeffs) + [1]
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            if not any(_poly_mod(poly, _digits(idx, p, d) + [1], p)):
                return False
    return True


def first_irreducible(p: int, degree: int) -> tuple:
    """Low coefficients of the first irreducible monic poly of `degree` over GF(p)."""
    for idx in range(p**degree):
        low = tuple(_digits(idx, p, degree))
        if _is_irreducible(p, low):
            return low
    raise RuntimeError("no irreducible polynomial found")  # cannot happen


class GaloisField:
    """GF(p^k) on the ints 0..p^k - 1 (base-p digits, constant term first).

    The field is its five tables, with no scalar operations: code that
    adds or multiplies reads them. `reduction` holds the k low
    coefficients (r0..r_{k-1}) of the monic modulus
    x^k + r_{k-1} x^{k-1} + ... + r0, the first irreducible of degree k;
    for k = 1 it is x, so ints multiply mod p. `exp[i]` is
    g^i for the first generator g, stored twice over so that a product
    needs no reduction of its exponent; `log` inverts it on 1..N-1.
    `sums[a * N + b]` is a + b and `negs[a]` is -a. So a * b is
    `exp[log[a] + log[b]]` for nonzero a and b.

    The tables are built by gathers, with no arithmetic per entry. Row a
    of `sums` (b -> a + b) is row a - p^j gathered through the rotation
    that adds 1 at digit j. Multiplying by g is GF(p)-linear, so its row
    is assembled from g's images of the basis 1, x, ..., x^(k-1) and
    their multiples, read through `sums`; the powers of g then follow
    that row. Every product a * b is the same whichever generator the
    tables follow: only `exp` and `log` depend on the choice.
    """

    def __init__(self, p: int, k: int = 1):
        self.order = q = p**k
        self.reduction = first_irreducible(p, k)
        weights = [p**j for j in range(k)]

        # row a of sums (b -> a + b) is row a - w gathered through the
        # digit-j increment (w = p^j), which rotates each block of p * w
        # ints by w. The rotation is a list, not an iterator: star-expanding
        # an iterator leaves a resized tuple that CPython 3.11 never reuses
        sums = list(range(q))
        for w in weights:
            rotation = []
            for i in range(0, q, p * w):
                rotation += range(i + w, i + p * w)
                rotation += range(i, i + w)
            step = itemgetter(*rotation)
            for a in range(w, p * w):
                sums += step(sums[(a - w) * q : (a - w + 1) * q])
        self.sums = sums
        self.negs = [sums.index(0, s) - s for s in range(0, q * q, q)]

        def row(a: int) -> list:
            return sums[a * q : a * q + q]

        def multiples(v: int) -> list:
            """0, v, 2v, ..., (p - 1) v."""
            out, add_v = [0], row(v)
            for _ in range(p - 1):
                out.append(add_v[out[-1]])
            return out

        # times_x[b] = x b: the low k - 1 digits shift up, and the top
        # digit t comes back as t x^k = -t (r0 + ... + r_{k-1} x^{k-1})
        x_k = self.negs[sum(r * w for r, w in zip(self.reduction, weights))]
        times_x = list(chain.from_iterable(row(m)[::p] for m in multiples(x_k)))

        for g in range(1, q):
            # times_g[b] = g b, one base-p digit of b at a time from g x^j
            times_g, image = multiples(g), g
            for _ in range(1, k):
                image = times_x[image]
                gather = itemgetter(*times_g)
                times_g = list(chain.from_iterable(gather(row(m)) for m in multiples(image)))
            powers, e = [1], g
            while e != 1:
                powers.append(e)
                e = times_g[e]
            if len(powers) == q - 1:
                break
        self.exp = powers + powers
        self.log = [0] * q
        for i, e in enumerate(powers):
            self.log[e] = i


class QuadraticExt:
    """GF(N^2) = GF(N)[x] / (x^2 + b x + c); elements (a0, a1) = a0 + a1 x."""

    def __init__(self, base: GaloisField):
        self.order = base.order**2


def _walk_to_norm(base: GaloisField, c: int, b: int) -> list | None:
    """Walk x, x^2, ..., x^(N+1) modulo x^2 + b x + c, up to the first power in GF(N).

    By Lidl & Niederreiter, Finite Fields, Thm 3.18, x generates
    GF(N^2)* iff c is primitive in GF(N) and that power is x^(N+1),
    which is then the norm c. So a c that does not generate GF(N)* is
    rejected before any walk. If x generates, returns u1: u1[m - 1] is
    the x-coefficient of x^m for m in 1..N. Otherwise returns None.
    """
    n, exp, log, sums, negs = base.order, base.exp, base.log, base.sums, base.negs
    # c = 0: x divides the modulus, so it is no unit (and log[0] reads 0)
    if c == 0 or math.gcd(log[c], n - 1) != 1:
        return None
    log_c, log_b = log[negs[c]], log[negs[b]]
    # x (u0 + u1 x) = -c u1 + (u0 - b u1) x, as x^2 = -b x - c
    u0, u1, coeffs = 0, 1, []
    while u1 and len(coeffs) < n:
        coeffs.append(u1)
        lu = log[u1]
        u0, u1 = exp[log_c + lu], sums[u0 * n + (exp[log_b + lu] if b else 0)]
    return None if u1 or len(coeffs) < n else coeffs


@dataclass(frozen=True)
class FieldGF:
    """The quadratic tower GF(N) in GF(N^2), generated by x.

    N = p^k. `modulus` holds the low coefficients (c, b) of the monic
    x^2 + b x + c over GF(N) defining the extension: the first primitive
    quadratic in enumeration order (primitivity as in Lidl &
    Niederreiter, Thm 3.18), so the root x generates GF(N^2)*.
    Coefficients are ints of GF(N). `walk` is the walk that proved x
    primitive, run once in `for_size`: walk[m - 1] is the x-coefficient
    of x^m for m in 1..N.
    """

    modulus: tuple
    base: GaloisField
    ext: QuadraticExt
    walk: tuple

    @classmethod
    def for_size(cls, n: int):
        """Build the tower for N = n, a prime power.

        Scans the monic quadratics x^2 + b x + c in enumeration order (c
        fastest) with `_walk_to_norm` and keeps the first whose root x
        generates GF(N^2)*. Primitive quadratics exist over every finite
        field, so the scan ends. For N = 11 it lands on x^2 + x + 7, the
        conventional reference choice for the length-11 sequence quoted
        in the literature.
        """
        base = GaloisField(*prime_power(n))
        walks = ((c, b, _walk_to_norm(base, c, b)) for b in range(n) for c in range(n))
        c, b, walk = next(w for w in walks if w[2])
        return cls((c, b), base, QuadraticExt(base), tuple(walk))

    def exponent_set(self) -> list[int]:
        """Exponents m in 1..N^2-1 with x^m - x in GF(N), sorted.

        Membership only depends on the x-coefficient of x^m being 1,
        since GF(N) inside GF(N^2) is exactly the elements with zero
        x-coefficient. The first N + 1 powers of x, up to the norm
        c = x^(N+1), hold the whole set: x^(m + (N+1) j) = c^j x^m, and c
        generates GF(N)*, so each m in 1..N has exactly one j in 0..N-2
        with c^j u1(m) = 1 for the x-coefficient u1(m) = walk[m - 1] of
        x^m. No power of x is walked again here.
        """
        f, n, c = self.base, self.base.order, self.modulus[0]
        # j log c = -log u1(m) mod N - 1; at N = 2 the inverse mod 1 is 0
        inv = pow(f.log[c], -1, n - 1)
        return sorted(m + (n + 1) * (-f.log[u1] * inv % (n - 1)) for m, u1 in enumerate(self.walk, 1))
