"""Pointwise arithmetic functions: divisor sums, the mod-4 character, a
prime sieve, and representation counts r_k(n) by sums of squares.

d*, sigma3_minus and the closed r_k formulas are defined as sums over the
divisors of n, but every such sum is multiplicative, so each is evaluated
as a product over the prime powers p^e of n (Grosswald, Representations of
Integers as Sums of Squares, 1985).  The factorization is by trial division
up to the square root of the remaining cofactor, with no table or cache.
These closed forms serve ``regover value`` one n at a time; at the prime
powers they also seed the multiplicative sieves that build the residue
tables claim runs read (``regover.sequences``).

r_k values come two independent ways: these closed formulas (r_formula)
and k-fold convolution of the one-dimensional squares vector (r_oracle),
so each checks the other.
"""

from __future__ import annotations

from itertools import chain, count

from . import kernels

R_ORACLE_N_CAP = 5000


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = primes_up_to(1000)


def _factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as [(p, e), ...], p increasing.

    Divides by the primes up to 1000 and then by the odd d above them, until
    d^2 exceeds the remaining cofactor; what is left above 1 is a prime."""
    factors = []
    for d in chain(_SMALL_PRIMES, count(_SMALL_PRIMES[-1] + 2, 2)):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
    if n > 1:
        factors.append((n, 1))
    return factors


def _split_two(n: int) -> tuple[int, list[tuple[int, int]]]:
    """n = 2^a m with m odd, as a and the factorization of m."""
    a = (n & -n).bit_length() - 1
    return a, _factorize(n >> a)


def _sigma(factors: list[tuple[int, int]], k: int) -> int:
    """The sum of the k-th powers of the divisors, as the product of
    (p^(k(e+1)) - 1) / (p^k - 1) over the prime powers p^e."""
    total = 1
    for p, e in factors:
        q = p**k
        total *= (q ** (e + 1) - 1) // (q - 1)
    return total


def d_star(n: int) -> int:
    """Sum of the divisors of n not divisible by 4.

    Those divisors are d and 2d for d | m, where n = 2^a m with m odd, so
    d*(n) = sigma(m), times 3 when n is even."""
    if n < 1:
        raise ValueError("d_star is defined for n >= 1")
    a, odd = _split_two(n)
    return _sigma(odd, 1) * (3 if a else 1)


def sigma3_minus(n: int) -> int:
    """Signed cube divisor sum: sum over d | n of (-1)^d d^3.

    The odd divisors of n = 2^a m are those of m, so this is
    sigma_3(n) - 2 sigma_3(m) = sigma_3(m) (sigma_3(2^a) - 2)."""
    if n < 1:
        raise ValueError("sigma3_minus is defined for n >= 1")
    a, odd = _split_two(n)
    return _sigma(odd, 3) * ((8 ** (a + 1) - 1) // 7 - 2)


def chi(n: int) -> int:
    """The nontrivial character mod 4: 1, -1, 0 for n = 1, 3, even (mod 4)."""
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def r6_factors(p: int, e: int) -> tuple[int, int]:
    """The factors at p^e of r_6's two multiplicative divisor sums,
    sum chi(n/d) d^2 and sum chi(d) d^2: sum_i chi(p)^(e-i) p^(2i) and
    sum_i chi(p)^i p^(2i) (i = 0..e) for odd p, and 2^(2e) and 1 for p = 2."""
    if p == 2:
        return 4**e, 1
    c = chi(p)
    return (
        sum(c ** (e - i) * p ** (2 * i) for i in range(e + 1)),
        sum(c**i * p ** (2 * i) for i in range(e + 1)),
    )


def r_formula(k: int, n: int) -> int:
    """Closed formulas for the number of representations by k squares:

    r_2 = 4 sum chi(d);  r_4 = 8 d*(n);
    r_6 = 16 sum chi(n/d) d^2 - 4 sum chi(d) d^2;  r_8 = 16 (-1)^n sigma3_minus(n),

    each sum over the divisors d of n.  Every sum is multiplicative, so it
    is evaluated as a product over the prime powers p^e of n: for odd p,
    sum chi(d) gives sum_i chi(p)^i (i = 0..e), and 1 for p = 2; the r_6
    sums give r6_factors(p, e).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k not in (2, 4, 6, 8):
        raise ValueError(f"no closed formula for k={k} (supported: 2, 4, 6, 8)")
    if n == 0:
        return 1
    if k == 2:
        reps = 4
        for p, e in _split_two(n)[1]:
            if p % 4 == 1:
                reps *= e + 1
            elif e % 2:
                return 0
        return reps
    if k == 4:
        return 8 * d_star(n)
    if k == 6:
        twisted = plain = 1
        for p, e in _factorize(n):
            t, s = r6_factors(p, e)
            twisted, plain = twisted * t, plain * s
        return 16 * twisted - 4 * plain
    return 16 * (-1) ** n * sigma3_minus(n)


def r_oracle_table(k: int, upto: int) -> list[int]:
    """r_k(0..upto) by k-fold convolution of the squares-count vector,
    built afresh on every call."""
    if upto < 0:
        raise ValueError("n must be >= 0")
    if not 1 <= k <= 8:
        raise ValueError("k must be between 1 and 8")
    if upto > R_ORACLE_N_CAP:
        raise ValueError(f"n exceeds the enumeration cap {R_ORACLE_N_CAP}")
    squares = [0] * (upto + 1)
    squares[0] = 1
    j = 1
    while j * j <= upto:
        squares[j * j] = 2
        j += 1
    table = [1] + [0] * upto
    for _ in range(k):
        table = kernels.mul_exact(table, squares, upto + 1)
    return table


def r_oracle(k: int, n: int) -> int:
    """Number of ordered k-tuples of integers whose squares sum to n."""
    return r_oracle_table(k, n)[n]
