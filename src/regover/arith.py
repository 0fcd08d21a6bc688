"""Pointwise arithmetic functions: divisor sums, the mod-4 character, a
prime sieve, and representation counts r_k(n) by sums of squares.

d*, sigma3_minus and the closed r_k formulas are defined as sums over the
divisors of n, but every such sum is multiplicative, so each is evaluated
as a product over the prime powers p^e of n (Grosswald, Representations of
Integers as Sums of Squares, 1985), with n factored by plain trial
division.  These closed forms serve ``regover value`` one n at a time.
They also seed the multiplicative sieves that build the residue tables
claim runs read (``regover.sequences``): at each prime power p^e <= top
with e >= 2, and at a prime p once per class of p mod lcm(4, M), M the
sieve's modulus.  So a claim run factors a few hundred arguments, each
at most the table's top index (664 calls, none above 3^9 = 19,683, for the
registry's congruences at bound 20,000), and at that size plain trial
division costs less than a gcd with a product of small primes would.

r_k values come two independent ways: these closed formulas (r_formula)
and k-fold convolution of the one-dimensional squares vector (r_oracle),
so each checks the other.
"""

from __future__ import annotations

from itertools import compress

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
    return list(compress(range(n + 1), sieve))


def _factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as [(p, e), ...], p increasing,
    by trial division: by 2, then by each odd d while d^2 <= n, dividing
    out each factor found.  What is left above 1 is a prime."""
    factors = []
    d, step = 2, 1
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d, step = d + step, 2  # 2, then the odd d
    if n > 1:
        factors.append((n, 1))
    return factors


def d_star(n: int) -> int:
    """Sum of the divisors of n not divisible by 4.

    This is multiplicative: at an odd p^e it is 1 + p + ... + p^e, and at
    2^a (a >= 1) the divisors 1 and 2 give 3."""
    if n < 1:
        raise ValueError("d_star is defined for n >= 1")
    total = 1
    for p, e in _factorize(n):
        total *= 3 if p == 2 else (p ** (e + 1) - 1) // (p - 1)
    return total


def sigma3_minus(n: int) -> int:
    """Signed cube divisor sum: sum over d | n of (-1)^d d^3.

    The odd divisors of n = 2^a m are those of m, so this is
    sigma_3(n) - 2 sigma_3(m) = -sigma_3(m) (2 - sigma_3(2^a)), where
    sigma_3 at p^e is 1 + p^3 + ... + p^(3e)."""
    if n < 1:
        raise ValueError("sigma3_minus is defined for n >= 1")
    total = -1
    for p, e in _factorize(n):
        s = (p ** (3 * e + 3) - 1) // (p**3 - 1)
        total *= 2 - s if p == 2 else s
    return total


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
    sum chi(n/d) d^2 and sum chi(d) d^2: sum_i c^(e-i) s^i and
    sum_i (c s)^i (i = 0..e), with s = p^2 and c = chi(p), in closed form.
    s - c and c s - 1 are never 0, and at p = 2 (c = 0) the sums are
    2^(2e) and 1."""
    s, c = p * p, chi(p)
    return (s ** (e + 1) - c ** (e + 1)) // (s - c), ((c * s) ** (e + 1) - 1) // (c * s - 1)


def r_formula(k: int, n: int) -> int:
    """Closed formulas for the number of representations by k squares:

    r_2 = 4 sum chi(d);  r_4 = 8 d*(n);
    r_6 = 16 sum chi(n/d) d^2 - 4 sum chi(d) d^2;  r_8 = 16 (-1)^n sigma3_minus(n),

    each sum over the divisors d of n.  Every sum is multiplicative, so it
    is evaluated as a product over the prime powers p^e of n: sum chi(d)
    gives sum_i chi(p)^i (i = 0..e), which is e + 1 for p = 1 (mod 4), 1 or
    0 as e is even or odd for p = 3 (mod 4), and 1 for p = 2; the r_6 sums
    give r6_factors(p, e).  So for k = 2, 4, 8 and n >= 1, r_k = 2k f_k for
    a multiplicative f_k: f_2 = sum chi(d), f_4 = d* and f_8 = (-1)^n
    sigma3_minus(n).  r_6 has no such form (r_6(3) = 160).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k not in (2, 4, 6, 8):
        raise ValueError(f"no closed formula for k={k} (supported: 2, 4, 6, 8)")
    if n == 0:
        return 1
    if k == 2:
        reps = 4
        for p, e in _factorize(n):
            if p % 4 == 1:
                reps *= e + 1
            elif p % 4 == 3 and e % 2:
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
