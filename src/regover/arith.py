"""Pointwise arithmetic functions: divisor sums, the mod-4 character, a
prime sieve, and representation counts r_k(n) by sums of squares.

r_k values come two independent ways: closed divisor-sum formulas
(r_formula) and k-fold convolution of the one-dimensional squares vector
(r_oracle), so each checks the other.
"""

from __future__ import annotations

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


def _divisors(n: int):
    d = 1
    while d * d <= n:
        if n % d == 0:
            yield d
            if d != n // d:
                yield n // d
        d += 1


def d_star(n: int) -> int:
    """Sum of the divisors of n not divisible by 4."""
    if n < 1:
        raise ValueError("d_star is defined for n >= 1")
    return sum(d for d in _divisors(n) if d % 4)


def sigma3_minus(n: int) -> int:
    """Signed cube divisor sum: sum over d | n of (-1)^d d^3."""
    if n < 1:
        raise ValueError("sigma3_minus is defined for n >= 1")
    return sum(d**3 if d % 2 == 0 else -(d**3) for d in _divisors(n))


def chi(n: int) -> int:
    """The nontrivial character mod 4: 1, -1, 0 for n = 1, 3, even (mod 4)."""
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def r_formula(k: int, n: int) -> int:
    """Closed formulas for the number of representations by k squares:

    r_2 = 4 sum chi(d);  r_4 = 8 d*(n);
    r_6 = 16 sum chi(n/d) d^2 - 4 sum chi(d) d^2;  r_8 = 16 (-1)^n sigma3_minus(n).
    """
    if n == 0:
        return 1
    if n < 0:
        raise ValueError("n must be >= 0")
    if k == 2:
        return 4 * sum(chi(d) for d in _divisors(n))
    if k == 4:
        return 8 * d_star(n)
    if k == 6:
        return 16 * sum(chi(n // d) * d * d for d in _divisors(n)) - 4 * sum(
            chi(d) * d * d for d in _divisors(n)
        )
    if k == 8:
        return 16 * (-1) ** n * sigma3_minus(n)
    raise ValueError(f"no closed formula for k={k} (supported: 2, 4, 6, 8)")


_r_tables: dict[int, list[int]] = {}


def r_oracle_table(k: int, upto: int) -> list[int]:
    """r_k(0..upto) by k-fold convolution of the squares-count vector."""
    if not 1 <= k <= 8:
        raise ValueError("k must be between 1 and 8")
    if upto > R_ORACLE_N_CAP:
        raise ValueError(f"n exceeds the enumeration cap {R_ORACLE_N_CAP}")
    cached = _r_tables.get(k)
    if cached is not None and len(cached) > upto:
        return cached[: upto + 1]
    squares = [0] * (upto + 1)
    squares[0] = 1
    j = 1
    while j * j <= upto:
        squares[j * j] = 2
        j += 1
    table = [1] + [0] * upto
    for _ in range(k):
        table = kernels.mul_exact(table, squares, upto + 1)
    _r_tables[k] = table
    return table[:]


def r_oracle(k: int, n: int) -> int:
    """Number of ordered k-tuples of integers whose squares sum to n."""
    return r_oracle_table(k, n)[n]
