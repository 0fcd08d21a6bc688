import random
from functools import lru_cache
from math import gcd, isqrt, prod

import pytest

from regover import arith
from regover.arith import (
    R_ORACLE_N_CAP,
    chi,
    d_star,
    primes_up_to,
    r_formula,
    r_oracle,
    r_oracle_table,
    sigma3_minus,
)
from regover.products import phi
from regover.series import ZZ


# -- trial-division references: each divisor sum straight from its definition


@lru_cache(maxsize=None)
def ref_divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def ref_d_star(n):
    return sum(d for d in ref_divisors(n) if d % 4)


def ref_sigma3_minus(n):
    return sum(d**3 if d % 2 == 0 else -(d**3) for d in ref_divisors(n))


def ref_r_formula(k, n):
    if n == 0:
        return 1
    divisors = ref_divisors(n)
    if k == 2:
        return 4 * sum(chi(d) for d in divisors)
    if k == 4:
        return 8 * ref_d_star(n)
    if k == 6:
        return 16 * sum(chi(n // d) * d * d for d in divisors) - 4 * sum(
            chi(d) * d * d for d in divisors
        )
    return 16 * (-1) ** n * ref_sigma3_minus(n)


def _check_against_references(n):
    assert d_star(n) == ref_d_star(n), n
    assert sigma3_minus(n) == ref_sigma3_minus(n), n
    for k in (2, 4, 6, 8):
        assert r_formula(k, n) == ref_r_formula(k, n), (k, n)


def _large_cases():
    rng = random.Random(160308660)
    cases = [2**a for a in range(1, 31)]
    # p = 1 (mod 4) and p = 3 (mod 4), to odd and even powers, alone and
    # beside a random even cofactor
    for p in (5, 13, 17, 3, 7, 11):
        for e in range(1, 9):
            cases += [p**e, p**e * 2 * rng.randint(1, 500)]
    # primes above 1000 (1009, 1013 = 1 and 1019, 1031 = 3 mod 4), their
    # squares, and their products, so the cofactor outlives the small primes
    big = [1009, 1013, 1019, 1031, 7919, 104723, 1000003]
    cases += big + [p * p for p in big]
    cases += [1009 * 1019, 3 * 1019**2, 4 * 1013**2 * 7, 1009 * 1013 * 1019]
    # a large prime cofactor beside a random small one, up to 10^12
    for p in (999999937, 1000000007, 1000000009, 2147483647):
        cases.append(p * rng.randint(2, 10**12 // p))
    return cases


def test_closed_forms_match_trial_division_up_to_5000():
    for n in range(1, 5001):
        _check_against_references(n)


def test_closed_forms_match_trial_division_on_large_n():
    for n in _large_cases():
        _check_against_references(n)


def test_factorize_gives_increasing_prime_powers():
    for n in _large_cases():
        factors = arith._factorize(n)
        assert prod(p**e for p, e in factors) == n, n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors}), n
        assert all(len(ref_divisors(p)) == 2 for p, _ in factors), n


def test_factorize_matches_a_smallest_prime_factor_sieve():
    top = 2 * 10**5
    spf = list(range(top + 1))
    for p in range(2, isqrt(top) + 1):
        if spf[p] == p:
            for m in range(p * p, top + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(1, top + 1):
        expected, m = [], n
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m, e = m // p, e + 1
            expected.append((p, e))
        assert arith._factorize(n) == expected, n


def test_factorize_at_the_edges_of_the_small_prime_gcd():
    # the edges of the factorization that took a gcd with the product of
    # the primes below 1000: 997 is the last such prime and 1009, 1013 the
    # first above it
    small_primes = [q for q in range(2, 1000) if all(q % d for d in range(2, isqrt(q) + 1))]
    small = [(p, 1) for p in small_primes]
    primorial = prod(small_primes)
    cases = {
        997**2: [(997, 2)],
        997 * 1009: [(997, 1), (1009, 1)],
        1009**2: [(1009, 2)],
        1009 * 1013: [(1009, 1), (1013, 1)],
        10**6 + 3: [(10**6 + 3, 1)],
        2 * 999983: [(2, 1), (999983, 1)],
        primorial: small,
        primorial * 1009: small + [(1009, 1)],
        2**40 * 997**3: [(2, 40), (997, 3)],
        # trial division's own edges: no factor, the squares of primes at
        # which d^2 = n stops the loop, and the shapes of the sieve seeds
        1: [],
        4: [(2, 2)],
        9: [(3, 2)],
        25: [(5, 2)],
        49: [(7, 2)],
        3**9: [(3, 9)],
        2**14: [(2, 14)],
        139**2: [(139, 2)],
    }
    for n, factors in cases.items():
        assert arith._factorize(n) == factors, n


def test_d_star():
    assert d_star(1) == 1
    assert d_star(4) == 3
    assert d_star(6) == 12
    assert d_star(12) == 12
    with pytest.raises(ValueError):
        d_star(0)


def test_sigma3_minus():
    assert sigma3_minus(1) == -1
    assert sigma3_minus(2) == 7
    assert sigma3_minus(4) == 71
    with pytest.raises(ValueError):
        sigma3_minus(0)


def test_chi():
    assert chi(1) == 1
    assert chi(3) == -1
    assert chi(2) == 0
    assert chi(0) == 0
    assert chi(9) == 1


def test_primes_helpers():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_primes_up_to_matches_trial_division():
    primes = [q for q in range(2, 3001) if all(q % d for d in range(2, isqrt(q) + 1))]
    for n in range(3001):
        assert primes_up_to(n) == [q for q in primes if q <= n], n


def test_r6_factors_are_the_defining_sums():
    for p in primes_up_to(1000):
        c = chi(p)
        for e in range(9):
            assert arith.r6_factors(p, e) == (
                sum(c ** (e - i) * p ** (2 * i) for i in range(e + 1)),
                sum(c**i * p ** (2 * i) for i in range(e + 1)),
            ), (p, e)


def test_r_formula_examples():
    assert r_formula(4, 2) == 24
    assert r_formula(2, 5) == 8
    assert r_formula(6, 1) == 12
    assert r_formula(8, 3) == 448
    assert [r_formula(k, 0) for k in (2, 4, 6, 8)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        r_formula(3, 5)
    with pytest.raises(ValueError, match="n must be >= 0"):
        r_formula(4, -1)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_r_formula_rejects_unsupported_k_at_every_n(k):
    # n = 0 must not answer r_k(0) = 1 before k is checked
    for n in (0, 5):
        with pytest.raises(ValueError, match=f"no closed formula for k={k}"):
            r_formula(k, n)


def test_r_oracle_examples():
    assert r_oracle(4, 0) == 1
    assert r_oracle(4, 1) == 8
    assert r_oracle(8, 2) == 112
    assert r_oracle(8, 2) == 16 * sigma3_minus(2)
    with pytest.raises(ValueError):
        r_oracle(4, 6000)
    with pytest.raises(ValueError):
        r_oracle(9, 10)
    with pytest.raises(ValueError, match="n must be >= 0"):
        r_oracle(4, -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        r_oracle_table(4, -1)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_r_formula_matches_oracle(k):
    table = r_oracle_table(k, R_ORACLE_N_CAP)
    for n in range(1, R_ORACLE_N_CAP + 1):
        assert r_formula(k, n) == table[n], (k, n)


def test_multiplicativity():
    # d* and chi are multiplicative outright; sigma3_minus has
    # sigma3_minus(1) = -1, so the multiplicative normalization is
    # -sigma3_minus; r_k / 2k is multiplicative for k = 2, 4, 8, the rule the
    # sieved tables are seeded by; r_6 / 12 is not even integral (r_6(3) =
    # 160), so r_6 is tabled from its two divisor sums instead
    rng = random.Random(20170822)
    pairs = 0
    while pairs < 200:
        m = rng.randint(2, 10**4)
        n = rng.randint(2, 10**4)
        if gcd(m, n) != 1:
            continue
        pairs += 1
        assert d_star(m * n) == d_star(m) * d_star(n)
        assert sigma3_minus(m * n) == -sigma3_minus(m) * sigma3_minus(n)
        assert chi(m * n) == chi(m) * chi(n)
        for k in (2, 4, 8):
            (fm, rm), (fn, rn), (fmn, rmn) = (divmod(r_formula(k, x), 2 * k) for x in (m, n, m * n))
            assert rm == rn == rmn == 0 and fmn == fm * fn, (k, m, n)
    assert r_formula(6, 3) % 12 != 0


def test_geometric_sums_vanish_mod_5():
    # sum_{i<=4k+3} p^i and its cube version vanish mod 5 exactly when
    # p mod 5 is not 0 or 1
    good = [p for p in primes_up_to(100) if p % 2 and p % 5 not in (0, 1)]
    for p in good:
        for k in range(6):
            e = 4 * k + 3
            assert sum(p**i for i in range(e + 1)) % 5 == 0
            assert sum(p ** (3 * i) for i in range(e + 1)) % 5 == 0


def test_geometric_sums_fail_for_p_equiv_1_mod_5():
    for p in (11, 31, 41):
        assert sum(p**i for i in range(4)) % 5 == 4
        assert sum(p ** (3 * i) for i in range(4)) % 5 == 4


def test_no_small_prime_has_vanishing_quadratic_sum():
    # 1 + p + p^2 = 0 mod 5 would need (2p+1)^2 = -3, a non-residue mod 5
    assert -3 % 5 not in {x * x % 5 for x in range(5)}
    for p in primes_up_to(10**4):
        if p == 2:
            continue
        assert (1 + p + p * p) % 5 != 0


@pytest.mark.parametrize("k", [4, 8])
def test_phi_power_coefficients_are_twisted_r(k):
    s = phi(-1, ZZ, 500) ** k
    table = r_oracle_table(k, 500)
    for n in range(501):
        assert s[n] == (-1) ** n * table[n]
