import random
from math import gcd

import pytest

from regover.arith import (
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


def test_r_formula_examples():
    assert r_formula(4, 2) == 24
    assert r_formula(2, 5) == 8
    assert r_formula(6, 1) == 12
    assert r_formula(8, 3) == 448
    assert r_formula(4, 0) == 1
    with pytest.raises(ValueError):
        r_formula(3, 5)


def test_r_oracle_examples():
    assert r_oracle(4, 0) == 1
    assert r_oracle(4, 1) == 8
    assert r_oracle(8, 2) == 112
    assert r_oracle(8, 2) == 16 * sigma3_minus(2)
    with pytest.raises(ValueError):
        r_oracle(4, 6000)
    with pytest.raises(ValueError):
        r_oracle(9, 10)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_r_formula_matches_oracle(k):
    table = r_oracle_table(k, 400)
    for n in range(1, 401):
        assert r_formula(k, n) == table[n], (k, n)


def test_multiplicativity():
    # d* is multiplicative outright; sigma3_minus has sigma3_minus(1) = -1,
    # so the multiplicative normalization is -sigma3_minus
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
