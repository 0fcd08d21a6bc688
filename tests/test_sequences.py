import hashlib
import json
import types
from math import isqrt, lcm

import pytest

from regover import arith, kernels, sequences
from regover.products import eta_quotient, phi
from regover.registry import regular_overpartition_quotient
from regover.sequences import (
    SequenceRef,
    oracle_partition,
    oracle_regular_overpartition,
    oracle_regular_overpartition_table,
    sequence_series,
    sequence_value,
)
from regover.series import Series, ZZ, Zmod


def test_sequence_ref_validation():
    assert SequenceRef("p").param is None
    assert SequenceRef("A", 5).label() == "A(5)"
    with pytest.raises(ValueError, match="^unknown sequence 'nope'$"):
        SequenceRef("nope")
    with pytest.raises(ValueError, match="^sequence 'A' requires a parameter$"):
        SequenceRef("A")
    with pytest.raises(ValueError, match="^regularity parameter must be >= 2$"):
        SequenceRef("A", 1)
    with pytest.raises(ValueError, match="^squares count k must be one of 2, 4, 6, 8$"):
        SequenceRef("r", 3)
    with pytest.raises(ValueError, match="^sequence 'p' takes no parameter$"):
        SequenceRef("p", 2)


def test_partition_series_prefix():
    assert sequence_series(SequenceRef("p"), ZZ, 5).coeffs == [1, 1, 2, 3, 5, 7]


def test_overpartition_series_prefix():
    s = sequence_series(SequenceRef("pbar"), ZZ, 6)
    assert s.coeffs == [1, 2, 4, 8, 14, 24, 40]


def test_regular_overpartition_prefix():
    # A_3(3) = 6: the partitions 2+1 (4 overlinings) and 1+1+1 (2) qualify
    s = sequence_series(SequenceRef("A", 3), ZZ, 4)
    assert s.coeffs == [1, 2, 4, 6, 10]


def test_oracle_examples():
    assert oracle_regular_overpartition(5, 1) == 2
    assert oracle_regular_overpartition(5, 3) == 8
    assert oracle_regular_overpartition(None, 4) == 14
    assert oracle_partition(None, 6) == 11
    assert oracle_partition(2, 5) == 3
    assert oracle_partition(None, 0) == 1


def ref_oracle_partition(restriction, n):
    """The oracle before the all-ones shortcut: it recurses down to part 1."""

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            if restriction is not None and part % restriction == 0:
                continue
            total += count(remaining - part, part)
        return total

    return count(n, n)


def ref_oracle_regular_overpartition(restriction, n):
    """The oracle before the all-ones shortcut: it tries every multiplicity
    of every part, part 1 included."""

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            if restriction is not None and part % restriction == 0:
                continue
            used = part
            while used <= remaining:
                total += 2 * count(remaining - used, part - 1)
                used += part
        return total

    return count(n, n)


def test_oracle_closed_form_remainder():
    # n = 1 and 2 never enter the recursion: the whole count is the
    # parts-at-most-2 remainder.  Both parts allowed: 1, 1+1, 2 give
    # 1 and 2 partitions, weighing 2 and 2 + 2 overlined.
    for restriction in (None, 3, 4):
        assert [oracle_partition(restriction, n) for n in (1, 2)] == [1, 2]
        assert [oracle_regular_overpartition(restriction, n) for n in (1, 2)] == [2, 4]
    # restriction 2 bars part 2, leaving only the all-ones partition
    assert [oracle_partition(2, n) for n in (1, 2)] == [1, 1]
    assert [oracle_regular_overpartition(2, n) for n in (1, 2)] == [2, 2]


@pytest.mark.parametrize("restriction", [None, 1, 2, 3, 4, 5, 9, 25])
def test_oracles_match_full_recursion(restriction):
    for n in range(31):
        assert oracle_partition(restriction, n) == ref_oracle_partition(restriction, n), n
        assert oracle_regular_overpartition(restriction, n) == ref_oracle_regular_overpartition(
            restriction, n
        ), n


@pytest.mark.parametrize("restriction", [None, 1, 2, 3, 4, 5, 9, 25])
def test_oracle_table_matches_full_recursion(restriction):
    # one walk up to 30 gives every value the full recursion gives per n
    table = oracle_regular_overpartition_table(restriction, 30)
    assert table == [ref_oracle_regular_overpartition(restriction, n) for n in range(31)]
    assert oracle_regular_overpartition_table(restriction, 0) == [1]


def test_oracles_with_every_part_barred():
    # restriction 1 bars part 1 too, so the all-ones tail must add nothing
    for oracle in (oracle_partition, oracle_regular_overpartition):
        assert oracle(1, 0) == 1
        assert [oracle(1, n) for n in range(1, 31)] == [0] * 30


@pytest.mark.parametrize("restriction", [0, -2])
def test_oracles_reject_a_restriction_below_one(restriction):
    for oracle in (oracle_partition, oracle_regular_overpartition):
        for n in (0, 1, 5):
            with pytest.raises(ValueError, match="restriction must be >= 1"):
                oracle(restriction, n)


def test_oracle_cap():
    with pytest.raises(ValueError):
        oracle_regular_overpartition(3, 61)
    with pytest.raises(ValueError):
        oracle_partition(None, 61)
    for oracle in (oracle_partition, oracle_regular_overpartition):
        with pytest.raises(ValueError, match="n must be >= 0"):
            oracle(None, -1)
    with pytest.raises(ValueError):
        oracle_regular_overpartition_table(3, 61)
    with pytest.raises(ValueError, match="n must be >= 0"):
        oracle_regular_overpartition_table(3, -1)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 7, 9, 25])
def test_series_matches_oracle(ell):
    table = sequence_series(SequenceRef("A", ell), ZZ, 40).coeffs
    for n in range(41):
        assert table[n] == oracle_regular_overpartition(ell, n), (ell, n)


def test_plain_sequences_match_oracles():
    pbar = sequence_series(SequenceRef("pbar"), ZZ, 40).coeffs
    p = sequence_series(SequenceRef("p"), ZZ, 40).coeffs
    b = {ell: sequence_series(SequenceRef("b", ell), ZZ, 40).coeffs for ell in (2, 3, 4, 5, 9, 25)}
    for n in range(41):
        assert pbar[n] == oracle_regular_overpartition(None, n)
        assert p[n] == oracle_partition(None, n)
        for ell, table in b.items():
            assert table[n] == oracle_partition(ell, n), (ell, n)


@pytest.mark.parametrize("ell", [3, 5, 9, 25])
def test_agrees_with_overpartitions_below_ell(ell):
    a = sequence_series(SequenceRef("A", ell), ZZ, min(ell - 1, 40)).coeffs
    pbar = sequence_series(SequenceRef("pbar"), ZZ, min(ell - 1, 40)).coeffs
    assert a == pbar


def test_monotone_growth():
    table = sequence_series(SequenceRef("A", 5), ZZ, 300).coeffs
    assert all(table[n + 1] >= table[n] for n in range(1, 300))


@pytest.mark.parametrize("ell", [2, 3, 5, 25])
def test_grouped_form_matches_generating_quotient(ell):
    # phi(-q^l)/phi(-q) against the literal quotient, exact and mod 5
    spec = regular_overpartition_quotient(ell)
    assert (
        sequence_series(SequenceRef("A", ell), ZZ, 200)
        == eta_quotient(spec, ZZ, 200)
    )
    assert (
        sequence_series(SequenceRef("A", ell), Zmod(5), 1000)
        == eta_quotient(spec, Zmod(5), 1000)
    )


def test_series_backed_only():
    with pytest.raises(ValueError):
        sequence_series(SequenceRef("chi"), ZZ, 10)
    with pytest.raises(ValueError):
        sequence_series(SequenceRef("dstar"), ZZ, 10)


POINTWISE = [SequenceRef("r", k) for k in (2, 4, 6, 8)] + [
    SequenceRef(name) for name in ("dstar", "sigma3m", "chi")
]


@pytest.mark.parametrize("ref", POINTWISE, ids=SequenceRef.label)
@pytest.mark.parametrize("m", [5, 7, 24])
def test_a_pointwise_series_is_its_sieved_table(ref, m):
    series = sequence_series(ref, Zmod(m), 60)
    assert series == sequences._build_series(ref, Zmod(m), 60)
    assert series.coeffs[1:] == [sequence_value(ref, n) % m for n in range(1, 61)]


def test_sequence_value():
    assert sequence_value(SequenceRef("A", 5), 3) == 8
    assert sequence_value(SequenceRef("r", 8), 4) == 1136
    assert sequence_value(SequenceRef("dstar"), 12) == 12
    assert sequence_value(SequenceRef("sigma3m"), 4) == 71
    assert sequence_value(SequenceRef("chi"), 3) == -1


def test_sequence_value_agrees_with_one_table():
    pbar, a5 = SequenceRef("pbar"), SequenceRef("A", 5)
    table = sequence_series(pbar, ZZ, 2000).coeffs
    for n in (0, 1, 999, 2000):
        assert sequence_value(pbar, n) == table[n]
    assert sequence_value(a5, 50) == sequence_series(a5, ZZ, 50).coeffs[50]
    with pytest.raises(ValueError, match="n must be >= 0"):
        sequence_value(pbar, -1)


def test_series_coeffs_hand_out_a_copy():
    # writing into a returned table must not change any later value
    table = sequence_series(SequenceRef("p"), ZZ, 10).coeffs
    table[5] = 999
    assert sequence_value(SequenceRef("p"), 5) == 7
    assert sequence_series(SequenceRef("p"), ZZ, 10).coeffs[5] == 7
    residues = sequence_series(SequenceRef("A", 5), Zmod(5), 20).coeffs
    residues[:] = [1] * len(residues)
    assert sequence_series(SequenceRef("A", 5), Zmod(5), 20).coeffs[3] == 3  # A_5(3) = 8


def test_sequence_series_coeffs_cannot_corrupt_the_cache():
    # Series.coeffs is a fresh list, so writing into the coefficients of a
    # returned series leaves that series and every later read alone
    pbar = SequenceRef("pbar")
    sequence_series(pbar, ZZ, 10).coeffs[5] = 999
    assert sequence_value(pbar, 5) == 24
    series = sequence_series(pbar, Zmod(5), 10)
    series.coeffs[:] = [0] * 11
    assert series[5] == 4 and sequence_series(pbar, Zmod(5), 10)[5] == 4


def test_r_oracle_table_hands_out_a_copy():
    # writing into a returned table must not change any later value
    arith.r_oracle_table(4, 10)[5] = 999
    assert arith.r_oracle(4, 5) == 48
    arith.r_oracle_table(4, 10)[5] = 999
    assert arith.r_oracle_table(4, 10)[5] == 48


def test_build_series_reads_no_cache():
    # an A_l table is built from the pbar table it is given, and nothing else
    a5, ring = SequenceRef("A", 5), Zmod(5)
    pbar = sequences._build_series(SequenceRef("pbar"), ring, 50)
    assert sequences._build_series(a5, ring, 50, pbar) == sequence_series(a5, ring, 50)
    one = Series.one(ring, 50)
    assert sequences._build_series(a5, ring, 50, one) == phi(-1, ring, 50, scale=5)


@pytest.mark.parametrize("step", [1, 2, 3, 5, 25, 125])
@pytest.mark.parametrize("ell", [3, 5, 25, 125, 625])
def test_an_a_table_is_built_at_the_step_it_is_asked_for(ell, step):
    # at g = gcd(step, ell) the builder multiplies phi(-q^(ell/g)) by pbar's
    # g-progression alone; the result is the step-progression of the whole
    # product phi(-q^ell) * pbar, from a pbar over the ring or over a
    # multiple of its modulus, and reaching at least the order
    a = SequenceRef("A", ell)
    rings = [(Zmod(840), Zmod(5)), (Zmod(625), Zmod(5)), (Zmod(625), Zmod(625)), (ZZ, ZZ)]
    for pbar_ring, ring in rings:
        pbar = sequence_series(SequenceRef("pbar"), pbar_ring, 2000)
        for order in (0, 7, 1999, 2000):
            whole = phi(-1, ring, order, scale=ell) * Series(ring, pbar[: order + 1])
            got = sequences._build_series(a, ring, order, pbar, step=step)
            assert got == whole.extract_progression(step), (pbar_ring, ring, order)


@pytest.mark.parametrize("ring", [ZZ, Zmod(5), Zmod(24), Zmod(625), Zmod(840)], ids=str)
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 25, 125])
def test_a_lone_a_table_is_the_quotient_a_plan_builds_as_a_product(ell, ring):
    # given no pbar, an A_l is phi(-q^ell) / phi(-q) in one division; a plan
    # hands it pbar and gets the product phi(-q^ell) * pbar, whole or at
    # step ell, where phi(-q^ell) is a series in q^ell; the two routes agree
    a = SequenceRef("A", ell)
    for order in sorted({0, 1, ell - 1, ell, 600}):
        pbar = sequences._build_series(SequenceRef("pbar"), ring, order)
        lone = sequences._build_series(a, ring, order)
        assert lone == sequences._build_series(a, ring, order, pbar), order
        planned = sequences._build_series(a, ring, order, pbar, step=ell)
        assert planned == lone.extract_progression(ell), order
        assert sequences._build_series(a, ring, order, step=ell) == planned, order


def test_every_other_table_is_built_whole_and_extracted():
    for ref in (SequenceRef("p"), SequenceRef("pbar"), SequenceRef("b", 5), SequenceRef("r", 4)):
        whole = sequences._build_series(ref, Zmod(5), 100)
        assert sequences._build_series(ref, Zmod(5), 100, step=5) == whole.extract_progression(5)


def test_sequence_series_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0"):
        sequence_series(SequenceRef("A", 5), Zmod(5), -1)


# -- sieved tables of the pointwise sequences ---------------------------------

# a modulus up to 256 sieves and reads back as bytes, a larger one as a
# list; r_6's two byte columns are added as ints only up to 128
TABLE_MODULI = (2, 3, 5, 7, 8, 24, 128, 129, 200, 256, 257, 625)

# the two groups mod 105 that a plan of the registry's congruences sieves
R2, R4, R6, R8 = (SequenceRef("r", k) for k in (2, 4, 6, 8))
REGISTRY_GROUPS = (
    sequences.SieveGroup((((R4, 0), 5), ((R2, 0), 3), ((R6, 0), 7))),
    sequences.SieveGroup((((R6, 1), 7), ((R8, 0), 3), ((SequenceRef("sigma3m"), 0), 5))),
)


@pytest.mark.parametrize("ref", POINTWISE, ids=SequenceRef.label)
def test_pointwise_tables_match_the_closed_forms(ref):
    values = [sequence_value(ref, n) for n in range(1, 3001)]
    for m in TABLE_MODULI:
        table = sequences._build_series(ref, Zmod(m), 3000)
        assert table.order == 3000
        assert table[1:] == [v % m for v in values]


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_r_tables_match_the_lattice_count(k):
    # the squares-vector convolution shares nothing with the sieve
    lattice = arith.r_oracle_table(k, 5000)
    for m in TABLE_MODULI:
        table = sequences._build_series(SequenceRef("r", k), Zmod(m), 5000)
        assert table.coeffs == [v % m for v in lattice]


def expected_seeds(order, modulus):
    """The p^e a sieve mod modulus to order seeds each part at, sorted: each
    p^e <= order with e >= 2, then the least prime <= order in each class
    mod lcm(4, modulus)."""
    period = lcm(4, modulus)
    exponents = range(2, order.bit_length())
    powers = [p**e for p in arith.primes_up_to(isqrt(order)) for e in exponents if p**e <= order]
    least = {}
    for p in arith.primes_up_to(order):
        least.setdefault(p % period, p)
    return sorted(powers + list(least.values()))


def test_a_table_seeds_each_small_prime_power_and_each_class_once(monkeypatch):
    # every sieve reads each part's closed form through sequences.arith once
    # per p^e <= top with e >= 2, and once per class mod lcm(4, M) of the
    # primes <= top, for its group's modulus M; the bench tracer counts the
    # arith work of a sieved table through these calls
    seen = []
    proxy = types.SimpleNamespace(**vars(arith))
    for name in ("r_formula", "d_star", "sigma3_minus", "chi", "r6_factors"):
        def spy(*args, fn=getattr(arith, name), name=name):
            if name == "r6_factors":
                seen.append((name, args[0] ** args[1]))
            else:
                seen.append((name, *args))
            return fn(*args)

        setattr(proxy, name, spy)
    monkeypatch.setattr(sequences, "arith", proxy)
    order = 20000
    alone = expected_seeds(order, 5)
    # the 66 p^e with e >= 2, and the classes mod 20 of 2, of 5 and the 8
    # prime to 20, of 2328 p^e
    assert len(alone) == 66 + 10
    for ref in POINTWISE:
        seen.clear()
        table = sequences._build_series(ref, Zmod(5), order)
        # r_6 sieves T and P in two groups, each calling r6_factors
        parts = 2 if ref == SequenceRef("r", 6) else 1
        assert sorted(args[-1] for args in seen) == sorted(alone * parts), ref.label()
        assert table[order] == sequence_value(ref, order) % 5, ref.label()
    # one group of three parts, as a plan sieves r_4 mod 5, r_2 mod 3 and T mod 7
    seen.clear()
    sequences.sieve(REGISTRY_GROUPS[0], order)
    by_part = {}
    for *key, n in seen:
        by_part.setdefault(tuple(key), []).append(n)
    grouped = expected_seeds(order, 105)
    # the classes mod 420 of 2, 3, 5, 7 and the 96 prime to 420
    assert len(grouped) == 66 + 100
    assert {key: sorted(ns) for key, ns in by_part.items()} == {
        ("r_formula", 4): grouped,
        ("r_formula", 2): grouped,
        ("r6_factors",): grouped,
    }


SEEDS = [(ref, 0) for ref in POINTWISE] + [(SequenceRef("r", 6), 1)]


@pytest.mark.parametrize("part", SEEDS, ids=lambda part: f"{part[0].label()}-{part[1]}")
def test_a_seed_at_a_prime_is_a_function_of_its_class_mod_lcm_4_m(part):
    # the sieve seeds every prime with the seed of the least prime in its
    # class mod lcm(4, M), which is right only if each seed at a prime is a
    # function of that class
    ref, i = part
    _, seed = sequences._parts(ref)[i]
    primes = arith.primes_up_to(20000)
    values = {p: seed(p, 1) for p in primes}
    for m in TABLE_MODULI + (105,):
        period = lcm(4, m)
        least = {}
        for p in primes:
            q = least.setdefault(p % period, p)
            assert values[p] % m == values[q] % m, (p, q, m)


def test_a_sieve_scales_one_column_per_prime_and_prime_power(monkeypatch):
    # each of the registry's two groups mod 105 at 2 * 10^4 scales t[p::p]
    # once for each of the 2262 primes and t[q::q] once for each of the 66
    # q = p^e with e >= 2: every scaling translates by one _scale_table
    calls = []
    table = kernels._scale_table

    def spy(s, m):
        calls.append(m)
        return table(s, m)

    monkeypatch.setattr(kernels, "_scale_table", spy)
    order = 20000
    assert len(arith.primes_up_to(order)) == 2262
    for group in REGISTRY_GROUPS:
        calls.clear()
        sequences.sieve(group, order)
        assert calls == [105] * (2262 + 66)


def _two_regime_walk(seed, m, order):
    """The reference walk, as a list, with two regimes: for p <= sqrt(order)
    each slice of exact p-valuation e, t[j p^e :: p^(e+1)] for j = 1..p-1,
    is scaled by f(p^e) seeded at p itself; a larger prime scales t[p::p]
    once, seeded once per class of p mod lcm(4, m) at its least prime above
    sqrt(order)."""
    t = [1] * (order + 1)
    t[0] = 0
    root, period, by_class = isqrt(order), lcm(4, m), {}
    for p in arith.primes_up_to(order):
        if p <= root:
            q, e = p, 1
            while q <= order:
                s, stride = seed(p, e) % m, q * p
                for j in range(q, min(stride, order + 1), q):
                    t[j::stride] = [v * s % m for v in t[j::stride]]
                q, e = stride, e + 1
        else:
            s = by_class.get(p % period)
            if s is None:
                s = by_class[p % period] = seed(p, 1) % m
            t[p::p] = [v * s % m for v in t[p::p]]
    return t


def test_one_walk_matches_the_two_regime_walk(monkeypatch):
    # every part, bytes (m <= 256) and lists, at orders around small squares
    # and cubes; then the registry's groups, whose seeds are CRT sums
    orders = (0, 1, 2, 3, 4, 8, 9, 25, 64)
    for ref, i in SEEDS:
        _, seed = sequences._parts(ref)[i]
        for m in (*range(2, 301), 625, 840):
            for order in orders:
                expected = _two_regime_walk(seed, m, order)
                assert list(sequences._multiplicative(seed, m, order)) == expected, (ref, i, m)
    one_walk = [sequences.sieve(group, 3000) for group in REGISTRY_GROUPS]
    monkeypatch.setattr(sequences, "_multiplicative", _two_regime_walk)
    assert one_walk == [sequences.sieve(group, 3000) for group in REGISTRY_GROUPS]


# sha256 of the JSON coefficient list, first 16 hex digits, of each table
# the registry's congruences read, at 10^6: the only check where p^e with
# e >= 3 reaches p near 100
MILLION_HASHES = {
    (R2, 3): "b26043f1e196b92c",
    (R4, 5): "0bc2bdaec5427990",
    (R6, 7): "e4e1adce65eb43ac",
    (R8, 3): "270eb6f74761b274",
    (SequenceRef("sigma3m"), 5): "6ec435c6a62c9092",
}


@pytest.mark.parametrize(
    "ref, m", MILLION_HASHES, ids=[f"{ref.label()}-{m}" for ref, m in MILLION_HASHES]
)
def test_registry_tables_at_a_million_keep_their_hashes(ref, m):
    coeffs = sequence_series(ref, Zmod(m), 10**6).coeffs
    assert hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16] == MILLION_HASHES[ref, m]


def test_pointwise_tables_are_residue_tables():
    with pytest.raises(ValueError, match="mod m only"):
        sequences._build_series(SequenceRef("dstar"), ZZ, 10)
    with pytest.raises(ValueError, match="order must be >= 0"):
        sequences._build_series(SequenceRef("r", 4), Zmod(5), -1)
    assert sequences._build_series(SequenceRef("r", 6), Zmod(7), 0).coeffs == [1]
    assert sequences._build_series(SequenceRef("chi"), Zmod(3), 1).coeffs == [0, 1]


@pytest.mark.parametrize("m", [7, 128, 129, 256, 257])
def test_tables_to_order_0_and_1_on_each_path(m):
    # byte columns summed as ints (m <= 128) or entry by entry, and lists
    for ref in POINTWISE:
        head = [1 if ref.name == "r" else 0, sequence_value(ref, 1) % m]
        for order in (0, 1):
            assert sequences._build_series(ref, Zmod(m), order).coeffs == head[: order + 1]
    group = sequences.SieveGroup((((SequenceRef("chi"), 0), m),))
    assert list(sequences.sieve(group, 0)) == [0]
    assert list(sequences.sieve(group, 1)) == [0, 1]


def test_byte_and_list_sieves_agree_at_bench_scale():
    # the registry's two groups mod 105 are sieved as bytes; the same parts
    # mod 25 * 9 * 7 = 1575 are sieved as lists, and agree mod 105
    order = 20000
    for group in REGISTRY_GROUPS:
        small = sequences.sieve(group, order)
        wide = [(part, {3: 9, 5: 25}.get(m, m)) for part, m in group.parts]
        large = sequences.sieve(sequences.SieveGroup(tuple(wide)), order)
        assert isinstance(small, bytes) and isinstance(large, list)
        assert list(small) == [v % 105 for v in large]
