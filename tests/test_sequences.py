import types

import pytest

from regover import arith, registry, sequences
from regover.products import eta_quotient
from regover.registry import regular_overpartition_quotient
from regover.sequences import (
    SequenceRef,
    clear_caches,
    oracle_partition,
    oracle_regular_overpartition,
    oracle_regular_overpartition_table,
    sequence_series,
    sequence_table,
    sequence_value,
)
from regover.series import Series, ZZ, Zmod


def test_sequence_ref_validation():
    assert SequenceRef("p").param is None
    assert SequenceRef("A", 5).label() == "A(5)"
    with pytest.raises(ValueError):
        SequenceRef("nope")
    with pytest.raises(ValueError):
        SequenceRef("A")  # parameter required
    with pytest.raises(ValueError):
        SequenceRef("A", 1)
    with pytest.raises(ValueError):
        SequenceRef("r", 3)
    with pytest.raises(ValueError):
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
    assert oracle_partition(None, 61, cap=61) > 0


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 7, 9, 25])
def test_series_matches_oracle(ell):
    table = sequence_table(SequenceRef("A", ell), None, 40)
    for n in range(41):
        assert table[n] == oracle_regular_overpartition(ell, n), (ell, n)


def test_plain_sequences_match_oracles():
    pbar = sequence_table(SequenceRef("pbar"), None, 40)
    p = sequence_table(SequenceRef("p"), None, 40)
    b3 = sequence_table(SequenceRef("b", 3), None, 40)
    for n in range(41):
        assert pbar[n] == oracle_regular_overpartition(None, n)
        assert p[n] == oracle_partition(None, n)
        assert b3[n] == oracle_partition(3, n)


@pytest.mark.parametrize("ell", [3, 5, 9, 25])
def test_agrees_with_overpartitions_below_ell(ell):
    a = sequence_table(SequenceRef("A", ell), None, min(ell - 1, 40))
    pbar = sequence_table(SequenceRef("pbar"), None, min(ell - 1, 40))
    assert a == pbar


def test_monotone_growth():
    table = sequence_table(SequenceRef("A", 5), None, 300)
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


def test_sequence_value():
    assert sequence_value(SequenceRef("A", 5), 3) == 8
    assert sequence_value(SequenceRef("r", 8), 4) == 1136
    assert sequence_value(SequenceRef("dstar"), 12) == 12
    assert sequence_value(SequenceRef("sigma3m"), 4) == 71
    assert sequence_value(SequenceRef("chi"), 3) == -1


def test_sequence_value_reads_the_cached_table_without_copying(monkeypatch):
    clear_caches()
    pbar = SequenceRef("pbar")
    table = sequence_series(pbar, ZZ, 2000)
    copies = []
    truncate = Series.truncate

    def counting(self, order):
        copies.append(order)
        return truncate(self, order)

    monkeypatch.setattr(Series, "truncate", counting)
    assert [sequence_value(pbar, n) for n in range(1000, 2001)] == table[1000:]
    assert copies == []
    assert sequence_value(pbar, 2500) == sequence_series(pbar, ZZ, 2500)[2500]
    with pytest.raises(ValueError):
        sequence_value(pbar, -1)


def test_cache_grows_and_truncates():
    clear_caches()
    long = sequence_series(SequenceRef("pbar"), ZZ, 50)
    short = sequence_series(SequenceRef("pbar"), ZZ, 10)
    assert short.coeffs == long.coeffs[:11]


def test_sequence_table_hands_out_a_copy():
    # writing into a returned table must not corrupt the memoized series
    clear_caches()
    table = sequence_table(SequenceRef("p"), None, 10)
    table[5] = 999
    assert sequence_value(SequenceRef("p"), 5) == 7
    assert sequence_table(SequenceRef("p"), None, 10)[5] == 7
    residues = sequence_table(SequenceRef("A", 5), 5, 20)
    residues[:] = [1] * len(residues)
    assert sequence_table(SequenceRef("A", 5), 5, 20)[3] == 3  # A_5(3) = 8


def test_sequence_series_coeffs_cannot_corrupt_the_cache():
    # Series.coeffs is a fresh list, so writing into the coefficients of a
    # memoized series leaves every later read alone
    clear_caches()
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


def test_clear_caches_empties_both_cache_layers():
    sequence_series(SequenceRef("pbar"), Zmod(5), 10)
    registry.builtin_registry()
    clear_caches()
    assert sequences._series_cache == {}
    assert registry._REGISTRY is None


def test_build_series_reads_no_cache():
    # an A_l table is built from the pbar table it is given, not a cached one
    clear_caches()
    a5 = SequenceRef("A", 5)
    pbar = sequences._build_series(SequenceRef("pbar"), Zmod(5), 50)
    built = sequences._build_series(a5, Zmod(5), 50, pbar)
    assert sequences._series_cache == {}
    assert built == sequence_series(a5, Zmod(5), 50)


def test_negative_order_is_rejected_on_a_cold_and_a_warm_cache():
    clear_caches()
    a5 = SequenceRef("A", 5)
    with pytest.raises(ValueError, match="order must be >= 0"):
        sequence_series(a5, Zmod(5), -1)
    sequence_series(a5, Zmod(5), 10)
    with pytest.raises(ValueError, match="order must be >= 0"):
        sequence_series(a5, Zmod(5), -1)


# -- sieved tables of the pointwise sequences ---------------------------------

POINTWISE = [
    SequenceRef("r", 2),
    SequenceRef("r", 4),
    SequenceRef("r", 6),
    SequenceRef("r", 8),
    SequenceRef("dstar"),
    SequenceRef("sigma3m"),
    SequenceRef("chi"),
]
TABLE_MODULI = (2, 3, 5, 7, 8, 24, 625)


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


def test_a_table_seeds_each_prime_power_once(monkeypatch):
    # the closed forms are read through sequences.arith, once per p^e
    seen = []
    proxy = types.SimpleNamespace(**vars(arith))
    for name in ("r_formula", "d_star", "sigma3_minus", "chi", "r6_factors"):
        def spy(*args, fn=getattr(arith, name)):
            seen.append(args)
            return fn(*args)

        setattr(proxy, name, spy)
    monkeypatch.setattr(sequences, "arith", proxy)
    order = 20000
    table = sequences._build_series(SequenceRef("r", 4), Zmod(5), order)
    prime_powers = [
        p**e for p in arith.primes_up_to(order) for e in range(1, 15) if p**e <= order
    ]
    assert sorted(n for (n,) in seen) == sorted(prime_powers)
    assert table[order] == arith.r_formula(4, order) % 5


def test_pointwise_tables_are_residue_tables():
    with pytest.raises(ValueError, match="mod m only"):
        sequences._build_series(SequenceRef("dstar"), ZZ, 10)
    with pytest.raises(ValueError, match="order must be >= 0"):
        sequences._build_series(SequenceRef("r", 4), Zmod(5), -1)
    assert sequences._build_series(SequenceRef("r", 6), Zmod(7), 0).coeffs == [1]
    assert sequences._build_series(SequenceRef("chi"), Zmod(3), 1).coeffs == [0, 1]
