"""Partition-counting sequences and their independent enumeration oracles.

Series route: each sequence is the coefficient list of its generating
function (partitions 1/(q;q), regular partitions (q^l;q^l)/(q;q),
overpartitions (q^2;q^2)/(q;q)^2 = 1/phi(-q), and regular overpartitions
phi(-q^l)/phi(-q)).

Table route for the pointwise sequences (r_k, d*, sigma3m, chi): a
multiplicative sieve over the primes up to the top index, seeded at the
prime powers by the closed forms of ``regover.arith``; r_k is built from
its divisor sums, never as a power of theta.  Claim runs read these tables
from their plan; ``sequence_value`` evaluates the closed forms at one n.

Oracle route: direct descending-part recursion, deliberately memo-free and
structurally unrelated to the series pipeline, weighting each partition by
2^(number of distinct part sizes) for the overlined variants.  The
recursion stops at part 3: whatever remains is a partition into 1s and
2s, whose count (or weighted count) has a closed form in its size, so it
is added directly.  The overlined oracle walks once up to a size and
returns the whole table; its value at one n is read from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import arith
from .products import euler_product, phi
from .series import Ring, Series, ZZ, Zmod, check_order

ORACLE_CAP = 60

SERIES_NAMES = frozenset({"p", "pbar", "b", "A"})
POINTWISE_NAMES = frozenset({"r", "dstar", "sigma3m", "chi"})
_PARAM_NAMES = frozenset({"b", "A", "r"})


@dataclass(frozen=True)
class SequenceRef:
    """A named coefficient sequence, with its parameter where one applies.

    Names: p (partitions), pbar (overpartitions), b (regular partitions,
    parts not divisible by param), A (regular overpartitions), r (sums of
    param squares), dstar, sigma3m, chi.
    """

    name: str
    param: int | None = None

    def __post_init__(self):
        if self.name not in SERIES_NAMES | POINTWISE_NAMES:
            raise ValueError(f"unknown sequence {self.name!r}")
        if self.name in _PARAM_NAMES:
            if self.param is None:
                raise ValueError(f"sequence {self.name!r} requires a parameter")
            if self.name in ("b", "A") and self.param < 2:
                raise ValueError("regularity parameter must be >= 2")
            if self.name == "r" and self.param not in (2, 4, 6, 8):
                raise ValueError("squares count k must be one of 2, 4, 6, 8")
        elif self.param is not None:
            raise ValueError(f"sequence {self.name!r} takes no parameter")

    @property
    def is_series_backed(self) -> bool:
        return self.name in SERIES_NAMES

    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}({self.param})"


# -- generating-function route ----------------------------------------------

_series_cache: dict[tuple[str, int | None, int | None], Series] = {}

# Resets that clear_caches also runs, one per cache kept by a module that
# imports this one (the built claim registry); each registers at its
# import, so this module imports none of them.
_clear_hooks: list = []

_PBAR = SequenceRef("pbar")


def clear_caches():
    """Empty every cache in the package: the series table cache (arith
    builds every r_k lattice table afresh), and each cache registered in
    _clear_hooks: the built claim registry.  No claim run fills a cache;
    its tables live in its claims.TablePlan."""
    _series_cache.clear()
    for reset in _clear_hooks:
        reset()


def sequence_series(ref: SequenceRef, ring: Ring, order: int) -> Series:
    """The sequence's generating function as a Series (series-backed refs only).

    Results are memoized per (ref, ring) keeping the longest prefix computed
    so far, so repeated calls share one table.  Only library callers and
    sequence_table and sequence_value read this memo: claim runs read their
    tables from a claims.TablePlan.
    """
    if not ref.is_series_backed:
        raise ValueError(f"sequence {ref.label()} has no generating function route")
    return _memoized(ref, ring, order).truncate(order)


def _memoized(ref: SequenceRef, ring: Ring, order: int) -> Series:
    """The cached series for (ref, ring), built over ring from the cached
    tables it is built from when it does not reach order; it may run past
    order."""
    key = (ref.name, ref.param, ring.modulus)
    cached = _series_cache.get(key)
    if cached is None or cached.order < order:
        inputs = [_memoized(dep, ring, order) for dep in series_inputs(ref)]
        cached = _series_cache[key] = _build_series(ref, ring, order, *inputs)
    return cached


def series_inputs(ref: SequenceRef) -> tuple[SequenceRef, ...]:
    """The series-backed sequences whose tables _build_series is given to
    build ref's: pbar for every A_l, none for the others."""
    return (_PBAR,) if ref.name == "A" else ()


def _build_series(ref: SequenceRef, ring: Ring, order: int, *inputs: Series) -> Series:
    """ref's series over ring to order, from the tables of series_inputs(ref),
    in that order, over ring and reaching order; reads no cache.  A
    pointwise ref's series holds its residues, over a ring Zmod(m)."""
    if not ref.is_series_backed:
        check_order(order)
        if ring.is_exact:
            raise ValueError(f"sequence {ref.label()} is tabled mod m only")
        return Series._raw(ring, _pointwise_table(ref, ring.modulus, order))
    if ref.name == "p":
        return Series.one(ring, order) / euler_product(1, ring, order)
    if ref.name == "pbar":
        return Series.one(ring, order) / phi(-1, ring, order)
    if ref.name == "b":
        return euler_product(ref.param, ring, order) / euler_product(1, ring, order)
    # regular overpartitions: phi(-q^l) * pbar, the grouped form of
    # (q^l;q^l)^2 (q^2;q^2) / (q;q)^2 (q^2l;q^2l)
    (pbar,) = inputs
    return phi(-1, ring, order, scale=ref.param) * pbar


def _multiplicative(seed, m: int, order: int) -> list[int]:
    """f(0..order), with 0 at 0, for the multiplicative f with f(p^e) =
    seed(p, e) mod m, the products left unreduced.  Each prime p scales its
    multiples once: t[p::p] = map(mul, t[p::p], run), where run holds f(p^e)
    at the multiples of p^e that p^(e+1) does not divide."""
    t = [1] * (order + 1)
    t[0] = 0
    for p in arith.primes_up_to(order):
        run = [seed(p, 1) % m] * (order // p)
        q, e = p, 2
        while q * p <= order:  # run[i] is at (i + 1) p, a multiple of p^e when q | i + 1
            run[q - 1 :: q] = [seed(p, e) % m] * (order // (q * p))
            q, e = q * p, e + 1
        t[p::p] = map(mul, t[p::p], run)
    return t


def _pointwise_table(ref: SequenceRef, m: int, order: int) -> list[int]:
    """ref(0..order) mod m, with r_k(0) = 1 and 0 at 0 for the others, from
    multiplicative sieves.  d* and chi are multiplicative, and so are
    -sigma3m (as sigma3m(1) = -1), r_2 / 4 and the two divisor sums T and
    P of r_6; r_4 = 8 d*, r_6 = 16 T - 4 P and r_8 = 16 (-1)^n sigma3m."""

    def sieve(seed):
        return _multiplicative(seed, m, order)

    # the seeds look arith up at call time, so a caller can stand in for it
    name = ref.label()
    if name == "r(6)":
        twisted = sieve(lambda p, e: arith.r6_factors(p, e)[0])
        plain = sieve(lambda p, e: arith.r6_factors(p, e)[1])
        t = [(16 * a - 4 * b) % m for a, b in zip(twisted, plain)]
    else:
        # ref(n) = scale f(n), for the multiplicative f seed gives, where
        # scale is odd at odd n and even at even n
        seed, odd, even = {
            "chi": (lambda p, e: arith.chi(p**e), 1, 1),
            "dstar": (lambda p, e: arith.d_star(p**e), 1, 1),
            "r(4)": (lambda p, e: arith.d_star(p**e), 8, 8),
            "sigma3m": (lambda p, e: -arith.sigma3_minus(p**e), -1, -1),
            "r(8)": (lambda p, e: -arith.sigma3_minus(p**e), 16, -16),
            "r(2)": (lambda p, e: arith.r_formula(2, p**e) // 4, 4, 4),
        }[name]
        t = sieve(seed)
        t[1::2] = [odd * v % m for v in t[1::2]]
        t[::2] = [even * v % m for v in t[::2]]
    if ref.name == "r":
        t[0] = 1
    return t


def sequence_table(ref: SequenceRef, modulus: int | None, upto: int) -> list[int]:
    """Values 0..upto, as residues when modulus is given (series-backed refs).

    Returns a fresh list (``Series.coeffs`` copies): the cached table stays
    intact whatever the caller does with it."""
    ring = ZZ if modulus is None else Zmod(modulus)
    return sequence_series(ref, ring, upto).coeffs


def sequence_value(ref: SequenceRef, n: int) -> int:
    """Exact value at n, series-backed or pointwise.  A series-backed value
    is read straight from the cached table, with no prefix copy."""
    if ref.is_series_backed:
        if n < 0:
            raise ValueError("n must be >= 0")
        return _memoized(ref, ZZ, n)[n]
    if ref.name == "r":
        return arith.r_formula(ref.param, n)
    if ref.name == "dstar":
        return arith.d_star(n)
    if ref.name == "sigma3m":
        return arith.sigma3_minus(n)
    return arith.chi(n)


# -- enumeration-oracle route -------------------------------------------------


def oracle_partition(restriction: int | None, n: int, cap: int = ORACLE_CAP) -> int:
    """Partitions of n (weight 1), optionally into parts not divisible by
    the restriction; plain recursion over the largest part, down to part 3.

    A remainder r > 0 left for parts 1 and 2 has floor(r/2) + 1 partitions
    when both are allowed, 1 (all ones) when 2 is barred, and none when
    the restriction is 1."""
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if restriction is not None and restriction < 1:
        raise ValueError("restriction must be >= 1")

    ones, twos = (restriction is None or part % restriction != 0 for part in (1, 2))

    def small_parts(r: int) -> int:
        if not ones:
            return 0
        return r // 2 + 1 if twos else 1

    def count(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        # max_part >= 2 here unless remaining <= 1: the first call passes
        # n, and every later one follows a part >= 3
        total = small_parts(remaining)
        for part in range(min(remaining, max_part), 2, -1):
            if restriction is not None and part % restriction == 0:
                continue
            total += count(remaining - part, part)
        return total

    return count(n, n)


def oracle_regular_overpartition_table(
    restriction: int | None, upto: int, cap: int = ORACLE_CAP
) -> list[int]:
    """Overpartitions of 0..upto into parts not divisible by the restriction
    (None = plain overpartitions): each partition counts with weight
    2^(number of distinct part sizes).

    One walk over the overpartitions into allowed parts >= 3 of size <= upto
    tallies their weight by size.  The rest of a size n is a partition of a
    remainder r into 1s and 2s, whose total weight has a closed form: 2r
    when both parts are allowed (2 for all ones, 2 for all twos when r is
    even, 4 for each mix), 2 when 2 is barred, and 0 when the restriction
    is 1; the empty remainder weighs 1.  The table is the convolution of
    the two."""
    if upto > cap:
        raise ValueError(f"n={upto} exceeds the enumeration cap {cap}")
    if upto < 0:
        raise ValueError("n must be >= 0")
    if restriction is not None and restriction < 1:
        raise ValueError("restriction must be >= 1")

    ones, twos = (restriction is None or part % restriction != 0 for part in (1, 2))
    small = [1] + [(2 * r if twos else 2) if ones else 0 for r in range(1, upto + 1)]

    large = [0] * (upto + 1)

    def walk(size: int, max_part: int, weight: int):
        large[size] += weight
        for part in range(min(upto - size, max_part), 2, -1):
            if restriction is not None and part % restriction == 0:
                continue
            used = part
            while size + used <= upto:
                walk(size + used, part - 1, 2 * weight)
                used += part

    walk(0, upto, 1)
    return [sum(large[j] * small[n - j] for j in range(n + 1)) for n in range(upto + 1)]


def oracle_regular_overpartition(restriction: int | None, n: int, cap: int = ORACLE_CAP) -> int:
    """The weighted overpartition count of n; see
    oracle_regular_overpartition_table."""
    return oracle_regular_overpartition_table(restriction, n, cap)[n]
