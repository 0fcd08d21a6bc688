"""Partition-counting sequences and their independent enumeration oracles.

Series route: each sequence is the coefficient list of its generating
function (partitions 1/(q;q), regular partitions (q^l;q^l)/(q;q),
overpartitions (q^2;q^2)/(q;q)^2 = 1/phi(-q), and regular overpartitions
phi(-q^l)/phi(-q)).  table_inputs is the one rule for what each table is
built from: an A_l is built from pbar only when pbar is read too or
another A_l shares it, and else as that one quotient.

Table route for the pointwise sequences (r_k, d*, sigma3m, chi): each has
one closed form in ``regover.arith``, which ``sequence_value`` evaluates at
one n, and each table is a sum of multiplicative parts times scales: r_6 =
16 T - 4 P for its two divisor sums T and P, and any other ref is scale f
for the one f whose value at p^e is closed(p^e) // scale, where scale is
2k for r_k (k = 2, 4, 8), -1 for sigma3m and 1 for d* and chi.  No r_k is
built as a power of theta.  The parts are sieved by one walk over the
primes p <= top, the same for every p, seeded from the closed forms at
each p^e <= top with e >= 2 and at p^1.  At an odd prime every closed
form here is a polynomial in p and chi(p), and 2 and each prime dividing
M are alone in their class mod lcm(4, M), so a seed mod M at p depends
only on p mod lcm(4, M): it is computed once per such class, at the least
prime in it.  Parts with pairwise coprime moduli form a SieveGroup, one
sieve over Zmod of the moduli's product whose seeds are the CRT of the
parts' seeds and whose products are reduced as they are made; a table is
read back from its group or groups with its scales.  table_inputs groups
the parts of every pointwise table that a claims.TablePlan reads, and the
plan builds each group once; a table built alone (``sequence_series``)
sieves the groups table_inputs gives its own parts, by the same code.
Claim runs read these tables from their plan.

Oracle route: one enumeration walk, deliberately memo-free and
structurally unrelated to the series pipeline, that weights each partition
by w^(number of distinct part sizes): w = 1 counts partitions, w = 2
overpartitions (Corteel and Lovejoy, Overpartitions, 2004).  The walk
tallies the partitions into allowed parts >= 3 by size; the rest of a size
is a partition into 1s and 2s, whose weighted count has a closed form in
its size, and the table is the convolution of the two.  Each oracle's value
at one n is read from the table up to n.
"""

from __future__ import annotations

from functools import partial
from math import gcd, lcm, prod
from typing import NamedTuple

from . import arith, kernels
from .products import euler_product, phi
from .series import Ring, Series, ZZ, check_order

ORACLE_CAP = 60

# every sequence name, in the order the CLI lists them: the series-backed
# ones, then the pointwise ones; and the parameter each takes, by its flag
NAMES = ("p", "pbar", "b", "A", "r", "dstar", "sigma3m", "chi")
SERIES_NAMES = frozenset(NAMES[:4])
PARAMS = {"b": "ell", "A": "ell", "r": "k"}


class _SequenceRefFields(NamedTuple):
    name: str
    param: int | None = None


class SequenceRef(_SequenceRefFields):
    """A named coefficient sequence, with its parameter where one applies.

    Names: p (partitions), pbar (overpartitions), b (regular partitions,
    parts not divisible by param), A (regular overpartitions), r (sums of
    param squares), dstar, sigma3m, chi.
    """

    __slots__ = ()

    def __new__(cls, name: str, param: int | None = None):
        if name not in NAMES:
            raise ValueError(f"unknown sequence {name!r}")
        if name in PARAMS:
            if param is None:
                raise ValueError(f"sequence {name!r} requires a parameter")
            if PARAMS[name] == "ell" and param < 2:
                raise ValueError("regularity parameter must be >= 2")
            if PARAMS[name] == "k" and param not in (2, 4, 6, 8):
                raise ValueError("squares count k must be one of 2, 4, 6, 8")
        elif param is not None:
            raise ValueError(f"sequence {name!r} takes no parameter")
        return super().__new__(cls, name, param)

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)

    @property
    def is_series_backed(self) -> bool:
        return self.name in SERIES_NAMES

    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}({self.param})"


# -- generating-function route ----------------------------------------------

_PBAR = SequenceRef("pbar")


def clear_caches():
    """Do nothing.  The package keeps no table: a claim run's tables live in
    its claims.TablePlan, and a library call's with its caller.  The
    function remains only for the benchmark's tracer tests, which call it."""


def sequence_series(ref: SequenceRef, ring: Ring, order: int) -> Series:
    """The sequence's table as a Series, built afresh by each call by
    _build_series with no input table: a series-backed sequence's generating
    function over any ring (an A_l as one quotient phi(-q^l) / phi(-q)), a
    pointwise sequence's residues over Zmod(m)."""
    return _build_series(ref, ring, order)


def _build_series(ref: SequenceRef, ring: Ring, order: int, *inputs, step=1) -> Series:
    """ref's step-progression over ring to order, from the whole tables of
    its table_inputs when given, each mod a multiple of ring's modulus.
    Given none, ref is built alone, from table_inputs({ref: modulus}): an
    A_l as one quotient phi(-q^l) / phi(-q), built whole, a pointwise ref
    from the groups of its own parts, sieved here.  Given pbar, an A_l is a
    product: phi(-q^l) is a series in q^g for g = gcd(step, l), so it is
    built at g, as phi(-q^(l/g)) times pbar's g-progression.  A pointwise
    ref's series holds residues, over a Zmod(m), read from its groups'
    sieve results.  Any other ref is whole."""
    if ref.name == "A" and not inputs:
        # regular overpartitions: (q^l;q^l)^2 (q^2;q^2) / (q;q)^2 (q^2l;q^2l)
        table = phi(-1, ring, order, scale=ref.param) / phi(-1, ring, order)
    elif ref.name == "A":
        # the same grouped as phi(-q^l) * pbar
        (pbar,) = inputs
        g = gcd(step, ref.param)
        coeffs = pbar[: order + 1 : g]
        if pbar.ring != ring:
            coeffs = [c % ring.modulus for c in coeffs]
        table = phi(-1, ring, order // g, scale=ref.param // g) * Series._raw(ring, coeffs)
        step //= g
    elif not ref.is_series_backed:
        check_order(order)
        if ring.is_exact:
            raise ValueError(f"sequence {ref.label()} is tabled mod m only")
        groups = inputs or [sieve(g, order) for g in table_inputs({ref: ring.modulus})[ref]]
        table = Series._raw(ring, _pointwise_table(ref, ring.modulus, order, groups, step))
        step = 1
    elif ref.name == "p":
        table = Series.one(ring, order) / euler_product(1, ring, order)
    elif ref.name == "pbar":
        table = Series.one(ring, order) / phi(-1, ring, order)
    else:
        table = euler_product(ref.param, ring, order) / euler_product(1, ring, order)
    return table if step == 1 else table.extract_progression(step)


def _multiplicative(seed, m: int, order: int) -> bytearray | list[int]:
    """f(0..order) mod m, with 0 at 0, for the multiplicative f with f(p^e) =
    seed(p, e) mod m.  One walk for every prime p: save the column t[q::q]
    of each q = p^e <= order with e >= 2, scale t[p::p] once by f(p), then
    overwrite each t[q::q], in increasing e, with its saved column scaled
    by f(p^e).  An index of exact p-valuation e is last written at p^e,
    from its value before p, so it gains the factor f(p^e) and no other.
    Every seed here is at p^1 a function of p mod lcm(4, m), and 2 and each
    p dividing m are alone in their class, so f(p) is seeded once per such
    class, at its least prime; f(p^e) for e >= 2 once per p^e.  For m <=
    256 a residue fits a byte, so t is a bytearray and a column is scaled by
    translating it with kernels._scale_table(s, m); for a larger m t is a
    list, scaled entry by entry."""
    if m <= 256:
        t = bytearray([1]) * (order + 1)

        def scaled(column, s):
            return column.translate(kernels._scale_table(s, m))
    else:
        t = [1] * (order + 1)

        def scaled(column, s):
            return [v * s % m for v in column]

    t[0] = 0
    period, by_class = lcm(4, m), {}
    for p in arith.primes_up_to(order):
        s = by_class.get(p % period)
        if s is None:
            s = by_class[p % period] = seed(p, 1) % m
        saved, q = [], p * p
        while q <= order:
            saved.append((q, t[q::q]))
            q *= p
        t[p::p] = scaled(t[p::p], s)
        for e, (q, column) in enumerate(saved, 2):
            t[q::q] = scaled(column, seed(p, e) % m)
    return t


def _closed_form(ref: SequenceRef):
    """ref's closed form n -> ref(n), for a pointwise ref, taken from the
    arith this module holds at the call, so a stand-in for arith sees every
    evaluation."""
    if ref.name == "r":
        return partial(arith.r_formula, ref.param)
    return {"dstar": arith.d_star, "sigma3m": arith.sigma3_minus, "chi": arith.chi}[ref.name]


def _parts(ref: SequenceRef) -> list:
    """ref's multiplicative parts, as (scale, seed) pairs: a pointwise ref is
    the sum of its parts times their scales, with r_k(0) = 1, and seed(p, e)
    is the part's value at p^e.  r_6 = 16 T - 4 P for its divisor sums T and
    P from arith.r6_factors.  Any other ref is scale f for the one f whose
    value at p^e is closed(p^e) // scale: scale is ref(1), 2k for r_k (k =
    2, 4, 8), -1 for sigma3m and 1 for d* and chi.  arith is looked up here,
    at table time, so a caller can stand in for it."""
    if ref.label() == "r(6)":
        factors = arith.r6_factors
        return [(16, lambda p, e: factors(p, e)[0]), (-4, lambda p, e: factors(p, e)[1])]
    closed = _closed_form(ref)
    scale = 2 * ref.param if ref.name == "r" else -1 if ref.name == "sigma3m" else 1
    return [(scale, lambda p, e: closed(p**e) // scale)]


class SieveGroup(NamedTuple):
    """Multiplicative parts of pointwise tables, as ((ref, i), modulus)
    pairs with pairwise coprime moduli, sieved together as one table over
    Zmod(modulus), the product of the moduli: at n, the residue that is each
    part's value at n mod the part's modulus (CRT)."""

    parts: tuple[tuple[tuple[SequenceRef, int], int], ...]

    @property
    def modulus(self) -> int:
        return prod(m for _, m in self.parts)


def table_inputs(moduli: dict) -> dict:
    """ref -> the tables that ref's table is built from, for each ref in
    moduli: the sequences one plan reads, or one table built alone, each
    tabled mod moduli[ref].  An A_l
    is built from pbar when pbar is read too or another A_l shares it, and
    else from nothing, as one quotient.  A pointwise ref is built from the
    SieveGroups of its parts, in part order: each part, in the dict's
    order, joins the first group whose modulus is coprime to its ref's, or
    else starts a group.  Any other ref is built from nothing."""
    shared = _PBAR in moduli or sum(ref.name == "A" for ref in moduli) > 1
    count = {ref: 0 if ref.is_series_backed else len(_parts(ref)) for ref in moduli}
    groups = []  # [modulus, parts] of each group
    for ref, m in moduli.items():
        for i in range(count[ref]):
            group = next((g for g in groups if gcd(g[0], m) == 1), None)
            if group is None:
                groups.append(group := [1, []])
            group[0] *= m
            group[1].append(((ref, i), m))
    of_part = {part: SieveGroup(tuple(parts)) for _, parts in groups for part, _ in parts}
    return {
        ref: (_PBAR,) if ref.name == "A" and shared else tuple(of_part[ref, i] for i in range(n))
        for ref, n in count.items()
    }


def sieve(group: SieveGroup, order: int) -> bytes | list[int]:
    """The group's residues mod group.modulus at 0..order, 0 at 0, from one
    multiplicative sieve whose seeds are the CRT of its parts' seeds.  For a
    modulus up to 256 the table is bytes, as _multiplicative builds it,
    which a plan holds between its members' builds at an eighth of a list's
    size; else a list."""
    modulus = group.modulus
    # u = 1 mod m and 0 mod the other moduli, for each part's modulus m
    seeds = [
        (modulus // m * pow(modulus // m, -1, m), _parts(ref)[i][1]) for (ref, i), m in group.parts
    ]
    table = _multiplicative(lambda p, e: sum(u * seed(p, e) for u, seed in seeds), modulus, order)
    return bytes(table) if modulus <= 256 else table


def _pointwise_table(ref: SequenceRef, m: int, order: int, groups, step: int) -> list[int]:
    """ref(0..order) mod m at the multiples of step, read from the tables of
    its parts' sieve groups, in part order: each group's modulus is a
    multiple of m, so a group's residue mod m is its part's value mod m, and
    the table is the sum of the parts' columns times their scales.  Columns
    held as bytes are summed by kernels._residue_bytes; with a list among
    them the table is summed entry by entry."""
    scales = [scale % m for scale, _ in _parts(ref)]
    columns = [g[: order + 1 : step] for g in groups]
    if all(isinstance(c, bytes) for c in columns):
        t = list(kernels._residue_bytes(columns, scales, m))
    elif len(scales) == 2:
        s, u = scales
        t = [(s * a + u * b) % m for a, b in zip(*columns)]
    else:
        (s,) = scales
        t = [s * v % m for v in columns[0]]
    if ref.name == "r":
        t[0] = 1
    return t


def sequence_value(ref: SequenceRef, n: int) -> int:
    """Exact value at n, series-backed or pointwise.  A series-backed value
    is read from a table built to n by this call, so a loop over n should
    read the coefficients of one sequence_series instead."""
    if ref.is_series_backed:
        if n < 0:
            raise ValueError("n must be >= 0")
        return sequence_series(ref, ZZ, n)[n]
    return _closed_form(ref)(n)


# -- enumeration-oracle route -------------------------------------------------


def _oracle_table(restriction: int | None, upto: int, w: int) -> list[int]:
    """Partitions of 0..upto into parts not divisible by the restriction
    (None = any parts), each counted with weight w^(number of distinct part
    sizes).

    One walk over the partitions into allowed parts >= 3 of size <= upto
    tallies their weight by size.  The rest of a size n is a partition of a
    remainder r into 1s and 2s, whose total weight has a closed form: when
    both parts are allowed, w for all ones, w for all twos when r is even
    and w^2 for each of the floor((r - 1)/2) mixes; w when 2 is barred; and
    0 when the restriction is 1.  The empty remainder weighs 1.  The table
    is the convolution of the two."""
    if upto > ORACLE_CAP:
        raise ValueError(f"n={upto} exceeds the enumeration cap {ORACLE_CAP}")
    if upto < 0:
        raise ValueError("n must be >= 0")
    if restriction is not None and restriction < 1:
        raise ValueError("restriction must be >= 1")

    ones, twos = (restriction is None or part % restriction != 0 for part in (1, 2))
    small = [1] + [
        (w + w * (r % 2 == 0) + w * w * ((r - 1) // 2) if twos else w) if ones else 0
        for r in range(1, upto + 1)
    ]

    large = [0] * (upto + 1)

    def walk(size: int, max_part: int, weight: int):
        large[size] += weight
        for part in range(min(upto - size, max_part), 2, -1):
            if restriction is not None and part % restriction == 0:
                continue
            used = part
            while size + used <= upto:
                walk(size + used, part - 1, w * weight)
                used += part

    walk(0, upto, 1)
    return [sum(large[j] * small[n - j] for j in range(n + 1)) for n in range(upto + 1)]


def oracle_partition(restriction: int | None, n: int) -> int:
    """Partitions of n, optionally into parts not divisible by the
    restriction: the weight-1 enumeration walk up to n."""
    return _oracle_table(restriction, n, 1)[n]


def oracle_regular_overpartition_table(restriction: int | None, upto: int) -> list[int]:
    """Overpartitions of 0..upto into parts not divisible by the restriction
    (None = plain overpartitions): the weight-2 enumeration walk, in which
    each partition counts 2^(number of distinct part sizes)."""
    return _oracle_table(restriction, upto, 2)


def oracle_regular_overpartition(restriction: int | None, n: int) -> int:
    """The weighted overpartition count of n; see
    oracle_regular_overpartition_table."""
    return oracle_regular_overpartition_table(restriction, n)[n]
