"""Congruence/identity claim model and the finite-range verifier.

A CongruenceClaim asserts lhs(index) = rhs(index) mod m for every n in
range, optionally quantified over small primes, exponents and residues.
Quantifier values and term fields may be callables of the quantifier
environment, which is how families like index = c p^(4k+3) (p n + i) are
expressed while staying plain mutable-by-replace dataclasses.

An instance is checked iff every index of both sides lies in [1, bound];
a claim with no checkable instance reports skipped, never pass.  Values
reach verify and hunt by one path: a progression's residues are a slice of
a residue table, a series table for a series-backed sequence and a sieved
one for a pointwise sequence (see ``regover.sequences``).

Tables come from a TablePlan, which holds its own tables.  Before the
first table is built, the plan expands every congruence claim's
quantifiers once and declares what each claim reads: (table, modulus, top
index).  An identity claim declares its reads as data (table, modulus,
step), read at the indices step*n up to the order the run checks it at.
Each table is then built once per run, over the lcm of its own moduli
(pbar's include those of every A_l built from it), and a read mod m reduces
the part it reads of that table.  The lcm is taken per table, not over the
run, because a table over a larger modulus costs more to build.  For the
same reason congruence and identity claims read separate tables: their
moduli of pbar (lcm 840 and 625) have the lcm 105,000, whose residues need
twice the kernel field width.  A table is dropped after its last consumer.

The plan also holds the run's knobs: the caps of its congruence claims and
the order of its identity claims.  verify_claim(claim, plan) reads them from
the plan, and verify_claims runs a batch from one plan.  A lone
verify_congruence or verify_identity is a plan of one claim, and a hunt one
of the single claim ref(n) = 0 mod m, so each builds its tables over exactly
the moduli it reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple

from . import sequences
# bench/tracer.py wraps claims.sequence_value, so the name is kept here
from .sequences import SequenceRef, sequence_value, series_inputs  # noqa: F401
from .series import Ring, Series, Zmod

DEFAULT_BOUND = 2000
DEFAULT_PRIME_CAP = 20
DEFAULT_K_CAP = 1


@dataclass(frozen=True)
class Caps:
    """Finite instantiation budget for quantified claims.  bound is the
    verification bound, so a quantifier can drop values that leave no
    index in [1, bound]."""

    prime_cap: int = DEFAULT_PRIME_CAP
    k_cap: int = DEFAULT_K_CAP
    bound: int = DEFAULT_BOUND


@dataclass(frozen=True)
class Quantifier:
    """A named finite range; values may depend on caps and on quantifiers
    bound earlier (e.g. i ranges over 1..p-1)."""

    name: str
    values: tuple | Callable[[Caps, dict], Iterable[int]]

    def enumerate(self, caps: Caps, env: dict) -> Iterable[int]:
        return self.values(caps, env) if callable(self.values) else self.values


@dataclass(frozen=True)
class Term:
    """One side of a congruence: seq(a n + b), optionally times (-1)^index.

    seq None denotes the literal constant 0.  seq/a/b may be callables of
    the quantifier environment.
    """

    seq: SequenceRef | Callable | None = None
    a: int | Callable = 1
    b: int | Callable = 0
    sign_twist: bool = False


ZERO = Term(seq=None)


@dataclass(frozen=True)
class CongruenceClaim:
    id: str
    lhs: Term
    rhs: Term
    modulus: int | Callable
    quantifiers: tuple[Quantifier, ...] = ()
    source: str = ""


class Read(NamedTuple):
    """An identity side's read of a table: its coefficients at the indices
    step*n, mod modulus.  The table is a series-backed sequence, or a
    function (ring, order) -> Series that builds a table that is none."""

    table: SequenceRef | Callable[[Ring, int], Series]
    modulus: int
    step: int = 1


@dataclass(frozen=True)
class IdentityClaim:
    """Exact or modular series identity, evaluated case by case.

    lhs/rhs are callables (ring, order, *tables, **case) -> Series, where
    tables holds one Series over Zmod(read.modulus) to order for each of the
    side's reads (lhs_reads or rhs_reads), in that order, from the run's
    TablePlan.  ring may be a callable of the case for per-case moduli.
    order_cap bounds evaluation for sides backed by the enumeration oracle.
    """

    id: str
    lhs: Callable[..., Series]
    rhs: Callable[..., Series]
    ring: Ring | Callable[[dict], Ring]
    cases: tuple[dict, ...] = ({},)
    default_order: int = 500
    order_cap: int | None = None
    lhs_text: str = ""
    rhs_text: str = ""
    source: str = ""
    lhs_reads: tuple[Read, ...] = ()
    rhs_reads: tuple[Read, ...] = ()

    def __post_init__(self):
        if not self.cases:
            raise ValueError("identity claim needs at least one case")


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    bound: int
    instances: int
    status: str  # "pass" | "fail" | "skipped(reason)"
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_json_obj(self) -> dict:
        return {
            "id": self.claim_id,
            "bound": self.bound,
            "instances": self.instances,
            "status": self.status,
            "counterexample": self.counterexample,
        }


def _resolve(value, env: dict):
    return value(env) if callable(value) else value


def _expand_quantifiers(
    quantifiers: tuple[Quantifier, ...], caps: Caps
) -> Iterator[dict]:
    def rec(i: int, env: dict) -> Iterator[dict]:
        if i == len(quantifiers):
            yield dict(env)
            return
        q = quantifiers[i]
        for v in q.enumerate(caps, env):
            env[q.name] = v
            yield from rec(i + 1, env)
        env.pop(q.name, None)

    return rec(0, {})


def _concretize(term: Term, env: dict) -> Term:
    """The term with seq, a and b resolved in the quantifier environment."""
    seq = _resolve(term.seq, env)
    a = _resolve(term.a, env)
    b = _resolve(term.b, env)
    if seq is not None and a < 1:
        raise ValueError("index multiplier must be >= 1")
    return Term(seq, a, b, term.sign_twist)


def _instance_range(sides: list[Term], bound: int) -> tuple[int, int]:
    """Largest n-interval where every sequence index lies in [1, bound]."""
    lo, hi = 0, bound
    for t in sides:
        if t.seq is None:
            continue
        lo = max(lo, -((t.b - 1) // t.a))  # ceil((1 - b) / a)
        hi = min(hi, (bound - t.b) // t.a)
    return lo, hi


@dataclass(frozen=True)
class _Check:
    """One quantifier instance with a checkable n: lhs(index) = rhs(index)
    mod modulus for n in [lo, hi], with env the quantifier values."""

    env: dict
    modulus: int
    lhs: Term
    rhs: Term
    lo: int
    hi: int


def _declare(claim: CongruenceClaim, caps: Caps) -> list[_Check]:
    """The claim's instances that have a checkable n, in quantifier order,
    from one expansion of its quantifiers."""
    checks = []
    for env in _expand_quantifiers(claim.quantifiers, caps):
        modulus = _resolve(claim.modulus, env)
        lhs = _concretize(claim.lhs, env)
        rhs = _concretize(claim.rhs, env)
        lo, hi = _instance_range([lhs, rhs], caps.bound)
        if lo <= hi:
            checks.append(_Check(env, modulus, lhs, rhs, lo, hi))
    return checks


def _needs(checks: list[_Check]) -> dict:
    """{(ref, modulus): top index} over the sides of checks."""
    needs: dict = {}
    for c in checks:
        for t in (c.lhs, c.rhs):
            if t.seq is not None:
                key = (t.seq, c.modulus)
                needs[key] = max(needs.get(key, 0), t.a * c.hi + t.b)
    return needs


def _inputs(source: SequenceRef | Callable) -> tuple[SequenceRef, ...]:
    """The tables source's table is built from."""
    return series_inputs(source) if isinstance(source, SequenceRef) else ()


# A plan's tables are keyed (source, family): congruence and identity claims
# read separate tables (see the module docstring).
_CONGRUENCE, _IDENTITY = "congruence", "identity"


class TablePlan:
    """The tables that a run of claims reads (see the module
    docstring).

    The plan holds its own tables, one per (source, family), over the
    planned lcm and to the planned top index.  The first ``checks`` or
    ``identity_tables`` call declares every claim's reads.  A table is built
    when a claim first reads it, from the tables it is built from, reduced
    into its ring: a sequence through sequences._build_series, any other
    table through its own function.  Identity claims read at the order
    given, or else at each claim's default_order.  A table whose reads all
    use steps that share the divisor g is kept as its g-progression
    (congruence reads use step 1).  Such a table holds about 1/g of its
    build, so the first identity claim that reads a table builds them
    before any other, largest g first: a whole table, such as pbar to
    125*order, is then never held while the core is expanded to the same
    length.  Every other table is built at its first read.  A table's
    consumers are the claims that read it and the tables built from it;
    after the last one, the plan drops it.
    """

    def __init__(self, claims: Iterable, caps: Caps = Caps(), order: int | None = None):
        if order is not None and order < 1:
            raise ValueError("order must be >= 1")
        self.caps = caps
        self.order = order
        self._claims = list(claims)
        self._checks: dict | None = None  # id(congruence claim) -> its checks
        self._reads: dict = {}  # id(claim) -> the tables it reads
        self._modulus: dict = {}  # table -> lcm of its moduli
        self._top: dict = {}  # table -> largest top index
        self._step: dict = {}  # table -> gcd of its read steps
        self._consumers: Counter = Counter()  # table -> readers and builds left
        self._tables: dict = {}  # table -> its table, until its last consumer
        self._built_progressions = False

    def order_of(self, claim: IdentityClaim) -> int:
        """The order the run checks an identity claim at: the plan's order,
        or else the claim's default_order, capped by its order_cap."""
        order = claim.default_order if self.order is None else self.order
        return order if claim.order_cap is None else min(order, claim.order_cap)

    def _require(self, claim):
        """Declare every claim's reads, on the first call; then check that
        the claim is in the plan."""
        if self._checks is None:
            self._checks = {}
            for c in self._claims:
                if isinstance(c, CongruenceClaim):
                    checks = self._checks[id(c)] = _declare(c, self.caps)
                    reads = [
                        ((ref, _CONGRUENCE), modulus, top, 1)
                        for (ref, modulus), top in _needs(checks).items()
                    ]
                else:
                    eff = self.order_of(c)
                    reads = [
                        ((r.table, _IDENTITY), r.modulus, r.step * eff, r.step)
                        for r in c.lhs_reads + c.rhs_reads
                    ]
                for key, modulus, top, step in reads:
                    self._add(key, modulus, top, step)
                keys = self._reads[id(c)] = {key for key, *_ in reads}
                for key in keys:
                    self._consumers[key] += 1
        if id(claim) not in self._reads:
            raise ValueError(f"claim {claim.id} is not in the plan")

    def checks(self, claim: CongruenceClaim) -> list[_Check]:
        """The congruence claim's checks."""
        self._require(claim)
        return self._checks[id(claim)]

    def identity_tables(self, claim: IdentityClaim) -> tuple[list[Series], list[Series]]:
        """The series the identity claim's lhs and rhs read, each to the
        claim's effective order.  The first claim that reads a table builds
        every table kept as a progression first, largest step first."""
        self._require(claim)
        if not self._built_progressions and claim.lhs_reads + claim.rhs_reads:
            self._built_progressions = True
            kept = [key for key, step in self._step.items() if step > 1]
            for key in sorted(kept, key=self._step.get, reverse=True):
                self._table(key)
        eff = self.order_of(claim)
        return tuple(
            [self._read(r, eff) for r in reads] for reads in (claim.lhs_reads, claim.rhs_reads)
        )

    def _add(self, key: tuple, modulus: int, top: int, step: int):
        """Add the read, and a whole read of every table key's is built from."""
        source, family = key
        if key in self._modulus:
            self._modulus[key] = lcm(self._modulus[key], modulus)
            self._top[key] = max(self._top[key], top)
            self._step[key] = gcd(self._step[key], step)
        else:
            self._modulus[key], self._top[key], self._step[key] = modulus, top, step
            for dep in _inputs(source):
                self._consumers[(dep, family)] += 1  # key's build reads dep's table
        for dep in _inputs(source):
            self._add((dep, family), modulus, top, 1)

    def _table(self, key: tuple) -> Series:
        """key's table over the planned modulus, built on its first read from
        the tables it is built from, each reduced into its ring, and kept as
        its planned progression."""
        table = self._tables.get(key)
        if table is None:
            (source, family), m, top = key, self._modulus[key], self._top[key]
            inputs = []
            for dep in _inputs(source):
                dep_table = self._table((dep, family))
                self._release((dep, family))
                if dep_table.ring.modulus != m:
                    dep_table = Series._raw(Zmod(m), [c % m for c in dep_table[: top + 1]])
                inputs.append(dep_table)
            if isinstance(source, SequenceRef):
                table = sequences._build_series(source, Zmod(m), top, *inputs)
            else:
                table = source(Zmod(m), top)
            if self._step[key] > 1:
                table = table.extract_progression(self._step[key], 0)
            self._tables[key] = table
        return table

    def _read(self, read: Read, order: int) -> Series:
        """The read's coefficients at step*n for n <= order, mod its modulus;
        shorter when the table is."""
        key = (read.table, _IDENTITY)
        table = self._table(key)
        stride = read.step // self._step[key]
        values = table[: stride * order + 1 : stride]
        if table.ring.modulus != read.modulus:
            values = [v % read.modulus for v in values]
        return Series._raw(Zmod(read.modulus), values)

    def done(self, claim):
        """Release the tables the claim read."""
        for key in self._reads.get(id(claim), ()):
            self._release(key)

    def _release(self, key: tuple):
        self._consumers[key] -= 1
        if self._consumers[key] <= 0:
            self._tables.pop(key, None)


def _side(t: Term, check: _Check, plan: TablePlan) -> list[int]:
    """Residues of one side over its progression for n in [lo, hi]: a slice
    of the planned table, reduced mod the check's modulus when that properly
    divides the table's."""
    m = check.modulus
    if t.seq is None:
        return [0] * (check.hi - check.lo + 1)
    indices = range(t.a * check.lo + t.b, t.a * check.hi + t.b + 1, t.a)
    table = plan._table((t.seq, _CONGRUENCE))
    values = table[indices.start : indices.stop : indices.step]
    if table.ring.modulus != m:
        values = [v % m for v in values]
    if t.sign_twist:
        values = [-v % m if i & 1 else v for i, v in zip(indices, values)]
    return values


def _check_congruence(claim: CongruenceClaim, plan: TablePlan) -> VerificationReport:
    """Each instance's two sides are sign-twisted residue lists over its
    progression, compared whole; the first mismatch is located only when
    they differ."""
    bound = plan.caps.bound
    total = 0
    for check in plan.checks(claim):
        v1 = _side(check.lhs, check, plan)
        v2 = _side(check.rhs, check, plan)
        if v1 != v2:
            j = next(j for j, (x, y) in enumerate(zip(v1, v2)) if x != y)
            n = check.lo + j
            return VerificationReport(
                claim.id,
                bound,
                total + j + 1,
                "fail",
                {
                    "params": {**check.env, "n": n},
                    "index": check.lhs.a * n + check.lhs.b,
                    "lhs": v1[j],
                    "rhs": v2[j],
                },
            )
        total += check.hi - check.lo + 1
    if total == 0:
        return VerificationReport(
            claim.id, bound, 0, "skipped(no checkable instance within bound)"
        )
    return VerificationReport(claim.id, bound, total, "pass")


def _check_identity(claim: IdentityClaim, plan: TablePlan) -> VerificationReport:
    """Each case's two sides are coefficient lists, compared whole; the first
    mismatch is located only when they differ.  A side that stops short of
    the order raises ValueError, so it cannot shrink the check."""
    eff = plan.order_of(claim)
    total = 0
    lhs_tables, rhs_tables = plan.identity_tables(claim)
    for case in claim.cases:
        ring = _resolve(claim.ring, case)
        sides = []
        for name, side, tables in (
            ("lhs", claim.lhs, lhs_tables),
            ("rhs", claim.rhs, rhs_tables),
        ):
            series = side(ring, eff, *tables, **case)
            if series.order < eff:
                raise ValueError(
                    f"{claim.id}: {name} of case {case} stops at order"
                    f" {series.order}, not {eff}"
                )
            sides.append(series[: eff + 1])
        la, ra = sides
        if la != ra:
            n = next(n for n, (x, y) in enumerate(zip(la, ra)) if x != y)
            return VerificationReport(
                claim.id,
                eff,
                total + n + 1,
                "fail",
                {"params": dict(case), "index": n, "lhs": la[n], "rhs": ra[n]},
            )
        total += eff + 1
    return VerificationReport(claim.id, eff, total, "pass")


def verify_claim(claim, plan: TablePlan) -> VerificationReport:
    """Check the claim with the tables and knobs of plan, which must hold it:
    a congruence claim at every quantifier instance for all n with all
    indices in [1, plan.caps.bound], an identity claim in every case at
    plan.order_of(claim).  The claim's tables are released on return."""
    try:
        if isinstance(claim, CongruenceClaim):
            return _check_congruence(claim, plan)
        return _check_identity(claim, plan)
    finally:
        plan.done(claim)


def verify_claims(
    claims: Iterable, caps: Caps = Caps(), order: int | None = None
) -> Iterator[VerificationReport]:
    """Yield each claim's report in order, all from one TablePlan, so each
    table is built once.  Identity claims are checked at order, or else at
    their default order.  Every table is built inside a verify_claim call."""
    claims = list(claims)
    plan = TablePlan(claims, caps, order)
    for claim in claims:
        yield verify_claim(claim, plan)


def verify_congruence(
    claim: CongruenceClaim,
    bound: int,
    prime_cap: int = DEFAULT_PRIME_CAP,
    k_cap: int = DEFAULT_K_CAP,
) -> VerificationReport:
    """Check the claim for all n with all indices in [1, bound], as a plan of
    its own: the call builds its tables and frees them when it returns, so a
    loop over claims should use verify_claims to build each table once."""
    return verify_claim(claim, TablePlan([claim], Caps(prime_cap, k_cap, bound)))


def verify_identity(claim: IdentityClaim, order: int) -> VerificationReport:
    """Check the claim at order (capped by its order_cap) as a plan of its
    own, as verify_congruence does."""
    return verify_claim(claim, TablePlan([claim], order=order))


def hunt(
    ref: SequenceRef,
    modulus: int,
    max_step: int,
    bound: int,
    min_instances: int = 1,
) -> list[tuple[int, int, int]]:
    """Scan progressions a n + b (a <= max_step, b < a) where the sequence
    vanishes mod modulus at every index in [1, bound], reporting (a, b, count)
    for those with count >= min_instances.  Indices follow verify's instance
    rule and come from the same residue table, so count is what
    ``verify_congruence`` reports for the progression.  Subsumed progressions
    are kept."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    if min_instances < 1:
        raise ValueError("min_instances must be >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    # table[i] is the residue at index i + 1: the left side that verify reads
    # for the claim ref(n) = 0 mod modulus, whose one check has n = 1..bound
    whole = CongruenceClaim("hunt", Term(ref), ZERO, modulus)
    plan = TablePlan([whole], Caps(bound=bound))
    checks = plan.checks(whole)
    table = _side(whole.lhs, checks[0], plan) if checks else []
    plan.done(whole)  # the scan reads only the slice: free the table first
    results = []
    for a in range(1, max_step + 1):
        if (bound - 1) // a + 1 < min_instances:
            break  # no progression with this or a larger step has enough indices
        for b in range(min(a, bound + 1)):
            pos = (b or a) - 1
            count = 0
            while pos < bound:
                if table[pos]:
                    count = -1
                    break
                count += 1
                pos += a
            if count >= min_instances:
                results.append((a, b, count))
    return results
