"""Congruence/identity claim model and the finite-range verifier.

A CongruenceClaim is plain data: the Instances it asserts, each lhs = rhs
mod m for every n in range, where a side is a sequence at a n + b for
integers a and b.  The instances are a fixed tuple, or a PrimeFamily,
index = c p^(s k + e) (p n + i) over the primes p in given residue
classes, whose integer fields list its instances under the run's caps.
Claims are immutable named tuples: ``_replace`` gives a changed copy.

An instance is checked iff every index of both sides lies in [1, bound];
a claim with no checkable instance reports skipped, never pass.  Values
reach verify and hunt from one table source, sequences._build_series: a
series table for a series-backed sequence and a sieved one for a pointwise
sequence (see ``regover.sequences``).

Tables come from a TablePlan, which holds its own tables.  Before the
first table is built, the plan lists every congruence claim's instances
once and declares what each claim reads.  Every read is of one
kind, (table, modulus, indices), the indices a progression: start, step
and count.  A congruence side a n + b reads from a lo + b with step a, for
its instance's n in [lo, hi]; an identity claim's Read (table, step)
reads from 0 with its step, up to step times the order the run checks it
at, modulo the claim's ring.  TablePlan.read serves both.

The build rule: each table is built once per plan, over the lcm of its
moduli (pbar's include those of every A_l built from it), to its largest
read index, as the progression whose step is the gcd of its reads' starts
and steps.  The plan only plans: the builder (sequences._build_series, or
a Read's function) gets that ring, index and step and the whole tables it
is built from, and returns that progression.  An A_l in a plan reads all
of pbar, which the plan builds once for every A_l that shares it, unless
the A_l is pbar's only reader: that A_l is one quotient phi(-q^l) /
phi(-q), and pbar is not built.  A read mod m reduces the part it reads.
The plan's first read builds its progression tables, largest step first.
The lcm is taken per table, not over the run, because a table over a
larger modulus costs more to build.  A table is dropped after its last
consumer.

The plan also holds the run's knobs: the caps of its congruence claims and
the order of its identity claims.  verify_claim(claim, plan) reads them from
the plan and compares every instance or case of either kind in one loop.
verify_claims runs a batch from one plan per claim kind: congruence and
identity claims read separate tables, because their moduli of pbar (lcm
840 and 625) have the lcm 105,000, whose residues need twice the kernel
field width.  A batch of one claim builds its tables over exactly the
moduli that claim reads.  A hunt builds no plan: it scans the one table
sequences.sequence_series gives over Zmod(m), which for an A_l is the
quotient phi(-q^l) / phi(-q), with no pbar built.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple

from . import sequences
from .arith import primes_up_to
# bench/tracer.py wraps claims.sequence_value, so the name is kept here
from .sequences import SequenceRef, sequence_value, series_inputs  # noqa: F401
from .series import Ring, Series, Zmod

DEFAULT_BOUND = 2000
DEFAULT_PRIME_CAP = 20
DEFAULT_K_CAP = 1


class Caps(NamedTuple):
    """Finite instantiation budget: a PrimeFamily takes its primes p <=
    prime_cap and exponents k <= k_cap.  bound is the verification bound,
    so a family drops the (p, k, i) that leave no index in [1, bound]."""

    prime_cap: int = DEFAULT_PRIME_CAP
    k_cap: int = DEFAULT_K_CAP
    bound: int = DEFAULT_BOUND


class Term(NamedTuple):
    """One side of a congruence: seq(a n + b), optionally times (-1)^index.
    seq None denotes the literal constant 0."""

    seq: SequenceRef | None = None
    a: int = 1
    b: int = 0
    sign_twist: bool = False


ZERO = Term(seq=None)


class Instance(NamedTuple):
    """One concrete congruence, lhs = rhs mod modulus at every checkable n.
    params are the (name, value) pairs the instance fixes, such as
    (("p", 11), ("k", 0), ("i", 1)); a counterexample reports them with n."""

    params: tuple[tuple[str, int], ...]
    modulus: int
    lhs: Term
    rhs: Term


class PrimeFamily(NamedTuple):
    """seq(c p^(s k + e) (p n + i)) = 0 mod modulus for every prime p whose
    residue mod classes[0] is in classes[1], every k >= 0 and 0 < i < p.
    s = 0 fixes the exponent at e, and the family has no k."""

    seq: SequenceRef
    modulus: int
    c: int
    e: int
    s: int
    classes: tuple[int, tuple[int, ...]]

    def instances(self, caps: Caps) -> Iterator[Instance]:
        """The instances for p <= prime_cap and k <= k_cap, by p, then k,
        then i.  The least index of (p, k, i) is c p^(s k + e) i, at n = 0,
        so the values that put it above caps.bound are dropped: they have
        no checkable instance, and listing them would cost time quadratic
        in the prime cap."""
        m, allowed = self.classes
        for p in primes_up_to(min(caps.prime_cap, caps.bound)):
            if p % m not in allowed:
                continue
            for k in range(caps.k_cap + 1 if self.s else 1):
                scale = self.c * p ** (self.s * k + self.e)
                if scale > caps.bound:
                    break
                head = (("p", p), ("k", k)) if self.s else (("p", p),)
                for i in range(1, min(p, caps.bound // scale + 1)):
                    lhs = Term(self.seq, scale * p, scale * i)
                    yield Instance((*head, ("i", i)), self.modulus, lhs, ZERO)


class CongruenceClaim(NamedTuple):
    """A congruence at each of its instances: a fixed tuple of them, or a
    PrimeFamily's under the run's caps."""

    id: str
    instances: tuple[Instance, ...] | PrimeFamily
    source: str = ""


class Read(NamedTuple):
    """An identity side's read of a table: its coefficients at the indices
    step*n, over the claim's ring.  The table is a series-backed sequence,
    or else a function (ring, order, step) -> Series built by the module's
    build rule."""

    table: SequenceRef | Callable[[Ring, int, int], Series]
    step: int = 1


class _IdentityClaimFields(NamedTuple):
    id: str
    lhs: Callable[..., Series]
    rhs: Callable[..., Series]
    ring: Ring | Callable[[dict], Ring]
    cases: tuple[dict, ...] = ({},)
    default_order: int = 500
    order_cap: int | None = None
    source: str = ""
    lhs_reads: tuple[Read, ...] = ()
    rhs_reads: tuple[Read, ...] = ()


class IdentityClaim(_IdentityClaimFields):
    """Exact or modular series identity, evaluated case by case.

    lhs/rhs are callables (ring, order, *tables, **case) -> Series, where
    tables holds one Series over ring to order for each of the side's reads
    (lhs_reads or rhs_reads), in that order, from the run's TablePlan.  ring
    may be a callable of the case for per-case moduli, but a claim with
    reads needs one Zmod(m) ring: the plan builds its tables mod m.
    order_cap bounds evaluation for sides backed by the enumeration oracle.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named):
        claim = super().__new__(cls, *fields, **named)
        if not claim.cases:
            raise ValueError("identity claim needs at least one case")
        if (claim.lhs_reads or claim.rhs_reads) and (callable(claim.ring) or claim.ring.is_exact):
            raise ValueError("identity claim with reads needs one Zmod(m) ring")
        return claim

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)


class VerificationReport(NamedTuple):
    claim_id: str
    bound: int
    instances: int
    status: str  # "pass" | "fail" | "skipped(reason)"
    counterexample: dict | None = None

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


def _instance_range(sides: list[Term], bound: int) -> tuple[int, int]:
    """Largest n-interval where every sequence index lies in [1, bound]."""
    lo, hi = 0, bound
    for t in sides:
        if t.seq is None:
            continue
        lo = max(lo, -((t.b - 1) // t.a))  # ceil((1 - b) / a)
        hi = min(hi, (bound - t.b) // t.a)
    return lo, hi


class _Check(NamedTuple):
    """One instance with a checkable n: lhs(index) = rhs(index) mod modulus
    for n in [lo, hi]."""

    params: tuple[tuple[str, int], ...]
    modulus: int
    lhs: Term
    rhs: Term
    lo: int
    hi: int


def _declare(claim: CongruenceClaim, caps: Caps) -> list[_Check]:
    """The claim's instances that have a checkable n, in order."""
    instances = claim.instances
    if isinstance(instances, PrimeFamily):
        instances = instances.instances(caps)
    checks = []
    for instance in instances:
        sides = [instance.lhs, instance.rhs]
        if any(t.seq is not None and t.a < 1 for t in sides):
            raise ValueError("index multiplier must be >= 1")
        lo, hi = _instance_range(sides, caps.bound)
        if lo <= hi:
            checks.append(_Check(*instance, lo, hi))
    return checks


def _indices(t: Term, check: _Check) -> range:
    """The indices a n + b that side t reads for n in [lo, hi]."""
    return range(t.a * check.lo + t.b, t.a * check.hi + t.b + 1, t.a)


def _inputs(source: SequenceRef | Callable) -> tuple[SequenceRef, ...]:
    """The tables source's table is built from."""
    return series_inputs(source) if isinstance(source, SequenceRef) else ()


class TablePlan:
    """The tables that a run of claims reads, built by the module
    docstring's build rule.

    The plan holds its own tables, one per source: a SequenceRef or a
    Read's function.  The first ``checks`` call declares every claim's
    reads.  Each is (table, modulus, indices), the indices a range: a
    congruence side a n + b reads from a lo + b with step a, an identity
    claim's Read from 0 with its step.  The plan's first read builds its
    progression tables before any other, largest step first, and tables of
    one step in the order they were first declared, a claim's lhs reads
    before its rhs reads: a whole table, such as pbar to 125*order, is then
    never held while the core is expanded to the same length.  Every other
    table is built at its first read.  A table's consumers are the claims
    that read it and the tables built from it; after the last one, the plan
    drops it.  verify_claims gives each claim kind its own plan.
    """

    def __init__(self, claims: Iterable, caps: Caps = Caps(), order: int | None = None):
        if order is not None and order < 1:
            raise ValueError("order must be >= 1")
        self.caps = caps
        self.order = order
        self._claims = list(claims)
        self._checks: dict | None = None  # id(claim) -> its checks
        self._reads: dict = {}  # id(claim) -> the tables it reads
        self._modulus: dict = {}  # table -> lcm of its moduli
        self._top: dict = {}  # table -> largest index read
        self._step: dict = {}  # table -> gcd of its reads' starts and steps
        self._consumers: Counter = Counter()  # table -> readers and builds left
        self._tables: dict = {}  # table -> its table, until its last consumer
        self._started = False  # set by the first read, which builds the progression tables

    def order_of(self, claim: IdentityClaim) -> int:
        """The order the run checks an identity claim at: the plan's order,
        or else the claim's default_order, capped by its order_cap."""
        order = claim.default_order if self.order is None else self.order
        return order if claim.order_cap is None else min(order, claim.order_cap)

    def checks(self, claim) -> list[_Check]:
        """The claim's checks: its instances with a checkable n for a
        congruence claim, none for an identity claim.  The first call
        declares every claim's reads; a claim not in the plan raises
        ValueError."""
        if self._checks is None:
            self._checks = {}
            for c in self._claims:
                if isinstance(c, CongruenceClaim):
                    checks = _declare(c, self.caps)
                    reads = [
                        (t.seq, check.modulus, _indices(t, check))
                        for check in checks
                        for t in (check.lhs, check.rhs)
                        if t.seq is not None
                    ]
                else:
                    checks, order = [], self.order_of(c)
                    reads = [
                        (r.table, c.ring.modulus, range(0, r.step * order + 1, r.step))
                        for r in c.lhs_reads + c.rhs_reads
                    ]
                self._checks[id(c)] = checks
                for read in reads:
                    self._add(*read)
                sources = self._reads[id(c)] = {source for source, *_ in reads}
                self._consumers.update(sources)
        if id(claim) not in self._checks:
            raise ValueError(f"claim {claim.id} is not in the plan")
        return self._checks[id(claim)]

    def read(self, source, modulus: int, indices: range) -> list[int]:
        """source's table at indices, mod modulus, a declared read, as a
        fresh list; shorter when the table is.  The plan's first read builds
        its progression tables, largest step first."""
        if not self._started:
            self._started = True
            kept = [s for s, g in self._step.items() if g > 1]
            for s in sorted(kept, key=self._step.get, reverse=True):
                self._table(s)
        table, g = self._table(source), self._step[source]
        end = indices.start + indices.step * len(indices)
        values = table[indices.start // g : end // g : indices.step // g]
        if table.ring.modulus != modulus:
            values = [v % modulus for v in values]
        return values

    def _add(self, source, modulus: int, indices: range):
        """Add the read, and a whole read of every table source's is built
        from."""
        top, step = indices[-1], gcd(indices.start, indices.step)
        if source in self._modulus:
            self._modulus[source] = lcm(self._modulus[source], modulus)
            self._top[source] = max(self._top[source], top)
            self._step[source] = gcd(self._step[source], step)
        else:
            self._modulus[source], self._top[source], self._step[source] = modulus, top, step
            for dep in _inputs(source):
                self._consumers[dep] += 1  # source's build reads dep's table
        for dep in _inputs(source):
            self._add(dep, modulus, range(top + 1))

    def _table(self, source) -> Series:
        """source's planned progression, built on its first read from the
        whole tables it is built from.  An input that is not built yet and
        has no other consumer is left out, so the builder goes without it."""
        table = self._tables.get(source)
        if table is None:
            ring, top, step = Zmod(self._modulus[source]), self._top[source], self._step[source]
            deps = _inputs(source)
            inputs = [self._table(d) for d in deps if d in self._tables or self._consumers[d] > 1]
            for d in deps:
                self._release(d)
            if isinstance(source, SequenceRef):
                table = sequences._build_series(source, ring, top, *inputs, step=step)
            else:
                table = source(ring, top, step)
            self._tables[source] = table
        return table

    def done(self, claim):
        """Release the tables the claim read."""
        for source in self._reads.get(id(claim), ()):
            self._release(source)

    def _release(self, source):
        self._consumers[source] -= 1
        if self._consumers[source] <= 0:
            self._tables.pop(source, None)


def _side(t: Term, check: _Check, plan: TablePlan) -> list[int]:
    """Residues of one side over its progression for n in [lo, hi], read
    from the plan and sign-twisted."""
    m = check.modulus
    if t.seq is None:
        return [0] * (check.hi - check.lo + 1)
    indices = _indices(t, check)
    values = plan.read(t.seq, m, indices)
    if t.sign_twist:
        # negate at the odd indices: every other value from the first odd
        # index when a is odd, else every value or none
        start = indices.start
        if indices.step & 1:
            odd = slice((start + 1) & 1, None, 2)
        else:
            odd = slice(None if start & 1 else 0)
        values[odd] = [-v % m for v in values[odd]]
    return values


def _cases(claim, plan: TablePlan) -> Iterator[tuple[list, list, Callable]]:
    """What the claim compares, as (lhs, rhs, where): two residue lists
    over the same positions, and where(j), the params and index of
    position j.  A congruence claim gives one per check, an identity claim
    one per case, where a side that stops short of the order raises
    ValueError, so it cannot shrink the check."""
    for c in plan.checks(claim):
        yield (
            _side(c.lhs, c, plan),
            _side(c.rhs, c, plan),
            lambda j, c=c: (dict(c.params, n=c.lo + j), c.lhs.a * (c.lo + j) + c.lhs.b),
        )
    if isinstance(claim, CongruenceClaim):
        return
    order = plan.order_of(claim)
    tables = [
        [
            Series._raw(
                claim.ring,
                plan.read(r.table, claim.ring.modulus, range(0, r.step * order + 1, r.step)),
            )
            for r in reads
        ]
        for reads in (claim.lhs_reads, claim.rhs_reads)
    ]
    for case in claim.cases:
        ring = claim.ring(case) if callable(claim.ring) else claim.ring
        sides = []
        for name, side, side_tables in zip(("lhs", "rhs"), (claim.lhs, claim.rhs), tables):
            series = side(ring, order, *side_tables, **case)
            if series.order < order:
                raise ValueError(
                    f"{claim.id}: {name} of case {case} stops at order"
                    f" {series.order}, not {order}"
                )
            sides.append(series[: order + 1])
        yield (*sides, lambda j, case=case: (dict(case), j))


def verify_claim(claim, plan: TablePlan) -> VerificationReport:
    """Check the claim with the tables and knobs of plan, which must hold it:
    a congruence claim at every instance for all n with all indices in
    [1, plan.caps.bound], an identity claim in every case at
    plan.order_of(claim).  Each check's two sides are compared whole; the
    first mismatch is located only when they differ.  The claim's tables
    are released on return."""
    bound = plan.caps.bound if isinstance(claim, CongruenceClaim) else plan.order_of(claim)
    total = 0
    try:
        for lhs, rhs, where in _cases(claim, plan):
            if lhs != rhs:
                j = next(j for j, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                params, index = where(j)
                counterexample = {"params": params, "index": index, "lhs": lhs[j], "rhs": rhs[j]}
                return VerificationReport(claim.id, bound, total + j + 1, "fail", counterexample)
            total += len(lhs)
    finally:
        plan.done(claim)
    status = "pass" if total else "skipped(no checkable instance within bound)"
    return VerificationReport(claim.id, bound, total, status)


def verify_claims(
    claims: Iterable, caps: Caps = Caps(), order: int | None = None
) -> Iterator[VerificationReport]:
    """Yield each claim's report in order.  The claims of each kind share
    one TablePlan, so each table a kind reads is built once (see the module
    docstring).  Identity claims are checked at order, or else at their
    default order.  Every table is built inside a verify_claim call."""
    claims = list(claims)
    plans = {
        kind: TablePlan([c for c in claims if isinstance(c, CongruenceClaim) == kind], caps, order)
        for kind in (True, False)
    }
    for claim in claims:
        yield verify_claim(claim, plans[isinstance(claim, CongruenceClaim)])


def hunt(
    ref: SequenceRef,
    modulus: int,
    max_step: int,
    bound: int,
    min_instances: int = 1,
) -> list[tuple[int, int, int]]:
    """Scan progressions a n + b (a <= min(max_step, bound), b < a) where the
    sequence vanishes mod modulus at every index in [1, bound], reporting
    (a, b, count) for those with count >= min_instances.  A step past bound
    gives only single-index rows, each at an index that the rows at step
    bound cover already, so the scan stops there.  Indices follow verify's
    instance rule, and the residues are sequences.sequence_series over
    Zmod(modulus), built by the _build_series that builds verify's tables
    (for an A_l, one quotient phi(-q^l) / phi(-q), as no plan shares a
    pbar), so count is what ``verify_claims`` reports for the progression's
    claim.  Subsumed progressions are kept."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    if min_instances < 1:
        raise ValueError("min_instances must be >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    table = sequences.sequence_series(ref, Zmod(modulus), bound)[1:]  # table[i] is at i + 1
    results = []
    for a in range(1, min(max_step, bound) + 1):
        if (bound - 1) // a + 1 < min_instances:
            break  # no progression with this or a larger step has enough indices
        for b in range(a):
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
