"""Congruence/identity claim model and the finite-range verifier.

A CongruenceClaim asserts lhs(index) = rhs(index) mod m for every n in
range, optionally quantified over small primes, exponents and residues.
Quantifier values and term fields may be callables of the quantifier
environment, which is how families like index = c p^(4k+3) (p n + i) are
expressed while staying plain mutable-by-replace dataclasses.

An instance is checked iff every index of both sides lies in [1, bound];
a claim with no checkable instance reports skipped, never pass.  Values
reach verify and hunt by one path: a progression's residues are a slice of
a series table, or pointwise values at exactly its indices.

Series tables come from a TablePlan, which holds its own tables and never
reads, writes or evicts the series cache of ``regover.sequences``.  Before
the first table is built, the plan expands every claim's quantifiers once
and declares what each claim reads: (sequence, modulus, top index).  Each
series-backed sequence is then built once per run, over the lcm of its own
moduli (pbar's include those of every A_l built from it), and a read mod m
reduces the slice it reads of that table.  The lcm is taken per sequence,
not over the run, because a table over a larger modulus costs more to
build.  A table is dropped after its last consumer.  A lone
verify_congruence is a plan of one claim, and a hunt one of the single
claim ref(n) = 0 mod m, so each builds its tables over exactly the moduli
it reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Iterator

from . import sequences
from .sequences import SequenceRef, sequence_value, series_inputs
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


@dataclass(frozen=True)
class IdentityClaim:
    """Exact or modular series identity, evaluated case by case.

    lhs/rhs are callables (ring, order, **case) -> Series; ring may be a
    callable of the case for per-case moduli.  order_cap bounds evaluation
    for sides backed by the enumeration oracle.
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
    """{(ref, modulus): top index} over the series-backed sides of checks."""
    needs: dict = {}
    for c in checks:
        for t in (c.lhs, c.rhs):
            if t.seq is not None and t.seq.is_series_backed:
                key = (t.seq, c.modulus)
                needs[key] = max(needs.get(key, 0), t.a * c.hi + t.b)
    return needs


class TablePlan:
    """The series tables that a run of congruence claims reads (see the
    module docstring).

    The plan holds its own tables, one per sequence, over the planned lcm
    and to the planned top index.  The first ``checks`` call declares every
    claim's needs.  A sequence is built, through sequences._build_series,
    when a claim first reads it, from the tables it is built from, reduced
    into its ring.  Its consumers are the claims that read it and the
    tables built from it; after the last one, the plan drops its table.
    Identity claims read no table and are left out.
    """

    def __init__(self, claims: Iterable, caps: Caps):
        self.caps = caps
        self._claims = [c for c in claims if isinstance(c, CongruenceClaim)]
        self._checks: dict | None = None  # id(claim) -> its checks
        self._reads: dict = {}  # id(claim) -> the sequences it reads
        self._modulus: dict = {}  # sequence -> lcm of its moduli
        self._top: dict = {}  # sequence -> largest top index
        self._consumers: Counter = Counter()  # sequence -> readers and builds left
        self._tables: dict = {}  # sequence -> its table, until its last consumer

    def checks(self, claim: CongruenceClaim) -> list[_Check]:
        """The claim's checks; the first call declares every claim's needs."""
        if self._checks is None:
            self._checks = {}
            for c in self._claims:
                checks = self._checks[id(c)] = _declare(c, self.caps)
                needs = _needs(checks)
                for (ref, modulus), top in needs.items():
                    self._add(ref, modulus, top)
                reads = self._reads[id(c)] = {ref for ref, _ in needs}
                for ref in reads:
                    self._consumers[ref] += 1
        if id(claim) not in self._checks:
            raise ValueError(f"claim {claim.id} is not in the plan")
        return self._checks[id(claim)]

    def _add(self, ref: SequenceRef, modulus: int, top: int):
        """Add the need, and the same need of every table ref's is built from."""
        if ref in self._modulus:
            self._modulus[ref] = lcm(self._modulus[ref], modulus)
            self._top[ref] = max(self._top[ref], top)
        else:
            self._modulus[ref], self._top[ref] = modulus, top
            for dep in series_inputs(ref):
                self._consumers[dep] += 1  # ref's build reads dep's table
        for dep in series_inputs(ref):
            self._add(dep, modulus, top)

    def _table(self, ref: SequenceRef) -> Series:
        """ref's table over the planned modulus, built on its first read from
        the tables it is built from, each reduced into its ring."""
        table = self._tables.get(ref)
        if table is None:
            m, top = self._modulus[ref], self._top[ref]
            inputs = []
            for dep in series_inputs(ref):
                dep_table = self._table(dep)
                self._release(dep)
                if dep_table.ring.modulus != m:
                    dep_table = Series._raw(Zmod(m), [c % m for c in dep_table[: top + 1]])
                inputs.append(dep_table)
            table = self._tables[ref] = sequences._build_series(ref, Zmod(m), top, *inputs)
        return table

    def done(self, claim: CongruenceClaim):
        """Release the tables the claim read."""
        for ref in self._reads.get(id(claim), ()):
            self._release(ref)

    def _release(self, ref: SequenceRef):
        self._consumers[ref] -= 1
        if self._consumers[ref] <= 0:
            self._tables.pop(ref, None)


def _side(t: Term, check: _Check, plan: TablePlan) -> list[int]:
    """Residues of one side over its progression for n in [lo, hi]: a slice
    of the planned table for a series-backed sequence, reduced mod the
    check's modulus when that properly divides the table's, and pointwise
    values at exactly its indices otherwise."""
    m = check.modulus
    if t.seq is None:
        return [0] * (check.hi - check.lo + 1)
    indices = range(t.a * check.lo + t.b, t.a * check.hi + t.b + 1, t.a)
    if t.seq.is_series_backed:
        table = plan._table(t.seq)
        values = table[indices.start : indices.stop : indices.step]
        if table.ring.modulus != m:
            values = [v % m for v in values]
    else:
        values = [sequence_value(t.seq, idx) % m for idx in indices]
    if t.sign_twist:
        values = [-v % m if i & 1 else v for i, v in zip(indices, values)]
    return values


def verify_congruence(
    claim: CongruenceClaim,
    bound: int,
    prime_cap: int = DEFAULT_PRIME_CAP,
    k_cap: int = DEFAULT_K_CAP,
    plan: TablePlan | None = None,
) -> VerificationReport:
    """Check every quantifier instantiation of the claim for all n with all
    indices in [1, bound].  Each side is one sign-twisted residue list over
    its progression; the two lists are compared whole, and the first
    mismatch is located only when they differ.

    Tables come from plan, which must hold the claim and have been made
    with these caps.  With no plan, the claim is a plan of its own: the
    call builds its tables and frees them when it returns, so a loop over
    claims should pass one plan over all of them to build each table once."""
    caps = Caps(prime_cap, k_cap, bound)
    if plan is None:
        plan = TablePlan([claim], caps)
    elif plan.caps != caps:
        raise ValueError(f"plan made for {plan.caps}, not {caps}")
    total = 0
    try:
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
    finally:
        plan.done(claim)
    if total == 0:
        return VerificationReport(
            claim.id, bound, 0, "skipped(no checkable instance within bound)"
        )
    return VerificationReport(claim.id, bound, total, "pass")


def verify_identity(claim: IdentityClaim, order: int) -> VerificationReport:
    """Evaluate both series expressions of every case at the given order
    (capped by the claim's order_cap); the coefficient lists are compared
    whole, and the first mismatch is located only when they differ."""
    if order < 1:
        raise ValueError("order must be >= 1")
    eff = order if claim.order_cap is None else min(order, claim.order_cap)
    total = 0
    for case in claim.cases:
        ring = _resolve(claim.ring, case)
        lhs = claim.lhs(ring, eff, **case)
        rhs = claim.rhs(ring, eff, **case)
        top = min(lhs.order, rhs.order, eff)
        la, ra = lhs[: top + 1], rhs[: top + 1]
        if la != ra:
            n = next(n for n, (x, y) in enumerate(zip(la, ra)) if x != y)
            return VerificationReport(
                claim.id,
                eff,
                total + n + 1,
                "fail",
                {"params": dict(case), "index": n, "lhs": la[n], "rhs": ra[n]},
            )
        total += top + 1
    return VerificationReport(claim.id, eff, total, "pass")


def verify_claim(
    claim,
    bound: int = DEFAULT_BOUND,
    prime_cap: int = DEFAULT_PRIME_CAP,
    k_cap: int = DEFAULT_K_CAP,
    order: int | None = None,
    plan: TablePlan | None = None,
) -> VerificationReport:
    """Dispatch on claim kind; identity claims use their default order
    unless one is given.  A congruence claim reads its tables from plan
    (see verify_congruence)."""
    if isinstance(claim, CongruenceClaim):
        return verify_congruence(claim, bound, prime_cap, k_cap, plan)
    return verify_identity(claim, order if order is not None else claim.default_order)


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
