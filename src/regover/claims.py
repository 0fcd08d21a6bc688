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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .sequences import SequenceRef, sequence_series, sequence_value
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


def _residues(
    ref: SequenceRef, modulus: int, indices: range, bound: int, tables: dict
) -> list[int]:
    """Residues mod modulus of ref at the indices, all in [1, bound].  A
    series-backed ref is computed at order bound once per (ref, modulus) in
    tables, then sliced; a pointwise ref is evaluated at the indices only."""
    if ref.is_series_backed:
        table = tables.get((ref, modulus))
        if table is None:
            table = tables[ref, modulus] = sequence_series(ref, Zmod(modulus), bound)
        return table[indices.start : indices.stop : indices.step]
    return [sequence_value(ref, idx) % modulus for idx in indices]


def _instance_range(sides: list[Term], bound: int) -> tuple[int, int]:
    """Largest n-interval where every sequence index lies in [1, bound]."""
    lo, hi = 0, bound
    for t in sides:
        if t.seq is None:
            continue
        lo = max(lo, -((t.b - 1) // t.a))  # ceil((1 - b) / a)
        hi = min(hi, (bound - t.b) // t.a)
    return lo, hi


def verify_congruence(
    claim: CongruenceClaim,
    bound: int,
    prime_cap: int = DEFAULT_PRIME_CAP,
    k_cap: int = DEFAULT_K_CAP,
) -> VerificationReport:
    """Check every quantifier instantiation of the claim for all n with all
    indices in [1, bound].  Each side is one sign-twisted residue list over
    its progression; the two lists are compared whole, and the first
    mismatch is located only when they differ."""
    caps = Caps(prime_cap, k_cap, bound)
    tables: dict = {}
    total = 0
    for env in _expand_quantifiers(claim.quantifiers, caps):
        modulus = _resolve(claim.modulus, env)
        lhs = _concretize(claim.lhs, env)
        rhs = _concretize(claim.rhs, env)
        lo, hi = _instance_range([lhs, rhs], bound)
        if hi < lo:
            continue
        sides = []
        for t in (lhs, rhs):
            if t.seq is None:
                sides.append([0] * (hi - lo + 1))
                continue
            indices = range(t.a * lo + t.b, t.a * hi + t.b + 1, t.a)
            values = _residues(t.seq, modulus, indices, bound, tables)
            if t.sign_twist:
                values = [-v % modulus if i & 1 else v for i, v in zip(indices, values)]
            sides.append(values)
        v1, v2 = sides
        if v1 != v2:
            j = next(j for j, (x, y) in enumerate(zip(v1, v2)) if x != y)
            n = lo + j
            return VerificationReport(
                claim.id,
                bound,
                total + j + 1,
                "fail",
                {
                    "params": {**env, "n": n},
                    "index": lhs.a * n + lhs.b,
                    "lhs": v1[j],
                    "rhs": v2[j],
                },
            )
        total += hi - lo + 1
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
) -> VerificationReport:
    """Dispatch on claim kind; identity claims use their default order
    unless one is given."""
    if isinstance(claim, CongruenceClaim):
        return verify_congruence(claim, bound, prime_cap, k_cap)
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
    # table[i] is the residue at index i + 1
    table = _residues(ref, modulus, range(1, bound + 1), bound, {})
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
